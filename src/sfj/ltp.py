"""Detection of locally persuasive agents from network topology alone.

An agent p is persuasive when some non-stubborn agent q can only hear from
the stubborn part of the network through p: every path from every stubborn
agent to q traverses p. If p itself is non-stubborn it must additionally not
be cut off by a single gatekeeper of its own. Both conditions reduce to
immediate-dominator queries on the digraph augmented with a virtual root that
points at every stubborn agent, which is how this module computes them.

Edge weights and signs play no role in detection; signs enter only through
the cooperativity condition C2, which detection evaluates from the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import ConditionsNotMet, NoStubbornAgents, UnreachableNodes
from .graph import SignedDigraph, _csr, _postorder

VIRTUAL_ROOT = 0  # agents are 1..n, so 0 is free for the synthetic root


class Violation(NamedTuple):
    node: int
    reason: str


@dataclass(frozen=True)
class LTPCertificate:
    """Detected persuasive agents, their persuaded sets, and condition flags.

    covered (C1): the persuasive clusters {p} | N_p cover every agent.
    cooperative (C2): every in-edge of every persuaded agent is positive.
    In-edges of the persuasive agents themselves are exempt; they may be
    antagonistic without voiding the guarantee.
    violations: C1's failures by agent id, then C2's in edge order.
    """

    stubborn: frozenset[int]
    ltp_agents: tuple[int, ...]
    persuaded: Mapping[int, frozenset[int]]
    covered: bool
    cooperative: bool
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class ClusterPrediction:
    """Predicted opinion clusters; flagged singletons fall outside the guarantee."""

    clusters: tuple[frozenset[int], ...]
    flagged_singletons: frozenset[int]


def build_dominator_tree(g: SignedDigraph) -> dict[int, int]:
    """Immediate dominators of the unsigned digraph rooted at a virtual super-source.

    The virtual root gets an edge to every stubborn agent, so a node p
    dominates q exactly when every path from every stubborn agent to q
    traverses p. Returns idom: each agent mapped to its immediate dominator,
    VIRTUAL_ROOT for agents that no single other agent can cut off. Its keys
    run in reverse postorder, so every agent comes after all of its
    dominators. Computed by Cooper, Harvey & Kennedy, "A Simple, Fast
    Dominance Algorithm" (2001), on nodes renumbered in DFS postorder, where
    a dominator has the larger number. Each idom starts at the node's
    highest-numbered predecessor (numbered above it, as its DFS parent is);
    sweeps in reverse postorder then set it to the nearest common ancestor,
    in the current tree, of all the node's predecessors, until a sweep
    changes nothing. Nodes with one predecessor keep it and are not swept.
    The result is exact: the start tree's root paths are graph paths, so a
    node's ancestors hold all of its dominators; a sweep only moves an idom
    up to one of its ancestors; and a sweep that changes nothing solves the
    dominance equations, whose every solution lies inside the true dominator
    sets (Kildall, POPL 1973). Acyclic graphs settle in one sweep and a
    second confirms it; cycles entered at several points take a few more.
    Long ancestor walks and many sweeps make the worst case superlinear, but
    on these networks the cost is near-linear in n + edges, and memory is
    O(n + edges).

    Raises UnreachableNodes if any non-stubborn agent has no path from a
    stubborn agent, and NoStubbornAgents when there is nothing to root at.
    """
    if g.m == 0:
        raise NoStubbornAgents("network has no stubborn agent")

    keep = g.src != g.dst  # a self-loop never changes who dominates whom
    src = np.concatenate((np.full(g.m, VIRTUAL_ROOT), g.src[keep]))
    dst = np.concatenate((g.stubborn, g.dst[keep]))
    # Successors ascending, so the postorder of the reachable subgraph is fixed.
    seen = [False] * (g.n + 1)
    post, _ = _postorder(*_csr(src, dst, g.n), [VIRTUAL_ROOT], seen)
    # Every stubborn agent hangs off the root, so the unseen are exactly the
    # non-stubborn agents that no stubborn agent reaches.
    if len(post) <= g.n:
        raise UnreachableNodes([v for v in range(1, g.n + 1) if not seen[v]])

    number = np.empty(g.n + 1, dtype=np.int64)
    number[post] = np.arange(g.n + 1)
    to, by = number[dst], number[src]
    bounds, preds = _csr(to, by, g.n)
    root = g.n  # the root's postorder number
    idom = [preds[b - 1] for b in bounds[1:]]  # each node's highest predecessor
    idom[root] = root
    multi = np.flatnonzero(np.bincount(to, minlength=g.n + 1) > 1)[::-1].tolist()
    changed = True
    while changed:
        changed = False
        for v in multi:
            first, last = bounds[v], bounds[v + 1] - 1
            new = preds[last]
            for p in preds[first:last]:
                while p != new:  # walk both fingers up to where they meet
                    while p < new:
                        p = idom[p]
                    while new < p:
                        new = idom[new]
            if idom[v] != new:
                idom[v] = new
                changed = True

    rpo = range(root - 1, -1, -1)  # every node but the root, reverse postorder
    return {post[v]: post[idom[v]] for v in rpo}


def detect_ltp_agents(g: SignedDigraph, idom: Mapping[int, int]) -> LTPCertificate:
    """Read the persuasive agents, their persuaded sets and C1/C2 off the dominator tree.

    idom is build_dominator_tree's mapping, keys in reverse postorder. p
    qualifies iff no single agent dominates it (idom[p] is VIRTUAL_ROOT;
    automatic for stubborn agents) and it strictly dominates at least one
    agent. Its persuaded set is exactly its dominator subtree, gathered in
    one pass: top[v] is the ancestor of v just below the root. The same pass
    gives both conditions: the uncovered agents (C1) are the root's children
    that dominate nobody, and v is persuaded iff top[v] != v, so C2 reads
    that mask at every edge's head.
    """
    top = [0] * (g.n + 1)
    members: dict[int, list[int]] = {}
    for v, d in idom.items():  # reverse postorder: d precedes v
        if d == VIRTUAL_ROOT:
            top[v] = v
            members[v] = []
        else:
            top[v] = t = top[d]
            members[t].append(v)
    ltp = tuple(sorted(p for p, below in members.items() if below))
    uncovered = sorted(p for p, below in members.items() if not below)
    persuaded = np.array(top) != np.arange(g.n + 1)
    negative = persuaded[g.dst] & (g.w < 0)
    violations = [Violation(v, "not covered by any persuasive cluster") for v in uncovered]
    violations += [
        Violation(dst, f"negative in-edge from {src} at persuaded agent")
        for src, dst in zip(g.src[negative].tolist(), g.dst[negative].tolist())
    ]
    return LTPCertificate(stubborn=frozenset(g.stubborn), ltp_agents=ltp,
                          persuaded={p: frozenset(members[p]) for p in ltp},
                          covered=not uncovered, cooperative=not negative.any(),
                          violations=tuple(violations))


def analyze(g: SignedDigraph) -> LTPCertificate:
    """Detect persuasive agents and evaluate C1/C2 in one call."""
    return detect_ltp_agents(g, build_dominator_tree(g))


def predict_clusters(cert: LTPCertificate, mode: str = "strict") -> ClusterPrediction:
    """Opinion clusters implied by the certificate.

    strict: requires C1 and C2, yields one cluster {p} | N_p per persuasive
    agent. relaxed: additionally gives every uncovered stubborn agent a
    singleton cluster, flagged because nothing ties its final opinion to
    anyone else's; uncovered non-stubborn agents stay unassigned. Both modes
    refuse to predict when C2 fails, since then even the per-cluster
    guarantee is void.
    """
    if mode not in ("strict", "relaxed"):
        raise ValueError(f"mode must be 'strict' or 'relaxed', got {mode!r}")
    if not cert.cooperative:
        raise ConditionsNotMet("cooperativity condition C2 fails")
    if mode == "strict" and not cert.covered:
        raise ConditionsNotMet("coverage condition C1 fails")

    clusters = [frozenset({p}) | cert.persuaded[p] for p in cert.ltp_agents]
    flagged = frozenset()
    if mode == "relaxed":
        flagged = cert.stubborn.difference(cert.ltp_agents)  # stubborn: never persuaded
        clusters.extend(frozenset({s}) for s in sorted(flagged))
    return ClusterPrediction(clusters=tuple(clusters), flagged_singletons=flagged)


def certificate_to_dict(cert: LTPCertificate) -> dict:
    return {
        "ltp": list(cert.ltp_agents),
        "persuaded": {str(p): sorted(members) for p, members in cert.persuaded.items()},
        "C1": cert.covered,
        "C2": cert.cooperative,
        "violations": [
            {"node": v.node, "reason": v.reason} for v in cert.violations
        ],
    }
