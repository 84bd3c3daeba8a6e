"""Detection of locally persuasive agents from network topology alone.

An agent p is persuasive when some non-stubborn agent q can only hear from
the stubborn part of the network through p: every path from every stubborn
agent to q traverses p. If p itself is non-stubborn it must additionally not
be cut off by a single gatekeeper of its own. Both conditions reduce to
immediate-dominator queries on the digraph augmented with a virtual root that
points at every stubborn agent, which is how this module computes them.

Edge weights and signs play no role in detection; signs enter only through
the cooperativity condition C2 checked by check_conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .errors import ConditionsNotMet, NoStubbornAgents, UnreachableNodes
from .graph import SignedDigraph, _grouped

VIRTUAL_ROOT = 0  # agents are 1..n, so 0 is free for the synthetic root


@dataclass(frozen=True)
class DominatorTree:
    """Immediate dominators over the stubborn-rooted search graph.

    idom maps each reachable agent to its immediate dominator (VIRTUAL_ROOT
    for agents no single other agent can cut off). Its keys run in reverse
    postorder, so every agent comes after all of its dominators.
    """

    virtual_root: int
    idom: Mapping[int, int]


class Violation(NamedTuple):
    node: int
    reason: str


@dataclass(frozen=True)
class LTPCertificate:
    """Detected persuasive agents, their persuaded sets, and condition flags.

    covered (C1): the persuasive clusters {p} | N_p cover every agent.
    cooperative (C2): every in-edge of every persuaded agent is positive.
    Both are None until check_conditions has run.
    """

    n: int
    stubborn: frozenset[int]
    ltp_agents: tuple[int, ...]
    persuaded: Mapping[int, frozenset[int]]
    covered: Optional[bool] = None
    cooperative: Optional[bool] = None
    violations: tuple[Violation, ...] = ()

    def covered_set(self) -> frozenset[int]:
        nodes = set(self.ltp_agents)
        for members in self.persuaded.values():
            nodes |= members
        return frozenset(nodes)

    def same_detection(self, other: "LTPCertificate") -> bool:
        """Equality of the topology-only part (agents and persuaded sets)."""
        return (
            self.ltp_agents == other.ltp_agents
            and dict(self.persuaded) == dict(other.persuaded)
        )


@dataclass(frozen=True)
class ClusterPrediction:
    """Predicted opinion clusters; flagged singletons fall outside the guarantee."""

    clusters: tuple[frozenset[int], ...]
    flagged_singletons: frozenset[int]


def build_dominator_tree(g: SignedDigraph) -> DominatorTree:
    """Dominators of the unsigned digraph rooted at a virtual super-source.

    The virtual root gets an edge to every stubborn agent, so a node p
    dominates q exactly when every path from every stubborn agent to q
    traverses p. Computed by Cooper, Harvey & Kennedy, "A Simple, Fast
    Dominance Algorithm" (2001): sweep the nodes in reverse postorder and set
    each idom to the nearest common ancestor, in the current tree, of the
    predecessors seen so far, until a sweep changes nothing. A sweep reads
    every edge once plus the ancestor walks of `intersect`. Acyclic graphs
    settle in one sweep and a second confirms it; cycles entered at several
    points take a few more. Long ancestor walks and many sweeps make the
    worst case superlinear, but on these networks the cost is near-linear in
    n + edges, and memory is O(n + edges).

    Raises UnreachableNodes if any non-stubborn agent has no path from a
    stubborn agent, and NoStubbornAgents when there is nothing to root at.
    """
    if g.m == 0:
        raise NoStubbornAgents("network has no stubborn agent")

    loop = g.src == g.dst  # a self-loop never changes who dominates whom
    src, dst = g.src[~loop], g.dst[~loop]
    preds = _grouped(dst, src, g.n)
    succs = _grouped(src, dst, g.n)  # ascending, so the DFS order is fixed
    succs[VIRTUAL_ROOT] = list(g.stubborn)
    for s in g.stubborn:
        preds[s].append(VIRTUAL_ROOT)

    # Reverse postorder of the reachable subgraph (iterative DFS).
    order: list[int] = []
    seen = [False] * (g.n + 1)
    seen[VIRTUAL_ROOT] = True
    stack = [(VIRTUAL_ROOT, iter(succs[VIRTUAL_ROOT]))]
    while stack:
        node, it = stack[-1]
        for nxt in it:
            if not seen[nxt]:
                seen[nxt] = True
                stack.append((nxt, iter(succs[nxt])))
                break
        else:
            order.append(node)
            stack.pop()
    # Every stubborn agent hangs off the root, so the unseen are exactly the
    # unreachable non-stubborn agents, as check_reachability would report.
    unreachable = [v for v in range(1, g.n + 1) if not seen[v]]
    if unreachable:
        raise UnreachableNodes(unreachable)
    rpo = order[::-1]
    rpo_num = [0] * (g.n + 1)
    for i, v in enumerate(rpo):
        rpo_num[v] = i

    idom = [-1] * (g.n + 1)  # -1: not yet processed in any sweep
    idom[VIRTUAL_ROOT] = VIRTUAL_ROOT

    def intersect(a: int, b: int) -> int:
        # Walk both fingers up the current tree until they meet; a
        # dominator always has the smaller reverse-postorder number.
        while a != b:
            while rpo_num[a] > rpo_num[b]:
                a = idom[a]
            while rpo_num[b] > rpo_num[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for v in rpo[1:]:
            new = -1
            for p in preds[v]:
                if idom[p] != -1:
                    new = p if new == -1 else intersect(p, new)
            if idom[v] != new:
                idom[v] = new
                changed = True

    # The check after the DFS rules out unreachable agents, so rpo covers
    # every agent.
    return DominatorTree(
        virtual_root=VIRTUAL_ROOT, idom={v: idom[v] for v in rpo[1:]}
    )


def detect_ltp_agents(g: SignedDigraph, tree: DominatorTree) -> LTPCertificate:
    """Read the persuasive agents and their persuaded sets off the dominator tree.

    p qualifies iff no single agent dominates it (idom(p) is the virtual
    root; automatic for stubborn agents) and it strictly dominates at least
    one agent. Its persuaded set is exactly its dominator subtree, gathered in
    one pass: top[v] is the ancestor of v just below the root.
    """
    top: dict[int, int] = {}
    members: dict[int, set[int]] = {}
    for v, d in tree.idom.items():  # reverse postorder: d precedes v
        top[v] = v if d == tree.virtual_root else top[d]
        if top[v] != v:
            members.setdefault(top[v], set()).add(v)
    stubborn = frozenset(g.stubborn)
    ltp = tuple(sorted(members))
    persuaded = {p: frozenset(members[p]) for p in ltp}
    _check_internal_consistency(g, stubborn, persuaded)
    return LTPCertificate(
        n=g.n, stubborn=stubborn, ltp_agents=ltp, persuaded=persuaded
    )


def _check_internal_consistency(g, stubborn, persuaded):
    # Persuaded sets are pairwise disjoint, non-stubborn only, and closed
    # under in-neighbours up to the persuader. Violations here would mean the
    # dominator computation is broken, never bad input. One pass over all
    # persuaded agents, each listed once per set that holds it.
    sizes = np.fromiter(map(len, persuaded.values()), np.int64, len(persuaded))
    persuaders = np.fromiter(persuaded, np.int64, len(persuaded))
    assert sizes.all(), f"empty persuaded set recorded for {persuaders[sizes == 0]}"
    agents = np.fromiter(chain.from_iterable(persuaded.values()), np.int64, sizes.sum())
    by = np.repeat(persuaders, sizes)  # each listed agent's persuader
    owner = np.zeros(g.n + 1, dtype=np.int64)  # 0: in no persuaded set
    owner[agents] = by
    # An agent listed by two persuaders keeps one owner, so the other differs.
    shared = agents[owner[agents] != by]
    assert not shared.size, (f"persuaded sets of {np.unique(by[np.isin(agents, shared)])} "
                             f"overlap at {np.unique(shared)}")
    held = np.fromiter(stubborn, np.int64, len(stubborn))
    held = held[owner[held] != 0]
    assert not held.size, f"stubborn agents {held} persuaded by {owner[held]}"
    into = owner[g.dst]
    escape = (into != 0) & (g.src != into) & (owner[g.src] != into)
    assert not escape.any(), f"edges {np.flatnonzero(escape)} escape a persuaded set"


def check_conditions(g: SignedDigraph, cert: LTPCertificate) -> LTPCertificate:
    """Evaluate the two multiconsensus conditions on a detection certificate.

    C1 (covered): the clusters {p} | N_p exhaust the agent set.
    C2 (cooperative): every in-edge of every persuaded agent has positive
    weight. In-edges of the persuasive agents themselves are exempt; they may
    be antagonistic without voiding the guarantee.
    """
    violations = list(cert.violations)
    covered_set = cert.covered_set()
    for node in sorted(set(range(1, g.n + 1)) - covered_set):
        violations.append(Violation(node, "not covered by any persuasive cluster"))
    covered = len(covered_set) == g.n

    persuaded = np.zeros(g.n + 1, dtype=bool)
    persuaded[[q for members in cert.persuaded.values() for q in members]] = True
    negative = persuaded[g.dst] & (g.w < 0)
    cooperative = not negative.any()
    violations += [
        Violation(dst, f"negative in-edge from {src} at persuaded agent")
        for src, dst in zip(g.src[negative].tolist(), g.dst[negative].tolist())
    ]
    return replace(
        cert,
        covered=covered,
        cooperative=cooperative,
        violations=tuple(violations),
    )


def analyze(g: SignedDigraph) -> LTPCertificate:
    """Detect persuasive agents and evaluate C1/C2 in one call."""
    tree = build_dominator_tree(g)
    return check_conditions(g, detect_ltp_agents(g, tree))


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
    if cert.covered is None or cert.cooperative is None:
        raise ValueError("certificate lacks condition flags; run check_conditions")
    if not cert.cooperative:
        raise ConditionsNotMet("cooperativity condition C2 fails")
    if mode == "strict" and not cert.covered:
        raise ConditionsNotMet("coverage condition C1 fails")

    clusters = [frozenset({p}) | cert.persuaded[p] for p in cert.ltp_agents]
    flagged = frozenset()
    if mode == "relaxed":
        flagged = cert.stubborn - cert.covered_set()
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
