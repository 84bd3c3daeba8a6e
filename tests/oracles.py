"""Slow, independent reference implementations that the tests compare against.

None of this is part of the sfj package: each routine restates a result the
package computes another way (by path enumeration, by a truncated series, by
dense eigenvalues, by one explicit step or by block elimination of the
steady-state system) so a test can check one route against the other.
"""

import functools
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from sfj import (
    ConditionsNotMet,
    Edge,
    GraphFormatError,
    GraphValidationError,
    LTPCertificate,
    NormalizedSystem,
    NoStubbornAgents,
    NotConverged,
    OpinionTrace,
    SFJError,
    SignedDigraph,
    SingularBlock,
    UnreachableNodes,
    Violation,
    graph_from_dict,
    normalize,
)
from sfj import dynamics
from sfj.dynamics import DEFAULT_MAX_ITER, DEFAULT_TOL, _level_plan, _level_solve, _sweep_bound
from sfj.graph import _csr, _normalized, _postorder


class SizeLimit(SFJError):
    """Input exceeds the size bound of an exhaustive-enumeration routine."""


def reweighted(g: SignedDigraph, weights: Iterable[float], beta=None) -> SignedDigraph:
    """Copy of g with new edge weights (same order as .edges) and optional beta."""
    ws = list(weights)
    if len(ws) != len(g.edges):
        raise GraphValidationError(f"expected {len(g.edges)} weights, got {len(ws)}")
    edges = tuple(Edge(e.src, e.dst, w) for e, w in zip(g.edges, ws))
    return SignedDigraph(g.n, edges, g.beta if beta is None else tuple(beta), g.x0)


def out_neighbours(g: SignedDigraph) -> dict[int, list[int]]:
    """Each agent's out-neighbours, in edge order."""
    out: dict[int, list[int]] = {i: [] for i in range(1, g.n + 1)}
    for src, dst, _ in g.edges:
        out[src].append(dst)
    return out


def in_neighbours(g: SignedDigraph) -> dict[int, list[int]]:
    """Each agent's in-neighbours, in edge order."""
    inn: dict[int, list[int]] = {i: [] for i in range(1, g.n + 1)}
    for src, dst, _ in g.edges:
        inn[dst].append(src)
    return inn


def _agent(v, n: int) -> int:
    """v as an agent id of 1..n, else ValueError; 2.0 counts, a bool, a
    string, None or a complex number does not."""
    real = isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))
    if real and not 1 <= v <= n:
        raise ValueError(f"agent {v} outside 1..{n}")
    if not real or not float(v).is_integer():
        raise ValueError(f"agent {v!r} is not an integer")
    return int(v)


def _loop_int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected an integer, got {v!r}")
    # The bound comes first: math.isnan cannot take an int beyond float range.
    if abs(v) > 2**53 or math.isnan(v) or int(v) != v:
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _loop_float(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected a number, got {v!r}")
    return float(v)


def _loop_validate(n, edges, beta, x0) -> None:
    """SignedDigraph's checks, one agent and one edge at a time."""
    if n < 1:
        raise GraphValidationError(f"need at least one agent, got n={n}")
    if len(beta) != n or len(x0) != n:
        raise GraphValidationError(
            f"beta and x0 must have length n={n}, got {len(beta)} and {len(x0)}"
        )
    for b in beta:
        if not 0.0 <= b <= 1.0:
            raise GraphValidationError(f"stubbornness {b} outside [0, 1]")
    for i, v in enumerate(x0, start=1):
        if not math.isfinite(v):
            raise GraphValidationError(f"agent {i} has non-finite x0 {v}")
    seen = set()
    for src, dst, w in edges:
        if not (1 <= src <= n and 1 <= dst <= n):
            raise GraphValidationError(
                f"edge ({src}, {dst}) references an agent outside 1..{n}"
            )
        if not math.isfinite(w):
            raise GraphValidationError(f"edge ({src}, {dst}) has non-finite weight {w}")
        if w == 0.0:
            raise GraphValidationError(f"edge ({src}, {dst}) has zero weight")
        if (src, dst) in seen:
            raise GraphValidationError(f"duplicate edge ({src}, {dst})")
        seen.add((src, dst))


def loop_graph_from_dict(data) -> SignedDigraph:
    """graph_from_dict one entry at a time: convert and check each agent and
    edge in file order, then run SignedDigraph's checks in a loop."""
    if not isinstance(data, dict):
        raise GraphFormatError(f"expected a JSON object, got {type(data).__name__}")
    try:
        n, agents, raw_edges = data["n"], data["agents"], data["edges"]
    except KeyError as exc:
        raise GraphFormatError(f"missing required field {exc}") from exc
    try:
        n = _loop_int(n)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GraphFormatError(f"'n' must be an integer, got {n!r}") from exc
    if not isinstance(agents, list) or not isinstance(raw_edges, list):
        raise GraphFormatError("'agents' and 'edges' must be arrays")
    if n > len(agents):
        raise GraphFormatError(
            f"agents missing from file: n={n} but only {len(agents)} agent entries"
        )
    beta = [None] * n
    x0 = [None] * n
    for entry in agents:
        try:
            i = _loop_int(entry["id"])
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise GraphFormatError(f"agent entry {entry!r} has no integer id") from exc
        if not 1 <= i <= n:
            raise GraphFormatError(f"agent id {i} outside 1..{n}")
        if beta[i - 1] is not None:
            raise GraphFormatError(f"agent {i} listed twice")
        try:
            beta[i - 1] = _loop_float(entry["beta"])
            x0[i - 1] = _loop_float(entry["x0"])
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise GraphFormatError(f"agent {i}: bad beta/x0: {exc}") from exc
    edges = []
    for entry in raw_edges:
        try:
            src, dst = _loop_int(entry["from"]), _loop_int(entry["to"])
            edges.append(Edge(src, dst, _loop_float(entry["w"])))
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise GraphFormatError(f"bad edge entry {entry!r}: {exc}") from exc
    _loop_validate(n, edges, beta, x0)
    return SignedDigraph(n, tuple(edges), tuple(beta), tuple(x0))


def text_load_graph(path) -> SignedDigraph:
    """load_graph as it was before orjson: a text-mode UTF-8 read, then
    json.load and graph_from_dict."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                f"{exc.msg}"
            ) from exc
    return graph_from_dict(data)


def unreached_in_block(n: int, src: np.ndarray, dst: np.ndarray, block) -> frozenset[int]:
    """Agents of block that no path from outside block, running inside it, reaches.

    Agents are 1..n and edges run src -> dst; only edges into block count.
    The gate of the per-pair reduce_steady_state and of stepwise_simulate's
    stop rule, and a reference for dynamics._unanchored. Let A be abs(W)
    restricted to block; W's rows are normalized over all in-edges, so A's
    rows sum to at most one, and a row falls short exactly when its agent has
    an in-edge from outside block (a self-loop is not one). rho(A) < 1 iff
    every agent of block is reached from such an agent along edges inside
    block: an unreached set is a closed class whose rows sum to one, so then
    rho(A) = 1. O(n + edges).
    """
    inside = np.zeros(n + 1, dtype=bool)
    inside[np.fromiter(block, dtype=np.int64)] = True
    src_in, dst_in = inside[src], inside[dst]
    seen = [False] * (n + 1)
    _postorder(*_csr(src[src_in & dst_in], dst[src_in & dst_in], n),
               dst[dst_in & ~src_in].tolist(), seen)
    return frozenset(np.flatnonzero(inside & ~np.array(seen)).tolist())


def unreached_by_closure(g: SignedDigraph, block, beta: bool = True) -> frozenset[int]:
    """Agents of block that no path from outside block, inside block, reaches.

    The boolean closure, under the adjacency restricted to block, of the
    block agents that have an in-edge from outside it and, with beta, of
    those whose 1 - beta rounds below one (the rows of R[block, block] that
    fall short), grown one step at a time until it stops growing. Over
    every agent, it is the influence solve's gate. Without beta it is the gate of the per-pair reduce_steady_state below.
    """
    inside = sorted(block)
    pos = {v: i for i, v in enumerate(inside)}
    adj = np.zeros((len(inside), len(inside)), dtype=bool)
    entered = np.array([beta and 1.0 - g.beta[v - 1] < 1.0 for v in inside], dtype=bool)
    for src, dst, _ in g.edges:
        if dst in pos:
            if src in pos:
                adj[pos[src], pos[dst]] = True
            else:
                entered[pos[dst]] = True
    reached, grown = entered, entered | (entered @ adj)
    while not np.array_equal(grown, reached):
        reached, grown = grown, grown | (grown @ adj)
    return frozenset(v for v, hit in zip(inside, reached) if not hit)


def unreached_by_stubborn(g: SignedDigraph) -> frozenset[int]:
    """Non-stubborn agents no stubborn agent reaches, stubborn meaning beta > 0
    as detection reads it: unreached_by_closure on the other agents, without
    beta. Empty for a graph of stubborn agents only."""
    return unreached_by_closure(g, (np.flatnonzero(g.beta == 0.0) + 1).tolist(), beta=False)


def _grouped(keys: np.ndarray, vals: np.ndarray, n: int) -> list[list[int]]:
    """vals grouped by keys in 0..n: n + 1 Python lists, each sorted ascending."""
    order = np.argsort(keys * (n + 1) + vals)
    bounds = np.searchsorted(keys[order], np.arange(n + 2)).tolist()
    flat = vals[order].tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def reference_dominator_tree(g: SignedDigraph) -> dict[int, int]:
    """build_dominator_tree by Cooper, Harvey & Kennedy on agent ids: iterator
    DFS, reverse-postorder lookups in every ancestor walk, and every agent in
    every sweep. Same idom dict, key order included, and same exceptions."""
    if g.m == 0:
        raise NoStubbornAgents("network has no stubborn agent")

    loop = g.src == g.dst
    src, dst = g.src[~loop], g.dst[~loop]
    preds = _grouped(dst, src, g.n)
    succs = _grouped(src, dst, g.n)
    succs[0] = list(g.stubborn)
    for s in g.stubborn:
        preds[s].append(0)

    order: list[int] = []
    seen = [False] * (g.n + 1)
    seen[0] = True
    stack = [(0, iter(succs[0]))]
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
    unreachable = [v for v in range(1, g.n + 1) if not seen[v]]
    if unreachable:
        raise UnreachableNodes(unreachable)
    rpo = order[::-1]
    rpo_num = [0] * (g.n + 1)
    for i, v in enumerate(rpo):
        rpo_num[v] = i

    idom = [-1] * (g.n + 1)
    idom[0] = 0

    def intersect(a: int, b: int) -> int:
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
    return {v: idom[v] for v in rpo[1:]}


def brute_force_ltp_oracle(g: SignedDigraph, max_n: int = 12) -> LTPCertificate:
    """Literal restatement of the persuasive-agent conditions by path enumeration.

    Enumerates every simple path from every stubborn agent to every other
    agent and intersects the node sets, then reads C1 and C2 off those sets.
    Exponential; refuses n > max_n. Exists purely as an independent check
    of detect_ltp_agents.
    """
    if g.n > max_n:
        raise SizeLimit(f"path enumeration limited to n <= {max_n}, got {g.n}")
    if g.m == 0:
        raise NoStubbornAgents("network has no stubborn agent")
    unreached = unreached_by_stubborn(g)
    if unreached:
        raise UnreachableNodes(unreached)

    out = out_neighbours(g)
    stubborn = frozenset(g.stubborn)

    # gate[q] = agents on every stubborn-to-q path (q excluded); None if no path.
    gate: dict[int, Optional[set[int]]] = {q: None for q in range(1, g.n + 1)}

    def walk(node, on_path):
        common = gate[node]
        if common is None:
            gate[node] = set(on_path) - {node}
        else:
            common &= on_path
        for nxt in out[node]:
            if nxt not in on_path:
                on_path.add(nxt)
                walk(nxt, on_path)
                on_path.remove(nxt)

    for s in stubborn:
        walk(s, {s})

    ltp = []
    persuaded = {}
    for p in range(1, g.n + 1):
        if p not in stubborn and gate[p]:
            continue  # a gatekeeper cuts p off: not persuasive
        if p not in stubborn and gate[p] is None:
            continue  # unreachable stubborn-free island (cannot happen here)
        members = frozenset(
            q
            for q in range(1, g.n + 1)
            if q not in stubborn and gate[q] is not None and p in gate[q]
        )
        if members:
            ltp.append(p)
            persuaded[p] = members
    covered, cooperative, violations = conditions_from_sets(g, ltp, persuaded)
    return LTPCertificate(
        stubborn=stubborn,
        ltp_agents=tuple(sorted(ltp)),
        persuaded=persuaded,
        covered=covered,
        cooperative=cooperative,
        violations=violations,
    )


def conditions_from_sets(g: SignedDigraph, ltp, persuaded) -> tuple[bool, bool, tuple]:
    """C1, C2 and their violations by Python sets: every agent must be a
    persuader or persuaded, and no edge into a persuaded agent (persuaders
    exempt) may be negative. Violations run C1's by id, then C2's in edge
    order."""
    inside = set().union(*persuaded.values())
    uncovered = sorted(set(range(1, g.n + 1)) - inside - set(ltp))
    negative = [(s, d) for s, d, w in g.edges if d in inside and w < 0]
    return not uncovered, not negative, tuple(
        [Violation(v, "not covered by any persuasive cluster") for v in uncovered]
        + [Violation(d, f"negative in-edge from {s} at persuaded agent") for s, d in negative])


def same_detection(a: LTPCertificate, b: LTPCertificate) -> bool:
    """Equality of the topology-only part (agents and persuaded sets)."""
    return a.ltp_agents == b.ltp_agents and dict(a.persuaded) == dict(b.persuaded)


def same_certificate(a: LTPCertificate, b: LTPCertificate) -> bool:
    """Equality of the whole certificate: detection, both flags and every
    violation in order."""
    return same_detection(a, b) and (a.stubborn, a.covered, a.cooperative, a.violations) == (
        b.stubborn, b.covered, b.cooperative, b.violations)


class HypothesisViolated(ConditionsNotMet):
    """A persuaded agent has a negative in-edge (C2 fails at one persuaded set)."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        detail = ", ".join(f"{src}->{dst}" for src, dst in self.violations)
        super().__init__(f"negative in-edges at persuaded agents: {detail}")


@dataclass(frozen=True, eq=False)
class SteadyStateSystem:
    """Homogeneous steady-state form R y = 0 of the converged dynamics.

    R stacks [I - (I-B)W | -B_s] over m zero rows, where B_s holds the
    stubborn columns of B (column n + j anchors agent stubborn_index[j]); y
    stacks the final opinions over the stubborn agents' initial opinions.
    Rows of agents whose in-edges are all positive sum to zero; a negative
    in-edge makes the row sum strictly positive. R is never built: its rows
    come from system's entries, read only where a reduction needs them
    (dense_steady builds it). reduce_persuaded_set assumes a system from
    build_steady_state, whose gate makes every set's block of R
    nonsingular; on one built by hand, a singular block raises
    SingularBlock only where its LU meets a zero pivot.
    """

    system: NormalizedSystem
    y: np.ndarray
    stubborn_index: tuple[int, ...]
    graph: SignedDigraph

    @property
    def n(self) -> int:
        return self.graph.n

    @functools.cached_property
    def _index(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        """(bounds, order, stubborn): W's entries in row i, in edge order, are
        order[bounds[i]:bounds[i + 1]]; stubborn lists the anchored rows."""
        rows = self.system.rows
        return ([0] + np.cumsum(np.bincount(rows, minlength=self.n)).tolist(),
                np.argsort(rows, kind="stable"), np.array(self.stubborn_index) - 1)


@dataclass(frozen=True)
class ReducedRowRelation:
    """What is left of a persuaded agent's balance row after block elimination.

    When every in-edge of the persuaded set is positive, the row keeps
    exactly two nonzero entries, at the persuader's and the persuaded
    agent's columns, and they cancel, which pins the two final opinions
    together. The row is exactly zero off columns (R's 0-based column ids,
    ascending), where it holds values.
    """

    persuader: int
    persuaded: int
    persuader_entry: float
    persuaded_entry: float
    max_off_support: float
    solve_mismatch: float
    columns: tuple[int, ...]
    values: tuple[float, ...]

    def holds(self, tol: float = 1e-10) -> bool:
        return (
            self.max_off_support <= tol
            and abs(self.persuader_entry + self.persuaded_entry) <= tol
            and abs(self.persuaded_entry) > tol
        )


def build_steady_state(g: SignedDigraph) -> SteadyStateSystem:
    """Assemble the homogeneous system R y = 0 satisfied by the final opinions.

    The first n rows balance each agent's final opinion against its
    neighbours and, for stubborn agents, their initial opinion; the last m
    rows are zero and stand for the fixed initial opinions themselves.
    Gates and solves as influence_matrix does (dynamics._unanchored, then
    one normalize and the level solve), so it raises NoStubbornAgents /
    UnreachableNodes / SingularBlock alike and y is bit for bit
    influence_matrix(g)'s limit; y comes from V's n x m stubborn block, and
    no n x n V is built.
    """
    if g.m == 0:
        raise NoStubbornAgents("network has no stubborn agent")
    unreached = dynamics._unanchored(g)
    if unreached:
        raise UnreachableNodes(unreached)
    sysm, stubborn = normalize(g), np.array(g.stubborn) - 1
    plan = _level_plan(sysm, stubborn)
    block = _level_solve(plan, sysm)[plan.slot_of]
    x0_stubborn = g.x0[stubborn]
    return SteadyStateSystem(sysm, np.concatenate([block @ x0_stubborn, x0_stubborn]),
                             g.stubborn, g)


def reduce_persuaded_set(
    sysm: SteadyStateSystem, p: int, persuaded: Iterable[int]
) -> tuple[ReducedRowRelation, ...]:
    """Eliminate p's persuaded set S from R y = 0: one relation per q of S,
    ascending, each q's row once the rest of S is eliminated.

    D = R[S, S] is I - (I-B)W restricted to S. Once every in-edge of S is
    positive, D is a nonsingular M-matrix, G = D^{-1} >= 0 with G_qq > 0
    (Berman & Plemmons 1994, ch. 6), on any system from build_steady_state:
    a path to q from an agent whose 1 - beta rounds below one enters S from
    outside or starts at such a member, whose row of D falls short, so D is
    weakly chained diagonally dominant. With
    C = R[S, out], out the other columns R's rows of S touch, q's row is
    (1/G_qq) (e_q + (G C)_q): 1/G_qq is the Schur complement of
    D[S - q, S - q] in D. So one LU of D, solved against [I | C], gives every
    row, and the (n + m)^2 R is never built. Each relation records how far
    S's opinions rebuilt from the others, -G C y_out, drift from y.

    Raises ValueError if p or a persuaded agent is not an agent id of 1..n
    (2.0 counts, a bool does not), or the set is empty or holds p;
    HypothesisViolated if any persuaded agent has a negative in-edge, and
    SingularBlock if D is singular in floating point.
    """
    n, norm, g = sysm.n, sysm.system, sysm.graph
    p = _agent(p, n)
    members = sorted({_agent(v, n) for v in persuaded})
    if not members or p in members:
        raise ValueError(f"the persuaded set of {p} must be nonempty and must not hold {p}")
    bounds, order, stubborn = sysm._index
    agents = np.array(members, dtype=np.int64) - 1
    runs = [order[bounds[a]:bounds[a + 1]] for a in agents.tolist()]
    entries = np.concatenate(runs)
    bad = np.sort(entries[entries < g.w.size])  # entries of edges, in edge order
    bad = bad[g.w[bad] < 0]
    if bad.size:
        raise HypothesisViolated(list(zip(g.src[bad].tolist(), g.dst[bad].tolist())))

    # R's rows of S on the columns they touch.
    rows, cols, k = norm.rows[entries], norm.cols[entries], agents.size
    anchored = np.flatnonzero(norm.beta[agents] > 0.0)
    anchors = n + np.searchsorted(stubborn, agents[anchored])
    columns = np.unique(np.concatenate((agents, cols, anchors, [p - 1])))
    block = np.zeros((k, columns.size))
    block[np.arange(k), np.searchsorted(columns, agents)] = 1.0
    owner = np.repeat(np.arange(k), [run.size for run in runs])
    block[owner, np.searchsorted(columns, cols)] -= (1.0 - norm.beta[rows]) * norm.vals[entries]
    block[anchored, np.searchsorted(columns, anchors)] = -norm.beta[agents[anchored]]

    out = np.setdiff1d(columns, agents)  # holds p - 1
    try:
        solved = np.linalg.solve(block[:, np.searchsorted(columns, agents)],
                                 np.hstack((np.eye(k), block[:, np.searchsorted(columns, out)])))
    except np.linalg.LinAlgError as exc:
        raise SingularBlock(f"persuaded block is singular: {exc}") from exc
    scale = 1.0 / solved.diagonal()[:, None]  # 1 / G_qq
    reduced = np.hstack((solved[:, k:] * scale, scale))  # q's row on out, then on q
    ids = np.hstack((np.broadcast_to(out, (k, out.size)), agents[:, None]))
    by_id = np.argsort(ids, axis=1)
    at_p = int(np.searchsorted(out, p - 1))
    stray = np.abs(np.delete(reduced[:, :-1], at_p, axis=1)).max(axis=1, initial=0.0)
    mismatch = float(np.abs(solved[:, k:] @ sysm.y[out] + sysm.y[agents]).max())
    return tuple(
        ReducedRowRelation(p, q, pin, own, off, mismatch, tuple(c), tuple(v))
        for q, pin, own, off, c, v in zip(
            members, reduced[:, at_p].tolist(), scale[:, 0].tolist(), stray.tolist(),
            np.take_along_axis(ids, by_id, 1).tolist(),
            np.take_along_axis(reduced, by_id, 1).tolist()))


def schur_complement(M, keep) -> np.ndarray:
    """Eliminate the complement of `keep` from M: M[k] - M[k,e] M[e]^{-1} M[e,k].

    keep holds the 0-based indices to retain. Raises SingularBlock when the
    eliminated block is not invertible.
    """
    M = np.asarray(M, dtype=float)
    size = M.shape[0]
    keep = np.asarray(sorted(keep), dtype=int)
    elim = np.setdiff1d(np.arange(size), keep)
    if elim.size == 0:
        return M[np.ix_(keep, keep)].copy()
    A = M[np.ix_(keep, keep)]
    B = M[np.ix_(keep, elim)]
    C = M[np.ix_(elim, keep)]
    D = M[np.ix_(elim, elim)]
    try:
        return A - B @ np.linalg.solve(D, C)
    except np.linalg.LinAlgError as exc:
        raise SingularBlock(f"eliminated block is singular: {exc}") from exc


def dense_reduction(steady: SteadyStateSystem, p: int, q: int, persuaded):
    """reduce_steady_state on the dense R: the Schur complement of all of R
    onto every column but rest = persuaded - {q}, q's row of it read in full,
    and the eliminated opinions rebuilt from the kept ones and compared with
    y. Returns (reduced matrix, kept columns, relation); the relation's
    columns are every kept column. Checks no input."""
    R = dense_steady(steady)
    elim = sorted(v - 1 for v in set(persuaded) - {q})
    keep = np.setdiff1d(np.arange(R.shape[0]), elim).tolist()
    reduced = schur_complement(R, keep)
    pos = {orig: new for new, orig in enumerate(keep)}
    row = reduced[pos[q - 1]]
    off = np.delete(row, [pos[p - 1], pos[q - 1]])
    mismatch = 0.0
    if elim:
        y_elim = -np.linalg.solve(R[np.ix_(elim, elim)], R[np.ix_(elim, keep)] @ steady.y[keep])
        mismatch = float(np.max(np.abs(y_elim - steady.y[elim])))
    relation = ReducedRowRelation(
        persuader=p,
        persuaded=q,
        persuader_entry=float(row[pos[p - 1]]),
        persuaded_entry=float(row[pos[q - 1]]),
        max_off_support=float(np.max(np.abs(off))) if off.size else 0.0,
        solve_mismatch=mismatch,
        columns=tuple(keep),
        values=tuple(row.tolist()),
    )
    return reduced, keep, relation


def reduce_steady_state(
    sysm: SteadyStateSystem, p: int, q: int, persuaded: Iterable[int]
) -> ReducedRowRelation:
    """Eliminate the rest of p's persuaded set and inspect q's remaining row:
    the pair-by-pair reference that reduce_persuaded_set is checked against.

    With rest = persuaded \\ {q}, the eliminated block D = R[rest, rest] is
    I - (I-B)W restricted to those agents. Once every in-edge of the
    persuaded set is positive, W restricted to the block is nonnegative with
    rows summing to at most one, and its spectral radius is below one
    exactly when every eliminated agent is reached from outside the block
    along edges inside it (unreached_in_block); then D is invertible.
    p dominates its persuaded set, so for a detected set this always holds.
    q's reduced row R[q, keep] - R[q, rest] D^{-1} R[rest, keep] is zero off
    the columns that R's rows of q and rest touch, so only those rows'
    nonzeros are read: one |rest|^2 solve per pair, never the (n + m)^2 R.
    The relation also records how far the eliminated coordinates, rebuilt
    from the kept ones, drift from y.

    Raises ValueError if p, q or a persuaded agent is not an agent id of
    1..n (2.0 counts, a bool does not), q is not persuaded or p is,
    HypothesisViolated if any persuaded agent has a negative in-edge and
    SingularBlock if some eliminated agent is unreached.
    """
    n, norm, g = sysm.n, sysm.system, sysm.graph
    p, q = _agent(p, n), _agent(q, n)
    members = frozenset(_agent(v, n) for v in sorted(persuaded))
    if q not in members:
        raise ValueError(f"agent {q} is not in the persuaded set {sorted(members)}")
    if p in members:
        raise ValueError(f"persuader {p} cannot be in its own persuaded set")
    bounds, order, stubborn = sysm._index
    rest = np.array(sorted(v - 1 for v in members - {q}), dtype=np.int64)
    agents = np.concatenate(([q - 1], rest))
    runs = [order[bounds[a]:bounds[a + 1]] for a in agents.tolist()]
    entries = np.concatenate(runs)
    bad = np.sort(entries[entries < g.w.size])  # entries of edges, in edge order
    bad = bad[g.w[bad] < 0]
    if bad.size:
        raise HypothesisViolated(list(zip(g.src[bad].tolist(), g.dst[bad].tolist())))

    # The search runs on rest's agents as 1..k and on every other agent as 0.
    rows, cols = norm.rows[entries], norm.cols[entries]
    mine, k = slice(runs[0].size, None), rest.size  # rest's entries follow q's
    at = np.searchsorted(rest, cols[mine]).clip(max=k - 1)
    src = np.where(rest[at] == cols[mine], at + 1, 0)
    local = unreached_in_block(k, src, np.searchsorted(rest, rows[mine]) + 1, range(1, k + 1))
    closed = sorted(int(rest[i - 1]) + 1 for i in local)
    if closed:
        raise SingularBlock(f"agents {closed} have no path from outside the eliminated "
                            "block, so its restricted weights have spectral radius 1")

    # R's rows of q and rest on the columns they touch, built as dense_steady
    # builds them.
    anchored = np.flatnonzero(norm.beta[agents] > 0.0)
    anchors = n + np.searchsorted(stubborn, agents[anchored])
    columns = np.unique(np.concatenate((agents, cols, anchors, [p - 1])))
    block = np.zeros((agents.size, columns.size))
    block[np.arange(agents.size), np.searchsorted(columns, agents)] = 1.0
    owner = np.repeat(np.arange(agents.size), [run.size for run in runs])
    block[owner, np.searchsorted(columns, cols)] -= (1.0 - norm.beta[rows]) * norm.vals[entries]
    block[anchored, np.searchsorted(columns, anchors)] = -norm.beta[agents[anchored]]

    elim = np.searchsorted(columns, rest)
    keep = np.delete(np.arange(columns.size), elim)
    kept, D, C = columns[keep], block[1:, elim], block[1:][:, keep]
    try:
        # All of the block's rows in one matrix product, as a dense elimination
        # forms it; q's row alone takes numpy's vector path, summed in another order.
        row = block[0, keep] - (block[:, elim] @ np.linalg.solve(D, C))[0]
        y_elim = -np.linalg.solve(D, C @ sysm.y[kept])
    except np.linalg.LinAlgError as exc:
        raise SingularBlock(f"eliminated block is singular: {exc}") from exc
    at_p, at_q = np.searchsorted(kept, [p - 1, q - 1]).tolist()
    return ReducedRowRelation(
        p, q, float(row[at_p]), float(row[at_q]),
        float(np.abs(np.delete(row, [at_p, at_q])).max(initial=0.0)),
        float(np.abs(y_elim - sysm.y[rest]).max(initial=0.0)),
        tuple(kept.tolist()), tuple(row.tolist()))


def exact_system(n: int, edges, beta) -> list[list[Fraction]]:
    """I - M in rationals, M = (I - B) W, W normalized as normalize does: each
    agent's in-weights over the sum of their magnitudes, and w_ii = 1 for an
    agent without in-edges. edges are (src, dst, w) triples; each w and beta
    is taken as a Fraction, exact for a float. Checks no input."""
    total = [Fraction(0)] * (n + 1)
    for _, dst, w in edges:
        total[dst] += abs(Fraction(w))
    A = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(1, n + 1):
        if total[i] == 0:
            A[i - 1][i - 1] -= 1 - Fraction(beta[i - 1])
    for src, dst, w in edges:
        A[dst - 1][src - 1] -= (1 - Fraction(beta[dst - 1])) * Fraction(w) / total[dst]
    return A


def gauss_jordan(M: list[list[Fraction]], k: int, what: str) -> list[list[Fraction]]:
    """Row-reduce the k rows of M, in place, until their first k columns are
    the identity. Raises SingularBlock, naming what, when those columns are
    singular."""
    for j in range(k):
        pivot = next((i for i in range(j, k) if M[i][j] != 0), None)
        if pivot is None:
            raise SingularBlock(f"{what} is singular")
        M[j], M[pivot] = M[pivot], M[j]
        inverse = 1 / M[j][j]
        M[j] = row = [v * inverse if v else v for v in M[j]]
        for i in range(k):
            factor = M[i][j]
            if i != j and factor:
                M[i] = [a - factor * b if b else a for a, b in zip(M[i], row)]
    return M


def exact_influence(n: int, edges, beta) -> list[list[Fraction]]:
    """influence_matrix in rational arithmetic: V = (I - M)^{-1} B by
    Gauss-Jordan on [I - M | B_s], B_s the columns of B with beta > 0, with
    exact_system's normalization, as n rows of n Fractions; every other
    column is zero. Raises SingularBlock when I - M is singular. Checks no
    input; small n only."""
    stubborn = [j for j in range(n) if beta[j]]
    B = [[Fraction(beta[i]) if i == j else Fraction(0) for j in stubborn] for i in range(n)]
    M = gauss_jordan([a + b for a, b in zip(exact_system(n, edges, beta), B)], n, "I - M")
    V = [[Fraction(0)] * n for _ in range(n)]
    for row, solved in zip(V, M):
        for j, v in zip(stubborn, solved[n:]):
            row[j] = v
    return V


def exact_reduced_rows(g: SignedDigraph, persuaded) -> dict:
    """reduce_persuaded_set in rational arithmetic, with no float tolerance.

    R's rows of S = persuaded are exact_system's rows of g's floats, each
    stubborn agent's followed by its anchor. Gauss-Jordan on [D | I | C]
    gives [I | G | G C], and q's reduced row is (1/G_qq) (e_q + (G C)_q).
    Returns {q: {column: value}} over every column of R outside S - {q},
    0-based as in ReducedRowRelation; the rows do not depend on the
    persuader. Raises SingularBlock when D is singular. Checks no input;
    small n only.
    """
    n, stubborn, members = g.n, list(g.stubborn), sorted(persuaded)
    A = exact_system(n, g.edges, g.beta)
    rows = []
    for i in members:
        row = A[i - 1] + [Fraction(0)] * len(stubborn)
        if i in stubborn:
            row[n + stubborn.index(i)] = -Fraction(g.beta[i - 1])
        rows.append(row)
    k, inside = len(members), [i - 1 for i in members]
    outside = [c for c in range(len(rows[0])) if c not in inside]
    M = gauss_jordan([[r[c] for c in inside] + [Fraction(int(a == b)) for b in range(k)]
                      + [r[c] for c in outside] for a, r in enumerate(rows)],
                     k, f"persuaded block of {members}")
    reduced = {}
    for a, q in enumerate(members):
        scale = 1 / M[a][k + a]  # 1 / G_qq
        row = {c: scale * v for c, v in zip(outside, M[a][2 * k:])}
        reduced[q] = dict(sorted({**row, q - 1: scale}.items()))
    return reduced


def dense_weights(sysm) -> np.ndarray:
    """A NormalizedSystem's W, dense, per trial: its entries scattered into
    zeros, as no (row, col) pair repeats."""
    W = np.zeros(sysm.beta.shape[:-1] + (sysm.n, sysm.n))
    W[..., sysm.rows, sysm.cols] = sysm.vals
    return W


def dense_system(sysm) -> np.ndarray:
    """I - M for a NormalizedSystem, dense, per trial: bit for bit
    np.eye(n) - (1 - beta) W, as no (row, col) pair repeats."""
    A = np.zeros(sysm.beta.shape[:-1] + (sysm.n, sysm.n))
    diagonal = np.arange(sysm.n)
    A[..., diagonal, diagonal] = 1.0
    A[..., sysm.rows, sysm.cols] -= (1.0 - sysm.beta[..., sysm.rows]) * sysm.vals
    return A


def dense_steady(steady: SteadyStateSystem) -> np.ndarray:
    """A SteadyStateSystem's (n + m)^2 R, dense: [I - M | -B_s] over m zero rows."""
    n, rows = steady.n, np.array(steady.stubborn_index) - 1
    R = np.zeros((n + rows.size,) * 2)
    R[:n, :n] = dense_system(steady.system)
    R[rows, n + np.arange(rows.size)] = -steady.system.beta[rows]
    return R


def update_matrix(sysm) -> np.ndarray:
    """A NormalizedSystem's opinion-update matrix M = (I - diag(beta)) W, dense,
    per trial."""
    return (1.0 - sysm.beta)[..., None] * dense_weights(sysm)


def sfj_step(W, beta, x, x0) -> np.ndarray:
    """One opinion update: (I - diag(beta)) W x + diag(beta) x0."""
    W = np.asarray(W, dtype=float)
    beta = np.asarray(beta, dtype=float)
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    n = W.shape[0]
    if W.shape != (n, n) or beta.shape != (n,) or x.shape != (n,) or x0.shape != (n,):
        raise ValueError(
            f"dimension mismatch: W {W.shape}, beta {beta.shape}, "
            f"x {x.shape}, x0 {x0.shape}"
        )
    if np.any(beta < 0) or np.any(beta > 1):
        raise ValueError("beta entries must lie in [0, 1]")
    return (1.0 - beta) * (W @ x) + beta * x0


def spectral_radius(M) -> float:
    """Largest eigenvalue magnitude of a square matrix, from dense eigenvalues.

    The package certifies contraction by stubborn-reachability instead; this
    is the numerical check the tests hold that certificate against.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def dense_contraction_certificate(g: SignedDigraph) -> Optional[float]:
    """max (I - abs(M))^{-1} 1 by one dense solve on normalize(g)'s update matrix.

    The exact kappa that simulate's stop rule bounds from above, by the
    sweep z <- 1 + abs(M) z (dynamics._sweep_bound), with no solve. None
    where the solve fails or gives a non-finite or negative entry.
    """
    update_abs = np.abs(update_matrix(normalize(g)))
    try:
        z = np.linalg.solve(np.eye(g.n) - update_abs, np.ones(g.n))
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(z)) or np.any(z < 0):
        return None
    return float(z.max())


def dense_influence_solve(A: np.ndarray, beta: np.ndarray, stubborn: np.ndarray) -> np.ndarray:
    """V's columns at stubborn (0-based) from A = I - M by one dense LU: the
    reference for the package's level solve. A stack A (..., n, n), beta
    (..., n) runs one gesv per system."""
    rhs = np.zeros(beta.shape + (stubborn.size,))
    rhs[..., stubborn, np.arange(stubborn.size)] = beta[..., stubborn]
    return np.linalg.solve(A, rhs)


def dense_influence(g: SignedDigraph) -> np.ndarray:
    """V in full, n x n, by dense_influence_solve on normalize(g), ungated:
    influence_matrix(g) is its stubborn columns, and the rest are zero."""
    sysm = normalize(g)
    stubborn = np.array(g.stubborn, dtype=int) - 1
    V = np.zeros((g.n, g.n))
    V[:, stubborn] = dense_influence_solve(dense_system(sysm), sysm.beta, stubborn)
    return V


def neumann_influence(g: SignedDigraph, terms: int) -> np.ndarray:
    """Truncated series sum_{k=0}^{terms} ((I-B)W)^k B.

    Independent slow route to the influence matrix, kept solely as a test
    oracle for the direct solve. terms = 0 returns B itself.
    """
    if terms < 0:
        raise ValueError(f"terms must be >= 0, got {terms}")
    sysm = normalize(g)
    update = update_matrix(sysm)
    acc = np.diag(sysm.beta)
    term = acc.copy()
    for _ in range(terms):
        term = update @ term
        acc += term
    return acc


def neumann_tail_bound(g: SignedDigraph, terms: int) -> np.ndarray:
    """Entrywise certificate for the series remainder after `terms` terms.

    Every power of the update matrix is dominated entrywise by the same
    power of its absolute value, so the dropped tail is at most
    abs(M)^{terms+1} (I - abs(M))^{-1} B entry by entry.
    """
    sysm = normalize(g)
    update_abs = np.abs(update_matrix(sysm))
    n = g.n
    try:
        tail_gain = np.linalg.solve(np.eye(n) - update_abs, np.diag(sysm.beta))
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "absolute update matrix is not contracting; no tail bound exists"
        ) from exc
    return np.linalg.matrix_power(update_abs, terms + 1) @ tail_gain


def neumann_terms_for(g: SignedDigraph, target: float) -> int:
    """Smallest certified truncation depth within target of the exact solve.

    Starts from the geometric estimate rho_abs^{K+1} / (1 - rho_abs) and
    then walks the exact entrywise tail certificate forward until it clears
    the target; the estimate alone can undershoot when the update matrix has
    a non-normal transient.
    """
    sysm = normalize(g)
    update_abs = np.abs(update_matrix(sysm))
    rho_abs = spectral_radius(update_abs)
    if rho_abs >= 1.0:
        raise ValueError(
            f"absolute update matrix has spectral radius {rho_abs:.6g} >= 1"
        )
    scale = float(np.max(sysm.beta))
    if rho_abs == 0.0 or scale == 0.0:
        return 1
    k = max(
        1, int(np.ceil(np.log(target * (1.0 - rho_abs) / scale) / np.log(rho_abs)))
    )
    n = g.n
    tail_gain = np.linalg.solve(np.eye(n) - update_abs, np.diag(sysm.beta))
    power = np.linalg.matrix_power(update_abs, k + 1)
    while np.max(power @ tail_gain) > target:
        power = update_abs @ power
        k += 1
    return k




def stepwise_simulate(
    g: SignedDigraph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    out=None,
) -> OpinionTrace:
    """dynamics.simulate one step per bincount, each checked as it is taken.

    The reference for simulate's rounds: the same iterates, stop step,
    residual, final state and trace bytes, and the same first repeated
    state, found as Brent's cycle detection finds it: each step against u
    at the last power of two below it, or at step 0 for step 1.
    """
    n, beta = g.n, np.array(g.beta)
    rows, cols, vals = _normalized(n, *g.edge_index, g.w, beta).update_entries()
    # An unreached agent leaves abs(M) a closed class of spectral radius one.
    plain = bool(unreached_in_block(n, g.src, g.dst, np.flatnonzero(1.0 - beta == 1.0) + 1))
    x0 = np.array(g.x0)
    anchor = beta * x0
    if not plain:
        # One bincount steps u = (x, z): x in bins 0..n-1, each summing the
        # same weights in the same order as a step of x alone, and z in bins
        # n..2n-1. The plain rule reads no bound and steps x alone.
        rows, cols = np.concatenate((rows, rows + n)), np.concatenate((cols, cols + n))
        vals = np.concatenate((vals, np.abs(vals)))
        anchor = np.concatenate((anchor, np.ones(n)))
    per_block = max(1, dynamics._TRACE_BLOCK // n)
    kept, first = [], 0  # blocks kept; the k of block[0]
    block = np.empty((per_block, n))
    block[0] = x0
    u = np.concatenate((x0, np.ones(anchor.size - n)))
    j, residual, converged, repeat = 1, np.inf, False, None
    saved = 0, u.view(np.int64).copy()  # the step last saved and its bits
    if out is not None:
        dynamics._write_header(out, n)
    # Opinions of opposite sign near the float maximum can overflow a step's
    # difference: the residual is then inf, rightly, as nothing has settled.
    with np.errstate(over="ignore"):
        for k in range(1, max_iter + 1):
            if j == per_block:
                if out is None:
                    kept.append(block)
                else:
                    dynamics._write_rows(out, first, block)
                first, block, j = first + per_block, np.empty((per_block, n)), 0
            u_next = np.bincount(rows, weights=vals * u[cols], minlength=anchor.size) + anchor
            residual = float(np.abs(u_next[:n] - u[:n]).max())
            u, z = u_next, u[n:]
            block[j] = u[:n]
            j += 1
            if residual < tol and (
                plain or residual == 0.0 or residual * _sweep_bound(z, u[n:]) < tol
            ):
                converged = True
                break
            if np.array_equal(u.view(np.int64), saved[1]):
                repeat = saved[0]
                break
            if k & (k - 1) == 0:  # k is a power of two
                saved = k, u.view(np.int64).copy()
    if out is None:
        states = np.concatenate(kept + [block[:j]])
    else:
        dynamics._write_rows(out, first, block[:j])
        states = u[None, :n]
    trace = OpinionTrace(
        states=states, converged=converged,
        iterations=k if converged or repeat is not None else max_iter, residual=residual,
    )
    if repeat is not None:
        raise NotConverged(trace, f"no convergence: iteration {k} repeats iteration {repeat}")
    if not converged:
        raise NotConverged(trace, f"no convergence after {max_iter} iterations")
    return trace
