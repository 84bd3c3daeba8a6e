"""Opinion dynamics: iteration, steady state, and block reduction.

The update is x(k+1) = (I - B) W x(k) + B x(0) with B = diag(beta). Under
stubborn-reachability the update matrix has spectral radius below one, the
iteration contracts, and the final opinions are x* = V x(0) with
V = (I - (I - B) W)^{-1} B. Everything here works in 0-based matrix indices;
agent i sits at row i-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    HypothesisViolated,
    NotConverged,
    SingularBlock,
    UnreachableNodes,
)
from .graph import (
    NormalizedSystem,
    SignedDigraph,
    _normalized,
    _unreached,
    check_reachability,
    normalize,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1_000_000


@dataclass(frozen=True, eq=False)
class OpinionTrace:
    """Recorded opinion iterates; states[k] is x(k), states[0] the initial state.

    When simulate streamed the trace to a file, states holds the final state
    alone.
    """

    states: np.ndarray
    converged: bool
    iterations: int
    residual: float

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True, eq=False)
class SteadyStateSystem:
    """Homogeneous steady-state form R y = 0 of the converged dynamics.

    R stacks [I - (I-B)W | -B_s] over m zero rows, where B_s holds the
    stubborn columns of B; y stacks the final opinions over the stubborn
    agents' initial opinions. Rows of agents whose in-edges are all positive
    sum to zero; a negative in-edge makes the row sum strictly positive.
    """

    R: np.ndarray
    y: np.ndarray
    stubborn_index: tuple[int, ...]
    graph: SignedDigraph

    @property
    def n(self) -> int:
        return self.graph.n


@dataclass(frozen=True)
class ReducedRowRelation:
    """What is left of a persuaded agent's balance row after block elimination.

    When every in-edge of the persuaded set is positive, the row keeps
    exactly two nonzero entries, at the persuader's and the persuaded
    agent's columns, and they cancel, which pins the two final opinions
    together.
    """

    persuader: int
    persuaded: int
    persuader_entry: float
    persuaded_entry: float
    max_off_support: float
    solve_mismatch: float

    def holds(self, tol: float = 1e-10) -> bool:
        return (
            self.max_off_support <= tol
            and abs(self.persuader_entry + self.persuaded_entry) <= tol
            and abs(self.persuaded_entry) > tol
        )


# Streamed traces and reweighting trials go in blocks of at most this many
# values (at least one row or trial each), so memory stays bounded.
_TRACE_BLOCK = 2**16


def _sweep_bound(z: np.ndarray, z_next: np.ndarray) -> float:
    """max z / (1 - max s), s = z_next - z, for z_next = 1 + abs(M) z and z >= 1:
    then (I - abs(M)) z = 1 - s, so once max s < 1 the comparison lemma for
    nonnegative matrices (Berman & Plemmons 1994) gives rho(abs(M)) < 1 and
    ||(I - M)^{-1}||_inf <= max (I - abs(M))^{-1} 1 <= this bound; inf before."""
    slack = 1.0 - float((z_next - z).max())
    return float(z.max()) / slack if slack > 0.0 else np.inf


def simulate(
    g: SignedDigraph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    out=None,
) -> OpinionTrace:
    """Iterate the opinion update until the limit is pinned down to tol.

    The stop rule scales the step difference by a certified bound on
    ||(I - M)^{-1}||_inf, so on convergence the last iterate is within tol
    of the true fixed point, not merely tol away from its predecessor. The
    bound comes from the sweep z <- 1 + abs(M) z, run from z = 1 in the same
    step as the opinions (_sweep_bound). It exists only when every agent is
    reached from an agent whose 1 - beta rounds below one; otherwise the
    plain step criterion applies. An exact fixed point (a zero step) always
    stops. Raises NotConverged (carrying the trace) when max_iter is
    exhausted.

    With a text file out, the trace goes there as write_trace_csv would
    write it, in blocks of _TRACE_BLOCK values, the rest written on
    return or before NotConverged is raised, and the returned or carried
    trace holds the final state alone. Without out, it holds every state.

    Each step reads only the nonzeros of the update matrix, one per edge:
    memory is O(n + edges), plus one block of rows when streaming.
    """
    n, beta = g.n, np.array(g.beta)
    rows, cols, vals = _normalized(n, *g.edge_index, g.w, beta).update_entries()
    # An unreached agent leaves abs(M) a closed class of spectral radius one.
    plain = bool(_unreached(g, np.flatnonzero(1.0 - beta == 1.0) + 1))
    x0 = np.array(g.x0)
    anchor = beta * x0
    if not plain:
        # One bincount steps u = (x, z): x in bins 0..n-1, each summing the
        # same weights in the same order as a step of x alone, and z in bins
        # n..2n-1. The plain rule reads no bound and steps x alone.
        rows, cols = np.concatenate((rows, rows + n)), np.concatenate((cols, cols + n))
        vals = np.concatenate((vals, np.abs(vals)))
        anchor = np.concatenate((anchor, np.ones(n)))
    per_block = max(1, _TRACE_BLOCK // n)
    kept, first = [], 0  # full blocks when not streaming; the k of block[0]
    block = np.empty((per_block, n))
    block[0] = x0
    u = np.concatenate((x0, np.ones(anchor.size - n)))
    j, residual, converged = 1, np.inf, False
    if out is not None:
        _write_header(out, n)
    for k in range(1, max_iter + 1):
        if j == per_block:
            if out is None:
                kept.append(block)
            else:
                _write_rows(out, first, block)
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
    if out is None:
        states = np.concatenate(kept + [block[:j]])
    else:
        _write_rows(out, first, block[:j])
        states = u[None, :n]
    trace = OpinionTrace(
        states=states, converged=converged,
        iterations=k if converged else max_iter, residual=residual,
    )
    if not converged:
        raise NotConverged(trace, f"no convergence after {max_iter} iterations")
    return trace


def influence_matrix(g: SignedDigraph) -> np.ndarray:
    """Map from initial to final opinions: V = (I - (I-B)W)^{-1} B.

    The limit, and with it the solve, exists when the update matrix
    M = (I-B)W has spectral radius below one. Stubborn-reachability
    certifies that in O(n + edges): abs(M) is row-substochastic, its rows
    of stubborn agents sum to less than one, and every other row reaches
    such a row along reversed edges, so rho(M) <= rho(abs(M)) < 1 (the
    substochastic argument for Friedkin-Johnsen dynamics; Parsegov,
    Proskurnikov, Tempo & Friedkin, IEEE TAC 2017). Raises NoStubbornAgents
    / UnreachableNodes when there is no stubborn agent or some agent is
    unreached, since then nothing certifies the solve.

    Columns of non-stubborn agents are exactly zero, so _level_solve yields
    the m stubborn columns alone, level by level, and they are scattered
    into the n x n result.
    """
    report = check_reachability(g)
    if not report.ok:
        raise UnreachableNodes(report.unreachable)
    stubborn = np.array(g.stubborn) - 1
    sysm = normalize(g)
    V = np.zeros((g.n, g.n))
    plan = _level_plan(sysm, stubborn)
    V[:, stubborn] = _level_solve(plan, sysm)[plan.slot_of]
    return V


def _components(n: int, bounds: list, succ: list) -> list[list[int]]:
    """Strongly connected components of the graph v -> succ[bounds[v]:bounds[v+1]].

    Tarjan's algorithm (SIAM J. Comput. 1972) on an explicit stack: each
    component comes after every component it reaches.
    """
    index, low, on_stack = [-1] * n, [0] * n, [False] * n
    stack, components, counter = [], [], 0
    for root in range(n):
        work = [] if index[root] >= 0 else [(root, bounds[root])]
        while work:
            v, k = work.pop()
            if index[v] < 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            else:  # back from the tree edge k - 1
                low[v] = min(low[v], low[succ[k - 1]])
            for k in range(k, bounds[v + 1]):
                u = succ[k]
                if index[u] < 0:
                    work += [(v, k + 1), (u, bounds[u])]
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            else:
                if low[v] == index[v]:
                    component = []
                    while not component or component[-1] != v:
                        component.append(stack.pop())
                        on_stack[component[-1]] = False
                    components.append(component)
    return components


class _LevelPlan(NamedTuple):
    """_level_solve's gather indices, from the nonzero pattern of M alone.

    Agents sit at slots: by level, then by SCC size, each SCC contiguous;
    agent i at slot_of[i], and stubborn[j]'s beta anchors V's column j.
    ext lists M's entries between SCCs by the slot of their row, src the
    slots of their columns. loops are (entries, slots) of the self-loops of
    single-agent SCCs; blocks are (k, count, entries, flat): count SCCs of
    k agents, whose entries of M land at flat in a (count, k, k) stack.
    Each level is (start, stop, e0, e1, fed, heads, singles, spans): slots
    start..stop-1, singles of them single-agent SCCs, hear through ext[e0:e1],
    local slot fed[i]'s run starting at heads[i]; each span (k, c0, c1, at)
    is blocks c0..c1-1 of size k's stack, from local slot at on.
    footprint bounds the values one trial holds at once, in the solve and
    while its caller reads V: V and one gathered copy of it (2 n m), a
    level's gathered rows and weighted terms (2 m times the most entries
    any level hears through), the SCC stacks (sum of count k**2) and three
    arrays of M's entries (its weights, the system's and M's own).
    """

    n: int
    slot_of: np.ndarray
    stubborn: np.ndarray
    ext: np.ndarray
    src: np.ndarray
    loops: tuple
    blocks: list
    levels: list
    footprint: int


def _level_plan(sysm: NormalizedSystem, stubborn: np.ndarray) -> _LevelPlan:
    """Plan the solve of (I - M) V = B_s over the SCCs of M's in-lists.

    I - M is block lower triangular over those SCCs in Tarjan's order (the
    block triangular form of Duff & Reid, ACM TOMS 1978). An SCC's level is
    0 if it hears from no other SCC and one above the highest it hears from
    otherwise, so each level needs only the levels below it. Reads only
    sysm.rows and sysm.cols, so one plan serves every trial on the same
    edges. O(n + edges) plus sorts.
    """
    n, rows, cols = sysm.n, sysm.rows, sysm.cols
    by_row = np.argsort(rows, kind="stable")
    bounds = np.searchsorted(rows[by_row], np.arange(n + 1)).tolist()
    components = _components(n, bounds, cols[by_row].tolist())
    sizes = np.fromiter(map(len, components), np.int64, len(components))
    comp = np.empty(n, dtype=np.int64)
    comp[np.fromiter(chain.from_iterable(components), np.int64, n)] = np.repeat(
        np.arange(sizes.size), sizes)
    cross = comp[rows] != comp[cols]
    later, earlier = comp[rows[cross]], comp[cols[cross]]
    order = np.argsort(later, kind="stable")
    level = [0] * sizes.size
    # Each component comes after every one it reaches (earlier < later), so
    # in ascending order of later every level[earlier] is final when read.
    for u, v in zip(later[order].tolist(), earlier[order].tolist()):
        level[u] = max(level[u], level[v] + 1)
    level = np.array(level)

    ranked = np.lexsort((sizes, level))  # by level, then size, then Tarjan order
    rank = np.empty_like(ranked)
    rank[ranked] = np.arange(sizes.size)
    agents = np.argsort(rank[comp], kind="stable")
    slot_of = np.empty(n, dtype=np.int64)
    slot_of[agents] = np.arange(n)
    first = np.empty_like(ranked)  # each component's first slot
    first[ranked] = np.cumsum(sizes[ranked]) - sizes[ranked]
    starts = np.searchsorted(level[comp[agents]], np.arange(level.max() + 2)).tolist()
    singles = np.bincount(level[comp], sizes[comp] == 1).astype(int).tolist()

    # Larger SCCs go in one stack per size, in rank order; a level's SCCs of
    # one size are a run of their stack.
    index = np.zeros_like(ranked)  # position in its size's stack
    spans = [[] for _ in singles]
    stacked: dict[int, int] = {}
    for c in ranked[sizes[ranked] > 1].tolist():
        k, lv = int(sizes[c]), int(level[c])
        index[c] = i = stacked.get(k, 0)
        stacked[k] = i + 1
        if spans[lv] and spans[lv][-1][0] == k:
            spans[lv][-1][2] += 1
        else:
            spans[lv].append([k, i, i + 1, int(first[c]) - starts[lv]])
    owner = comp[rows]
    inside = np.flatnonzero(~cross)
    loops = inside[sizes[owner[inside]] == 1]
    inside = inside[sizes[owner[inside]] > 1]
    c = owner[inside]
    k, base = sizes[c], first[c]
    flat = (index[c] * k + slot_of[rows[inside]] - base) * k + slot_of[cols[inside]] - base
    by_size = np.argsort(k, kind="stable")
    ends = np.searchsorted(k[by_size], sorted(stacked), side="right").tolist()
    blocks = [(size, stacked[size], inside[by_size[a:b]], flat[by_size[a:b]])
              for size, a, b in zip(sorted(stacked), [0] + ends, ends)]

    ext = np.flatnonzero(cross)
    ext = ext[np.argsort(slot_of[rows[ext]], kind="stable")]
    ext_slot = slot_of[rows[ext]]
    new = np.ones(ext.size, dtype=bool)
    new[1:] = ext_slot[1:] != ext_slot[:-1]
    runs = np.flatnonzero(new)  # where each fed slot's entries begin
    e = np.searchsorted(ext_slot, starts).tolist()
    r = np.searchsorted(runs, e).tolist()
    fed = ext_slot[runs]
    levels = [
        (s0, s1, e0, e1, fed[r0:r1] - s0, runs[r0:r1] - e0, one, [tuple(x) for x in span])
        for s0, s1, e0, e1, r0, r1, one, span in zip(
            starts, starts[1:], e, e[1:], r, r[1:], singles, spans)
    ]
    heard = max(e1 - e0 for e0, e1 in zip(e, e[1:]))
    footprint = 2 * stubborn.size * (n + heard) + sum(
        count * k * k for k, count in stacked.items()) + 3 * rows.size
    return _LevelPlan(n, slot_of, stubborn, ext, slot_of[cols[ext]],
                      (loops, slot_of[rows[loops]]), blocks, levels, footprint)


def _level_solve(plan: _LevelPlan, sysm: NormalizedSystem) -> np.ndarray:
    """V's columns at plan.stubborn from the system sysm, level by level: each
    level gathers its terms from the levels below in one reduceat, divides on
    its single-agent SCCs and solves its larger SCCs in one stack per size.
    V is in slot order, slots first: agent i's row is slot_of[i], and a
    leading trial axis on sysm gives V (n, T, m), so each gather, reduceat
    and add moves whole rows of T m values; a caller gathers V's rows once,
    in the order it needs. Memory is O(T plan.footprint), never n x n."""
    lead, m = sysm.beta.shape[:-1], plan.stubborn.size
    beta = sysm.beta.reshape(-1, plan.n).T  # (n, T); no trial axis is T = 1
    trials = beta.shape[1]
    mv = (1.0 - beta[sysm.rows]) * sysm.vals.reshape(trials, -1).T
    V = np.zeros((plan.n, trials, m))
    V[plan.slot_of[plan.stubborn], :, np.arange(m)] = beta[plan.stubborn]
    weights = mv[plan.ext, :, None]
    divisor = np.ones((plan.n, trials, 1))
    divisor[plan.loops[1], :, 0] -= mv[plan.loops[0]]
    stacks = {}
    for k, count, entries, flat in plan.blocks:
        A = stacks[k] = np.zeros((trials, count, k, k))
        A[:, :, np.arange(k), np.arange(k)] = 1.0
        A.reshape(trials, -1)[:, flat] -= mv[entries].T
    for start, stop, e0, e1, fed, heads, singles, spans in plan.levels:
        here = V[start:stop]
        if e1 > e0:
            here[fed] += np.add.reduceat(weights[e0:e1] * V[plan.src[e0:e1]], heads)
        here[:singles] /= divisor[start:start + singles]
        for k, c0, c1, at in spans:
            span = here[at:at + (c1 - c0) * k]
            rhs = span.reshape(c1 - c0, k, trials, m).transpose(2, 0, 1, 3)
            span[...] = np.linalg.solve(stacks[k][:, c0:c1], rhs).transpose(
                1, 2, 0, 3).reshape(span.shape)
    return V.reshape((plan.n,) + lead + (m,))


def build_steady_state(g: SignedDigraph) -> SteadyStateSystem:
    """Assemble the homogeneous system R y = 0 satisfied by the final opinions.

    The first n rows balance each agent's final opinion against its
    neighbours and, for stubborn agents, their initial opinion; the last m
    rows are zero and stand for the fixed initial opinions themselves.
    Raises NoStubbornAgents / UnreachableNodes when the steady state is not
    well defined in the first place.
    """
    report = check_reachability(g)
    if not report.ok:
        raise UnreachableNodes(report.unreachable)
    sysm = normalize(g)
    n = g.n
    rows = np.array(g.stubborn) - 1
    m = rows.size
    R = np.zeros((n + m, n + m))
    R[:n, :n] = sysm.system_matrix()
    R[rows, n + np.arange(m)] = -sysm.beta[rows]
    # The gate above is influence_matrix's, and so is the solve.
    x0_stubborn = np.array(g.x0)[rows]
    plan = _level_plan(sysm, rows)
    y = np.concatenate([_level_solve(plan, sysm)[plan.slot_of] @ x0_stubborn, x0_stubborn])
    return SteadyStateSystem(R=R, y=y, stubborn_index=g.stubborn, graph=g)


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


def reduce_steady_state(
    sysm: SteadyStateSystem, p: int, q: int, persuaded: Iterable[int]
):
    """Eliminate the rest of p's persuaded set and inspect q's remaining row.

    With alpha-complement = persuaded \\ {q}, the eliminated block is
    I - (I-B)W restricted to those agents. Once every in-edge of the
    persuaded set is positive, W restricted to the block is nonnegative with
    rows summing to at most one, and its spectral radius is below one
    exactly when every eliminated agent is reached from outside the block
    along edges inside it (graph._unreached); then the block is invertible.
    p dominates its persuaded set, so for a detected set this always holds.
    Returns (reduced matrix, ReducedRowRelation). The relation also records
    how far the eliminated coordinates, reconstructed from the kept ones,
    drift from the full solution.

    Raises HypothesisViolated if any persuaded agent has a negative in-edge
    and SingularBlock if some eliminated agent is unreached, i.e. the
    restricted weights have spectral radius one.
    """
    members = frozenset(persuaded)
    if q not in members:
        raise ValueError(f"agent {q} is not in the persuaded set {sorted(members)}")
    if p in members:
        raise ValueError(f"persuader {p} cannot be in its own persuaded set")
    g = sysm.graph
    negative = np.isin(g.dst, list(members)) & (g.w < 0)
    bad = list(zip(g.src[negative].tolist(), g.dst[negative].tolist()))
    if bad:
        raise HypothesisViolated(bad)

    rest = members - {q}
    closed = _unreached(g, rest)
    if closed:
        raise SingularBlock(
            f"agents {sorted(closed)} have no path from outside the eliminated "
            "block, so its restricted weights have spectral radius 1"
        )
    elim = sorted(v - 1 for v in rest)
    elim_set = set(elim)
    keep = [i for i in range(sysm.R.shape[0]) if i not in elim_set]
    reduced = schur_complement(sysm.R, keep)

    pos = {orig: new for new, orig in enumerate(keep)}
    row = reduced[pos[q - 1]]
    off = np.delete(row, [pos[p - 1], pos[q - 1]])
    max_off = float(np.max(np.abs(off))) if off.size else 0.0

    # Reconstruct the eliminated coordinates from the kept ones and compare
    # against the direct steady state.
    if elim:
        y_keep = sysm.y[keep]
        D = sysm.R[np.ix_(elim, elim)]
        C = sysm.R[np.ix_(elim, keep)]
        y_elim = -np.linalg.solve(D, C @ y_keep)
        solve_mismatch = float(np.max(np.abs(y_elim - sysm.y[elim])))
    else:
        solve_mismatch = 0.0

    relation = ReducedRowRelation(
        persuader=p,
        persuaded=q,
        persuader_entry=float(row[pos[p - 1]]),
        persuaded_entry=float(row[pos[q - 1]]),
        max_off_support=max_off,
        solve_mismatch=solve_mismatch,
    )
    return reduced, relation


def write_trace_csv(trace: OpinionTrace, fh) -> None:
    """Write a trace as rows k, x_1, ..., x_n.

    The header is k,x_1,...,x_n and the row after it for each k is k and
    then x(k). Each value is the shortest round-trip repr of its float
    (0.1, -0.0, 1e-300, inf, nan), fields are comma-separated and never
    quoted, and every line ends in CRLF ("\\r\\n"): byte for byte what
    csv.writer writes. simulate(g, out=fh) streams the same bytes.
    """
    states = np.asarray(trace.states, dtype=np.float64)
    _write_header(fh, states.shape[1])
    _write_rows(fh, 0, states)


def _write_header(fh, n: int) -> None:
    fh.write("k" + "".join(f",x_{i}" for i in range(1, n + 1)) + "\r\n")


def _write_rows(fh, start: int, states: np.ndarray) -> None:
    """write_trace_csv's rows for states, the first numbered start.

    Converged agents repeat their value bit for bit from row to row, so each
    distinct bit pattern is formatted once and the rows are assembled from
    those strings; comparing bits keeps 0.0 and -0.0 apart.
    """
    states = np.ascontiguousarray(states, dtype=np.float64)
    bits, inverse = np.unique(states.reshape(-1).view(np.int64), return_inverse=True)
    text = np.array(["," + repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    for k, idx in enumerate(inverse.reshape(states.shape), start):
        fh.write(f"{k}{''.join(text.take(idx).tolist())}\r\n")
