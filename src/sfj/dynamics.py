"""Opinion dynamics: iteration, the influence solve, and the trace writer.

The update is x(k+1) = (I - B) W x(k) + B x(0) with B = diag(beta). Under
stubborn-reachability the update matrix has spectral radius below one, the
iteration contracts, and the final opinions are x* = V x(0) with
V = (I - (I - B) W)^{-1} B. V is zero outside the stubborn agents' columns,
so influence_matrix returns those m columns alone, n x m. Everything here
works in 0-based matrix indices; agent i sits at row i-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import orjson

from .errors import NoStubbornAgents, NotConverged, SingularBlock, UnreachableNodes
from .graph import (
    NormalizedSystem,
    SignedDigraph,
    _csr,
    _normalized,
    _postorder,
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


# Streamed traces and reweighting trials go in blocks of at most this many
# values (at least one row or trial each), so memory stays bounded.
_TRACE_BLOCK = 2**16
# simulate steps in rounds of at most this many steps, then checks them all.
_ROUND = 16


def _sweep_bound(z: np.ndarray, z_next: np.ndarray) -> float:
    """max z / (1 - max s), s = z_next - z, for z_next = 1 + abs(M) z and z >= 1:
    then (I - abs(M)) z = 1 - s, so once max s < 1 the comparison lemma for
    nonnegative matrices (Berman & Plemmons 1994) gives rho(abs(M)) < 1 and
    ||(I - M)^{-1}||_inf <= max (I - abs(M))^{-1} 1 <= this bound; inf before."""
    slack = 1.0 - float((z_next - z).max())
    return float(z.max()) / slack if slack > 0.0 else np.inf


def _unanchored(g: SignedDigraph) -> frozenset[int]:
    """Agents no agent whose 1 - beta rounds below one reaches: the one float
    anchoring rule, read by simulate's stop rule and influence_matrix's gate. One
    _postorder along the edges from those agents; what it leaves unseen is
    unanchored. O(n + edges)."""
    seen = [True] + [False] * g.n  # slot 0 is no agent
    anchored = (np.flatnonzero(1.0 - g.beta < 1.0) + 1).tolist()
    _postorder(*_csr(g.src, g.dst, g.n), anchored, seen)
    return frozenset(np.flatnonzero(~np.array(seen)).tolist())


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
    exhausted, or at the first state (x, and z when swept) that repeats an
    earlier one bit for bit: every later step would repeat one that failed
    the stop rule (a rounding cycle). Brent's cycle detection saves the
    state at steps 0, 1, 2, 4, 8, ... and compares each later step with the
    last saved, so a cycle of p steps entered by step s ends the run by
    step 2 max(s, p) + p.

    Steps go straight into a block of rows, row 0 the row above it, the
    others _TRACE_BLOCK // n steps (at least one); a row holds u = (x, z)
    when z is swept, so the block is twice as wide. They go in rounds of
    at most _ROUND, none past a saved step; after each, the first of its
    steps that meets the stop rule ends the run, as one checked step at a
    time would, and failing that the first that repeats the saved state.

    With a text file out, the trace goes there a block at a time, the rest
    written on return or before NotConverged is raised, and the returned or
    carried trace holds the final state alone. Without out, it holds every
    state. The file gets a header k,x_1,...,x_n and then, for each k, a row
    of k and x(k). Each value is the shortest round-trip repr of its float
    (0.1, -0.0, 1e-300, inf, nan), fields are comma-separated and never
    quoted, and every line ends in CRLF ("\\r\\n"): byte for byte what
    csv.writer writes.

    Each step reads only the nonzeros of the update matrix, one per edge:
    memory is O(n + edges), plus one block.
    """
    n, beta = g.n, g.beta
    rows, cols, vals = _normalized(n, *g.edge_index, g.w, beta).update_entries()
    plain = bool(_unanchored(g))
    anchor = beta * g.x0
    if not plain:
        # One bincount steps u = (x, z): x in bins 0..n-1, each summing the
        # same weights in the same order as a step of x alone, and z in bins
        # n..2n-1. The plain rule reads no bound and steps x alone.
        rows, cols = np.concatenate((rows, rows + n)), np.concatenate((cols, cols + n))
        vals = np.concatenate((vals, np.abs(vals)))
        anchor = np.concatenate((anchor, np.ones(n)))
    per_block = max(1, _TRACE_BLOCK // n)
    block = np.empty((per_block + 1, anchor.size))
    block[1, :n], block[1, n:] = g.x0, 1.0
    kept, first = [], 0  # rows kept; the k of block[1]
    j, k, residual, converged = 1, 0, np.inf, False  # block[j] holds u at step k
    checkpoint, mark, repeat = block[1].view(np.int64).copy(), 1, None  # u's bits at step mark // 2
    if out is not None:
        _write_header(out, n)
    # Opinions of opposite sign near the float maximum can overflow a step's
    # difference: the residual is then inf, rightly, as nothing has settled.
    with np.errstate(over="ignore"):
        while k < max_iter:
            if j == per_block:
                if out is None:
                    kept.append(block[1:, :n].copy())
                else:
                    _write_rows(out, first, block[1:, :n])
                block[0] = block[-1]
                first, j = first + per_block, 0
            r = min(_ROUND, per_block - j, max_iter - k, mark - k)
            for i in range(j, j + r):
                np.add(np.bincount(rows, vals * block[i][cols], anchor.size), anchor,
                       out=block[i + 1])
            steps = np.abs(block[j + 1:j + r + 1, :n] - block[j:j + r, :n]).max(axis=1).tolist()
            for t, step in enumerate(steps):
                if step < tol and (plain or step == 0.0 or step * _sweep_bound(
                        block[j + t, n:], block[j + t + 1, n:]) < tol):
                    converged, r = True, t + 1
                    break
            j, k, residual = j + r, k + r, steps[r - 1]
            if converged:
                break
            same = (block[j - r + 1:j + 1].view(np.int64) == checkpoint).all(axis=1)
            if same.any():
                back = r - 1 - int(same.argmax())
                j, k, residual, repeat = j - back, k - back, steps[r - 1 - back], mark // 2
                break
            if k == mark:
                checkpoint, mark = block[j].view(np.int64).copy(), 2 * mark
    if out is None:
        states = np.concatenate(kept + [block[1:j + 1, :n]])
    else:
        _write_rows(out, first, block[1:j + 1, :n])
        states = block[j:j + 1, :n].copy()
    trace = OpinionTrace(states=states, converged=converged, iterations=k, residual=residual)
    if repeat is not None:
        raise NotConverged(trace, f"no convergence: iteration {k} repeats iteration {repeat}")
    if not converged:
        raise NotConverged(trace, f"no convergence after {max_iter} iterations")
    return trace


def influence_matrix(g: SignedDigraph) -> np.ndarray:
    """Map from initial to final opinions, V = (I - (I-B)W)^{-1} B, as its
    stubborn columns, the only nonzero ones: an (n, m) float array whose
    column j belongs to agent g.stubborn[j], so the limit is
    V @ g.x0[g.beta > 0].

    The limit, and with it the solve, exists when the update matrix
    M = (I-B)W has spectral radius below one. _unanchored certifies that in
    O(n + edges): abs(M) is row-substochastic, rows whose 1 - beta rounds
    below one sum to less than one, and every other row reaches such a row
    along reversed edges, so rho(M) <= rho(abs(M)) < 1 (the substochastic
    argument for Friedkin-Johnsen dynamics; Parsegov, Proskurnikov, Tempo &
    Friedkin, IEEE TAC 2017). Raises NoStubbornAgents / UnreachableNodes
    when there is no stubborn agent or some agent is unreached, since then
    nothing certifies the solve.

    The gate certifies rho(M) < 1, not accuracy: V's error grows as the
    weakest anchor's beta shrinks, up to about eps / beta. Three agents in a
    closed class heard only from agent 1, whose exact rows of V are 1.0 at
    agent 1's column, read 3.636 at beta_1 = 2**-53, 1.0031 at 2**-50,
    1.00014 at 2**-40 and 1 + 2.9e-12 at 2**-20.
    """
    if g.m == 0:
        raise NoStubbornAgents("network has no stubborn agent")
    unreached = _unanchored(g)
    if unreached:
        raise UnreachableNodes(unreached)
    sysm, stubborn = normalize(g), np.array(g.stubborn) - 1
    plan = _level_plan(sysm, stubborn)
    return _level_solve(plan, sysm)[plan.slot_of]


def _components(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strongly connected components of the graph rows[e] -> cols[e] on 0..n-1
    and their levels: v lies in component comp[v] of level level[comp[v]].

    Kosaraju-Sharir (M. Sharir, Comput. Math. Appl. 1981): search the
    reversed edges, then the edges from roots in reverse postorder. Each tree
    of the second search is a component whose edges end in it or in earlier
    trees, so its level is one above the highest they reach (depth is still
    -1 inside it), or 0 if none.
    """
    post, _ = _postorder(*_csr(cols, rows, n - 1), range(n), [False] * n)
    bounds, succ = _csr(rows, cols, n - 1)
    post, trees = _postorder(bounds, succ, post[::-1], [False] * n)
    depth, comp, level = [-1] * n, [0] * n, []
    for c, (a, b) in enumerate(zip(trees, trees[1:])):
        top = 0
        for v in post[a:b]:
            for u in succ[bounds[v]:bounds[v + 1]]:
                if depth[u] >= top:
                    top = depth[u] + 1
        for v in post[a:b]:
            depth[v], comp[v] = top, c
        level.append(top)
    return np.array(comp, dtype=np.int64), np.array(level, dtype=np.int64)


class _LevelPlan(NamedTuple):
    """_level_solve's gather indices, from the nonzero pattern of M alone.

    Agents sit at slots: by level, then by SCC size, then by SCC as found,
    so a level's SCCs of one size fill a run of slots; agent i at
    slot_of[i], and stubborn[j]'s beta anchors V's column j.
    ext lists M's entries between SCCs by the slot of their row, src the
    slots of their columns. Each level is (start, stop, e0, e1, fed, heads,
    loops, stacks): slots start..stop-1 hear through ext[e0:e1], slot
    fed[i] through those from ext[e0 + heads[i]] on; loops are (entries, slots)
    of the self-loops of its single-agent SCCs; each stack (at, k, count,
    entries, flat) is the run of count SCCs of k > 1 agents from slot at on,
    whose entries of M land at flat in a (count, k, k) stack.
    footprint bounds the values one trial holds at once, in the solve and
    while its caller reads V: V and one gathered copy of it (2 n m), a
    level's gathered rows and weighted terms (2 m times the most entries
    any level hears through), the largest SCC stack (count k**2; the solve
    holds one at a time) and three arrays of M's entries (its weights, the
    system's and M's own).
    """

    slot_of: np.ndarray
    stubborn: np.ndarray
    ext: np.ndarray
    src: np.ndarray
    levels: list
    footprint: int


def _level_plan(sysm: NormalizedSystem, stubborn: np.ndarray) -> _LevelPlan:
    """Plan the solve of (I - M) V = B_s over the SCCs of M's in-lists.

    I - M is block lower triangular over those SCCs in the order _components
    finds them (the block triangular form of Duff & Reid, ACM TOMS 1978),
    and each SCC's level is 0 if it hears from no other SCC and one above the
    highest it hears from otherwise, so each level needs only the levels
    below it. Reads only sysm.rows and sysm.cols, so one plan
    serves every trial on the same edges. O(n + edges) plus sorts.
    """
    n, rows, cols = sysm.n, sysm.rows, sysm.cols
    comp, level = _components(n, rows, cols)
    sizes = np.bincount(comp)
    agents = np.lexsort((comp, sizes[comp], level[comp]))  # by level, size, then SCC
    slot_of = np.empty(n, dtype=np.int64)
    slot_of[agents] = np.arange(n)
    lv, k = level[comp[agents]], sizes[comp[agents]]  # each slot's level and SCC size
    starts = np.searchsorted(lv, np.arange(lv[-1] + 2)).tolist()

    r, c = slot_of[rows], slot_of[cols]
    by_row = np.argsort(r, kind="stable")
    cross = (comp[rows] != comp[cols])[by_row]
    big = k[r[by_row]] > 1
    ext, inside, loops = by_row[cross], by_row[~cross & big], by_row[~cross & ~big]

    # Each level's SCCs of one size k fill a run of slots. A run of count
    # SCCs of k > 1 agents from slot at on is one (count, k, k) stack, where
    # the entry at row slot i and column slot j of the SCC from slot f on
    # lands at (i - at) k + j - f.
    _, heads, spans = np.unique(lv * (n + 1) + k, return_index=True, return_counts=True)
    stacked = k[heads] > 1
    heads, spans = heads[stacked], spans[stacked]
    i, j = r[inside], c[inside]
    at = heads[np.searchsorted(heads, i, side="right") - 1]
    size = k[i]
    first = i - (i - at) % size
    flat = (i - at) * size + j - first
    bounds = np.searchsorted(i, heads).tolist() + [inside.size]
    stacks = [(a, size, span // size, inside[e0:e1], flat[e0:e1])
              for a, span, size, e0, e1 in zip(heads.tolist(), spans.tolist(), k[heads].tolist(),
                                               bounds, bounds[1:])]

    ext_slot, loop_slot = r[ext], r[loops]
    fed, runs = np.unique(ext_slot, return_index=True)  # where each fed slot's entries begin
    # Each level's first entry of ext, run of it, self-loop and stack.
    e = np.searchsorted(ext_slot, starts).tolist()
    f = np.searchsorted(runs, e).tolist()
    lp = np.searchsorted(loop_slot, starts).tolist()
    st = np.searchsorted(heads, starts).tolist()
    levels = [
        (a, b, e0, e1, fed[f0:f1], runs[f0:f1] - e0, (loops[l0:l1], loop_slot[l0:l1]),
         stacks[t0:t1])
        for a, b, e0, e1, f0, f1, l0, l1, t0, t1 in zip(
            starts, starts[1:], e, e[1:], f, f[1:], lp, lp[1:], st, st[1:])
    ]
    heard = max(e1 - e0 for e0, e1 in zip(e, e[1:]))
    footprint = 2 * stubborn.size * (n + heard) + max(
        (count * size * size for _, size, count, *_ in stacks), default=0) + 3 * rows.size
    return _LevelPlan(slot_of, stubborn, ext, c[ext], levels, footprint)


def _level_solve(plan: _LevelPlan, sysm: NormalizedSystem) -> np.ndarray:
    """V's columns at plan.stubborn from the system sysm, level by level: each
    level gathers its terms from the levels below in one reduceat, divides
    its single-agent SCCs with a self-loop by 1 - M_vv and solves each of its
    stacks of larger SCCs at once.
    V is in slot order, slots first: agent i's row is slot_of[i], and a
    leading trial axis on sysm gives V (n, T, m), so each gather, reduceat
    and add moves whole rows of T m values; a caller gathers V's rows once,
    in the order it needs. Memory is O(T plan.footprint), never n x n.

    Raises SingularBlock, naming the SCC's agents, when an SCC's block of
    I - M is singular in floating point: _unanchored's rule puts rho(M)
    below one, but a weight of 1e-20 next to 1 is lost in rounding."""
    n, lead, m = plan.slot_of.size, sysm.beta.shape[:-1], plan.stubborn.size
    beta = sysm.beta.reshape(-1, n).T  # (n, T); no trial axis is T = 1
    trials = beta.shape[1]
    mv = (1.0 - beta[sysm.rows]) * sysm.vals.reshape(trials, -1).T
    V = np.zeros((n, trials, m))
    V[plan.slot_of[plan.stubborn], :, np.arange(m)] = beta[plan.stubborn]
    weights = mv[plan.ext, :, None]
    for _, _, e0, e1, fed, heads, (loops, slots), stacks in plan.levels:
        if e1 > e0:
            V[fed] += np.add.reduceat(weights[e0:e1] * V[plan.src[e0:e1]], heads)
        if loops.size:
            divisor = 1.0 - mv[loops]
            if not divisor.all():
                raise _singular(plan, slots[np.flatnonzero(divisor == 0.0)[:1] // trials])
            V[slots] /= divisor[:, :, None]
        for at, k, count, entries, flat in stacks:
            A = np.zeros((trials, count, k, k))
            A[:, :, np.arange(k), np.arange(k)] = 1.0
            A.reshape(trials, -1)[:, flat] -= mv[entries].T
            span = V[at:at + count * k]
            rhs = span.reshape(count, k, trials, m).transpose(2, 0, 1, 3)
            try:
                solved = np.linalg.solve(A, rhs)
            except np.linalg.LinAlgError:
                ranks = np.linalg.matrix_rank(A).min(axis=0)
                raise _singular(plan, at + k * np.argmax(ranks < k) + np.arange(k))
            span[...] = solved.transpose(1, 2, 0, 3).reshape(span.shape)
            del A, solved  # freed before the next stack is built
    return V.reshape((n,) + lead + (m,))


def _singular(plan: _LevelPlan, slots: np.ndarray) -> SingularBlock:
    agents = sorted((np.argsort(plan.slot_of)[slots] + 1).tolist())
    return SingularBlock(f"agents {agents} form a strongly connected component whose "
                         "block of I - (I - B) W is singular in floating point")


def _write_header(fh, n: int) -> None:
    fh.write("k" + "".join(f",x_{i}" for i in range(1, n + 1)) + "\r\n")


def _write_rows(fh, start: int, states: np.ndarray) -> None:
    """simulate's trace rows for states, the first numbered start.

    Each row is one orjson call, its brackets cut off, so each must be
    contiguous native float64, as simulate's are. orjson writes the
    shortest round-trip digits, as repr does, and in repr's form for every
    value _unlike_repr does not flag; in a row holding one it flags, the
    text is split at its commas and each flagged value takes repr, found
    in the block's flag mask. Rows are written one at a time, so the text
    held at once is one row's, beside that mask (a byte a value) and about
    64 bytes a value orjson holds while it writes the row.
    """
    flags = _unlike_repr(states)
    for j, (row, slow) in enumerate(zip(states, flags.any(axis=1).tolist())):
        text = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
        if slow:
            text = text.split(",")  # the row's string is freed before the join
            for i in np.flatnonzero(flags[j]).tolist():
                text[i] = repr(float(row[i]))
            text = ",".join(text)
        fh.write(f"{start + j},{text}\r\n")


def _unlike_repr(values: np.ndarray) -> np.ndarray:
    """Where orjson writes a float64 unlike repr: NaN and inf, which it
    writes as null, and nonzero values outside 1e-4 <= |v| < 1e16, which it
    writes as 1e16 or 0.00001 where repr writes 1e+16 or 1e-05. Compares
    values with no abs, so the temporaries are bools, not floats."""
    return ~((values == 0) | ((values >= 1e-4) & (values < 1e16))
             | ((values <= -1e-4) & (values > -1e16)))
