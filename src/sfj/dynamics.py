"""Opinion dynamics: iteration, steady state, and block reduction.

The update is x(k+1) = (I - B) W x(k) + B x(0) with B = diag(beta). Under
stubborn-reachability the update matrix has spectral radius below one, the
iteration contracts, and the final opinions are x* = V x(0) with
V = (I - (I - B) W)^{-1} B. Everything here works in 0-based matrix indices;
agent i sits at row i-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    HypothesisViolated,
    NotConverged,
    SingularBlock,
    UnreachableNodes,
)
from .graph import (
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
    W: np.ndarray

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
    # One bincount steps u = (x, z): x in bins 0..n-1, each summing the same
    # weights in the same order as a step of x alone, and z in bins n..2n-1.
    rows, cols = np.concatenate((rows, rows + n)), np.concatenate((cols, cols + n))
    vals = np.concatenate((vals, np.abs(vals)))
    # An unreached agent leaves abs(M) a closed class of spectral radius one.
    plain = bool(_unreached(g, np.flatnonzero(1.0 - beta == 1.0) + 1))

    x0 = np.array(g.x0)
    anchor = np.concatenate((beta * x0, np.ones(n)))
    per_block = max(1, _TRACE_BLOCK // n)
    kept, first = [], 0  # full blocks when not streaming; the k of block[0]
    block = np.empty((per_block, n))
    block[0] = x0
    u = np.concatenate((x0, np.ones(n)))
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
        u_next = np.bincount(rows, weights=vals * u[cols], minlength=2 * n) + anchor
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

    Columns of non-stubborn agents are exactly zero, so _influence_solve's
    one LU factorization yields the m stubborn columns alone, never an
    explicit inverse, and they are scattered into the n x n result.
    """
    report = check_reachability(g)
    if not report.ok:
        raise UnreachableNodes(report.unreachable)
    stubborn = np.array(g.stubborn) - 1
    sysm = normalize(g)
    V = np.zeros((g.n, g.n))
    V[:, stubborn] = _influence_solve(sysm.system_matrix(), sysm.beta, stubborn)
    return V


def _influence_solve(A: np.ndarray, beta: np.ndarray, stubborn: np.ndarray) -> np.ndarray:
    """influence_matrix's solve past its gate: V's columns at stubborn (0-based)
    from A = I - M; a stack A (..., n, n), beta (..., n) runs one gesv per system."""
    rhs = np.zeros(beta.shape + (stubborn.size,))
    rhs[..., stubborn, np.arange(stubborn.size)] = beta[..., stubborn]
    return np.linalg.solve(A, rhs)


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
    # The gate above is influence_matrix's: solve on R's I - M block.
    x0_stubborn = np.array(g.x0)[rows]
    V = _influence_solve(R[:n, :n], sysm.beta, rows)
    y = np.concatenate([V @ x0_stubborn, x0_stubborn])
    return SteadyStateSystem(
        R=R, y=y, stubborn_index=g.stubborn, graph=g, W=sysm.W
    )


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
