"""Signed directed influence networks and their row-normalized weight systems.

Agent ids are 1-based everywhere in the public API; matrix rows and columns
use the corresponding 0-based index (agent i lives at row/column i-1). An
edge (src, dst, weight) means src influences dst, i.e. src is an in-neighbour
of dst, and its weight lands in row dst of the weight matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import GraphFormatError, GraphValidationError, NoStubbornAgents

ROW_SUM_TOL = 1e-12  # double precision headroom for n up to ~1e4 accumulations


class Edge(NamedTuple):
    src: int
    dst: int
    weight: float


class SignedDigraph:
    """Immutable signed, weighted digraph with stubbornness and initial opinions.

    Attributes:
        n: number of agents, ids 1..n.
        src, dst, w: the edges as read-only columns in edge order: edge k
            runs from agent src[k] to agent dst[k] (int64, 1-based) with
            signed, nonzero weight w[k] (float64).
        beta: per-agent stubbornness in [0, 1]; agent i is stubborn iff
            beta[i-1] > 0.
        x0: per-agent initial opinion.
    """

    def __init__(self, n: int, edges, beta, x0):
        """Validate once, with array checks. edges holds (src, dst, weight)
        triples, or is an array with one such row per edge; n and the ends are
        integers. A failure names the first bad agent or edge, in id or edge order."""
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise GraphValidationError(f"n must be an integer, got {n!r}")
        e = np.array(edges, dtype=float).reshape(-1, 3)
        b, x = np.asarray(beta, dtype=float), np.asarray(x0, dtype=float)
        self.n, self.beta, self.x0 = int(n), tuple(b.tolist()), tuple(x.tolist())
        if n < 1:
            raise GraphValidationError(f"need at least one agent, got n={n}")
        if b.shape != (n,) or x.shape != (n,):
            raise GraphValidationError(
                f"beta and x0 must have length n={n}, got {b.size} and {x.size}"
            )
        bad = ~((b >= 0.0) & (b <= 1.0))
        if bad.any():
            raise GraphValidationError(
                f"stubbornness {self.beta[bad.argmax()]} outside [0, 1]"
            )
        bad = ~np.isfinite(x)
        if bad.any():
            i = int(bad.argmax())
            raise GraphValidationError(f"agent {i + 1} has non-finite x0 {self.x0[i]}")
        ends = e[:, :2]
        integral = np.all(np.isfinite(ends) & (ends == np.floor(ends)), axis=1)
        inside = integral & np.all((ends >= 1) & (ends <= n), axis=1)
        s, d = (np.where(inside, c, 0).astype(np.int64) for c in ends.T)
        w = e[:, 2].copy()
        # Out-of-range edges get distinct negative keys, so a repeat is always
        # a second copy of an in-range pair.
        key = np.where(inside, s * (n + 1) + d, -1 - np.arange(w.size))
        repeat = np.ones(w.size, dtype=bool)
        repeat[np.unique(key, return_index=True)[1]] = False
        bad = ~inside | ~np.isfinite(w) | (w == 0.0) | repeat
        if bad.any():
            k = int(bad.argmax())
            u, v = (int(c) if c.is_integer() else c for c in ends[k].tolist())
            edge = f"edge ({u}, {v})"
            raise GraphValidationError(
                f"{edge} has an end that is not an integer" if not integral[k]
                else f"{edge} references an agent outside 1..{n}" if not inside[k]
                else f"{edge} has non-finite weight {w[k]}" if not np.isfinite(w[k])
                else f"{edge} has zero weight" if w[k] == 0.0
                else f"duplicate {edge}"
            )
        for column in (s, d, w):
            column.setflags(write=False)
        self.src, self.dst, self.w = s, d, w

    def __eq__(self, other):
        key = lambda g: (g.n, g.edges, g.beta, g.x0)
        return isinstance(other, SignedDigraph) and key(self) == key(other)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as (src, dst, weight) tuples: a view built on first use."""
        return tuple(map(Edge, self.src.tolist(), self.dst.tolist(), self.w.tolist()))

    @cached_property
    def stubborn(self) -> tuple[int, ...]:
        """Ids of stubborn agents, ascending; computed once per graph."""
        return tuple(i + 1 for i, b in enumerate(self.beta) if b > 0.0)

    @property
    def m(self) -> int:
        """Number of stubborn agents."""
        return len(self.stubborn)

    @cached_property
    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based (src, dst) index arrays in edge order; built on first use."""
        return self.src - 1, self.dst - 1

    def adjacency(self) -> np.ndarray:
        """Dense signed adjacency; entry (i-1, j-1) is the weight of edge j -> i."""
        src, dst = self.edge_index
        a = np.zeros((self.n, self.n))
        a[dst, src] = self.w
        return a


def _grouped(keys: np.ndarray, vals: np.ndarray, n: int) -> list[list[int]]:
    """vals grouped by keys in 0..n: n + 1 Python lists, each sorted ascending."""
    order = np.argsort(keys * (n + 1) + vals)
    bounds = np.searchsorted(keys[order], np.arange(n + 2)).tolist()
    flat = vals[order].tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


@dataclass(frozen=True, eq=False)
class NormalizedSystem:
    """Row-normalized signed weight matrix W paired with the stubbornness diagonal.

    Every row of abs(W) sums to 1: row i holds the in-edge weights of agent i
    divided by their total magnitude, with a self-loop fallback w_ii = 1 for
    agents that have no in-edges. beta is kept as a 1-D vector; the diagonal
    matrix is implied.
    """

    W: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        self.W.setflags(write=False)
        self.beta.setflags(write=False)

    @property
    def n(self) -> int:
        return self.W.shape[0]

    def update_matrix(self) -> np.ndarray:
        """The opinion-update matrix (I - diag(beta)) W."""
        return (1.0 - self.beta)[:, None] * self.W


@dataclass(frozen=True)
class ReachabilityReport:
    """Whether every non-stubborn agent has a directed path from a stubborn one."""

    ok: bool
    unreachable: frozenset[int]


def normalize(g: SignedDigraph) -> NormalizedSystem:
    """Build the normalized system: each agent's in-weights scaled to unit magnitude.

    Row i of W is a_ij / sum_j |a_ij| over the in-edges of agent i; an agent
    with no in-edges gets w_ii = 1 and zeros elsewhere, so it simply holds its
    current opinion.
    """
    return _normalize_adjacency(g.adjacency(), np.array(g.beta))


def _normalize_adjacency(a: np.ndarray, beta: np.ndarray) -> NormalizedSystem:
    """normalize's arithmetic on a dense adjacency a and a stubbornness vector."""
    totals = np.abs(a).sum(axis=1)
    w = np.zeros_like(a)
    has_in = totals > 0.0
    w[has_in] = a[has_in] / totals[has_in, None]
    no_in = np.flatnonzero(~has_in)
    w[no_in, no_in] = 1.0
    return NormalizedSystem(W=w, beta=beta)


def check_reachability(g: SignedDigraph) -> ReachabilityReport:
    """Report which non-stubborn agents no stubborn agent can reach.

    Reachability follows edge direction and ignores weights and signs. Raises
    NoStubbornAgents when the graph has no stubborn agent at all, since every
    downstream analysis needs at least one.
    """
    if g.m == 0:
        raise NoStubbornAgents("network has no stubborn agent")
    # A path from a stubborn agent runs among non-stubborn agents after the
    # last stubborn one on it, so this is the restricted search on that block.
    unreachable = _unreached(g, np.flatnonzero(np.array(g.beta) == 0.0) + 1)
    return ReachabilityReport(ok=not unreachable, unreachable=unreachable)


def _unreached(g: SignedDigraph, block) -> frozenset[int]:
    """Agents of block that no path from outside block, running inside it, reaches.

    This is the package's one contraction argument. Let A be abs(W)
    restricted to block; W's rows are normalized over all in-edges, so A's
    rows sum to at most one, and a row falls short exactly when its agent has
    an in-edge from outside block (a self-loop is not one). rho(A) < 1 iff
    every agent of block is reached from such an agent along edges inside
    block: an unreached set is a closed class whose rows sum to one, so then
    rho(A) = 1. O(n + edges).
    """
    inside = np.zeros(g.n + 1, dtype=bool)
    inside[np.fromiter(block, dtype=np.int64)] = True
    src_in, dst_in = inside[g.src], inside[g.dst]
    out = _grouped(g.src[src_in & dst_in], g.dst[src_in & dst_in], g.n)
    stack = g.dst[dst_in & ~src_in].tolist()
    seen = set(stack)
    while stack:
        for u in out[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return frozenset(np.flatnonzero(inside).tolist()) - seen


def graph_to_dict(g: SignedDigraph) -> dict:
    return {
        "n": g.n,
        "agents": [
            {"id": i + 1, "beta": g.beta[i], "x0": g.x0[i]} for i in range(g.n)
        ],
        "edges": [
            {"from": s, "to": d, "w": w}
            for s, d, w in zip(g.src.tolist(), g.dst.tolist(), g.w.tolist())
        ],
    }


def graph_from_dict(data: dict) -> SignedDigraph:
    """Build a graph from graph_to_dict's schema, validating every entry once.
    n and the ids must be integers (2.0 counts, a bool or a value beyond 2**53
    does not) and beta, x0 and w numbers; strings are neither."""
    if not isinstance(data, dict):
        raise GraphFormatError(f"expected a JSON object, got {type(data).__name__}")
    try:
        n = data["n"]
        agents = data["agents"]
        raw_edges = data["edges"]
    except KeyError as exc:
        raise GraphFormatError(f"missing required field {exc}") from exc
    try:
        n = _number(n, True)
    except ValueError as exc:
        raise GraphFormatError(f"'n' must be an integer, got {n!r}") from exc
    if not isinstance(agents, list) or not isinstance(raw_edges, list):
        raise GraphFormatError("'agents' and 'edges' must be arrays")
    # Checked first, so a huge n costs nothing. With n <= len(agents), the
    # ids fill every slot 1..n unless one is out of range or listed twice.
    if n > len(agents):
        raise GraphFormatError(
            f"agents missing from file: n={n} but only {len(agents)} agent entries"
        )
    try:
        raw = [[e[k] for e in agents] for k in ("id", "beta", "x0")]
        raw += [[e[k] for e in raw_edges] for k in ("from", "to", "w")]
        ids, beta, x0, src, dst, w = (np.array(c, dtype=float) for c in raw)
        ends = np.concatenate((src, dst))
        well_formed = (
            all(set(map(type, column)) <= {int, float} for column in raw)
            and ids.size == max(n, 0)
            and np.array_equal(np.sort(ids), np.arange(1, ids.size + 1))
            and np.all((np.abs(ends) <= 2**53) & (ends == np.floor(ends)))
        )
    except (TypeError, KeyError, ValueError, OverflowError):
        well_formed = False
    if not well_formed:
        _raise_format_error(n, agents, raw_edges)
    by_id = np.empty((2, ids.size))
    by_id[:, ids.astype(np.int64) - 1] = beta, x0
    return SignedDigraph(n, np.column_stack((src, dst, w)), *by_id)


def _raise_format_error(n: int, agents: list, raw_edges: list):
    """Raise GraphFormatError for the first malformed entry, in file order."""
    seen = set()
    for entry in agents:
        try:
            i = _number(entry["id"], True)
        except (TypeError, KeyError, ValueError) as exc:
            raise GraphFormatError(f"agent entry {entry!r} has no integer id") from exc
        if not 1 <= i <= n:
            raise GraphFormatError(f"agent id {i} outside 1..{n}")
        if i in seen:
            raise GraphFormatError(f"agent {i} listed twice")
        seen.add(i)
        try:
            _number(entry["beta"]), _number(entry["x0"])
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise GraphFormatError(f"agent {i}: bad beta/x0: {exc}") from exc
    for entry in raw_edges:
        try:
            _number(entry["from"], True), _number(entry["to"], True)
            _number(entry["w"])
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise GraphFormatError(f"bad edge entry {entry!r}: {exc}") from exc
    raise AssertionError("graph_from_dict rejected a file with no malformed entry")


def _number(v, integral: bool = False):
    """float(v), or int(v) if integral; a bool, a string or an id beyond 2**53 fails."""
    if type(v) in (int, float) and not integral:
        return float(v)
    if type(v) in (int, float) and abs(v) <= 2**53 and v == int(v):
        return int(v)
    raise ValueError(f"expected {'an integer' if integral else 'a number'}, got {v!r}")


def load_graph(path) -> SignedDigraph:
    """Read a graph from a JSON file; see graph_to_dict for the schema."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                f"{exc.msg}"
            ) from exc
    return graph_from_dict(data)


def save_graph(g: SignedDigraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh, indent=2)
        fh.write("\n")
