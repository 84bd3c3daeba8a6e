"""Signed directed influence networks and their row-normalized weight systems.

Agent ids are 1-based everywhere in the public API; matrix rows and columns
use the corresponding 0-based index (agent i lives at row/column i-1). An
edge (src, dst, weight) means src influences dst, i.e. src is an in-neighbour
of dst, and its weight lands in row dst of the weight matrix.
"""

from __future__ import annotations

import json
import math
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


@dataclass(frozen=True)
class SignedDigraph:
    """Immutable signed, weighted digraph with stubbornness and initial opinions.

    Attributes:
        n: number of agents, ids 1..n.
        edges: directed edges (src, dst, weight), weight nonzero, signed.
        beta: per-agent stubbornness in [0, 1]; agent i is stubborn iff
            beta[i-1] > 0.
        x0: per-agent initial opinion.
    """

    n: int
    edges: tuple[Edge, ...]
    beta: tuple[float, ...]
    x0: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple(Edge(int(s), int(d), float(w)) for s, d, w in self.edges)
        )
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        if self.n < 1:
            raise GraphValidationError(f"need at least one agent, got n={self.n}")
        if len(self.beta) != self.n or len(self.x0) != self.n:
            raise GraphValidationError(
                f"beta and x0 must have length n={self.n}, "
                f"got {len(self.beta)} and {len(self.x0)}"
            )
        for b in self.beta:
            if not 0.0 <= b <= 1.0:
                raise GraphValidationError(f"stubbornness {b} outside [0, 1]")
        for i, v in enumerate(self.x0, start=1):
            if not math.isfinite(v):
                raise GraphValidationError(f"agent {i} has non-finite x0 {v}")
        seen = set()
        for src, dst, w in self.edges:
            if not (1 <= src <= self.n and 1 <= dst <= self.n):
                raise GraphValidationError(
                    f"edge ({src}, {dst}) references an agent outside 1..{self.n}"
                )
            if not math.isfinite(w):
                raise GraphValidationError(
                    f"edge ({src}, {dst}) has non-finite weight {w}"
                )
            if w == 0.0:
                raise GraphValidationError(f"edge ({src}, {dst}) has zero weight")
            if (src, dst) in seen:
                raise GraphValidationError(f"duplicate edge ({src}, {dst})")
            seen.add((src, dst))

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
        """0-based (src, dst) index arrays in .edges order; built on first use."""
        src, dst, _ = zip(*self.edges) if self.edges else ((), (), ())
        return np.array(src, dtype=np.intp) - 1, np.array(dst, dtype=np.intp) - 1

    def out_neighbours(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {i: [] for i in range(1, self.n + 1)}
        for src, dst, _ in self.edges:
            out[src].append(dst)
        return out

    def in_neighbours(self) -> dict[int, list[int]]:
        inn: dict[int, list[int]] = {i: [] for i in range(1, self.n + 1)}
        for src, dst, _ in self.edges:
            inn[dst].append(src)
        return inn

    def adjacency(self) -> np.ndarray:
        """Dense signed adjacency; entry (i-1, j-1) is the weight of edge j -> i."""
        src, dst = self.edge_index
        a = np.zeros((self.n, self.n))
        a[dst, src] = [w for _, _, w in self.edges]
        return a


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
    unreachable = _unreached(
        g, (i for i in range(1, g.n + 1) if g.beta[i - 1] == 0.0)
    )
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
    inside = set(block)
    out = g.out_neighbours()
    stack = [dst for src, dst, _ in g.edges if dst in inside and src not in inside]
    seen = set(stack)
    while stack:
        for u in out[stack.pop()]:
            if u in inside and u not in seen:
                seen.add(u)
                stack.append(u)
    return frozenset(inside - seen)


def graph_to_dict(g: SignedDigraph) -> dict:
    return {
        "n": g.n,
        "agents": [
            {"id": i + 1, "beta": g.beta[i], "x0": g.x0[i]} for i in range(g.n)
        ],
        "edges": [{"from": s, "to": d, "w": w} for s, d, w in g.edges],
    }


def graph_from_dict(data: dict) -> SignedDigraph:
    if not isinstance(data, dict):
        raise GraphFormatError(f"expected a JSON object, got {type(data).__name__}")
    try:
        n = data["n"]
        agents = data["agents"]
        raw_edges = data["edges"]
    except KeyError as exc:
        raise GraphFormatError(f"missing required field {exc}") from exc
    try:
        n = int(n)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GraphFormatError(f"'n' must be an integer, got {n!r}") from exc
    if not isinstance(agents, list) or not isinstance(raw_edges, list):
        raise GraphFormatError("'agents' and 'edges' must be arrays")
    # Checked before allocating n slots, so a huge n costs nothing. With
    # n <= len(agents), the id checks below leave no slot unfilled.
    if n > len(agents):
        raise GraphFormatError(
            f"agents missing from file: n={n} but only {len(agents)} agent entries"
        )

    beta = [None] * n
    x0 = [None] * n
    for entry in agents:
        try:
            i = int(entry["id"])
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise GraphFormatError(f"agent entry {entry!r} has no integer id") from exc
        if not 1 <= i <= n:
            raise GraphFormatError(f"agent id {i} outside 1..{n}")
        if beta[i - 1] is not None:
            raise GraphFormatError(f"agent {i} listed twice")
        try:
            beta[i - 1] = float(entry["beta"])
            x0[i - 1] = float(entry["x0"])
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise GraphFormatError(f"agent {i}: bad beta/x0: {exc}") from exc

    edges = []
    for entry in raw_edges:
        try:
            edges.append(
                Edge(int(entry["from"]), int(entry["to"]), float(entry["w"]))
            )
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise GraphFormatError(f"bad edge entry {entry!r}: {exc}") from exc
    return SignedDigraph(n=n, edges=tuple(edges), beta=tuple(beta), x0=tuple(x0))


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
