"""Signed directed influence networks and their row-normalized weight systems.

Agent ids are 1-based everywhere in the public API; matrix rows and columns
use the corresponding 0-based index (agent i lives at row/column i-1). An
edge (src, dst, weight) means src influences dst, i.e. src is an in-neighbour
of dst, and its weight lands in row dst of the weight matrix.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import orjson

from .errors import GraphFormatError, GraphValidationError, SFJError


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
        beta: per-agent stubbornness in [0, 1], a read-only float64 column;
            agent i is stubborn iff beta[i-1] > 0.
        x0: per-agent initial opinion, a read-only float64 column.
    Every column is the graph's own copy.
    """

    def __init__(self, n: int, edges, beta, x0):
        """Validate once, with array checks. edges holds (src, dst, weight)
        triples, or is an array with one such row per edge; n and the ends are
        integers. A failure names the first bad agent or edge, in id or edge order."""
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise GraphValidationError(f"n must be an integer, got {n!r}")
        e = np.array(edges, dtype=float).reshape(-1, 3)
        b, x = np.array(beta, dtype=float), np.array(x0, dtype=float)
        if n < 1:
            raise GraphValidationError(f"need at least one agent, got n={n}")
        if b.shape != (n,) or x.shape != (n,):
            raise GraphValidationError(
                f"beta and x0 must have length n={n}, got {b.size} and {x.size}"
            )
        bad = ~((b >= 0.0) & (b <= 1.0))
        if bad.any():
            raise GraphValidationError(
                f"stubbornness {b[bad.argmax()].item()} outside [0, 1]"
            )
        bad = ~np.isfinite(x)
        if bad.any():
            i = int(bad.argmax())
            raise GraphValidationError(f"agent {i + 1} has non-finite x0 {x[i].item()}")
        ends = e[:, :2]
        # Each test on the (E, 2) block, then its two columns ANDed: a
        # reduction along the short axis costs far more.
        integral = np.isfinite(ends) & (ends == np.floor(ends))
        integral = integral[:, 0] & integral[:, 1]
        bounded = (ends >= 1) & (ends <= n)
        inside = integral & bounded[:, 0] & bounded[:, 1]
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
        total = np.bincount(d, np.abs(w), n + 1)  # summed as _normalized sums them
        if np.isinf(total).any():
            raise GraphValidationError(f"agent {np.isinf(total).argmax()}'s in-weight "
                                       "magnitudes sum past the float range")
        for column in (s, d, w, b, x):
            column.setflags(write=False)
        self.n, self.src, self.dst, self.w, self.beta, self.x0 = int(n), s, d, w, b, x

    def __eq__(self, other):
        return (
            isinstance(other, SignedDigraph)
            and self.n == other.n
            and all(map(np.array_equal, (self.src, self.dst, self.w, self.beta, self.x0),
                        (other.src, other.dst, other.w, other.beta, other.x0)))
        )

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as (src, dst, weight) tuples: a view built on first use."""
        return tuple(map(Edge, self.src.tolist(), self.dst.tolist(), self.w.tolist()))

    @cached_property
    def stubborn(self) -> tuple[int, ...]:
        """Ids of stubborn agents, ascending; computed once per graph."""
        return tuple((np.flatnonzero(self.beta > 0.0) + 1).tolist())

    @property
    def m(self) -> int:
        """Number of stubborn agents."""
        return len(self.stubborn)

    @cached_property
    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based (src, dst) index arrays in edge order; built on first use."""
        return self.src - 1, self.dst - 1


def _csr(keys: np.ndarray, vals: np.ndarray, n: int) -> tuple[list[int], list[int]]:
    """vals grouped by keys in 0..n, as Python lists (bounds, flat) from one
    argsort: key k's values, ascending, are flat[bounds[k]:bounds[k + 1]]."""
    order = np.argsort(keys * (n + 1) + vals)
    bounds = [0] + np.cumsum(np.bincount(keys, minlength=n + 1)).tolist()
    return bounds, vals[order].tolist()


def _postorder(bounds: list, succ: list, roots, seen: list) -> tuple[list[int], list[int]]:
    """The package's one graph search: iterative depth-first postorder of
    v -> succ[bounds[v]:bounds[v + 1]] from each root not in seen, in turn,
    marking what it visits in seen. Tree t is post[trees[t]:trees[t + 1]].
    The open node's frame (v, i, end) lives in locals, i the position in succ
    of its next successor to try; a descent pushes it and a finished node
    pops its parent's."""
    post, trees = [], []
    for root in roots:
        if seen[root]:
            continue
        seen[root] = True
        trees.append(len(post))
        stack = []
        v, i, end = root, bounds[root], bounds[root + 1]
        while True:
            while i < end:
                u = succ[i]
                i += 1
                if not seen[u]:
                    seen[u] = True
                    stack.append((v, i, end))
                    v, i, end = u, bounds[u], bounds[u + 1]
            post.append(v)
            if not stack:
                break
            v, i, end = stack.pop()
    trees.append(len(post))
    return post, trees


@dataclass(frozen=True, eq=False)
class NormalizedSystem:
    """Row-normalized signed weight matrix W, kept as its nonzeros, and beta.

    Row i of W holds agent i's in-edge weights over their total magnitude,
    or w_ii = 1 if it has none. rows, cols and vals are 0-based, in edge
    order and then those agents; no (row, col) pair repeats. All are
    read-only. A leading trial axis on vals and beta holds one system per
    trial. No dense W is ever built.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        for a in (self.rows, self.cols, self.vals, self.beta):
            a.setflags(write=False)

    def update_entries(self):
        """M's nonzeros (rows, cols, vals), M = (I - diag(beta)) W, sorted by
        row and then column as np.nonzero lists them. The order is
        the order in which simulate's bincount sums each agent's terms, so it
        fixes the last bits of every iterate. O(n + edges)."""
        vals = (1.0 - self.beta[self.rows]) * self.vals
        order = np.lexsort((self.cols, self.rows))
        order = order[vals[order] != 0.0]  # rows of fully stubborn agents vanish
        return self.rows[order], self.cols[order], vals[order]


def normalize(g: SignedDigraph) -> NormalizedSystem:
    """Build the normalized system: each agent's in-weights scaled to unit magnitude.

    Row i of W is a_ij / sum_j |a_ij| over agent i's in-edges, or w_ii = 1 if
    it has none. O(n + edges): W is kept as its nonzeros, never dense.
    """
    return _normalized(g.n, *g.edge_index, g.w, g.beta)


def _normalized(n: int, src, dst, w, beta: np.ndarray) -> NormalizedSystem:
    """normalize's system for n agents, 0-based edges src -> dst of weights w:
    the package's one copy of the normalization, with each agent's in-weight
    magnitude total summed in edge order. w (T, edges) and beta (T, n) give
    T systems on the same entries, from one bincount. O(T (n + edges))."""
    lead = w.shape[:-1]
    trial = np.arange(math.prod(lead))[:, None]  # agent i of trial t is bin i + n t
    totals = np.bincount((dst + n * trial).ravel(), np.abs(w).ravel(), trial.size * n)
    totals = totals.reshape(lead + (n,))
    lone = np.flatnonzero(np.bincount(dst, minlength=n) == 0)  # no in-edge
    rows, cols = np.concatenate((dst, lone)), np.concatenate((src, lone))
    vals = np.concatenate((w / totals[..., dst], np.ones(lead + lone.shape)), axis=-1)
    return NormalizedSystem(n, rows, cols, vals, beta)


def graph_to_dict(g: SignedDigraph) -> dict:
    return {
        "n": g.n,
        "agents": [
            {"id": i, "beta": b, "x0": x}
            for i, b, x in zip(range(1, g.n + 1), g.beta.tolist(), g.x0.tolist())
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
    """Read a graph from a JSON file; see graph_to_dict for the schema.

    The file is read once, as bytes, and parsed by orjson. Where orjson
    fails, graph_from_dict fails, or a weight or x0 has magnitude >= 2**64
    (orjson turns integers beyond 64 bits into floats by its own rounding),
    the same bytes go through the standard library instead: a UTF-8 decode
    with universal newlines, as a text-mode read does, then json.loads. Its
    graph or error is returned, so orjson changes no graph and no message.
    The one difference: a valid file with an ignored value nested deeper
    than the standard library's recursion limit loads."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        g = graph_from_dict(orjson.loads(raw))
        if np.all(np.abs(np.concatenate((g.w, g.x0))) < 2.0**64):
            return g
    except (ValueError, RecursionError, SFJError):  # orjson's errors are ValueErrors
        pass
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    return graph_from_dict(data)


def save_graph(g: SignedDigraph, path) -> None:
    """Write g as json.dumps(graph_to_dict(g), indent=2) and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(graph_to_dict(g), indent=2) + "\n")
