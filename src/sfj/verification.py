"""Cluster extraction and the randomized-reweighting robustness harness.

Two routes to observed clusters: grouping rows of the influence matrix
(initial-condition independent, the authoritative one) and grouping final
opinions of a single converged run (which can merge clusters whenever two
of them happen to land on the same value). The harness re-draws edge-weight
magnitudes and stubbornness levels and checks that the influence-matrix
clusters never move, which is exactly what the topology-only detection
promises when C1 and C2 hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dynamics
from .dynamics import OpinionTrace, _level_plan, _level_solve
from .errors import NotConverged
from .graph import SignedDigraph, _normalized
from .ltp import analyze, predict_clusters

DEFAULT_TAU = 1e-8
WEIGHT_RANGE = (0.1, 10.0)  # re-draw window; keeps edges away from zero


@dataclass(frozen=True)
class TrialFailure:
    """A reweighting trial whose influence clusters differ from the prediction.

    trial is the 0-based index into the seed's sequence of draws, so rerunning
    the harness with the same seed and trial + 1 trials ends on this draw.
    """

    trial: int
    observed: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class RobustnessReport:
    trials: int
    passes: int
    worst_spread: float
    predicted: tuple[frozenset[int], ...]
    tau: float
    seed: int
    first_failure: Optional[TrialFailure] = None

    @property
    def all_passed(self) -> bool:
        return self.passes == self.trials


class _UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, u):
        while self.parent[u] != u:
            self.parent[u] = self.parent[self.parent[u]]
            u = self.parent[u]
        return u

    def union(self, u, v):
        ru, rv = self.find(u), self.find(v)
        if ru != rv:
            self.parent[rv] = ru


def _group_rows(rows: np.ndarray, thresh: float) -> tuple[frozenset[int], ...]:
    """Transitive closure of pairwise max-norm closeness; 1-based ids.

    Sort-and-sweep: a pair's max-norm distance is at least its gap in any one
    column, so after sorting on the column with the widest range each row
    need only be tested against the rows that follow it within thresh in
    that column. The exact test is the same elementwise arithmetic as a test
    of every pair, so the groups are the same. A run of identical rows
    (distance 0, close unless thresh < 0) is close to exactly the rows its
    first one is, so one row per run is swept and the rest join it.
    """
    widest = int(np.argmax(np.ptp(rows, axis=0)))
    # Ties on the widest column are broken by the other columns, so
    # identical rows sit next to each other; ordered row a is in run[a].
    order = np.lexsort(np.vstack([rows.T, rows[:, widest]]))
    ordered = rows[order]
    first = np.ones(rows.shape[0], dtype=bool)
    first[1:] = ~(np.all(ordered[1:] == ordered[:-1], axis=1) & (thresh >= 0))
    run = np.cumsum(first) - 1
    distinct = ordered[first]
    keys = distinct[:, widest]
    # Rounding can put a close pair's key gap a few ulps above thresh; the
    # slack keeps every such pair inside the window, where the exact test
    # sees it.
    slack = 8 * np.finfo(float).eps * (np.max(np.abs(keys)) + thresh)
    ends = np.searchsorted(keys, keys + thresh + slack, side="right").tolist()
    uf = _UnionFind(keys.size)
    for a in range(keys.size - 1):
        if ends[a] > a + 1:
            gaps = np.max(np.abs(distinct[a + 1:ends[a]] - distinct[a]), axis=1)
            for b in (np.flatnonzero(gaps <= thresh) + (a + 1)).tolist():
                uf.union(a, b)
    groups: dict[int, set[int]] = {}
    for a, i in zip(run.tolist(), order.tolist()):
        groups.setdefault(uf.find(a), set()).add(i + 1)
    return tuple(
        frozenset(members) for members in sorted(groups.values(), key=min)
    )


def _threshold(values, tau: float, axis=None):
    """tau relative to the largest magnitude in values, or tau if all are 0;
    with axis, one threshold per slice left after reducing over it."""
    values = np.asarray(values)
    # max |x| as max(max x, -min x): exact, and no copy of values.
    scale = np.maximum(values.max(axis=axis), -values.min(axis=axis))
    with np.errstate(over="ignore"):  # tau * scale past the float range: inf
        return np.where(scale > 0, tau * scale, tau)


def clusters_from_influence(V, tau: float = DEFAULT_TAU) -> tuple[frozenset[int], ...]:
    """Group agents whose influence-matrix rows agree entrywise within tau.

    tau is relative to the largest entry magnitude of V. Closeness is not
    transitive, so borderline rows can chain into one group; cluster_spread
    exposes the resulting diameters. Only V's nonzero columns are compared:
    the rest are zero in every row and add nothing to any distance.
    """
    V = np.asarray(V, dtype=float)
    nonzero = np.flatnonzero(V.any(axis=0))
    rows = V[:, nonzero] if nonzero.size else V[:, :1]  # all zero: keep one
    return _group_rows(rows, _threshold(V, tau))


def clusters_from_trace(
    trace: OpinionTrace, tau: float = DEFAULT_TAU
) -> tuple[frozenset[int], ...]:
    """Group agents by final opinion. Initial-condition dependent; two
    predicted clusters can coincidentally merge here, never split. Exactly
    _group_rows on one column, as rounded subtraction is monotone: groups
    end where a sorted gap exceeds the threshold."""
    if not trace.converged:
        raise NotConverged(trace, "cannot cluster an unconverged trace")
    final = trace.final
    order = np.argsort(final)
    with np.errstate(over="ignore"):  # a gap past the float range: inf, a cut
        gaps = np.diff(final[order])
    cuts = np.flatnonzero(gaps > _threshold(final, tau)) + 1
    groups = (frozenset(c.tolist()) for c in np.split(order + 1, cuts))
    return tuple(sorted(groups, key=min))


def _cluster_layout(clusters) -> tuple[np.ndarray, np.ndarray]:
    """0-based rows of the nonempty clusters, one after another, and each start."""
    members = [sorted(c) for c in clusters if c]
    starts = np.cumsum([0] + [len(c) for c in members])[:-1]
    return np.array([v - 1 for c in members for v in c], dtype=int), starts


def _cluster_boxes(V: np.ndarray, order: np.ndarray, starts: np.ndarray):
    """Per-cluster column minima and maxima of V's rows, for _cluster_layout;
    V (n, ..., m), rows first as _level_solve leaves it, gives boxes (k, ..., m)."""
    rows = V[order]
    return np.minimum.reduceat(rows, starts), np.maximum.reduceat(rows, starts)


def cluster_spread(V, clusters) -> float:
    """Largest max-norm diameter of V's rows over the given clusters.

    Within a cluster the widest pair in any column is that column's maximum
    and minimum, so the diameter is the largest column range, exactly.
    """
    lo, hi = _cluster_boxes(np.asarray(V, dtype=float), *_cluster_layout(clusters))
    return float((hi - lo).max(initial=0.0))


def _partition_holds(lo: np.ndarray, hi: np.ndarray, thresh: np.ndarray) -> np.ndarray:
    """Per trial t of boxes lo, hi (k, T, m) and thresholds (T,): when True,
    _group_rows(rows, thresh[t]) is exactly the partition of rows whose
    per-cluster column minima and maxima are lo[:, t] and hi[:, t]; False
    decides nothing. Rounded subtraction is monotone: a range at most thresh
    makes a cluster a clique, and boxes over thresh apart in a column share
    no close pair."""
    holds = (hi - lo).max(axis=0).max(axis=1) <= thresh
    # Boxes whose spans in the widest column lie over thresh apart, with
    # _group_rows's slack, separate. Every other pair needs a gap over thresh
    # in some column; holds keeps the bounds finite, so the largest gap decides.
    stack = np.arange(lo.shape[1])
    widest = (hi.max(axis=0) - lo.min(axis=0)).argmax(axis=1)
    keys, reach = lo[:, stack, widest].T, hi[:, stack, widest].T
    top = np.maximum(reach.max(axis=1), -keys.min(axis=1))
    slack = 8 * np.finfo(float).eps * (top + thresh)
    near = keys[:, None, :] <= (reach + thresh[:, None] + slack[:, None])[:, :, None]
    pairs = np.nonzero(np.triu(near & near.transpose(0, 2, 1), 1) & holds[:, None, None])
    # Pairs go in chunks of at most _TRACE_BLOCK gaps, so memory stays bounded.
    step = max(1, dynamics._TRACE_BLOCK // lo.shape[2])
    for i in range(0, pairs[0].size, step):
        t, a, b = (p[i:i + step] for p in pairs)
        gaps = np.maximum(lo[b, t] - hi[a, t], lo[a, t] - hi[b, t]).max(axis=1)
        holds[t[gaps <= thresh[t]]] = False
    return holds


def refines(finer, coarser) -> bool:
    """True when every set of `finer` is contained in some set of `coarser`."""
    return all(any(f <= c for c in coarser) for f in finer)


def robustness_harness(
    g: SignedDigraph,
    trials: int = 200,
    seed: int = 0,
    tau: float = DEFAULT_TAU,
) -> RobustnessReport:
    """Re-draw weights and stubbornness; the predicted partition must survive.

    Each trial keeps the topology and every edge sign, draws fresh weight
    magnitudes uniformly from WEIGHT_RANGE and fresh stubbornness levels in
    (0, 1] for the stubborn agents, and solves for V's m stubborn columns
    (the rest are zero). Their per-cluster boxes give the spread and, via
    _partition_holds, the verdict; a trial they cannot settle goes to
    clusters_from_influence on the same block. predict_clusters refuses up
    front unless C1 and C2 hold (ConditionsNotMet); on inputs violating them
    nothing is asserted either way, because the conditions are sufficient,
    not necessary. Raises ValueError when trials < 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    predicted = predict_clusters(analyze(g), mode="strict").clusters

    rng = np.random.default_rng(seed)
    lo, hi = WEIGHT_RANGE
    signs = np.sign(g.w)
    src, dst = g.edge_index
    stubborn = np.array(g.stubborn) - 1

    order, starts = _cluster_layout(predicted)
    # Boxes settle trials only for a prediction that partitions every agent.
    partition = np.array_equal(np.sort(order), np.arange(g.n))
    # analyze(g) certified the topology: its dominator tree raises wherever
    # check_reachability would fail. Every trial keeps the edge set and, as
    # 1 - U[0, 1) lies in (0, 1], the stubborn set, so one plan serves every
    # trial, and each block of trials builds its systems as normalize does
    # and solves as influence_matrix does, with no gate. Each trial draws in
    # its own order, as if alone.
    plan = _level_plan(_normalized(g.n, src, dst, g.w, np.array(g.beta)), stubborn)
    per_block = max(1, dynamics._TRACE_BLOCK // plan.footprint)
    # The solve leaves V's rows in slot order; the boxes gather them by cluster.
    rows = plan.slot_of[order]
    failures = 0
    worst = 0.0
    first_failure = None
    for done in range(0, trials, per_block):
        count = min(per_block, trials - done)
        # One draw per block: trial t's row holds its weights, then its betas,
        # as uniform(lo, hi) and uniform(0, 1) would give them one trial at a
        # time (both compute low + (high - low) u).
        u = rng.random((count, signs.size + stubborn.size))
        beta = np.zeros((count, g.n))
        beta[:, stubborn] = 1.0 - u[:, signs.size:]
        sysm = _normalized(g.n, src, dst, signs * (lo + (hi - lo) * u[:, :signs.size]), beta)
        block = _level_solve(plan, sysm)
        mins, maxs = _cluster_boxes(block, rows, starts)
        worst = max(worst, *(maxs - mins).max(axis=0).max(axis=1).tolist())
        settled = np.zeros(count, dtype=bool)
        if partition:
            # Each trial's extremes, over the slots first: whole rows at a time.
            extremes = np.concatenate((block.max(axis=0), block.min(axis=0)), axis=1)
            settled[:] = _partition_holds(mins, maxs, _threshold(extremes, tau, axis=1))
        for t in np.flatnonzero(~settled).tolist():
            observed = clusters_from_influence(block[plan.slot_of, t], tau)
            if set(observed) != set(predicted):
                failures += 1
                first_failure = first_failure or TrialFailure(done + t, observed)
        del block  # freed before the next block is solved
    return RobustnessReport(
        trials=trials,
        passes=trials - failures,
        worst_spread=worst,
        predicted=predicted,
        tau=tau,
        seed=seed,
        first_failure=first_failure,
    )


def robustness_report_to_dict(report: RobustnessReport) -> dict:
    failure = report.first_failure
    return {
        "trials": report.trials,
        "passes": report.passes,
        "worst_spread": report.worst_spread,
        "predicted": [sorted(c) for c in report.predicted],
        "first_failure": None if failure is None else {
            "trial": failure.trial,
            "observed": [sorted(c) for c in failure.observed],
        },
    }
