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

from .dynamics import OpinionTrace, _influence_solve
from .errors import ConditionsNotMet, NotConverged
from .graph import SignedDigraph, _normalize_adjacency
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
    of every pair, so the groups are the same.
    """
    count = rows.shape[0]
    widest = int(np.argmax(np.ptp(rows, axis=0)))
    # Ties on the widest column are broken by the other columns, so
    # identical rows sit next to each other.
    order = np.lexsort(np.vstack([rows.T, rows[:, widest]]))
    ordered = rows[order]
    keys = ordered[:, widest]
    # Rounding can put a close pair's key gap a few ulps above thresh; the
    # slack keeps every such pair inside the window, where the exact test
    # sees it.
    slack = 8 * np.finfo(float).eps * (np.max(np.abs(keys)) + thresh)
    ends = np.searchsorted(keys, keys + thresh + slack, side="right").tolist()
    # A row identical to the next (distance 0, close unless thresh < 0) is
    # close to exactly the rows the next one is, so joining the two leaves
    # the rest to the next row's sweep.
    same = (np.all(ordered[1:] == ordered[:-1], axis=1) & (thresh >= 0)).tolist()
    uf = _UnionFind(count)
    for a in range(count - 1):
        if same[a]:
            uf.union(a, a + 1)
        elif ends[a] > a + 1:
            gaps = np.max(np.abs(ordered[a + 1:ends[a]] - ordered[a]), axis=1)
            for b in (np.flatnonzero(gaps <= thresh) + (a + 1)).tolist():
                uf.union(a, b)
    groups: dict[int, set[int]] = {}
    for a, i in enumerate(order.tolist()):
        groups.setdefault(uf.find(a), set()).add(i + 1)
    return tuple(
        frozenset(members) for members in sorted(groups.values(), key=min)
    )


def clusters_from_influence(V, tau: float = DEFAULT_TAU) -> tuple[frozenset[int], ...]:
    """Group agents whose influence-matrix rows agree entrywise within tau.

    tau is relative to the largest entry magnitude of V. Closeness is not
    transitive, so borderline rows can chain into one group; cluster_spread
    exposes the resulting diameters. Only V's nonzero columns are compared:
    the rest are zero in every row and add nothing to any distance.
    """
    V = np.asarray(V, dtype=float)
    scale = float(np.max(np.abs(V)))
    nonzero = np.flatnonzero(V.any(axis=0))
    rows = V[:, nonzero] if nonzero.size else V[:, :1]  # all zero: keep one
    return _group_rows(rows, tau * scale if scale > 0 else tau)


def clusters_from_trace(
    trace: OpinionTrace, tau: float = DEFAULT_TAU
) -> tuple[frozenset[int], ...]:
    """Group agents by final opinion. Initial-condition dependent; two
    predicted clusters can coincidentally merge here, never split."""
    if not trace.converged:
        raise NotConverged(trace, "cannot cluster an unconverged trace")
    final = trace.final
    scale = float(np.max(np.abs(final)))
    return _group_rows(final[:, None], tau * scale if scale > 0 else tau)


def cluster_spread(V, clusters) -> float:
    """Largest max-norm diameter of V's rows over the given clusters.

    Within a cluster the widest pair in any column is that column's maximum
    and minimum, so the diameter is the largest column range, exactly.
    """
    V = np.asarray(V, dtype=float)
    worst = 0.0
    for cluster in clusters:
        if len(cluster) > 1:
            rows = V[sorted(v - 1 for v in cluster)]
            worst = max(worst, float(np.max(rows.max(axis=0) - rows.min(axis=0))))
    return worst


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
    (0, 1] for the stubborn agents, recomputes the influence matrix, and
    compares its clusters with the prediction. Requires C1 and C2 up front;
    on inputs violating them nothing is asserted either way, because the
    conditions are sufficient, not necessary. Raises ValueError when trials
    is below one.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    cert = analyze(g)
    if not (cert.covered and cert.cooperative):
        raise ConditionsNotMet(
            f"harness needs C1 and C2; got C1={cert.covered} C2={cert.cooperative}"
        )
    predicted = predict_clusters(cert, mode="strict").clusters

    rng = np.random.default_rng(seed)
    lo, hi = WEIGHT_RANGE
    signs = np.sign([w for _, _, w in g.edges])
    src, dst = g.edge_index
    stubborn = np.array(g.stubborn) - 1

    passes = 0
    worst = 0.0
    first_failure = None
    predicted_key = set(predicted)
    # analyze(g) above certified the topology: its dominator tree raises
    # NoStubbornAgents or UnreachableNodes wherever check_reachability would
    # fail. Every trial keeps the edge set, and 1 - U[0, 1) lies in (0, 1],
    # so it keeps the stubborn set too. The certificate therefore holds for
    # every draw, and each trial builds its system straight from the edge
    # arrays, with influence_matrix's arithmetic but without its gate.
    for trial in range(trials):
        weights = signs * rng.uniform(lo, hi, size=len(g.edges))
        beta = np.zeros(g.n)
        beta[stubborn] = 1.0 - rng.uniform(0.0, 1.0, size=stubborn.size)
        a = np.zeros((g.n, g.n))
        a[dst, src] = weights
        V = _influence_solve(_normalize_adjacency(a, beta), stubborn)
        observed = clusters_from_influence(V, tau)
        spread = cluster_spread(V, predicted)
        worst = max(worst, spread)
        if set(observed) == predicted_key:
            passes += 1
        elif first_failure is None:
            first_failure = TrialFailure(trial, observed)
    return RobustnessReport(
        trials=trials,
        passes=passes,
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
