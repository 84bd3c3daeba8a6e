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


@np.errstate(over="ignore", invalid="ignore")
def _box_components(lo: np.ndarray, hi: np.ndarray, thresh: np.ndarray) -> np.ndarray:
    """Components of boxes lo, hi (k, T, m), boxes a and b of trial t being
    close when max(lo[b] - hi[a], lo[a] - hi[b]) <= thresh[t] in every
    column: the flat index a * T + t of box (a, t)'s component's root. A gap
    past the float range is inf; one between like infinities is NaN, which
    is never close and never cuts.

    Sorted by lo in one column, a group splits wherever the next lo exceeds
    the running maximum of hi by over thresh (rounded subtraction is
    monotone, so no pair across a cut is close), until m columns in a row
    cut nothing. After each round of columns a group whose largest lo less
    smallest hi is at most thresh in every column is a clique; each pair in
    the other groups takes the exact test."""
    k, T, m = lo.shape
    lo, hi = lo.reshape(k * T, m), hi.reshape(k * T, m)
    root = np.arange(k * T)
    live, group = root, root % T  # unsettled boxes, in order of group 0, 1, ...
    limit = thresh[group]
    column = clean = 0
    while live.size and clean < m:
        x, y = lo[live, column], hi[live, column]
        order = np.lexsort((x, group))
        live, group, x, y = live[order], group[order], x[order], y[order]
        # The running maximum of hi, over its ranks shifted apart by group.
        by_y, shift = np.argsort(y), group * live.size
        top = y[by_y[np.maximum.accumulate(shift + np.argsort(by_y)) - shift]]
        cut = (x[1:] - top[:-1] > limit[live[1:]]) & (group[1:] == group[:-1])
        group[1:] += np.cumsum(cut)
        clean = 1 if cut.any() else clean + 1
        column = (column + 1) % m
        sizes = np.bincount(group)
        keep = sizes > 1  # a box alone is its own root
        if column == 0:  # after each round, settle the cliques as well
            starts = np.cumsum(sizes) - sizes
            spread = np.maximum.reduceat(lo[live], starts) - np.minimum.reduceat(hi[live], starts)
            keep = ~(spread <= limit[live[starts], None]).all(axis=1)
            root[live[~keep[group]]] = live[starts][group[~keep[group]]]
        live, group = live[keep[group]], (np.cumsum(keep) - 1)[group[keep[group]]]
    close, ends = [], np.cumsum(np.bincount(group)).tolist()
    for start, end in zip([0] + ends, ends):
        members = live[start:end]
        members_lo, members_hi = lo[members], hi[members]
        step = max(1, dynamics._TRACE_BLOCK // (members.size * m))  # gaps per chunk
        for first in range(start, end, step):
            a = live[first:min(first + step, end)]
            gaps = np.maximum(members_lo - hi[a, None], lo[a, None] - members_hi)
            i, j = np.nonzero(gaps.max(axis=2) <= limit[a, None])
            close.append((a[i], members[j]))
    # Hook each close pair's larger label under the smaller, then relabel.
    a, b = map(np.concatenate, zip(*close)) if close else (live, live)
    while (root[a] != root[b]).any() or (root[root] != root).any():
        np.minimum.at(root, np.maximum(root[a], root[b]), np.minimum(root[a], root[b]))
        root = root[root]
    return root.reshape(k, T)


def _group_rows(rows: np.ndarray, thresh: float) -> tuple[frozenset[int], ...]:
    """Transitive closure of pairwise max-norm closeness; 1-based ids. A run
    of identical rows (close unless thresh < 0) goes in as one row.

    One column is cut where the next sorted value is neither identical nor
    within thresh of the one before. Rounded subtraction is monotone, so no
    pair across a cut is close, and each value is close to the one before
    it within its group: the cuts give the closure exactly. More columns
    go to _box_components as boxes lo = hi, whose gaps are |differences|."""
    order = np.lexsort(rows.T)
    ordered = rows[order]
    first = np.ones(rows.shape[0], dtype=bool)
    first[1:] = ~(np.all(ordered[1:] == ordered[:-1], axis=1) & (thresh >= 0))
    if rows.shape[1] == 1:
        # A difference past the float range is inf, one of two infinities NaN: a cut.
        with np.errstate(over="ignore", invalid="ignore"):
            first[1:] &= ~(np.diff(ordered[:, 0]) <= thresh)
        label = np.cumsum(first) - 1
    else:
        distinct = ordered[first][:, None]
        components = _box_components(distinct, distinct, np.array([thresh]))
        label = components[np.cumsum(first) - 1, 0]
    root = np.empty(rows.shape[0], dtype=np.int64)
    root[order] = label
    groups: dict[int, list[int]] = {}  # in order of each group's smallest id
    for i, r in enumerate(root.tolist(), start=1):
        groups.setdefault(r, []).append(i)
    return tuple(map(frozenset, groups.values()))


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

    V is (n, m), V's stubborn columns as influence_matrix returns them. A
    zero column is not skipped: each costs _box_components one column sweep,
    so V scattered to n×n gives the same groups at several times the cost.
    tau is relative to the largest entry magnitude of V. Closeness is not
    transitive, so borderline rows can chain into one group; the harness's
    worst_spread reports the resulting diameters. The groups are
    _group_rows's: one column is cut between sorted values, more go to
    _box_components.
    """
    V = np.asarray(V, dtype=float)
    return _group_rows(V, _threshold(V, tau))


def clusters_from_trace(
    trace: OpinionTrace, tau: float = DEFAULT_TAU
) -> tuple[frozenset[int], ...]:
    """Group agents by final opinion: clusters_from_influence on one column.
    Initial-condition dependent; two predicted clusters can coincidentally
    merge here, never split."""
    if not trace.converged:
        raise NotConverged(trace, "cannot cluster an unconverged trace")
    return clusters_from_influence(trace.final[:, None], tau)


def _cluster_layout(clusters) -> tuple[np.ndarray, np.ndarray]:
    """0-based rows of the nonempty clusters, one after another, and each start."""
    members = [sorted(c) for c in clusters if c]
    starts = np.cumsum([0] + [len(c) for c in members])[:-1]
    return np.array([v - 1 for c in members for v in c], dtype=int), starts


def _cluster_boxes(V: np.ndarray, order: np.ndarray, starts: np.ndarray):
    """Per-cluster column minima and maxima of V's rows, for _cluster_layout;
    V (n, ..., m), rows first as _level_solve leaves it, gives boxes (k, ..., m)."""
    rows = V[order]  # + 0.0: a tie of 0.0 and -0.0 is +0, however rows lie in memory
    return np.minimum.reduceat(rows, starts) + 0.0, np.maximum.reduceat(rows, starts) + 0.0


def _partition_holds(lo: np.ndarray, hi: np.ndarray, thresh: np.ndarray) -> np.ndarray:
    """Per trial t of boxes lo, hi (k, T, m) and thresholds (T,): True when
    each box's range is at most thresh[t] and no two boxes are close, so the
    rows they bound group exactly as the boxes do; False decides nothing."""
    root = _box_components(lo, hi, thresh)
    alone = (root == np.arange(root.size).reshape(root.shape)).all(axis=0)
    return ((hi - lo).max(axis=0).max(axis=1) <= thresh) & alone


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
    (the rest are zero). Their per-cluster boxes give the spread, each
    trial's threshold and, via _partition_holds, the verdict; a trial they
    cannot settle goes to clusters_from_influence on the same block.
    predict_clusters refuses up front unless C1 and C2 hold
    (ConditionsNotMet); on inputs violating them nothing is asserted either
    way, because the conditions are sufficient, not necessary. Raises
    ValueError when trials < 1.
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
    # analyze(g) certified the topology: its dominator tree raises unless
    # each agent is reached from a stubborn one. Every trial keeps the edge
    # set and, as 1 - U[0, 1) lies in [2**-53, 1], the stubborn set, each
    # 1 - beta below one. So one plan serves every trial, and each block of trials
    # builds its systems as normalize does and solves as influence_matrix
    # does, with no gate. Each trial draws in its own order, as if alone.
    plan = _level_plan(_normalized(g.n, src, dst, g.w, g.beta), stubborn)
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
        # C1 holds, so the clusters cover every agent: the boxes hold each
        # trial's extremes of V, and + 0.0 changes no positive scale.
        settled = _partition_holds(
            mins, maxs, _threshold(np.concatenate((mins, maxs)), tau, axis=(0, 2)))
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
