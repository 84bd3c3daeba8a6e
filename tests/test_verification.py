import tracemalloc
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfj import (
    ConditionsNotMet,
    dynamics,
    normalize,
    NotConverged,
    analyze,
    clusters_from_influence,
    clusters_from_trace,
    influence_matrix,
    networks,
    predict_clusters,
    random_multiconsensus_graph,
    refines,
    robustness_harness,
    simulate,
    verification,
)
from sfj.dynamics import OpinionTrace
from sfj.graph import Edge, SignedDigraph
from sfj.verification import (
    _box_components,
    _cluster_boxes,
    _cluster_layout,
    _group_rows,
    _partition_holds,
    _threshold,
)

from conftest import merge_when_agent_7_leads_agent_1, settle_nothing
from oracles import dense_influence, reweighted


def pairwise_group_rows(rows, thresh):
    """Reference grouping: test every pair, then take the transitive closure.
    Identical rows are close unless thresh < 0, rows of infinities too, whose
    differences are NaN. The pairs (i, j) go a few rows i at a time, about
    2**18 gaps each."""
    k = rows.shape[0]
    graph = nx.Graph()
    graph.add_nodes_from(range(1, k + 1))
    step = max(1, 2**18 // rows.size)
    for a in range(0, k, step):
        with np.errstate(over="ignore", invalid="ignore"):
            gaps = np.abs(rows[a:a + step, None] - rows).max(axis=2)
        same = (rows[a:a + step, None] == rows).all(axis=2) & (thresh >= 0)
        i, j = np.nonzero((gaps <= thresh) | same)
        i += a
        graph.add_edges_from(zip((i[i < j] + 1).tolist(), (j[i < j] + 1).tolist()))
    return tuple(sorted(map(frozenset, nx.connected_components(graph)), key=min))


def pairwise_cluster_spread(V, clusters):
    """Reference spread: the largest max-norm distance over every pair."""
    worst = 0.0
    for cluster in clusters:
        idx = sorted(v - 1 for v in cluster)
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                worst = max(worst, float(np.max(np.abs(V[idx[a]] - V[idx[b]]))))
    return worst


def sweep_partition_holds(lo, hi, thresh):
    """Reference box verdict for one trial's boxes lo, hi (k, m): the
    sort-and-sweep the stacked verdict must agree with."""
    if not (hi - lo).max() <= thresh:
        return False
    widest = int((hi.max(axis=0) - lo.min(axis=0)).argmax())
    order = lo[:, widest].argsort()
    keys, reach = lo[order, widest], hi[order, widest]
    slack = 8 * np.finfo(float).eps * (max(reach.max(), -keys[0]) + thresh)
    ends = keys.searchsorted(reach + thresh + slack, side="right")
    for i, end in enumerate(ends.tolist()):
        for j in range(i + 1, end):
            a, b = order[i], order[j]
            gaps = np.maximum(lo[b] - hi[a], lo[a] - hi[b])
            if not (gaps > thresh).any():
                return False
    return True


def loop_influence(g, trials, seed):
    """Each trial's influence matrix: the graph reweighted and run through the
    gated influence_matrix, drawing in the same order as robustness_harness."""
    rng = np.random.default_rng(seed)
    lo, hi = verification.WEIGHT_RANGE
    signs = np.sign([w for _, _, w in g.edges])
    stubborn_rows = [i - 1 for i in g.stubborn]
    for _ in range(trials):
        weights = signs * rng.uniform(lo, hi, size=len(g.edges))
        beta = np.zeros(g.n)
        beta[stubborn_rows] = 1.0 - rng.uniform(0.0, 1.0, size=len(stubborn_rows))
        yield influence_matrix(reweighted(g, weights, beta=beta))


def spread_ratios(g, trials, seed):
    """Each loop_influence trial's predicted-cluster spread over its largest
    magnitude, sorted: a tau between two of them splits the trials."""
    predicted = predict_clusters(analyze(g), mode="strict").clusters
    return sorted(pairwise_cluster_spread(V, predicted) / np.abs(V).max()
                  for V in loop_influence(g, trials, seed))


def loop_harness(g, trials, seed, tau=verification.DEFAULT_TAU):
    """Reference harness: loop_influence's trials, each clustered in full."""
    predicted = predict_clusters(analyze(g), mode="strict").clusters
    passes, worst, first_failure = 0, 0.0, None
    for trial, V in enumerate(loop_influence(g, trials, seed)):
        observed = verification.clusters_from_influence(V, tau)
        worst = max(worst, pairwise_cluster_spread(V, predicted))
        if set(observed) == set(predicted):
            passes += 1
        elif first_failure is None:
            first_failure = verification.TrialFailure(trial, observed)
    return verification.RobustnessReport(
        trials=trials, passes=passes, worst_spread=worst, predicted=predicted,
        tau=tau, seed=seed, first_failure=first_failure,
    )


THRESHOLDS = (-0.1, 0.0, 1e-8, 0.1, 0.3, 0.7)  # below 0, no two rows are close


@st.composite
def row_sets(draw):
    """Rows built from a few base rows plus offsets of 0, thresh or a few ulps.

    That gives exact ties, duplicate rows and gaps that sit exactly at, or
    round to either side of, the threshold. Single rows and one-column input
    are drawn too.
    """
    thresh = draw(st.sampled_from(THRESHOLDS))
    count = draw(st.integers(1, 25))
    width = draw(st.integers(1, 4))
    value = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    bases = draw(st.lists(st.lists(value, min_size=width, max_size=width),
                          min_size=1, max_size=4))
    offsets = st.sampled_from((0.0, -0.0, thresh, -thresh, 2 * thresh,
                               thresh * (1 + 1e-16), 1e-15, 1e-9))
    rows = [
        [b + draw(offsets) for b in draw(st.sampled_from(bases))]
        for _ in range(count)
    ]
    return np.array(rows, dtype=float), thresh


class TestInfluenceClusters:
    def test_identity_gives_singletons(self):
        clusters = clusters_from_influence(np.eye(4))
        assert clusters == tuple(frozenset({i}) for i in (1, 2, 3, 4))

    def test_identical_rows_share_a_cluster(self):
        v = np.array([[0.2, 0.8], [0.2, 0.8]])
        assert clusters_from_influence(v) == (frozenset({1, 2}),)

    def test_g2_has_exactly_four(self, g2):
        clusters = clusters_from_influence(influence_matrix(g2))
        assert set(clusters) == {
            frozenset({1, 2, 3}),
            frozenset({4, 5, 6}),
            frozenset({7, 8, 9}),
            frozenset({10, 11, 12}),
        }

    def test_borderline_rows_chain_into_one_cluster(self):
        # closeness is not transitive: 1~2 and 2~3 but not 1~3 directly
        v = np.array([[0.0, 1.0], [0.9e-8, 1.0], [1.8e-8, 1.0]])
        clusters = clusters_from_influence(v, tau=1e-8)
        assert clusters == (frozenset({1, 2, 3}),)
        assert pairwise_cluster_spread(v, clusters) == pytest.approx(1.8e-8)


class TestSortAndSweepGrouping:
    @settings(max_examples=400, deadline=None)
    @given(row_sets())
    def test_equals_the_pairwise_closure(self, case):
        rows, thresh = case
        assert _group_rows(rows, thresh) == pairwise_group_rows(rows, thresh)

    @settings(max_examples=200, deadline=None)
    @given(row_sets())
    def test_spread_equals_the_pairwise_maximum_exactly(self, case):
        rows, thresh = case
        clusters = pairwise_group_rows(rows, thresh + 0.5)
        lo, hi = _cluster_boxes(rows, *_cluster_layout(clusters))
        assert float((hi - lo).max()) == pairwise_cluster_spread(rows, clusters)

    def test_gap_that_rounds_to_thresh_still_joins(self):
        # 0.7 below the second key lies one ulp above first + 0.7, yet the
        # computed gap is exactly 0.7, so the pair is close.
        rows = np.array([[-0.8065009344595016], [-0.10650093445950157]])
        assert rows[1, 0] > rows[0, 0] + 0.7
        assert rows[1, 0] - rows[0, 0] <= 0.7
        assert _group_rows(rows, 0.7) == (frozenset({1, 2}),)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=30),
           st.sampled_from(THRESHOLDS + (np.inf,)))
    @example([1.7e308, -1.7e308, 0.0], np.inf)
    @example([1.7e308, -1.7e308, 0.0], 0.7)
    @example([np.inf, np.inf, -np.inf, np.nan, np.nan], 0.0)
    @example([np.inf, np.inf, -np.inf, np.nan, np.nan], -0.1)
    @example([-0.0, 0.0, 5e-324, -5e-324, 1e-8, 2e-8], 1e-8)
    def test_one_column_equals_the_pairwise_closure(self, values, thresh):
        # st.floats() draws NaN, infinities, both zeros, subnormals and
        # values near the float maximum, whose differences overflow.
        x = np.array(values)
        assert _group_rows(x[:, None], thresh) == pairwise_group_rows(x[:, None], thresh)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda m: st.lists(
               st.lists(st.floats(), min_size=m, max_size=m), min_size=1, max_size=20)),
           st.sampled_from(THRESHOLDS + (np.inf,)))
    @example([[np.inf, 0.0], [np.inf, 1.0]], 0.5)
    @example([[-np.inf, 0.0, 1.0], [-np.inf, 0.0, 1.0], [-np.inf, 0.5, 1.0]], np.inf)
    @example([[1.7e308, 0.0], [-1.7e308, 0.0], [0.0, 5e-324]], np.inf)
    @example([[np.nan, 0.0], [np.nan, 0.0], [np.inf, np.nan]], 0.7)
    def test_boxes_equal_the_pairwise_closure_on_any_floats(self, values, thresh):
        # Rows of two or more columns go to _box_components as boxes; a
        # shared infinity makes a NaN gap there, and NaN is never close.
        rows = np.array(values)
        assert _group_rows(rows, thresh) == pairwise_group_rows(rows, thresh)

    def test_only_rows_of_two_or_more_columns_reach_the_boxes(self, monkeypatch):
        calls = []

        def recording(lo, hi, thresh):
            calls.append(lo.shape)
            return _box_components(lo, hi, thresh)

        monkeypatch.setattr(verification, "_box_components", recording)
        x = np.array([1.0, 0.0, 1.02, 5.0, 0.05, 0.0])
        expected = (frozenset({1, 3}), frozenset({2, 5, 6}), frozenset({4}))
        trace = OpinionTrace(states=x[None], converged=True, iterations=0, residual=0.0)
        assert clusters_from_trace(trace, 0.02) == expected
        assert _group_rows(x[:, None], 0.1) == expected
        assert calls == []
        # Zero columns are columns too: they reach the boxes, and cut nothing.
        v = np.zeros((6, 3))
        v[:, 1] = x
        assert clusters_from_influence(v, 0.02) == expected
        assert calls == [(5, 1, 3)]
        assert _group_rows(np.column_stack((x, -x)), 0.1) == expected
        assert calls == [(5, 1, 3), (5, 1, 2)]

    def test_one_row_per_run_of_identical_rows_is_swept(self, monkeypatch):
        sizes = []

        def recording(lo, hi, thresh):
            sizes.append(lo.shape[0])
            return _box_components(lo, hi, thresh)

        monkeypatch.setattr(verification, "_box_components", recording)
        rows = np.tile([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]], (40, 1))
        expected = tuple(frozenset(range(j, 121, 3)) for j in (1, 2, 3))
        assert _group_rows(rows, 0.1) == expected == pairwise_group_rows(rows, 0.1)
        assert sizes == [3]
        # Below 0 not even identical rows are close: every row is its own run.
        assert _group_rows(rows, -0.1) == tuple(frozenset({i}) for i in range(1, 121))
        assert sizes == [3, 120]

    def test_zero_columns_are_ignored(self):
        v = np.array([[0.0, 0.5, 0.0, 0.5], [0.0, 0.5, 0.0, 0.5], [0.0, 1.0, 0.0, 0.0]])
        assert clusters_from_influence(v) == (frozenset({1, 2}), frozenset({3}))
        assert clusters_from_influence(np.zeros((3, 3))) == (frozenset({1, 2, 3}),)

    @pytest.mark.parametrize("size", [None, (300, 15), (2000, 100)], ids=["g2", "300", "2000"])
    def test_zero_columns_leave_the_clusters_unchanged(self, g2, size):
        # dense_influence is V in full, with its n - m zero columns, which
        # clusters_from_influence compares as it does the others: a zero
        # column adds 0 to every gap and changes no threshold.
        g = g2 if size is None else random_multiconsensus_graph(*size, seed=1)
        assert clusters_from_influence(dense_influence(g)) == clusters_from_influence(
            influence_matrix(g))

    def test_influence_clusters_match_the_oracle_on_a_generated_network(self):
        v = influence_matrix(random_multiconsensus_graph(300, 15, seed=4))
        thresh = 1e-8 * float(np.max(np.abs(v)))
        assert clusters_from_influence(v) == pairwise_group_rows(v, thresh)


def box_certificate(rows, partition, thresh):
    """The harness's fast verdict on a partition of rows' 1-based ids."""
    lo, hi = _cluster_boxes(rows, *_cluster_layout(partition))
    return bool(_partition_holds(lo[:, None], hi[:, None], np.array([thresh]))[0])


@st.composite
def rows_and_partition(draw):
    """A row_sets case with the true grouping, a merge of two of its groups,
    a split of one, or a random partition."""
    rows, thresh = draw(row_sets())
    parts = [sorted(c) for c in _group_rows(rows, thresh)]
    kind = draw(st.sampled_from(("true", "merge", "split", "random")))
    if kind == "merge" and len(parts) > 1:
        i, j = draw(st.lists(st.integers(0, len(parts) - 1), min_size=2,
                             max_size=2, unique=True))
        parts = [c for k, c in enumerate(parts) if k not in (i, j)] + [parts[i] + parts[j]]
    elif kind == "split" and any(len(c) > 1 for c in parts):
        k = draw(st.sampled_from([k for k, c in enumerate(parts) if len(c) > 1]))
        members = draw(st.permutations(parts.pop(k)))
        cut = draw(st.integers(1, len(members) - 1))
        parts += [members[:cut], members[cut:]]
    elif kind == "random":
        labels = draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)))
        parts = [[i + 1 for i, x in enumerate(labels) if x == label]
                 for label in set(labels)]
    return rows, thresh, tuple(frozenset(c) for c in parts)


class TestBoxCertificate:
    @settings(max_examples=600, deadline=None)
    @given(rows_and_partition())
    def test_a_certified_partition_is_the_grouping(self, case):
        rows, thresh, partition = case
        if box_certificate(rows, partition, thresh):
            assert set(_group_rows(rows, thresh)) == set(partition)

    @settings(max_examples=300, deadline=None)
    @given(rows_and_partition(), st.data())
    def test_stacked_verdicts_equal_the_per_slice_calls(self, case, data):
        # Each trial reorders the rows under the same layout and takes its
        # own threshold, so boxes, windows and verdicts differ across the
        # stack, which is slots first (n, T, m) as the level solve leaves V.
        rows, thresh, partition = case
        trials = data.draw(st.integers(1, 5))
        stack = np.stack([rows] + [
            rows[data.draw(st.permutations(range(len(rows))))] for _ in range(trials - 1)
        ], axis=1)
        thresholds = np.array(
            [thresh] + data.draw(st.lists(st.sampled_from(THRESHOLDS + (thresh,)),
                                          min_size=trials - 1, max_size=trials - 1))
        )
        layout = _cluster_layout(partition)
        lo, hi = _cluster_boxes(stack, *layout)
        for t in range(trials):
            assert [a.tobytes() for a in _cluster_boxes(stack[:, t], *layout)] == [
                lo[:, t].tobytes(), hi[:, t].tobytes()]
        stacked = _partition_holds(lo, hi, thresholds)
        assert stacked.shape == (trials,) and stacked.dtype == bool
        per_slice = [_partition_holds(lo[:, t:t + 1], hi[:, t:t + 1], thresholds[t:t + 1])[0]
                     for t in range(trials)]
        assert stacked.tolist() == per_slice == [
            sweep_partition_holds(lo[:, t], hi[:, t], thresholds[t]) for t in range(trials)]
        with mock.patch.object(dynamics, "_TRACE_BLOCK", 1):  # one row's gaps at a time
            assert _partition_holds(lo, hi, thresholds).tolist() == per_slice

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_box_thresholds_equal_the_thresholds_of_v(self, data):
        # The harness reads each trial's threshold off the boxes of a
        # partition of every agent; V's own extremes give the same bits,
        # signed zeros, ties, inf and NaN included.
        n, trials, m = (data.draw(st.integers(1, 5)) for _ in range(3))
        value = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, np.inf,
                                           -np.inf, np.nan]), st.floats())
        V = np.array(data.draw(st.lists(value, min_size=n * trials * m,
                                        max_size=n * trials * m))).reshape(n, trials, m)
        labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        partition = [frozenset(i + 1 for i, x in enumerate(labels) if x == label)
                     for label in set(labels)]
        mins, maxs = _cluster_boxes(V, *_cluster_layout(partition))
        tau = data.draw(st.sampled_from([1e-8, 0.5, 2.0]))
        from_boxes = _threshold(np.concatenate((mins, maxs)), tau, axis=(0, 2))
        from_v = _threshold(np.concatenate((V.max(axis=0), V.min(axis=0)), axis=1), tau, axis=1)
        assert from_boxes.shape == (trials,)
        assert from_boxes.tobytes() == from_v.tobytes()

    def test_range_and_gap_at_thresh_are_certified(self):
        # {1, 2} spans exactly 0.7 and sits 0.8 below agent 3.
        rows = np.array([[0.0, 5.0], [0.7, 5.0], [1.5, 5.0]])
        assert box_certificate(rows, (frozenset({1, 2}), frozenset({3})), 0.7)
        assert box_certificate(rows[:2], (frozenset({1, 2}),), 0.7)

    def test_overlapping_boxes_are_not_separated(self):
        # Agent 3 is within 0.6 of agent 2, though 1.1 from agent 1.
        rows = np.array([[0.0], [0.5], [1.1]])
        assert not box_certificate(rows, (frozenset({1, 2}), frozenset({3})), 0.7)
        assert box_certificate(rows, (frozenset({1, 2, 3}),), 1.1)

    def test_gap_that_rounds_to_thresh_is_not_a_separation(self):
        # The computed gap is exactly 0.7 (see the sort-and-sweep test), though
        # the second key lies one ulp above first + 0.7.
        rows = np.array([[-0.8065009344595016], [-0.10650093445950157]])
        assert not box_certificate(rows, (frozenset({1}), frozenset({2})), 0.7)

    def test_negative_thresh_certifies_nothing(self):
        rows = np.array([[0.0], [1.0]])
        assert not box_certificate(rows, (frozenset({1}), frozenset({2})), -0.1)

    @pytest.mark.parametrize("n, trials", [(64, 20), (200, 20), (1000, 5)])
    def test_passing_trials_never_regroup(self, n, trials, monkeypatch):
        def regroup(V, tau=verification.DEFAULT_TAU):
            raise AssertionError("the boxes did not settle a passing trial")

        monkeypatch.setattr(verification, "clusters_from_influence", regroup)
        g = random_multiconsensus_graph(n, n // 20, seed=n)
        report = robustness_harness(g, trials=trials, seed=n)
        assert report.passes == report.trials == trials

    @pytest.mark.parametrize("n", [12, 64, 200, 1000])
    def test_strict_prediction_partitions_every_agent(self, g2, n):
        # The harness's box verdict reads the prediction as a partition of
        # all agents: C1 puts each in a persuaded set, and those are disjoint.
        g = g2 if n == 12 else random_multiconsensus_graph(n, n // 20, seed=n)
        order, _ = _cluster_layout(predict_clusters(analyze(g), mode="strict").clusters)
        assert sorted(order.tolist()) == list(range(g.n))


def pairwise_box_components(lo, hi, thresh):
    """Reference components of one trial's boxes lo, hi (k, m): test every
    pair's gaps, then take the connected components; 1-based ids."""
    graph = nx.Graph()
    graph.add_nodes_from(range(1, lo.shape[0] + 1))
    graph.add_edges_from(
        (a + 1, b + 1)
        for a in range(lo.shape[0]) for b in range(a + 1, lo.shape[0])
        if np.max(np.maximum(lo[b] - hi[a], lo[a] - hi[b])) <= thresh
    )
    return tuple(sorted(map(frozenset, nx.connected_components(graph)), key=min))


def component_sets(root):
    """The partition of boxes (1-based) that one trial's roots (k,) name."""
    groups = {}
    for a, r in enumerate(root.tolist(), start=1):
        groups.setdefault(r, set()).add(a)
    return tuple(sorted(map(frozenset, groups.values()), key=min))


@st.composite
def box_sets(draw):
    """Boxes around row_sets' rows: hi is lo plus 0, a few ulps, thresh or
    more, so boxes tie, nest, touch at thresh and overlap."""
    rows, thresh = draw(row_sets())
    widths = st.sampled_from((0.0, 0.0, 1e-15, abs(thresh), 2 * abs(thresh), 0.05))
    width = np.array([[draw(widths) for _ in range(rows.shape[1])] for _ in rows])
    return rows, rows + width, thresh


class TestComponents:
    """_box_components, the routine behind the box verdict and _group_rows
    on two or more columns, against the pairwise oracles; one column,
    which _group_rows cuts between sorted values, alongside."""

    def test_projection_chain(self):
        # Agents 2 and 3 are within 1 of each other in both columns, agent 1
        # is within 1 of neither, though no single column shows it.
        rows = np.array([[0.0, 0.0], [0.9, 1.8], [1.8, 0.9]])
        expected = (frozenset({1}), frozenset({2, 3}))
        assert _group_rows(rows, 1.0) == pairwise_group_rows(rows, 1.0) == expected
        # The box of {2, 3} spans 0.9..1.8 in each column, within 1 of agent
        # 1's point: the boxes cannot certify the grouping, which is sound.
        lo, hi = _cluster_boxes(rows, *_cluster_layout(expected))
        assert box_certificate(rows, expected, 1.0) == sweep_partition_holds(lo, hi, 1.0)
        assert not box_certificate(rows, expected, 1.0)
        assert component_sets(_box_components(lo[:, None], hi[:, None], np.array([1.0]))[:, 0]) \
            == pairwise_box_components(lo, hi, 1.0) == (frozenset({1, 2}),)
        singletons = tuple(frozenset({i}) for i in (1, 2, 3))
        assert box_certificate(rows, singletons, 1.0) == sweep_partition_holds(rows, rows, 1.0)
        assert not box_certificate(rows, singletons, 1.0)

    def test_chain_wider_than_thresh_is_one_group(self):
        # Neighbours are 0.5 apart and the chain spans 19.5.
        rows = np.arange(0.0, 20.0, 0.5)[:, None]
        expected = (frozenset(range(1, 41)),)
        assert _group_rows(rows, 0.6) == pairwise_group_rows(rows, 0.6) == expected
        # Two rows per box: each box is 0.5 from the next, so all chain.
        lo, hi = rows[::2], rows[1::2]
        assert not _partition_holds(lo[:, None], hi[:, None], np.array([0.6]))[0]
        assert not sweep_partition_holds(lo, hi, 0.6)
        assert component_sets(_box_components(lo[:, None], hi[:, None], np.array([0.6]))[:, 0]) \
            == pairwise_box_components(lo, hi, 0.6) == (frozenset(range(1, 21)),)

    def test_long_one_column_chains(self):
        # Steps of 0.5 to 0.65 at thresh 0.6: 10,000 rows in long chains,
        # each row within thresh of its neighbours only. Sorted, each chain
        # is a run of values no cut splits, so no pair is tested.
        rng = np.random.default_rng(0)
        rows = np.cumsum(0.5 + rng.uniform(0.0, 0.15, 10_000))[rng.permutation(10_000), None]
        groups = _group_rows(rows, 0.6)
        assert groups == pairwise_group_rows(rows, 0.6)
        assert 1 < len(groups) < 5_000

    def test_one_column_chains_through_nan(self):
        # A NaN row is close to nothing, though no cut separates it.
        rows = np.array([[0.0], [np.nan], [0.5], [1.0], [np.nan], [1.5], [3.0]])
        expected = (frozenset({1, 3, 4, 6}), frozenset({2}), frozenset({5}), frozenset({7}))
        assert _group_rows(rows, 0.6) == pairwise_group_rows(rows, 0.6) == expected
        roots = _box_components(rows[:, None], rows[:, None] + 0.1, np.array([0.45]))[:, 0]
        assert component_sets(roots) == pairwise_box_components(rows, rows + 0.1, 0.45)

    @pytest.mark.parametrize("thresh", [-0.1, 0.0, 0.3])
    def test_identical_boxes(self, thresh):
        lo = np.tile([[0.2, 0.4]], (6, 1))
        hi = lo + np.array([0.0, 0.1])
        roots = _box_components(lo[:, None], hi[:, None], np.array([thresh]))[:, 0]
        assert component_sets(roots) == pairwise_box_components(lo, hi, thresh)
        verdict = _partition_holds(lo[:, None], hi[:, None], np.array([thresh]))[0]
        assert verdict == sweep_partition_holds(lo, hi, thresh)
        assert not verdict
        assert _group_rows(lo, thresh) == pairwise_group_rows(lo, thresh)

    @pytest.mark.parametrize("thresh", [-0.1, 0.0, 0.5])
    @pytest.mark.parametrize("k, m", [(1, 1), (1, 3), (5, 1)])
    def test_negative_thresh_one_box_one_column(self, k, m, thresh):
        rows = np.random.default_rng(k * 10 + m).uniform(0, 2, (k, m))
        hi = rows + 0.25
        roots = _box_components(rows[:, None], hi[:, None], np.array([thresh]))[:, 0]
        assert component_sets(roots) == pairwise_box_components(rows, hi, thresh)
        assert _partition_holds(rows[:, None], hi[:, None], np.array([thresh]))[0] \
            == sweep_partition_holds(rows, hi, thresh)
        assert _group_rows(rows, thresh) == pairwise_group_rows(rows, thresh)

    @settings(max_examples=400, deadline=None)
    @given(box_sets())
    def test_drawn_boxes_equal_the_pairwise_components(self, case):
        lo, hi, thresh = case
        roots = _box_components(lo[:, None], hi[:, None], np.array([thresh]))
        assert roots.shape == (lo.shape[0], 1)
        assert component_sets(roots[:, 0]) == pairwise_box_components(lo, hi, thresh)
        assert _partition_holds(lo[:, None], hi[:, None], np.array([thresh])).tolist() \
            == [sweep_partition_holds(lo, hi, thresh)]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(box_sets(), min_size=1, max_size=4))
    def test_stacked_trials_equal_one_trial_at_a_time(self, cases):
        # Trials of one stack share k and m: each trial is the first k rows
        # and m columns of its case, k and m the smallest over the cases.
        k = min(lo.shape[0] for lo, _, _ in cases)
        m = min(lo.shape[1] for lo, _, _ in cases)
        lo = np.stack([c[0][:k, :m] for c in cases], axis=1)
        hi = np.stack([c[1][:k, :m] for c in cases], axis=1)
        thresh = np.array([c[2] for c in cases])
        stacked = _box_components(lo, hi, thresh)
        T = len(cases)
        assert (stacked % T == np.arange(T)).all()  # roots stay in their trial
        for t in range(T):
            alone = _box_components(lo[:, t:t + 1], hi[:, t:t + 1], thresh[t:t + 1])[:, 0]
            assert component_sets(stacked[:, t] // T) == component_sets(alone) \
                == pairwise_box_components(lo[:, t], hi[:, t], thresh[t])
        assert _partition_holds(lo, hi, thresh).tolist() == [
            sweep_partition_holds(lo[:, t], hi[:, t], thresh[t]) for t in range(T)]

    @staticmethod
    def sparse_boxes(k, m, seed):
        """k boxes like a large run's clusters: each hears from three of m
        stubborn agents, so almost every entry is exactly 0."""
        rng = np.random.default_rng(seed)
        lo = np.zeros((k, m))
        for a in range(k):
            lo[a, rng.choice(m, 3, replace=False)] = rng.uniform(0.01, 1.0, 3)
        return lo, lo + rng.uniform(0.0, 1e-12, (k, m)) * (lo > 0)

    def test_sparse_boxes_verdict_peaks_near_the_boxes(self):
        lo, hi = self.sparse_boxes(1000, 346, seed=0)
        # No two boxes hear from the same three agents, so each pair has a
        # column where one box is 0 and the other at least 0.01: all apart.
        assert len({tuple(np.flatnonzero(row)) for row in lo}) == 1000
        lo, hi = lo[:, None], hi[:, None]
        tracemalloc.start()
        try:
            holds = _partition_holds(lo, hi, np.array([1e-8]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert holds.tolist() == [True]
        assert peak < 2 * lo.nbytes


class TestTraceClusters:
    def test_fully_stubborn_clusters_are_level_sets_of_x0(self):
        g = SignedDigraph(
            4, (), (1.0, 1.0, 1.0, 1.0), (2.0, 5.0, 2.0, 7.0)
        )
        clusters = clusters_from_trace(simulate(g))
        assert set(clusters) == {
            frozenset({1, 3}),
            frozenset({2}),
            frozenset({4}),
        }

    def test_constant_start_on_cooperative_graph_reaches_consensus(self):
        g = SignedDigraph(
            3,
            (Edge(1, 2, 1.0), Edge(2, 3, 2.0)),
            (0.7, 0.0, 0.0),
            (4.0, 4.0, 4.0),
        )
        assert clusters_from_trace(simulate(g)) == (frozenset({1, 2, 3}),)

    def test_trace_clusters_refine_into_influence_clusters(self, g2):
        rng = np.random.default_rng(67)
        v_clusters = clusters_from_influence(influence_matrix(g2))
        for _ in range(10):
            shuffled = SignedDigraph(
                g2.n, g2.edges, g2.beta, tuple(rng.uniform(0, 10, g2.n))
            )
            t_clusters = clusters_from_trace(simulate(shuffled))
            assert refines(v_clusters, t_clusters)

    def test_a_threshold_past_the_float_range_is_infinite(self):
        # tau times the largest magnitude overflows to inf: every gap is close.
        final = np.array([10.0, 10.5, 9.0, 12.0])
        trace = OpinionTrace(states=final[None, :], converged=True, iterations=0,
                             residual=0.0)
        assert clusters_from_trace(trace, 1e308) == (frozenset({1, 2, 3, 4}),)

    def test_unconverged_trace_rejected(self):
        trace = OpinionTrace(
            states=np.zeros((3, 2)), converged=False, iterations=2, residual=1.0
        )
        with pytest.raises(NotConverged):
            clusters_from_trace(trace)


@st.composite
def final_opinions(draw):
    """One column of a row_sets case, with signed zeros and one-ulp neighbours
    mixed in, and a tau that puts the threshold below zero, at zero, near
    row_sets' threshold or near one of the sorted gaps."""
    rows, thresh = draw(row_sets())
    values = rows[:, 0].tolist()
    for _ in range(draw(st.integers(0, 4))):
        v = draw(st.sampled_from(values + [0.0, -0.0]))
        values.append(draw(st.sampled_from((v, -v, np.nextafter(v, np.inf),
                                            np.nextafter(v, -np.inf)))))
    final = np.array(draw(st.permutations(values)))
    scale = float(np.max(np.abs(final))) or 1.0
    gaps = np.diff(np.sort(final)).tolist()
    tau = draw(st.sampled_from([-1e-3, 0.0, thresh / scale] + [g / scale for g in gaps]))
    return final, tau


class TestSortAndSplitTraceClusters:
    @settings(max_examples=600, deadline=None)
    @given(final_opinions())
    def test_equals_group_rows_on_one_column(self, case):
        final, tau = case
        trace = OpinionTrace(states=final[None, :], converged=True, iterations=0,
                             residual=0.0)
        thresh = verification._threshold(final, tau)
        clusters = clusters_from_trace(trace, tau)
        assert clusters == _group_rows(final[:, None], thresh)
        assert clusters == pairwise_group_rows(final[:, None], thresh)
        assert all(type(i) is int for c in clusters for i in c)

    @pytest.mark.parametrize("tau", [1e-8, 10.0])
    def test_opinions_near_the_float_maximum_raise_no_warning(self, tau):
        # Differences of +-1.7e308 overflow to inf: a cut at tau 1e-8, and
        # still within the infinite threshold of tau 10. RuntimeWarnings are
        # errors here.
        final = np.array([1.7e308, -1.7e308, 1.7e308, -1.6e308])
        trace = OpinionTrace(states=final[None, :], converged=True, iterations=0,
                             residual=0.0)
        with np.errstate(over="ignore"):
            expected = pairwise_group_rows(final[:, None], verification._threshold(final, tau))
        assert clusters_from_trace(trace, tau) == expected
        assert clusters_from_influence(final[:, None], tau) == expected


class TestRefines:
    def test_refinement_direction(self):
        fine = [frozenset({1}), frozenset({2}), frozenset({3})]
        coarse = [frozenset({1, 2}), frozenset({3})]
        assert refines(fine, coarse)
        assert not refines(coarse, fine)


class TestClusterReport:
    def test_g2_report_matches(self, g2):
        predicted = predict_clusters(analyze(g2)).clusters
        V = influence_matrix(g2)
        observed = clusters_from_influence(V)
        assert refines(predicted, observed)
        assert pairwise_cluster_spread(V, predicted) <= 1e-10
        assert set(observed) == set(predicted)

    def test_observed_partitions_all_agents(self, g2):
        observed = clusters_from_influence(influence_matrix(g2))
        seen = sorted(v for c in observed for v in c)
        assert seen == list(range(1, g2.n + 1))


class TestRobustnessHarness:
    def test_g2_passes_every_trial(self, g2):
        report = robustness_harness(g2, trials=50, seed=5)
        assert report.passes == report.trials == 50
        assert report.first_failure is None
        assert report.worst_spread <= 1e-8
        assert set(report.predicted) == {
            frozenset({1, 2, 3}),
            frozenset({4, 5, 6}),
            frozenset({7, 8, 9}),
            frozenset({10, 11, 12}),
        }

    def test_prediction_is_independent_of_the_draw(self, g2):
        a = robustness_harness(g2, trials=5, seed=1)
        b = robustness_harness(g2, trials=5, seed=99)
        assert a.predicted == b.predicted

    def test_first_failure_names_the_trial_and_reruns(self, g2, monkeypatch):
        monkeypatch.setattr(
            verification, "clusters_from_influence", merge_when_agent_7_leads_agent_1
        )
        monkeypatch.setattr(verification, "_partition_holds", settle_nothing)
        report = robustness_harness(g2, trials=12, seed=3)
        assert report.passes == 7
        failure = report.first_failure
        assert failure.trial == 4
        assert failure.observed == (frozenset(range(1, 13)),)
        # The same seed with trial + 1 trials ends on the same draw.
        rerun = robustness_harness(g2, trials=failure.trial + 1, seed=3)
        assert rerun.passes == failure.trial
        assert rerun.first_failure == failure

    @pytest.mark.parametrize("trials", [0, -3])
    def test_fewer_than_one_trial_rejected(self, g2, trials):
        with pytest.raises(ValueError, match="at least 1"):
            robustness_harness(g2, trials=trials)

    def test_broken_cooperativity_refused(self, g1):
        flipped = reweighted(
            g1, [-w if (s, d) == (2, 3) else w for s, d, w in g1.edges]
        )
        with pytest.raises(ConditionsNotMet, match="cooperativity condition C2 fails"):
            robustness_harness(flipped, trials=5, seed=0)

    def test_uncovered_graph_refused(self, g1):
        with pytest.raises(ConditionsNotMet, match="coverage condition C1 fails"):
            robustness_harness(g1, trials=5, seed=0)

    def test_condition_violations_are_observed_not_asserted(self, g1):
        # Violating C2 voids the guarantee but must not be treated as a
        # disproof: clustering may or may not survive, so the only contract
        # is that analysis still runs and reports.
        flipped = reweighted(
            g1, [-w if (s, d) == (2, 3) else w for s, d, w in g1.edges]
        )
        cert = analyze(flipped)
        assert cert.cooperative is False
        clusters = clusters_from_influence(influence_matrix(flipped))
        assert sum(len(c) for c in clusters) == flipped.n


class TestHarnessMatchesTheLoop:
    """The harness certifies the topology once and builds each trial from edge
    arrays; its report must equal, bit for bit, that of a loop that reweights
    the graph and runs the gated solve on every trial."""

    @pytest.mark.parametrize("seed", [0, 5])
    def test_g2(self, g2, seed):
        report = robustness_harness(g2, trials=20, seed=seed)
        assert report == loop_harness(g2, trials=20, seed=seed)

    @pytest.mark.parametrize("n", [64, 200])
    def test_generated_network(self, n):
        g = random_multiconsensus_graph(n, n // 20, seed=n)
        report = robustness_harness(g, trials=10, seed=n)
        expected = loop_harness(g, trials=10, seed=n)
        assert report == expected
        assert report.worst_spread == expected.worst_spread > 0.0

    def test_first_failure_matches(self, g2, monkeypatch):
        monkeypatch.setattr(
            verification, "clusters_from_influence", merge_when_agent_7_leads_agent_1
        )
        monkeypatch.setattr(verification, "_partition_holds", settle_nothing)
        report = robustness_harness(g2, trials=12, seed=3)
        assert report.first_failure is not None
        assert report == loop_harness(g2, trials=12, seed=3)

    @pytest.mark.parametrize("per_block", [1, 3, 7])
    @pytest.mark.parametrize("n, trials", [(12, 20), (64, 10), (64, 23)])
    def test_uneven_blocks(self, g2, n, trials, per_block, monkeypatch):
        # g2 is the n = 12 case; 20 or 23 trials leave a short last block.
        g = g2 if n == 12 else random_multiconsensus_graph(n, n // 20, seed=n)
        monkeypatch.setattr(dynamics, "_TRACE_BLOCK", block_values(g, per_block))
        report = robustness_harness(g, trials=trials, seed=n)
        assert report == loop_harness(g, trials=trials, seed=n)

    @pytest.mark.parametrize("per_block", [2, 3, 5])
    def test_failure_in_a_later_block_keeps_its_trial(self, g2, per_block, monkeypatch):
        # The first failing draw is trial 4: in the third, second and first
        # block of 2, 3 and 5 trials.
        monkeypatch.setattr(
            verification, "clusters_from_influence", merge_when_agent_7_leads_agent_1
        )
        monkeypatch.setattr(verification, "_partition_holds", settle_nothing)
        monkeypatch.setattr(dynamics, "_TRACE_BLOCK", block_values(g2, per_block))
        report = robustness_harness(g2, trials=12, seed=3)
        assert report.first_failure.trial == 4
        assert report == loop_harness(g2, trials=12, seed=3)


    @pytest.mark.parametrize("per_block", [3, 1000])
    def test_tau_below_rounding_fails_trials_alike(self, g2, per_block, monkeypatch):
        # At tau = 1e-17 rounding splits clusters, so the box verdict, each
        # trial's own threshold and the fallback all decide real failures.
        monkeypatch.setattr(dynamics, "_TRACE_BLOCK", block_values(g2, per_block))
        report = robustness_harness(g2, trials=12, seed=4, tau=1e-17)
        assert 0 < report.passes < report.trials
        assert report == loop_harness(g2, trials=12, seed=4, tau=1e-17)


    @pytest.mark.parametrize("per_block", [4, 1000])
    def test_each_trial_takes_its_own_threshold(self, per_block, monkeypatch):
        # Here V's largest magnitude varies from trial to trial (on g2 it is
        # always 1), and tau is one trial's spread over it: a threshold shared
        # by a block of 4 settles three more trials than the loop passes.
        g = random_multiconsensus_graph(16, 2, seed=16)
        tau = spread_ratios(g, 12, 2)[4]
        monkeypatch.setattr(dynamics, "_TRACE_BLOCK", block_values(g, per_block))
        report = robustness_harness(g, trials=12, seed=2, tau=tau)
        assert 0 < report.passes < report.trials
        assert report == loop_harness(g, trials=12, seed=2, tau=tau)

    @pytest.mark.parametrize("per_block", [4, 1000])
    def test_a_negated_solve_gives_the_same_report(self, per_block, monkeypatch):
        # Negating V moves each trial's largest magnitude to a negative entry
        # and changes no distance, so thresholds, verdicts and spreads hold
        # only if the threshold reads max |V| through V's minimum too.
        g = random_multiconsensus_graph(16, 2, seed=16)
        tau = spread_ratios(g, 12, 2)[4]
        solve = verification._level_solve
        monkeypatch.setattr(verification, "_level_solve", lambda *args: -solve(*args))
        monkeypatch.setattr(dynamics, "_TRACE_BLOCK", block_values(g, per_block))
        report = robustness_harness(g, trials=12, seed=2, tau=tau)
        assert 0 < report.passes < report.trials
        assert report == loop_harness(g, trials=12, seed=2, tau=tau)


def scc_capped_graph():
    """Agent 1 (stubborn) feeds a chain 3 -> ... -> 42 that feeds it back, so
    {1, 3..42} is one SCC of 41 agents; agent 2 (stubborn) and 43 form a
    second cluster. 41**2 is far above n * m = 86."""
    edges = [(1, 3, 1.0)] + [(v, v + 1, 1.0) for v in range(3, 42)]
    edges += [(42, 1, 0.7), (2, 43, 1.0), (43, 2, -0.5)]
    beta = [0.5, 0.4] + [0.0] * 41
    return SignedDigraph(43, edges, beta, [0.0] * 43)


def four_cycles(dense):
    """Four cycles of 16 agents: 1..16 (agent 1 stubborn) leads 33..48, and
    17..32 (agent 17 stubborn) leads 49..64, through one edge each or, dense,
    with every follower hearing every leader. Each level's stack of two
    16 x 16 blocks (512 values) outweighs n * m = 128; dense, so do a
    level's 512 entries."""
    edges = [(base + v, base + v % 16 + 1, 1.0)
             for base in (0, 16, 32, 48) for v in range(1, 17)]
    lead = [(a, b) for a in range(1, 17) for b in range(1, 17)] if dense else [(16, 1)]
    edges += [(a + base, b + base + 32, 1.0) for base in (0, 16) for a, b in lead]
    beta = [0.0] * 64
    beta[0], beta[16] = 0.5, 0.4
    return SignedDigraph(64, edges, beta, [0.0] * 64)


BLOCK_GRAPHS = {
    "g2": networks.g2,
    "generated-64-8": lambda: random_multiconsensus_graph(64, 8, seed=64),
    "scc-capped": scc_capped_graph,
    "four-cycles": lambda: four_cycles(dense=False),
    "four-cycles-dense": lambda: four_cycles(dense=True),
}


def block_values(g, per_block):
    """The _TRACE_BLOCK at which robustness_harness solves per_block trials
    at a time on g."""
    return per_block * dynamics._level_plan(normalize(g), np.array(g.stubborn) - 1).footprint


class TestTrialBlocks:
    """A block holds max(1, _TRACE_BLOCK // footprint) trials, footprint
    counting what one trial holds at once (_LevelPlan): V and a gathered
    copy, a level's terms, the largest SCC stack and M's entries. So a block stays
    near _TRACE_BLOCK values unless one trial does not."""

    @pytest.mark.parametrize("n, trials, sizes", [
        (12, 1000, [541, 459]), (64, 20, [20]), (256, 3, [3]), (300, 2, [2]),
        pytest.param(256, 20, [18, 2], id="256-20"),  # footprint 3458
        pytest.param(300, 20, [7, 7, 6], id="300-20"),  # 9087
        pytest.param(2000, 2, [1, 1], id="2000-2"),  # 353,838
        pytest.param("scc-capped", 100, [33, 33, 33, 1], id="scc-capped"),  # 1982: 1681 the SCC
        pytest.param("four-cycles", 100, [67, 33], id="four-cycles"),  # 974: 512 a stack
        pytest.param("four-cycles-dense", 30, [14, 14, 2], id="four-cycles-dense"),  # 4544
    ])
    def test_block_sizes(self, g2, n, trials, sizes, monkeypatch):
        g = (BLOCK_GRAPHS[n]() if isinstance(n, str) else g2 if n == 12
             else random_multiconsensus_graph(n, n // 20, seed=n))
        seen, plans = [], []
        solve, plan = verification._level_solve, verification._level_plan
        monkeypatch.setattr(verification, "_level_solve",
                            lambda p, sysm: seen.append(sysm.beta.shape[0]) or solve(p, sysm))
        monkeypatch.setattr(verification, "_level_plan",
                            lambda *args: plans.append(1) or plan(*args))
        assert robustness_harness(g, trials=trials, seed=1).all_passed
        assert seen == sizes
        assert plans == [1]  # one plan per run

    @staticmethod
    def peak_bytes(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_large_n_peaks_as_one_trial(self):
        g = random_multiconsensus_graph(1000, 50, seed=1000)
        peak = self.peak_bytes(lambda: robustness_harness(g, trials=3, seed=1))
        assert peak < 2 * 8 * g.n**2

    @pytest.mark.parametrize("case, trials", [
        *(pytest.param("generated-64-8", t, id=str(t)) for t in (20, 200, 2000)),
        *(pytest.param(case, 2000, id=case)
          for case in ("g2", "scc-capped", "four-cycles", "four-cycles-dense")),
    ])
    def test_small_n_stays_within_the_block_bound(self, case, trials):
        g = BLOCK_GRAPHS[case]()
        peak = self.peak_bytes(lambda: robustness_harness(g, trials=trials, seed=1))
        assert peak < 2 * 8 * dynamics._TRACE_BLOCK


class TestWeightStubbornnessInvariance:
    def test_clusters_survive_any_reweighting(self, g2):
        rng = np.random.default_rng(71)
        g2_like = g2
        predicted = set(predict_clusters(analyze(g2_like)).clusters)
        for _ in range(25):
            weights = [
                float(np.sign(w) * rng.uniform(0.1, 10.0))
                for _, _, w in g2_like.edges
            ]
            beta = np.zeros(g2_like.n)
            for s in g2_like.stubborn:
                beta[s - 1] = 1.0 - rng.uniform(0.0, 1.0)
            redrawn = reweighted(g2_like, weights, beta=beta)
            observed = set(clusters_from_influence(influence_matrix(redrawn)))
            assert observed == predicted
