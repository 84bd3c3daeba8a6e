import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfj import (
    ConditionsNotMet,
    dynamics,
    normalize,
    NotConverged,
    analyze,
    cluster_spread,
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
    _cluster_boxes,
    _cluster_layout,
    _group_rows,
    _partition_holds,
    _UnionFind,
)

from conftest import merge_when_agent_7_leads_agent_1
from oracles import reweighted


def pairwise_group_rows(rows, thresh):
    """Reference grouping: test every pair, then take the transitive closure."""
    count = rows.shape[0]
    uf = _UnionFind(count)
    for i in range(count):
        for j in range(i + 1, count):
            if np.max(np.abs(rows[i] - rows[j])) <= thresh:
                uf.union(i, j)
    groups = {}
    for i in range(count):
        groups.setdefault(uf.find(i), set()).add(i + 1)
    return tuple(frozenset(g) for g in sorted(groups.values(), key=min))


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
    return sorted(cluster_spread(V, predicted) / np.abs(V).max()
                  for V in loop_influence(g, trials, seed))


def loop_harness(g, trials, seed, tau=verification.DEFAULT_TAU):
    """Reference harness: loop_influence's trials, each clustered in full."""
    predicted = predict_clusters(analyze(g), mode="strict").clusters
    passes, worst, first_failure = 0, 0.0, None
    for trial, V in enumerate(loop_influence(g, trials, seed)):
        observed = verification.clusters_from_influence(V, tau)
        worst = max(worst, cluster_spread(V, predicted))
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
    offsets = st.sampled_from((0.0, thresh, -thresh, 2 * thresh, thresh * (1 + 1e-16),
                               1e-15, 1e-9))
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

    def test_borderline_rows_chain_through_union_find(self):
        # closeness is not transitive: 1~2 and 2~3 but not 1~3 directly
        v = np.array([[0.0, 1.0], [0.9e-8, 1.0], [1.8e-8, 1.0]])
        clusters = clusters_from_influence(v, tau=1e-8)
        assert clusters == (frozenset({1, 2, 3}),)
        assert cluster_spread(v, clusters) == pytest.approx(1.8e-8)


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
        assert cluster_spread(rows, clusters) == pairwise_cluster_spread(rows, clusters)

    def test_gap_that_rounds_to_thresh_still_joins(self):
        # 0.7 below the second key lies one ulp above first + 0.7, yet the
        # computed gap is exactly 0.7, so the pair is close.
        rows = np.array([[-0.8065009344595016], [-0.10650093445950157]])
        assert rows[1, 0] > rows[0, 0] + 0.7
        assert rows[1, 0] - rows[0, 0] <= 0.7
        assert _group_rows(rows, 0.7) == (frozenset({1, 2}),)

    def test_zero_columns_are_ignored(self):
        v = np.array([[0.0, 0.5, 0.0, 0.5], [0.0, 0.5, 0.0, 0.5], [0.0, 1.0, 0.0, 0.0]])
        assert clusters_from_influence(v) == (frozenset({1, 2}), frozenset({3}))
        assert clusters_from_influence(np.zeros((3, 3))) == (frozenset({1, 2, 3}),)

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
        with mock.patch.object(dynamics, "_TRACE_BLOCK", 1):  # one pair per chunk
            assert _partition_holds(lo, hi, thresholds).tolist() == per_slice

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

    def test_prediction_missing_an_agent_is_regrouped(self, g2, monkeypatch):
        # Every box check would pass on the first three clusters, yet the
        # agents of the fourth form a group of their own in every trial.
        def without_last(cert, mode):
            full = predict_clusters(cert, mode)
            return dataclasses.replace(full, clusters=full.clusters[:-1])

        monkeypatch.setattr(verification, "predict_clusters", without_last)
        report = robustness_harness(g2, trials=5, seed=0)
        assert report.passes == 0
        assert len(report.first_failure.observed) == 4


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

    def test_never_builds_a_union_find(self, g2, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("clusters_from_trace built a union-find")

        monkeypatch.setattr(verification, "_UnionFind", refuse)
        shifted = SignedDigraph(g2.n, g2.edges, g2.beta, tuple(range(g2.n)))
        assert len(clusters_from_trace(simulate(shifted))) == 4


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
        assert cluster_spread(V, predicted) <= 1e-10
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
        monkeypatch.setattr(verification, "_partition_holds", lambda *args: False)
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
        with pytest.raises(ConditionsNotMet):
            robustness_harness(flipped, trials=5, seed=0)

    def test_uncovered_graph_refused(self, g1):
        with pytest.raises(ConditionsNotMet):
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
        monkeypatch.setattr(verification, "_partition_holds", lambda *args: False)
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
        monkeypatch.setattr(verification, "_partition_holds", lambda *args: False)
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
    with every follower hearing every leader. Four stacked 16 x 16 blocks
    (1024 values) outweigh n * m = 128; dense, so do a level's 512 entries."""
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
    copy, a level's terms, the SCC stacks and M's entries. So a block stays
    near _TRACE_BLOCK values unless one trial does not."""

    @pytest.mark.parametrize("n, trials, sizes", [
        (12, 1000, [504, 496]), (64, 20, [20]), (256, 3, [3]), (300, 2, [2]),
        pytest.param(256, 20, [18, 2], id="256-20"),  # footprint 3622
        pytest.param(300, 20, [7, 7, 6], id="300-20"),  # 9251
        pytest.param(2000, 2, [1, 1], id="2000-2"),  # 355,539
        pytest.param("scc-capped", 100, [32, 32, 32, 4], id="scc-capped"),  # 1986: 1681 the SCC
        pytest.param("four-cycles", 100, [44, 44, 12], id="four-cycles"),  # 1486: 1024 the SCCs
        pytest.param("four-cycles-dense", 30, [12, 12, 6], id="four-cycles-dense"),  # 5056
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
