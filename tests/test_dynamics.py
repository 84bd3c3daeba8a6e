import contextlib
import csv
import io
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfj import (
    NoStubbornAgents,
    NotConverged,
    SingularBlock,
    UnreachableNodes,
    analyze,
    influence_matrix,
    normalize,
    random_multiconsensus_graph,
    robustness_harness,
    save_graph,
    simulate,
)
from sfj import dynamics, graph, networks
from sfj.cli import EXIT_NOT_CONVERGED, EXIT_OK, main
from sfj.dynamics import (
    DEFAULT_TOL,
    _components,
    _level_plan,
    _level_solve,
    _sweep_bound,
)
from sfj.graph import Edge, SignedDigraph, _normalized

from conftest import g2_times_1e5, random_reachable_graph, slow_spiral, unreached_positive_class
import oracles
from oracles import (
    HypothesisViolated,
    SteadyStateSystem,
    build_steady_state,
    dense_contraction_certificate,
    dense_reduction,
    dense_influence,
    dense_influence_solve,
    dense_steady,
    dense_system,
    exact_reduced_rows,
    neumann_influence,
    neumann_tail_bound,
    neumann_terms_for,
    reduce_persuaded_set,
    reduce_steady_state,
    reweighted,
    schur_complement,
    sfj_step,
    spectral_radius,
    stepwise_simulate,
    unreached_by_closure,
    unreached_by_stubborn,
    unreached_in_block,
    update_matrix,
)


def make(n, edges, beta, x0=None):
    return SignedDigraph(n, tuple(edges), tuple(beta), tuple(x0 or [0.0] * n))


SINGULAR_SCC = make(4, [Edge(1, 2, 1.0), Edge(4, 2, 1.0), Edge(2, 3, 1e-20),
                        Edge(4, 3, 1.0), Edge(3, 4, 1.0)], beta=[0.5, 0.0, 0.0, 0.0],
                    x0=[1.0, 0.0, 0.0, 0.0])


class TestStep:
    def test_fully_stubborn_is_a_fixed_point_of_x0(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((4, 4))
        x0 = rng.standard_normal(4)
        x = rng.standard_normal(4)
        assert np.allclose(sfj_step(w, np.ones(4), x, x0), x0)

    def test_row_stochastic_consensus_is_invariant(self):
        w = np.array([[0.5, 0.5], [0.25, 0.75]])
        out = sfj_step(w, np.zeros(2), [3.0, 3.0], [0.0, 0.0])
        assert np.allclose(out, [3.0, 3.0])

    def test_self_antagonistic_agent_cancels(self):
        # One agent, negative self-loop normalized to w = -1, half stubborn.
        out = sfj_step([[-1.0]], [0.5], [1.0], [1.0])
        assert out[0] == pytest.approx(0.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            sfj_step(np.eye(3), np.zeros(3), np.zeros(2), np.zeros(3))


class TestSimulate:
    def test_fully_stubborn_converges_in_one_step(self):
        g = make(3, [Edge(1, 2, 1.0)], beta=[1.0, 1.0, 1.0], x0=[1.0, 2.0, 3.0])
        trace = simulate(g)
        assert trace.converged and trace.iterations == 1
        assert np.allclose(trace.final, [1.0, 2.0, 3.0])

    def test_star_pulls_leaves_to_the_center(self):
        g = make(
            3,
            [Edge(1, 2, 1.0), Edge(1, 3, 2.0)],
            beta=[1.0, 0.0, 0.0],
            x0=[4.0, -1.0, 7.0],
        )
        v = influence_matrix(g)
        assert v.shape == (3, 1)
        assert np.allclose(v[1], [1.0])
        assert np.allclose(v[2], [1.0])
        trace = simulate(g)
        assert np.allclose(trace.final, [4.0, 4.0, 4.0], atol=1e-9)

    def test_g2_settles_into_four_clusters(self, g2):
        trace = simulate(g2)
        finals = sorted(set(np.round(trace.final, 6)))
        assert len(finals) == 4

    def test_limit_matches_influence_solve(self, g1, g2):
        for g in (g1, g2):
            tol = 1e-10
            trace = simulate(g, tol=tol)
            limit = influence_matrix(g) @ g.x0[g.beta > 0]
            assert np.max(np.abs(trace.final - limit)) <= 10 * tol

    def test_nonconvergent_oscillator_raises_with_partial_trace(self):
        g = make(
            3,
            [Edge(2, 3, 1.0), Edge(3, 2, 1.0)],
            beta=[1.0, 0.0, 0.0],
            x0=[0.0, 1.0, -1.0],
        )
        with pytest.raises(NotConverged) as err:
            simulate(g, max_iter=100)
        # x(2) repeats x(0), but the state saved last is x(2): x(4) repeats it.
        assert str(err.value) == "no convergence: iteration 4 repeats iteration 2"
        trace = err.value.trace
        assert not trace.converged and trace.iterations == 4
        assert trace.states.shape == (5, 3)

    def test_unreached_class_falls_back_to_the_plain_step_rule(self):
        # Without stubborn-reachability no contraction bound applies; the
        # plain rule stops once the class settles into its own consensus.
        trace = simulate(unreached_positive_class(), max_iter=100_000)
        assert trace.converged and trace.iterations <= 100
        assert trace.residual < 1e-10
        assert np.ptp(trace.final[2:]) <= 1e-8

    @pytest.mark.parametrize("streamed", [False, True])
    def test_opposite_opinions_near_the_float_maximum_raise_no_warning(self, streamed):
        # x(1) - x(0) of agents 2 and 3 overflows: the residual is inf, and
        # the run goes on to its fixed point.
        g = make(3, [Edge(1, 2, 1.0), Edge(2, 3, -1.0)], beta=[0.5, 0.0, 0.0],
                 x0=[1.7e308, -1.7e308, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = simulate(g, out=io.StringIO() if streamed else None)
        assert trace.converged
        assert trace.final.tolist() == [1.7e308, 1.7e308, -1.7e308]

    def test_converged_residual_below_tolerance(self, g2):
        trace = simulate(g2, tol=1e-8)
        assert trace.residual <= 1e-8

    @pytest.mark.parametrize("n", [200, 500])
    def test_limit_matches_influence_solve_on_generated_networks(self, n):
        g = random_multiconsensus_graph(n, n // 20, seed=n)
        tol = 1e-10
        trace = simulate(g, tol=tol)
        limit = influence_matrix(g) @ g.x0[g.beta > 0]
        assert trace.converged
        assert np.max(np.abs(trace.final - limit)) <= 10 * tol


@st.composite
def one_big_component(draw):
    """Stubborn-reachable graphs whose agents 2..n form one cycle, with extra
    signed edges, self-loops and stubborn agents that have no in-edge.

    Agent 1 is stubborn and feeds agent 2. Only stubborn agents lose their
    in-edges, so walking the cycle backwards from any other agent meets a
    stubborn one: the graph stays stubborn-reachable.
    """
    n = draw(st.integers(3, 14))
    magnitude = st.floats(0.1, 10.0)
    sign = st.sampled_from([-1.0, 1.0])
    beta = [draw(st.sampled_from([0.05, 0.5, 1.0]))] + [
        draw(st.sampled_from([0.0, 0.0, 0.0, 0.05, 0.5, 1.0])) for _ in range(n - 1)
    ]
    pairs = {(1, 2)} | {(v, (v - 1) % (n - 1) + 2) for v in range(2, n + 1)}
    pairs |= set(draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                               max_size=3 * n)))
    cut = {v for v in range(1, n + 1) if beta[v - 1] > 0 and draw(st.booleans())}
    edges = [(u, v, draw(magnitude) * draw(sign)) for u, v in sorted(pairs)
             if v not in cut]
    return SignedDigraph(n, edges, beta, [0.0] * n)


@st.composite
def small_graphs(draw):
    """Graphs of up to 8 agents, often with unreached agents or none stubborn.

    Magnitudes lie in [0.1, 10], stubbornness in {0, 0.05, 0.5, 1} and
    opinions in [-10, 10], so a reached agent's divisor and every reached
    block stay well away from singular.
    """
    n = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                          unique=True, max_size=2 * n))
    sign = st.sampled_from([-1.0, 1.0])
    edges = [(u, v, draw(st.floats(0.1, 10.0)) * draw(sign)) for u, v in pairs]
    beta = draw(st.lists(st.sampled_from([0.0, 0.0, 0.05, 0.5, 1.0]),
                         min_size=n, max_size=n))
    x0 = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    return SignedDigraph(n, edges, beta, x0)


def dense_entries(g):
    update = update_matrix(normalize(g))
    rows, cols = np.nonzero(update)
    return rows, cols, update[rows, cols]


EDGE_ARRAY_CASES = {
    "g1": networks.g1,
    "g2": networks.g2,
    "generated-200": lambda: random_multiconsensus_graph(200, 10, seed=200),
    "generated-1000": lambda: random_multiconsensus_graph(1000, 50, seed=1000),
}


class TestEdgeArrayUpdate:
    """simulate's update, read off the edge arrays, and its stop rule,
    against the dense normalize and the dense solve."""

    @staticmethod
    def assert_entries_match(g):
        rows, cols, vals = normalize(g).update_entries()
        d_rows, d_cols, d_vals = dense_entries(g)
        assert np.array_equal(rows, d_rows) and np.array_equal(cols, d_cols)
        assert np.array_equal(vals, d_vals)

    @staticmethod
    def assert_sweep_brackets_the_dense_solve(g, sweeps=1000, rounds=20):
        """Every finite _sweep_bound(z, 1 + abs(M) z) along the sweep
        z <- 1 + abs(M) z from z = 1 is an upper bound on the dense kappa, and
        once max s <= 2**-43 it is within 1e-12 of it. The bound holds at any
        z >= 1, so after each round of sweeps z jumps ahead: after k sweeps z
        is the sum of abs(M)**j 1 over j <= k, and z + abs(M)**(k + 1) z is
        where 2k + 1 sweeps lead. So a slow contraction (rho near 1) costs
        rounds, not millions of sweeps. Rounding can trap the sweep in a
        cycle whose max s stays a few ulps of z above 2**-43; the bound is
        then held to the same 1e-12 once the sweep returns to a state."""
        assert not unreached_by_stubborn(g)
        dense = dense_contraction_certificate(g)
        update_abs = np.abs(update_matrix(normalize(g)))
        z, k = np.ones(g.n), 0
        for _ in range(rounds):
            seen = {z.tobytes()}
            for _ in range(sweeps):
                z_next = 1.0 + update_abs @ z
                bound = _sweep_bound(z, z_next)
                assert bound == np.inf or bound >= dense * (1 - 1e-12)
                if np.max(z_next - z) <= 2.0**-43 or z_next.tobytes() in seen:
                    assert abs(bound - dense) <= 1e-12 * dense
                    return
                seen.add(z_next.tobytes())
                z, k = z_next, k + 1
            z, k = z + np.linalg.matrix_power(update_abs, k + 1) @ z, 2 * k + 1
        raise AssertionError(f"max s still above 2**-43 after {rounds} rounds")

    @staticmethod
    def assert_stop_is_certified(g, tol=DEFAULT_TOL):
        trace = simulate(g, tol=tol)
        kappa = dense_contraction_certificate(g)
        assert trace.residual * kappa <= tol * (1 + 1e-12)
        limit = influence_matrix(g) @ g.x0[g.beta > 0]
        rounding = 2 * g.n * kappa * np.finfo(float).eps * np.abs(g.x0).max()
        assert np.abs(trace.final - limit).max() <= tol + rounding

    @staticmethod
    def assert_dense_system_matches(g):
        sysm = normalize(g)
        dense = np.eye(g.n) - update_matrix(sysm)
        assert dense_system(sysm).tobytes() == dense.tobytes()

    @pytest.mark.parametrize("case", EDGE_ARRAY_CASES)
    def test_entries_match_the_dense_update_matrix(self, case):
        g = EDGE_ARRAY_CASES[case]()
        self.assert_entries_match(g)
        self.assert_dense_system_matches(g)

    @pytest.mark.parametrize("case", EDGE_ARRAY_CASES)
    def test_certificate_matches_the_dense_solve(self, case):
        g = EDGE_ARRAY_CASES[case]()
        self.assert_sweep_brackets_the_dense_solve(g)
        self.assert_stop_is_certified(g)

    @settings(max_examples=300, deadline=None)
    @given(one_big_component())
    # rho(abs(M)) = 0.99972, dense kappa = 3515.3: about 107 000 plain sweeps.
    @example(SignedDigraph(3, [(1, 2, -0.109375), (2, 1, -1.0), (2, 2, -1.0), (2, 3, -1.0),
                               (3, 2, -9.0)], (0.05, 0.0, 0.0), [0.0] * 3))
    # Dense kappa = 299.29; rounding traps the sweep around the 5-cycle 2..6
    # in a period-5 cycle with max s = 2**-42.
    @example(SignedDigraph(6, [(1, 2, -0.109375), (2, 3, -1.0), (3, 4, -1.0), (4, 5, -1.0),
                               (5, 6, -1.0), (6, 2, -6.0)], (0.05,) + (0.0,) * 5, [0.0] * 6))
    def test_one_big_component_matches_the_dense_solve(self, g):
        self.assert_entries_match(g)
        self.assert_sweep_brackets_the_dense_solve(g)
        self.assert_dense_system_matches(g)

    def test_fully_stubborn_rows_and_lone_agents(self):
        # Agent 1 has no in-edge and beta 0.5: diagonal 0.5. Agent 3 is fully
        # stubborn, so its row vanishes, self-loop and all.
        g = make(3, [Edge(1, 2, 2.0), Edge(3, 2, -2.0), Edge(3, 3, 1.0),
                     Edge(2, 3, 1.0)], beta=[0.5, 0.0, 1.0])
        rows, cols, vals = normalize(g).update_entries()
        assert rows.tolist() == [0, 1, 1] and cols.tolist() == [0, 0, 2]
        assert vals.tolist() == [0.5, 0.5, -0.5]
        self.assert_entries_match(g)
        self.assert_dense_system_matches(g)

    def test_simulate_never_calls_the_dense_normalize(self, g2, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulate built a dense system or solved one")

        monkeypatch.setattr(dynamics, "normalize", refuse)
        monkeypatch.setattr(graph, "normalize", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        for g in (g2, unreached_positive_class()):
            assert simulate(g).converged
        with pytest.raises(NotConverged):
            simulate(make(3, [Edge(2, 3, 1.0), Edge(3, 2, 1.0)],
                          beta=[1.0, 0.0, 0.0], x0=[0.0, 1.0, -1.0]), max_iter=10)

    @settings(max_examples=1000, deadline=None)
    @given(small_graphs())
    def test_stop_is_certified_exactly_when_every_agent_is_reached(self, g):
        if g.m > 0 and not unreached_by_stubborn(g):
            self.assert_stop_is_certified(g)
            return
        # The plain rule: stop at the first step below tol, if one comes.
        try:
            trace = simulate(g, max_iter=2000)
        except NotConverged as exc:
            trace = exc.trace
        steps = np.abs(np.diff(trace.states, axis=0)).max(axis=1)
        assert np.all(steps[:-1] >= DEFAULT_TOL)
        assert (steps[-1] < DEFAULT_TOL) == trace.converged

    @pytest.mark.parametrize("beta", [1e-17, 1e-300])
    def test_stubbornness_lost_to_rounding_takes_the_plain_rule(self, g2, beta):
        # 1 - beta rounds to 1: agent 7 anchors nothing in floating point, so
        # its class is unreached and no bound exists; agent 10 still pulls
        # the rest to a limit.
        tiny = list(g2.beta)
        tiny[6] = beta
        g = SignedDigraph(g2.n, np.column_stack((g2.src, g2.dst, g2.w)), tiny, g2.x0)
        trace = simulate(g)
        assert trace.converged and trace.iterations == 51

    def test_consensus_start_stops_after_one_step(self):
        # The sweep certifies nothing after one step, but a zero step is an
        # exact fixed point.
        chain = make(4, [Edge(1, 2, 1.0), Edge(2, 3, 2.0), Edge(3, 4, 0.5)],
                     beta=[0.5, 0.0, 0.0, 0.0], x0=[3.0] * 4)
        trace = simulate(chain)
        assert trace.converged and trace.iterations == 1 and trace.residual == 0.0

    def test_simulate_runs_one_reachability_search(self, g2, monkeypatch):
        searches = []
        real = dynamics._unanchored
        monkeypatch.setattr(dynamics, "_unanchored",
                            lambda *args: searches.append(1) or real(*args))
        for g in (g2, unreached_positive_class()):
            assert simulate(g).converged
        no_stubborn = make(2, [Edge(1, 2, 1.0)], beta=[0.0, 0.0], x0=[1.0, 0.0])
        assert simulate(no_stubborn, max_iter=10).converged
        assert len(searches) == 3


class TestDenseAllocations:
    """One n x n array is 8 n**2 bytes; tracemalloc sees numpy's arrays but
    not LAPACK's work space."""

    @staticmethod
    def peak_bytes(build):
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_verify_builds_no_dense_matrix(self):
        # One n x n array would be 32 MB; the level solve holds n x m values
        # per trial, and the largest SCC's blocks.
        g = random_multiconsensus_graph(2000, 100, seed=2000)
        g.edge_index
        peak = self.peak_bytes(lambda: robustness_harness(g, trials=3, seed=1))
        assert peak < 8 * g.n**2 / 4

    def test_normalize_builds_no_dense_matrix(self):
        g = random_multiconsensus_graph(1000, 50, seed=1000)
        g.edge_index
        assert self.peak_bytes(lambda: normalize(g)) < 8 * g.n**2 / 4

    def test_steady_state_builds_no_dense_r(self):
        # At n = 4000 (m = 189) one (n + m)**2 R is 134 MB; V's n x m block
        # and y peak at 12 MB.
        g = random_multiconsensus_graph(4000, 500, seed=1)
        g.edge_index
        assert self.peak_bytes(lambda: build_steady_state(g)) < 32 * 2**20

    def test_reducing_every_pair_builds_no_dense_r(self):
        # Each persuaded set reads only its own rows of R: all 500 sets (3500
        # pairs) at n = 4000, every relation kept, stay far below one dense
        # reduction (401 MB) and never build R.
        g = random_multiconsensus_graph(4000, 500, seed=1)
        cert = analyze(g)
        sysm = build_steady_state(g)

        relations = []

        def reduce_all():
            for p in cert.ltp_agents:
                relations.extend(reduce_persuaded_set(sysm, p, cert.persuaded[p]))

        assert self.peak_bytes(reduce_all) < 8 * 2**20
        assert len(cert.ltp_agents) == 500 and len(relations) == 3500
        assert all(relation.holds() for relation in relations)
        assert "R" not in vars(sysm)


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(5)) == pytest.approx(1.0)

    def test_contracts_under_stubborn_reachability(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            g = random_reachable_graph(rng, n_max=30)
            sysm = normalize(g)
            assert spectral_radius(update_matrix(sysm)) < 1.0

    def test_never_exceeds_absolute_value_radius(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            m = rng.standard_normal((n, n))
            assert spectral_radius(m) <= spectral_radius(np.abs(m)) + 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            spectral_radius(np.zeros((2, 3)))


class TestInfluenceMatrix:
    def test_fully_stubborn_gives_identity(self):
        g = make(3, [Edge(1, 2, 1.0)], beta=[1.0, 1.0, 1.0])
        assert np.allclose(influence_matrix(g), np.eye(3))

    def test_non_stubborn_columns_vanish(self, g2):
        # So the solve returns the stubborn columns alone, in g.stubborn order.
        v, dense = influence_matrix(g2), dense_influence(g2)
        stubborn = np.array(g2.stubborn) - 1
        assert v.shape == (g2.n, g2.m)
        assert not np.delete(dense, stubborn, axis=1).any()
        assert np.abs(v - dense[:, stubborn]).max() <= 1e-12 * np.abs(dense).max()

    def test_stubborn_columns_alone_fit_in_the_plans_footprint(self):
        # n x n, V would take 128 MB here; its m = 189 stubborn columns,
        # gathered into agent order, take 6 MB.
        g = random_multiconsensus_graph(4000, 500, seed=1)
        stubborn = np.array(g.stubborn) - 1
        plan = _level_plan(normalize(g), stubborn)
        tracemalloc.start()
        try:
            V = influence_matrix(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * plan.footprint
        assert V.shape == (g.n, g.m)
        dense = dense_influence(g)[:, stubborn]
        assert np.abs(V - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_row_sums_are_one_when_fully_cooperative(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            g = random_reachable_graph(rng)
            g = reweighted(g, [abs(w) for _, _, w in g.edges])
            v = influence_matrix(g)
            assert np.max(np.abs(v.sum(axis=1) - 1.0)) <= 1e-9

    def test_unanchored_cycle_is_singular(self):
        g = make(2, [Edge(1, 2, 1.0), Edge(2, 1, 1.0)], beta=[0.0, 0.0])
        with pytest.raises(NoStubbornAgents):
            influence_matrix(g)

    def test_unreached_agent_is_singular(self):
        # Agent 3 has no in-edge, so no stubborn agent anchors it.
        g = make(3, [Edge(1, 2, 1.0)], beta=[0.5, 0.0, 0.0])
        with pytest.raises(UnreachableNodes, match=r"\[3\]"):
            influence_matrix(g)

    # The closed class {1, 2, 3} hears only from agent 1, the stubborn agent 4
    # from no one; agent 1's column of V is exactly 1.0 on rows 1..3.
    FAINT_ANCHOR = [Edge(1, 2, 1.0), Edge(2, 3, 3.0), Edge(3, 1, 7.0), Edge(3, 2, 0.1),
                    Edge(2, 1, 0.3)]

    @pytest.mark.parametrize("beta", [1e-300, 2.0**-60, 2.0**-54, 2.0**-53],
                             ids=["1e-300", "2**-60", "2**-54", "2**-53"])
    def test_a_beta_lost_in_one_minus_beta_anchors_nothing(self, beta):
        # Below 2**-53, 1 - beta rounds to one: the class is closed in
        # floating point, and an LU of its block gives -1e-284 or -0.0095
        # where V holds 1.0.
        g = make(4, self.FAINT_ANCHOR, beta=[beta, 0.0, 0.0, 0.5], x0=[1.0, 0.0, 0.0, 0.0])
        assert not unreached_by_stubborn(g)
        unreached = unreached_by_closure(g, range(1, g.n + 1))
        if 1.0 - beta == 1.0:
            assert unreached == {1, 2, 3}
            for solve in (influence_matrix, build_steady_state):
                with pytest.raises(UnreachableNodes, match=re.escape("[1, 2, 3]")) as err:
                    solve(g)
                assert err.value.nodes == unreached
        else:
            assert not unreached
            assert np.isfinite(influence_matrix(g)).all()
            assert np.isfinite(build_steady_state(g).y).all()

    @pytest.mark.parametrize("g, agents", [
        # Stubborn agent 1 reaches the SCC {2, 3, 4}, so rho(M) < 1, but 3's
        # weight 1/(1 + 1e-20) from 4 rounds to 1: in floating point 3 and 4
        # hear only each other, and the block of I - M is singular.
        (SINGULAR_SCC, [2, 3, 4]),
        # The same for one agent: its self-loop's weight rounds to 1.
        (make(2, [Edge(1, 2, 1e-20), Edge(2, 2, 1.0)], beta=[0.5, 0.0]), [2]),
        # Two SCCs of 3 in one stack, the singular one solved second.
        (make(7, [*SINGULAR_SCC.edges, Edge(1, 5, 1.0), Edge(7, 5, 1.0), Edge(5, 6, 1.0),
                  Edge(7, 6, 1.0), Edge(6, 7, 1.0)], beta=[0.5] + [0.0] * 6), [2, 3, 4]),
    ])
    def test_singular_component_is_named(self, g, agents):
        assert not unreached_by_stubborn(g)
        for solve in (influence_matrix, build_steady_state):
            with pytest.raises(SingularBlock, match=re.escape(f"agents {agents} form")):
                solve(g)

    def test_singular_component_leaves_the_cli_exit_codes(self, tmp_path):
        # analyze needs no solve, verify re-draws the weights, and the
        # iteration does not converge.
        path = tmp_path / "g.json"
        save_graph(SINGULAR_SCC, path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            assert main(["analyze", str(path)]) == EXIT_OK
            assert main(["verify", str(path), "--trials", "2"]) == EXIT_OK
            assert main(["simulate", str(path), "--max-iter", "1000",
                         "--out", str(tmp_path / "t.csv")]) == EXIT_NOT_CONVERGED

    @pytest.mark.parametrize("n", [100, 200, 500])
    def test_generated_networks_above_the_old_eig_cutoff(self, n):
        g = random_multiconsensus_graph(n, n // 20, seed=n)
        sysm = normalize(g)
        v = influence_matrix(g)
        assert v.shape == (n, g.m)
        stubborn = np.array(g.stubborn) - 1
        residual = (np.eye(n) - update_matrix(sysm)) @ v - np.diag(sysm.beta)[:, stubborn]
        assert np.max(np.abs(residual)) <= 1e-10


@st.composite
def faintly_anchored_graphs(draw):
    """Graphs of up to 10 agents, self-loops included, whose betas straddle the
    point where 1 - beta rounds to one: 1e-300 and 1e-17 anchor nothing,
    2**-53 and 2**-52 do."""
    n = draw(st.integers(1, 10))
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                          unique=True, max_size=2 * n))
    beta = draw(st.lists(st.sampled_from([0.0, 1e-300, 1e-17, 2.0**-53, 2.0**-52, 0.5, 1.0]),
                         min_size=n, max_size=n))
    return make(n, [Edge(u, v, 1.0) for u, v in pairs], beta)


class TestUnanchored:
    @settings(max_examples=500, deadline=None)
    @given(faintly_anchored_graphs())
    def test_matches_networkx_and_the_oracles(self, g):
        nx = pytest.importorskip("networkx")
        graph_ = nx.DiGraph()
        graph_.add_nodes_from(range(1, g.n + 1))
        graph_.add_edges_from(zip(g.src.tolist(), g.dst.tolist()))
        anchored = [i for i in range(1, g.n + 1) if 1.0 - g.beta[i - 1] < 1.0]
        reached = set(anchored).union(*(nx.descendants(graph_, v) for v in anchored))
        unanchored = dynamics._unanchored(g)
        assert unanchored == frozenset(range(1, g.n + 1)) - reached
        assert unanchored == unreached_by_closure(g, range(1, g.n + 1))
        others = set(range(1, g.n + 1)) - set(anchored)
        assert unanchored == unreached_in_block(g.n, g.src, g.dst, others)
        assert all(type(i) is int for i in unanchored)


def with_loops_and_full_stubbornness(g, count, seed):
    """g with positive self-loops on count agents and beta = 1 on half of its
    stubborn agents; stubborn-reachability is kept."""
    rng = np.random.default_rng(seed)
    loops = rng.choice(g.n, size=count, replace=False) + 1
    edges = np.column_stack((g.src, g.dst, g.w)).tolist()
    present = {(s, d) for s, d, _ in edges}
    edges += [(v, v, w) for v, w in zip(loops.tolist(), rng.uniform(0.1, 10.0, count))
              if (v, v) not in present]
    beta = list(g.beta)
    for v in g.stubborn[::2]:
        beta[v - 1] = 1.0
    return SignedDigraph(g.n, edges, beta, g.x0)


LEVEL_SOLVE_CASES = {
    "g1": networks.g1,
    "g2": networks.g2,
    **{f"generated-{n}": (lambda n=n: random_multiconsensus_graph(n, n // 20, seed=n))
       for n in (64, 200, 1000, 4000)},
    # Agents 1..60 on a cycle with chords: one SCC that holds every agent.
    "strongly-connected": lambda: SignedDigraph(
        60, [(v, v % 60 + 1, 1.0 + v % 3) for v in range(1, 61)]
        + [(v, (7 * v) % 60 + 1, -0.5) for v in range(1, 61, 4)],
        [0.3 if v % 13 == 0 else 0.0 for v in range(1, 61)], [0.0] * 60),
    "loops-and-beta-one": lambda: with_loops_and_full_stubbornness(
        random_multiconsensus_graph(300, 15, seed=3), 40, seed=3),
    # Level 0: stubborn agent 1 and the SCC {2, 3}. Level 1: {4, 5} and
    # {10, 11}, one stack of two, and {6, 7, 8}. Level 2: agent 9 with a
    # self-loop. Level 3: agent 12.
    "mixed-sizes": lambda: make(12, [
        Edge(2, 3, 1.0), Edge(3, 2, -1.0),
        Edge(1, 4, 1.0), Edge(4, 5, 1.0), Edge(5, 4, 2.0),
        Edge(3, 10, -1.0), Edge(10, 11, 1.0), Edge(11, 10, 1.0),
        Edge(1, 6, 1.0), Edge(6, 7, 1.0), Edge(7, 8, -1.0), Edge(8, 6, 1.0),
        Edge(4, 9, 1.0), Edge(9, 9, 0.5),
        Edge(8, 12, 1.0), Edge(9, 12, -1.0),
    ], beta=[0.5, 0.3] + [0.0] * 10),
}


def assert_matches_dense(g):
    V, dense = influence_matrix(g), dense_influence(g)[:, np.array(g.stubborn) - 1]
    assert np.abs(V - dense).max() <= 1e-12 * np.abs(dense).max()


class TestLevelSolve:
    """The level solve against one dense LU of I - M (tests/oracles.py)."""

    @pytest.mark.parametrize("case", LEVEL_SOLVE_CASES)
    def test_matches_the_dense_oracle(self, case):
        assert_matches_dense(LEVEL_SOLVE_CASES[case]())

    @settings(max_examples=200, deadline=None)
    @given(one_big_component())
    def test_one_big_component_matches_the_dense_oracle(self, g):
        assert_matches_dense(g)

    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_every_reachable_small_graph_matches(self, g):
        if g.m and not unreached_by_stubborn(g):
            assert_matches_dense(g)

    def test_components_match_networkx_and_come_after_what_they_reach(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
            comp, level = _components(n, pairs[:, 0], pairs[:, 1])
            found = [np.flatnonzero(comp == c).tolist() for c in range(level.size)]
            graph_ = nx.DiGraph()
            graph_.add_nodes_from(range(n))
            graph_.add_edges_from(map(tuple, pairs.tolist()))
            assert sorted(found) == sorted(
                map(sorted, nx.strongly_connected_components(graph_)))
            assert all(comp[v] <= comp[u] for u, v in pairs)
            # 0 for a component that reaches no other, else one above the
            # highest level among those it reaches.
            for c in range(level.size):
                reached = {int(comp[v]) for u, v in pairs if comp[u] == c} - {c}
                assert level[c] == 1 + max((level[r] for r in reached), default=-1)

    @pytest.mark.parametrize("shape", ["chain", "cycle"])
    def test_components_of_a_long_chain_and_cycle_need_no_recursion(self, shape):
        # Agent i hears from agent i - 1, and agent 0 from agent n - 1 on the cycle.
        n = 100_000
        rows = np.arange(n) if shape == "cycle" else np.arange(1, n)
        comp, level = _components(n, rows, (rows - 1) % n)
        if shape == "chain":
            assert np.unique(comp).size == n
            assert level[comp].tolist() == list(range(n))
        else:
            assert comp.tolist() == [0] * n and level.tolist() == [0]

    @pytest.mark.parametrize("case", ["g2", "generated-200", "strongly-connected",
                                      "mixed-sizes"])
    def test_each_level_hears_only_from_the_levels_below(self, case):
        g = LEVEL_SOLVE_CASES[case]()
        plan = _level_plan(normalize(g), np.array(g.stubborn) - 1)
        assert sorted(plan.slot_of.tolist()) == list(range(g.n))
        ends = [(start, stop) for start, stop, *_ in plan.levels]
        assert ends[0][0] == 0 and ends[-1][1] == g.n
        assert all(a[1] == b[0] for a, b in zip(ends, ends[1:]))
        for start, stop, e0, e1, *_ in plan.levels:
            assert np.all(plan.src[e0:e1] < start)

    @pytest.mark.parametrize("case", LEVEL_SOLVE_CASES)
    def test_each_stack_scatters_into_its_own_level(self, case):
        # The solve's scatter -= needs distinct flat indices inside the
        # (count, k, k) stack, and the stack's rows of V must be its level's.
        g = LEVEL_SOLVE_CASES[case]()
        plan = _level_plan(normalize(g), np.array(g.stubborn) - 1)
        for start, stop, *_, stacks in plan.levels:
            for at, k, count, entries, flat in stacks:
                assert k > 1 and count >= 1 and entries.size == flat.size
                assert start <= at and at + count * k <= stop
                assert np.unique(flat).size == flat.size
                assert flat.min() >= 0 and flat.max() < count * k * k

    def test_mixed_sizes_plan_layout(self):
        # (level, k, count) of each stack, and the agents of each level's
        # self-loops: sizes 2 and 3 share level 1, size 2 is stacked on
        # levels 0 and 1, and agent 9's self-loop divides on level 2 (agent
        # 1 has no in-edge, so normalize gives it one).
        g = LEVEL_SOLVE_CASES["mixed-sizes"]()
        plan = _level_plan(normalize(g), np.array(g.stubborn) - 1)
        agent_at = np.argsort(plan.slot_of) + 1
        assert [(lv, k, count) for lv, (*_, stacks) in enumerate(plan.levels)
                for _, k, count, *_ in stacks] == [(0, 2, 1), (1, 2, 2), (1, 3, 1)]
        assert [agent_at[slots].tolist() for *_, (_, slots), _ in plan.levels] == [
            [1], [], [9], []]

    def test_the_solve_holds_one_stack_at_a_time(self):
        # Two cycles of k agents on two levels, each a (1, k, k) stack of
        # 40,000 values: the solve frees the first before it builds the
        # second, so it peaks near one stack, as footprint counts it.
        k = 200
        edges = [(base + v, base + v % k + 1, 1.0) for base in (0, k) for v in range(1, k + 1)]
        g = make(2 * k, edges + [Edge(1, k + 1, 1.0)], beta=[0.5] + [0.0] * (2 * k - 1))
        sysm = normalize(g)
        plan = _level_plan(sysm, np.array(g.stubborn) - 1)
        assert [(k_, count) for *_, stacks in plan.levels
                for _, k_, count, *_ in stacks] == [(k, 1), (k, 1)]
        assert plan.footprint < 1.1 * k * k
        tracemalloc.start()
        try:
            _level_solve(plan, sysm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * k * k

    def test_a_stack_of_trials_solves_each_as_alone(self):
        g = random_multiconsensus_graph(200, 10, seed=7)
        src, dst = g.edge_index
        stubborn = np.array(g.stubborn) - 1
        rng = np.random.default_rng(7)
        w = np.sign(g.w) * rng.uniform(0.1, 10.0, size=(5, g.w.size))
        beta = np.zeros((5, g.n))
        beta[:, stubborn] = rng.uniform(0.1, 1.0, size=(5, stubborn.size))
        stacked = _normalized(g.n, src, dst, w, beta)
        plan = _level_plan(stacked, stubborn)
        V = _level_solve(plan, stacked)
        for t in range(5):
            alone = _normalized(g.n, src, dst, w[t], beta[t])
            assert V[:, t].tobytes() == _level_solve(plan, alone).tobytes()

    def test_large_network_matches_a_sparse_lu(self):
        # A second oracle where a dense LU of I - M (3.2 GB) is out of reach:
        # SuperLU on the sparse system, (I - M) V = B_s.
        sparse = pytest.importorskip("scipy.sparse")
        linalg = pytest.importorskip("scipy.sparse.linalg")
        g = random_multiconsensus_graph(20_000, 1_000, seed=20_000)
        sysm, stubborn = normalize(g), np.array(g.stubborn) - 1
        V = influence_matrix(g)
        rows, cols, vals = sysm.update_entries()
        A = sparse.identity(g.n, format="csc") - sparse.csc_matrix(
            (vals, (rows, cols)), shape=(g.n, g.n))
        B = np.zeros((g.n, stubborn.size))
        B[stubborn, np.arange(stubborn.size)] = sysm.beta[stubborn]
        expected = linalg.spsolve(A, B)
        assert np.abs(V - expected).max() <= 1e-12 * np.abs(expected).max()


class TestNeumannSeries:
    def test_zero_terms_is_the_stubbornness_diagonal(self, g2):
        assert np.allclose(neumann_influence(g2, 0), np.diag(g2.beta))

    def test_fully_stubborn_is_constant_in_depth(self):
        g = make(2, [Edge(1, 2, 1.0)], beta=[1.0, 1.0])
        for k in (0, 1, 5):
            assert np.allclose(neumann_influence(g, k), np.eye(2))

    def test_increments_dominated_by_absolute_powers(self, g2):
        # |M^k B| <= abs(M)^k B entrywise, so each added term is controlled
        # and the increments die out geometrically once past any transient.
        sysm = normalize(g2)
        update = update_matrix(sysm)
        update_abs = np.abs(update)
        beta_diag = np.diag(sysm.beta)
        for k in range(1, 25):
            term = np.linalg.matrix_power(update, k) @ beta_diag
            cap = np.linalg.matrix_power(update_abs, k) @ beta_diag
            assert np.all(np.abs(term) <= cap + 1e-12)
        final = np.max(np.abs(neumann_influence(g2, 60) - neumann_influence(g2, 59)))
        assert final <= 1e-12

    def test_remainder_within_certified_tail_bound(self):
        rng = np.random.default_rng(48)
        for _ in range(25):
            g = random_reachable_graph(rng)
            v, stubborn = influence_matrix(g), np.array(g.stubborn) - 1
            for depth in (1, 4, 9):
                gap = np.abs(v - neumann_influence(g, depth)[:, stubborn])
                assert np.all(gap <= neumann_tail_bound(g, depth)[:, stubborn] + 1e-11)

    def test_agrees_with_direct_solve_at_derived_depth(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            g = random_reachable_graph(rng)
            depth = neumann_terms_for(g, 1e-8)
            stubborn = np.array(g.stubborn) - 1
            diff = np.abs(influence_matrix(g) - neumann_influence(g, depth)[:, stubborn])
            assert np.max(diff) <= 1e-8


class TestSteadyStateSystem:
    def test_all_cooperative_rows_sum_to_zero(self):
        rng = np.random.default_rng(53)
        g = random_reachable_graph(rng)
        g = reweighted(g, [abs(w) for _, _, w in g.edges])
        R = dense_steady(build_steady_state(g))
        assert np.max(np.abs(R @ np.ones(R.shape[0]))) <= 1e-12

    def test_negative_in_edge_makes_row_sum_positive(self, g1):
        row_sums = dense_steady(build_steady_state(g1)).sum(axis=1)
        assert row_sums[1] > 1e-6  # agent 2 takes the antagonistic edge from 3
        for i in (0, 2, 3, 4, 5):
            assert row_sums[i] == pytest.approx(0.0, abs=1e-12)

    def test_block_shape_and_zero_tail(self, g2):
        sysm = build_steady_state(g2)
        n, m = g2.n, g2.m
        R = dense_steady(sysm)
        assert R.shape == (n + m, n + m)
        assert np.allclose(R[n:], 0.0)
        assert sysm.stubborn_index == (7, 10)

    def test_steady_state_annihilates_y(self, g1, g2):
        for g in (g1, g2):
            sysm = build_steady_state(g)
            assert np.max(np.abs(dense_steady(sysm) @ sysm.y)) <= 1e-10

    def test_no_stubborn_agents_rejected(self):
        g = make(2, [Edge(1, 2, 1.0)], beta=[0.0, 0.0])
        with pytest.raises(NoStubbornAgents):
            build_steady_state(g)

    def test_gates_and_normalizes_once(self, g2, monkeypatch):
        # The limit comes from the system already built and certified, not
        # from influence_matrix, which would run both calls again.
        calls = []

        def counted(module, name):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args: calls.append(name) or real(*args))

        for module, name in ((oracles, "normalize"), (dynamics, "normalize"),
                             (dynamics, "_unanchored")):
            counted(module, name)
        build_steady_state(g2)
        assert sorted(calls) == ["_unanchored", "normalize"]

    @pytest.mark.parametrize("n", [None, 200])
    def test_y_is_the_influence_limit(self, g2, n):
        # y is influence_matrix's limit bit for bit, and the dense LU's
        # within rounding.
        g = g2 if n is None else random_multiconsensus_graph(n, n // 8, seed=1)
        sysm = normalize(g)
        rows = np.array(g.stubborn) - 1
        x0 = np.array(g.x0)[rows]
        V = influence_matrix(g)
        y = np.concatenate([V @ x0, x0])
        dense = dense_influence_solve(dense_system(sysm), sysm.beta, rows) @ x0
        steady = build_steady_state(g)
        assert steady.y.tobytes() == y.tobytes()
        assert np.abs(steady.y[:g.n] - dense).max() <= 1e-12 * np.abs(dense).max()


class TestSchurComplement:
    def test_block_diagonal_reduces_to_kept_block(self):
        m = np.zeros((4, 4))
        m[:2, :2] = [[2.0, 1.0], [0.5, 3.0]]
        m[2:, 2:] = [[4.0, 0.0], [0.0, 5.0]]
        assert np.allclose(schur_complement(m, [0, 1]), m[:2, :2])

    def test_two_by_two_scalar_formula(self):
        m = np.array([[5.0, 2.0], [3.0, 4.0]])
        out = schur_complement(m, [0])
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(5.0 - 2.0 * 3.0 / 4.0)

    def test_reduced_solve_matches_full_solve(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            n = int(rng.integers(3, 10))
            m = rng.standard_normal((n, n)) + n * np.eye(n)
            rhs = rng.standard_normal(n)
            keep = sorted(
                rng.choice(np.arange(n), size=int(rng.integers(1, n)), replace=False)
            )
            elim = [i for i in range(n) if i not in keep]
            full = np.linalg.solve(m, rhs)
            reduced_rhs = rhs[keep] - m[np.ix_(keep, elim)] @ np.linalg.solve(
                m[np.ix_(elim, elim)], rhs[elim]
            )
            reduced = np.linalg.solve(schur_complement(m, keep), reduced_rhs)
            assert np.allclose(reduced, full[keep], atol=1e-8)

    def test_singular_block_rejected(self):
        m = np.zeros((2, 2))
        m[0, 0] = 1.0
        with pytest.raises(SingularBlock):
            schur_complement(m, [0])


class TestReduction:
    def test_g1_reduced_row_ties_opinions(self, g1):
        sysm = build_steady_state(g1)
        relations = reduce_persuaded_set(sysm, 2, {3, 4})
        assert [relation.persuaded for relation in relations] == [3, 4]
        for relation in relations:
            assert relation.holds(tol=1e-10)
            assert relation.persuader_entry + relation.persuaded_entry == pytest.approx(
                0.0, abs=1e-10
            )
        assert sysm.y[1] == pytest.approx(sysm.y[2], abs=1e-9)
        assert sysm.y[1] == pytest.approx(sysm.y[3], abs=1e-9)

    def test_single_member_set_checks_directly_on_r(self, g1):
        # Nothing is eliminated and D = R[6, 6] = 1, so the row is R's own row
        # of q on its support, exactly.
        sysm = build_steady_state(g1)
        (relation,) = reduce_persuaded_set(sysm, 5, {6})
        R = dense_steady(sysm)
        assert relation.columns == tuple(np.flatnonzero(R[5]).tolist())
        assert list(relation.values) == R[5, list(relation.columns)].tolist()
        assert relation.holds(tol=1e-10)
        assert sysm.y[4] == pytest.approx(sysm.y[5], abs=1e-9)

    def test_every_g2_pair_holds(self, g2):
        sysm = build_steady_state(g2)
        for p, members in {1: {2, 3}, 4: {5, 6}, 7: {8, 9}, 10: {11, 12}}.items():
            relations = reduce_persuaded_set(sysm, p, members)
            assert [relation.persuaded for relation in relations] == sorted(members)
            for relation in relations:
                assert relation.persuader == p
                assert relation.holds(tol=1e-10)
                assert relation.solve_mismatch <= 1e-9

    def test_negative_in_edge_at_persuaded_agent_rejected(self, g1):
        flipped = reweighted(
            g1, [-w if (s, d) == (2, 3) else w for s, d, w in g1.edges]
        )
        sysm = build_steady_state(flipped)
        with pytest.raises(HypothesisViolated):
            reduce_persuaded_set(sysm, 2, {3, 4})

    def test_negative_in_edges_of_the_set_are_listed_in_edge_order(self):
        rng = np.random.default_rng(617)
        for _ in range(200):
            g = random_reachable_graph(rng)
            if g.n < 3:
                continue
            p, q, *rest = (int(v) for v in rng.permutation(np.arange(1, g.n + 1)))
            members = {q, *rest[:int(rng.integers(0, len(rest) + 1))]}
            want = [(s, d) for s, d, w in g.edges if d in members and w < 0]
            try:
                reduce_persuaded_set(build_steady_state(g), p, members)
                got = []
            except HypothesisViolated as exc:
                got = list(exc.violations)
            except SingularBlock:
                got = []
            assert got == want

    @pytest.mark.parametrize("members", [set(), {2, 3}], ids=["empty", "holds-p"])
    def test_empty_set_or_one_holding_its_persuader_rejected(self, g1, members):
        sysm = build_steady_state(g1)
        problem = "^the persuaded set of 2 must be nonempty and must not hold 2$"
        with pytest.raises(ValueError, match=problem):
            reduce_persuaded_set(sysm, 2, members)

    @pytest.mark.parametrize("p, members, agent", [
        (99, {3, 4}, 99), (0, {3, 4}, 0), (2, {3, 4, 99}, 99), (2, {0, 3, 4}, 0)])
    def test_agent_outside_the_network_rejected(self, g1, p, members, agent):
        sysm = build_steady_state(g1)
        with pytest.raises(ValueError, match=rf"^agent {agent} outside 1\.\.{g1.n}$"):
            reduce_persuaded_set(sysm, p, members)

    @pytest.mark.parametrize("p, members, agent", [
        (True, {3, 4}, "True"), (2, {3, 4.5}, "4.5"), (2, {True, 3}, "True"),
        (2.5, {3, 4}, "2.5"), (2, {3, "4"}, "'4'"), (2, {3, None}, "None")],
        ids=["bool-persuader", "fractional-member", "bool-member", "fractional-persuader",
             "string-member", "none-member"])
    def test_agent_that_is_not_an_integer_rejected(self, g1, p, members, agent):
        sysm = build_steady_state(g1)
        with pytest.raises(ValueError, match=rf"^agent {agent} is not an integer$"):
            reduce_persuaded_set(sysm, p, members)

    def test_integral_float_ids_count(self, g1):
        sysm = build_steady_state(g1)
        relations = reduce_persuaded_set(sysm, 2.0, {3.0, 4.0})
        assert relations == reduce_persuaded_set(sysm, 2, {3, 4})
        assert all(type(relation.persuader) is int and type(relation.persuaded) is int
                   for relation in relations)


@st.composite
def cooperative_blocks(draw, max_n=7):
    """A positive-weight graph with a persuader p and a block {q} | rest.

    Edges are drawn freely, self-loops included, so closed cycles and agents
    with no in-edge (the self-loop fallback w_ii = 1) are common. Agents no
    stubborn agent reaches are made stubborn, so the steady state exists; the
    block may contain stubborn agents, and it is often closed.
    """
    n = draw(st.integers(2, max_n))
    ends = st.tuples(st.integers(1, n), st.integers(1, n))
    pairs = draw(st.lists(ends, unique=True, max_size=2 * n))
    edges = tuple(Edge(s, d, draw(st.floats(0.1, 10.0))) for s, d in pairs)
    stubborn = draw(st.sets(st.integers(1, n), min_size=1))
    g = make(n, edges, beta=[0.5 if i in stubborn else 0.0 for i in range(1, n + 1)])
    stubborn |= unreached_by_stubborn(g)
    g = make(n, edges, beta=[0.5 if i in stubborn else 0.0 for i in range(1, n + 1)])
    p = draw(st.integers(1, n))
    members = draw(st.sets(st.sampled_from([v for v in range(1, n + 1) if v != p]),
                           min_size=1))
    q = draw(st.sampled_from(sorted(members)))
    return g, p, q, members


# Agent 1 is stubborn and hears only from its own self-loop, and agent 2 only
# from agent 1: the set {1, 2} has no in-edge from outside, and only agent 1's
# beta makes a row of its block fall short.
SELF_LOOP_BLOCK = (
    make(3, [Edge(1, 1, 2.0), Edge(1, 2, 1.0), Edge(2, 3, 1.0)], beta=[0.5, 0.0, 0.0]),
    3, 2, {1, 2},
)

# 1 <-> 2 is a cycle with no other in-edge, and agent 3 hears from 2 and from
# 4, outside the set {1, 2, 3}.
CLOSED_CYCLE = [Edge(1, 2, 1.0), Edge(2, 1, 3.0), Edge(2, 3, 1.0), Edge(3, 4, 1.0),
                Edge(4, 3, 1.0)]


class TestReductionGate:
    @settings(max_examples=400, deadline=None)
    @given(cooperative_blocks())
    @example(SELF_LOOP_BLOCK)
    def test_singular_exactly_when_the_block_is_closed(self, case):
        # build_steady_state's gate leaves no set of its system closed: a
        # path to a member from an agent whose 1 - beta is below one enters
        # the set from outside or starts at such a member, so every set
        # reduces and its block of R is a nonsingular M-matrix.
        g, p, _, members = case
        assert not unreached_by_closure(g, members)
        relations = reduce_persuaded_set(build_steady_state(g), p, members)
        assert [relation.persuaded for relation in relations] == sorted(members)

    def test_closed_cycle_with_a_stubborn_agent_reduces(self):
        # Agent 1 is stubborn (beta 0.5), so its row of D = R[{1, 2, 3}]
        # falls short and det D = 0.5: the set reduces, as the exact rows do.
        g = make(4, CLOSED_CYCLE, beta=[0.5, 0.0, 0.0, 0.0])
        sysm = build_steady_state(g)
        assert not unreached_by_closure(g, {1, 2, 3})
        assert unreached_by_closure(g, {1, 2, 3}, beta=False) == {1, 2}
        D = persuaded_block(sysm, {1, 2, 3})
        assert np.linalg.det(D) == pytest.approx(0.5)
        exact = exact_reduced_rows(g, {1, 2, 3})
        relations = reduce_persuaded_set(sysm, 4, {1, 2, 3})
        assert [relation.persuaded for relation in relations] == [1, 2, 3]
        for relation in relations:
            row = exact[relation.persuaded]
            assert set(relation.columns) <= set(row)
            assert not any(v for c, v in row.items() if c not in relation.columns)
            values = [float(row[c]) for c in relation.columns]
            # pair_bound covers the rounding of the set path and the per-pair
            # path, so it covers the set path's alone.
            assert np.abs(np.subtract(relation.values, values)).max() <= pair_bound(D, values)
            # Agent 1's anchor stays in every row, so no row pins q to p alone.
            assert relation.solve_mismatch <= 1e-9
        # The per-pair gate ignores beta: for q = 2 it eliminates {1, 3},
        # which 2 enters, but for q = 3 it refuses the closed {1, 2}.
        assert reduce_steady_state(sysm, 4, 2, {1, 2, 3}).solve_mismatch <= 1e-9
        with pytest.raises(SingularBlock, match=r"^agents \[1, 2\] have no path"):
            reduce_steady_state(sysm, 4, 3, {1, 2, 3})

    def test_closed_set_without_a_stubborn_agent_is_singular(self):
        # Without agent 1's beta no row of D falls short, and {1, 2} is closed:
        # build_steady_state refuses the graph, so the system is put together
        # by hand, with y = 0. D's rows of 1 and 2 are exactly opposite.
        g = make(4, CLOSED_CYCLE, beta=[0.0, 0.0, 0.0, 0.5])
        sysm = SteadyStateSystem(normalize(g), np.zeros(g.n + g.m), g.stubborn, g)
        assert unreached_by_closure(g, {1, 2, 3}) == {1, 2}
        with pytest.raises(SingularBlock, match=r"^persuaded block is singular"):
            reduce_persuaded_set(sysm, 4, {1, 2, 3})


def persuaded_pairs(g):
    """Every (p, q, persuaded set of p) that analyze detects, q ascending."""
    cert = analyze(g)
    return [(p, q, cert.persuaded[p]) for p in cert.ltp_agents
            for q in sorted(cert.persuaded[p])]


class TestReductionOracle:
    """The per-pair oracle against the Schur complement of the whole dense R."""

    @staticmethod
    def assert_matches(sysm, p, q, members):
        local = reduce_steady_state(sysm, p, q, members)
        _, _, dense = dense_reduction(sysm, p, q, members)
        assert (local.persuader_entry, local.persuaded_entry, local.max_off_support) == (
            dense.persuader_entry, dense.persuaded_entry, dense.max_off_support)
        row = dict(zip(dense.columns, dense.values))
        assert [row.pop(c) for c in local.columns] == list(local.values)
        assert not any(row.values())  # zero off the local support
        assert local.solve_mismatch <= 1e-9 and dense.solve_mismatch <= 1e-9
        return local

    def assert_pairs_match(self, g, pairs):
        sysm = build_steady_state(g)
        for pair in pairs:
            assert self.assert_matches(sysm, *pair).holds(tol=1e-10)

    def test_every_g2_pair(self, g2):
        pairs = persuaded_pairs(g2)
        assert len(pairs) == 8
        self.assert_pairs_match(g2, pairs)

    def test_every_pair_at_n_200(self):
        g = random_multiconsensus_graph(200, 10, seed=1)
        self.assert_pairs_match(g, persuaded_pairs(g))

    def test_sixty_pairs_at_n_1000(self):
        g = random_multiconsensus_graph(1000, 50, seed=1)
        self.assert_pairs_match(g, persuaded_pairs(g)[:60])

    def test_random_reachable_graphs_with_c2(self):
        rng = np.random.default_rng(613)
        pairs = graphs = 0
        while graphs < 150:
            g = random_reachable_graph(rng)
            if analyze(g).cooperative:
                found = persuaded_pairs(g)
                self.assert_pairs_match(g, found)
                pairs, graphs = pairs + len(found), graphs + 1
        assert pairs >= 50

    @settings(max_examples=400, deadline=None)
    @given(cooperative_blocks())
    def test_any_invertible_cooperative_block(self, case):
        # Drawn blocks hold stubborn agents, and p is often off q's row.
        g, p, q, members = case
        if not unreached_by_closure(g, members - {q}, beta=False):
            self.assert_matches(build_steady_state(g), p, q, members)


def persuaded_block(sysm, members):
    """D = R[S, S] for S = members, from the system's entries; R is not built."""
    agents, norm = np.array(sorted(members)) - 1, sysm.system
    inside = np.isin(norm.rows, agents) & np.isin(norm.cols, agents)
    D = np.eye(agents.size)
    np.subtract.at(D, (np.searchsorted(agents, norm.rows[inside]),
                       np.searchsorted(agents, norm.cols[inside])),
                   (1.0 - norm.beta[norm.rows[inside]]) * norm.vals[inside])
    return D


def pair_bound(D, row):
    """How far the set path's row may lie from the per-pair oracle's.

    Both compute the same exact row r from the same rows of R, in another
    order: one LU of D = R[S, S] of order k, then a division by G_qq, against
    one LU of D[S - q, S - q] per q. For a nonsingular M-matrix, LU needs no
    pivoting and |L||U| = |D|, so each solve is backward stable with
    |dD| <= gamma_3k |D| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, thm. 9.4), and each entry is off r by at most about
    (3k + 2) u cond_inf(D) max|r|, counting the division and the product. A
    principal submatrix of an M-matrix is no worse conditioned, and
    u max|r| <= ulp(max|r|), so the two rows differ by at most
    2 (3k + 2) cond_inf(D) ulps of max|r|. The worst measured was 4 ulps, a
    hundredth of this bound, on the detected sets at n = 4000, and
    1.6 cond_inf(D) ulps on 20 000 drawn blocks with weights 0.1 and 10 only.
    """
    return 2 * (3 * D.shape[0] + 2) * np.linalg.cond(D, np.inf) * np.spacing(np.abs(row).max())


class TestSetReductionMatchesPairs:
    """reduce_persuaded_set against the per-pair oracle, q by q."""

    @staticmethod
    def assert_set_matches(sysm, p, members):
        relations = reduce_persuaded_set(sysm, p, members)
        assert [relation.persuaded for relation in relations] == sorted(members)
        D = persuaded_block(sysm, members)
        for relation in relations:
            if unreached_by_closure(sysm.graph, set(members) - {relation.persuaded}, beta=False):
                continue  # the per-pair oracle refuses this q
            pair = reduce_steady_state(sysm, p, relation.persuaded, members)
            assert relation.columns == pair.columns
            bound = pair_bound(D, pair.values)
            assert np.abs(np.subtract(relation.values, pair.values)).max() <= bound
            assert abs(relation.persuader_entry - pair.persuader_entry) <= bound
            assert abs(relation.persuaded_entry - pair.persuaded_entry) <= bound
        return relations

    @pytest.mark.parametrize("n, z, sets", [(200, 10, 10), (1000, 50, 50), (4000, 500, 500)])
    def test_every_set(self, n, z, sets):
        g = random_multiconsensus_graph(n, z, seed=1)
        cert, sysm = analyze(g), build_steady_state(g)
        assert len(cert.ltp_agents) == sets
        for p in cert.ltp_agents:
            for relation in self.assert_set_matches(sysm, p, cert.persuaded[p]):
                assert relation.holds(tol=1e-10) and relation.solve_mismatch <= 1e-9

    @settings(max_examples=400, deadline=None)
    @given(cooperative_blocks())
    def test_any_invertible_cooperative_set(self, case):
        # Drawn sets hold stubborn agents, and p is often off every row.
        g, p, _, members = case
        if not unreached_by_closure(g, members):
            sysm = build_steady_state(g)
            self.assert_set_matches(sysm, p, members)
            elim = sorted(v - 1 for v in members)
            assert np.array_equal(persuaded_block(sysm, members),
                                  dense_steady(sysm)[np.ix_(elim, elim)])


class TestExactReduction:
    """Each detected set's rows against exact_reduced_rows, in rationals: the
    paper's lemma with no float tolerance, and the float rows' pattern."""

    @staticmethod
    def assert_exact(g):
        cert, sysm = analyze(g), build_steady_state(g)
        checked = 0
        for p in cert.ltp_agents:
            exact = exact_reduced_rows(g, cert.persuaded[p])
            for relation in reduce_persuaded_set(sysm, p, cert.persuaded[p]):
                q = relation.persuaded
                row = exact[q]
                assert row[q - 1] > 0 and row[p - 1] == -row[q - 1]
                assert not any(v for c, v in row.items() if c not in (p - 1, q - 1))
                assert set(relation.columns) <= set(row)
                support = {c: v for c, v in zip(relation.columns, relation.values)
                           if abs(v) > 1e-10}
                assert set(support) == {p - 1, q - 1}
                assert all((v > 0) == (row[c] > 0) for c, v in support.items())
                checked += 1
        return checked

    def test_bundled_networks(self, g1, g2):
        assert self.assert_exact(g1) == 3
        assert self.assert_exact(g2) == 8

    @settings(max_examples=400, deadline=None)
    @given(cooperative_blocks(max_n=5))
    def test_small_cooperative_graphs(self, case):
        self.assert_exact(case[0])


class TestCsvExport:
    def test_trace_header_and_rows(self, g1):
        buf = io.StringIO()
        trace = simulate(g1, out=buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "k,x_1,x_2,x_3,x_4,x_5,x_6"
        assert len(lines) == trace.iterations + 2
        first = lines[1].split(",")
        assert first[0] == "0"
        assert [float(v) for v in first[1:]] == list(g1.x0)


def csv_writer_trace(states, fh):
    """The straightforward writer: csv.writer over repr(float(v)) of every entry."""
    writer = csv.writer(fh)
    writer.writerow(["k"] + [f"x_{i}" for i in range(1, states.shape[1] + 1)])
    for k, row in enumerate(states):
        writer.writerow([k] + [repr(float(v)) for v in row])


def both_writers(states):
    """simulate's trace writer and csv_writer_trace over states, whose rows
    must be contiguous."""
    fast, oracle = io.StringIO(), io.StringIO()
    dynamics._write_header(fast, states.shape[1])
    dynamics._write_rows(fast, 0, states)
    csv_writer_trace(states, oracle)
    return fast.getvalue(), oracle.getvalue()


# Two NaNs with other bit patterns than np.nan: a negative one and one with a
# payload. Both print as nan.
ODD_NANS = np.array([0xFFF8000000000000, 0x7FF8000000000001], dtype=np.uint64).view(
    np.float64
)
SPECIAL_VALUES = [
    0.0, -0.0, np.inf, -np.inf, np.nan, *ODD_NANS.tolist(),
    5e-324, -5e-324, 2.2250738585072009e-308, 1e308, 0.1, 1 / 3,
]


@st.composite
def trace_states(draw):
    """States whose rows and values repeat, as in a converging trace."""
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    pool = draw(
        st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=5)
    )
    values = st.sampled_from(pool + SPECIAL_VALUES)
    distinct = draw(st.lists(st.lists(values, min_size=cols, max_size=cols),
                             min_size=1, max_size=rows))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=rows,
                          max_size=rows))
    return np.array([distinct[i] for i in picks], dtype=np.float64)


@st.composite
def mixed_blocks(draw):
    """Rows of fixed-form values, some of them holding ±1e-5, ±1e16 or one
    of SPECIAL_VALUES at drawn places: most of those are flagged, and the
    writer patches their rows there."""
    rows, cols = draw(st.integers(1, 10)), draw(st.integers(1, 6))
    fixed = st.floats(1e-4, 1e16, exclude_max=True).flatmap(
        lambda v: st.sampled_from([v, -v]))
    states = np.array(draw(st.lists(fixed, min_size=rows * cols, max_size=rows * cols)),
                      dtype=np.float64).reshape(rows, cols)
    for _ in range(draw(st.integers(0, rows))):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        states[i, j] = draw(st.sampled_from([1e-5, -1e-5, 1e16, -1e16] + SPECIAL_VALUES))
    return states


@st.composite
def bit_pattern_states(draw):
    """States of arbitrary 64-bit patterns: every exponent, sign and NaN payload."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    words = draw(st.lists(st.integers(0, 2**64 - 1), min_size=rows * cols,
                          max_size=rows * cols))
    return np.array(words, dtype=np.uint64).view(np.float64).reshape(rows, cols)


class TestTraceWriterMatchesCsvWriter:
    @settings(max_examples=300, deadline=None)
    @given(trace_states())
    @example(np.array([[-0.0]]))
    @example(np.array([[0.5, -0.0, 0.5, np.nan, 5e-324]]))
    def test_byte_identical_on_drawn_states(self, states):
        fast, oracle = both_writers(states)
        assert fast == oracle

    @settings(max_examples=300, deadline=None)
    @given(bit_pattern_states())
    def test_byte_identical_on_drawn_bit_patterns(self, states):
        fast, oracle = both_writers(states)
        assert fast == oracle

    def test_special_values_keep_their_repr(self):
        states = np.array([SPECIAL_VALUES, SPECIAL_VALUES[::-1]])
        fast, oracle = both_writers(states)
        assert fast == oracle
        first = fast.split("\r\n")[1].split(",")
        assert first[1:6] == ["0.0", "-0.0", "inf", "-inf", "nan"]
        assert first[6:8] == ["nan", "nan"]

    def test_byte_identical_on_a_generated_trace(self):
        g = random_multiconsensus_graph(500, 25, seed=500)
        fast, oracle = both_writers(simulate(g).states)
        assert fast == oracle


def assert_block_peak_below_half_its_text(scale):
    """Writes one block of _TRACE_BLOCK values drawn uniform in [-scale,
    scale], 16 rows of 4096, to a sink that keeps only the lengths, bounds
    tracemalloc's peak by eight rows of text and returns the block."""
    n = 4096
    states = np.random.default_rng(3).uniform(-scale, scale, (dynamics._TRACE_BLOCK // n, n))
    row = len(",".join(map(repr, states[0].tolist())))
    lines = []
    sink = type("Sink", (), {"write": lambda self, text: lines.append(len(text))})()
    tracemalloc.start()
    try:
        dynamics._write_rows(sink, 0, states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lines) == 16
    assert peak < 8 * row  # half the block's text
    return states


class TestStreamedRows:
    """_write_rows writes each row by itself, so a trace cut into blocks at
    any row gives the bytes of the whole trace."""

    def test_a_copied_negative_zero_is_formatted_again(self):
        # Agent 2 follows agent 1: its 0.0 under agent 1's -0.0 is equal as
        # a float but not as bits, and so is agent 1's 0.0 under its -0.0.
        states = np.array([[-0.0, 1.0], [-0.0, 0.0], [0.0, -0.0]])
        buf = io.StringIO()
        dynamics._write_rows(buf, 0, states)
        assert buf.getvalue() == "0,-0.0,1.0\r\n1,-0.0,0.0\r\n2,0.0,-0.0\r\n"

    def test_negative_zero_through_a_follower_chain(self):
        # Agents 2..5 each copy the one before; agent 1 is stubborn at -0.0.
        # Agent 2's copy of -0.0 comes out 0.0 (0.0 + -0.0), and that 0.0
        # passes down the chain bit for bit.
        g = SignedDigraph(5, [(i, i + 1, 1.0) for i in range(1, 5)],
                          (1.0, 0.0, 0.0, 0.0, 0.0), (-0.0, 1.0, 2.0, 3.0, 4.0))
        streamed = io.StringIO(newline="")
        simulate(g, out=streamed)
        fast, oracle = both_writers(simulate(g).states)
        assert streamed.getvalue() == fast == oracle
        assert fast.split("\r\n")[1:5] == ["0,-0.0,1.0,2.0,3.0,4.0",
                                            "1,0.0,0.0,1.0,2.0,3.0",
                                            "2,0.0,0.0,0.0,1.0,2.0",
                                            "3,0.0,0.0,0.0,0.0,1.0"]

    @settings(max_examples=200, deadline=None)
    @given(trace_states(), st.data())
    def test_any_split_gives_the_same_bytes(self, states, data):
        cut = data.draw(st.integers(0, states.shape[0]))
        whole, parts = io.StringIO(), io.StringIO()
        dynamics._write_rows(whole, 0, states)
        dynamics._write_rows(parts, 0, states[:cut])
        dynamics._write_rows(parts, cut, states[cut:])
        fast, oracle = both_writers(states)
        assert whole.getvalue() == parts.getvalue() == fast.split("\r\n", 1)[1]
        assert fast == oracle

    @settings(max_examples=200, deadline=None)
    @given(mixed_blocks(), st.data())
    def test_fallback_rows_among_fixed_form_rows(self, states, data):
        cut = data.draw(st.integers(0, states.shape[0]))
        parts = io.StringIO()
        dynamics._write_rows(parts, 0, states[:cut])
        dynamics._write_rows(parts, cut, states[cut:])
        fast, oracle = both_writers(states)
        assert fast == oracle
        assert parts.getvalue() == fast.split("\r\n", 1)[1]

    def test_a_column_prefix_of_a_wider_block_gives_the_same_bytes(self):
        # simulate writes x from blocks of rows u = (x, z), as block[:, :n]:
        # each row is contiguous, the block is not. orjson refuses a row
        # that is not contiguous.
        block = np.random.default_rng(7).uniform(-2.0, 2.0, (12, 20))
        block[3, 4], block[5, 6] = 1e-5, np.nan
        block[4, :8] = block[8, 1:9] = [1.0, -0.0, 0.1, 1e-5, 2.5e300, np.nan, -np.inf, 1e16]
        states = block[:, :10]
        assert not states.flags.c_contiguous
        fast, oracle = both_writers(states)
        assert fast == oracle

    def test_memory_stays_near_one_row_of_text(self):
        # One block of _TRACE_BLOCK values, 16 rows of 4096: its text is
        # about 1.3 MB, a row's about 80 KB. Nothing keeps what is written.
        # While orjson writes a row it holds 64 bytes a value, about three
        # rows of text, beside the row before it.
        assert_block_peak_below_half_its_text(1.0)

    def test_a_patched_row_takes_repr_at_its_flagged_values_alone(self, monkeypatch):
        # Six flagged values over four of six rows: six calls to repr and one
        # orjson call a row, where repr of every value of a flagged row
        # would cost five times as much.
        states = np.random.default_rng(5).uniform(0.5, 2.0, (6, 50))
        flagged = [1e-5, np.nan, -np.inf, 1e16, -2e-300, 5e-324]
        for (i, j), v in zip([(0, 3), (0, 40), (2, 0), (3, 49), (3, 10), (5, 7)], flagged):
            states[i, j] = v
        reprs, dumps = [], []
        monkeypatch.setattr(dynamics, "repr", lambda v: reprs.append(v) or repr(v),
                            raising=False)
        monkeypatch.setattr(orjson, "dumps", lambda *a, _dumps=orjson.dumps, **kw:
                            dumps.append(a[0].size) or _dumps(*a, **kw))
        fast = io.StringIO()
        dynamics._write_rows(fast, 0, states)
        monkeypatch.undo()
        assert len(reprs) == len(flagged) and set(map(repr, reprs)) == set(map(repr, flagged))
        assert dumps == [50] * 6
        fast, oracle = both_writers(states)
        assert fast == oracle

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(), st.sampled_from([1, 7, 2**16]))
    def test_streamed_bytes_equal_both_writers_on_drawn_graphs(self, g, block):
        streamed = io.StringIO(newline="")
        with mock.patch.object(dynamics, "_TRACE_BLOCK", block):
            try:
                trace = simulate(g, max_iter=300)
            except NotConverged as exc:
                trace = exc.trace
            try:
                simulate(g, max_iter=300, out=streamed)
            except NotConverged:
                pass
        fast, oracle = both_writers(trace.states)
        assert streamed.getvalue() == fast == oracle


def run_both(g, **kwargs):
    """simulate and stepwise_simulate, in memory and streamed, with every
    warning an error: (raised, iterations, residual bits, final bits, kept
    states' bits, trace bytes), which must be the same for both."""
    results = []
    for run in (simulate, stepwise_simulate):
        streamed = io.StringIO(newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                trace, raised = run(g, out=streamed, **kwargs), False
            except NotConverged as exc:
                trace, raised = exc.trace, True
            try:
                kept = run(g, **kwargs)
            except NotConverged as exc:
                kept = exc.trace
        results.append((raised, trace.iterations, np.float64(trace.residual).tobytes(),
                        trace.final.tobytes(), kept.states.shape, kept.states.tobytes(),
                        streamed.getvalue()))
    assert results[0] == results[1]
    return results[0]


class TestRounds:
    """simulate's rounds against stepwise_simulate, one checked step per
    bincount: where a round, a block or max_iter ends at the stop step."""

    @pytest.fixture(params=["g2", "generated-60"])
    def converging(self, request):
        """A graph and the step at which it stops, inside the first block."""
        g = {"g2": networks.g2,
             "generated-60": lambda: random_multiconsensus_graph(60, 3, seed=6)}[request.param]()
        stop = stepwise_simulate(g).iterations
        assert dynamics._ROUND < stop < dynamics._TRACE_BLOCK // g.n
        return g, stop

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_stop_on_an_edge_of_a_round(self, monkeypatch, converging, where):
        g, stop = converging
        # Rounds of the first block start at steps 1, R + 1, 2 R + 1, ...
        monkeypatch.setattr(dynamics, "_ROUND", stop - 1 if where == "first" else stop)
        raised, iterations, *_ = run_both(g)
        assert not raised and iterations == stop

    @pytest.mark.parametrize("row", ["last of a block", "first of a block"])
    def test_stop_at_a_block_boundary(self, monkeypatch, converging, row):
        g, stop = converging
        # A block holds steps first .. first + per_block - 1, from first = 0.
        per_block = stop + 1 if row == "last of a block" else stop
        monkeypatch.setattr(dynamics, "_TRACE_BLOCK", per_block * g.n)
        raised, iterations, *_ = run_both(g)
        assert not raised and iterations == stop

    @pytest.mark.parametrize("max_iter", ["below a round", "one round", "the stop step"])
    def test_max_iter_at_the_edges(self, converging, max_iter):
        g, stop = converging
        limit = {"below a round": dynamics._ROUND - 1, "one round": dynamics._ROUND,
                 "the stop step": stop}[max_iter]
        raised, iterations, *_ = run_both(g, max_iter=limit)
        assert raised == (limit < stop) and iterations == limit

    @pytest.mark.parametrize("plain", [True, False])
    def test_not_converged_over_several_rounds_and_blocks(self, monkeypatch, plain):
        g = slow_spiral() if plain else random_multiconsensus_graph(60, 3, seed=6)
        monkeypatch.setattr(dynamics, "_TRACE_BLOCK", 7 * g.n)  # 7 rows a block
        max_iter = 4 * dynamics._ROUND + 5
        raised, iterations, *_, trace = run_both(g, max_iter=max_iter)
        assert raised and iterations == max_iter
        assert trace.count("\r\n") == max_iter + 2  # the header and x(0)..x(max_iter)

    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("make, stop, saved", [
        (lambda: SignedDigraph(3, ((2, 3, 1.0), (3, 2, 1.0)), (1.0, 0.0, 0.0), (0.0, 1.0, -1.0)),
         4, 2),
        (g2_times_1e5, 134, 128),
    ], ids=["oscillator", "g2-times-1e5"])
    def test_first_repeated_state_stops_the_run(self, monkeypatch, make, stop, saved, rows):
        g = make()
        if rows:
            monkeypatch.setattr(dynamics, "_TRACE_BLOCK", rows * g.n)
        raised, iterations, *_, trace = run_both(g)
        assert raised and iterations == stop
        assert trace.count("\r\n") == stop + 2
        with pytest.raises(NotConverged, match=f"iteration {stop} repeats iteration {saved}$"):
            simulate(g)

    def test_plain_rule(self):
        raised, iterations, *_ = run_both(unreached_positive_class(), max_iter=100_000)
        assert not raised and iterations > dynamics._ROUND

    def test_a_zero_first_step(self):
        # Every agent stubborn: x(1) = x(0), and the run stops at step 1.
        g = make(3, [Edge(1, 2, 1.0), Edge(2, 3, -1.0)], beta=[1.0, 1.0, 1.0],
                 x0=[0.5, -2.0, 3.0])
        raised, iterations, residual, *_ = run_both(g)
        assert not raised and iterations == 1 and residual == np.float64(0.0).tobytes()

    def test_opinions_near_the_float_maximum(self):
        g = make(3, [Edge(1, 2, 1.0), Edge(2, 3, -1.0)], beta=[0.5, 0.0, 0.0],
                 x0=[1.7e308, -1.7e308, 0.0])
        raised, *_ = run_both(g)
        assert not raised

    def test_one_row_a_block(self, monkeypatch, converging):
        g, stop = converging
        monkeypatch.setattr(dynamics, "_TRACE_BLOCK", 1)
        raised, iterations, *_ = run_both(g)
        assert not raised and iterations == stop


def as_floats(words):
    return np.asarray(words, dtype=np.uint64).view(np.float64)


def fixed_form_values():
    """10**6 values log-uniform over [1e-4, 1e16), of both signs: repr writes
    all of them in fixed form, as it does nearly every trace value."""
    rng = np.random.default_rng(28)
    return 10 ** rng.uniform(-4, 16, 10**6) * rng.choice([-1.0, 1.0], 10**6)


class TestShortestReprs:
    """The writer against csv.writer where shortest-digit algorithms go
    wrong: the ends of binades and decades, subnormals, the switch between
    fixed and exponent form, and values that are not finite or are zero.
    They pin orjson's digits, which the writer takes in fixed form, to
    repr's."""

    @staticmethod
    def check(values):
        """Writes the fixed-form values in rows of their own, which orjson
        writes whole, and the flagged ones in rows that alternate them with
        fixed-form values, which the writer patches."""
        width = 256  # flagged values a row
        values = np.asarray(values, dtype=np.float64)
        odd = dynamics._unlike_repr(values)
        fixed, flagged = values[~odd], values[odd]
        mixed = np.resize(np.append(fixed, 0.5), (-(-flagged.size // width), 2 * width))
        mixed[:, ::2] = np.append(flagged, np.full(-flagged.size % width, np.nan)).reshape(
            -1, width)
        whole = np.append(fixed, np.full(-fixed.size % (2 * width), 0.5)).reshape(-1, 2 * width)
        fast, oracle = both_writers(np.concatenate((whole, mixed)))
        assert fast.split("\r\n") == oracle.split("\r\n")  # line by line: a short report

    def test_random_bit_patterns_of_both_signs(self):
        rng = np.random.default_rng(20)
        self.check(as_floats(rng.integers(0, 2**64, 300_000, dtype=np.uint64)))

    def test_powers_of_two_and_their_predecessors(self):
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        self.check(np.concatenate((powers, np.nextafter(powers, 0.0))))

    def test_subnormals(self):
        self.check(as_floats(np.arange(1, 5000)))  # 5e-324, 1e-323, ...

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        self.check(np.concatenate(
            (powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf))))

    def test_thousandths(self):
        self.check(np.arange(100_000) / 1000)

    def test_the_switch_to_exponent_form(self):
        edges = [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 2.0**53]
        self.check(edges + [-v for v in edges])

    def test_zeros_infinities_and_nans_with_payloads(self):
        nans = as_floats([0x7FF0000000000001, 0x7FF8000000000000, 0x7FFFFFFFFFFFFFFF,
                          0xFFF0000000000001, 0xFFF8000000000000, 0xFFFFFFFFFFFFFFFF])
        self.check([0.0, -0.0, np.inf, -np.inf, *nans.tolist(), 1.0, -0.0])

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(), max_size=50))
    def test_any_floats(self, values):
        # st.floats() draws NaN, infinities, subnormals and both zeros.
        self.check(values)

    def test_dense_fixed_form(self):
        self.check(fixed_form_values())

    def test_neighbours_of_short_decimals(self):
        # k 10**p with k of 1 to 17 digits, none of them a trailing zero, is
        # its own shortest repr if it round-trips; its neighbours one ulp away
        # take up to 17 digits.
        rng = np.random.default_rng(17)
        values = []
        for length in range(1, 18):
            k = rng.integers(10 ** (length - 1), 10**length, 500)
            lead = rng.integers(-4, 16, k.size)  # the exponent of k's first digit
            values += [float(f"{a}e{b - length + 1}") for a, b in zip(k.tolist(), lead.tolist())
                       if a % 10]
        values = np.array(values) * rng.choice([-1.0, 1.0], len(values))
        self.check(np.concatenate(
            (values, np.nextafter(values, 0.0), np.nextafter(values, np.inf))))

    def test_temporaries_of_one_block(self):
        # A tenth of the values in [-1e-3, 1e-3] lie below 1e-4, so every row
        # of the block is patched, its text split into one string a value
        # once orjson's is freed. Its peak is held to the bound of a block of
        # fixed-form rows.
        states = assert_block_peak_below_half_its_text(1e-3)
        assert dynamics._unlike_repr(states).any(axis=1).all()
