import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfj import (
    HypothesisViolated,
    NoStubbornAgents,
    NotConverged,
    SingularBlock,
    UnreachableNodes,
    build_steady_state,
    check_reachability,
    influence_matrix,
    normalize,
    random_multiconsensus_graph,
    reduce_steady_state,
    robustness_harness,
    schur_complement,
    simulate,
    write_trace_csv,
)
from sfj import dynamics, graph, networks
from sfj.dynamics import (
    DEFAULT_TOL,
    OpinionTrace,
    _components,
    _level_plan,
    _level_solve,
    _sweep_bound,
)
from sfj.graph import Edge, SignedDigraph, _normalized

from conftest import random_reachable_graph, unreached_positive_class
from oracles import (
    dense_contraction_certificate,
    dense_influence,
    dense_influence_solve,
    neumann_influence,
    neumann_tail_bound,
    neumann_terms_for,
    reweighted,
    sfj_step,
    spectral_radius,
    unreached_by_closure,
)


def make(n, edges, beta, x0=None):
    return SignedDigraph(n, tuple(edges), tuple(beta), tuple(x0 or [0.0] * n))


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
        assert np.allclose(v[1], [1.0, 0.0, 0.0])
        assert np.allclose(v[2], [1.0, 0.0, 0.0])
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
            limit = influence_matrix(g) @ np.array(g.x0)
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
        trace = err.value.trace
        assert not trace.converged
        assert trace.states.shape == (101, 3)

    def test_unreached_class_falls_back_to_the_plain_step_rule(self):
        # Without stubborn-reachability no contraction bound applies; the
        # plain rule stops once the class settles into its own consensus.
        trace = simulate(unreached_positive_class(), max_iter=100_000)
        assert trace.converged and trace.iterations <= 100
        assert trace.residual < 1e-10
        assert np.ptp(trace.final[2:]) <= 1e-8

    def test_converged_residual_below_tolerance(self, g2):
        trace = simulate(g2, tol=1e-8)
        assert trace.residual <= 1e-8

    @pytest.mark.parametrize("n", [200, 500])
    def test_limit_matches_influence_solve_on_generated_networks(self, n):
        g = random_multiconsensus_graph(n, n // 20, seed=n)
        tol = 1e-10
        trace = simulate(g, tol=tol)
        limit = influence_matrix(g) @ np.array(g.x0)
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
    update = normalize(g).update_matrix()
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
    def assert_sweep_brackets_the_dense_solve(g, max_sweeps=100_000):
        """Every finite _sweep_bound along z <- 1 + abs(M) z is an upper
        bound on the dense kappa, and once max s <= 2**-43 it is within
        1e-12 of it."""
        assert check_reachability(g).ok
        dense = dense_contraction_certificate(g)
        update_abs = np.abs(normalize(g).update_matrix())
        z = np.ones(g.n)
        for _ in range(max_sweeps):
            z_next = 1.0 + update_abs @ z
            bound = _sweep_bound(z, z_next)
            assert bound == np.inf or bound >= dense * (1 - 1e-12)
            if np.max(z_next - z) <= 2.0**-43:
                assert abs(bound - dense) <= 1e-12 * dense
                return
            z = z_next
        raise AssertionError(f"max s still above 2**-43 after {max_sweeps} sweeps")

    @staticmethod
    def assert_stop_is_certified(g, tol=DEFAULT_TOL):
        trace = simulate(g, tol=tol)
        kappa = dense_contraction_certificate(g)
        assert trace.residual * kappa <= tol * (1 + 1e-12)
        limit = influence_matrix(g) @ np.array(g.x0)
        rounding = 2 * g.n * kappa * np.finfo(float).eps * np.abs(g.x0).max()
        assert np.abs(trace.final - limit).max() <= tol + rounding

    @staticmethod
    def assert_system_matrix_matches(g):
        sysm = normalize(g)
        dense = np.eye(g.n) - sysm.update_matrix()
        assert sysm.system_matrix().tobytes() == dense.tobytes()

    @pytest.mark.parametrize("case", EDGE_ARRAY_CASES)
    def test_entries_match_the_dense_update_matrix(self, case):
        g = EDGE_ARRAY_CASES[case]()
        self.assert_entries_match(g)
        self.assert_system_matrix_matches(g)

    @pytest.mark.parametrize("case", EDGE_ARRAY_CASES)
    def test_certificate_matches_the_dense_solve(self, case):
        g = EDGE_ARRAY_CASES[case]()
        self.assert_sweep_brackets_the_dense_solve(g)
        self.assert_stop_is_certified(g)

    @settings(max_examples=300, deadline=None)
    @given(one_big_component())
    def test_one_big_component_matches_the_dense_solve(self, g):
        self.assert_entries_match(g)
        self.assert_sweep_brackets_the_dense_solve(g)
        self.assert_system_matrix_matches(g)

    def test_fully_stubborn_rows_and_lone_agents(self):
        # Agent 1 has no in-edge and beta 0.5: diagonal 0.5. Agent 3 is fully
        # stubborn, so its row vanishes, self-loop and all.
        g = make(3, [Edge(1, 2, 2.0), Edge(3, 2, -2.0), Edge(3, 3, 1.0),
                     Edge(2, 3, 1.0)], beta=[0.5, 0.0, 1.0])
        rows, cols, vals = normalize(g).update_entries()
        assert rows.tolist() == [0, 1, 1] and cols.tolist() == [0, 0, 2]
        assert vals.tolist() == [0.5, 0.5, -0.5]
        self.assert_entries_match(g)
        self.assert_system_matrix_matches(g)

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
        if g.m > 0 and check_reachability(g).ok:
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

    def test_simulate_never_calls_check_reachability(self, g2, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulate ran a second reachability search")

        monkeypatch.setattr(dynamics, "check_reachability", refuse)
        monkeypatch.setattr(graph, "check_reachability", refuse)
        for g in (g2, unreached_positive_class()):
            assert simulate(g).converged
        no_stubborn = make(2, [Edge(1, 2, 1.0)], beta=[0.0, 0.0], x0=[1.0, 0.0])
        assert simulate(no_stubborn, max_iter=10).converged


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


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(5)) == pytest.approx(1.0)

    def test_contracts_under_stubborn_reachability(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            g = random_reachable_graph(rng, n_max=30)
            sysm = normalize(g)
            assert spectral_radius(sysm.update_matrix()) < 1.0

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
        v = influence_matrix(g2)
        for j in range(g2.n):
            if g2.beta[j] == 0.0:
                assert np.allclose(v[:, j], 0.0)

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

    @pytest.mark.parametrize("n", [100, 200, 500])
    def test_generated_networks_above_the_old_eig_cutoff(self, n):
        g = random_multiconsensus_graph(n, n // 20, seed=n)
        sysm = normalize(g)
        v = influence_matrix(g)
        residual = (np.eye(n) - sysm.update_matrix()) @ v - np.diag(sysm.beta)
        assert np.max(np.abs(residual)) <= 1e-10
        open_minded = [i for i in range(n) if g.beta[i] == 0.0]
        assert not v[:, open_minded].any()


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
}


def assert_matches_dense(g):
    V, dense = influence_matrix(g), dense_influence(g)
    assert np.abs(V - dense).max() <= 1e-12 * np.abs(dense).max()
    assert not V[:, np.array(g.beta) == 0.0].any()


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
        if g.m and check_reachability(g).ok:
            assert_matches_dense(g)

    def test_components_match_networkx_and_come_after_what_they_reach(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
            succ = [sorted({int(v) for u, v in pairs if u == w}) for w in range(n)]
            bounds = np.cumsum([0] + [len(s) for s in succ]).tolist()
            found = _components(n, bounds, [v for s in succ for v in s])
            graph_ = nx.DiGraph()
            graph_.add_nodes_from(range(n))
            graph_.add_edges_from(map(tuple, pairs.tolist()))
            assert sorted(map(sorted, found)) == sorted(
                map(sorted, nx.strongly_connected_components(graph_)))
            position = {v: i for i, c in enumerate(found) for v in c}
            assert all(position[int(v)] <= position[int(u)] for u, v in pairs)

    @pytest.mark.parametrize("case", ["g2", "generated-200", "strongly-connected"])
    def test_each_level_hears_only_from_the_levels_below(self, case):
        g = LEVEL_SOLVE_CASES[case]()
        plan = _level_plan(normalize(g), np.array(g.stubborn) - 1)
        assert sorted(plan.slot_of.tolist()) == list(range(g.n))
        ends = [(start, stop) for start, stop, *_ in plan.levels]
        assert ends[0][0] == 0 and ends[-1][1] == g.n
        assert all(a[1] == b[0] for a, b in zip(ends, ends[1:]))
        for start, stop, e0, e1, *_ in plan.levels:
            assert np.all(plan.src[e0:e1] < start)

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
        plan = _level_plan(sysm, stubborn)
        V = _level_solve(plan, sysm)[plan.slot_of]
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
        update = sysm.update_matrix()
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
            v = influence_matrix(g)
            for depth in (1, 4, 9):
                gap = np.abs(v - neumann_influence(g, depth))
                assert np.all(gap <= neumann_tail_bound(g, depth) + 1e-11)

    def test_agrees_with_direct_solve_at_derived_depth(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            g = random_reachable_graph(rng)
            depth = neumann_terms_for(g, 1e-8)
            diff = np.abs(influence_matrix(g) - neumann_influence(g, depth))
            assert np.max(diff) <= 1e-8


class TestSteadyStateSystem:
    def test_all_cooperative_rows_sum_to_zero(self):
        rng = np.random.default_rng(53)
        g = random_reachable_graph(rng)
        g = reweighted(g, [abs(w) for _, _, w in g.edges])
        sysm = build_steady_state(g)
        ones = np.ones(sysm.R.shape[0])
        assert np.max(np.abs(sysm.R @ ones)) <= 1e-12

    def test_negative_in_edge_makes_row_sum_positive(self, g1):
        sysm = build_steady_state(g1)
        row_sums = sysm.R.sum(axis=1)
        assert row_sums[1] > 1e-6  # agent 2 takes the antagonistic edge from 3
        for i in (0, 2, 3, 4, 5):
            assert row_sums[i] == pytest.approx(0.0, abs=1e-12)

    def test_block_shape_and_zero_tail(self, g2):
        sysm = build_steady_state(g2)
        n, m = g2.n, g2.m
        assert sysm.R.shape == (n + m, n + m)
        assert np.allclose(sysm.R[n:], 0.0)
        assert sysm.stubborn_index == (7, 10)

    def test_steady_state_annihilates_y(self, g1, g2):
        for g in (g1, g2):
            sysm = build_steady_state(g)
            assert np.max(np.abs(sysm.R @ sysm.y)) <= 1e-10

    def test_no_stubborn_agents_rejected(self):
        g = make(2, [Edge(1, 2, 1.0)], beta=[0.0, 0.0])
        with pytest.raises(NoStubbornAgents):
            build_steady_state(g)

    def test_gates_and_normalizes_once(self, g2, monkeypatch):
        # The limit comes from the system already built and certified, not
        # from influence_matrix, which would run both calls again.
        calls = []

        def counted(name):
            real = getattr(dynamics, name)
            return lambda g: calls.append(name) or real(g)

        for name in ("normalize", "check_reachability"):
            monkeypatch.setattr(dynamics, name, counted(name))
        build_steady_state(g2)
        assert sorted(calls) == ["check_reachability", "normalize"]

    @pytest.mark.parametrize("n", [None, 200])
    def test_solves_on_r_with_one_build_of_i_minus_m(self, g2, n, monkeypatch):
        # R is the one dense build of I - M; y is influence_matrix's limit
        # bit for bit, and the dense LU's within rounding.
        g = g2 if n is None else random_multiconsensus_graph(n, n // 8, seed=1)
        sysm = normalize(g)
        rows, m = np.array(g.stubborn) - 1, g.m
        R = np.zeros((g.n + m, g.n + m))
        R[:g.n, :g.n] = sysm.system_matrix()
        R[rows, g.n + np.arange(m)] = -sysm.beta[rows]
        x0 = np.array(g.x0)[rows]
        V = np.ascontiguousarray(influence_matrix(g)[:, rows])
        y = np.concatenate([V @ x0, x0])
        dense = dense_influence_solve(sysm.system_matrix(), sysm.beta, rows) @ x0

        builds = []
        real = graph.NormalizedSystem.system_matrix
        monkeypatch.setattr(graph.NormalizedSystem, "system_matrix",
                            lambda self: builds.append(1) or real(self))
        steady = build_steady_state(g)
        assert len(builds) == 1
        assert steady.R.tobytes() == R.tobytes()
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
        _, relation = reduce_steady_state(sysm, 2, 3, {3, 4})
        assert relation.holds(tol=1e-10)
        assert relation.persuader_entry + relation.persuaded_entry == pytest.approx(
            0.0, abs=1e-10
        )
        assert sysm.y[1] == pytest.approx(sysm.y[2], abs=1e-9)

    def test_single_member_set_checks_directly_on_r(self, g1):
        sysm = build_steady_state(g1)
        reduced, relation = reduce_steady_state(sysm, 5, 6, {6})
        assert reduced.shape == sysm.R.shape
        assert relation.holds(tol=1e-10)
        assert sysm.y[4] == pytest.approx(sysm.y[5], abs=1e-9)

    def test_every_g2_pair_holds(self, g2):
        sysm = build_steady_state(g2)
        for p, members in {1: {2, 3}, 4: {5, 6}, 7: {8, 9}, 10: {11, 12}}.items():
            for q in members:
                _, relation = reduce_steady_state(sysm, p, q, members)
                assert relation.holds(tol=1e-10)
                assert relation.solve_mismatch <= 1e-9

    def test_negative_in_edge_at_persuaded_agent_rejected(self, g1):
        flipped = reweighted(
            g1, [-w if (s, d) == (2, 3) else w for s, d, w in g1.edges]
        )
        sysm = build_steady_state(flipped)
        with pytest.raises(HypothesisViolated):
            reduce_steady_state(sysm, 2, 3, {3, 4})

    def test_foreign_agent_rejected(self, g1):
        sysm = build_steady_state(g1)
        with pytest.raises(ValueError, match="not in the persuaded set"):
            reduce_steady_state(sysm, 2, 6, {3, 4})


@st.composite
def cooperative_blocks(draw):
    """A positive-weight graph with a persuader p and a block {q} | rest.

    Edges are drawn freely, self-loops included, so closed cycles and agents
    with no in-edge (the self-loop fallback w_ii = 1) are common. Agents no
    stubborn agent reaches are made stubborn, so the steady state exists; the
    block may contain stubborn agents, and it is often closed.
    """
    n = draw(st.integers(2, 7))
    ends = st.tuples(st.integers(1, n), st.integers(1, n))
    pairs = draw(st.lists(ends, unique=True, max_size=2 * n))
    edges = tuple(Edge(s, d, draw(st.floats(0.1, 10.0))) for s, d in pairs)
    stubborn = draw(st.sets(st.integers(1, n), min_size=1))
    g = make(n, edges, beta=[0.5 if i in stubborn else 0.0 for i in range(1, n + 1)])
    stubborn |= check_reachability(g).unreachable
    g = make(n, edges, beta=[0.5 if i in stubborn else 0.0 for i in range(1, n + 1)])
    p = draw(st.integers(1, n))
    members = draw(st.sets(st.sampled_from([v for v in range(1, n + 1) if v != p]),
                           min_size=1))
    q = draw(st.sampled_from(sorted(members)))
    return g, p, q, members


# Agent 1 is stubborn and hears only from its own self-loop, so the block {1}
# is closed although the edge (1, 1) points at it.
SELF_LOOP_BLOCK = (
    make(3, [Edge(1, 1, 2.0), Edge(1, 2, 1.0), Edge(2, 3, 1.0)], beta=[0.5, 0.0, 0.0]),
    3, 2, {1, 2},
)


class TestReductionGate:
    @settings(max_examples=400, deadline=None)
    @given(cooperative_blocks())
    @example(SELF_LOOP_BLOCK)
    def test_singular_exactly_when_the_block_is_closed(self, case):
        g, p, q, members = case
        sysm = build_steady_state(g)
        block = members - {q}
        elim = sorted(v - 1 for v in block)
        rho = spectral_radius(normalize(g).W[np.ix_(elim, elim)]) if elim else 0.0
        try:
            reduce_steady_state(sysm, p, q, members)
            raised = False
        except SingularBlock:
            raised = True
        assert raised == bool(unreached_by_closure(g, block))
        if rho < 1.0 - 1e-9:
            assert not raised

    def test_closed_cycle_is_singular(self):
        # 1 <-> 2 is a cycle with no other in-edge: W restricted to {1, 2} is
        # [[0, 1], [1, 0]], radius 1. The block {1, 3} is entered from 2.
        g = make(4, [Edge(1, 2, 1.0), Edge(2, 1, 3.0), Edge(2, 3, 1.0),
                     Edge(3, 4, 1.0)], beta=[0.5, 0.0, 0.0, 0.0])
        sysm = build_steady_state(g)
        with pytest.raises(SingularBlock, match=r"\[1, 2\]"):
            reduce_steady_state(sysm, 4, 3, {1, 2, 3})
        _, relation = reduce_steady_state(sysm, 4, 2, {1, 2, 3})
        assert relation.solve_mismatch <= 1e-9


class TestCsvExport:
    def test_trace_header_and_rows(self, g1):
        trace = simulate(g1)
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "k,x_1,x_2,x_3,x_4,x_5,x_6"
        assert len(lines) == trace.states.shape[0] + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert [float(v) for v in first[1:]] == list(g1.x0)


def csv_writer_trace(trace, fh):
    """The straightforward writer: csv.writer over repr(float(v)) of every entry."""
    n = trace.states.shape[1]
    writer = csv.writer(fh)
    writer.writerow(["k"] + [f"x_{i}" for i in range(1, n + 1)])
    for k, row in enumerate(trace.states):
        writer.writerow([k] + [repr(float(v)) for v in row])


def both_writers(states):
    trace = OpinionTrace(states=states, converged=True, iterations=0, residual=0.0)
    fast, oracle = io.StringIO(), io.StringIO()
    write_trace_csv(trace, fast)
    csv_writer_trace(trace, oracle)
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


class TestTraceWriterMatchesCsvWriter:
    @settings(max_examples=300, deadline=None)
    @given(trace_states())
    @example(np.array([[-0.0]]))
    @example(np.array([[0.5, -0.0, 0.5, np.nan, 5e-324]]))
    def test_byte_identical_on_drawn_states(self, states):
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
