import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfj import (
    ConditionsNotMet,
    NoStubbornAgents,
    UnreachableNodes,
    analyze,
    build_dominator_tree,
    certificate_to_dict,
    detect_ltp_agents,
    predict_clusters,
)
from sfj.generator import random_multiconsensus_graph
from sfj.graph import Edge, SignedDigraph
from sfj.ltp import VIRTUAL_ROOT, Violation

from conftest import random_reachable_graph
from oracles import (
    SizeLimit,
    brute_force_ltp_oracle,
    conditions_from_sets,
    in_neighbours,
    reference_dominator_tree,
    reweighted,
    same_certificate,
    same_detection,
)


def make(n, edges, stubborn, x0=None):
    beta = [0.0] * n
    for s in stubborn:
        beta[s - 1] = 0.5
    return SignedDigraph(n, tuple(edges), tuple(beta), tuple(x0 or [0.0] * n))


class TestDominatorTree:
    def test_chain_domination(self):
        g = make(3, [Edge(1, 2, 1.0), Edge(2, 3, 1.0)], stubborn=(1,))
        idom = build_dominator_tree(g)
        assert idom[2] == 1
        assert idom[3] == 2

    def test_two_disjoint_paths_leave_no_dominator(self):
        g = make(3, [Edge(1, 3, 1.0), Edge(2, 3, 1.0)], stubborn=(1, 2))
        idom = build_dominator_tree(g)
        assert idom[3] == VIRTUAL_ROOT

    def test_stubborn_agents_hang_off_the_root(self):
        g = make(3, [Edge(1, 2, 1.0), Edge(2, 3, 1.0)], stubborn=(1, 3))
        idom = build_dominator_tree(g)
        assert idom[1] == VIRTUAL_ROOT
        assert idom[3] == VIRTUAL_ROOT

    def test_g1_immediate_dominators(self, g1):
        idom = build_dominator_tree(g1)
        assert idom[3] == 2
        assert idom[4] == 3
        assert idom[5] == VIRTUAL_ROOT
        assert idom[6] == 5

    def test_unreachable_nodes_rejected(self):
        g = make(4, [Edge(1, 2, 1.0), Edge(3, 4, 1.0)], stubborn=(1,))
        with pytest.raises(UnreachableNodes) as err:
            build_dominator_tree(g)
        assert err.value.nodes == {3, 4}


class TestDominatorOracle:
    """Immediate dominators against networkx (a test-only dependency) on
    networks far beyond the brute-force oracle's reach."""

    @staticmethod
    def networkx_idom(g):
        nx = pytest.importorskip("networkx")
        search = nx.DiGraph()
        search.add_nodes_from(range(g.n + 1))
        search.add_edges_from((e.src, e.dst) for e in g.edges)
        search.add_edges_from((VIRTUAL_ROOT, s) for s in g.stubborn)
        idom = nx.immediate_dominators(search, VIRTUAL_ROOT)
        idom.pop(VIRTUAL_ROOT, None)  # some networkx versions map start to itself
        return idom

    @pytest.mark.parametrize("n", [1000, 5000, 20_000])
    def test_generated_networks_match_networkx(self, n):
        g = random_multiconsensus_graph(n, n // 20, seed=n)
        assert build_dominator_tree(g) == self.networkx_idom(g)

    def test_sparse_cyclic_network_matches_networkx(self):
        g = random_reachable_graph(
            np.random.default_rng(7), n=1000, density=0.002, m=4
        )
        idom = build_dominator_tree(g)
        assert idom == self.networkx_idom(g)
        assert any(d != VIRTUAL_ROOT for d in idom.values())

    def test_irreducible_loop_entered_from_two_stubborn_agents(self):
        # Cycle 3 -> 4 -> 5 -> 3, entered at 3 from stubborn 1 and at 5 from
        # stubborn 2, with 6 hanging off 4. 3 and 5 start at their
        # highest-numbered predecessors, 1 and 2; the first sweep meets each
        # one's other predecessor only at the root and moves both there, and
        # a second sweep confirms it.
        edges = [
            Edge(1, 3, 1.0), Edge(2, 5, 1.0), Edge(3, 4, 1.0),
            Edge(4, 5, 1.0), Edge(5, 3, 1.0), Edge(4, 6, 1.0),
        ]
        g = make(6, edges, stubborn=(1, 2))
        idom = build_dominator_tree(g)
        assert idom == {
            1: VIRTUAL_ROOT, 2: VIRTUAL_ROOT, 3: VIRTUAL_ROOT,
            4: 3, 5: VIRTUAL_ROOT, 6: 4,
        }
        cert = detect_ltp_agents(g, idom)
        assert cert.ltp_agents == (3,)
        assert cert.persuaded[3] == {4, 6}
        assert same_detection(cert, brute_force_ltp_oracle(g))

    def test_back_edge_predecessor_walks_the_start_tree(self):
        # The search runs 1 -> 2 -> 3 -> 4 -> 5, so 5 -> 2 is a back edge and
        # 5 is numbered below 2. Walking up from 5 for 2 passes 4, which has
        # two predecessors and comes after 2 in reverse postorder: its idom
        # is already set, to 1, by the forward edge 1 -> 4.
        edges = [Edge(1, 2, 1.0), Edge(1, 4, 1.0), Edge(2, 3, 1.0), Edge(3, 4, 1.0),
                 Edge(4, 5, 1.0), Edge(5, 2, 1.0)]
        g = make(5, edges, stubborn=(1,))
        assert_matches_reference(g)
        assert build_dominator_tree(g) == self.networkx_idom(g) == {
            1: VIRTUAL_ROOT, 2: 1, 3: 2, 4: 1, 5: 4}

    @pytest.mark.parametrize("edges, idom", [
        # 1 -> 3 is a forward edge: 3 starts at 1, which is above its DFS
        # parent 2, and 1 is its idom.
        ([(1, 2), (2, 3), (1, 3), (3, 4)], {1: VIRTUAL_ROOT, 2: 1, 3: 1, 4: 3}),
        # 3 -> 4 is a cross edge: the search reaches 4 from 2, then 3 from 1,
        # so 4 starts at 3, no ancestor of 4 in the DFS tree, and the sweep
        # moves it up to 1.
        ([(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], {1: VIRTUAL_ROOT, 2: 1, 3: 1, 4: 1, 5: 4}),
    ], ids=["forward-edge", "cross-edge"])
    def test_highest_predecessor_off_the_dfs_parent(self, edges, idom):
        g = make(max(map(max, edges)), [Edge(s, d, 1.0) for s, d in edges], stubborn=(1,))
        assert_matches_reference(g)
        assert build_dominator_tree(g) == self.networkx_idom(g) == idom

    def test_long_chain_neither_recurses_nor_goes_quadratic(self):
        # A set-based fixed point would hold n^2 / 2 = 2e8 dominator entries
        # here, and a recursive DFS would exceed Python's recursion limit.
        n = 20_000
        g = make(n, [Edge(i, i + 1, 1.0) for i in range(1, n)], stubborn=(1,))
        idom = build_dominator_tree(g)
        assert idom[1] == VIRTUAL_ROOT
        assert all(idom[v] == v - 1 for v in range(2, n + 1))
        cert = detect_ltp_agents(g, idom)
        assert cert.ltp_agents == (1,)
        assert cert.persuaded[1] == frozenset(range(2, n + 1))


def tree_or_error(build, g):
    """build(g)'s idom items in key order, or the type and nodes of its error."""
    try:
        return list(build(g).items())
    except (NoStubbornAgents, UnreachableNodes) as exc:
        return type(exc), getattr(exc, "nodes", None)


def assert_matches_reference(g):
    idom = build_dominator_tree(g)
    assert list(idom.items()) == list(reference_dominator_tree(g).items())
    position = {v: k for k, v in enumerate(idom)}
    position[VIRTUAL_ROOT] = -1
    assert all(position[d] < position[v] for v, d in idom.items())


def with_self_loops(g, agents):
    loops = tuple(Edge(v, v, 0.5) for v in agents)
    return SignedDigraph(g.n, g.edges + loops, g.beta, g.x0)


@st.composite
def reachable_networks(draw):
    """random_reachable_graph networks, sparse to dense, some all-stubborn,
    some with self-loops."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    density = draw(st.sampled_from([0.03, 0.08, 0.2, 0.4]))
    m = draw(st.one_of(st.none(), st.just(n)))
    g = random_reachable_graph(rng, n=n, density=density, m=m)
    return with_self_loops(g, draw(st.lists(st.integers(1, n), unique=True)))


def irreducible_ladder(rungs, size):
    """Rings of `size` agents, each entered at two points from the ring before
    it, the first from two stubborn agents: one multi-entry loop after another."""
    n = 2 + rungs * size
    edges = []
    for r in range(rungs):
        ring = [3 + r * size + k for k in range(size)]
        edges += [Edge(a, b, 1.0) for a, b in zip(ring, ring[1:] + ring[:1])]
        entries = (1, 2) if r == 0 else (ring[0] - size, ring[0] - 1)
        edges += [Edge(entries[0], ring[0], 1.0), Edge(entries[1], ring[size // 2], 1.0)]
    return make(n, edges, stubborn=(1, 2))


class TestDominatorReference:
    """build_dominator_tree against the plain Cooper-Harvey-Kennedy
    reference: the same idom dict, key order included, and the same errors."""

    @settings(max_examples=300, deadline=None)
    @given(reachable_networks())
    def test_random_networks_match_the_reference(self, g):
        assert_matches_reference(g)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_unrepaired_networks_fail_as_the_reference_does(self, n, data):
        pairs = data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                                   unique=True, max_size=2 * n))
        beta = data.draw(st.lists(st.sampled_from([0.0, 0.5]), min_size=n, max_size=n))
        g = SignedDigraph(n, tuple(Edge(s, d, 1.0) for s, d in pairs), tuple(beta),
                          (0.0,) * n)
        assert tree_or_error(build_dominator_tree, g) == tree_or_error(
            reference_dominator_tree, g)

    @pytest.mark.parametrize("rungs, size", [(1, 3), (4, 5), (30, 7)])
    def test_multi_entry_loops_match_the_reference(self, rungs, size):
        g = irreducible_ladder(rungs, size)
        assert_matches_reference(g)
        assert_matches_reference(with_self_loops(g, range(1, g.n + 1, 3)))

    def test_all_stubborn_network_hangs_off_the_root(self):
        g = random_reachable_graph(np.random.default_rng(5), n=30, density=0.2, m=30)
        assert_matches_reference(g)
        assert set(build_dominator_tree(g).values()) == {VIRTUAL_ROOT}

    def test_long_chain_matches_the_reference(self):
        n = 5000
        assert_matches_reference(
            make(n, [Edge(i, i + 1, 1.0) for i in range(1, n)], stubborn=(1,)))

    @pytest.mark.parametrize("n", [1000, 5000])
    def test_generated_networks_match_the_reference(self, n):
        assert_matches_reference(random_multiconsensus_graph(n, n // 20, seed=n))


class TestDetection:
    def test_g1_memberships(self, g1):
        cert = detect_ltp_agents(g1, build_dominator_tree(g1))
        assert cert.ltp_agents == (2, 5)
        assert cert.persuaded[2] == {3, 4}
        assert cert.persuaded[5] == {6}

    def test_g2_memberships(self, g2):
        cert = detect_ltp_agents(g2, build_dominator_tree(g2))
        assert cert.ltp_agents == (1, 4, 7, 10)
        assert cert.persuaded[1] == {2, 3}
        assert cert.persuaded[4] == {5, 6}
        assert cert.persuaded[7] == {8, 9}
        assert cert.persuaded[10] == {11, 12}

    def test_shared_target_yields_nobody(self):
        g = make(3, [Edge(1, 3, 1.0), Edge(2, 3, 1.0)], stubborn=(1, 2))
        cert = detect_ltp_agents(g, build_dominator_tree(g))
        assert cert.ltp_agents == ()

    def test_single_stubborn_edge(self):
        g = make(2, [Edge(1, 2, 1.0)], stubborn=(1,))
        cert = brute_force_ltp_oracle(g)
        assert cert.ltp_agents == (1,)
        assert cert.persuaded[1] == {2}

    def test_all_stubborn_complete_graph(self):
        edges = [
            Edge(s, d, 1.0) for s in (1, 2, 3) for d in (1, 2, 3) if s != d
        ]
        g = make(3, edges, stubborn=(1, 2, 3))
        cert = detect_ltp_agents(g, build_dominator_tree(g))
        assert cert.ltp_agents == ()
        assert same_detection(cert, brute_force_ltp_oracle(g))

    def test_self_loops_do_not_disturb_detection(self):
        g = make(
            3,
            [Edge(1, 2, 1.0), Edge(2, 3, 1.0), Edge(3, 3, 0.5), Edge(2, 2, -0.4)],
            stubborn=(1,),
        )
        cert = detect_ltp_agents(g, build_dominator_tree(g))
        assert cert.ltp_agents == (1,)
        assert cert.persuaded[1] == {2, 3}
        assert same_certificate(cert, brute_force_ltp_oracle(g))
        # the negative self-loop sits on a persuaded agent, so C2 must flag it
        assert cert.cooperative is False
        assert any(v.node == 2 for v in cert.violations)


class TestOracleEquivalence:
    def test_oracle_refuses_large_inputs(self):
        g = make(13, [Edge(1, i, 1.0) for i in range(2, 14)], stubborn=(1,))
        with pytest.raises(SizeLimit):
            brute_force_ltp_oracle(g)

    def test_oracle_reports_unreachable(self):
        g = make(4, [Edge(1, 2, 1.0), Edge(3, 4, 1.0)], stubborn=(1,))
        with pytest.raises(UnreachableNodes) as err:
            brute_force_ltp_oracle(g)
        assert err.value.nodes == {3, 4}

    def test_matches_dominator_detection_on_random_graphs(self):
        rng = np.random.default_rng(101)
        for _ in range(500):
            g = random_reachable_graph(rng)
            cert = detect_ltp_agents(g, build_dominator_tree(g))
            assert same_certificate(cert, brute_force_ltp_oracle(g))


class TestCertificateProperties:
    @staticmethod
    def assert_disjoint_and_confined(g):
        # Nonempty, disjoint, non-stubborn, and closed under in-neighbours
        # up to the persuader.
        cert = detect_ltp_agents(g, build_dominator_tree(g))
        seen = set()
        inn = in_neighbours(g)
        for p in cert.ltp_agents:
            members = cert.persuaded[p]
            assert members, "persuasive agent with empty persuaded set"
            assert not (members & seen), "persuaded sets overlap"
            seen |= members
            for q in members:
                assert not set(inn[q]) - members - {p}
                assert g.beta[q - 1] == 0.0

    def test_persuaded_sets_disjoint_and_confined(self):
        rng = np.random.default_rng(109)
        for _ in range(100):
            self.assert_disjoint_and_confined(random_reachable_graph(rng))

    @pytest.mark.parametrize("n, z", [(5000, 250), (20000, 1000)])
    def test_persuaded_sets_disjoint_and_confined_at_scale(self, n, z):
        self.assert_disjoint_and_confined(random_multiconsensus_graph(n, z, seed=1))

    def test_detection_ignores_weights_and_signs(self):
        rng = np.random.default_rng(113)
        for _ in range(50):
            g = random_reachable_graph(rng)
            base = detect_ltp_agents(g, build_dominator_tree(g))
            weights = rng.uniform(0.1, 10.0, len(g.edges)) * rng.choice(
                [-1.0, 1.0], len(g.edges)
            )
            scrambled = reweighted(g, weights)
            redo = detect_ltp_agents(scrambled, build_dominator_tree(scrambled))
            assert same_detection(base, redo)


class TestConditions:
    def test_g1_negative_edge_into_persuader_is_fine(self, g1):
        cert = analyze(g1)
        assert cert.cooperative is True

    def test_negative_edge_into_persuaded_agent_flags_c2(self, g1):
        flipped = reweighted(
            g1, [-w if (s, d) == (2, 3) else w for s, d, w in g1.edges]
        )
        cert = analyze(flipped)
        assert cert.cooperative is False
        assert any(v.node == 3 and "negative" in v.reason for v in cert.violations)

    def test_g1_coverage_fails_on_agent_one(self, g1):
        cert = analyze(g1)
        assert cert.covered is False
        assert cert.violations == (Violation(1, "not covered by any persuasive cluster"),)
        assert set(cert.ltp_agents).union(*cert.persuaded.values()) == {2, 3, 4, 5, 6}

    def test_g2_satisfies_both(self, g2):
        cert = analyze(g2)
        assert cert.covered is True and cert.cooperative is True
        assert cert.violations == ()

    @settings(max_examples=300, deadline=None)
    @given(reachable_networks())
    def test_violations_match_a_set_based_check(self, g):
        assert_conditions_match_set_rule(g)

    @pytest.mark.parametrize("perturbed", [False, True], ids=["as-generated", "perturbed"])
    @pytest.mark.parametrize("n, z", [(1000, 50), (5000, 250)])
    def test_conditions_match_the_set_rule_at_scale(self, n, z, perturbed):
        g = random_multiconsensus_graph(n, z, seed=n)
        if perturbed:
            g = with_broken_conditions(g, np.random.default_rng(n))
        cert = assert_conditions_match_set_rule(g)
        assert (cert.covered, cert.cooperative) == (not perturbed,) * 2


def assert_conditions_match_set_rule(g):
    """detect_ltp_agents' C1, C2 and violations against the rule on Python
    sets, read off the same persuaded sets."""
    cert = detect_ltp_agents(g, build_dominator_tree(g))
    expected = conditions_from_sets(g, cert.ltp_agents, cert.persuaded)
    assert (cert.covered, cert.cooperative, cert.violations) == expected
    return cert


def with_broken_conditions(g, rng, k=5):
    """g with k persuaded agents that dominate nobody made stubborn (so they
    stand uncovered) and k in-edges of persuaded agents flipped negative."""
    idom = build_dominator_tree(g)
    leaves = sorted({v for v, d in idom.items() if d != VIRTUAL_ROOT} - set(idom.values()))
    beta = np.array(g.beta)
    beta[rng.choice(leaves, k, replace=False) - 1] = 0.5
    g = reweighted(g, g.w, beta=beta)
    persuaded = set().union(*analyze(g).persuaded.values())
    into = [i for i, d in enumerate(g.dst.tolist()) if d in persuaded and g.w[i] > 0]
    w = np.array(g.w)
    w[rng.choice(into, k, replace=False)] *= -1
    return reweighted(g, w)


class TestPrediction:
    def test_g2_strict_partition(self, g2):
        prediction = predict_clusters(analyze(g2))
        assert set(prediction.clusters) == {
            frozenset({1, 2, 3}),
            frozenset({4, 5, 6}),
            frozenset({7, 8, 9}),
            frozenset({10, 11, 12}),
        }
        assert not prediction.flagged_singletons

    def test_g1_strict_refuses(self, g1):
        with pytest.raises(ConditionsNotMet):
            predict_clusters(analyze(g1), mode="strict")

    def test_g1_relaxed_adds_flagged_singleton(self, g1):
        prediction = predict_clusters(analyze(g1), mode="relaxed")
        assert set(prediction.clusters) == {
            frozenset({2, 3, 4}),
            frozenset({5, 6}),
            frozenset({1}),
        }
        assert prediction.flagged_singletons == {1}

    def test_empty_detection_refuses_strict(self):
        g = make(3, [Edge(1, 3, 1.0), Edge(2, 3, 1.0)], stubborn=(1, 2))
        with pytest.raises(ConditionsNotMet):
            predict_clusters(analyze(g), mode="strict")

    def test_unknown_mode_rejected(self, g2):
        with pytest.raises(ValueError, match="^mode must be 'strict' or 'relaxed', got 'loose'$"):
            predict_clusters(analyze(g2), mode="loose")


class TestSerialization:
    def test_certificate_dict_shape(self, g2):
        data = certificate_to_dict(analyze(g2))
        assert data["ltp"] == [1, 4, 7, 10]
        assert data["persuaded"]["1"] == [2, 3]
        assert data["C1"] is True and data["C2"] is True
        assert data["violations"] == []
