import re

import numpy as np
import pytest

from sfj import (
    ConditionsNotMet,
    UnreachableNodes,
    analyze,
    build_dominator_tree,
    certificate_to_dict,
    check_conditions,
    detect_ltp_agents,
    predict_clusters,
)
from sfj.generator import random_multiconsensus_graph
from sfj.graph import Edge, SignedDigraph
from sfj.ltp import VIRTUAL_ROOT, _check_internal_consistency

from conftest import random_reachable_graph
from oracles import SizeLimit, brute_force_ltp_oracle, in_neighbours, reweighted


def make(n, edges, stubborn, x0=None):
    beta = [0.0] * n
    for s in stubborn:
        beta[s - 1] = 0.5
    return SignedDigraph(n, tuple(edges), tuple(beta), tuple(x0 or [0.0] * n))


class TestDominatorTree:
    def test_chain_domination(self):
        g = make(3, [Edge(1, 2, 1.0), Edge(2, 3, 1.0)], stubborn=(1,))
        tree = build_dominator_tree(g)
        assert tree.idom[2] == 1
        assert tree.idom[3] == 2

    def test_two_disjoint_paths_leave_no_dominator(self):
        g = make(3, [Edge(1, 3, 1.0), Edge(2, 3, 1.0)], stubborn=(1, 2))
        tree = build_dominator_tree(g)
        assert tree.idom[3] == VIRTUAL_ROOT

    def test_stubborn_agents_hang_off_the_root(self):
        g = make(3, [Edge(1, 2, 1.0), Edge(2, 3, 1.0)], stubborn=(1, 3))
        tree = build_dominator_tree(g)
        assert tree.idom[1] == VIRTUAL_ROOT
        assert tree.idom[3] == VIRTUAL_ROOT

    def test_g1_immediate_dominators(self, g1):
        tree = build_dominator_tree(g1)
        assert tree.idom[3] == 2
        assert tree.idom[4] == 3
        assert tree.idom[5] == VIRTUAL_ROOT
        assert tree.idom[6] == 5

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

    @pytest.mark.parametrize("n", [1000, 5000])
    def test_generated_networks_match_networkx(self, n):
        g = random_multiconsensus_graph(n, n // 20, seed=n)
        assert dict(build_dominator_tree(g).idom) == self.networkx_idom(g)

    def test_sparse_cyclic_network_matches_networkx(self):
        g = random_reachable_graph(
            np.random.default_rng(7), n=1000, density=0.002, m=4
        )
        tree = build_dominator_tree(g)
        assert dict(tree.idom) == self.networkx_idom(g)
        assert any(d != VIRTUAL_ROOT for d in tree.idom.values())

    def test_irreducible_loop_entered_from_two_stubborn_agents(self):
        # Cycle 3 -> 4 -> 5 -> 3, entered at 3 from stubborn 1 and at 5 from
        # stubborn 2, with 6 hanging off 4. The first reverse-postorder sweep
        # sees only 1 among the settled predecessors of 3 and sets idom(3) = 1;
        # a second sweep must correct it to the root.
        edges = [
            Edge(1, 3, 1.0), Edge(2, 5, 1.0), Edge(3, 4, 1.0),
            Edge(4, 5, 1.0), Edge(5, 3, 1.0), Edge(4, 6, 1.0),
        ]
        g = make(6, edges, stubborn=(1, 2))
        tree = build_dominator_tree(g)
        assert dict(tree.idom) == {
            1: VIRTUAL_ROOT, 2: VIRTUAL_ROOT, 3: VIRTUAL_ROOT,
            4: 3, 5: VIRTUAL_ROOT, 6: 4,
        }
        cert = detect_ltp_agents(g, tree)
        assert cert.ltp_agents == (3,)
        assert cert.persuaded[3] == {4, 6}
        assert cert.same_detection(brute_force_ltp_oracle(g))

    def test_long_chain_neither_recurses_nor_goes_quadratic(self):
        # A set-based fixed point would hold n^2 / 2 = 2e8 dominator entries
        # here, and a recursive DFS would exceed Python's recursion limit.
        n = 20_000
        g = make(n, [Edge(i, i + 1, 1.0) for i in range(1, n)], stubborn=(1,))
        tree = build_dominator_tree(g)
        assert tree.idom[1] == VIRTUAL_ROOT
        assert all(tree.idom[v] == v - 1 for v in range(2, n + 1))
        cert = detect_ltp_agents(g, tree)
        assert cert.ltp_agents == (1,)
        assert cert.persuaded[1] == frozenset(range(2, n + 1))


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
        assert cert.same_detection(brute_force_ltp_oracle(g))

    def test_self_loops_do_not_disturb_detection(self):
        g = make(
            3,
            [Edge(1, 2, 1.0), Edge(2, 3, 1.0), Edge(3, 3, 0.5), Edge(2, 2, -0.4)],
            stubborn=(1,),
        )
        cert = detect_ltp_agents(g, build_dominator_tree(g))
        assert cert.ltp_agents == (1,)
        assert cert.persuaded[1] == {2, 3}
        assert cert.same_detection(brute_force_ltp_oracle(g))
        # the negative self-loop sits on a persuaded agent, so C2 must flag it
        checked = check_conditions(g, cert)
        assert checked.cooperative is False
        assert any(v.node == 2 for v in checked.violations)


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
            assert cert.same_detection(brute_force_ltp_oracle(g))


class TestCertificateProperties:
    def test_persuaded_sets_disjoint_and_confined(self):
        rng = np.random.default_rng(109)
        for _ in range(100):
            g = random_reachable_graph(rng)
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
            assert base.same_detection(redo)


class TestInternalConsistency:
    """The detection's self-check names the agents or edges at fault."""

    # 1 -> 2 -> 3 <- 4 <- 1 and 4 -> 5; edge 4 is 4 -> 3.
    EDGES = [Edge(1, 2, 1.0), Edge(2, 3, 1.0), Edge(1, 4, 1.0), Edge(4, 5, 1.0),
             Edge(4, 3, 1.0)]

    def check(self, persuaded, stubborn=(1,)):
        g = make(5, self.EDGES, stubborn)
        persuaded = {p: frozenset(members) for p, members in persuaded.items()}
        _check_internal_consistency(g, frozenset(g.stubborn), persuaded)

    def test_closed_disjoint_sets_pass(self):
        self.check({1: {2, 3, 4, 5}})
        self.check({4: {5}})
        self.check({})

    @pytest.mark.parametrize("persuaded, stubborn, message", [
        ({1: set(), 4: {5}}, (1,), "empty persuaded set recorded for [1]"),
        ({2: {3}, 4: {3, 5}}, (1,), "persuaded sets of [2 4] overlap at [3]"),
        ({1: {2, 4}}, (1, 4), "stubborn agents [4] persuaded by [1]"),
        ({2: {3}}, (1,), "edges [4] escape a persuaded set"),
    ])
    def test_a_violation_names_what_is_at_fault(self, persuaded, stubborn, message):
        with pytest.raises(AssertionError, match=re.escape(message)):
            self.check(persuaded, stubborn)


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
        assert any(v.node == 1 and "covered" in v.reason for v in cert.violations)
        assert cert.covered_set() == {2, 3, 4, 5, 6}

    def test_g2_satisfies_both(self, g2):
        cert = analyze(g2)
        assert cert.covered is True and cert.cooperative is True
        assert cert.violations == ()


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

    def test_unchecked_certificate_rejected(self, g2):
        cert = detect_ltp_agents(g2, build_dominator_tree(g2))
        with pytest.raises(ValueError, match="condition flags"):
            predict_clusters(cert)


class TestSerialization:
    def test_certificate_dict_shape(self, g2):
        data = certificate_to_dict(analyze(g2))
        assert data["ltp"] == [1, 4, 7, 10]
        assert data["persuaded"]["1"] == [2, 3]
        assert data["C1"] is True and data["C2"] is True
        assert data["violations"] == []
