import pytest

import sfj

from oracles import build_steady_state

# Test oracles live in tests/oracles.py, among them the steady-state
# reduction (build_steady_state, reduce_persuaded_set and their classes), as
# the package checks clusters through V's equal rows; abs_matrix and
# cluster_report were deleted outright (np.abs, and clusters_from_influence),
# as were check_reachability and its ReachabilityReport (build_dominator_tree
# and the influence solve's gate each raise UnreachableNodes). DominatorTree
# was deleted too: build_dominator_tree returns its idom dict. So were
# cluster_spread, a second route to verify's worst_spread, and
# write_trace_csv: simulate(g, out=fh) writes the same trace. check_conditions
# went too: detect_ltp_agents evaluates C1 and C2 in its own pass.
NOT_EXPORTED = (
    "ClusterReport",
    "DominatorTree",
    "HypothesisViolated",
    "ReachabilityReport",
    "ReducedRowRelation",
    "SingularSystem",
    "SizeLimit",
    "SteadyStateSystem",
    "abs_matrix",
    "brute_force_ltp_oracle",
    "build_steady_state",
    "check_conditions",
    "check_reachability",
    "cluster_report",
    "cluster_spread",
    "dense_reduction",
    "neumann_influence",
    "neumann_tail_bound",
    "neumann_terms_for",
    "reduce_persuaded_set",
    "reduce_steady_state",
    "schur_complement",
    "sfj_step",
    "spectral_radius",
    "write_trace_csv",
)


@pytest.mark.parametrize("name", sfj.__all__)
def test_exported_name_resolves(name):
    assert getattr(sfj, name) is not None


@pytest.mark.parametrize("name", NOT_EXPORTED)
def test_test_only_name_is_not_exported(name):
    assert name not in sfj.__all__
    assert not hasattr(sfj, name)


def test_reweighting_is_not_a_graph_method():
    assert not hasattr(sfj.SignedDigraph, "reweighted")
    assert not hasattr(sfj.SignedDigraph, "adjacency")


def test_no_dense_view_of_a_system():
    # W and I - M are rebuilt densely only in tests/oracles.py.
    assert not hasattr(sfj.NormalizedSystem, "W")
    assert not hasattr(sfj.NormalizedSystem, "system_matrix")


# Two graphs the guarantee does not cover: one with no stubborn agent, and
# one whose agent 3 has no in-edge. The oracle build_steady_state gates as
# influence_matrix does.
FAILED_HYPOTHESES = {
    "no-stubborn": (
        sfj.SignedDigraph(2, ((1, 2, 1.0),), (0.0, 0.0), (0.0, 1.0)),
        sfj.NoStubbornAgents,
    ),
    "unreached": (
        sfj.SignedDigraph(3, ((1, 2, 1.0),), (0.5, 0.0, 0.0), (1.0, 0.0, 0.0)),
        sfj.UnreachableNodes,
    ),
}


@pytest.mark.parametrize(
    "call",
    [sfj.influence_matrix, build_steady_state, sfj.analyze, sfj.robustness_harness],
    ids=lambda call: call.__name__,
)
@pytest.mark.parametrize("kind", FAILED_HYPOTHESES)
def test_failed_hypothesis_is_conditions_not_met(kind, call):
    g, expected = FAILED_HYPOTHESES[kind]
    with pytest.raises(expected) as info:
        call(g)
    assert isinstance(info.value, sfj.ConditionsNotMet)
