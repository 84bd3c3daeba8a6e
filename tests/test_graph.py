import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfj import (
    GraphFormatError,
    GraphValidationError,
    NoStubbornAgents,
    check_reachability,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    normalize,
    save_graph,
)
from sfj.graph import ROW_SUM_TOL, Edge, SignedDigraph

from conftest import brute_force_reachable, graph_dicts, random_reachable_graph
from oracles import loop_graph_from_dict, reweighted


def make(n, edges, stubborn=(1,), x0=None):
    beta = [0.0] * n
    for s in stubborn:
        beta[s - 1] = 0.5
    return SignedDigraph(n, tuple(edges), tuple(beta), tuple(x0 or [0.0] * n))


def loop_adjacency(g):
    """Reference adjacency: one assignment per edge."""
    a = np.zeros((g.n, g.n))
    for src, dst, w in g.edges:
        a[dst - 1, src - 1] = w
    return a


def loop_normalized_weights(g):
    """Reference W: normalize's arithmetic with the self-loop fallback per agent."""
    a = loop_adjacency(g)
    totals = np.abs(a).sum(axis=1)
    w = np.zeros_like(a)
    has_in = totals > 0.0
    w[has_in] = a[has_in] / totals[has_in, None]
    for i in np.flatnonzero(~has_in):
        w[i, i] = 1.0
    return w


@st.composite
def signed_digraphs(draw):
    """Small graphs with self-loops, signed weights of any magnitude and, often,
    agents without in-edges."""
    n = draw(st.integers(1, 8))
    ends = st.tuples(st.integers(1, n), st.integers(1, n))
    pairs = draw(st.lists(ends, unique=True, max_size=2 * n))
    weight = st.floats(-1e6, 1e6, allow_nan=False).filter(lambda w: w != 0.0)
    edges = tuple(Edge(s, d, draw(weight)) for s, d in pairs)
    beta = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return SignedDigraph(n, edges, tuple(beta), (0.0,) * n)


class TestNormalize:
    @settings(max_examples=300, deadline=None)
    @given(signed_digraphs())
    def test_array_build_is_bit_identical_to_the_edge_loop(self, g):
        assert g.adjacency().tobytes() == loop_adjacency(g).tobytes()
        sysm = normalize(g)
        assert sysm.W.tobytes() == loop_normalized_weights(g).tobytes()
        assert sysm.beta.tobytes() == np.array(g.beta).tobytes()

    def test_edge_index_is_zero_based_in_edge_order(self):
        g = make(3, [Edge(3, 1, 2.0), Edge(2, 2, -1.0), Edge(1, 3, 0.5)])
        src, dst = g.edge_index
        assert src.tolist() == [2, 1, 0] and dst.tolist() == [0, 1, 2]
        src, dst = make(2, []).edge_index
        assert src.size == dst.size == 0

    def test_opposite_signs_split_evenly(self):
        g = make(3, [Edge(2, 1, 2.0), Edge(3, 1, -2.0)])
        w = normalize(g).W
        assert w[0, 1] == pytest.approx(0.5)
        assert w[0, 2] == pytest.approx(-0.5)

    def test_isolated_agent_gets_self_loop(self):
        g = make(2, [Edge(1, 2, 1.0)])
        w = normalize(g).W
        assert w[0, 0] == 1.0
        assert w[0, 1] == 0.0

    def test_row_magnitudes_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = random_reachable_graph(rng)
            w = normalize(g).W
            assert np.max(np.abs(np.abs(w).sum(axis=1) - 1.0)) <= ROW_SUM_TOL

    def test_invariant_under_positive_row_rescaling(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            g = random_reachable_graph(rng)
            scales = {i: rng.uniform(0.1, 50.0) for i in range(1, g.n + 1)}
            rescaled = reweighted(g, [e.weight * scales[e.dst] for e in g.edges])
            assert np.max(np.abs(normalize(g).W - normalize(rescaled).W)) <= ROW_SUM_TOL

    def test_sign_and_support_match_edges(self):
        rng = np.random.default_rng(13)
        g = random_reachable_graph(rng)
        w = normalize(g).W
        by_pair = {(e.dst, e.src): e.weight for e in g.edges}
        has_in = {e.dst for e in g.edges}
        for i in range(1, g.n + 1):
            for j in range(1, g.n + 1):
                if (i, j) in by_pair:
                    assert np.sign(w[i - 1, j - 1]) == np.sign(by_pair[(i, j)])
                elif i == j and i not in has_in:
                    assert w[i - 1, j - 1] == 1.0
                else:
                    assert w[i - 1, j - 1] == 0.0


class TestReachability:
    def test_chain_reaches_everything(self):
        g = make(3, [Edge(1, 2, 1.0), Edge(2, 3, 1.0)])
        report = check_reachability(g)
        assert report.ok and g.m == 1

    def test_stubborn_free_component_reported(self):
        g = make(4, [Edge(1, 2, 1.0), Edge(3, 4, 1.0)])
        report = check_reachability(g)
        assert not report.ok
        assert report.unreachable == {3, 4}

    def test_all_stubborn_holds_vacuously(self):
        g = make(3, [], stubborn=(1, 2, 3))
        assert check_reachability(g).ok

    def test_no_stubborn_agents_rejected(self):
        g = SignedDigraph(2, (Edge(1, 2, 1.0),), (0.0, 0.0), (0.0, 0.0))
        with pytest.raises(NoStubbornAgents):
            check_reachability(g)

    def test_matches_brute_force_closure(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            edges = [
                Edge(s, d, 1.0)
                for s in range(1, n + 1)
                for d in range(1, n + 1)
                if s != d and rng.random() < 0.25
            ]
            beta = np.zeros(n)
            stub = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n + 1)),
                              replace=False)
            beta[stub - 1] = 1.0
            g = SignedDigraph(n, tuple(edges), tuple(beta), tuple(np.zeros(n)))
            assert set(check_reachability(g).unreachable) == brute_force_reachable(g)


class TestValidation:
    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphValidationError, match="duplicate"):
            make(2, [Edge(1, 2, 1.0), Edge(1, 2, 2.0)])

    def test_zero_weight_rejected(self):
        with pytest.raises(GraphValidationError, match="zero weight"):
            make(2, [Edge(1, 2, 0.0)])

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(GraphValidationError, match="outside"):
            make(2, [Edge(1, 3, 1.0)])

    def test_beta_outside_unit_interval_rejected(self):
        with pytest.raises(GraphValidationError, match="stubbornness"):
            SignedDigraph(1, (), (1.5,), (0.0,))

    def test_length_mismatch_rejected(self):
        with pytest.raises(GraphValidationError, match="length"):
            SignedDigraph(2, (), (0.5,), (0.0, 0.0))

    def test_nan_weight_rejected(self):
        with pytest.raises(GraphValidationError, match="non-finite weight"):
            make(2, [Edge(1, 2, float("nan"))])

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (3, [(1.5, 2, 1.0)], r"edge \(1\.5, 2\) has an end that is not an integer"),
            (3, [(1, 2, 1.0), (1, 2.5, 1.0)], r"edge \(1, 2\.5\) has an end that is not"),
            (3, [(float("nan"), 2, 1.0)], r"edge \(nan, 2\) has an end that is not"),
            (2.0, [(1, 2, 1.0)], "n must be an integer, got 2.0"),
        ],
        ids=["fractional-end", "fractional-next-to-integral", "nan-end", "float-n"],
    )
    @pytest.mark.filterwarnings("error")  # no RuntimeWarning from casting a NaN
    def test_non_integral_agent_count_and_edge_ends_rejected(self, n, edges, message):
        with pytest.raises(GraphValidationError, match=message):
            SignedDigraph(n, edges, (0.5, 0.0, 0.0)[: int(n)], (0.0,) * int(n))

    def test_numpy_integer_n_is_stored_as_int(self):
        g = SignedDigraph(np.int64(2), [(1, 2, 1.0)], (0.5, 0.0), (0.0, 0.0))
        assert type(g.n) is int
        assert json.loads(json.dumps(graph_to_dict(g)))["n"] == 2

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_x0_rejected(self, bad):
        with pytest.raises(GraphValidationError, match="non-finite x0"):
            make(2, [Edge(1, 2, 1.0)], x0=[0.0, bad])


class TestJsonIO:
    def test_round_trip(self, tmp_path, g2):
        path = tmp_path / "g.json"
        save_graph(g2, path)
        assert load_graph(path) == g2

    def test_dict_round_trip_via_json_text(self, g1):
        text = json.dumps(graph_to_dict(g1))
        assert graph_from_dict(json.loads(text)) == g1

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2,\n  "agents": [}')
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph(path)

    def test_missing_field_reported(self):
        with pytest.raises(GraphFormatError, match="missing"):
            graph_from_dict({"n": 1, "agents": []})

    def test_missing_agent_entry_reported(self):
        with pytest.raises(GraphFormatError, match="missing from file"):
            graph_from_dict(
                {"n": 2, "agents": [{"id": 1, "beta": 0.5, "x0": 0.0}], "edges": []}
            )

    @pytest.mark.parametrize("n", ["x", None, [2]])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(GraphFormatError, match="'n' must be an integer"):
            graph_from_dict({"n": n, "agents": [], "edges": []})

    @pytest.mark.parametrize(
        "entry, key, value",
        [
            ("agent", "id", "x"),
            ("agent", "id", float("inf")),
            ("agent", "x0", 10**400),
            ("edge", "from", float("inf")),
        ],
    )
    def test_unconvertible_numbers_are_format_errors(self, entry, key, value):
        agent = {"id": 1, "beta": 0.5, "x0": 0.0}
        edge = {"from": 1, "to": 1, "w": 1.0}
        {"agent": agent, "edge": edge}[entry][key] = value
        with pytest.raises(GraphFormatError):
            graph_from_dict({"n": 1, "agents": [agent], "edges": [edge]})

    def test_huge_n_rejected_before_allocation(self):
        data = {"n": 10**12, "agents": [{"id": 1, "beta": 0.5, "x0": 0.0}], "edges": []}
        with pytest.raises(GraphFormatError, match="missing from file"):
            graph_from_dict(data)

    @pytest.mark.parametrize(
        "entry, key, value",
        [
            ("graph", "n", 2.7),
            ("graph", "n", True),
            ("agent", "id", 1.9),
            ("agent", "id", True),
            ("edge", "from", 1.5),
            ("edge", "to", True),
            ("agent", "beta", True),
            ("agent", "x0", False),
            ("edge", "w", True),
        ],
    )
    def test_bools_and_non_integral_ids_are_format_errors(self, entry, key, value):
        agent = {"id": 1, "beta": 0.5, "x0": 0.0}
        edge = {"from": 1, "to": 1, "w": 1.0}
        data = {"n": 1, "agents": [agent], "edges": [edge]}
        {"graph": data, "agent": agent, "edge": edge}[entry][key] = value
        with pytest.raises(GraphFormatError):
            graph_from_dict(data)

    def test_integral_floats_count_as_ids(self, g1):
        data = graph_to_dict(g1)
        data["n"] = float(data["n"])
        for entry in data["agents"]:
            entry["id"] = float(entry["id"])
        for entry in data["edges"]:
            entry["from"], entry["to"] = float(entry["from"]), float(entry["to"])
        assert graph_from_dict(data) == g1

    def test_columns_are_read_only_and_edges_is_their_view(self, g2):
        for column in (g2.src, g2.dst, g2.w):
            assert not column.flags.writeable
        assert g2.src.dtype == g2.dst.dtype == np.int64 and g2.w.dtype == np.float64
        assert g2.edges == tuple(
            Edge(int(s), int(d), float(w)) for s, d, w in zip(g2.src, g2.dst, g2.w)
        )

    @settings(max_examples=400, deadline=None)
    @given(graph_dicts())
    def test_matches_the_per_entry_loader(self, data):
        try:
            expected = loop_graph_from_dict(data)
        except (GraphFormatError, GraphValidationError) as exc:
            with pytest.raises(type(exc)) as got:
                graph_from_dict(data)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
        else:
            assert graph_from_dict(data) == expected

    def test_semantic_errors_still_validated(self):
        data = {
            "n": 2,
            "agents": [
                {"id": 1, "beta": 0.5, "x0": 0.0},
                {"id": 2, "beta": 0.0, "x0": 0.0},
            ],
            "edges": [{"from": 1, "to": 2, "w": 0.0}],
        }
        with pytest.raises(GraphValidationError, match="zero weight"):
            graph_from_dict(data)
