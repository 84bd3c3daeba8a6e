import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfj import (
    GraphFormatError,
    GraphValidationError,
    NoStubbornAgents,
    UnreachableNodes,
    build_dominator_tree,
    graph_from_dict,
    graph_to_dict,
    influence_matrix,
    load_graph,
    normalize,
    save_graph,
)
from sfj.graph import Edge, SignedDigraph, _normalized, _postorder

from conftest import graph_dicts, random_reachable_graph
from oracles import (
    dense_system,
    dense_weights,
    loop_graph_from_dict,
    reweighted,
    text_load_graph,
    unreached_by_stubborn,
    unreached_in_block,
    update_matrix,
)

ROW_SUM_TOL = 1e-12  # double precision headroom for n up to ~1e4 accumulations


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
    """Reference W: each in-weight total added up one edge at a time, in edge
    order, then each in-edge weight over its total; the self-loop fallback
    for each agent with no in-edge."""
    totals = [0.0] * g.n
    for _, dst, w in g.edges:
        totals[dst - 1] += abs(w)
    w = np.zeros((g.n, g.n))
    for src, dst, weight in g.edges:
        w[dst - 1, src - 1] = weight / totals[dst - 1]
    for i in range(g.n):
        if totals[i] == 0.0:
            w[i, i] = 1.0
    return w


def row_sum_normalized_weights(g):
    """W with each in-weight total taken as a row sum of the dense adjacency,
    which numpy adds up in its own order."""
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
        sysm = normalize(g)
        W = dense_weights(sysm)
        assert W.tobytes() == loop_normalized_weights(g).tobytes()
        assert sysm.beta.tobytes() == np.array(g.beta).tobytes()
        assert np.max(np.abs(W - row_sum_normalized_weights(g))) <= ROW_SUM_TOL
        dense = np.eye(g.n) - update_matrix(sysm)
        assert dense_system(sysm).tobytes() == dense.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(signed_digraphs(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_stacked_systems_equal_each_trial_alone(self, g, trials, seed):
        rng = np.random.default_rng(seed)
        src, dst = g.edge_index
        w = np.vstack([g.w, np.sign(g.w) * rng.uniform(0.1, 10.0, (trials - 1, g.w.size))])
        beta = np.vstack([g.beta, rng.uniform(0.0, 1.0, (trials - 1, g.n))])
        stacked = _normalized(g.n, src, dst, w, beta)
        for t in range(trials):
            alone = _normalized(g.n, src, dst, w[t], beta[t])
            assert np.array_equal(stacked.rows, alone.rows)
            assert np.array_equal(stacked.cols, alone.cols)
            for got, want in ((stacked.vals[t], alone.vals),
                              (dense_weights(stacked)[t], dense_weights(alone)),
                              (update_matrix(stacked)[t], update_matrix(alone)),
                              (dense_system(stacked)[t], dense_system(alone))):
                assert got.tobytes() == want.tobytes()

    def test_arrays_are_read_only(self, g2):
        sysm = normalize(g2)
        sysm.update_entries()
        for array in (sysm.rows, sysm.cols, sysm.vals, sysm.beta):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_edge_index_is_zero_based_in_edge_order(self):
        g = make(3, [Edge(3, 1, 2.0), Edge(2, 2, -1.0), Edge(1, 3, 0.5)])
        src, dst = g.edge_index
        assert src.tolist() == [2, 1, 0] and dst.tolist() == [0, 1, 2]
        src, dst = make(2, []).edge_index
        assert src.size == dst.size == 0

    def test_opposite_signs_split_evenly(self):
        g = make(3, [Edge(2, 1, 2.0), Edge(3, 1, -2.0)])
        w = dense_weights(normalize(g))
        assert w[0, 1] == pytest.approx(0.5)
        assert w[0, 2] == pytest.approx(-0.5)

    def test_isolated_agent_gets_self_loop(self):
        g = make(2, [Edge(1, 2, 1.0)])
        w = dense_weights(normalize(g))
        assert w[0, 0] == 1.0
        assert w[0, 1] == 0.0

    def test_row_magnitudes_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = random_reachable_graph(rng)
            w = dense_weights(normalize(g))
            assert np.max(np.abs(np.abs(w).sum(axis=1) - 1.0)) <= ROW_SUM_TOL

    def test_invariant_under_positive_row_rescaling(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            g = random_reachable_graph(rng)
            scales = {i: rng.uniform(0.1, 50.0) for i in range(1, g.n + 1)}
            rescaled = reweighted(g, [e.weight * scales[e.dst] for e in g.edges])
            gap = dense_weights(normalize(g)) - dense_weights(normalize(rescaled))
            assert np.max(np.abs(gap)) <= ROW_SUM_TOL

    def test_sign_and_support_match_edges(self):
        rng = np.random.default_rng(13)
        g = random_reachable_graph(rng)
        w = dense_weights(normalize(g))
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


def unreached_by_detection(g):
    """The agents build_dominator_tree names as unreached; empty if it builds."""
    try:
        build_dominator_tree(g)
    except UnreachableNodes as exc:
        return exc.nodes
    return frozenset()


class TestReachability:
    """Detection's own reachability check: build_dominator_tree names every
    non-stubborn agent no stubborn agent reaches."""

    def test_chain_reaches_everything(self):
        g = make(3, [Edge(1, 2, 1.0), Edge(2, 3, 1.0)])
        assert not unreached_by_detection(g) and g.m == 1

    def test_stubborn_free_component_reported(self):
        g = make(4, [Edge(1, 2, 1.0), Edge(3, 4, 1.0)])
        assert unreached_by_detection(g) == {3, 4}

    def test_all_stubborn_holds_vacuously(self):
        g = make(3, [], stubborn=(1, 2, 3))
        assert not unreached_by_detection(g)

    def test_no_stubborn_agents_rejected(self):
        g = SignedDigraph(2, (Edge(1, 2, 1.0),), (0.0, 0.0), (0.0, 0.0))
        with pytest.raises(NoStubbornAgents):
            build_dominator_tree(g)

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
            assert unreached_by_detection(g) == unreached_by_stubborn(g)


@st.composite
def searches(draw):
    """A digraph on 0..n-1 with self-loops, its ascending successor lists,
    roots in a drawn order (repeats included) and agents marked seen before."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    pairs = sorted(draw(st.lists(st.tuples(node, node), unique=True, max_size=3 * n)))
    roots = draw(st.lists(node, max_size=2 * n))
    seen = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return n, pairs, roots, seen


class TestPostorder:
    @settings(max_examples=300, deadline=None)
    @given(searches())
    def test_matches_networkx_tree_by_tree(self, case):
        nx = pytest.importorskip("networkx")
        n, pairs, roots, seen = case
        graph_ = nx.DiGraph()
        graph_.add_nodes_from(range(n))
        graph_.add_edges_from(pairs)  # sorted, so each node's successors ascend
        bounds = np.cumsum([0] + [sum(u == v for u, _ in pairs) for v in range(n)]).tolist()
        visited = [v for v in range(n) if seen[v]]
        post, trees = [], [0]
        for root in roots:  # each tree is a search of what is left unseen
            if root not in visited:
                left = graph_.subgraph(set(range(n)) - set(visited))
                tree = list(nx.dfs_postorder_nodes(left, root))
                post += tree
                visited += tree
                trees.append(len(post))
        marks = list(seen)
        assert _postorder(bounds, [v for _, v in pairs], roots, marks) == (post, trees)
        assert marks == [v in visited for v in range(n)]


class TestUnreached:
    @settings(max_examples=300, deadline=None)
    @given(signed_digraphs(), st.data())
    def test_matches_the_descendants_of_the_entries(self, g, data):
        nx = pytest.importorskip("networkx")
        block = data.draw(st.sets(st.integers(1, g.n)))
        inner = nx.DiGraph()
        inner.add_nodes_from(block)
        inner.add_edges_from((s, d) for s, d, _ in g.edges if s in block and d in block)
        entries = {d for s, d, _ in g.edges if d in block and s not in block}
        reached = entries.union(*(nx.descendants(inner, v) for v in entries))
        assert unreached_in_block(g.n, g.src, g.dst, block) == frozenset(block) - reached


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

    def test_no_agents_rejected(self):
        with pytest.raises(GraphValidationError, match="^need at least one agent, got n=0$"):
            SignedDigraph(0, (), (), ())

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

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_in_weights_summing_past_the_float_range_rejected(self, sign):
        # Each weight is finite, but agent 2's total is not: normalized by it,
        # agent 2's row of W would be all zeros.
        edges = [Edge(1, 2, 1e308), Edge(3, 2, sign * 1e308), Edge(2, 3, 1.0)]
        with pytest.raises(GraphValidationError, match="agent 2's in-weight"):
            make(3, edges, stubborn=(1, 3))
        # At 1e300 the total fits, and agent 2 settles between its two leaders.
        g = make(3, [Edge(1, 2, 1e300), Edge(3, 2, 1e300)], stubborn=(1, 3), x0=[1, 0, 3])
        assert np.array_equal(dense_weights(normalize(g))[1], [0.5, 0.0, 0.5])
        assert influence_matrix(g)[1] @ g.x0[g.beta > 0] == pytest.approx(2.0)

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

    def test_beta_and_x0_are_read_only_columns_of_their_own(self, g2):
        beta, x0 = np.array(g2.beta), np.array(g2.x0)  # writable, as a caller's may be
        g = SignedDigraph(g2.n, g2.edges, beta, x0)
        for column in (g.beta, g.x0):
            assert column.dtype == np.float64 and not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
        assert not np.shares_memory(g.beta, beta) and not np.shares_memory(g.x0, x0)
        beta[:], x0[:] = 1.0, -1.0
        assert g == g2 and g.stubborn == g2.stubborn == (7, 10)
        assert all(type(i) is int for i in g.stubborn)
        assert SignedDigraph(g2.n, g2.edges, beta, g2.x0) != g2
        assert SignedDigraph(g2.n, g2.edges, g2.beta, x0) != g2
        agents = graph_to_dict(g)["agents"]
        assert all(type(a["beta"]) is float and type(a["x0"]) is float for a in agents)
        assert [a["beta"] for a in agents] == g2.beta.tolist()

    def test_equality_compares_the_columns(self, g2):
        edges = [(s, d, w) for s, d, w in zip(g2.src, g2.dst, g2.w)]
        same = SignedDigraph(g2.n, edges, g2.beta, g2.x0)
        shuffled = SignedDigraph(g2.n, edges[::-1], g2.beta, g2.x0)
        assert same == g2 and shuffled != g2
        assert all("edges" not in g.__dict__ for g in (g2, same, shuffled))

    @settings(max_examples=400, deadline=None)
    @given(graph_dicts())
    @example({"n": 1, "agents": [{"id": 1, "beta": 0.5, "x0": 0.0}],
              "edges": [{"from": 10**400, "to": 1, "w": 0.0}]})
    @example([])  # not an object
    @example({"n": 1, "agents": {"1": {"beta": 0.5, "x0": 0.0}}, "edges": []})
    @example({"n": 2, "agents": [{"id": 1, "beta": 0.5, "x0": 0.0},
                                 {"id": 1, "beta": 0.5, "x0": 0.0},
                                 {"id": 2, "beta": 0.0, "x0": 1.0}], "edges": []})
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


def _outcome(load, path):
    """load(path), or the type and message of what it raised."""
    try:
        return load(path)
    except Exception as exc:
        return type(exc), str(exc)


def _bits(g):
    return [np.asarray(c, dtype=float).view(np.uint64).tolist()
            for c in (g.w, g.beta, g.x0)]


def assert_loads_as_oracle(path):
    """load_graph gives the oracle's graph, bit for bit, or its error."""
    want = _outcome(text_load_graph, path)
    got = _outcome(load_graph, path)
    assert got == want
    if isinstance(want, SignedDigraph):
        assert _bits(got) == _bits(want)


def one_in_edge_each(x0, w):
    """A file of len(x0) agents, agent i on a self-loop of weight w[i], with
    every number written as the given text: no row sum can overflow."""
    agents = ", ".join(f'{{"id": {i + 1}, "beta": 0.0, "x0": {x}}}' for i, x in enumerate(x0))
    edges = ", ".join(f'{{"from": {i + 1}, "to": {i + 1}, "w": {v}}}' for i, v in enumerate(w))
    return f'{{"n": {len(x0)}, "agents": [{agents}], "edges": [{edges}]}}'


G1_TEXT = '{"n": 1, "agents": [{"id": 1, "beta": 0.5, "x0": 2.0}], "edges": []}'


class TestLoadMatchesTextOracle:
    """load_graph parses with orjson and falls back to the standard library;
    either way it must load what the text-mode json.load loader loaded."""

    @settings(max_examples=300, deadline=None)
    @given(graph_dicts())
    def test_graph_dicts(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("load") / "g.json"
        path.write_text(json.dumps(data))  # NaN, Infinity and 10**400 as json writes them
        assert_loads_as_oracle(path)

    @pytest.mark.parametrize("style", [repr, "%.17g".__mod__, "%.15e".__mod__],
                             ids=["repr", "%.17g", "%.15e"])
    def test_random_float_bit_patterns(self, tmp_path, style):
        bits = np.random.default_rng(7).integers(0, 2**64, 4000, dtype=np.uint64)
        values = bits.view(np.float64)
        texts = list(map(style, values[np.isfinite(values) & (values != 0.0)].tolist()))
        path = tmp_path / "g.json"
        path.write_text(one_in_edge_each(texts, texts[::-1]))
        g = load_graph(path)
        assert _bits(g)[0] == np.array(list(map(float, texts[::-1]))).view(np.uint64).tolist()
        assert_loads_as_oracle(path)

    def test_integers_beyond_64_bits(self, tmp_path):
        rng = np.random.default_rng(8)
        mantissas = rng.integers(2**52, 2**53, 300).tolist()
        shifts = rng.integers(12, 80, 300).tolist()
        big = [(m << s) + (1 << (s - 1)) + d  # near a halfway point of the float grid
               for m, s, d in zip(mantissas, shifts, rng.integers(-1, 2, 300).tolist())]
        big += [2**64 - 1, 2**64, 2**64 + 1, 10**30, -(2**63) - 1, -(2**64) + 1]
        signed = [v if k % 3 else -v for k, v in enumerate(big)]
        path = tmp_path / "g.json"
        path.write_text(one_in_edge_each(list(map(str, signed)), list(map(str, signed[::-1]))))
        assert_loads_as_oracle(path)

    @pytest.mark.parametrize("raw", [
        b"\xef\xbb\xbf" + G1_TEXT.encode(),
        G1_TEXT.replace('"n"', '"\\ud800": 0, "n"').encode(),
        G1_TEXT.replace('"x0": 2.0', '"x0": "\\ud800"').encode(),
        G1_TEXT.encode() + b"\xff",
        G1_TEXT.replace("2.0", "\xe9").encode("latin-1"),
        b"[" * 100_000,
        G1_TEXT.replace("2.0", "NaN").encode(),
        G1_TEXT.replace("2.0", "-Infinity").encode(),
        G1_TEXT.replace("2.0", "1e400").encode(),
        G1_TEXT.replace('"n": 1', '"n": ' + "[" * 100_000 + "]" * 100_000).encode(),
    ], ids=["bom", "lone-surrogate-key", "lone-surrogate-x0", "invalid-utf8-tail",
            "latin-1", "deep", "nan", "-infinity", "1e400", "deep-n"])
    def test_refused_inputs(self, tmp_path, raw):
        path = tmp_path / "g.json"
        path.write_bytes(raw)
        assert_loads_as_oracle(path)

    @pytest.mark.parametrize("newline", ["\r", "\r\n"])
    def test_error_position_under_universal_newlines(self, tmp_path, newline):
        path = tmp_path / "bad.json"
        path.write_bytes(f'{{"n": 2,{newline}{newline}  "agents": [}}'.encode())
        assert_loads_as_oracle(path)
        with pytest.raises(GraphFormatError, match="line 3 column 14"):
            load_graph(path)

    @pytest.mark.parametrize("depth", [1000, 10_000])
    def test_deeply_nested_ignored_key_loads(self, tmp_path, depth):
        # The standard library raised RecursionError near the interpreter's
        # recursion limit (about 970 levels at the default); orjson parses
        # this, so it is the one input that loads now and did not before.
        path = tmp_path / "g.json"
        path.write_text(G1_TEXT.replace('"n"', '"pad": ' + "[" * depth + "]" * depth + ', "n"'))
        assert load_graph(path) == SignedDigraph(1, [], [0.5], [2.0])

    @pytest.mark.parametrize("text, fallback", [
        (G1_TEXT, False),
        (G1_TEXT.replace("2.0", str(2**64 - 2**11)), False),  # the float below 2**64
        (G1_TEXT.replace("2.0", str(2**64)), True),
        (G1_TEXT.replace("2.0", "NaN"), True),
        (G1_TEXT.replace('"n"', '"m"'), True),
    ], ids=["clean", "below-2**64", "2**64", "nan", "missing-n"])
    def test_standard_library_parses_only_on_the_fallback_rule(
        self, tmp_path, monkeypatch, text, fallback
    ):
        path = tmp_path / "g.json"
        path.write_text(text)
        calls = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda s, **kw: calls.append(s) or loads(s, **kw))
        _outcome(load_graph, path)
        assert calls == ([text] if fallback else [])
