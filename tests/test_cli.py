import contextlib
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfj import (
    cli,
    dynamics,
    load_graph,
    networks,
    random_multiconsensus_graph,
    save_graph,
    verification,
)
from sfj.cli import (
    EXIT_CONDITIONS,
    EXIT_MEMORY,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    main,
)
from sfj.errors import (
    ConditionsNotMet,
    GraphFormatError,
    GraphValidationError,
    InfeasibleParameters,
    NoStubbornAgents,
    NotConverged,
    SFJError,
    SingularBlock,
    UnreachableNodes,
)
from sfj.graph import Edge, SignedDigraph, graph_to_dict

from conftest import (
    g2_times_1e5,
    graph_dicts,
    merge_when_agent_7_leads_agent_1,
    settle_nothing,
    slow_spiral,
    unreached_positive_class,
)

FIXTURES = Path(__file__).resolve().parent.parent / "networks"


@pytest.fixture
def g1_path(tmp_path):
    path = tmp_path / "g1.json"
    save_graph(networks.g1(), path)
    return str(path)


@pytest.fixture
def g2_path(tmp_path):
    path = tmp_path / "g2.json"
    save_graph(networks.g2(), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_bundled_fixture_files_are_current(self):
        assert load_graph(FIXTURES / "g1.json") == networks.g1()
        assert load_graph(FIXTURES / "g2.json") == networks.g2()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("x0, code, err", [
        (0.0, EXIT_OK, ""),
        (math.nan, EXIT_PARSE, "sfj: error: agent 2 has non-finite x0 nan\n"),
    ], ids=["clean", "nan-x0"])
    def test_graph_read_from_a_pipe(self, tmp_path, x0, code, err):
        # The file is read once: opening a pipe a second time, say to parse
        # it again with the standard library, waits for a writer that never
        # comes, and the timeout fails the test.
        data = graph_to_dict(networks.g2())
        data["agents"][1]["x0"] = x0
        fifo = tmp_path / "g.json"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(json.dumps(data),))
        writer.start()
        src = str(Path(cli.__file__).resolve().parents[1])
        try:
            done = subprocess.run(
                [sys.executable, "-m", "sfj.cli", "analyze", str(fifo)],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": src},
            )
        finally:
            writer.join(5)
            if writer.is_alive():  # the reader never opened the pipe: release the writer
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
                writer.join()
        assert (done.returncode, done.stderr) == (code, err)

    def test_g1_certificate(self, capsys, g1_path):
        code, out, _ = run(capsys, "analyze", g1_path)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["ltp"] == [2, 5]
        assert data["persuaded"] == {"2": [3, 4], "5": [6]}
        assert data["C1"] is False and data["C2"] is True

    def test_malformed_json_exits_parse(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == EXIT_PARSE
        assert "line" in err

    def test_missing_file_exits_parse(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path / "absent.json"))
        assert code == EXIT_PARSE

    def test_directory_path_exits_parse(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path))
        assert code == EXIT_PARSE
        assert "cannot read" in err

    def test_unreachable_graph_exits_conditions(self, capsys, tmp_path):
        g = SignedDigraph(
            4,
            (Edge(1, 2, 1.0), Edge(3, 4, 1.0)),
            (1.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 0.0),
        )
        path = tmp_path / "island.json"
        save_graph(g, path)
        code, _, err = run(capsys, "analyze", str(path))
        assert code == EXIT_CONDITIONS
        assert "unreachable" in err

    @pytest.mark.parametrize(
        "weight, x0",
        [(float("nan"), 0.0), (1.0, float("inf")), (1.0, float("nan"))],
        ids=["nan-weight", "inf-x0", "nan-x0"],
    )
    def test_non_finite_numbers_exit_parse(self, capsys, tmp_path, weight, x0):
        data = {
            "n": 2,
            "agents": [
                {"id": 1, "beta": 0.5, "x0": 0.0},
                {"id": 2, "beta": 0.0, "x0": x0},
            ],
            "edges": [{"from": 1, "to": 2, "w": weight}],
        }
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(data))  # writes the NaN / Infinity literals
        code, out, err = run(capsys, "analyze", str(path))
        assert code == EXIT_PARSE
        assert "non-finite" in err and out == ""

    def test_non_utf8_file_exits_parse(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n": 1, "name": "\xe9"}')
        code, _, err = run(capsys, "analyze", str(path))
        assert code == EXIT_PARSE
        assert "utf-8" in err

    @pytest.mark.parametrize("n", ['"x"', str(10**12)], ids=["string", "huge"])
    def test_bad_agent_count_exits_parse(self, capsys, tmp_path, n):
        path = tmp_path / "count.json"
        path.write_text(
            '{"n": %s, "agents": [{"id": 1, "beta": 0.5, "x0": 0.0}], "edges": []}' % n
        )
        code, _, err = run(capsys, "analyze", str(path))
        assert code == EXIT_PARSE
        assert "Traceback" not in err

    def test_truncating_ids_exit_parse(self, capsys, tmp_path):
        path = tmp_path / "truncating.json"
        path.write_text(
            json.dumps(
                {
                    "n": 2.7,
                    "agents": [
                        {"id": 1.9, "beta": 0.5, "x0": 0.0},
                        {"id": 2, "beta": 0.0, "x0": 0.0},
                    ],
                    "edges": [{"from": 1.5, "to": 2, "w": True}],
                }
            )
        )
        code, out, err = run(capsys, "analyze", str(path))
        assert code == EXIT_PARSE
        assert "must be an integer" in err and out == ""

    def test_top_level_array_exits_parse(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        assert run(capsys, "analyze", str(path)) == (
            EXIT_PARSE, "", "sfj: error: expected a JSON object, got list\n")

    def test_deeply_nested_json_exits_parse(self, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, "analyze", str(path))
        assert code == EXIT_PARSE and out == ""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(graph_dicts().map(lambda d: json.dumps(d).encode()), st.binary()))
    def test_fuzzed_files_end_in_a_documented_exit_code(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("fuzz") / "g.json"
        path.write_bytes(raw)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", str(path)])
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_CONDITIONS)
        assert "Traceback" not in err.getvalue()

    def test_usage_error_exits_one(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE
        assert run(capsys)[0] == EXIT_USAGE

    def test_nonpositive_config_exits_usage(self, capsys, g2_path):
        code, _, err = run(capsys, "simulate", g2_path, "--tol", "-1")
        assert code == EXIT_USAGE
        assert "positive" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "command, flag", [("simulate", "--tol"), ("simulate", "--tau"), ("verify", "--tau")]
    )
    def test_non_finite_config_exits_usage(
        self, capsys, g2_path, tmp_path, command, flag, value
    ):
        out_csv = tmp_path / "trace.csv"
        extra = ["--out", str(out_csv)] if command == "simulate" else []
        code, out, err = run(capsys, command, g2_path, flag, value, *extra)
        assert code == EXIT_USAGE
        assert "finite" in err and out == ""
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("analyze", "--trials", "5"),
            ("analyze", "--seed", "1"),
            ("predict", "--tol", "1e-6"),
            ("simulate", "--mode", "relaxed"),
            ("simulate", "--seed", "1"),
            ("verify", "--max-iter", "10"),
            ("verify", "--mode", "strict"),
        ],
    )
    def test_flag_the_command_does_not_read_exits_usage(
        self, capsys, g2_path, command, flag, value
    ):
        code, out, err = run(capsys, command, g2_path, flag, value)
        assert code == EXIT_USAGE
        assert "unrecognized arguments" in err and out == ""


class TestPredict:
    def test_strict_on_g2(self, capsys, g2_path):
        code, out, _ = run(capsys, "predict", g2_path)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["clusters"] == [
            [1, 2, 3],
            [4, 5, 6],
            [7, 8, 9],
            [10, 11, 12],
        ]
        assert data["flagged_singletons"] == []

    def test_strict_on_g1_exits_conditions(self, capsys, g1_path):
        code, _, err = run(capsys, "predict", g1_path)
        assert code == EXIT_CONDITIONS
        assert "C1" in err

    def test_relaxed_on_g1_flags_the_singleton(self, capsys, g1_path):
        code, out, _ = run(capsys, "predict", g1_path, "--mode", "relaxed")
        assert code == EXIT_OK
        data = json.loads(out)
        assert sorted(map(sorted, data["clusters"])) == [[1], [2, 3, 4], [5, 6]]
        assert data["flagged_singletons"] == [1]


# The two plain-rule networks of CI's exit-code step, as written there.
PLAIN_RULE_CASES = {
    "nostub": '{"n": 2, "agents": [{"id": 1, "beta": 0, "x0": 0}, {"id": 2, "beta": 0, '
              '"x0": 1}], "edges": [{"from": 1, "to": 2, "w": 1}]}\n',
    "unreached": '{"n": 3, "agents": [{"id": 1, "beta": 0.5, "x0": 1}, {"id": 2, "beta": 0, '
                 '"x0": 0}, {"id": 3, "beta": 0, "x0": 0}], "edges": [{"from": 1, "to": 2, '
                 '"w": 1}]}\n',
}


class TestSimulate:
    def test_in_weights_summing_past_the_float_range_exit_parse(self, capsys, tmp_path):
        # Two finite in-weights of agent 2 whose magnitudes sum to inf.
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "n": 3,
            "agents": [{"id": 1, "beta": 0.5, "x0": 1}, {"id": 2, "beta": 0, "x0": 0},
                       {"id": 3, "beta": 0.5, "x0": 3}],
            "edges": [{"from": 1, "to": 2, "w": 1e308}, {"from": 3, "to": 2, "w": 1e308}],
        }))
        code, out, err = run(capsys, "simulate", str(path), "--out", str(tmp_path / "t.csv"))
        assert code == EXIT_PARSE and out == ""
        assert "agent 2's in-weight magnitudes sum past the float range" in err

    def test_trace_and_report(self, capsys, g2_path, tmp_path):
        out_csv = str(tmp_path / "trace.csv")
        code, out, _ = run(capsys, "simulate", g2_path, "--out", out_csv)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["converged"] is True
        assert len(data["clusters"]) == 4
        assert data["match"] is True
        lines = Path(out_csv).read_text().strip().splitlines()
        assert lines[0] == "k," + ",".join(f"x_{i}" for i in range(1, 13))
        assert len(lines) == data["iterations"] + 2  # header + x(0)..x(k)

    @pytest.mark.parametrize("graph, stdout_digest, csv_digest", [
        ("g1", "f8c6d749b66fe7777167f5524f0dac7b04d5ce74663defa1f1284858c4c7f95e",
         "7328eadf92861efd29d4737db4c8b0be631eeb78ef1b629806419e4f69440610"),
        ("g2", "3094921ca8dec1893454f8c2c1aa9e65686807e6a9b7906c1c96faa68a774cbc",
         "3f95a307851e3c1b71731c869d468a397d0500989d4a88c56bf9667768b77d90"),
        ("generated-200",
         "58aa7524cf5c29a2e39d6bf11a637d6dcdbcc9c917cdbe9fde49e8cb41f4da00",
         "9b796a67a8d1c4b8ab9d71395685767034d2f357d04b46f7a37ff7734ef9b22d"),
        # The plain rule: no stubborn agent, and an agent no stubborn one reaches.
        ("nostub", "7689add32fd69f70fe9b68f173b9ee26fcbeb32f367db2fff435291a2a35170b",
         "1468c75dac36db5390c350fae423d23cf99641ec9d699a50e5480ebf2ed4522e"),
        ("unreached", "93face498b9086e94fe181c95be9d1b9f34315c9b66694ed476c34c60fc14dc8",
         "c6d70261963f276cb590425992a0f078b27810e8cc6567b261c0c40cdfb018db"),
        # An unreached positive class: 80 steps by the plain rule.
        ("unreached-class",
         "27deaea30d48edc8ccfe965322202834750631869ea77b39b2eacab8a4160d59",
         "929411518a7e0475b77800902dc2bd88dee1910b1896a581c5231dcfe1afb3b0"),
    ])
    def test_output_is_pinned(self, capsys, tmp_path, monkeypatch, graph,
                              stdout_digest, csv_digest):
        # Any change to an iterate, the stop rule or the CSV format shows here.
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SFJ_SEED", raising=False)
        path = str(FIXTURES / f"{graph}.json")
        if graph in PLAIN_RULE_CASES:
            path = f"{graph}.json"
            Path(path).write_text(PLAIN_RULE_CASES[graph])
        if graph == "unreached-class":
            path = "g.json"
            save_graph(unreached_positive_class(), path)
        if graph == "generated-200":
            path = "g.json"
            code, _, _ = run(capsys, "generate", "200", "10", "--seed", "1", "--out", path)
            assert code == EXIT_OK
        code, out, _ = run(capsys, "simulate", path, "--out", "t.csv")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
        assert hashlib.sha256(Path("t.csv").read_bytes()).hexdigest() == csv_digest

    def test_opinions_near_the_float_maximum_print_no_warning(self, tmp_path):
        # A step from -1.7e308 to 1.7e308 overflows the residual's difference
        # and the final gap between clusters; neither may reach stderr.
        path = tmp_path / "huge.json"
        save_graph(SignedDigraph(3, (Edge(1, 2, 1.0), Edge(2, 3, -1.0)), (0.5, 0.0, 0.0),
                                 (1.7e308, -1.7e308, 0.0)), path)
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "sfj.cli", "simulate", str(path), "--out", "t.csv"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        assert json.loads(done.stdout)["clusters"] == [[1, 2], [3]]

    def test_fully_stubborn_trace_is_one_step(self, capsys, tmp_path):
        g = SignedDigraph(2, (Edge(1, 2, 1.0),), (1.0, 1.0), (3.0, 4.0))
        path = tmp_path / "anchored.json"
        save_graph(g, path)
        out_csv = str(tmp_path / "trace.csv")
        code, out, _ = run(capsys, "simulate", str(path), "--out", out_csv)
        assert code == EXIT_OK
        rows = Path(out_csv).read_text().strip().splitlines()
        assert len(rows) == 3  # header, x(0), x(1) = x(0)
        assert rows[1].split(",")[1:] == rows[2].split(",")[1:]

    def test_limit_matches_influence_route(self, capsys, g2_path, tmp_path):
        import numpy as np

        from sfj import influence_matrix

        out_csv = str(tmp_path / "trace.csv")
        code, out, _ = run(capsys, "simulate", g2_path, "--tol", "1e-10",
                           "--out", out_csv)
        assert code == EXIT_OK
        last = Path(out_csv).read_text().strip().splitlines()[-1]
        final = np.array([float(v) for v in last.split(",")[1:]])
        g = networks.g2()
        limit = influence_matrix(g) @ g.x0[g.beta > 0]
        assert np.max(np.abs(final - limit)) <= 1e-9

    def test_oscillator_exits_not_converged_with_partial_csv(self, capsys, tmp_path):
        g = SignedDigraph(
            3,
            (Edge(2, 3, 1.0), Edge(3, 2, 1.0)),
            (1.0, 0.0, 0.0),
            (0.0, 1.0, -1.0),
        )
        path = tmp_path / "osc.json"
        save_graph(g, path)
        out_csv = str(tmp_path / "partial.csv")
        code, _, err = run(
            capsys, "simulate", str(path), "--out", out_csv, "--max-iter", "40"
        )
        # x(2) repeats x(0), but the state saved last is x(2): x(4) repeats it.
        assert code == EXIT_NOT_CONVERGED
        assert "iteration 4 repeats iteration 2; partial trace" in err
        assert len(Path(out_csv).read_text().strip().splitlines()) == 6

    def test_rounding_cycle_exits_at_the_first_repeated_state(self, capsys, tmp_path):
        # Without the repeat check this runs all million steps of the
        # default --max-iter and writes a 209 MB trace.
        path, out_csv = tmp_path / "g2e5.json", tmp_path / "partial.csv"
        save_graph(g2_times_1e5(), path)
        code, _, err = run(capsys, "simulate", str(path), "--out", str(out_csv))
        assert code == EXIT_NOT_CONVERGED
        assert "iteration 134 repeats iteration 128; partial trace" in err
        rows = out_csv.read_text().splitlines()
        assert len(rows) == 136 and rows[-1].split(",")[1:] == rows[-7].split(",")[1:]

    def test_unreached_class_converges_by_the_plain_step_rule(self, capsys, tmp_path):
        path = tmp_path / "closed.json"
        save_graph(unreached_positive_class(), path)
        out_csv = str(tmp_path / "trace.csv")
        code, out, _ = run(capsys, "simulate", str(path), "--out", out_csv,
                           "--max-iter", "100000")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["converged"] is True and data["iterations"] <= 100
        assert data["predicted"] is None  # agents 3..7 are unreached

    @pytest.mark.parametrize("target", ["missing/t.csv", "."])
    def test_unwritable_out_exits_usage(self, capsys, g2_path, tmp_path, target):
        out_csv = str(tmp_path / target)
        code, out, err = run(capsys, "simulate", g2_path, "--out", out_csv)
        assert code == EXIT_USAGE
        assert f"cannot write {out_csv}" in err and "Traceback" not in err
        assert out == ""


def oscillator():
    """Agents 2 and 3 swap opinions forever; agent 1 is stubborn but feeds nobody."""
    return SignedDigraph(3, ((2, 3, 1.0), (3, 2, 1.0)), (1.0, 0.0, 0.0), (0.0, 1.0, -1.0))


# Each case with its --max-iter. The oscillator stops unconverged at its
# first repeated state, the spiral at --max-iter.
STREAMED_CASES = {
    "g1": (networks.g1, dynamics.DEFAULT_MAX_ITER),
    "g2": (networks.g2, dynamics.DEFAULT_MAX_ITER),
    "generated-500": (lambda: random_multiconsensus_graph(500, 25, seed=500),
                      dynamics.DEFAULT_MAX_ITER),
    "oscillator": (oscillator, 40),
    "spiral": (slow_spiral, 40),
}


def in_memory_csv(g, max_iter) -> str:
    """The trace writer over the states simulate keeps when it streams nothing."""
    try:
        trace = dynamics.simulate(g, max_iter=max_iter)
    except NotConverged as exc:
        trace = exc.trace
    buf = io.StringIO(newline="")
    dynamics._write_header(buf, g.n)
    dynamics._write_rows(buf, 0, trace.states)
    return buf.getvalue()


class TestStreamedTrace:
    @pytest.mark.parametrize("block", ["one value", "half the trace", "default"])
    @pytest.mark.parametrize("case", STREAMED_CASES)
    def test_cli_bytes_equal_the_in_memory_writer(
        self, capsys, monkeypatch, tmp_path, case, block
    ):
        make_graph, max_iter = STREAMED_CASES[case]
        g = make_graph()
        expected = in_memory_csv(g, max_iter)
        rows = expected.count("\r\n") - 1
        values = {"one value": 1, "half the trace": g.n * (rows // 2) + 1,
                  "default": dynamics._TRACE_BLOCK}[block]
        monkeypatch.setattr(dynamics, "_TRACE_BLOCK", values)
        path, out_csv = tmp_path / "g.json", tmp_path / "trace.csv"
        save_graph(g, path)
        code, _, _ = run(capsys, "simulate", str(path), "--out", str(out_csv),
                         "--max-iter", str(max_iter))
        assert code == (EXIT_NOT_CONVERGED if case in ("oscillator", "spiral") else EXIT_OK)
        assert out_csv.read_bytes() == expected.encode()
        assert in_memory_csv(g, max_iter) == expected  # kept in several blocks

    @pytest.mark.parametrize("iterations", [2_000, 200_000])
    def test_unconverged_memory_does_not_grow_with_max_iter(
        self, capsys, tmp_path, iterations
    ):
        # Keeping every state would take 24 bytes per iteration here, and
        # more than that again in per-row objects: about 30 MB at 200,000.
        path, out_csv = tmp_path / "spiral.json", tmp_path / "partial.csv"
        save_graph(slow_spiral(), path)
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "simulate", str(path), "--out", str(out_csv),
                               "--max-iter", str(iterations))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_NOT_CONVERGED and "partial trace" in err
        with open(out_csv, "rb") as fh:
            assert sum(1 for _ in fh) == iterations + 2
        assert peak < 5 * 2**20

    def test_no_n_by_n_array(self, capsys, tmp_path):
        # At n = 2000 one dense n x n float array is 32 MB.
        n = 2000
        path = tmp_path / "g.json"
        save_graph(random_multiconsensus_graph(n, 100, seed=1), path)
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "simulate", str(path),
                               "--out", str(tmp_path / "trace.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK and json.loads(out)["match"] is True
        assert peak < 8 * n * n / 4

    def test_a_follower_reuses_its_settled_source_across_blocks(
        self, capsys, monkeypatch, tmp_path
    ):
        # Agent 1 settles at 2.0 in one step; agent 2 copies agent 1 and
        # agent 3 copies agent 2, each a step later, so the settled value
        # passes down the chain across blocks of one row each. x(0) holds
        # -0.0 for agent 2, which agent 3 copies as 0.0 (0.0 + -0.0 is 0.0).
        g = SignedDigraph(4, ((4, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)),
                          (0.5, 0.0, 0.0, 0.5), (1.0, -0.0, 5.0, 3.0))
        expected = in_memory_csv(g, dynamics.DEFAULT_MAX_ITER)
        assert expected.split("\r\n")[1:4] == ["0,1.0,-0.0,5.0,3.0", "1,2.0,1.0,0.0,3.0",
                                                "2,2.0,2.0,1.0,3.0"]
        monkeypatch.setattr(dynamics, "_TRACE_BLOCK", 1)
        path, out_csv = tmp_path / "g.json", tmp_path / "trace.csv"
        save_graph(g, path)
        code, _, _ = run(capsys, "simulate", str(path), "--out", str(out_csv))
        assert code == EXIT_OK
        assert out_csv.read_bytes() == expected.encode()


# What cli._emit's contract lets a reply hold. A top-level item may be any
# scalar json.dumps writes: floats and text of every kind, ints of any size.
SCALARS = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-05, 1e16]),
    st.text(), st.sampled_from(["caf\u00e9", "\u65e5\u672c", "\x00", "\x1f", "\x7f", "\n"]),
    st.integers(), st.sampled_from([2**64, -2**63 - 1, 10**100]), st.booleans(), st.none(),
)
# A list or dict holds ints in [-2**63, 2**64), bools, None, strings of the
# characters ' '..'~', and lists and dicts keyed by such strings.
PRINTABLE = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E))
ITEMS = st.recursive(
    st.one_of(st.integers(-2**63, 2**64 - 1), st.sampled_from([-2**63, 2**63 - 1, 2**63, 2**64 - 1]),
              st.booleans(), st.none(), PRINTABLE, st.sampled_from(['"', "\\", ", "])),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(PRINTABLE, inner, max_size=4)),
    max_leaves=25,
)
CONTAINERS = st.one_of(st.lists(ITEMS, max_size=4), st.dictionaries(PRINTABLE, ITEMS, max_size=4))


def _c2_fails(path):
    """Agent 1 persuades agent 2 through a negative edge: C2 fails."""
    path.write_text(json.dumps({
        "n": 2,
        "agents": [{"id": 1, "beta": 0.5, "x0": 1}, {"id": 2, "beta": 0, "x0": 0}],
        "edges": [{"from": 1, "to": 2, "w": -1}],
    }))
    return str(path)


def _emitted(payload):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(payload)
    return out.getvalue()


def _expected(payload):
    return json.dumps({"schema": cli.SCHEMA_VERSION, **payload}, indent=2) + "\n"


class TestEmit:
    """cli._emit against json.dumps(payload, indent=2), on what its contract
    lets a reply hold, and on every reply shape the subcommands print."""

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(SCALARS, CONTAINERS))
    def test_layout_is_json_dumps_with_indent_2(self, value):
        assert _emitted({"value": value}) == _expected({"value": value})

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.text(), st.one_of(SCALARS, CONTAINERS), max_size=6))
    def test_emit_writes_the_payload_after_the_schema(self, payload):
        assert _emitted(payload) == _expected(payload)

    # Values at the edges of what the contract lets a container hold: a
    # quote, a backslash, ints at the 64-bit bounds and empty containers.
    # Each is given the id its case had when the list also held floats,
    # tuples and text the contract now excludes.
    @pytest.mark.parametrize("value", [
        pytest.param(2**63 - 1, id="9223372036854775807"),
        pytest.param(2**63, id="9223372036854775808"),
        pytest.param(-2**63, id="-9223372036854775808"),
        pytest.param('"', id='"'),
        pytest.param("\\", id="\\"),
        pytest.param([], id="value11"),
        pytest.param({}, id="value12"),
    ])
    def test_edge_value_alone_and_nested(self, value):
        for v in (value, [value], [1, [value]], {"k": value}, [[], {}, value]):
            assert _emitted({"value": v}) == _expected({"value": v})
        # A float beside it is a top-level scalar, laid out by json.dumps.
        payload = {"x": 0.5, "value": value, "nested": {"list": [value, [value]]}}
        assert _emitted(payload) == _expected(payload)

    # An input for each reply shape: a verify whose first_failure is a dict,
    # a simulate whose prediction fails C2 ("predicted": null), and a
    # non-ASCII --out path, the one user text a reply holds.
    @pytest.mark.parametrize("argv, exit_code, key, value", [
        ("analyze {g2}", EXIT_OK, "C1", True),
        ("analyze {g1}", EXIT_OK, "C1", False),
        ("predict {g2}", EXIT_OK, "mode", "strict"),
        ("predict {g1} --mode relaxed", EXIT_OK, "mode", "relaxed"),
        ("verify {g2} --trials 3", EXIT_OK, "first_failure", None),
        ("verify {g2} --trials 3 --tau 1e-300", EXIT_CONDITIONS, "passes", 0),
        ("simulate {g2} --out {tmp}/t.csv", EXIT_OK, "match", True),
        ("simulate {c2} --out {tmp}/t.csv", EXIT_OK, "predicted", None),
        ("simulate {g2} --out {tmp}/\u00e9.csv", EXIT_OK, "trace", "{tmp}/\u00e9.csv"),
    ], ids=["analyze", "analyze-violations", "predict", "predict-relaxed", "verify",
            "verify-failure", "simulate", "simulate-c2-fails", "simulate-non-ascii-out"])
    def test_reply_is_json_dumps_by_the_c_encoder(self, capsys, monkeypatch, tmp_path,
                                                  g1_path, g2_path, argv, exit_code, key,
                                                  value):
        paths = dict(g1=g1_path, g2=g2_path, c2=_c2_fails(tmp_path / "c2.json"), tmp=tmp_path)

        def pure_python_encoder(*args, **kwargs):
            raise AssertionError("a reply ran json's pure-Python encoder")

        with monkeypatch.context() as patch:
            patch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
            code, out, _ = run(capsys, *argv.format(**paths).split())
        assert code == exit_code
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert json.loads(out)[key] == (value.format(**paths) if type(value) is str else value)

    def test_analyze_payload_at_n_1000(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        save_graph(random_multiconsensus_graph(1000, 50, seed=1), path)
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == EXIT_OK
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_generated_graph_payload(self, capsys):
        # Agents and edges hold floats, so generate writes the graph with
        # json.dumps(indent=2) itself, not through _emit.
        code, out, _ = run(capsys, "generate", "400", "20", "--seed", "3")
        assert code == EXIT_OK
        payload = {"schema": cli.SCHEMA_VERSION,
                   **graph_to_dict(random_multiconsensus_graph(400, 20, seed=3))}
        assert out == json.dumps(payload, indent=2) + "\n"


class TestVerify:
    def test_g2_all_trials_pass(self, capsys, g2_path):
        code, out, _ = run(capsys, "verify", g2_path, "--trials", "25")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["passes"] == data["trials"] == 25
        assert data["worst_spread"] <= 1e-8
        assert data["first_failure"] is None

    def test_generated_n200_all_trials_pass(self, capsys, tmp_path):
        path = tmp_path / "gen.json"
        assert main(["generate", "200", "10", "--out", str(path)]) == EXIT_OK
        code, out, _ = run(capsys, "verify", str(path), "--trials", "5")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["passes"] == data["trials"] == 5

    def test_failed_trial_named_with_seed(self, capsys, monkeypatch, g2_path):
        monkeypatch.setattr(
            verification, "clusters_from_influence", merge_when_agent_7_leads_agent_1
        )
        monkeypatch.setattr(verification, "_partition_holds", settle_nothing)
        code, out, err = run(capsys, "verify", g2_path, "--trials", "12", "--seed", "3")
        assert code == EXIT_CONDITIONS
        data = json.loads(out)
        assert data["schema"] == 1 and data["passes"] == 7
        assert data["first_failure"] == {"trial": 4, "observed": [list(range(1, 13))]}
        assert "trial 4 of seed 3" in err and "--seed 3 --trials 5" in err

    def test_unsatisfied_conditions_exit_conditions(self, capsys, g1_path):
        code, _, _ = run(capsys, "verify", g1_path, "--trials", "5")
        assert code == EXIT_CONDITIONS

    @pytest.mark.parametrize("size, influence_digest, stdout_digest", [
        (None, "97ebf0fc39affb924a86ed4880099fb39fbae2005d79af0927222b8bcb857c3d",
         "d5a017a7c2a3a7692c7a93d77d73ef9dc3dc42f4636a5362ab2310956436ea6d"),
        ((200, 10), "c07ed8c7b6e5caa1775b4734eeef36dce012c402c59d55b5671df85a96099bc5",
         "15cb3ae4d5a17f292bbcfcaa9f8669b41cba0736d5c53920a8ff8b9c947e5dff"),
        ((1000, 50), "1d80c368a180a505e9a74fa9acf009554803f4ad8f5c379e0d82b436c394e983",
         "64ff3103e9504fb9762bac6236bd2fe6a88f25a0568703042a42ec0a2e4f24a1"),
        ((4000, 200), "4788dd95dcf89db725b4c4c8c4a38f45193ad7acfe4bdca90cd2721803845fbb",
         "01f333ccd264c913ad6713d7c19aa7f56cec1fd2be8470ae62b40d7a72364176"),
        ((4000, 500), "de04b286d86f1117c22c2b786ff089d7c560a8f6619aec722e13672d28857712",
         "7baebfeb2c7c58e75273af6fc487f90991317c196d41683dbf0821a65367a076"),
    ], ids=["g2", "200-10", "1000-50", "4000-200", "4000-500"])
    def test_influence_and_output_are_pinned(self, capsys, tmp_path, monkeypatch, size,
                                             influence_digest, stdout_digest):
        # The order in which the solve takes the SCCs of a level may change,
        # but no bit of V, nor of the report, may: each SCC is solved alone,
        # and each row sums its terms from other SCCs in entry order.
        monkeypatch.delenv("SFJ_SEED", raising=False)
        g = networks.g2() if size is None else random_multiconsensus_graph(*size, seed=1)
        save_graph(g, tmp_path / "g.json")
        V = dynamics.influence_matrix(g)
        assert V.shape == (g.n, g.m)
        assert hashlib.sha256(V.tobytes()).hexdigest() == influence_digest
        code, out, _ = run(capsys, "verify", str(tmp_path / "g.json"), "--trials", "20")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest


class TestGenerate:
    def test_round_trip_identical(self, capsys, tmp_path):
        out = tmp_path / "gen.json"
        code, _, _ = run(capsys, "generate", "12", "4", "--seed", "3",
                         "--out", str(out))
        assert code == EXIT_OK
        first = load_graph(out)
        save_graph(first, out)
        assert load_graph(out) == first

    def test_out_file_is_stdout_without_the_schema_line(self, capsys, tmp_path):
        out = tmp_path / "gen.json"
        run(capsys, "generate", "300", "15", "--seed", "4", "--out", str(out))
        code, text, _ = run(capsys, "generate", "300", "15", "--seed", "4")
        assert code == EXIT_OK
        assert out.read_text() == text.replace('\n  "schema": 1,', "", 1)

    def test_generated_graph_analyzes_clean(self, capsys, tmp_path):
        out = tmp_path / "gen.json"
        run(capsys, "generate", "10", "3", "--seed", "8", "--out", str(out))
        code, text, _ = run(capsys, "analyze", str(out))
        assert code == EXIT_OK
        data = json.loads(text)
        assert data["C1"] is True and data["C2"] is True

    def test_stdout_mode_emits_schema_versioned_graph(self, capsys):
        code, out, _ = run(capsys, "generate", "8", "2", "--seed", "0")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["schema"] == 1 and data["n"] == 8

    def test_infeasible_parameters_exit_usage(self, capsys):
        assert run(capsys, "generate", "3", "2")[0] == EXIT_USAGE
        assert run(capsys, "generate", "6", "1")[0] == EXIT_USAGE

    def test_unwritable_out_exits_usage(self, capsys, tmp_path):
        out = str(tmp_path / "missing" / "gen.json")
        code, _, err = run(capsys, "generate", "12", "4", "--out", out)
        assert code == EXIT_USAGE
        assert f"cannot write {out}" in err and "Traceback" not in err


class TestSeedPlumbing:
    def test_env_seed_overrides_flag(self, capsys, monkeypatch, tmp_path):
        a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
        run(capsys, "generate", "10", "3", "--seed", "1", "--out", str(a))
        monkeypatch.setenv("SFJ_SEED", "2")
        run(capsys, "generate", "10", "3", "--seed", "1", "--out", str(b))
        monkeypatch.delenv("SFJ_SEED")
        run(capsys, "generate", "10", "3", "--seed", "2", "--out", str(c))
        assert load_graph(b) == load_graph(c)
        assert load_graph(a) != load_graph(b)

    def test_non_integer_env_seed_names_the_variable(self, capsys, monkeypatch, g2_path):
        monkeypatch.setenv("SFJ_SEED", "abc")
        code, out, err = run(capsys, "verify", g2_path, "--trials", "1")
        assert code == EXIT_USAGE and out == ""
        assert err == "sfj: error: SFJ_SEED must be an integer, got 'abc'\n"

    def test_negative_env_seed_names_the_variable(self, capsys, monkeypatch, g2_path):
        monkeypatch.setenv("SFJ_SEED", "-5")
        code, out, err = run(capsys, "verify", g2_path, "--trials", "1")
        assert code == EXIT_USAGE and out == ""
        assert err == "sfj: error: SFJ_SEED must be non-negative, got '-5'\n"

    @pytest.mark.parametrize("argv", [("generate", "4", "2", "--seed", "-1"),
                                      ("verify", "{g2}", "--seed", "-5")])
    def test_negative_seed_flag_is_a_usage_error_naming_it(self, capsys, monkeypatch, g2_path,
                                                           argv):
        monkeypatch.delenv("SFJ_SEED", raising=False)
        code, out, err = run(capsys, *(arg.format(g2=g2_path) for arg in argv))
        assert code == EXIT_USAGE and out == ""
        assert f"error: argument --seed: must be non-negative, got '{argv[-1]}'" in err


class TestParserCache:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_successive_calls_print_what_fresh_calls_print(self, capsys, g2_path):
        calls = [
            ("verify", g2_path, "--trials", "3", "--seed", "5", "--tau", "1e-6"),
            ("generate", "12", "4", "--seed", "7"),
            ("verify", g2_path, "--trials", "3"),
            ("generate", "12", "4"),
            ("predict", g2_path, "--mode", "relaxed"),
            ("predict", g2_path),
            ("verify", g2_path, "--trials", "0"),
            ("analyze", g2_path),
            ("verify", g2_path, "--trials", "2", "--seed", "5"),
        ]
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert [run(capsys, *argv) for argv in calls] == fresh
        assert fresh[1] != fresh[3] and fresh[-1][0] == EXIT_OK

    def test_omitted_seed_falls_back_to_zero(self):
        parser = cli.build_parser()
        assert parser.parse_args(["verify", "g.json", "--seed", "7"]).seed == 7
        args = parser.parse_args(["verify", "g.json"])
        assert (args.seed, args.trials, args.func) == (0, 200, cli.cmd_verify)


def _not_converged():
    """A real NotConverged from the 3-agent oscillator, partial trace and all."""
    g = SignedDigraph(3, ((2, 3, 1.0), (3, 2, 1.0)), (1.0, 0.0, 0.0), (0.0, 1.0, -1.0))
    with pytest.raises(NotConverged) as info:
        dynamics.simulate(g, max_iter=3)
    return info.value


class TestExitCodeTable:
    # Each subcommand: the module and name of the library call behind it.
    COMMANDS = {
        "analyze": (cli, "analyze"),
        "predict": (cli, "predict_clusters"),
        "simulate": (dynamics, "simulate"),
        "verify": (verification, "robustness_harness"),
        "generate": (cli, "random_multiconsensus_graph"),
    }
    RAISED = {
        "format": (lambda: GraphFormatError("bad file"), EXIT_PARSE),
        "validation": (lambda: GraphValidationError("bad graph"), EXIT_PARSE),
        "no-stubborn": (lambda: NoStubbornAgents("no stubborn agent"), EXIT_CONDITIONS),
        "unreachable": (lambda: UnreachableNodes({3}), EXIT_CONDITIONS),
        "conditions": (lambda: ConditionsNotMet("C1 fails"), EXIT_CONDITIONS),
        "singular": (lambda: SingularBlock("agents [2, 3] form a singular block"),
                     EXIT_CONDITIONS),
        "not-converged": (_not_converged, EXIT_NOT_CONVERGED),
        "infeasible": (lambda: InfeasibleParameters("no such network"), EXIT_USAGE),
        "value": (lambda: ValueError("bad value"), EXIT_USAGE),
        "memory": (MemoryError, EXIT_MEMORY),
        # numpy's MemoryError names the allocation it refused.
        "memory-sized": (lambda: MemoryError("Unable to allocate 11.9 GiB for an array "
                                             "with shape (40000, 40000)"), EXIT_MEMORY),
    }
    def run_raising(self, capsys, monkeypatch, tmp_path, g2_path, command, exc):
        def raise_it(*args, **kwargs):
            raise exc

        monkeypatch.setattr(*self.COMMANDS[command], raise_it)
        out_path = str(tmp_path / "out")
        argv = [command, *(["12", "4"] if command == "generate" else [g2_path])]
        if command in ("simulate", "generate"):
            argv += ["--out", out_path]
        code, out, err = run(capsys, *argv)
        assert out == "" and "Traceback" not in err
        return code, err, out_path

    @pytest.mark.parametrize("kind", RAISED)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_exception_maps_to_its_code(
        self, capsys, monkeypatch, tmp_path, g2_path, command, kind
    ):
        make, expected = self.RAISED[kind]
        exc = make()
        code, err, out_path = self.run_raising(
            capsys, monkeypatch, tmp_path, g2_path, command, exc
        )
        message = str(exc) or "out of memory"  # MemoryError() has no message
        if command == "simulate" and kind == "not-converged":
            message += f"; partial trace written to {out_path}"
        assert code == expected
        assert err == f"sfj: error: {message}\n"

    def test_every_package_error_is_in_the_table(self):
        def walk(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from walk(sub)

        # Subclasses the tests define themselves (oracles.SizeLimit) are not
        # the package's.
        package = {c for c in walk(SFJError) if c.__module__.startswith("sfj.")}
        raised = {type(make()) for make, _ in self.RAISED.values()}
        assert package <= raised

    @pytest.mark.parametrize("command", ["simulate", "generate"])
    def test_os_error_names_the_out_path(
        self, capsys, monkeypatch, tmp_path, g2_path, command
    ):
        exc = OSError(errno.ENOSPC, "No space left on device")
        code, err, out_path = self.run_raising(
            capsys, monkeypatch, tmp_path, g2_path, command, exc
        )
        assert code == EXIT_USAGE
        assert err == f"sfj: error: cannot write {out_path}: No space left on device\n"
