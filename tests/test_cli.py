import contextlib
import errno
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfj import cli, dynamics, load_graph, networks, save_graph, verification
from sfj.cli import (
    EXIT_CONDITIONS,
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
    UnreachableNodes,
)
from sfj.graph import Edge, SignedDigraph

from conftest import graph_dicts, merge_when_agent_7_leads_agent_1, unreached_positive_class

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


class TestSimulate:
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
        limit = influence_matrix(g) @ np.array(g.x0)
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
        assert code == EXIT_NOT_CONVERGED
        assert "partial trace" in err
        assert len(Path(out_csv).read_text().strip().splitlines()) == 42

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
        monkeypatch.setattr(verification, "_partition_holds", lambda *args: False)
        code, out, err = run(capsys, "verify", g2_path, "--trials", "12", "--seed", "3")
        assert code == EXIT_CONDITIONS
        data = json.loads(out)
        assert data["schema"] == 1 and data["passes"] == 7
        assert data["first_failure"] == {"trial": 4, "observed": [list(range(1, 13))]}
        assert "trial 4 of seed 3" in err and "--seed 3 --trials 5" in err

    def test_unsatisfied_conditions_exit_conditions(self, capsys, g1_path):
        code, _, _ = run(capsys, "verify", g1_path, "--trials", "5")
        assert code == EXIT_CONDITIONS


class TestGenerate:
    def test_round_trip_identical(self, capsys, tmp_path):
        out = tmp_path / "gen.json"
        code, _, _ = run(capsys, "generate", "12", "4", "--seed", "3",
                         "--out", str(out))
        assert code == EXIT_OK
        first = load_graph(out)
        save_graph(first, out)
        assert load_graph(out) == first

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
        "not-converged": (_not_converged, EXIT_NOT_CONVERGED),
        "infeasible": (lambda: InfeasibleParameters("no such network"), EXIT_USAGE),
        "value": (lambda: ValueError("bad value"), EXIT_USAGE),
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
        message = str(exc)
        if command == "simulate" and kind == "not-converged":
            message += f"; partial trace written to {out_path}"
        assert code == expected
        assert err == f"sfj: error: {message}\n"

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
