"""Tests of the benchmark's own code: statistics, oracle, failure accounting, tracing.

    python3 -m pytest -q perfbench
"""

import json

import pytest

import planted
import run
import tracing


def test_tail_leaves_exactly_ten_values_above():
    values = list(range(1, 101))
    value, pct = run.tail(values)
    assert (value, pct) == (90, 90.0)
    assert sum(v > value for v in values) == run.BEYOND


def test_tail_with_eleven_values_is_the_smallest():
    value, pct = run.tail([5.0] + [9.0] * 10)
    assert value == 5.0
    assert pct == pytest.approx(100 / 11)


def test_tail_with_too_few_values_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        tracing.Span("cli.main", 0.0, 10.0, None, 0),
        tracing.Span("verification.robustness_harness", 1.0, 9.0, 0, 0),
        tracing.Span("dynamics.influence_matrix", 2.0, 5.0, 1, 0),
        tracing.Span("graph.normalize", 2.5, 3.0, 2, 0),
        tracing.Span("verification.cluster_spread", 6.0, 7.0, 1, 0),
        tracing.Span("cli.main", 20.0, 21.0, None, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 4.0, 2.5, 0.5, 1.0, 1.0])
    summary = tracing.summarize(spans)
    assert summary["cli.main"] == {"self_s": pytest.approx(3.0), "calls": 2, "failed": 0}


def _outcomes(ok_times, failed_times, speed=1.0):
    return [run.Outcome(t, step_s=t, speed=speed) for t in ok_times] + [
        run.Outcome(t, "PowerIterationStalled", step_s=t, speed=speed) for t in failed_times
    ]


def test_jobs_per_s_divides_by_the_whole_pass():
    outcomes = _outcomes([1.0, 2.0, 3.0], [])
    # Each step also spent time outside the job (collector, oracle): it counts.
    for outcome in outcomes:
        outcome.step_s += 1 / 3
    assert run.pass_metrics(outcomes)["jobs_per_s"] == pytest.approx(3 / 7)


def test_charged_failure_sorts_above_every_completed_job():
    outcomes = _outcomes([0.5] * 20, [0.001] * 11)
    metrics = run.pass_metrics(outcomes)
    assert metrics["job_tail_s"] > run.FAILURE_CHARGE_S
    assert metrics["job_p50_s"] == 0.5
    assert metrics["failed_ratio"] == 11 / 31
    # Failing faster must not read as a gain.
    slower = run.pass_metrics(_outcomes([0.5] * 20, [0.002] * 11))
    assert metrics["jobs_per_s"] < run.pass_metrics(_outcomes([0.5] * 20, []))["jobs_per_s"]
    assert abs(metrics["jobs_per_s"] - slower["jobs_per_s"]) < 1e-6


def test_times_are_scaled_to_the_reference_speed():
    times = [0.1] * 40 + [0.3] * 14 + [3.0] * 6
    at_reference = run.pass_metrics(_outcomes(times, []))
    # The same jobs on a machine at half speed: twice the time, speed 0.5.
    slowed = _outcomes([2 * t for t in times], [], speed=0.5)
    for key, value in run.pass_metrics(slowed).items():
        assert value == pytest.approx(at_reference[key])
    assert run.pass_metrics(slowed, scaled=False)["job_p50_s"] == pytest.approx(0.2)
    # A failure's charge is not scaled: it stands for a job that never ends.
    failed = run.pass_metrics(_outcomes([], [2.0] * 11, speed=0.5))
    assert failed["job_p50_s"] == pytest.approx(run.FAILURE_CHARGE_S + 1.0)


def test_machine_speed_is_near_one_when_the_kernel_takes_its_reference_time(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock) * run.REFERENCE_S)
    monkeypatch.setattr(run, "reference_kernel", lambda: None)
    assert run.machine_speed() == pytest.approx(1.0)


def test_job_list_length_follows_from_seconds_alone(tmp_path):
    nominal = run.build_jobs("verify-ladder", 1, run.NOMINAL_SECONDS, tmp_path)
    assert len(nominal) == sum(run.WORKLOADS["verify-ladder"].counts.values()) + 2
    assert len(run.build_jobs("verify-ladder", 2, run.NOMINAL_SECONDS, tmp_path)) == len(nominal)
    assert len(run.build_jobs("verify-ladder", 1, 2 * run.NOMINAL_SECONDS, tmp_path)) == 2 * len(nominal)
    assert run.count_for(1, 0.1) == 1  # every size keeps at least one job


def test_the_seed_draws_only_the_opinions():
    graph, _ = planted.planted_network(60, 4, seed=3)
    one, again, other = (planted.with_opinions(graph, seed) for seed in (1, 1, 2))
    assert one == again

    def strip(g):
        return [{k: v for k, v in a.items() if k != "x0"} for a in g["agents"]]

    assert strip(one) == strip(other) == strip(graph) and one["edges"] == graph["edges"]
    assert [a["x0"] for a in one["agents"]] != [a["x0"] for a in other["agents"]]


@pytest.fixture(scope="module")
def analyzed():
    cli = run.import_cli()  # the checkout's sfj
    graph, clusters = planted.planted_network(60, 4, seed=3)
    return graph, clusters, cli


def _run_cli(cli, argv, capsys):
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_oracle_accepts_sfj_and_rejects_wrong_certificates(analyzed, tmp_path, capsys):
    graph, clusters, cli = analyzed
    path = tmp_path / "g.json"
    planted.write_graph(graph, path)
    out = _run_cli(cli, ["analyze", str(path)], capsys)
    planted.check_analyze(clusters, out)

    root, other = sorted(c[0] for c in clusters)[:2]
    wrong = [
        {**out, "ltp": out["ltp"][1:]},
        {**out, "C2": False},
        {**out, "persuaded": {**out["persuaded"], str(root): out["persuaded"][str(other)]}},
    ]
    for certificate in wrong:
        with pytest.raises(planted.OracleRejection):
            planted.check_analyze(clusters, certificate)


def test_oracle_checks_simulate_and_verify(analyzed, tmp_path, capsys):
    graph, clusters, cli = analyzed
    path = tmp_path / "g.json"
    planted.write_graph(graph, path)
    out = _run_cli(cli, ["simulate", str(path), "--out", str(tmp_path / "t.csv")], capsys)
    planted.check_simulate(clusters, out)
    merged = sorted(out["clusters"][0] + out["clusters"][1])
    with pytest.raises(planted.OracleRejection):
        planted.check_simulate(clusters, {**out, "clusters": [merged] + out["clusters"][2:]})
    out = _run_cli(cli, ["verify", str(path), "--trials", "3"], capsys)
    planted.check_verify(clusters, out)
    with pytest.raises(planted.OracleRejection):
        planted.check_verify(clusters, {**out, "passes": 2})


class _FakeCli:
    def __init__(self, behaviour):
        self.behaviour = behaviour

    def main(self, argv):
        return self.behaviour()


class PowerIterationStalled(Exception):
    pass


def _stall():
    raise PowerIterationStalled("stalled")


def test_failures_are_tallied_by_kind(analyzed):
    _, clusters, _ = analyzed
    job = run.Job(["analyze", "unused.json"], clusters, 60)

    def print_wrong():
        print(json.dumps({"ltp": [], "persuaded": {}, "C1": True, "C2": True}))
        return 0

    tally = run.Tally([
        run.run_job(_FakeCli(_stall), job),
        run.run_job(_FakeCli(lambda: 3), job),
        run.run_job(_FakeCli(print_wrong), job),
    ])
    assert tally.by_failure() == {
        "OracleRejection": 1, "PowerIterationStalled": 1, "exit 3": 1}
    result = tally.result({})
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 3, False)
    assert run.Tally(tally.outcomes[:1]).result({})["correct"]  # a crash is no wrong answer


def test_tracer_sees_calls_through_every_binding_and_restores_them(analyzed):
    import sfj.dynamics
    import sfj.graph
    from sfj.graph import graph_from_dict

    g = graph_from_dict(analyzed[0])
    original = sfj.graph.normalize
    tracer = tracing.Tracer(names=("dynamics.influence_matrix", "graph.normalize",
                                   "graph.no_such_function"))
    with tracer.patched():
        sfj.dynamics.influence_matrix(g)
    assert sfj.graph.normalize is original and sfj.dynamics.normalize is original
    assert [s.name for s in tracer.spans] == ["dynamics.influence_matrix", "graph.normalize"]
    assert tracer.spans[1].parent == 0
    assert tracer.missing == ["graph.no_such_function"]
    assert tracer.counts["graph.normalize"]["bytes_computed"] == 8 * g.n**2
