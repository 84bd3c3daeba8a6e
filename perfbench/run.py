#!/usr/bin/env python3
"""Benchmark of whole sfj CLI jobs: analyze, verify and simulate.

One process runs the jobs of one workload one after another (a closed loop
with one client), calling ``sfj.cli.main`` in-process with stdout captured,
and checks every answer against the structure planted in its input. A run is
one pass over a fixed job list whose length follows from ``--seconds`` alone,
so the jobs attempted (and, for a given program, the jobs that fail) never
depend on how fast the machine or the program is.

    python3 perfbench/run.py --workload analyze-large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1            # every workload, one process each

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced pass. The metric
names and units are those of BENCHMARK.json at the checkout root.
See perfbench/README.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import planted
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# A failed job never completes. It is charged this on top of its own wall
# time, which is how long a whole benchmark run is allowed to take and far
# above any completed job (the slowest, an n=5000 analyze or n=1000 simulate,
# takes about 5 s on the reference machine). So a failure sorts above every
# completed job, as +inf would, while each metric stays a finite number.
FAILURE_CHARGE_S = 180.0
BEYOND = 10  # the tail percentile leaves at least this many jobs above it
SETUP_SAMPLES = 5  # this process plus four fresh child processes
NOMINAL_SECONDS = 25.0  # the job counts below make a list for this many seconds
# reference_kernel's median time on the reference machine; reported times
# are in seconds at that machine's usual speed (see machine_speed).
REFERENCE_S = 0.008
KERNEL_REPEATS = 3  # kernel timings per speed reading
TRACE_ROUNDS = 2  # untraced-and-traced pairs per job in the traced run


@dataclass(frozen=True)
class Workload:
    command: str
    counts: dict[int, int]  # network size -> networks of that size at NOMINAL_SECONDS
    extra: tuple[str, ...] = ()
    g2_copies: int = 0  # the bundled 12-agent example, frozen in perfbench/g2.json


WORKLOADS = {
    "analyze-large": Workload("analyze", {1000: 40, 2000: 8, 5000: 6}),
    "verify-ladder": Workload(
        "verify", {16: 8, 32: 8, 64: 48, 100: 14, 200: 2}, ("--trials", "20"), g2_copies=2
    ),
    "simulate-mid": Workload("simulate", {200: 40, 500: 16, 1000: 2}),
}

G2_CLUSTERS = ((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12))


@dataclass(frozen=True)
class Job:
    argv: list[str]
    clusters: planted.Clusters  # what the oracle expects
    size: int


@dataclass
class Outcome:
    seconds: float  # wall time of cli.main
    failure: str | None = None  # exception name, "exit N" or "OracleRejection"
    step_s: float = 0.0  # wall time of the whole step: collector, job and oracle
    speed: float = 1.0  # machine speed around the job (machine_speed)

    @property
    def wrong_answer(self) -> bool:
        """The program answered, but wrongly; a crash is a failure, not an answer."""
        return self.failure == "OracleRejection" or (self.failure or "").startswith("exit")


# ---------------------------------------------------------------- statistics


def tail(values) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with BEYOND values above it.

    With BEYOND or fewer values no percentile qualifies; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(values)
    if len(ordered) <= BEYOND:
        return ordered[-1], 100.0
    rank = len(ordered) - BEYOND  # 1-based; exactly BEYOND values lie above it
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def charged(outcomes, scaled: bool = False) -> list[float]:
    """Each job's wall time, a failed job's plus FAILURE_CHARGE_S.

    Scaled, each time is first multiplied by the machine speed around that
    job, which gives seconds at the reference machine's speed.
    """
    return [o.seconds * (o.speed if scaled else 1.0) + (FAILURE_CHARGE_S if o.failure else 0.0)
            for o in outcomes]


def pass_metrics(outcomes, scaled: bool = True) -> dict:
    """Job-level metrics of one pass over the fixed list."""
    times = charged(outcomes, scaled)
    failures = sum(1 for o in outcomes if o.failure)
    wall_s = sum(o.step_s * (o.speed if scaled else 1.0) for o in outcomes)
    tail_s, tail_pct = tail(times)
    return {
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "tail_percentile": tail_pct,
        "jobs_per_s": len(outcomes) / (wall_s + FAILURE_CHARGE_S * failures),
        "failed_ratio": failures / len(outcomes),
    }


# ---------------------------------------------------------------- machine speed


def reference_kernel() -> None:
    """Fixed work of the three kinds sfj does.

    Interpreter-bound: dict updates, small set operations, a sort and small
    numpy reductions, as in verify's trials. Allocation-bound: building and
    intersecting sets of a thousand ints and a dict of thousands of keys, as
    in analyze's dominator tree. Fresh memory: an 8 MB array that the
    operating system maps, zeroes and takes back, as for analyze's large
    sets and simulate's traces. Its median time on the reference machine is
    REFERENCE_S.
    """
    import numpy

    table: dict[int, int] = {}
    for i in range(4500):
        table[i % 509] = table.get(i % 509, 0) + i
    rows = [set(range(k, k + 40)) for k in range(0, 600, 4)]
    common: set[int] = set()
    for a, b in zip(rows, rows[1:]):
        common |= a & b
    sorted(table.values(), reverse=True)
    square = numpy.arange(4096.0).reshape(64, 64)
    for _ in range(45):
        float(numpy.max(numpy.abs(square - square.T)))

    big = [set(range(k * 7, k * 7 + 1000)) for k in range(16)]
    shared = sum(len(a & b) for a, b in zip(big, big[1:]))
    index = {i: shared for i in range(3000)}
    del big, index

    float(numpy.ones(1 << 20).sum())


def machine_speed() -> float:
    """REFERENCE_S over the kernel's median time now: 1.0 at the reference speed.

    The shared machine's speed wanders by a quarter within a minute, in CPU
    time as in wall time. A job's time multiplied by the speed read around
    it no longer follows the machine. A change to sfj moves the job's
    time and not the kernel's, so it shows in full.
    """
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return REFERENCE_S / statistics.median(times)


# ---------------------------------------------------------------- set-up


def one_blas_thread() -> None:
    """One BLAS thread (before numpy loads), inherited by child processes.

    On a shared machine with few CPUs, a second BLAS thread waits on a CPU
    that other work may hold, and the same job's time then varies far more.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_cli():
    """sfj.cli from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "sfj" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no sfj sources under {src}")
    sys.path.insert(0, str(src))
    import sfj.cli

    if Path(sfj.cli.__file__).resolve().parent != (src / "sfj").resolve():
        raise SystemExit(f"perfbench: sfj imported from {sfj.cli.__file__}, not {src}")
    return sfj.cli


def count_for(count: int, seconds: float) -> int:
    """A nominal job count for a list of `seconds` seconds, at least one."""
    return max(1, round(count * seconds / NOMINAL_SECONDS))


def build_jobs(name: str, seed: int, seconds: float, workdir: Path) -> list[Job]:
    """Write the workload's inputs and return its fixed job list, sizes interleaved."""
    workload = WORKLOADS[name]
    by_size: list[list[Job]] = []
    if workload.g2_copies:
        path = workdir / "g2.json"
        shutil.copyfile(HERE / "g2.json", path)
        job = Job(_argv(workload, path, workdir), G2_CLUSTERS, 12)
        by_size.append([job] * count_for(workload.g2_copies, seconds))
    for n, count in workload.counts.items():
        jobs = []
        for i in range(count_for(count, seconds)):
            # The i-th network of size n is fixed; the run's seed draws its
            # initial opinions. Every seed thus asks for the same work, fails
            # the same jobs, and runs differ only by the machine.
            shape, clusters = planted.planted_network(n, max(2, n // 20), seed=n * 1_000 + i)
            graph = planted.with_opinions(shape, seed=seed * 1_000_003 + n * 1_000 + i)
            path = workdir / f"n{n}_{i}.json"
            planted.write_graph(graph, path)
            jobs.append(Job(_argv(workload, path, workdir), clusters, n))
        by_size.append(jobs)
    longest = max(len(jobs) for jobs in by_size)
    return [jobs[i] for i in range(longest) for jobs in by_size if i < len(jobs)]


def _argv(workload: Workload, path: Path, workdir: Path) -> list[str]:
    argv = [workload.command, str(path), *workload.extra]
    if workload.command == "simulate":
        argv += ["--out", str(workdir / f"trace_{path.stem}.csv")]
    return argv


def set_up(name: str, seed: int, seconds: float, workdir: Path):
    """Import sfj, write the inputs and run one warm-up job; returns (cli, jobs, seconds).

    The seconds are scaled by the machine speed read right after set-up.
    """
    start = time.perf_counter()
    cli = import_cli()
    jobs = build_jobs(name, seed, seconds, workdir)
    warm = run_job(cli, jobs[0])
    if warm.wrong_answer:
        print(f"warm-up job gave a wrong answer: {warm.failure}")
    setup_s = time.perf_counter() - start
    reference_kernel()  # its first call pays numpy's first-use costs
    setup_s *= machine_speed()
    # A CLI process would not hold the benchmark's own objects: keep them out
    # of the collector's way during the measured jobs.
    gc.freeze()
    return cli, jobs, setup_s


def setup_in_child(name: str, seed: int, seconds: float) -> float:
    """Set-up time of a fresh process, which pays the imports again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-only", "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------- jobs


def run_job(cli, job: Job) -> Outcome:
    gc.collect()  # start from a clean heap, as a fresh CLI process would
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(job.argv)
    except Exception as exc:  # escapes cli.main: the user sees a traceback
        return Outcome(time.perf_counter() - start, type(exc).__name__)
    outcome = Outcome(time.perf_counter() - start)
    if code != 0:
        outcome.failure = f"exit {code}"
        return outcome
    try:
        planted.CHECKS[job.argv[0]](job.clusters, json.loads(out.getvalue()))
    except (planted.OracleRejection, json.JSONDecodeError):
        outcome.failure = "OracleRejection"
    return outcome


@dataclass
class Tally:
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.failure)

    def by_failure(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for o in self.outcomes:
            if o.failure:
                counts[o.failure] = counts.get(o.failure, 0) + 1
        return dict(sorted(counts.items()))

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not any(o.wrong_answer for o in self.outcomes),
            "attempted": len(self.outcomes),
            "failed": self.failed,
            "metrics": metrics,
        }


def run_pass(cli, jobs) -> list[Outcome]:
    """Every job of the list in order, with a machine speed reading between jobs.

    A job's speed is the mean of the readings just before and just after it.
    """
    outcomes = []
    before = machine_speed()
    for job in jobs:
        start = time.perf_counter()
        outcome = run_job(cli, job)
        outcome.step_s = time.perf_counter() - start
        after = machine_speed()
        outcome.speed = (before + after) / 2
        outcomes.append(outcome)
        before = after
    return outcomes


# ---------------------------------------------------------------- reporting


def declared(kind: str) -> list[dict]:
    """The metric declarations of BENCHMARK.json: 'end_to_end' or 'per_layer'."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def as_metrics(kind: str, values: dict) -> tuple[dict, list[str]]:
    """Declared metrics in declared order; names with no value are missing (0)."""
    metrics, missing = {}, []
    for spec in declared(kind):
        value = values.get(spec["name"])
        if value is None:
            missing.append(spec["name"])
            value = 0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return metrics, missing


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def end_to_end(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    cli, jobs, setup_s = set_up(name, seed, seconds, workdir)
    setups = [setup_s] + [setup_in_child(name, seed, seconds) for _ in range(SETUP_SAMPLES - 1)]
    outcomes = run_pass(cli, jobs)
    tally = Tally(outcomes)
    values = pass_metrics(outcomes)
    raw = pass_metrics(outcomes, scaled=False)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["setup_s"] = statistics.median(setups)

    wall_s = sum(o.step_s for o in outcomes)
    print(f"{name} seed {seed}: {len(jobs)} jobs in {wall_s:.1f} s; {environment()}")
    print(f"  failures by kind: {tally.by_failure() or 'none'}")
    print(f"  job_tail_s is the p{values['tail_percentile']:.1f} of the {len(jobs)} jobs "
          f"of a pass; a failed job is charged {FAILURE_CHARGE_S:.0f} s plus its wall time")
    print(f"  failed_ratio {values['failed_ratio']:.4f} (1); "
          f"setup_s samples {[round(s, 4) for s in setups]}")
    speeds = [o.speed for o in outcomes]
    print(f"  machine speed around each job: median {statistics.median(speeds):.3f}, "
          f"{min(speeds):.3f} to {max(speeds):.3f}; unscaled: "
          + ", ".join(f"{key} {raw[key]:.6g}" for key in ("job_p50_s", "job_tail_s", "jobs_per_s")))
    metrics, _ = as_metrics("end_to_end", values)
    for key, metric in metrics.items():
        print(f"  {key:<12} {metric['value']:.6g} {metric['unit']}")
    return tally.result(metrics)


def traced(name: str, seed: int, workdir: Path) -> dict:
    """Per-layer metrics from one job per size, then a separate tracemalloc pass.

    Each job runs untraced and traced back to back, TRACE_ROUNDS times with
    the order swapped every round, so the overhead estimate sees the same
    machine state on both sides; both job times are scaled by the machine
    speed. Per-layer values are unscaled, per pass over the sample, averaged
    over the rounds.
    """
    import tracemalloc

    cli, jobs, _ = set_up(name, seed, NOMINAL_SECONDS, workdir)
    first_of_size = {}
    for job in jobs:
        first_of_size.setdefault(job.size, job)
    sample = list(first_of_size.values())
    tracer = tracing.Tracer()
    untraced_out, traced_out = [], []
    for round_ in range(TRACE_ROUNDS):
        for index, job in enumerate(sample):
            for with_trace in (False, True) if round_ % 2 == 0 else (True, False):
                if not with_trace:
                    untraced_out.extend(run_pass(cli, [job]))
                    continue
                tracer.job = round_ * len(sample) + index
                with tracer.patched():
                    traced_out.extend(run_pass(cli, [job]))
    alloc = tracing.AllocTracer()
    tracemalloc.start()
    try:
        with alloc.patched():
            alloc_out = run_pass(cli, sample)
    finally:
        tracemalloc.stop()
    tally = Tally(untraced_out + traced_out + alloc_out)

    values: dict[str, float] = {}
    summary = tracing.summarize(tracer.spans)
    for fn in tracing.TRACED:
        if fn in tracer.missing:
            continue
        totals = summary.get(fn, {"self_s": 0.0, "calls": 0, "failed": 0})
        if fn not in tracer.uncounted:
            totals.update(tracer.counts.get(fn, {}))
        values.update({f"{fn}.{key}": v / TRACE_ROUNDS for key, v in totals.items()})
    _derived(values, tracer)
    for fn in tracing.ALLOC_TRACED:
        if fn not in alloc.missing:
            values[f"{fn}.peak_alloc_mb"] = alloc.peak_mb.get(fn, 0.0)
    untraced_p50 = statistics.median(charged(untraced_out, scaled=True))
    traced_p50 = statistics.median(charged(traced_out, scaled=True))
    values["trace.untraced_job_p50_s"] = untraced_p50
    values["trace.traced_job_p50_s"] = traced_p50
    values["trace.overhead_ratio"] = traced_p50 / untraced_p50 - 1.0

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.json"
    spans_path.write_text(json.dumps(
        [vars(s) for s in tracer.spans], separators=(",", ":")))
    metrics, missing = as_metrics("per_layer", values)
    print(f"{name} seed {seed}: traced {len(sample)} jobs, one per size, {TRACE_ROUNDS} rounds; "
          f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    print(f"  failures by kind: {tally.by_failure() or 'none'}")
    print(f"  tracing overhead: job_p50_s {traced_p50:.6g} s traced vs "
          f"{untraced_p50:.6g} s untraced ({100 * values['trace.overhead_ratio']:+.1f}%)")
    print(f"  missing (reported as 0): {missing or 'none'}")
    for key, metric in metrics.items():
        print(f"  {key:<48} {metric['value']:.6g} {metric['unit']}")
    return tally.result(metrics)


def _derived(values: dict, tracer) -> None:
    """Ratios over the raw counters, where their inputs were counted."""
    sim = "dynamics.simulate"
    if f"{sim}.iterations" in values:
        iterations = values[f"{sim}.iterations"]
        values[f"{sim}.per_iter_s"] = values[f"{sim}.self_s"] / iterations if iterations else 0.0
    harness = "verification.robustness_harness"
    if f"{harness}.trials" in values:
        trials = values[f"{harness}.trials"]
        passes = values.pop(f"{harness}.passes")
        values[f"{harness}.pass_ratio"] = passes / trials if trials else 0.0
    # A counted function that exists but was not called this run counts zero.
    for fn, counters in (
        ("graph.normalize", ("bytes_computed",)),
        ("dynamics.influence_matrix", ("flops_computed",)),
        (sim, ("iterations", "bytes_computed", "per_iter_s")),
        ("dynamics.write_trace_csv", ("bytes_written",)),
        (harness, ("trials", "pass_ratio")),
    ):
        if f"{fn}.calls" in values and fn not in tracer.uncounted:
            for counter in counters:
                values.setdefault(f"{fn}.{counter}", 0)


# ---------------------------------------------------------------- entry point


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process), then a summary."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.splitlines()[-1])))
    print("\nsummary")
    for name, result in rows:
        verdict = "correct" if result["correct"] else "WRONG ANSWERS"
        print(f"{name}: oracle {verdict}; {result['failed']} of {result['attempted']} jobs failed")
        if not args.trace:
            ratio = result["failed"] / result["attempted"]
            metrics = {**result["metrics"], "failed_ratio": {"value": ratio, "unit": "1"}}
            print("  " + ", ".join(
                f"{key} {m['value']:.6g} {m['unit']}" for key, m in metrics.items()))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload NAME or --all")

    one_blas_thread()
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            result = {"setup_s": set_up(args.workload, args.seed, args.seconds, workdir)[2]}
        elif args.trace:
            result = traced(args.workload, args.seed, workdir)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
