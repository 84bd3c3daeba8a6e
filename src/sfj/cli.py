"""Command-line front end.

Subcommands: analyze, simulate, predict, verify, generate. All JSON outputs
carry a "schema": 1 field. Exit codes are stable: 0 success, 1 usage,
2 parse/validation, 3 conditions-not-met, 4 not-converged.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from . import dynamics, verification
from .errors import (
    ConditionsNotMet,
    GraphFormatError,
    GraphValidationError,
    InfeasibleParameters,
    NoStubbornAgents,
    NotConverged,
    SingularSystem,
    UnreachableNodes,
)
from .generator import random_multiconsensus_graph
from .graph import load_graph, save_graph
from .ltp import analyze, certificate_to_dict, predict_clusters
from .verification import robustness_report_to_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_CONDITIONS = 3
EXIT_NOT_CONVERGED = 4

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    tolerance: float = dynamics.DEFAULT_TOL
    max_iter: int = dynamics.DEFAULT_MAX_ITER
    tau: float = verification.DEFAULT_TAU
    trials: int = 200
    seed: int = 0
    mode: str = "strict"

    def __post_init__(self):
        if min(self.tolerance, self.tau) <= 0 or min(self.max_iter, self.trials) <= 0:
            raise ValueError("tolerance, tau, max-iter and trials must be positive")
        # min() lets NaN through, so finiteness is checked on its own.
        if not (math.isfinite(self.tolerance) and math.isfinite(self.tau)):
            raise ValueError("tolerance and tau must be finite")
        if self.mode not in ("strict", "relaxed"):
            raise ValueError(f"unknown mode {self.mode!r}")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract says 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(payload: dict) -> None:
    payload = {"schema": SCHEMA_VERSION, **payload}
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _fail(code: int, message: str) -> int:
    print(f"sfj: error: {message}", file=sys.stderr)
    return code


def _load(path):
    try:
        return load_graph(path), None
    except OSError as exc:  # missing file, a directory, no permission
        return None, _fail(EXIT_PARSE, f"cannot read {path}: {exc.strerror}")
    except (GraphFormatError, GraphValidationError) as exc:
        return None, _fail(EXIT_PARSE, str(exc))
    except ValueError as exc:  # includes UnicodeDecodeError for non-UTF-8 files
        return None, _fail(EXIT_PARSE, f"cannot parse {path}: {exc}")


def _config_from(args) -> RunConfig:
    seed = args.seed
    env_seed = os.environ.get("SFJ_SEED")
    if env_seed is not None:
        seed = int(env_seed)
    return RunConfig(
        tolerance=args.tol,
        max_iter=args.max_iter,
        tau=args.tau,
        trials=args.trials,
        seed=seed,
        mode=args.mode,
    )


def cmd_analyze(args) -> int:
    g, err = _load(args.graph)
    if err is not None:
        return err
    try:
        cert = analyze(g)
    except (NoStubbornAgents, UnreachableNodes) as exc:
        return _fail(EXIT_CONDITIONS, str(exc))
    _emit(certificate_to_dict(cert))
    return EXIT_OK


def cmd_predict(args) -> int:
    g, err = _load(args.graph)
    if err is not None:
        return err
    config = _config_from(args)
    try:
        cert = analyze(g)
        prediction = predict_clusters(cert, mode=config.mode)
    except (NoStubbornAgents, UnreachableNodes, ConditionsNotMet) as exc:
        return _fail(EXIT_CONDITIONS, str(exc))
    _emit(
        {
            "mode": config.mode,
            "clusters": [sorted(c) for c in prediction.clusters],
            "flagged_singletons": sorted(prediction.flagged_singletons),
        }
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    g, err = _load(args.graph)
    if err is not None:
        return err
    config = _config_from(args)

    failure = None
    try:
        # Opened before simulating, so an unwritable path costs no iterations.
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            try:
                trace = dynamics.simulate(
                    g, tol=config.tolerance, max_iter=config.max_iter
                )
            except NotConverged as exc:
                trace, failure = exc.trace, exc
            dynamics.write_trace_csv(trace, fh)
    except OSError as exc:
        return _fail(EXIT_USAGE, f"cannot write {args.out}: {exc.strerror}")
    if failure is not None:
        return _fail(
            EXIT_NOT_CONVERGED,
            f"{failure}; partial trace written to {args.out}",
        )

    observed = verification.clusters_from_trace(trace, tau=config.tau)
    payload = {
        "converged": trace.converged,
        "iterations": trace.iterations,
        "residual": trace.residual,
        "trace": args.out,
        "clusters": [sorted(c) for c in observed],
    }
    try:
        cert = analyze(g)
        prediction = predict_clusters(cert, mode="relaxed")
        payload["predicted"] = [sorted(c) for c in prediction.clusters]
        payload["match"] = verification.refines(prediction.clusters, observed)
    except (NoStubbornAgents, UnreachableNodes, ConditionsNotMet):
        payload["predicted"] = None
        payload["match"] = None
    _emit(payload)
    return EXIT_OK


def cmd_verify(args) -> int:
    g, err = _load(args.graph)
    if err is not None:
        return err
    config = _config_from(args)
    try:
        report = verification.robustness_harness(
            g, trials=config.trials, seed=config.seed, tau=config.tau
        )
    except (NoStubbornAgents, UnreachableNodes, ConditionsNotMet, SingularSystem) as exc:
        return _fail(EXIT_CONDITIONS, str(exc))
    _emit(robustness_report_to_dict(report))
    if not report.all_passed:
        trial = report.first_failure.trial
        return _fail(
            EXIT_CONDITIONS,
            f"{report.trials - report.passes} of {report.trials} trials "
            f"did not reproduce the predicted partition; the first was trial "
            f"{trial} of seed {report.seed} (rerun it last with "
            f"--seed {report.seed} --trials {trial + 1})",
        )
    return EXIT_OK


def cmd_generate(args) -> int:
    seed = args.seed
    env_seed = os.environ.get("SFJ_SEED")
    if env_seed is not None:
        seed = int(env_seed)
    try:
        g = random_multiconsensus_graph(args.n, args.z, seed=seed)
    except InfeasibleParameters as exc:
        return _fail(EXIT_USAGE, str(exc))
    if args.out == "-":
        from .graph import graph_to_dict

        _emit(graph_to_dict(g))
    else:
        try:
            save_graph(g, args.out)
        except OSError as exc:
            return _fail(EXIT_USAGE, f"cannot write {args.out}: {exc.strerror}")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=dynamics.DEFAULT_TOL,
                        help="convergence tolerance (infinity norm)")
    parser.add_argument("--max-iter", type=int, default=dynamics.DEFAULT_MAX_ITER)
    parser.add_argument("--tau", type=float, default=verification.DEFAULT_TAU,
                        help="cluster-equality tolerance, relative")
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed; env var SFJ_SEED overrides")
    parser.add_argument("--mode", choices=("strict", "relaxed"), default="strict")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sfj",
        description="Multiconsensus analysis of signed directed influence networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="detect persuasive agents")
    p.add_argument("graph")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("predict", help="predicted opinion clusters")
    p.add_argument("graph")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="iterate the dynamics, write a CSV trace")
    p.add_argument("graph")
    p.add_argument("--out", default="trace.csv", help="trace CSV destination")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="randomized reweighting robustness check")
    p.add_argument("graph")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="emit a random two-condition network")
    p.add_argument("n", type=int)
    p.add_argument("z", type=int)
    p.add_argument("--out", default="-", help="output file, '-' for stdout")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
