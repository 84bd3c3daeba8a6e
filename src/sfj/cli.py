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

from . import dynamics, verification
from .errors import (
    ConditionsNotMet,
    GraphFormatError,
    GraphValidationError,
    InfeasibleParameters,
    NoStubbornAgents,
    NotConverged,
    UnreachableNodes,
)
from .generator import random_multiconsensus_graph
from .graph import graph_to_dict, load_graph, save_graph
from .ltp import analyze, certificate_to_dict, predict_clusters
from .verification import robustness_report_to_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_CONDITIONS = 3
EXIT_NOT_CONVERGED = 4

SCHEMA_VERSION = 1


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
    """load_graph, with every way of failing to read path as a GraphFormatError."""
    try:
        return load_graph(path)
    except OSError as exc:  # missing file, a directory, no permission
        raise GraphFormatError(f"cannot read {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # non-UTF-8; JSON nested too deep
        raise GraphFormatError(f"cannot parse {path}: {exc}") from exc


def _seed(args) -> int:
    """--seed, unless the environment variable SFJ_SEED overrides it."""
    env_seed = os.environ.get("SFJ_SEED")
    return args.seed if env_seed is None else int(env_seed)


def cmd_analyze(args) -> int:
    _emit(certificate_to_dict(analyze(_load(args.graph))))
    return EXIT_OK


def cmd_predict(args) -> int:
    prediction = predict_clusters(analyze(_load(args.graph)), mode=args.mode)
    _emit(
        {
            "mode": args.mode,
            "clusters": [sorted(c) for c in prediction.clusters],
            "flagged_singletons": sorted(prediction.flagged_singletons),
        }
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    g = _load(args.graph)
    # Opened before simulating, so an unwritable path costs no iterations.
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        try:
            trace = dynamics.simulate(g, tol=args.tol, max_iter=args.max_iter)
        except NotConverged as exc:
            dynamics.write_trace_csv(exc.trace, fh)
            raise NotConverged(
                exc.trace, f"{exc}; partial trace written to {args.out}"
            ) from exc
        dynamics.write_trace_csv(trace, fh)

    observed = verification.clusters_from_trace(trace, tau=args.tau)
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
    report = verification.robustness_harness(
        _load(args.graph), trials=args.trials, seed=_seed(args), tau=args.tau
    )
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
    g = random_multiconsensus_graph(args.n, args.z, seed=_seed(args))
    if args.out == "-":
        _emit(graph_to_dict(g))
    else:
        save_graph(g, args.out)
    return EXIT_OK


def _positive(kind):
    """An argparse type: a number of the given kind that is positive and finite."""

    def parse(text):
        value = kind(text)
        if not 0 < value < math.inf:  # false for NaN as well
            raise argparse.ArgumentTypeError(
                f"must be positive and finite, got {text!r}"
            )
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


# Each subcommand takes only the flags it reads.
_FLAGS = {
    "--tol": dict(type=_positive(float), default=dynamics.DEFAULT_TOL,
                  help="convergence tolerance (infinity norm)"),
    "--max-iter": dict(type=_positive(int), default=dynamics.DEFAULT_MAX_ITER),
    "--tau": dict(type=_positive(float), default=verification.DEFAULT_TAU,
                  help="cluster-equality tolerance, relative"),
    "--trials": dict(type=_positive(int), default=200),
    "--seed": dict(type=int, default=0, help="RNG seed; env var SFJ_SEED overrides"),
    "--mode": dict(choices=("strict", "relaxed"), default="strict"),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sfj",
        description="Multiconsensus analysis of signed directed influence networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="detect persuasive agents")
    p.add_argument("graph")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("predict", help="predicted opinion clusters")
    p.add_argument("graph")
    _add_flags(p, "--mode")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="iterate the dynamics, write a CSV trace")
    p.add_argument("graph")
    p.add_argument("--out", default="trace.csv", help="trace CSV destination")
    _add_flags(p, "--tol", "--max-iter", "--tau")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="randomized reweighting robustness check")
    p.add_argument("graph")
    _add_flags(p, "--trials", "--seed", "--tau")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="emit a random two-condition network")
    p.add_argument("n", type=int)
    p.add_argument("z", type=int)
    p.add_argument("--out", default="-", help="output file, '-' for stdout")
    _add_flags(p, "--seed")
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    """Run one subcommand. The only place an exception becomes an exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except (GraphFormatError, GraphValidationError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    except (NoStubbornAgents, UnreachableNodes, ConditionsNotMet) as exc:
        return _fail(EXIT_CONDITIONS, str(exc))
    except NotConverged as exc:
        return _fail(EXIT_NOT_CONVERGED, str(exc))
    except OSError as exc:  # _load turned read errors into GraphFormatError
        out = getattr(args, "out", "-")  # "-" is stdout, as for generate
        return _fail(EXIT_USAGE, f"cannot write {out}: {exc.strerror}")
    except (InfeasibleParameters, ValueError) as exc:
        return _fail(EXIT_USAGE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
