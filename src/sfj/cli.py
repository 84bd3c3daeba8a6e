"""Command-line front end.

Subcommands: analyze, simulate, predict, verify, generate. All JSON outputs
carry a "schema": 1 field. Exit codes are stable: 0 success, 1 usage,
2 parse/validation, 3 conditions-not-met or a singular block, 4 not-converged,
5 out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import orjson

from . import dynamics, verification
from .errors import (
    ConditionsNotMet,
    GraphFormatError,
    GraphValidationError,
    InfeasibleParameters,
    NotConverged,
    SingularBlock,
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
EXIT_MEMORY = 5

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract says 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(payload: dict) -> None:
    """Write {"schema": 1, **payload} as json.dumps(..., indent=2) does, one
    item per line: a list or dict by orjson, the rest by json.dumps with no
    indent, which takes json's C encoder. orjson writes the same bytes only
    for ints from -2**63 to 2**64 - 1, bools, None, strings of the characters
    ' '..'~', lists, and dicts keyed by such strings, at most 255 levels
    deep; so floats and user text may come only as top-level scalars. The
    analyze, predict, verify and simulate replies hold nothing else: agent
    ids are at most 2**53 by validation, and violation reasons are f-strings
    of ints."""
    items = ",\n".join(
        f"{json.dumps(key)}: "
        + (orjson.dumps(value, option=orjson.OPT_INDENT_2).decode()
           if isinstance(value, (list, dict)) else json.dumps(value))
        for key, value in {"schema": SCHEMA_VERSION, **payload}.items()
    )
    sys.stdout.write("{\n  " + items.replace("\n", "\n  ") + "\n}\n")


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
    if env_seed is None:
        return args.seed
    try:
        return _seed_type(env_seed)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"SFJ_SEED {exc}") from None


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
    # Opened before simulating, so an unwritable path costs no iterations;
    # simulate streams the trace into it and keeps only the final state.
    # A 64 KB buffer takes a block's lines in 8 times fewer write calls.
    with open(args.out, "w", encoding="utf-8", newline="", buffering=2**16) as fh:
        try:
            trace = dynamics.simulate(
                g, tol=args.tol, max_iter=args.max_iter, out=fh
            )
        except NotConverged as exc:
            raise NotConverged(
                exc.trace, f"{exc}; partial trace written to {args.out}"
            ) from exc

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
    except ConditionsNotMet:
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
        raise ConditionsNotMet(
            f"{report.trials - report.passes} of {report.trials} trials "
            f"did not reproduce the predicted partition; the first was trial "
            f"{trial} of seed {report.seed} (rerun it last with "
            f"--seed {report.seed} --trials {trial + 1})"
        )
    return EXIT_OK


def cmd_generate(args) -> int:
    g = random_multiconsensus_graph(args.n, args.z, seed=_seed(args))
    if args.out == "-":  # a graph holds floats in its lists: not a reply for _emit
        payload = {"schema": SCHEMA_VERSION, **graph_to_dict(g)}
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
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


def _seed_type(text):
    """--seed's argparse type, and SFJ_SEED's parser: a non-negative int, as
    numpy's seeding takes."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return value


# Each subcommand takes only the flags it reads.
_FLAGS = {
    "--tol": dict(type=_positive(float), default=dynamics.DEFAULT_TOL,
                  help="convergence tolerance (infinity norm)"),
    "--max-iter": dict(type=_positive(int), default=dynamics.DEFAULT_MAX_ITER),
    "--tau": dict(type=_positive(float), default=verification.DEFAULT_TAU,
                  help="cluster-equality tolerance, relative"),
    "--trials": dict(type=_positive(int), default=200),
    "--seed": dict(type=_seed_type, default=0, help="RNG seed; env var SFJ_SEED overrides"),
    "--mode": dict(choices=("strict", "relaxed"), default="strict"),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **_FLAGS[name])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; each parse_args call starts a fresh namespace.
    set_defaults binds each subcommand's func at the first build."""
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
    except (ConditionsNotMet, SingularBlock) as exc:
        return _fail(EXIT_CONDITIONS, str(exc))
    except NotConverged as exc:
        return _fail(EXIT_NOT_CONVERGED, str(exc))
    except MemoryError as exc:  # numpy's names the allocation it refused
        return _fail(EXIT_MEMORY, str(exc) or "out of memory")
    except OSError as exc:  # _load turned read errors into GraphFormatError
        out = getattr(args, "out", "-")  # "-" is stdout, as for generate
        return _fail(EXIT_USAGE, f"cannot write {out}: {exc.strerror}")
    except (InfeasibleParameters, ValueError) as exc:
        return _fail(EXIT_USAGE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
