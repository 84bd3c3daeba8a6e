"""Spans and counters around sfj's public functions, recorded from outside.

The tracer replaces each named function at every ``sfj.*`` module binding
(``from .graph import normalize`` in ``sfj.dynamics`` is its own binding) and
on the class for methods, so calls between sfj's own modules are seen too.
Nothing inside sfj is edited. A name that no longer exists is reported as
missing instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Optional

MB = 1024 * 1024


def _normalize_counts(args, result):
    return {"bytes_computed": 8 * args[0].n ** 2}


def _influence_counts(args, result):
    n = args[0].n
    # LU factorisation (2/3 n^3) plus n right-hand sides (2 n^2 each).
    return {"flops_computed": 8 * n**3 // 3}


def _simulate_counts(args, result):
    n = args[0].n
    return {"iterations": result.iterations, "bytes_computed": result.iterations * 8 * n * n}


def _harness_counts(args, result):
    return {"trials": result.trials, "passes": result.passes}


def _csv_counts(args, result):
    # The CLI opens a fresh file for every trace, so the end position is the size.
    return {"bytes_written": args[1].tell()}


# Traced functions, as "<module>.<name>" relative to the sfj package, each with
# the counters its successful calls add.
TRACED: dict[str, Optional[Callable]] = {
    "cli.main": None,
    "graph.load_graph": None,
    "graph.check_reachability": None,
    "graph.normalize": _normalize_counts,
    "graph.SignedDigraph.reweighted": None,
    "ltp.build_dominator_tree": None,
    "ltp.detect_ltp_agents": None,
    "ltp.check_conditions": None,
    "dynamics.spectral_radius": None,
    "dynamics.influence_matrix": _influence_counts,
    "dynamics.simulate": _simulate_counts,
    "dynamics.write_trace_csv": _csv_counts,
    "verification.robustness_harness": _harness_counts,
    "verification.clusters_from_influence": None,
    "verification.cluster_spread": None,
    "verification.clusters_from_trace": None,
}

# Functions whose peak allocation the separate tracemalloc pass measures.
ALLOC_TRACED = ("ltp.build_dominator_tree", "dynamics.influence_matrix", "dynamics.simulate")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into the span list
    job: int
    error: Optional[str] = None


def _bindings(qualname: str):
    """The function a name refers to (None if gone) and the objects that may bind it."""
    module_name, *path = qualname.split(".")
    target = sys.modules.get(f"sfj.{module_name}")
    for part in path[:-1]:
        target = getattr(target, part, None)
    original = getattr(target, path[-1], None)
    if len(path) > 1:  # a method: its class is the only binding
        return original, [target]
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "sfj" or name.startswith("sfj."))]
    return original, modules


class _Patches:
    """Installs wrappers at every binding and restores the originals on exit."""

    def __init__(self, wrap: Callable[[str, Callable], Callable], names):
        self.wrap = wrap
        self.names = names
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        for qualname in self.names:
            original, owners = _bindings(qualname)
            if original is None:
                self.missing.append(qualname)
                continue
            wrapper = self.wrap(qualname, original)
            for owner in owners:
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._undo.append((owner, name, original))
                        setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


class Tracer:
    """Records one span per call of a traced function, plus its counters."""

    def __init__(self, names=tuple(TRACED)):
        self.names = names
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = {}
        self.missing: list[str] = []
        self.uncounted: set[str] = set()  # functions whose counters no longer apply
        self.job = -1
        self._stack: list[int] = []

    def _wrap(self, qualname, fn):
        counter = TRACED.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(qualname, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                self._count(qualname, counter, args, result)
            return result

        return traced

    def _count(self, qualname, counter, args, result):
        try:
            counts = counter(args, result)
        except (AttributeError, IndexError, TypeError, ValueError):
            self.uncounted.add(qualname)  # its signature or result changed
            return
        into = self.counts.setdefault(qualname, {})
        for key, value in counts.items():
            into[key] = into.get(key, 0) + value

    def patched(self):
        patches = _Patches(self._wrap, self.names)
        self.missing = patches.missing
        return patches


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per function: self time, calls, and calls that raised."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, {"self_s": 0.0, "calls": 0, "failed": 0})
        entry["self_s"] += own
        entry["calls"] += 1
        entry["failed"] += span.error is not None
    return out


class AllocTracer:
    """Peak traced allocation within each call, from a tracemalloc pass."""

    def __init__(self, names=ALLOC_TRACED):
        self.names = names
        self.peak_mb: dict[str, float] = {}
        self.missing: list[str] = []

    def _wrap(self, qualname, fn):
        # The measured functions never call one another, so resetting the
        # peak at entry does not disturb an enclosing measurement.
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = (tracemalloc.get_traced_memory()[1] - base) / MB
                self.peak_mb[qualname] = max(self.peak_mb.get(qualname, 0.0), peak)

        return measured

    def patched(self):
        patches = _Patches(self._wrap, self.names)
        self.missing = patches.missing
        return patches
