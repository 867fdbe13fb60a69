"""Outside-in tracing of pfrsim's public functions.

The wrappers live in the benchmark, not in the program.  Each one replaces
a function in every ``pfrsim`` module namespace that bound the name, so a
call made inside the package (``pfr.log_beta`` into ``numerics.integrate``)
is seen as well as a call from the CLI: pfrsim modules look their globals
up at call time.

Functions that take tens of microseconds or more get one span per call:
name, start, end and parent.  Spans stay in memory and are reduced to
per-layer totals when the traced run ends.  Functions that take about a
microsecond (``renyi_divergence``, ``DistributionPair.log_ratio``) are only
counted, so that tracing does not swamp them; the time of
``renyi_divergence`` is accumulated without a span and charged to it
rather than to its caller.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from contextlib import contextmanager

import numpy as np


def _draws(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["n"]


def _points(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["u"]))


def _candidates(args, kwargs, result):
    return result.candidates_examined


def _nodes(args, kwargs, result):
    return len(result[0])


def _rows(args, kwargs, result):
    return len(result)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _failed_checks(args, kwargs, result):
    return sum(not r.passed for r in result)


#: (module, function, note): one span per call; ``note`` extracts a count
#: from the arguments or the result and is summed per function.
SPAN_TARGETS = (
    ("pfrsim.pfr", "run_pfr", _candidates),
    ("pfrsim.pfr", "sample_indices", _draws),
    ("pfrsim.pfr", "index_pmf", None),
    ("pfrsim.pfr", "log_beta", _points),
    ("pfrsim.numerics", "integrate", None),
    ("pfrsim.numerics", "quadrature_grid", _nodes),
    ("pfrsim.numerics", "minimize_scalar", None),
    ("pfrsim.bounds", "optimize_ub", None),
    ("pfrsim.bounds", "sweep", _rows),
    ("pfrsim.codes", "renyi_entropy", None),
    ("pfrsim.codes", "campbell_cost", None),
    ("pfrsim.oracle", "run_suite", _failed_checks),
    ("pfrsim.oracle", "verify_moment_bounds", None),
    ("pfrsim.oracle", "verify_log_moment", None),
    ("pfrsim.oracle", "verify_geometric_moment", None),
    ("pfrsim.oracle", "verify_lb_via_optimal_code", None),
    ("pfrsim.svg", "write_line_chart", _file_bytes),
)

#: Timed without a span: about a microsecond per call.
TIMED_COUNT_TARGETS = (("pfrsim.distributions", "renyi_divergence"),)


def _label(module: str, name: str) -> str:
    return f"{module.removeprefix('pfrsim.')}.{name}"


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``spans`` holds ``(name, start, end, parent)`` tuples, ``parent`` being
    an index into ``spans`` or -1.  ``calls``, ``notes`` and ``timed`` are
    per-name totals for the wrappers that keep no spans.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self.notes: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.timed: dict[str, float] = {}
        # time of span-less timed calls, charged to the enclosing span
        self._hidden: dict[int, float] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._log_ratio_points = [0]

    @contextmanager
    def span(self, name: str):
        idx = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, t0)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, t0: float) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, t0, t1, parent)

    def _note(self, name: str, value: int) -> None:
        self.notes[name] = self.notes.get(name, 0) + int(value)

    def _span_wrapper(self, name, fn, note):
        tracer = self
        probes = name == "numerics.minimize_scalar"

        def wrapper(*args, **kwargs):
            if probes:
                # count objective evaluations by wrapping the objective
                objective = args[0]

                def counted(x):
                    tracer._note("numerics.minimize_scalar.probes", 1)
                    return objective(x)

                args = (counted,) + args[1:]
            idx = tracer._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, name, t0)
            if note is not None:
                tracer._note(name, note(args, kwargs, result))
            return result

        return wrapper

    def _timed_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.timed[name] = tracer.timed.get(name, 0.0) + dt
                if tracer._stack:
                    top = tracer._stack[-1]
                    tracer._hidden[top] = tracer._hidden.get(top, 0.0) + dt

        return wrapper

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind ``original`` to ``wrapper`` in every pfrsim namespace."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pfrsim" or mod_name.startswith("pfrsim.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        for mod_name, fn_name, note in SPAN_TARGETS:
            original = getattr(importlib.import_module(mod_name), fn_name)
            label = _label(mod_name, fn_name)
            self._replace_everywhere(original, self._span_wrapper(label, original, note))
        for mod_name, fn_name in TIMED_COUNT_TARGETS:
            original = getattr(importlib.import_module(mod_name), fn_name)
            label = _label(mod_name, fn_name)
            self._replace_everywhere(original, self._timed_wrapper(label, original))

        pair_cls = importlib.import_module("pfrsim.distributions").DistributionPair
        original = pair_cls.log_ratio
        points = self._log_ratio_points

        def log_ratio(pair, u):
            # scalar calls dominate inside quadrature, so keep this minimal
            points[0] += getattr(u, "size", 1)
            return original(pair, u)

        self._restore.append((pair_cls, "log_ratio", original))
        pair_cls.log_ratio = log_ratio

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()
        self.notes["distributions.log_ratio.points"] = self._log_ratio_points[0]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per-name ``calls``, ``total_s`` and ``self_s`` over all spans.

        Call only when every span is closed: ``parent`` indexes ``spans``.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for idx, (_, t0, t1, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for idx, (name, t0, t1, _) in enumerate(spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = t1 - t0
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child[idx] - self._hidden.get(idx, 0.0)
        for name, calls in self.calls.items():
            out[name] = {"calls": calls, "total_s": self.timed[name], "self_s": self.timed[name]}
        return out

    def top_level_s(self) -> float:
        """Wall time covered by spans that have no parent."""
        return sum(t1 - t0 for _, t0, t1, parent in self.spans if parent == -1)
