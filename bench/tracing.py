"""Spans around the package's layers, recorded from outside the package.

install() rebinds public functions of dadapt's modules to wrappers that
record one span per call: name, start, end and the span that was open when
the call began. Spans are kept in flat arrays for the whole pass and are
written out once at the end. Counts that a span cannot carry (rows a
kernel computed, checks that failed, runs that diverged) are kept next to
them, updated at the same boundary.

Layer metrics are, per span name: ``.calls``, ``.s`` (inclusive time) and
``.self_s`` (time not covered by a direct child span).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from dadapt import analysis, convex, core, harness, ml, problems

CountHook = Callable[[dict, tuple, object], None]


def _count_rows(counts: dict, args: tuple, result) -> None:
    rows, dim = args[0].shape
    counts["problems.logistic_value_grad.rows"] += rows
    counts["problems.logistic_value_grad.bytes_computed"] += rows * dim * 8


def _count_report(counts: dict, args: tuple, report) -> None:
    counts["analysis.checks.failed"] += not report.satisfied
    counts["analysis.checks.skipped"] += report.skipped


def _count_diverged(counts: dict, args: tuple, output) -> None:
    counts["harness.runs.diverged"] += bool(output.summary["diverged"])


# (module, attribute, span name, counter)
FUNCTIONS: list[tuple[object, str, str, Optional[CountHook]]] = [
    (core, "schedule_eval", "core.schedule_eval", None),
    (problems, "synth_dataset", "problems.synth_dataset", None),
    (problems, "logistic_value_grad", "problems.logistic_value_grad", _count_rows),
    (convex, "da_step", "convex.da_step", None),
    (convex, "gd_step", "convex.gd_step", None),
    (convex, "adagrad_da_step", "convex.adagrad_da_step", None),
    (convex, "run_convex", "convex.run_convex", None),
    (convex, "select_return_index", "convex.select_return_index", None),
    (ml, "sgd_da_step", "ml.sgd_da_step", None),
    (ml, "adam_da_step", "ml.adam_da_step", None),
    (harness, "build_problem", "harness.build_problem", None),
    (harness, "run_single", "harness.run_single", _count_diverged),
    (harness, "run_experiment", "harness.run_experiment", None),
] + [
    (analysis, name, "analysis.checks", _count_report)
    for name in analysis.__all__
    if name.startswith("check_")
]

# (class, method, span name)
METHODS = [
    (core.Trajectory, "append", "core.Trajectory.append"),
    (core.Rng, "normals", "core.Rng.normals"),
    (core.Rng, "permutation", "core.Rng.permutation"),
]

COUNTS = (
    "problems.logistic_value_grad.rows",
    "problems.logistic_value_grad.bytes_computed",
    "analysis.checks.failed",
    "analysis.checks.skipped",
    "harness.runs.diverged",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]

    def span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, counter: Optional[CountHook] = None) -> Callable:
        nid = self.span_id(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end, dtype=np.int64) - np.frombuffer(self._start, dtype=np.int64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        excl = np.bincount(name, weights=dur - covered, minlength=k)
        out: dict[str, float] = {}
        for i, span in enumerate(self.names):
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.s"] = float(incl[i]) / 1e9
            out[f"{span}.self_s"] = float(excl[i]) / 1e9
        out.update(self.counts)
        return out

    def write(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start_ns=np.frombuffer(self._start, dtype=np.int64),
            end_ns=np.frombuffer(self._end, dtype=np.int64),
        )


def _rebind(original: Callable, wrapped: Callable) -> None:
    """Replace every reference a dadapt module holds to original."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "dadapt" or mod_name.startswith("dadapt."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def install(tracer: Tracer) -> None:
    """Trace the layers for the rest of this process."""
    for module, attr, name, counter in FUNCTIONS:
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(name, original, counter))
    for cls, attr, name in METHODS:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))

    # Oracles are closures made per problem, so wrap them as problems are built.
    tracer.span_id("problems.value")
    tracer.span_id("problems.subgradient")
    init = core.Problem.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.value = tracer.wrap("problems.value", self.value)
        self.subgradient = tracer.wrap("problems.subgradient", self.subgradient)

    core.Problem.__init__ = traced_init
