"""Outside-in span recorder: wraps metroq's public functions at every binding site.

Modules import names by value (``metroq.simulate.apply_on_factor`` is the
same object as ``metroq.linalg.apply_on_factor``), so the recorder scans
every metroq module namespace and replaces each binding of a wrapped
function.  Spans live in typed arrays until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "simulate", "equivalence", "fock", "information", "channels", "linalg", "states")
# Private names that still mark a layer boundary worth timing.
EXTRA = {("cli", "_emit")}


class Recorder:
    """Spans (name, start, end, parent, run id) of one traced pass, plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()

    def reset(self):
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.run_id = 0
        self._stack = [-1]
        self.counters = Counter()
        self.success_inputs = set()

    def wrap(self, qualname: str, fn, hook=None):
        name_id = self._name_ids.setdefault(qualname, len(self.names))
        if name_id == len(self.names):
            self.names.append(qualname)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1])
            self.run.append(self.run_id)
            self.start.append(0)
            self.end.append(0)
            self._stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def totals(self) -> tuple[Counter, Counter]:
        """Calls and self seconds per span name; self time is the span's
        duration minus the durations of its direct children."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_ns = np.bincount(name, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        return (
            Counter({n: int(calls[k]) for k, n in enumerate(self.names)}),
            Counter({n: float(self_ns[k]) / 1e9 for k, n in enumerate(self.names)}),
        )

    def write(self, path):
        """Write the spans as TSV: run, span, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i, (r, p, n, s, e) in enumerate(
                zip(self.run, self.parent, self.name, self.start, self.end)
            ):
                fh.write(f"{r}\t{i}\t{p}\t{self.names[n]}\t{s}\t{e}\n")


def _count_draws(rec, args, kwargs, result):
    strategy = args[0] if args else kwargs["strategy"]
    nu = args[2] if len(args) > 2 else kwargs["nu"]
    rec.counters["simulate.draws"] += nu * (
        strategy.n_probes if strategy.kind.value == "classical" else 1
    )


def _count_branches(rec, args, kwargs, result):
    rec.counters["equivalence.branches"] += len(result.records)


def _note_success_input(rec, args, kwargs, result):
    strategy = args[0] if args else kwargs["strategy"]
    phi = args[1] if len(args) > 1 else kwargs["phi"]
    rec.success_inputs.add((strategy.kind.value, strategy.n_probes, float(strategy.lam), float(phi)))


HOOKS = {
    "simulate.run_trials": _count_draws,
    "equivalence.convert_general_n": _count_branches,
    "simulate.strategy_success_probability": _note_success_input,
}


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every public metroq function at every binding site.

    Returns the (module, name, original) bindings for ``uninstall``.
    """
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"metroq.{layer}"]
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and (not name.startswith("_") or (layer, name) in EXTRA)
            ):
                qualname = f"{layer}.{name.lstrip('_')}"
                wrappers[obj] = rec.wrap(qualname, obj, HOOKS.get(qualname))
    saved = []
    for module in [sys.modules["metroq"]] + [sys.modules[f"metroq.{m}"] for m in LAYERS]:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                saved.append((module, name, obj))
                setattr(module, name, wrappers[obj])
    return saved


def uninstall(saved):
    for module, name, original in saved:
        setattr(module, name, original)
