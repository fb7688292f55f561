"""Traced run: per-layer spans and counts recorded from outside the program.

The tracer replaces each listed pssim function with a timing wrapper in
every pssim namespace that binds it (``from ... import`` makes copies, so
``pssim.cli.simulate`` and ``pssim.validation.simulate`` are wrapped along
with ``pssim.simulator.simulate``).  Each CLI command is a root span opened
by the worker; a layer's self time is its span's duration minus the time of
the spans it caused.  Spans are kept in memory and written out when the run
ends.  A function that a later refactor removed is reported as missing.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter


def _len_first(args, kwargs, result):
    return len(args[0])


def _written(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return os.path.getsize(path)


# span name -> (module, attribute, counters).  A counter maps
# (args, kwargs, result) of one call to an increment of a named count.
# Per-row helpers (map_report, partition, parse_date, parse_timestamp,
# weekday_of) are deliberately left unwrapped: their cost stays in the
# caller's self time.
_READ_COUNTERS = {
    "formats.rows_read": lambda a, k, r: len(r[0]),
    "formats.rows_rejected": lambda a, k, r: sum(r[1].values()),
}
_WRITE_COUNTERS = {"formats.bytes_written": _written}
SPANS = {
    "formats.read_raw_reports": ("pssim.formats", "read_raw_reports", _READ_COUNTERS),
    "formats.write_canonical": ("pssim.formats", "write_canonical", _WRITE_COUNTERS),
    "formats.read_canonical": ("pssim.formats", "read_canonical", _READ_COUNTERS),
    "formats.write_trace": ("pssim.formats", "write_trace", _WRITE_COUNTERS),
    "formats.read_trace": ("pssim.formats", "read_trace", _READ_COUNTERS),
    "formats.write_events_csv": ("pssim.formats", "write_events_csv", _WRITE_COUNTERS),
    "simulator.simulate": (
        "pssim.simulator",
        "simulate",
        {
            "simulator.reports": lambda a, k, r: len(r.reports),
            "simulator.events": lambda a, k, r: len(r.events),
        },
    ),
    "simulator.assign_event_attributes": ("pssim.simulator", "assign_event_attributes", {}),
    "simulator.attribute_reports": ("pssim.simulator", "attribute_reports", {}),
    # resolved to the module that _kernels.get_backend() returns
    "kernels.assign_participants": (
        None,
        "assign_participants",
        {"kernels.assignments": lambda a, k, r: len(r)},
    ),
    "aggregation.aggregate": (
        "pssim.aggregation",
        "aggregate",
        {
            "aggregation.rows_in": _len_first,
            "aggregation.events_out": lambda a, k, r: len(r.events),
            "aggregation.rejected": lambda a, k, r: r.rejected,
        },
    ),
    "analysis.bin_reports": (
        "pssim.analysis",
        "bin_reports",
        {
            "analysis.bin_reports_calls": lambda a, k, r: 1,
            "analysis.rows_binned": lambda a, k, r: r.accepted,
        },
    ),
    "analysis.estimate_evtype_pmf": ("pssim.analysis", "estimate_evtype_pmf", {}),
    "analysis.qq_against_lognormal": ("pssim.analysis", "qq_against_lognormal", {}),
    "analysis.autocorrelation": ("pssim.analysis", "autocorrelation", {}),
    "analysis.filter_outliers": (
        "pssim.analysis",
        "filter_outliers",
        {"analysis.outlier_users": lambda a, k, r: len(r[1])},
    ),
    "validation.cross_validate": (
        "pssim.validation",
        "cross_validate",
        {"validation.folds": lambda a, k, r: len(r)},
    ),
    "validation.kfold_split": ("pssim.validation", "kfold_split", {}),
    "validation.fold_config": ("pssim.validation", "fold_config", {}),
    "validation.compare_axes": ("pssim.validation", "compare_axes", {}),
    "distributions.fit_lognormal": ("pssim.distributions", "fit_lognormal", {}),
}
COUNTS = [name for _, _, counters in SPANS.values() for name in counters]
# every per-layer metric of a traced pass, with its unit
UNITS = {
    "cli.self_s": "s",
    **{f"{name}_s": "s" for name in SPANS},
    **{name: "count" for name in COUNTS},
    "formats.bytes_written": "B",
    "formats.accept_ratio": "ratio",
    "kernels.share": "ratio",
    "aggregation.identity_ratio": "ratio",
    "gc.pause_s": "s",
    "gc.collections_gen2": "count",
    "trace.missing": "count",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Records spans, counts and GC pauses while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (pass, command, name, start, end, self_s)
        self.counts: dict = defaultdict(float)  # (pass, command, count) -> value
        self.gc_pause: dict = defaultdict(float)  # pass -> seconds
        self.gc_gen2: dict = defaultdict(int)  # pass -> collections
        self.missing: set[str] = set()
        self._patches: list[tuple] = []
        self._stack: list[list] = []
        self._pass = 0
        self._command = 0
        self._gc_start = 0.0
        self._thread = threading.get_ident()

    # -- installation ---------------------------------------------------

    def install(self, pass_no: int) -> None:
        """Wrap every listed function in every pssim namespace binding it."""
        self._pass = pass_no
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "pssim" or n.startswith("pssim."))
        ]
        for name, (module_name, attr, counters) in SPANS.items():
            owner = self._owner(module_name)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, original, counters)
            for module in modules + [owner]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    @staticmethod
    def _owner(module_name):
        if module_name is not None:
            return sys.modules.get(module_name)
        kernels = sys.modules.get("pssim._kernels")
        try:
            return kernels.get_backend("auto")[1]
        except (AttributeError, TypeError, ValueError):
            return None

    # -- recording ------------------------------------------------------

    @contextlib.contextmanager
    def command(self, index: int, name: str):
        """One CLI command: the root span of everything it calls."""
        self._command = index
        self._open(f"cli.{name}")
        try:
            yield
        finally:
            self._close()

    def _open(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def _close(self) -> None:
        end = perf_counter()
        name, start, children = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append(
            (self._pass, self._command, name, start, end, duration - children)
        )

    def _wrap(self, name, fn, counters):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            for count, measure in counters.items():
                try:
                    value = measure(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    tracer.missing.add(count)
                    continue
                tracer.counts[(tracer._pass, tracer._command, count)] += value
            return result

        return wrapper

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        self.gc_pause[self._pass] += perf_counter() - self._gc_start
        if info.get("generation") == 2:
            self.gc_gen2[self._pass] += 1

    # -- results --------------------------------------------------------

    def layer_metrics(self, pass_no: int, commands: list[str]) -> dict[str, float]:
        """Per-layer values for one traced pass (self times summed over
        every call in the pass)."""
        out = {name: 0.0 for name in UNITS if name != "trace.overhead_frac"}
        inclusive = defaultdict(float)
        for p, _, name, start, end, self_s in self.spans:
            if p != pass_no:
                continue
            key = "cli.self_s" if name.startswith("cli.") else f"{name}_s"
            out[key] += self_s
            inclusive[name] += end - start
        by_command = defaultdict(float)
        for (p, command, count), value in self.counts.items():
            if p == pass_no:
                out[count] += value
                by_command[(commands[command], count)] += value
        read = out["formats.rows_read"]
        attempted = read + out["formats.rows_rejected"]
        out["formats.accept_ratio"] = read / attempted if attempted else 0.0
        sim = inclusive["simulator.simulate"]
        out["kernels.share"] = inclusive["kernels.assign_participants"] / sim if sim else 0.0
        # events that keep their identity through simulate -> aggregate;
        # 0 on a workload whose commands never simulate a trace
        simulated = by_command[("simulate", "simulator.events")]
        kept = by_command[("aggregate", "aggregation.events_out")]
        out["aggregation.identity_ratio"] = kept / simulated if simulated else 0.0
        out["gc.pause_s"] = self.gc_pause[pass_no]
        out["gc.collections_gen2"] = float(self.gc_gen2[pass_no])
        out["trace.missing"] = float(len(self.missing))
        return out

    def command_self_sums(self, pass_no: int) -> dict[int, float]:
        """Sum of every span's self time per command of one pass; equals the
        command's root span duration up to rounding."""
        sums = defaultdict(float)
        for p, command, _, _, _, self_s in self.spans:
            if p == pass_no:
                sums[command] += self_s
        return dict(sums)

