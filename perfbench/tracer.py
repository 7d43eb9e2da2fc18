"""Spans around the public functions of each fiberphase layer.

The tracer replaces module attributes (and ``PhaseProcess.sample_trace`` on
the class) with wrappers that record one span per call: name, start, end,
parent span and op id.  Spans stay in memory and are written out when the
run ends; self time is a span's duration minus the time its direct children
cover.  Counters are taken at the same call boundaries.  With ``memory=True``
each span also records its tracemalloc high-water mark above the level at
entry, which slows Python-heavy code several-fold, so memory is measured in
its own pass.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
import tracemalloc
from collections import defaultdict

# (module, attribute) pairs wrapped by the tracer.  Callers must reach these
# functions through the module attribute (``analysis.extract_phase``); the
# ``fiberphase.*`` re-exports are bound at import time and are not traced.
TRACED = {
    "cli": ("main", "parse_cli"),
    "fileio": (
        "write_trace", "read_trace", "write_dphi_curve", "read_dphi_curve",
        "write_report", "sha256_of_file",
    ),
    "noise": ("from_sagnac_calibration", "build_process"),
    "interferometer": ("simulate_mz_trace", "simulate_fringe_scan"),
    "analysis": (
        "extract_phase", "default_lag_grid", "increment_sets", "pool_stats",
        "mean_phase_change", "gaussian_widths", "tau_threshold",
        "fit_scaling_exponent", "fit_fringe", "estimate_diffusion",
    ),
    "repeater": (
        "predict_visibility", "budget_per_segment", "fidelity_from_sigma",
        "monte_carlo_fidelity",
    ),
}

_READS = {"read_trace", "read_dphi_curve", "sha256_of_file"}
_WRITES = {"write_trace", "write_dphi_curve", "write_report"}


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._hi: list[int] = []  # tracemalloc high-water per open span
        self._base: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._last_error = None

    # -- spans ---------------------------------------------------------

    def _enter(self, name: str, label: str | None = None) -> int:
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._hi:
                self._hi[-1] = max(self._hi[-1], peak)
            tracemalloc.reset_peak()
            self._hi.append(cur)
            self._base.append(cur)
        span = {
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        if label is not None:
            span["label"] = label
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _exit(self, index: int) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        self._stack.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            hi = max(self._hi.pop(), peak)
            span["peak_b"] = hi - self._base.pop()
            if self._hi:
                self._hi[-1] = max(self._hi[-1], hi)
            tracemalloc.reset_peak()

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-level span (an op's root, the work after an op)."""
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    # -- patching ------------------------------------------------------

    def install(self, fp_modules: dict) -> None:
        """Patch the traced functions; spans and counts accumulate across
        install/uninstall cycles."""
        for mod_name, attrs in TRACED.items():
            module = fp_modules[mod_name]
            for attr in attrs:
                self._patch(module, attr, f"{mod_name}.{attr}")
        self._patch(fp_modules["noise"].PhaseProcess, "sample_trace", "noise.sample_trace")
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.memory:
            tracemalloc.stop()
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        tracer = self
        layer, func = name.split(".")

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = " ".join(args[0][:2]) if name == "cli.main" else None
            index = tracer._enter(name, label)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                if layer == "analysis" and exc is not tracer._last_error:
                    tracer.counts["analysis.errors"] += 1
                    tracer._last_error = exc
                raise
            finally:
                tracer._exit(index)
            tracer._count(func, args, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _count(self, func: str, args, result) -> None:
        c = self.counts
        if func in _READS:
            c["fileio.bytes_read"] += os.path.getsize(args[0])
        elif func in _WRITES:
            c["fileio.bytes_written"] += os.path.getsize(args[0])
        elif func == "sample_trace":
            c["noise.steps"] += result.n_samples - 1
        elif func == "simulate_fringe_scan":
            n_points, pulses = args[2], args[3]
            c["interferometer.pulses"] += n_points * pulses
        elif func == "extract_phase":
            c["analysis.extract_phase.attempted"] += result.n_samples
            c["analysis.extract_phase.valid"] += sum(b - a for a, b in result.segments)
            c["analysis.segments"] += len(result.segments)
        elif func == "increment_sets":
            c["analysis.increments"] += int(result.n_increments.sum())
        elif func == "monte_carlo_fidelity":
            c["repeater.mc_samples"] += args[1]

    # -- reduction -----------------------------------------------------

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total duration, self time and peak bytes."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "peak_b": 0}
        )
        for span, children in zip(self.spans, child_time):
            row = out[span["name"]]
            duration = span["end"] - span["start"]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - children
            row["peak_b"] = max(row["peak_b"], span.get("peak_b", 0))
        return dict(out)

    def dump(self, path: str, t0: float) -> None:
        """Write spans as JSON lines, times relative to `t0`."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                row = dict(span, start=span["start"] - t0, end=span["end"] - t0)
                fh.write(json.dumps(row) + "\n")
