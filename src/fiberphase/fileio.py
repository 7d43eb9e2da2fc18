"""Bit-exact file formats: trace/fringe/curve CSV and the JSON report.

All floats are written in their shortest round-trip decimal form, so
read(write(x)) == x holds bit-exactly.  Writes are whole-file atomic
(write to a uniquely named temp file in the same directory, then rename).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .analysis import GaussianHistogram, PhaseStats
from .errors import DomainError, TraceParseError
from .interferometer import FringeScan, IntensityTrace
from .noise import PhaseTrace

__all__ = [
    "TOOL_NAME",
    "TOOL_VERSION",
    "ReportDocument",
    "write_trace",
    "read_trace",
    "write_fringe_scan",
    "read_fringe_scan",
    "write_dphi_curve",
    "read_dphi_curve",
    "write_histogram",
    "write_report",
    "sha256_of_file",
]

TOOL_NAME = "fiberphase"
TOOL_VERSION = "0.1.0"

_TRACE_MAGIC = "# fiberphase-trace v1"
_FRINGE_MAGIC = "# fiberphase-fringe v1"
_DPHI_MAGIC = "# fiberphase-dphi v1"
_HISTOGRAM_MAGIC = "# fiberphase-histogram v1"


def _fmt(x: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


def _atomic_write_text(path: str, text: str) -> None:
    # A fresh name, created exclusively, so that no other file is touched.
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def sha256_of_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# trace CSV (phase and intensity)

def write_trace(path: str, trace: PhaseTrace | IntensityTrace) -> None:
    """Write a phase or intensity trace as trace CSV v1."""
    lines = [_TRACE_MAGIC]
    if isinstance(trace, PhaseTrace):
        lines.append("# kind: phase")
        lines.append(f"# t0: {_fmt(trace.t0)}")
        lines.append(f"# dt: {_fmt(trace.dt)}")
        segments = ",".join(f"{a}:{b}" for a, b in trace.segments)
        lines.append(f"# segments: {segments}")
    elif isinstance(trace, IntensityTrace):
        lines.append("# kind: intensity")
        lines.append(f"# t0: {_fmt(trace.t0)}")
        lines.append(f"# dt: {_fmt(trace.dt)}")
        lines.append(f"# i_max: {_fmt(trace.i_max)}")
        lines.append(f"# i_min: {_fmt(trace.i_min)}")
    else:
        raise DomainError(f"cannot serialize {type(trace).__name__} as a trace")
    lines.append("time_s,value")
    times = trace.times
    for t, v in zip(times, trace.samples):
        lines.append(f"{_fmt(t)},{_fmt(v)}")
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_header(lines: list[str], magic: str, path: str):
    if not lines or lines[0].rstrip("\n") != magic:
        raise TraceParseError(f"{path}: expected header {magic!r}", line=1)
    meta: dict[str, str] = {}
    i = 1
    while i < len(lines) and lines[i].startswith("#"):
        body = lines[i].rstrip("\n")[1:].strip()
        if ":" not in body:
            raise TraceParseError(f"{path}: malformed metadata {body!r}", line=i + 1)
        key, _, value = body.partition(":")
        meta[key.strip()] = value.strip()
        i += 1
    return meta, i


def _parse_rows(lines: list[str], start: int, n_cols: int, header: str, path: str):
    if start >= len(lines) or lines[start].rstrip("\n") != header:
        raise TraceParseError(
            f"{path}: expected column header {header!r}", line=start + 1
        )
    rows = []
    for j in range(start + 1, len(lines)):
        raw = lines[j].rstrip("\n")
        if raw == "":
            continue
        parts = raw.split(",")
        if len(parts) != n_cols:
            raise TraceParseError(
                f"{path}: expected {n_cols} columns, got {len(parts)}", line=j + 1
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise TraceParseError(f"{path}: unparseable number in {raw!r}", line=j + 1)
    return rows


def _meta_float(meta: dict, key: str, path: str) -> float:
    if key not in meta:
        raise TraceParseError(f"{path}: missing metadata key {key!r}", line=2)
    try:
        return float(meta[key])
    except ValueError:
        raise TraceParseError(f"{path}: bad value for {key!r}: {meta[key]!r}", line=2)


def read_trace(path: str) -> PhaseTrace | IntensityTrace:
    """Read a trace CSV v1 file back into its original type."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    meta, start = _parse_header(lines, _TRACE_MAGIC, path)
    rows = _parse_rows(lines, start, 2, "time_s,value", path)
    samples = np.array([r[1] for r in rows]) if rows else np.empty(0)
    kind = meta.get("kind")
    t0 = _meta_float(meta, "t0", path)
    dt = _meta_float(meta, "dt", path)
    if kind == "phase":
        seg_text = meta.get("segments", "")
        segments = []
        if seg_text:
            for token in seg_text.split(","):
                try:
                    a, _, b = token.partition(":")
                    segments.append((int(a), int(b)))
                except ValueError:
                    raise TraceParseError(
                        f"{path}: bad segment token {token!r}", line=2
                    )
        return PhaseTrace(t0=t0, dt=dt, samples=samples, segments=tuple(segments))
    if kind == "intensity":
        return IntensityTrace(
            t0=t0,
            dt=dt,
            samples=samples,
            i_max=_meta_float(meta, "i_max", path),
            i_min=_meta_float(meta, "i_min", path),
        )
    raise TraceParseError(f"{path}: unknown trace kind {kind!r}", line=2)


# ---------------------------------------------------------------------------
# fringe scan CSV

def write_fringe_scan(path: str, scan: FringeScan) -> None:
    lines = [
        _FRINGE_MAGIC,
        f"# i0: {_fmt(scan.i0)}",
        f"# detector_noise: {_fmt(scan.detector_noise)}",
        "applied_phase_rad,pulse_area",
    ]
    for phi, area in zip(scan.applied_phase, scan.pulse_area):
        lines.append(f"{_fmt(phi)},{_fmt(area)}")
    _atomic_write_text(path, "\n".join(lines) + "\n")


def read_fringe_scan(path: str) -> FringeScan:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    meta, start = _parse_header(lines, _FRINGE_MAGIC, path)
    rows = _parse_rows(lines, start, 2, "applied_phase_rad,pulse_area", path)
    if len(rows) < 4:
        raise TraceParseError(f"{path}: a fringe scan needs >= 4 rows", line=start + 1)
    return FringeScan(
        applied_phase=np.array([r[0] for r in rows]),
        pulse_area=np.array([r[1] for r in rows]),
        detector_noise=_meta_float(meta, "detector_noise", path),
        i0=_meta_float(meta, "i0", path),
    )


# ---------------------------------------------------------------------------
# dphi(tau) curve CSV

def write_dphi_curve(path: str, stats: PhaseStats) -> None:
    """Persist the mean-phase-change curve with its widths and counts."""
    lines = [
        _DPHI_MAGIC,
        f"# dt: {_fmt(stats.dt)}",
        "tau_s,dphi_rad,sigma_rad,n_increments",
    ]
    for tau, dphi, sigma, count in zip(
        stats.taus, stats.mean_abs_change, stats.sigma_per_tau, stats.n_increments
    ):
        lines.append(f"{_fmt(tau)},{_fmt(dphi)},{_fmt(sigma)},{int(count)}")
    _atomic_write_text(path, "\n".join(lines) + "\n")


def read_dphi_curve(path: str) -> PhaseStats:
    """Read a curve file back as PhaseStats (without signed moments)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    meta, start = _parse_header(lines, _DPHI_MAGIC, path)
    rows = _parse_rows(lines, start, 4, "tau_s,dphi_rad,sigma_rad,n_increments", path)
    if not rows:
        raise TraceParseError(f"{path}: empty curve", line=start + 1)
    return PhaseStats(
        taus=np.array([r[0] for r in rows]),
        n_increments=np.array([int(r[3]) for r in rows]),
        dt=_meta_float(meta, "dt", path),
        mean_abs_change=np.array([r[1] for r in rows]),
        sigma_per_tau=np.array([r[2] for r in rows]),
    )


def write_histogram(path: str, hist: GaussianHistogram) -> None:
    """Two-column export (bin center, count) of an increment histogram."""
    lines = [_HISTOGRAM_MAGIC, "bin_center_rad,count"]
    for center, count in zip(hist.bin_centers, hist.counts):
        lines.append(f"{_fmt(center)},{int(count)}")
    _atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# JSON report

@dataclass
class ReportDocument:
    """Everything needed to audit and replay a run.

    `config` echoes the fully-resolved run configuration (defaults
    included, SI units); replaying it reproduces `results` bit-identically.
    `inputs` records path + content digest of every file read.
    """

    config: dict
    results: dict = field(default_factory=dict)
    inputs: list = field(default_factory=list)
    tool_name: str = TOOL_NAME
    tool_version: str = TOOL_VERSION

    def add_input(self, path: str) -> None:
        self.inputs.append({"path": str(path), "sha256": sha256_of_file(path)})


def _normalize(obj, round12: bool):
    """Make `obj` JSON-safe; round floats to 12 significant digits if asked."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            return str(x)
        return float(f"{x:.12g}") if round12 else x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _normalize(v, round12) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_normalize(v, round12) for v in obj]
    raise DomainError(f"cannot serialize {type(obj).__name__} into a report")


def write_report(path: str, report: ReportDocument) -> None:
    """Write the report JSON: sorted keys, schema v1.

    Result values carry 12 significant digits; the echoed config keeps
    full round-trip precision so that replaying it reproduces the run
    bit-identically.
    """
    payload = {
        "schema_version": "v1",
        "tool": {"name": report.tool_name, "version": report.tool_version},
        "config": _normalize(report.config, round12=False),
        "inputs": _normalize(report.inputs, round12=False),
        "results": _normalize(report.results, round12=True),
    }
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    _atomic_write_text(path, text + "\n")
