"""Bit-exact file formats: trace/fringe/curve CSV and the JSON report.

All floats are written in their shortest round-trip decimal form, so
read(write(x)) == x holds bit-exactly.  Writes are whole-file atomic
(write to a uniquely named temp file in the same directory, then rename).
Tables are read and written one bounded block of rows at a time.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass, field
from itertools import chain

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

_log = logging.getLogger(__name__)

# Characters of row text parsed or formatted at a time: a table's memory is
# its column arrays plus one block.
_BLOCK = 1 << 20

# Each CSV format: its magic line and the (name, type) of each column.  An int
# column holds 64-bit integers; `12.0`, `nan` and `inf` are not integers.
_TRACE = "# fiberphase-trace v1", (("time_s", float), ("value", float))
_FRINGE = "# fiberphase-fringe v1", (("applied_phase_rad", float), ("pulse_area", float))
_DPHI = "# fiberphase-dphi v1", (
    ("tau_s", float), ("dphi_rad", float), ("sigma_rad", float), ("n_increments", int)
)
_HISTOGRAM = "# fiberphase-histogram v1", (("bin_center_rad", float), ("count", int))


def _atomic_write(path: str, chunks) -> None:
    """Write the text chunks to a fresh temp file, then rename it over `path`."""
    # A fresh name, created exclusively, so that no other file is touched.
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.writelines(chunks)
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
# CSV tables: magic line, `# key: value` metadata, column header, rows

@dataclass(frozen=True)
class _Times:
    """The time column t0 + dt * k, k < n, of a trace, bit for bit as
    `trace.times` gives it, made one block of rows at a time."""

    t0: float
    dt: float
    n: int

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.t0 + self.dt * np.arange(*rows.indices(self.n))


def _write_table(path: str, table: tuple, meta: dict, values: tuple) -> None:
    """Write `table` (magic, columns) with `meta` and one array (or `_Times`)
    per column."""
    magic, columns = table
    n_rows = min(map(len, values))
    step = max(1, _BLOCK // 32)  # a trace row is about 32 characters
    starts = range(0, n_rows, step)
    row = ",".join(["%r"] * len(columns)) + "\n"

    def chunks():
        yield "\n".join([
            magic,
            *(f"# {k}: {v if isinstance(v, str) else repr(float(v))}" for k, v in meta.items()),
            ",".join(name for name, _ in columns),
            "",
        ])
        for a in starts:
            b = min(a + step, n_rows)
            cells = [np.asarray(col[a:b], kind).tolist() for col, (_, kind) in zip(values, columns)]
            yield (row * (b - a)) % tuple(chain.from_iterable(zip(*cells)))

    _atomic_write(path, chunks())
    _log.debug("wrote %s: %d rows in %d blocks", path, n_rows, len(starts))


def _read_table(path: str, table: tuple, skip: tuple = ()):
    """Read `table`: (metadata dict, one array per column, header line number).

    Blank lines are skipped; any other deviation raises TraceParseError
    with its 1-based line number.  Rows are parsed one block of about
    `_BLOCK` characters at a time.  Columns named in `skip` are parsed and
    checked like the others, but not kept or returned.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _read_open_table(fh, path, table, skip)
    except (UnicodeDecodeError, TraceParseError):
        # A byte that is not UTF-8 is reported wherever it sits in the file,
        # so the error does not depend on how far the parse got before it.
        line = _first_non_utf8_line(path)
        if line is None:
            raise
        raise TraceParseError(f"{path}: not UTF-8 text", line=line) from None


def _first_non_utf8_line(path: str) -> int | None:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # 1 + the line breaks (those text mode splits on) before the bad byte
        return len((data[:exc.start] + b"x").splitlines())
    return None


def _read_open_table(fh, path: str, table: tuple, skip: tuple):
    magic, columns = table
    if fh.readline().rstrip("\n") != magic:
        raise TraceParseError(f"{path}: expected header {magic!r}", line=1)
    meta: dict[str, str] = {}
    line, number = fh.readline(), 2
    while line.startswith("#"):
        body = line.rstrip("\n")[1:].strip()
        if ":" not in body:
            raise TraceParseError(f"{path}: malformed metadata {body!r}", line=number)
        key, _, value = body.partition(":")
        meta[key.strip()] = value.strip()
        line, number = fh.readline(), number + 1
    header = ",".join(name for name, _ in columns)
    if line.rstrip("\n") != header:
        raise TraceParseError(f"{path}: expected column header {header!r}", line=number)
    keep = [j for j, (name, _) in enumerate(columns) if name not in skip]
    parts = [[np.empty(0, columns[j][1])] for j in keep]
    first, blocks, blanks = number + 1, 0, 0
    while lines := fh.readlines(_BLOCK):
        block = _parse_block(lines, columns, path, first)
        for part, j in zip(parts, keep):
            part.append(block[j].copy())  # a view would keep the whole block alive
        first, blocks, blanks = first + len(lines), blocks + 1, blanks + lines.count("\n")
    arrays = [np.concatenate(part) for part in parts]
    _log.debug("read %s: %d rows in %d blocks, %d blank lines skipped",
               path, arrays[0].size, blocks, blanks)
    return meta, arrays, number


def _parse_block(lines: list[str], columns, path: str, first: int) -> list[np.ndarray]:
    """Parse one block of rows, the first of them at line `first`."""
    try:
        return _parse_columns(lines, columns)
    except (ValueError, OverflowError):
        pass
    # Bisect for the first bad row: lines[lo:hi] always holds it.
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse_columns(lines[lo:mid], columns)
            lo = mid
        except (ValueError, OverflowError):
            hi = mid
    raw, got = lines[lo].rstrip("\n"), lines[lo].count(",") + 1
    problem = (f"expected {len(columns)} columns, got {got}" if got != len(columns)
               else f"unparseable number in {raw!r}")
    raise TraceParseError(f"{path}: {problem}", line=first + lo)


def _parse_columns(lines: list[str], columns) -> list[np.ndarray]:
    """Parse the non-blank lines column by column; ValueError/OverflowError if one is bad.

    numpy tokenizes the rows.  A float cell takes the syntax of `float()`
    without `_` digit separators or non-ASCII digits; an int cell that of `int()`.
    """
    if not any(map("\n".__ne__, lines)):  # loadtxt warns on a block without rows
        return [np.empty(0, kind) for _, kind in columns]
    # numpy strips these around a cell as whitespace, but no number holds them.
    if any(map("".join(lines).__contains__, "\x1c\x1d\x1e\x1f")):
        raise ValueError("separator character in a cell")
    table = np.loadtxt(lines, dtype=list(columns), delimiter=",", comments=None, ndmin=1,
                       converters={j: int for j, (_, kind) in enumerate(columns) if kind is int})
    return [table[name] for name, _ in columns]


def _meta_float(meta: dict, key: str, path: str) -> float:
    if key not in meta:
        raise TraceParseError(f"{path}: missing metadata key {key!r}", line=2)
    try:
        return float(meta[key])
    except ValueError:
        raise TraceParseError(f"{path}: bad value for {key!r}: {meta[key]!r}", line=2)


def write_trace(path: str, trace: PhaseTrace | IntensityTrace) -> None:
    """Write a phase or intensity trace as trace CSV v1."""
    if isinstance(trace, PhaseTrace):
        segments = ",".join(f"{a}:{b}" for a, b in trace.segments)
        meta = {"kind": "phase", "t0": trace.t0, "dt": trace.dt, "segments": segments}
    elif isinstance(trace, IntensityTrace):
        meta = {"kind": "intensity", "t0": trace.t0, "dt": trace.dt,
                "i_max": trace.i_max, "i_min": trace.i_min}
    else:
        raise DomainError(f"cannot serialize {type(trace).__name__} as a trace")
    times = _Times(trace.t0, trace.dt, trace.n_samples)
    _write_table(path, _TRACE, meta, (times, trace.samples))


def read_trace(path: str) -> PhaseTrace | IntensityTrace:
    """Read a trace CSV v1 file back into its original type."""
    # The time column is checked, but t0 and dt define the grid.
    meta, (samples,), _ = _read_table(path, _TRACE, skip=("time_s",))
    kind = meta.get("kind")
    t0, dt = (_meta_float(meta, key, path) for key in ("t0", "dt"))
    if kind == "phase":
        segments = []
        for token in meta["segments"].split(",") if meta.get("segments") else ():
            a, _, b = token.partition(":")
            try:
                segments.append((int(a), int(b)))
            except ValueError:
                raise TraceParseError(f"{path}: bad segment token {token!r}", line=2) from None
        return PhaseTrace(t0=t0, dt=dt, samples=samples, segments=tuple(segments))
    if kind == "intensity":
        i_max, i_min = (_meta_float(meta, key, path) for key in ("i_max", "i_min"))
        return IntensityTrace(t0=t0, dt=dt, samples=samples, i_max=i_max, i_min=i_min)
    raise TraceParseError(f"{path}: unknown trace kind {kind!r}", line=2)


def write_fringe_scan(path: str, scan: FringeScan) -> None:
    meta = {"i0": scan.i0, "detector_noise": scan.detector_noise}
    _write_table(path, _FRINGE, meta, (scan.applied_phase, scan.pulse_area))


def read_fringe_scan(path: str) -> FringeScan:
    meta, (phase, area), header_line = _read_table(path, _FRINGE)
    if phase.size < 4:
        raise TraceParseError(f"{path}: a fringe scan needs >= 4 rows", line=header_line)
    noise = _meta_float(meta, "detector_noise", path)
    return FringeScan(phase, area, detector_noise=noise, i0=_meta_float(meta, "i0", path))


def write_dphi_curve(path: str, stats: PhaseStats) -> None:
    """Persist the mean-phase-change curve with its widths and counts."""
    values = (stats.taus, stats.mean_abs_change, stats.sigma_per_tau, stats.n_increments)
    _write_table(path, _DPHI, {"dt": stats.dt}, values)


def read_dphi_curve(path: str) -> PhaseStats:
    """Read a curve file back as PhaseStats (without signed moments)."""
    meta, (taus, dphi, sigma, counts), header_line = _read_table(path, _DPHI)
    if not taus.size:
        raise TraceParseError(f"{path}: empty curve", line=header_line)
    dt = _meta_float(meta, "dt", path)
    return PhaseStats(taus, counts, dt, mean_abs_change=dphi, sigma_per_tau=sigma)


def write_histogram(path: str, hist: GaussianHistogram) -> None:
    """Two-column export (bin center, count) of an increment histogram."""
    _write_table(path, _HISTOGRAM, {}, (hist.bin_centers, hist.counts))


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
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "config": _normalize(report.config, round12=False),
        "inputs": _normalize(report.inputs, round12=False),
        "results": _normalize(report.results, round12=True),
    }
    _atomic_write(path, [json.dumps(payload, sort_keys=True, indent=2, allow_nan=False), "\n"])
