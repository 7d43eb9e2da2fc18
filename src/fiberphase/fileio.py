"""Bit-exact file formats: trace/fringe/curve CSV and the JSON report.

All floats are written in their shortest round-trip decimal form, the
bytes of `repr(float(x))`, so read(write(x)) == x holds bit-exactly.
Writes are whole-file atomic (write to a uniquely named temp file in the
same directory, then rename).  Tables are read and written one bounded
block of rows at a time.  A read parses the text once, front to back, and
reports its first faulty line: a byte that is not UTF-8, say, or a value
that breaks a rule, whose line `_read_table` finds from its DomainError.
A LF, a CRLF or a bare CR ends a line as in text mode; `_blocks` makes each a LF.

A block's float cells are written and read back by the numpy kernels of
`decimals`.  A block of rows the read kernel declines is decoded as text
and tokenized by numpy's `loadtxt`, which alone raises the parse errors,
so errors and their lines do not depend on the kernel.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import logging
import math
import os
import re
import stat
from dataclasses import dataclass

import numpy as np

from . import decimals
from .analysis import GaussianHistogram, PhaseStats
from .errors import Adopted, DomainError, TraceParseError
from .interferometer import FringeScan, IntensityTrace
from .noise import PhaseTrace

__all__ = [
    "write_trace",
    "read_trace",
    "write_fringe_scan",
    "read_fringe_scan",
    "write_dphi_curve",
    "read_dphi_curve",
    "write_histogram",
    "write_report",
]

TOOL_NAME = "fiberphase"
TOOL_VERSION = "0.1.0"

_log = logging.getLogger(__name__)

# A table read holds its kept columns once, plus a block of _BLOCK bytes of
# rows and the kernel's temporaries, about 6 times as large.  A write renders
# blocks of rows into one matrix of 4 * _BLOCK bytes of NUL-padded cells
# (about 1.5 * _BLOCK characters), made once per table; with the
# temporaries of `decimals.render`, most of it, a write peaks at about
# 14 * _BLOCK (3.7 MB traced for a 2^20-sample trace).
_BLOCK = 1 << 18
# The lone surrogates that stand for bytes that are not UTF-8 (PEP 383).
_NOT_UTF8 = re.compile("[\udc80-\udcff]")

# Each CSV format: its magic line and the (name, type) of each column.  An int
# column holds 64-bit integers; `12.0`, `nan` and `inf` are not integers.
_TRACE = "# fiberphase-trace v1", (("time_s", float), ("value", float))
_FRINGE = "# fiberphase-fringe v1", (("applied_phase_rad", float), ("pulse_area", float))
_DPHI = "# fiberphase-dphi v1", (
    ("tau_s", float), ("dphi_rad", float), ("sigma_rad", float), ("n_increments", int)
)
_HISTOGRAM = "# fiberphase-histogram v1", (("bin_center_rad", float), ("count", int))


def _atomic_write(path: str, chunks) -> None:
    """Write the byte chunks to a fresh temp file, then rename it over `path`."""
    # A fresh name, created exclusively, so that no other file is touched.
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb")
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
    """The time column t0 + dt * k, k < n, of a trace, made one block of
    rows at a time."""

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
    width = len(columns) * (decimals.WIDTH + 1)  # bytes of a row before its NULs are dropped
    step = max(1, 4 * _BLOCK // width)
    starts = range(0, n_rows, step)
    by_repr = 0

    def chunks():
        nonlocal by_repr
        yield "\n".join([
            magic,
            *(f"# {k}: {v if isinstance(v, str) else repr(float(v))}" for k, v in meta.items()),
            ",".join(name for name, _ in columns),
            "",
        ]).encode("utf-8")
        text = b""
        for a in starts:
            b = min(a + step, n_rows)
            # Each cell padded with NULs to WIDTH, then its separator.  `render`
            # overwrites all WIDTH bytes of a cell, so a full block reuses the matrix.
            if len(text) != (b - a) * width:  # the first block, or a shorter last one
                text = bytearray((b - a) * width)
                rows = np.frombuffer(text, np.uint8).reshape(b - a, len(columns), -1)
                rows[:, :, decimals.WIDTH] = ord(",")
                rows[:, -1, decimals.WIDTH] = ord("\n")
            for j, (col, (_, kind)) in enumerate(zip(values, columns)):
                by_repr += decimals.render(np.asarray(col[a:b], kind), rows[:, j, :decimals.WIDTH])
            yield text.translate(None, b"\0")

    _atomic_write(path, chunks())
    _log.debug("wrote %s: %d rows in %d blocks, %d cells by repr",
               path, n_rows, len(starts), by_repr)


def _read_table(path: str, table: tuple, build, skip: tuple = (), digest=None):
    """Read `table`, then return `build(metadata, *columns)` once the file is closed.

    `metadata` maps each key to its (value, line); the last line that sets a
    key wins.  Blank lines are skipped; the first faulty line, a byte that is
    not UTF-8 included, raises TraceParseError with its 1-based line number.
    The bytes are read in one forward pass, and the path is not opened after
    it, so a pipe or FIFO fails as a regular file does.  Rows are parsed one
    block of about `_BLOCK` bytes at a time into one array per kept column,
    allocated once at a bound on the row count and trimmed in place at the
    end.  Columns named in `skip` are checked like the others, but not kept or
    passed.  `digest`, a hashlib object, is updated with every byte read.

    Only the format is checked here.  A DomainError from `build` becomes a
    TraceParseError at its value's line: the offending row's, or else that of
    the metadata key of its first field, or else the column header's.
    """
    magic, columns = table
    breaks = _line_breaks(path)
    number, block, pos = 0, b"", 0

    def header_line() -> str:
        """The next line of the header, less its break, or "" past the end of
        the file; `number` is its line."""
        nonlocal number, block, pos
        number += 1
        if pos == len(block):  # a block holds whole lines, the empty one past the end too
            block, pos = next(blocks, decimals.HEAD + b"\n"), len(decimals.HEAD)
        end = block.index(b"\n", pos)
        # A byte that is not UTF-8 reads as a lone surrogate (PEP 383).
        line = block[pos:end].decode("utf-8", "surrogateescape")
        pos = end + 1
        if _NOT_UTF8.search(line):
            raise TraceParseError(f"{path}: not UTF-8 text", line=number)
        return line

    with open(path, "rb") as fh:
        blocks = _blocks(fh, digest)
        if header_line() != magic:
            raise TraceParseError(f"{path}: expected header {magic!r}", line=1)
        meta: dict[str, tuple[str, int]] = {}
        while (line := header_line()).startswith("#"):
            body = line[1:].strip()
            if ":" not in body:
                raise TraceParseError(f"{path}: malformed metadata {body!r}", line=number)
            key, _, value = body.partition(":")
            meta[key.strip()] = value.strip(), number
        header = ",".join(name for name, _ in columns)
        if line != header:
            raise TraceParseError(f"{path}: expected column header {header!r}", line=number)
        keep = [j for j, (name, _) in enumerate(columns) if name not in skip]
        # Each header line ended in a break, and the last row may have none.
        bound = max(breaks - number + 1, 0)
        arrays = [np.empty(bound, columns[j][1]) for j in keep]
        # The rows in the header's last block come first.
        blocks = itertools.chain([decimals.HEAD + block[pos:]] if pos < len(block) else [], blocks)
        block = None
        rows, first, n_blocks, by_loadtxt, blanks = 0, number + 1, 0, 0, []
        for data in blocks:
            parsed = decimals.parse(data, columns, keep)
            if parsed is None:  # outside the kernel's language: numpy parses the text
                text = data[len(decimals.HEAD):].decode("utf-8", "surrogateescape")
                lines = io.StringIO(text).readlines()
                parsed = _parse_block(lines, columns, path, first)
                parsed = [parsed[j] for j in keep]
                blanks += [first + i for i, line in enumerate(lines) if line == "\n"]
                first, by_loadtxt = first + len(lines), by_loadtxt + 1
                del text, lines
            else:
                first += parsed[0].size
            end = rows + parsed[0].size
            for array, column in zip(arrays, parsed):
                if end > array.size:  # the file grew after its lines were counted
                    array.resize(2 * end, refcheck=False)
                array[rows:end] = column
            rows, n_blocks = end, n_blocks + 1
            del data, parsed, column  # so that two blocks are never held at once
    for array in arrays:
        array.resize(rows, refcheck=False)  # no view of it exists yet
    _log.debug("read %s: %d rows in %d blocks, %d by loadtxt, %d blank lines skipped",
               path, rows, n_blocks, by_loadtxt, len(blanks))
    try:
        return build(meta, *arrays)
    except DomainError as exc:
        if exc.index is None:
            line = meta.get(exc.fields[0] if exc.fields else None, (None, number))[1]
        else:
            line = number + 1 + exc.index
            for blank in blanks:  # each blank line at or before the row moves it down
                line += blank <= line
        raise TraceParseError(f"{path}: {exc}", line=line) from exc


def _line_breaks(path: str) -> int:
    """At least the file's line breaks as `_blocks` reads them: its LF and bare
    CR bytes (a CRLF cut by a chunk edge counts twice); 0 for a pipe or stream."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        return 0
    count = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_BLOCK), b""):
            count += np.count_nonzero(np.frombuffer(chunk, np.uint8) == 10)
            count += b"\r" in chunk and chunk.count(b"\r") - chunk.count(b"\r\n")
    return int(count)


def _blocks(fh, digest):
    """The bytes of `fh`, all passed to `digest`, in blocks of whole lines of
    about `_BLOCK` bytes behind `decimals.HEAD`.  No CRLF is split; CRLF and
    bare CR read as LF, as in text mode, and a LF ends the file."""

    def framed(lines: bytes) -> bytes:
        if b"\r" in lines:
            lines = lines.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        return decimals.HEAD + lines

    rest = b""
    while chunk := fh.read(_BLOCK):
        if digest is not None:
            digest.update(chunk)
        rest += chunk
        del chunk
        cut = max(rest.rfind(b"\n"), rest.rfind(b"\r", 0, -1)) + 1
        if cut:
            block, rest = framed(rest[:cut]), rest[cut:]
            yield block
    if rest:  # it holds no LF: the one added ends its last line, after a CR as a CRLF
        yield framed(rest + b"\n")


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
    problem = ("not UTF-8 text" if _NOT_UTF8.search(raw)
               else f"expected {len(columns)} columns, got {got}" if got != len(columns)
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


def _meta_float(meta: dict, key: str) -> float:
    """Metadata `key`, parsed as a float cell."""
    if key not in meta:
        raise DomainError(f"missing metadata key {key!r}", key)
    value, _ = meta[key]
    try:
        return _parse_columns([value + "\n"], ((key, float),))[0].item()
    except ValueError:
        raise DomainError(f"bad value for {key!r}: {value!r}", key) from None


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


_KINDS = {"phase": PhaseTrace, "intensity": IntensityTrace}


def read_trace(path: str, *, digest=None,
               expect: type | None = None) -> PhaseTrace | IntensityTrace:
    """Read a trace CSV v1 file back into its original type.

    `expect`, PhaseTrace or IntensityTrace, is the type the file must hold:
    another kind raises TraceParseError at the `# kind:` line.  `digest`, a
    hashlib object, is updated with every byte of the file.
    """
    def build(meta: dict, samples: np.ndarray) -> PhaseTrace | IntensityTrace:
        kind, _ = meta.get("kind", (None, None))
        t0, dt = (_meta_float(meta, key) for key in ("t0", "dt"))
        if kind not in _KINDS:
            raise DomainError(f"unknown trace kind {kind!r}", "kind")
        if expect not in (None, _KINDS[kind]):
            raise DomainError(f"expected {expect.__name__}, got kind {kind!r}", "kind")
        if kind == "phase":
            text, _ = meta.get("segments", ("", None))
            segments = []
            for token in text.split(",") if text else ():
                a, _, b = token.partition(":")
                try:
                    segments.append((int(a), int(b)))
                except ValueError:
                    raise DomainError(f"bad segment token {token!r}", "segments") from None
            return PhaseTrace(t0=t0, dt=dt, samples=Adopted(samples), segments=tuple(segments))
        i_max, i_min = (_meta_float(meta, key) for key in ("i_max", "i_min"))
        return IntensityTrace(t0=t0, dt=dt, samples=Adopted(samples), i_max=i_max, i_min=i_min)

    # The time column is checked, but t0 and dt define the grid.
    return _read_table(path, _TRACE, build, skip=("time_s",), digest=digest)


def write_fringe_scan(path: str, scan: FringeScan) -> None:
    meta = {"i0": scan.i0, "detector_noise": scan.detector_noise}
    _write_table(path, _FRINGE, meta, (scan.applied_phase, scan.pulse_area))


def read_fringe_scan(path: str, *, digest=None) -> FringeScan:
    """Read a fringe scan CSV v1 file; `digest` as in `read_trace`."""
    def build(meta: dict, phase: np.ndarray, area: np.ndarray) -> FringeScan:
        noise = _meta_float(meta, "detector_noise")
        return FringeScan(phase, area, detector_noise=noise, i0=_meta_float(meta, "i0"))

    return _read_table(path, _FRINGE, build, digest=digest)


def write_dphi_curve(path: str, stats: PhaseStats) -> None:
    """Persist the mean-phase-change curve with its widths and counts."""
    values = (stats.taus, stats.mean_abs_change, stats.sigma_per_tau, stats.n_increments)
    _write_table(path, _DPHI, {"dt": stats.dt}, values)


def read_dphi_curve(path: str, *, digest=None) -> PhaseStats:
    """Read a curve file back as PhaseStats (without signed moments);
    `digest` as in `read_trace`."""
    def build(meta: dict, taus, dphi, sigma, counts) -> PhaseStats:
        return PhaseStats(taus, counts, _meta_float(meta, "dt"), mean_abs_change=dphi,
                          sigma_per_tau=sigma)

    return _read_table(path, _DPHI, build, digest=digest)


def write_histogram(path: str, hist: GaussianHistogram) -> None:
    """Two-column export (bin center, count) of an increment histogram."""
    _write_table(path, _HISTOGRAM, {}, (hist.bin_centers, hist.counts))


# ---------------------------------------------------------------------------
# JSON report

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


def write_report(path: str, config: dict, inputs: list, results: dict) -> None:
    """Write the report JSON of a run: sorted keys, schema v1.

    `config` is the run as `cli.parse_cli` returns it (SI units, defaults
    included); `cli.run(config)` replays it with bit-identical `results`,
    the blocks by name.  `inputs` holds the ``{"path", "sha256"}`` of every
    file read.  Result values carry 12 significant digits; the config and
    the inputs keep full round-trip precision.
    """
    payload = {
        "schema_version": "v1",
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "config": _normalize(config, round12=False),
        "inputs": _normalize(inputs, round12=False),
        "results": _normalize(results, round12=True),
    }
    _atomic_write(path, [json.dumps(payload, sort_keys=True, indent=2, allow_nan=False).encode(), b"\n"])
