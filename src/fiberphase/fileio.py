"""Bit-exact file formats: trace/fringe/curve CSV and the JSON report.

All floats are written in their shortest round-trip decimal form, the
bytes of `repr(float(x))`, so read(write(x)) == x holds bit-exactly.
Writes are whole-file atomic (write to a uniquely named temp file in the
same directory, then rename).  Tables are read and written one bounded
block of rows at a time.  A read parses the text once, front to back, and
reports its first faulty line, a byte that is not UTF-8 included.

A block's float cells are rendered by one numpy kernel (`_render`).  NaN,
±inf and ±0 are constant strings.  A finite cell with 1e-6 <= |x| < 1e17
is scaled by an exact 10**s, s in [0, 22], into X in [1e16, 1e17), which
Dekker's two-product gives exactly; its digits are the multiple of 100, of
10 or of 1 nearest X that lies in x's round-trip interval, tested in
exact int64 arithmetic.  The few cells outside that domain, or at an exact
tie between two candidates, and all integer cells are written by `repr`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import os
import re
import stat
from dataclasses import dataclass, field

import numpy as np

from .analysis import GaussianHistogram, PhaseStats
from .errors import Adopted, DomainError, TraceParseError
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

# Characters of row text parsed at a time: a table read holds its kept
# columns once plus one block.  A write renders 4 * _BLOCK bytes of NUL-padded
# cells (about 1.5 * _BLOCK characters) at a time.
_BLOCK = 1 << 18
_BYTES = 1 << 16  # bytes per block of a pass over a file's raw bytes
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
    width = len(columns) * (_WIDTH + 1)  # bytes of a row before its NULs are dropped
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
        for a in starts:
            b = min(a + step, n_rows)
            # Each cell padded with NULs to _WIDTH, then its separator.
            text = bytearray((b - a) * width)
            rows = np.frombuffer(text, np.uint8).reshape(b - a, len(columns), _WIDTH + 1)
            for j, (col, (_, kind)) in enumerate(zip(values, columns)):
                by_repr += _render(np.asarray(col[a:b], kind), rows[:, j, :_WIDTH])
            rows[:, :, _WIDTH] = ord(",")
            rows[:, -1, _WIDTH] = ord("\n")
            yield text.translate(None, b"\0")

    _atomic_write(path, chunks())
    _log.debug("wrote %s: %d rows in %d blocks, %d cells by repr",
               path, n_rows, len(starts), by_repr)


# ---------------------------------------------------------------------------
# Cells: repr(float(x)) for a block of float64 cells at once
#
# A rendered cell is a row of _WIDTH bytes, NUL where it holds no character:
# column 0 the sign, 1-5 the "0.000" of a positional x < 1, then digit j of
# 17 at column 4 + 2j with a slot at 5 + 2j for a "." or a padding "0", and
# 39-42 the suffix ("0" of ".0", or "e-05").  Digits stay in fixed columns,
# so a layout is one row of a table keyed by (sign, decimal point, digit
# count).  Dropping the NULs leaves repr's text.

_WIDTH = 43
_DEC = range(-5, 19)  # decimal-point positions of the scaled domain
_POW10 = np.array([float(10**k) for k in range(24)])  # exact up to 10**22
_POW5 = 5 ** np.arange(23, dtype=np.int64)
_POW2 = 2.0 ** np.arange(64)
_MANTISSA = (1 << 52) - 1
# Keys after the (sign, decimal point, digit count) layouts: a constant, the
# same constant with its sign bit set, and the empty row of a cell by repr.
_NAN, _INF, _ZERO, _BY_REPR = range(2 * len(_DEC) * 17, 2 * len(_DEC) * 17 + 7, 2)


def _layout(sign: int, decpt: int, n: int) -> bytes:
    """repr's layout of 0.d1...dn x 10**decpt, digits left out."""
    row = bytearray(_WIDTH)
    row[0] = ord("-") * sign
    if -4 < decpt <= 16:
        if decpt <= 0:
            row[1:3 - decpt] = b"0." + b"0" * -decpt
        else:
            row[5 + 2 * decpt] = ord(".")
            for j in range(n, decpt):  # the zeros of a long integer part
                row[5 + 2 * j] = ord("0")
            if decpt >= n:
                row[39] = ord("0")
    else:
        if n > 1:
            row[7] = ord(".")
        row[39:43] = b"e%+03d" % (decpt - 1)
    return bytes(row)


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The layout rows by key, the 4-digit groups and their trailing zeros.

    Groups 10000-19999 render k as its 4 digits with trailing zeros NUL.
    """
    constants = (b"nan", b"nan", b"inf", b"-inf", b"0.0", b"-0.0", b"")
    layouts = [_layout(sign, decpt, n) for sign in (0, 1) for decpt in _DEC for n in range(1, 18)]
    layouts += [c.ljust(_WIDTH, b"\0") for c in constants]
    quads = [b"%04d" % k for k in range(10000)]
    quads += [q.rstrip(b"0").ljust(4, b"\0") for q in quads]
    zeros = [4] + [len(q) - len(q.rstrip(b"0")) for q in quads[1:10000]]
    return (np.frombuffer(b"".join(layouts), np.uint8).reshape(-1, _WIDTH),
            np.frombuffer(b"".join(quads), np.uint32), np.array(zeros, np.int64))


def _render(cells: np.ndarray, out: np.ndarray) -> int:
    """Write each cell's repr into its row of `out`, NUL-padded; return the
    number of cells that `repr` itself rendered."""
    if cells.dtype.kind != "f":
        out[:] = _by_repr(cells)
        return cells.size
    layouts, quads, zeros = _tables()
    a = np.abs(cells)
    key = np.full(cells.shape, _BY_REPR, np.intp)
    key[a == 0] = _ZERO
    key[a == np.inf] = _INF
    key[np.isnan(a)] = _NAN
    key[(key != _BY_REPR) & np.signbit(cells)] += 1
    idx = np.flatnonzero((a >= 1e-6) & (a < 1e17))
    digits, decpt, ok = _shortest(a[idx])
    groups = np.empty((5, idx.size), np.int64)  # the digits in base 10**4
    for j in range(4, 0, -1):
        digits, groups[j] = np.divmod(digits, 10000)
    groups[0] = digits
    # tail[j]: every group after groups[j + 1] is zero, so its trailing zeros are the cell's
    tail = np.ones((4, idx.size), bool)
    tail[:3] = np.logical_and.accumulate(groups[:1:-1] == 0, axis=0)[::-1]
    n = 17 - (zeros[groups[1:]] * tail).sum(axis=0)
    sign = np.signbit(cells[idx])
    key[idx] = np.where(ok, (sign * len(_DEC) + decpt - _DEC[0]) * 17 + n - 1, _BY_REPR)
    layouts.take(key, axis=0, out=out, mode="clip")  # "clip" writes to `out` unbuffered
    out[idx, 6] = ord("0") + groups[0]
    out[idx, 8:39:2] = np.ascontiguousarray(quads[groups[1:] + 10000 * tail].T).view(np.uint8)
    slow = np.flatnonzero(key == _BY_REPR)
    out[slow] = _by_repr(cells[slow])
    return slow.size


def _by_repr(cells: np.ndarray) -> np.ndarray:
    """The repr of each cell, NUL-padded to _WIDTH bytes."""
    text = np.array(list(map(repr, cells.tolist())), f"S{_WIDTH}")
    return text.view(np.uint8).reshape(-1, _WIDTH)


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shortest round-trip digits of each positive a in [1e-6, 1e17).

    Returns (N, decpt, ok).  repr's digits are those of N, in [1e16, 1e17),
    without its trailing zeros, and a ~ 0.N * 10**decpt.  ok is False where
    `repr` must render the cell: outside the scaled domain, or at an exact
    tie between two candidates.
    """
    bits = a.view(np.int64)
    q = (bits >> 52) - 1075  # a = m * 2**q, m = 2**52 | mantissa
    s = 16 - (((q + 52) * 78913) >> 18)  # 16 - floor(log10(2**(q + 52)))
    s -= a * _POW10[s] >= 1e17
    ok = s <= 22  # 10**23 is not exact
    s = np.minimum(s, 22)
    b = _POW10[s]
    p = a * b
    # Dekker's two-product, Veltkamp splits: X = a * b = p + e exactly
    t = a * 134217729.0
    ah = t - (t - a)
    al = a - ah
    t = b * 134217729.0
    bh = t - (t - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    ok &= (p >= 1e16) & (p < 1e17) & ((p != 1e16) | (e >= 0))
    # In units of 2**-sh, X's fraction and the half-gaps to x's neighbours
    # (10**s * 2**(q - 1), and half that below a power of two) are integers.
    sh = np.maximum(2 - q - s, 0)
    ee = (e * _POW2[sh]).astype(np.int64)
    xi = p.astype(np.int64) + (ee >> sh)  # floor(X)
    frac = ee - ((ee >> sh) << sh)
    # A candidate at distance d below (above) X reads back as x iff d <= hm
    # (d <= hp): the interval is closed when m is even.
    odd = bits & 1
    hp = (_POW5[s] << (q + s - 1 + sh)) - odd
    hm = (_POW5[s] << (q + s - 1 + sh - ((bits & _MANTISSA) == 0))) - odd

    def nearest(unit):
        """The multiple of `unit` below X and its distances to X, scaled."""
        r = xi - xi // unit * unit
        lo = (r << sh) + frac
        return xi - r, lo, (np.int64(unit) << sh) - lo

    # <= 15 digits: at most one multiple of 100 is in an interval this narrow.
    base, lo, hi = nearest(100)
    short = lo <= hm
    done = short | (hi <= hp)
    digits = np.where(short, base, base + 100)
    # 16 digits: the multiple of 10 nearest X among those inside.
    base, lo, hi = nearest(10)
    below, above = lo <= hm, hi <= hp
    pick = ~done & (below | above)
    ok &= ~(pick & below & above & (lo == hi))
    digits = np.where(pick, np.where(below & (~above | (lo < hi)), base, base + 10), digits)
    done |= pick
    # 17 digits: the integer nearest X, inside as both half-gaps exceed 0.55.
    base, lo, hi = nearest(1)
    ok &= done | (lo != hi)
    digits = np.where(done, digits, np.where(lo < hi, base, base + 1))
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    return digits, 17 - s + carry, ok


def _read_table(path: str, table: tuple, skip: tuple = ()):
    """Read `table`: (metadata dict, one array per column, header line number).

    Blank lines are skipped; the first faulty line of the file, a byte that
    is not UTF-8 included, raises TraceParseError with its 1-based line
    number.  The text is parsed in one forward pass and the path is not
    opened after it, so a pipe or FIFO fails as a regular file does.  Rows
    are parsed one block of about `_BLOCK` characters at a time into one
    array per kept column, allocated once at a bound on the row count and
    trimmed in place at the end.  Columns named in `skip` are parsed and
    checked like the others, but not kept or returned.
    """
    breaks = _line_breaks(path)
    # A byte that is not UTF-8 reads as a lone surrogate (PEP 383), which
    # fails its own line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return _read_open_table(fh, path, table, skip, breaks)


def _line_breaks(path: str) -> int:
    """The file's LF and CR bytes: at least the line breaks that text mode
    splits on, as it also splits on a bare CR (CRLF counts twice).  0 for a
    pipe or other stream, which can be read only once."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        return 0
    count = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_BYTES), b""):
            count += chunk.count(b"\n") + (b"\r" in chunk and chunk.count(b"\r"))
    return count


def _read_open_table(fh, path: str, table: tuple, skip: tuple, breaks: int):
    magic, columns = table
    number = 0

    def header_line() -> str:
        """The next line of the header, less its break; `number` is its line."""
        nonlocal number
        line, number = fh.readline(), number + 1
        if _NOT_UTF8.search(line):
            raise TraceParseError(f"{path}: not UTF-8 text", line=number)
        return line.rstrip("\n")

    if header_line() != magic:
        raise TraceParseError(f"{path}: expected header {magic!r}", line=1)
    meta: dict[str, str] = {}
    while (line := header_line()).startswith("#"):
        body = line[1:].strip()
        if ":" not in body:
            raise TraceParseError(f"{path}: malformed metadata {body!r}", line=number)
        key, _, value = body.partition(":")
        meta[key.strip()] = value.strip()
    header = ",".join(name for name, _ in columns)
    if line != header:
        raise TraceParseError(f"{path}: expected column header {header!r}", line=number)
    keep = [j for j, (name, _) in enumerate(columns) if name not in skip]
    # Each header line ended in a break, and the last row may have none.
    bound = max(breaks - number + 1, 0)
    arrays = [np.empty(bound, columns[j][1]) for j in keep]
    rows, first, blocks, blanks = 0, number + 1, 0, 0
    while lines := fh.readlines(_BLOCK):
        block = _parse_block(lines, columns, path, first)
        end = rows + block[0].size
        for array, j in zip(arrays, keep):
            if end > array.size:  # the file grew after its lines were counted
                array.resize(2 * end, refcheck=False)
            array[rows:end] = block[j]
        rows, first, blocks = end, first + len(lines), blocks + 1
        if _log.isEnabledFor(logging.DEBUG):
            blanks += lines.count("\n")
        del lines, block  # so that two blocks are never held at once
    for array in arrays:
        array.resize(rows, refcheck=False)  # no view of it exists yet
    _log.debug("read %s: %d rows in %d blocks, %d blank lines skipped",
               path, rows, blocks, blanks)
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
        return PhaseTrace(t0=t0, dt=dt, samples=Adopted(samples), segments=tuple(segments))
    if kind == "intensity":
        i_max, i_min = (_meta_float(meta, key, path) for key in ("i_max", "i_min"))
        return IntensityTrace(t0=t0, dt=dt, samples=Adopted(samples), i_max=i_max,
                              i_min=i_min)
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
    _atomic_write(path, [json.dumps(payload, sort_keys=True, indent=2, allow_nan=False).encode(), b"\n"])
