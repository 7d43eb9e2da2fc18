"""Tests for the CSV trace/fringe/curve formats and the JSON report."""

import dataclasses
import json
import logging
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fiberphase import (
    FringeScan,
    GaussianHistogram,
    IntensityTrace,
    DomainError,
    FiberPhaseError,
    NoiseParams,
    PhaseStats,
    PhaseTrace,
    ReportDocument,
    TraceParseError,
    build_process,
    extract_phase,
    fit_gaussian,
    gaussian_widths,
    increment_sets,
    mean_phase_change,
    pool_stats,
    read_dphi_curve,
    read_fringe_scan,
    read_trace,
    simulate_mz_trace,
    write_dphi_curve,
    write_fringe_scan,
    write_histogram,
    write_report,
    write_trace,
)
from fiberphase import fileio


class TestTraceRoundTrip:
    def test_phase_trace(self, tmp_path):
        path = str(tmp_path / "phase.csv")
        trace = PhaseTrace(
            t0=1.5e-3, dt=2e-6, samples=np.array([0.1, -0.25, 0.7, 0.33])
        )
        write_trace(path, trace)
        assert read_trace(path) == trace

    def test_phase_trace_with_segments_and_nan(self, tmp_path):
        path = str(tmp_path / "phase.csv")
        samples = np.array([0.1, 0.2, np.nan, np.nan, 0.5, 0.6, 0.7])
        trace = PhaseTrace(
            t0=0.0, dt=2e-6, samples=samples, segments=((0, 2), (4, 7))
        )
        write_trace(path, trace)
        back = read_trace(path)
        assert back == trace
        assert back.segments == ((0, 2), (4, 7))

    def test_intensity_trace(self, tmp_path):
        path = str(tmp_path / "mz.csv")
        trace = IntensityTrace(
            t0=0.0, dt=4e-6, samples=np.array([0.5, 0.9, 0.1]), i_max=1.0, i_min=0.0
        )
        write_trace(path, trace)
        back = read_trace(path)
        assert back == trace
        assert isinstance(back, IntensityTrace)

    def test_empty_trace(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=np.empty(0))
        write_trace(path, trace)
        back = read_trace(path)
        assert back == trace
        assert back.n_samples == 0

    def test_simulated_trace_bit_exact(self, tmp_path):
        path = str(tmp_path / "sim.csv")
        proc = build_process(NoiseParams(sigma_ref=0.13, tau_ref=1e-4))
        trace = proc.sample_trace(1e-3, 2e-6, seed=3)
        write_trace(path, trace)
        assert read_trace(path) == trace

    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=0,
            max_size=20,
        )
    )
    def test_arbitrary_floats_round_trip(self, values, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("rt") / "t.csv")
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=np.array(values))
        write_trace(path, trace)
        assert np.array_equal(read_trace(path).samples, trace.samples)

    def test_header_line(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_trace(path, PhaseTrace(t0=0.0, dt=1e-6, samples=np.zeros(2)))
        first = (tmp_path / "t.csv").read_text(encoding="utf-8").split("\n")[0]
        assert first == "# fiberphase-trace v1"


class TestTraceParseErrors:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# something else\ntime_s,value\n")
        with pytest.raises(TraceParseError, match="line 1"):
            read_trace(str(path))

    def test_bad_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# fiberphase-trace v1\n# kind: phase\n# t0: 0.0\n# dt: 1e-06\n"
            "# segments: 0:2\ntime_s,value\n0.0,0.1\n1e-06,not-a-number\n"
        )
        with pytest.raises(TraceParseError, match="line 8"):
            read_trace(str(path))

    def test_bad_time_cell(self, tmp_path):
        # The time column is not kept, but it is parsed like the values.
        path = tmp_path / "bad.csv"
        path.write_text(
            "# fiberphase-trace v1\n# kind: phase\n# t0: 0.0\n# dt: 1e-06\n"
            "# segments: 0:2\ntime_s,value\n0.0,0.1\nsoon,0.2\n"
        )
        with pytest.raises(TraceParseError, match="line 8: .*unparseable number in 'soon,0.2'"):
            read_trace(str(path))

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# fiberphase-trace v1\n# kind: phase\n# t0: 0.0\n# dt: 1e-06\n"
            "# segments: 0:1\ntime_s,value\n0.0,0.1,9\n"
        )
        with pytest.raises(TraceParseError, match="line 7"):
            read_trace(str(path))

    def test_missing_metadata(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# fiberphase-trace v1\n# kind: phase\ntime_s,value\n")
        with pytest.raises(TraceParseError):
            read_trace(str(path))

    def test_nan_inside_segment(self, tmp_path):
        path = tmp_path / "bad.csv"
        values = ["0.1", "0.2", "nan", "0.4", "0.5"]
        rows = "".join(f"{k}e-06,{v}\n" for k, v in enumerate(values))
        path.write_text(
            "# fiberphase-trace v1\n# kind: phase\n# t0: 0.0\n# dt: 1e-06\n"
            "# segments: 0:5\ntime_s,value\n" + rows
        )
        with pytest.raises(DomainError, match="sample 2 "):
            read_trace(str(path))

    def test_nan_intensity_sample(self, tmp_path):
        path = tmp_path / "bad.csv"
        values = ["0.5", "0.6", "0.7", "nan", "0.4"]
        rows = "".join(f"{k}e-06,{v}\n" for k, v in enumerate(values))
        path.write_text(
            "# fiberphase-trace v1\n# kind: intensity\n# t0: 0.0\n# dt: 1e-06\n"
            "# i_max: 1.0\n# i_min: 0.0\ntime_s,value\n" + rows
        )
        with pytest.raises(DomainError, match=r"samples\[3\] is not finite: nan"):
            read_trace(str(path))


class TestFringeScanRoundTrip:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "scan.csv")
        scan = FringeScan(
            applied_phase=np.linspace(0, 2 * math.pi, 9),
            pulse_area=np.linspace(0.2, 1.0, 9),
            detector_noise=0.05,
            i0=0.95,
        )
        write_fringe_scan(path, scan)
        assert read_fringe_scan(path) == scan

    def test_too_short_rejected(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text(
            "# fiberphase-fringe v1\n# i0: 1.0\n# detector_noise: 0.0\n"
            "applied_phase_rad,pulse_area\n0.0,0.5\n"
        )
        with pytest.raises(TraceParseError):
            read_fringe_scan(str(path))


class TestDphiCurveRoundTrip:
    def make_stats(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=np.cumsum(rng.standard_normal(500)) * 0.01)
        stats = increment_sets(trace, [1e-6, 2e-6, 5e-6, 1e-5])
        mean_phase_change(stats)
        gaussian_widths(stats)
        return stats

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "curve.csv")
        stats = self.make_stats()
        write_dphi_curve(path, stats)
        back = read_dphi_curve(path)
        assert np.array_equal(back.taus, stats.taus)
        assert np.array_equal(back.mean_abs_change, stats.mean_abs_change)
        assert np.array_equal(back.sigma_per_tau, stats.sigma_per_tau, equal_nan=True)
        assert np.array_equal(back.n_increments, stats.n_increments)

    def test_curve_from_file_cannot_be_pooled(self, tmp_path):
        # the file keeps dphi, sigma and counts but not the signed moments
        path = str(tmp_path / "curve.csv")
        write_dphi_curve(path, self.make_stats())
        with pytest.raises(DomainError):
            pool_stats([read_dphi_curve(path)])


class TestAtomicWrite:
    def test_unrelated_tmp_file_survives(self, tmp_path):
        bystander = tmp_path / "out.csv.tmp"
        bystander.write_text("keep me", encoding="utf-8")
        write_trace(str(tmp_path / "out.csv"), PhaseTrace(t0=0.0, dt=1e-6, samples=np.zeros(3)))
        assert bystander.read_text(encoding="utf-8") == "keep me"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.tmp"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OSError):
            write_trace(str(target), PhaseTrace(t0=0.0, dt=1e-6, samples=np.zeros(3)))
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]


class TestHistogramExport:
    def test_two_columns(self, tmp_path):
        path = str(tmp_path / "hist.csv")
        rng = np.random.Generator(np.random.Philox(key=6))
        hist = fit_gaussian(0.2 * rng.standard_normal(400))
        write_histogram(path, hist)
        lines = (tmp_path / "hist.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# fiberphase-histogram v1"
        assert lines[1] == "bin_center_rad,count"
        assert len(lines) == 2 + hist.counts.size
        total = sum(int(line.split(",")[1]) for line in lines[2:])
        assert total == 400


GOLDEN = [
    (
        write_trace,
        PhaseTrace(
            t0=1.5e-3, dt=2.5e-6, samples=np.array([0.1, -0.0, np.nan, 5e-324, 1 / 3]),
            segments=((0, 2), (3, 5)),
        ),
        "# fiberphase-trace v1\n# kind: phase\n# t0: 0.0015\n# dt: 2.5e-06\n"
        "# segments: 0:2,3:5\ntime_s,value\n0.0015,0.1\n0.0015025,-0.0\n"
        "0.001505,nan\n0.0015075,5e-324\n0.00151,0.3333333333333333\n",
    ),
    (
        write_trace,
        IntensityTrace(
            t0=0.0, dt=1e-6, samples=np.array([0.5, -0.0, 5e-324]), i_max=1.0, i_min=-0.0
        ),
        "# fiberphase-trace v1\n# kind: intensity\n# t0: 0.0\n# dt: 1e-06\n"
        "# i_max: 1.0\n# i_min: -0.0\ntime_s,value\n0.0,0.5\n1e-06,-0.0\n2e-06,5e-324\n",
    ),
    (
        write_fringe_scan,
        FringeScan(
            applied_phase=np.array([-0.0, np.pi / 2, np.pi, 3 * np.pi / 2]),
            pulse_area=np.array([1.0, 0.5, 5e-324, 0.5]),
            detector_noise=0.0,
            i0=1.0,
        ),
        "# fiberphase-fringe v1\n# i0: 1.0\n# detector_noise: 0.0\n"
        "applied_phase_rad,pulse_area\n-0.0,1.0\n1.5707963267948966,0.5\n"
        "3.141592653589793,5e-324\n4.71238898038469,0.5\n",
    ),
    (
        write_dphi_curve,
        PhaseStats(
            taus=np.array([1e-6, 2e-6]), n_increments=np.array([3, 1]), dt=1e-6,
            mean_abs_change=np.array([0.25, 5e-324]), sigma_per_tau=np.array([-0.0, np.nan]),
        ),
        "# fiberphase-dphi v1\n# dt: 1e-06\ntau_s,dphi_rad,sigma_rad,n_increments\n"
        "1e-06,0.25,-0.0,3\n2e-06,5e-324,nan,1\n",
    ),
    (
        write_histogram,
        GaussianHistogram(
            sigma=0.1, bin_edges=np.array([-0.5, -0.0, -0.0, 1e-323, 0.5]),
            counts=np.array([3, 0, 1, 12]), fit_amplitude=1.0, fit_mean=0.0,
            fit_sigma=0.1, degenerate=False,
        ),
        "# fiberphase-histogram v1\nbin_center_rad,count\n"
        "-0.25,3\n-0.0,0\n5e-324,1\n0.25,12\n",
    ),
]


@pytest.mark.parametrize(
    "write,obj,expected", GOLDEN,
    ids=["phase_trace", "intensity_trace", "fringe", "dphi_curve", "histogram"],
)
def test_golden_bytes(tmp_path, write, obj, expected):
    path = tmp_path / "golden.csv"
    write(str(path), obj)
    assert path.read_bytes() == expected.encode("utf-8")


class TestTableCodec:
    CURVE = (
        "# fiberphase-dphi v1\n# dt: 1e-06\ntau_s,dphi_rad,sigma_rad,n_increments\n"
        "1e-06,0.01,0.0125,499\n2e-06,0.02,0.025,{count}\n"
    )

    @pytest.mark.parametrize(
        "count", ["nan", "inf", "-inf", "12.7", "12.0", "1e3", "99999999999999999999999"]
    )
    def test_integer_column_rejects_non_integers(self, tmp_path, count):
        path = tmp_path / "curve.csv"
        path.write_text(self.CURVE.format(count=count), encoding="utf-8")
        with pytest.raises(TraceParseError, match="line 5: .*unparseable number"):
            read_dphi_curve(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text(self.CURVE.replace("499\n", "499\n\n\n").format(count=498))
        assert list(read_dphi_curve(str(path)).n_increments) == [499, 498]

    @pytest.mark.parametrize("reader", [read_trace, read_fringe_scan, read_dphi_curve])
    def test_non_utf8_names_line(self, tmp_path, reader):
        path = tmp_path / "bad.csv"
        path.write_bytes(self.CURVE.format(count=498).encode() + b"3e-06,0.03,\xff,497\n")
        with pytest.raises(TraceParseError, match="line 6: .*not UTF-8"):
            reader(str(path))


def reference_columns(lines, columns):
    """The per-cell rules of the codec's first row parser: blank lines
    skipped, then `float()` or `int()` on every cell of a row."""
    rows = [line.rstrip("\n").split(",") for line in lines if line != "\n"]
    if any(len(cells) != len(columns) for cells in rows):
        raise ValueError("wrong column count")
    return [np.array([kind(cells[j]) for cells in rows], kind).reshape(len(rows))
            for j, (_, kind) in enumerate(columns)]


def parse_outcome(parse, lines, columns):
    """The bits of each parsed column, or None if the rows are rejected."""
    try:
        return [column.tobytes() for column in parse(lines, columns)]
    except (ValueError, OverflowError):
        return None


def spelled_beyond_numpy(cell):
    """A float cell that `float()` reads but numpy does not: `_` digit
    separators or non-ASCII decimal digits."""
    return "_" in cell or any(c.isdecimal() and not c.isascii() for c in cell)


# Number-like characters and words, the whitespace `float()` strips, and the
# characters it does not.
CELL_TOKENS = [*"0123456789.eE+-_ ", "nan", "inf", "١", "\x00", "\t", "\x0b", "\x0c",
               "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "　"]
TOKEN_CELLS = st.lists(st.sampled_from(CELL_TOKENS), max_size=6).map("".join)
PADDING = st.lists(st.sampled_from([" ", "\t", "\x0b", "\x0c", "\x85", "　"]),
                   max_size=2).map("".join)
FLOATS = st.floats().map(repr)
INTEGERS = st.integers().map(str)
DPHI_COLUMNS = fileio._DPHI[1]  # three float columns and one int column


@st.composite
def row_blocks(draw):
    """1-2 rows for the dphi format, mostly of 4 cells, with blank lines between.

    A cell is a padded well-formed number three times in four, so that many
    rows parse and their bits are compared, else a string of tokens.
    """
    def cell(numbers):
        if draw(st.integers(0, 3)) == 0:
            return draw(TOKEN_CELLS)
        return draw(PADDING) + draw(numbers) + draw(PADDING)

    lines = []
    for _ in range(draw(st.integers(1, 2))):
        lines += ["\n"] * draw(st.integers(0, 1))
        cells = [cell(FLOATS), cell(FLOATS), cell(FLOATS), cell(INTEGERS), cell(FLOATS)]
        lines.append(",".join(cells[:draw(st.sampled_from([3, 4, 4, 4, 5]))]) + "\n")
    return lines


class TestNumpyTokenizerParity:
    """The block parser against `reference_columns`: numpy accepts no row the
    reference refuses, gives the same bits, and refuses only float cells
    spelled with `_` or non-ASCII digits."""

    @settings(max_examples=600)
    @given(lines=row_blocks())
    def test_same_rows_accepted_with_same_bits(self, lines):
        got = parse_outcome(fileio._parse_columns, lines, DPHI_COLUMNS)
        want = parse_outcome(reference_columns, lines, DPHI_COLUMNS)
        if got is not None:
            assert got == want
        elif want is not None:
            float_cells = [cell for line in lines if line != "\n"
                           for cell in line.rstrip("\n").split(",")[:3]]
            assert any(map(spelled_beyond_numpy, float_cells))

    @pytest.mark.parametrize("row,accepted", [
        ("1_0,0.1,0.2,3", False),  # float() reads 10.0
        ("1e-06,١,0.2,3", False),  # float() reads 1.0
        ("1e-06,0.1,５,3", False),  # fullwidth 5; float() reads 5.0
        ("1e-06,0.1,0.2,1_0", True),  # int() reads 10, through the int converter
        ("1e-06,0.1,0.2,١", True),  # int() reads 1
        ("1e-06,0.1,0.2,12.0", False),  # not an integer, whatever the numpy version
        ("1e-06,0.1,0.2,1e3", False),
        ("1e-06\x1c,0.1,0.2,3", False),  # numpy alone would strip U+001C as whitespace
        ("1e-06,0.1,\x1f0.2,3", False),
        ("　1e-06\x85,\t0.1\x0b,0.2\x0c,3 ", True),  # whitespace both strip
        ("-nan,inf,-Infinity,-0", True),
    ])
    def test_known_cases(self, row, accepted):
        lines = [row + "\n"]
        got = parse_outcome(fileio._parse_columns, lines, DPHI_COLUMNS)
        assert (got is not None) == accepted
        if accepted:
            assert got == parse_outcome(reference_columns, lines, DPHI_COLUMNS)

    def test_underscore_float_cell_names_its_line(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text(TestTableCodec.CURVE.format(count=498) + "3e-06,0.0_3,0.5,497\n",
                        encoding="utf-8")
        with pytest.raises(TraceParseError, match="line 6: .*unparseable number in '3e-06,0.0_3"):
            read_dphi_curve(str(path))

    def test_all_blank_block_gives_empty_columns(self):
        columns = fileio._parse_columns(["\n", "\n"], DPHI_COLUMNS)
        assert [(c.dtype, c.size) for c in columns] == [(np.float64, 0)] * 3 + [(np.int64, 0)]


# One valid file per format, as the golden test writes it.
FUZZ_BASES = [
    (read_trace, GOLDEN[0][2], (PhaseTrace, IntensityTrace)),
    (read_trace, GOLDEN[1][2], (PhaseTrace, IntensityTrace)),
    (read_fringe_scan, GOLDEN[2][2], FringeScan),
    (read_dphi_curve, GOLDEN[3][2], PhaseStats),
]


@st.composite
def mutated_files(draw):
    """A valid file of one format with a few bytes flipped, inserted or deleted."""
    reader, text, kind = draw(st.sampled_from(FUZZ_BASES))
    data = bytearray(text.encode("utf-8"))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data) - 1))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.one_of(st.sampled_from(b"0123456789.,-+e:#\n\r nai"), st.integers(0, 255)))
        if op == "replace":
            data[pos] = byte
        elif op == "insert":
            data.insert(pos, byte)
        else:
            del data[pos]
    return reader, bytes(data), kind


def bits(obj):
    """Every field of a value object, arrays as dtype and raw bytes."""
    return [
        (f.name, (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else repr(v))
        for f in dataclasses.fields(obj) for v in [getattr(obj, f.name)]
    ]


def read_outcome(reader, path):
    """(error type, line, message) of a failed read, or the bits of its result."""
    try:
        return bits(reader(path))
    except FiberPhaseError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


class TestParserFuzz:
    """Any input gives a valid object or a FiberPhaseError, never another exception.

    A read in blocks of 3 characters gives the same result as the default
    read: bit-equal arrays, or the same error type, line and message.
    """

    @staticmethod
    def check(tmp_path_factory, reader, data, kind):
        path = tmp_path_factory.mktemp("fuzz") / "in.csv"
        path.write_bytes(data)
        outcome = read_outcome(reader, str(path))
        with mock.patch.object(fileio, "_BLOCK", 3):
            assert read_outcome(reader, str(path)) == outcome
        try:
            obj = reader(str(path))
        except FiberPhaseError:
            return
        assert isinstance(obj, kind)

    @settings(max_examples=150)
    @given(data=st.binary(max_size=200), base=st.sampled_from(FUZZ_BASES))
    def test_arbitrary_bytes(self, tmp_path_factory, data, base):
        reader, _, kind = base
        self.check(tmp_path_factory, reader, data, kind)

    @settings(max_examples=400)
    @given(case=mutated_files())
    def test_mutated_valid_file(self, tmp_path_factory, case):
        self.check(tmp_path_factory, *case)


DEFAULT_BLOCK = fileio._BLOCK


@pytest.fixture(params=[1, 7, 40], ids=lambda n: f"block{n}")
def tiny_block(request, monkeypatch):
    """Parse and format tables in blocks of a few characters."""
    monkeypatch.setattr(fileio, "_BLOCK", request.param)
    return request.param


CURVE_ROWS = "".join(f"{k}e-06,0.{k:02d},0.5,{100 - k}\n" for k in range(1, 31))
CURVE_HEAD = "# fiberphase-dphi v1\n# dt: 1e-06\ntau_s,dphi_rad,sigma_rad,n_increments\n"


class TestBlockBoundaries:
    """Rows read or written in blocks of a few characters, against the default block."""

    @staticmethod
    def outcome(path, block=DEFAULT_BLOCK):
        with mock.patch.object(fileio, "_BLOCK", block):
            return read_outcome(read_dphi_curve, str(path))

    @pytest.mark.parametrize("row,problem", [
        ("29e-06,0.29,0.5,x71", "unparseable number"),
        ("29e-06,0.29,0.5", "expected 4 columns, got 3"),
        ("29e-06,0.29,0.5,71,1", "expected 4 columns, got 5"),
    ])
    def test_bad_row_in_later_block_names_global_line(self, tmp_path, tiny_block, row, problem):
        path = tmp_path / "curve.csv"
        rows = CURVE_ROWS.splitlines(keepends=True)
        rows[28] = row + "\n"
        path.write_text(CURVE_HEAD + "\n\n" + "".join(rows), encoding="utf-8")
        outcome = self.outcome(path, tiny_block)
        assert outcome == self.outcome(path)
        assert outcome[:2] == (TraceParseError, 3 + 2 + 29) and problem in outcome[2]

    def test_blank_runs_across_block_edges_skipped(self, tmp_path, tiny_block):
        plain, gappy = tmp_path / "plain.csv", tmp_path / "gappy.csv"
        plain.write_text(CURVE_HEAD + CURVE_ROWS, encoding="utf-8")
        rows = CURVE_ROWS.splitlines(keepends=True)
        gappy.write_text(CURVE_HEAD + "\n" * 9 + "".join(
            row + "\n" * (k % 5) for k, row in enumerate(rows)) + "\n" * 6, encoding="utf-8")
        assert self.outcome(gappy, tiny_block) == self.outcome(plain)

    def test_last_row_without_newline(self, tmp_path, tiny_block):
        full, cut = tmp_path / "full.csv", tmp_path / "cut.csv"
        full.write_text(CURVE_HEAD + CURVE_ROWS, encoding="utf-8")
        cut.write_text(CURVE_HEAD + CURVE_ROWS.rstrip("\n"), encoding="utf-8")
        assert self.outcome(cut, tiny_block) == self.outcome(full)

    def test_crlf_reads_as_lf(self, tmp_path, tiny_block):
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        lf.write_text(CURVE_HEAD + CURVE_ROWS, encoding="utf-8")
        crlf.write_bytes((CURVE_HEAD + CURVE_ROWS).replace("\n", "\r\n").encode())
        assert self.outcome(crlf, tiny_block) == self.outcome(lf)

    @pytest.mark.parametrize("reader,text,line,message", [
        (read_dphi_curve, CURVE_HEAD + "\n\n", 3, "empty curve"),
        (read_fringe_scan, "# fiberphase-fringe v1\n# i0: 1.0\n# detector_noise: 0.0\n"
         "applied_phase_rad,pulse_area\n\n\n\n", 4, "a fringe scan needs >= 4 rows"),
    ])
    def test_empty_data_section_names_header_line(self, tmp_path, tiny_block, reader, text,
                                                  line, message):
        path = tmp_path / "empty.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(TraceParseError, match=f"line {line}: .*{message}"):
            reader(str(path))

    def test_non_utf8_byte_outranks_earlier_bad_row(self, tmp_path, tiny_block):
        # past the first 8 KiB that text mode decodes, so the parse reaches
        # the bad row before the decoder reaches the bad byte
        path = tmp_path / "curve.csv"
        rows = CURVE_ROWS * 100
        path.write_bytes((CURVE_HEAD + "1e-06,x,0.5,3\n" + rows).encode() + b"\xff\n")
        with pytest.raises(TraceParseError, match=f"line {3 + 1 + 3000 + 1}: .*not UTF-8"):
            read_dphi_curve(str(path))

    @pytest.mark.parametrize(
        "write,obj,expected", GOLDEN,
        ids=["phase_trace", "intensity_trace", "fringe", "dphi_curve", "histogram"],
    )
    def test_golden_bytes(self, tmp_path, tiny_block, write, obj, expected):
        path = tmp_path / "golden.csv"
        write(str(path), obj)
        assert path.read_bytes() == expected.encode("utf-8")


def traced_peak(fn, *args):
    """tracemalloc's peak, in bytes, over one call of fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingMemory:
    """A table's memory is its column arrays plus one block, not the whole text.

    On a 2e5-row intensity trace (6.3 MB of text, 3.2 MB of column arrays)
    whole-text reading and writing peaked at 24 MB and 32 MB.
    """

    BOUND = 16e6  # bytes, for each of write_trace and read_trace

    def test_read_and_write_peaks(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=11))
        trace = IntensityTrace(t0=0.0, dt=1e-6, samples=rng.uniform(0.0, 1.0, 200_000),
                               i_max=1.0, i_min=0.0)
        path = str(tmp_path / "mz.csv")
        assert traced_peak(write_trace, path, trace) < self.BOUND
        assert traced_peak(read_trace, path) < self.BOUND


class TestCodecLogging:
    def test_package_logger_is_silent_by_default(self):
        handlers = logging.getLogger("fiberphase").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)

    def test_debug_records_rows_blocks_and_blank_lines(self, tmp_path, caplog, monkeypatch):
        monkeypatch.setattr(fileio, "_BLOCK", 32 * 10)  # 10 rows per written block
        path = str(tmp_path / "t.csv")
        with caplog.at_level(logging.DEBUG, logger="fiberphase"):
            write_trace(path, PhaseTrace(t0=0.0, dt=1e-6, samples=np.zeros(25)))
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("\n\n")
            read_trace(path)
        assert [r.name for r in caplog.records] == ["fiberphase.fileio"] * 2
        assert caplog.records[0].getMessage() == f"wrote {path}: 25 rows in 3 blocks"
        assert caplog.records[1].getMessage().startswith(f"read {path}: 25 rows in ")
        assert caplog.records[1].getMessage().endswith(" blocks, 2 blank lines skipped")


class TestReport:
    def make_report(self):
        return ReportDocument(
            config={"command": "repeater budget", "params": {"total_km": 1000.0}},
            results={"budget": {"dphi_limit_rad": 0.10183420137426842}},
        )

    def test_deterministic_bytes(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        write_report(a, self.make_report())
        write_report(b, self.make_report())
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_sorted_keys_and_schema(self, tmp_path):
        path = str(tmp_path / "r.json")
        write_report(path, self.make_report())
        text = (tmp_path / "r.json").read_text(encoding="utf-8")
        data = json.loads(text)
        assert data["schema_version"] == "v1"
        assert data["tool"]["name"] == "fiberphase"
        assert text.index('"config"') < text.index('"results"')
        assert "0.101834201374" in text

    def test_twelve_significant_digits(self, tmp_path):
        path = str(tmp_path / "r.json")
        report = ReportDocument(config={}, results={"x": {"v": math.pi}})
        write_report(path, report)
        data = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        assert data["results"]["x"]["v"] == float(f"{math.pi:.12g}")

    def test_non_finite_serialized_as_strings(self, tmp_path):
        path = str(tmp_path / "r.json")
        report = ReportDocument(config={}, results={"x": {"v": math.nan}})
        write_report(path, report)
        data = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        assert data["results"]["x"]["v"] == "nan"

    def test_input_digest_recorded(self, tmp_path):
        trace_path = str(tmp_path / "t.csv")
        write_trace(trace_path, PhaseTrace(t0=0.0, dt=1e-6, samples=np.zeros(3)))
        report = self.make_report()
        report.add_input(trace_path)
        assert len(report.inputs) == 1
        assert len(report.inputs[0]["sha256"]) == 64


class TestPipelineFileEquivalence:
    def test_file_pipeline_matches_in_memory(self, tmp_path):
        # analyze-phase on a written trace file reproduces the in-memory path
        proc = build_process(NoiseParams(sigma_ref=0.1418, tau_ref=182.5e-6))
        trace = simulate_mz_trace(proc, 2e-3, 2e-6, phi0=math.pi / 2, seed=9)
        path = str(tmp_path / "mz.csv")
        write_trace(path, trace)
        from_file = extract_phase(read_trace(path))
        in_memory = extract_phase(trace)
        assert from_file == in_memory
