"""Tests for the CSV trace/fringe/curve formats and the JSON report."""

import dataclasses
import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
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
    TraceParseError,
    extract_phase,
    fit_gaussian,
    increment_sets,
    pool_stats,
    read_dphi_curve,
    read_fringe_scan,
    read_trace,
    simulate_fringe_scan,
    simulate_mz_trace,
    write_dphi_curve,
    write_fringe_scan,
    write_histogram,
    write_report,
    write_trace,
)
from fiberphase import decimals, fileio

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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
        proc = NoiseParams(sigma_ref=0.13, tau_ref=1e-4)
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

    def test_non_trace_rejected(self, tmp_path):
        scan = FringeScan(applied_phase=[0.0, 1.0, 2.0, 3.0], pulse_area=[1.0, 0.5, 0.2, 0.6])
        with pytest.raises(DomainError, match="^cannot serialize FringeScan as a trace$"):
            write_trace(str(tmp_path / "t.csv"), scan)
        assert not list(tmp_path.iterdir())

    def test_header_line(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_trace(path, PhaseTrace(t0=0.0, dt=1e-6, samples=np.zeros(2)))
        first = (tmp_path / "t.csv").read_text(encoding="utf-8").split("\n")[0]
        assert first == "# fiberphase-trace v1"


PHASE_HEAD = "# fiberphase-trace v1\n# kind: phase\n# t0: 0.0\n# dt: 1e-06\n"
INTENSITY_HEAD = ("# fiberphase-trace v1\n# kind: intensity\n# t0: 0.0\n# dt: 1e-06\n"
                  "# i_max: 1.0\n# i_min: 0.0\n")


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

    @pytest.mark.parametrize("reader,text,line,problem,key", [
        (read_trace, "# fiberphase-trace v1\n# kind: phase\n# t0: 0.0\n# dt: abc\n"
         "time_s,value\n0.0,0.1\n", 4, "bad value for 'dt': 'abc'", "dt"),
        (read_trace, "# fiberphase-trace v1\n# kind: phase\n# t0: 0.0\n# dt: 1e-06\n"
         "# segments: 0:1,x\ntime_s,value\n0.0,0.1\n", 5, "bad segment token 'x'", "segments"),
        (read_trace, "# fiberphase-trace v1\n# kind: phase\n# t0: 0.0\n# note: no dt\n"
         "time_s,value\n0.0,0.1\n", 5, "missing metadata key 'dt'", "dt"),
        (read_trace, "# fiberphase-trace v1\n# t0: 0.0\n# dt: 1e-06\n# kind: sine\n"
         "time_s,value\n0.0,0.1\n", 4, "unknown trace kind 'sine'", "kind"),
        (read_trace, "# fiberphase-trace v1\n# t0: 0.0\n# dt: 1e-06\n"
         "time_s,value\n0.0,0.1\n", 4, "unknown trace kind None", "kind"),
        (read_trace, "# fiberphase-trace v1\n# kind: intensity\n# t0: 0.0\n# dt: 1e-06\n"
         "# i_max: 1.0\n# i_min: 0.0\n# i_max: high\ntime_s,value\n0.0,0.1\n", 7,
         "bad value for 'i_max': 'high'", "i_max"),
        (read_trace, "# fiberphase-trace v1\n# kind: intensity\n# t0: 0.0\n# dt: 1e-06\n"
         "# i_max: 1e308\n# i_min: -1e308\ntime_s,value\n0.0,0.1\n", 5,
         "the span i_max - i_min is not finite at i_max=1e+308, i_min=-1e+308", "i_max"),
        (read_fringe_scan, "# fiberphase-fringe v1\n# detector_noise: 0.0\n"
         "applied_phase_rad,pulse_area\n" + "0.0,1.0\n" * 4, 3, "missing metadata key 'i0'", "i0"),
        (read_dphi_curve, "# fiberphase-dphi v1\n# note: x\n# dt: 1 us\n"
         "tau_s,dphi_rad,sigma_rad,n_increments\n1e-06,0.01,0.0125,499\n", 3,
         "bad value for 'dt': '1 us'", "dt"),
    ], ids=["bad_dt", "bad_segment", "missing_dt", "unknown_kind", "missing_kind",
            "repeated_key", "span_overflow", "fringe_missing_i0", "curve_bad_dt"])
    def test_metadata_error_names_its_line(self, tmp_path, reader, text, line, problem, key):
        # a missing key names the column-header line
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        assert read_outcome(reader, str(path)) == (
            TraceParseError, line, f"line {line}: {path}: {problem}")
        with pytest.raises(TraceParseError) as excinfo:
            reader(str(path))
        cause = excinfo.value.__cause__
        assert (type(cause), cause.fields[0]) == (DomainError, key)

    @pytest.mark.parametrize("reader,text,line,body", [
        (read_trace, "# fiberphase-trace v1\n# kind intensity\n", 2, "kind intensity"),
        (read_dphi_curve, "# fiberphase-dphi v1\n# dt 1e-06\n"
         "tau_s,dphi_rad,sigma_rad,n_increments\n1e-06,0.01,0.0125,499\n", 2, "dt 1e-06"),
    ], ids=["trace_kind", "curve_dt"])
    def test_metadata_without_colon_names_its_line(self, tmp_path, reader, text, line, body):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        assert read_outcome(reader, str(path)) == (
            TraceParseError, line, f"line {line}: {path}: malformed metadata {body!r}")

    @pytest.mark.parametrize("value", [".5", "1E-6", "+1e-6", "1_0e-7", "\u0661e-06"])
    @pytest.mark.parametrize("reader,text,key", [
        (read_trace, PHASE_HEAD + "# segments: 0:2\ntime_s,value\n0.0,0.1\n1e-06,0.2\n", "t0"),
        (read_trace, PHASE_HEAD + "# segments: 0:2\ntime_s,value\n0.0,0.1\n1e-06,0.2\n", "dt"),
        (read_trace, INTENSITY_HEAD + "time_s,value\n0.0,0.0\n1e-06,1e-06\n", "i_max"),
        (read_fringe_scan, "# fiberphase-fringe v1\n# i0: 1.0\n# detector_noise: 0.0\n"
         "applied_phase_rad,pulse_area\n" + "0.0,1.0\n" * 4, "i0"),
        (read_fringe_scan, "# fiberphase-fringe v1\n# i0: 1.0\n# detector_noise: 0.0\n"
         "applied_phase_rad,pulse_area\n" + "0.0,1.0\n" * 4, "detector_noise"),
        (read_dphi_curve, "# fiberphase-dphi v1\n# dt: 1e-06\n"
         "tau_s,dphi_rad,sigma_rad,n_increments\n1e-06,0.01,0.0125,499\n", "dt"),
    ], ids=["trace_t0", "trace_dt", "trace_i_max", "fringe_i0", "fringe_detector_noise",
            "curve_dt"])
    def test_metadata_number_takes_cell_syntax(self, tmp_path, reader, text, key, value):
        # spellings that float() and the cell parser both accept read; `_`
        # separators and non-ASCII digits, which only float() takes, fail
        text = re.sub(f"^# {key}: .*$", f"# {key}: {value}", text, count=1, flags=re.M)
        path = tmp_path / "meta.csv"
        path.write_text(text, encoding="utf-8")
        if value.isascii() and "_" not in value:
            assert getattr(reader(str(path)), key) == float(value)
        else:
            line = text.splitlines().index(f"# {key}: {value}") + 1
            assert read_outcome(reader, str(path)) == (
                TraceParseError, line, f"line {line}: {path}: bad value for {key!r}: {value!r}")

    @pytest.mark.parametrize("reader,text,line,problem,fields", [
        (read_trace, PHASE_HEAD + "# segments: 0:3\ntime_s,value\n0.0,0.1\n1e-06,nan\n"
         "2e-06,0.3\n", 8, "sample 1 inside a segment is not finite: nan", ("samples",)),
        (read_trace, PHASE_HEAD + "# segments: 0:9\ntime_s,value\n0.0,0.1\n1e-06,0.2\n"
         "2e-06,0.3\n", 5, "segment (0, 9) out of bounds for 3 samples", ("segments",)),
        (read_trace, PHASE_HEAD + "# segments: 0:2,1:3\ntime_s,value\n0.0,0.1\n1e-06,0.2\n"
         "2e-06,0.3\n", 5, "segments must be sorted and disjoint", ("segments",)),
        (read_trace, INTENSITY_HEAD + "time_s,value\n0.0,0.5\n1e-06,1.5\n2e-06,-0.5\n", 9,
         "samples[1] falls outside [i_min, i_max]: 1.5", ("samples",)),
        (read_trace, "# fiberphase-trace v1\n# kind: intensity\n# t0: 0.0\n# dt: 1e-06\n"
         "# i_max: 0.0\n# i_min: 1.0\ntime_s,value\n0.0,0.5\n", 5,
         "i_max must exceed i_min, got i_max=0.0, i_min=1.0", ("i_max", "i_min")),
        (read_trace, "# fiberphase-trace v1\n# kind: phase\n# dt: -1e-06\n# t0: 0.0\n"
         "time_s,value\n0.0,0.1\n", 3, "dt must be > 0, got -1e-06", ("dt",)),
        (read_dphi_curve, "# fiberphase-dphi v1\n# dt: 1e-06\n"
         "tau_s,dphi_rad,sigma_rad,n_increments\n1e-06,0.05,0.06,9\n1e-06,0.2,0.25,8\n", 5,
         "lags must be strictly increasing", ("taus",)),
        (read_dphi_curve, "# fiberphase-dphi v1\n# dt: 1e-06\n"
         "tau_s,dphi_rad,sigma_rad,n_increments\n1e-06,0.05,0.06,9\n2e-06,0.2,-0.25,8\n", 5,
         "sigma_per_tau must be finite and >= 0 (NaN below two increments)", ("sigma_per_tau",)),
        (read_fringe_scan, "# fiberphase-fringe v1\n# i0: 1.0\n# detector_noise: 0.0\n"
         "applied_phase_rad,pulse_area\n0.0,1.0\n1.0,-0.5\n2.0,0.3\n3.0,0.1\n", 6,
         "pulse_area is negative after detector-noise subtraction", ("pulse_area",)),
        (read_fringe_scan, "# fiberphase-fringe v1\n# detector_noise: inf\n# i0: 1.0\n"
         "applied_phase_rad,pulse_area\n" + "0.0,1.0\n" * 4, 2,
         "detector_noise must be finite, got inf", ("detector_noise",)),
    ], ids=["nan_in_segment", "segment_out_of_bounds", "segments_overlap", "out_of_range",
            "i_max_below_i_min", "negative_dt", "repeated_lag", "negative_sigma",
            "negative_area", "inf_detector_noise"])
    def test_value_error_names_its_line(self, tmp_path, reader, text, line, problem, fields):
        # a bad row value names its row; a bad metadata value, the line of its
        # first field's key: i_max <= i_min names both fields, and fails at `# i_max:`
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(TraceParseError) as excinfo:
            reader(str(path))
        assert (excinfo.value.line, str(excinfo.value)) == (
            line, f"line {line}: {path}: {problem}")
        assert excinfo.value.__cause__.fields == fields

    @pytest.mark.parametrize("block", [1, 7, 40, fileio._BLOCK])
    @pytest.mark.parametrize("rows,line", [
        ("\n0.0,0.1\n\n\n1e-06,nan\n\n2e-06,0.3\n", 11),
        ("0.0,0.1\r\n\r\n1e-06,nan\r\n2e-06,0.3\r\n", 9),
        ("0.0,0.1\n1e-06,nan\n\n\n2e-06,0.3\n\n", 8),
    ], ids=["blanks_before", "crlf_blank", "blanks_after"])
    def test_blank_lines_do_not_shift_the_row(self, tmp_path, block, rows, line):
        path = tmp_path / "bad.csv"
        path.write_bytes((PHASE_HEAD + "# segments: 0:3\ntime_s,value\n" + rows).encode())
        with mock.patch.object(fileio, "_BLOCK", block), pytest.raises(TraceParseError) as excinfo:
            read_trace(str(path))
        assert (excinfo.value.line, str(excinfo.value)) == (
            line, f"line {line}: {path}: sample 1 inside a segment is not finite: nan")
        # the row's index is passed by keyword, apart from the field it belongs to
        cause = excinfo.value.__cause__
        assert (cause.fields, cause.index) == (("samples",), 1)

    def test_nan_inside_segment(self, tmp_path):
        path = tmp_path / "bad.csv"
        values = ["0.1", "0.2", "nan", "0.4", "0.5"]
        rows = "".join(f"{k}e-06,{v}\n" for k, v in enumerate(values))
        path.write_text(
            "# fiberphase-trace v1\n# kind: phase\n# t0: 0.0\n# dt: 1e-06\n"
            "# segments: 0:5\ntime_s,value\n" + rows
        )
        assert read_outcome(read_trace, str(path)) == (
            TraceParseError, 9, f"line 9: {path}: sample 2 inside a segment is not finite: nan")

    def test_nan_intensity_sample(self, tmp_path):
        path = tmp_path / "bad.csv"
        values = ["0.5", "0.6", "0.7", "nan", "0.4"]
        rows = "".join(f"{k}e-06,{v}\n" for k, v in enumerate(values))
        path.write_text(
            "# fiberphase-trace v1\n# kind: intensity\n# t0: 0.0\n# dt: 1e-06\n"
            "# i_max: 1.0\n# i_min: 0.0\ntime_s,value\n" + rows
        )
        assert read_outcome(read_trace, str(path)) == (
            TraceParseError, 11, f"line 11: {path}: samples[3] is not finite: nan")


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
        return increment_sets(trace, [1e-6, 2e-6, 5e-6, 1e-5])

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
            counts=np.array([3, 0, 1, 12]), fit_sigma=0.1, degenerate=False,
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


def block_for_step(step: int, ncols: int) -> int:
    """The `_BLOCK` at which a table of `ncols` columns is written `step` rows a block."""
    return -(-step * ncols * (decimals.WIDTH + 1) // 4)


@pytest.mark.parametrize("step", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize(
    "write,obj,expected", GOLDEN,
    ids=["phase_trace", "intensity_trace", "fringe", "dphi_curve", "histogram"],
)
def test_golden_bytes_at_each_block_step(tmp_path, monkeypatch, caplog, step, write, obj,
                                         expected):
    # row counts of 2-5: a multiple of the step, one short of one, or neither
    lines = expected.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    n_rows = len(lines) - header - 1
    monkeypatch.setattr(fileio, "_BLOCK", block_for_step(step, lines[header].count(",") + 1))
    path = tmp_path / "golden.csv"
    with caplog.at_level(logging.DEBUG, logger="fiberphase"):
        write(str(path), obj)
    assert path.read_bytes() == expected.encode("utf-8")
    assert f" {n_rows} rows in {-(-n_rows // step)} blocks," in caplog.records[-1].getMessage()


@pytest.mark.parametrize("n_rows", [28, 27], ids=["multiple", "one_short"])
def test_rows_a_multiple_of_the_block_step_or_one_short(tmp_path, monkeypatch, n_rows):
    rng = np.random.Generator(np.random.Philox(key=26))
    values = rng.normal(0.0, 1.0, n_rows)
    values[rng.random(n_rows) < 0.6] = np.nan
    values[[0, 9, 13]] = 5e-324, -0.0, 1e300
    trace = PhaseTrace(t0=0.5, dt=1e-6, samples=values, segments=())
    whole, blocks = tmp_path / "whole.csv", tmp_path / "blocks.csv"
    write_trace(str(whole), trace)
    monkeypatch.setattr(fileio, "_BLOCK", block_for_step(7, 2))
    write_trace(str(blocks), trace)
    assert blocks.read_bytes() == whole.read_bytes()


TRACE_HEAD = b"# fiberphase-trace v1\n# kind: phase\n# t0: 0.0\n# dt: 1e-06\n"
FRINGE_HEAD = b"# fiberphase-fringe v1\n# i0: 1.0\n# detector_noise: 0.0\n"
READER_IDS = ["trace", "fringe", "dphi_curve"]

# Each reader on its own format, with a byte that is not UTF-8 in the row at line 6.
NON_UTF8_FILES = [
    (read_trace, TRACE_HEAD + b"time_s,value\n0.0,0.\xff2\n"),
    (read_fringe_scan, FRINGE_HEAD + b"applied_phase_rad,pulse_area\n0.0,1.0\n1.0,0.\xff7\n"),
    (read_dphi_curve, b"# fiberphase-dphi v1\n# dt: 1e-06\ntau_s,dphi_rad,sigma_rad,"
     b"n_increments\n1e-06,0.01,0.0125,499\n2e-06,0.02,0.025,498\n3e-06,0.03,\xff,497\n"),
]


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

    @pytest.mark.parametrize("reader,data", NON_UTF8_FILES, ids=READER_IDS)
    def test_non_utf8_names_line(self, tmp_path, reader, data):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        assert read_outcome(reader, str(path)) == (
            TraceParseError, 6, f"line 6: {path}: not UTF-8 text")


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


def rendered(values) -> tuple[list[str], int]:
    """Each value as the table writer renders it, and the cells left to repr."""
    cells = np.asarray(values)
    rows = np.zeros((cells.size, decimals.WIDTH + 1), np.uint8)
    by_repr = decimals.render(cells, rows[:, :-1])
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0").decode().split("\n")[:-1], by_repr


def repr_mismatches(values) -> list[tuple[float, str]]:
    """Cells whose rendering differs from repr(float(x)), rendered in blocks."""
    values = np.asarray(values, np.float64)
    bad = []
    for a in range(0, values.size, 1 << 16):
        block = values[a:a + (1 << 16)].tolist()
        got, _ = rendered(block)
        bad += [(x, text) for x, text in zip(block, got) if text != repr(x)]
    return bad


def repr_corpus(seed: int = 20071205) -> np.ndarray:
    """About 1.1e6 floats from the families where shortest-repr digits go wrong."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    decimals = rng.integers(1, 10 ** rng.integers(1, 7, 100_000)) * 10.0 ** rng.integers(
        -12, 19, 100_000)
    straddle = np.array([1e-6, 1e-5, 1e-4, 1e15, 1e16, 1e17])
    k = np.arange(100_000)
    return np.concatenate([
        rng.standard_normal(300_000) * 10.0 ** rng.uniform(-8, 18, 300_000),
        np.ldexp(1.0, np.arange(-1074, 1024)) * np.array([[1.0], [-1.0]]),
        decimals, np.nextafter(decimals, np.inf), np.nextafter(decimals, -np.inf),
        rng.integers(-2**53, 2**53, 100_000) / 2.0 ** rng.integers(0, 80, 100_000),
        *(t0 + dt * k for t0, dt in ((0.0, 1e-6), (1.5e-3, 2.5e-7), (0.0, 1e-3))),
        (straddle[:, None] * (1 + 2.0**-52 * np.arange(-2000, 2000))).ravel(),
        # exact ties: X ends in 5 at the 16th digit, or in .5 at the 17th
        rng.integers(2**46, 2**47, 50_000) + rng.choice([0.125, 0.375, 0.625, 0.875], 50_000),
        (2 * rng.integers(2 * 10**15, 2**51, 50_000) + 1) / 4.0,
    ], axis=None)


class TestCellRendering:
    """Cells are written as the bytes of repr(float(x)), without calling repr
    except on the few cells outside the kernel's domain or at an exact tie."""

    @given(st.lists(st.floats(width=64), min_size=1, max_size=40))
    def test_every_float64_as_repr(self, values):
        got, _ = rendered(values)
        assert got == [repr(float(x)) for x in values]

    def test_corpus_as_repr(self):
        corpus = repr_corpus()
        assert corpus.size >= 1_000_000
        assert repr_mismatches(corpus) == []

    @pytest.mark.parametrize("values,by_repr", [
        ([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf], 0),
        ([1e-7, 1e17, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308], 5),
        ([1e-6, 1.0000000000000002e-06, 9.999999999999998e16], 1),  # 1e-6 is below 10**-6
        ([0.1, 1e15, 1e16, 1e-5, 1e-4, 123.456, -0.000123], 0),
        ([74620162280687.375, 1000000000000000.25], 2),  # ties at the 16th and 17th digit
    ])
    def test_cells_by_repr(self, values, by_repr):
        got, count = rendered(values)
        assert got == [repr(x) for x in values]
        assert count == by_repr

    def test_integer_cells_by_repr(self):
        values = np.array([0, -1, 12, 2**63 - 1, -2**63], np.int64)
        assert rendered(values) == ([repr(int(v)) for v in values], values.size)


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


@pytest.fixture(scope="class", params=["kernel", "loadtxt"])
def parser(request):
    """Rows read by the block kernel where it can, or by numpy alone, as if
    the kernel declined every block."""
    if request.param == "kernel":
        yield
    else:
        with mock.patch.object(decimals, "parse", lambda *args: None):
            yield


@pytest.mark.usefixtures("parser")
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


@pytest.fixture(params=[b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def spell_breaks(request):
    """The function that spells each LF of a text's bytes as a LF, a CRLF or
    a bare CR, the line breaks of files that other tools export."""
    return lambda data: data.replace(b"\n", request.param)


CURVE_ROWS = "".join(f"{k}e-06,0.{k:02d},0.5,{100 - k}\n" for k in range(1, 31))
CURVE_HEAD = "# fiberphase-dphi v1\n# dt: 1e-06\ntau_s,dphi_rad,sigma_rad,n_increments\n"


@pytest.mark.usefixtures("parser")
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
    def test_bad_row_in_later_block_names_global_line(self, tmp_path, tiny_block, spell_breaks,
                                                      row, problem):
        path = tmp_path / "curve.csv"
        rows = CURVE_ROWS.splitlines(keepends=True)
        rows[28] = row + "\n"
        path.write_bytes(spell_breaks((CURVE_HEAD + "\n\n" + "".join(rows)).encode()))
        outcome = self.outcome(path, tiny_block)
        assert outcome == self.outcome(path)
        assert outcome[:2] == (TraceParseError, 3 + 2 + 29) and problem in outcome[2]

    def test_blank_runs_across_block_edges_skipped(self, tmp_path, tiny_block, spell_breaks):
        plain, gappy = tmp_path / "plain.csv", tmp_path / "gappy.csv"
        plain.write_text(CURVE_HEAD + CURVE_ROWS, encoding="utf-8")
        rows = CURVE_ROWS.splitlines(keepends=True)
        gappy.write_bytes(spell_breaks((CURVE_HEAD + "\n" * 9 + "".join(
            row + "\n" * (k % 5) for k, row in enumerate(rows)) + "\n" * 6).encode()))
        assert self.outcome(gappy, tiny_block) == self.outcome(plain)

    def test_last_row_without_newline(self, tmp_path, tiny_block):
        full, cut = tmp_path / "full.csv", tmp_path / "cut.csv"
        full.write_text(CURVE_HEAD + CURVE_ROWS, encoding="utf-8")
        cut.write_text(CURVE_HEAD + CURVE_ROWS.rstrip("\n"), encoding="utf-8")
        assert self.outcome(cut, tiny_block) == self.outcome(full)

    def test_line_breaks_read_as_lf(self, tmp_path, tiny_block, spell_breaks):
        # as in text mode, a CRLF and a bare CR each end a line, so the row
        # bound counts the LF and bare CR bytes
        lf, spelled = tmp_path / "lf.csv", tmp_path / "spelled.csv"
        lf.write_text(CURVE_HEAD + CURVE_ROWS, encoding="utf-8")
        data = spell_breaks(lf.read_bytes())
        spelled.write_bytes(data)
        with mock.patch.object(fileio, "_BLOCK", DEFAULT_BLOCK):
            assert fileio._line_breaks(spelled) == fileio._line_breaks(lf) == 33
        # a CRLF cut by the edge of a counted chunk counts twice
        cut = sum(data[k:k + 2] == b"\r\n" for k in range(tiny_block - 1, len(data), tiny_block))
        assert fileio._line_breaks(spelled) == fileio._line_breaks(lf) + cut
        assert self.outcome(spelled, tiny_block) == self.outcome(lf)

    @pytest.mark.parametrize("undercount", [0, 1, 20])
    def test_rows_past_the_counted_bound(self, tmp_path, tiny_block, monkeypatch, undercount):
        # as if the file grew between the count and the parse
        path = tmp_path / "curve.csv"
        path.write_text(CURVE_HEAD + CURVE_ROWS, encoding="utf-8")
        expected = self.outcome(path)
        monkeypatch.setattr(fileio, "_line_breaks", lambda _: undercount)
        assert self.outcome(path, tiny_block) == expected

    def test_nan_rows_at_block_edges(self, tmp_path, tiny_block):
        # nan rows first and last in a block, beside negative, 17-digit,
        # exponent and float()-fallback cells
        values = np.array([np.nan, np.nan, -0.5, np.nan, 0.30000000000000004, 1e300, np.nan,
                           5e-324, np.nan, np.nan, -1.5e-07, 1 / 3, np.nan])
        columns = (np.arange(values.size) * 1e-6, values)
        path = str(tmp_path / "t.csv")
        fileio._write_table(path, fileio._TRACE, {}, columns)
        with mock.patch.object(fileio, "_BLOCK", tiny_block):
            got = fileio._read_table(path, fileio._TRACE, lambda meta, *columns: columns)
        assert [c.view(np.int64).tolist() for c in got] == [
            c.view(np.int64).tolist() for c in columns]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_reads_as_file(self, tmp_path, tiny_block):
        # a pipe can be read once, so its rows are not counted first
        path = tmp_path / "curve.csv"
        path.write_text(CURVE_HEAD + CURVE_ROWS, encoding="utf-8")
        r, w = os.pipe()
        try:
            os.write(w, path.read_bytes())
            os.close(w)
            assert self.outcome(f"/dev/fd/{r}", tiny_block) == self.outcome(path)
        finally:
            os.close(r)

    @pytest.mark.parametrize("reader,text,line,message", [
        (read_dphi_curve, CURVE_HEAD + "\n\n", 3, "a dphi curve needs at least one lag"),
        (read_fringe_scan, "# fiberphase-fringe v1\n# i0: 1.0\n# detector_noise: 0.0\n"
         "applied_phase_rad,pulse_area\n\n\n\n", 4, "a fringe scan needs >= 4 points, got 0"),
    ])
    def test_empty_data_section_names_header_line(self, tmp_path, tiny_block, reader, text,
                                                  line, message):
        path = tmp_path / "empty.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(TraceParseError, match=f"line {line}: .*{message}"):
            reader(str(path))

    @pytest.mark.parametrize("early,late,problem", [
        (b"1e-06,x,0.5,3\n", b"\xff\n", "unparseable number in '1e-06,x,0.5,3'"),
        (b"\xff\n", b"1e-06,x,0.5,3\n", "not UTF-8 text"),
    ], ids=["bad_row_first", "non_utf8_first"])
    def test_first_of_two_faults_named(self, tmp_path, tiny_block, early, late, problem):
        # the later fault at line 3005 lies past the first 8 KiB that text
        # mode decodes, which a reader that looked ahead would meet first
        path = tmp_path / "curve.csv"
        path.write_bytes(CURVE_HEAD.encode() + early + (CURVE_ROWS * 100).encode() + late)
        assert self.outcome(path, tiny_block) == (TraceParseError, 4, f"line 4: {path}: {problem}")

    @pytest.mark.parametrize(
        "write,obj,expected", GOLDEN,
        ids=["phase_trace", "intensity_trace", "fringe", "dphi_curve", "histogram"],
    )
    def test_golden_bytes(self, tmp_path, tiny_block, write, obj, expected):
        path = tmp_path / "golden.csv"
        write(str(path), obj)
        assert path.read_bytes() == expected.encode("utf-8")


def whole_file_non_utf8_line(data):
    """The first non-UTF-8 byte's line, from the whole file decoded at once."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return len((data[:exc.start] + b"x").splitlines())
    return None


# Whole characters of one to four bytes, and atoms that are never UTF-8: a
# cut character, bytes that never occur in it, an overlong form, an encoded
# surrogate and a code point past U+10FFFF.
WHOLE_CHARACTERS = [b"a", b"\xc3\xa9", b"\xe2\x82\xac", b"\xf0\x9f\x98\x80"]
NOT_UTF8 = [b"\xe2\x82", b"\xff", b"\x80", b"\xc0\xaf", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]
BREAKS = [b"\n", b"\r", b"\r\n"]
# A cell's padding: none, or whitespace of one, two or three bytes.
CELL_PADDING = [b"", b" ", b"\xc2\x85", b"\xe3\x80\x80"]
ROWS_HEAD = TRACE_HEAD + b"time_s,value\n"


@st.composite
def trace_files(draw):
    """(bytes, row count) of a phase trace of `0.0,0.5` rows.

    A `# note:` line holds whole characters, and each row pads its cells
    and ends in one or two of LF, CR and CRLF.  Then up to two of the note's
    characters or the rows' paddings become atoms that are not UTF-8.
    """
    pieces, slots = [TRACE_HEAD + b"# note: "], []

    def slot(atom):
        slots.append(len(pieces))
        pieces.append(atom)

    for char in draw(st.lists(st.sampled_from(WHOLE_CHARACTERS), max_size=3)):
        slot(char)
    pieces.append(b"\ntime_s,value\n")
    n_rows = draw(st.integers(0, 6))
    for _ in range(n_rows):
        for text in (b"0.0", b",", b"0.5", b""):
            slot(draw(st.sampled_from(CELL_PADDING)))
            pieces.append(text)
        pieces.append(b"".join(draw(st.lists(st.sampled_from(BREAKS), min_size=1, max_size=2))))
    for k in draw(st.lists(st.sampled_from(slots), max_size=2)) if slots else ():
        pieces[k] = draw(st.sampled_from(NOT_UTF8))
    return b"".join(pieces), n_rows


def non_utf8_outcome(path, data, n_rows):
    """read_outcome of read_trace on `data`, a phase trace of `n_rows` rows
    `0.0,0.5` whose only faults are bytes that are not UTF-8."""
    line = whole_file_non_utf8_line(data)
    if line is None:
        return bits(PhaseTrace(t0=0.0, dt=1e-6, samples=np.full(n_rows, 0.5), segments=()))
    return TraceParseError, line, f"line {line}: {path}: not UTF-8 text"


@pytest.mark.usefixtures("parser")
class TestNonUtf8Line:
    """A byte that is not UTF-8 fails its own line, in the header or in a
    row, whatever the block size; decoding the whole file at once is the
    oracle."""

    @settings(max_examples=400)
    @given(case=trace_files(), block=st.sampled_from([1, 7, 40, DEFAULT_BLOCK]))
    def test_matches_whole_file_decode(self, tmp_path_factory, case, block):
        data, n_rows = case
        path = tmp_path_factory.mktemp("utf8") / "in.csv"
        path.write_bytes(data)
        with mock.patch.object(fileio, "_BLOCK", block):
            assert read_outcome(read_trace, str(path)) == non_utf8_outcome(path, data, n_rows)

    @pytest.mark.parametrize("data,expected", [
        (ROWS_HEAD + b"0.0,0.5\r\n0.0,0.5\r\n\xff", 8),  # rows that end in CRLF
        (ROWS_HEAD + b"0.0,0.5\r\r\n\xff", 8),  # CR, then CRLF: a blank line
        (ROWS_HEAD + b"0.0,0.5\n\xe3\x80\x800.0,0.5\n\xff", 8),  # a whole character
        (ROWS_HEAD + b"0.0,0.5\n\xe2\x82\n0.0,0.5", 7),  # a cut character, then a break
        (ROWS_HEAD + b"0.0,0.5\n\xe2\x82", 7),  # a cut character at the end of the file
        (ROWS_HEAD + b"0.0,0.5\n0.0,\xff", 7),  # the bad byte ends a row
        (ROWS_HEAD + b"0.0,0.5\r\n0.0,0.5\xe3\x80\x80", None),  # two rows, no bad byte
        (TRACE_HEAD + b"# note: \xe2\x82\xac\xff\n" + b"time_s,value\n0.0,0.5\n", 5),
    ], ids=["crlf", "cr_crlf", "whole_char", "cut_char", "cut_char_at_end", "row_end",
            "valid", "metadata"])
    def test_block_edges(self, tmp_path, tiny_block, data, expected):
        assert whole_file_non_utf8_line(data) == expected
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        assert read_outcome(read_trace, str(path)) == non_utf8_outcome(path, data, 2)


# Reads a file through a pipe in a fresh interpreter and prints the error:
# the arguments are the reader's name, "fifo" or "pipe", the file's bytes in
# hex and a path for the FIFO.
STREAM_READ = """
import os, sys, threading
from fiberphase import FiberPhaseError, fileio
reader = getattr(fileio, sys.argv[1])
kind, data, path = sys.argv[2], bytes.fromhex(sys.argv[3]), sys.argv[4]
if kind == "fifo":
    os.mkfifo(path)
    def feed():
        with open(path, "wb") as fh:
            fh.write(data)
    threading.Thread(target=feed).start()
else:
    r, w = os.pipe()
    os.write(w, data)
    os.close(w)
    path = f"/dev/fd/{r}"
try:
    reader(path)
except FiberPhaseError as exc:
    print(type(exc).__name__, exc.line, str(exc).replace(path, "PATH"))
"""

# Each reader on its own format with a malformed row: its line and problem.
MALFORMED_ROW_FILES = [
    (read_trace, ROWS_HEAD + b"0.0,0.5\n1e-06,x\n", 7, "unparseable number in '1e-06,x'"),
    (read_fringe_scan, FRINGE_HEAD + b"applied_phase_rad,pulse_area\n0.0,1.0\n1.0\n", 6,
     "expected 2 columns, got 1"),
    (read_dphi_curve, CURVE_HEAD.encode() + b"1e-06,0.01,0.0125,499\n2e-06,0.02,0.025,4x\n", 5,
     "unparseable number in '2e-06,0.02,0.025,4x'"),
]


class TestStreams:
    """A named FIFO or an anonymous pipe can be read once: a malformed one
    raises TraceParseError at its line, from a read that never opens the
    path again.  Each read runs in a fresh interpreter with a timeout, so a
    read that blocks fails instead of hanging the suite."""

    @staticmethod
    def read(tmp_path, reader, kind, data):
        env = {**os.environ, "PYTHONPATH": SRC}
        done = subprocess.run(
            [sys.executable, "-c", STREAM_READ, reader.__name__, kind, data.hex(),
             str(tmp_path / "in.fifo")], env=env, capture_output=True, text=True, timeout=30)
        assert done.returncode == 0, done.stderr
        return done.stdout.rstrip("\n")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("reader,data,line,problem", MALFORMED_ROW_FILES, ids=READER_IDS)
    def test_malformed_fifo(self, tmp_path, reader, data, line, problem):
        assert self.read(tmp_path, reader, "fifo", data) == (
            f"TraceParseError {line} line {line}: PATH: {problem}")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("reader,data", NON_UTF8_FILES, ids=READER_IDS)
    def test_non_utf8_pipe(self, tmp_path, reader, data):
        assert self.read(tmp_path, reader, "pipe", data) == (
            "TraceParseError 6 line 6: PATH: not UTF-8 text")


def kernel_bits(cells):
    """The kernel's reading of `cells`, one row each of a one-column table,
    as int64 bits; None if it declines the block."""
    data = decimals.HEAD + "".join(f"{cell}\n" for cell in cells).encode()
    parsed = decimals.parse(data, (("x", float),), [0])
    return None if parsed is None else parsed[0].view(np.int64).tolist()


def float_bits(cells):
    return np.array([float(cell) for cell in cells]).view(np.int64).tolist()


def decimal_forms(value: Fraction) -> list[str]:
    """A positive dyadic fraction's finite decimal expansion: positional,
    as d.ddd...e+-XX and as ddd...e-XX."""
    k = value.denominator.bit_length() - 1
    whole, frac = divmod(value.numerator * 5**k, 10**k)
    frac = str(frac).rjust(k, "0") if k else ""
    digits = (str(whole) + frac).lstrip("0")
    head = digits[0] + "." + digits[1:] if len(digits) > 1 else digits
    return [str(whole) + "." * bool(frac) + frac, f"{head}e{len(digits) - 1 - len(frac):+03d}",
            f"{digits}e{-len(frac):+d}"]


def binade_corpus(seed: int = 20071205) -> list[str]:
    """The repr of doubles from every binade, subnormals, powers of two and
    their neighbours, and +-0: positional and exponent forms."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    bits = rng.integers(0, 0x7FF0000000000000, 60_000)  # finite, positive
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([
        bits.view(np.float64), powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        np.arange(1, 2000) * 5e-324, [0.0, 2.2250738585072014e-308, 1.7976931348623157e308],
    ])
    values[rng.random(values.size) < 0.5] *= -1
    return [repr(x) for x in values.tolist()]


def decimal_corpus(seed: int = 20071205) -> list[str]:
    """Decimals of 1-25 digits, leading zeros included, that are not
    shortest reprs: with and without a point, a sign and an exponent."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    cells = []
    for _ in range(20_000):
        digits = "".join(map(str, rng.integers(0, 10, rng.integers(1, 26))))
        point = int(rng.integers(0, len(digits)))
        text = digits[:point] + "." + digits[point:] if point else digits
        if rng.random() < 0.5:
            text += "e" + rng.choice(["+", "-"]) + str(rng.integers(0, 340)).rjust(
                int(rng.integers(1, 5)), "0")
        cells.append("-" * (rng.random() < 0.3) + text)
    return cells


def halfway_corpus(seed: int = 20071205) -> list[str]:
    """Decimals exactly halfway between adjacent doubles, which round to
    the even one: positional and in two exponent forms.  Those of at most
    19 digits are decided by the kernel's correction, the others by
    `float()`."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    cells = []
    for exponent in range(-80, 80):
        for x in np.ldexp(1.0 + rng.random(40), exponent).tolist() + [2.0**exponent]:
            mid = (Fraction(x) + Fraction(np.nextafter(x, np.inf))) / 2
            forms = decimal_forms(mid)
            assert all(Fraction(cell) == mid for cell in forms)
            cells += forms
    return cells


# -?D+(.D+)?(e[+-]D+)?: the kernel's language, leading zeros included
DIGITS = st.text("0123456789", min_size=1, max_size=13)
DECIMALS = st.builds(
    lambda sign, whole, frac, exp: sign + whole + frac + exp, st.sampled_from(["", "-"]), DIGITS,
    st.one_of(st.just(""), DIGITS.map(".".__add__)),
    st.one_of(st.just(""), st.builds("e{}{}".format, st.sampled_from("+-"),
                                     st.text("0123456789", min_size=1, max_size=4))))


class TestCellKernel:
    """The block kernel reads each cell bit for bit as `float()` does, and
    declines a block outside the writer's language."""

    @pytest.mark.parametrize("corpus", [binade_corpus, decimal_corpus, halfway_corpus])
    def test_corpus_as_float(self, corpus):
        cells = corpus()
        assert kernel_bits(cells) == float_bits(cells)

    @settings(max_examples=300)
    @given(st.lists(st.floats(width=64, allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=40))
    def test_every_repr_as_float(self, values):
        cells = [repr(x) for x in values]
        assert kernel_bits(cells) == float_bits(cells)

    @settings(max_examples=300)
    @given(st.lists(DECIMALS, min_size=1, max_size=40))
    def test_every_decimal_as_float(self, cells):
        assert kernel_bits(cells) == float_bits(cells)

    @pytest.mark.parametrize("cells", [
        ["nan"] * 5,
        ["nan", "-0.5", "0.30000000000000004", "1.5e-07", "nan"],
        ["nan", "-12345678901234567", "nan", "2.5e+22", "nan", "1e+300", "nan", "5e-324", "nan",
         "1234567890123456789012345", "nan", "-1.7976931348623157e+308", "nan", "9.5e-05"],
    ], ids=["all_nan", "nan_first_and_last", "nan_beside_each_path"])
    def test_nan_cells_are_not_decoded(self, cells):
        # negative, 17-digit, exponent and float()-fallback cells beside nans
        sizes, significands = [], decimals._significands

        def spy(text, at, cls, kind, before, after):
            sizes.append(before.size)
            return significands(text, at, cls, kind, before, after)

        with mock.patch.object(decimals, "_significands", spy):
            assert kernel_bits(cells) == float_bits(cells)
        numbers = len(cells) - cells.count("nan")
        assert sizes == ([numbers] if numbers else [])

    def test_all_nan_column_never_reaches_digits(self):
        two = (("t", float), ("x", float))
        data = decimals.HEAD + b"0.5,nan\n-1e-06,nan\n0.25,nan\n"
        with mock.patch.object(decimals, "_digits", side_effect=AssertionError("decoded")):
            (x,) = decimals.parse(data, two, [1])
        assert x.size == 3 and np.isnan(x).all()

    @settings(max_examples=200)
    @given(st.lists(st.one_of(DECIMALS, st.just("nan")), min_size=1, max_size=40))
    def test_every_decimal_among_nans_as_float(self, cells):
        assert kernel_bits(cells) == float_bits(cells)

    def test_halfway_integers_round_to_even(self):
        # 2**53 + 1 and 2**53 + 3 lie halfway: even below, even above
        cells = ["9007199254740993", "9007199254740995", "9007199254740993.0e+0",
                 "90071992547409930e-1", "nan", "-0.0"]
        assert kernel_bits(cells) == float_bits(cells)
        assert kernel_bits(cells)[:2] == np.array([2.0**53, 2.0**53 + 4]).view(np.int64).tolist()

    def test_nearest_from_either_neighbour(self):
        # the correction decides ties and one-off candidates alike
        rng = np.random.Generator(np.random.Philox(key=3))
        x = np.ldexp(1.0 + rng.random(2000), rng.integers(53, 61, 2000))
        half = (np.nextafter(x, np.inf) - x) / 2
        sig = np.concatenate([x, x + half, x - half / 2]).astype(np.int64)
        want = np.array([float(v) for v in sig.tolist()])
        for candidate in (np.nextafter(want, 0), want, np.nextafter(want, np.inf)):
            got, undecided = decimals._nearest(sig, np.zeros(sig.size, np.int64), candidate)
            assert not undecided.any()
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @pytest.mark.parametrize("cell", [
        "1.", ".5", "1e5", "1E+5", "+1.0", "inf", "-inf", "-nan", "NaN", "nan0", "na", " 1.0",
        "1.0 ", "1.0\r", "1_0", "0x1p3", "١", "1.0.0", "1e+5.0", "1e+", "--1", "-", "",
    ])
    def test_declines_outside_the_language(self, cell):
        assert kernel_bits(["0.5", cell, "0.25"]) is None

    def test_declines_other_shapes(self):
        two = (("a", float), ("b", float))
        for data in (b"0.5,0.25\n0.5\n", b"0.5,0.25,1.0\n", b"0.5\n0.25\n", b"0.5,0.25\n\n"):
            assert decimals.parse(decimals.HEAD + data, two, [0, 1]) is None
        assert decimals.parse(decimals.HEAD + b"0.5,3\n", (("a", float), ("n", int)),
                                   [0, 1]) is None
        assert [c.tolist() for c in decimals.parse(decimals.HEAD + b"0.5,0.25\n", two,
                                                        [1])] == [[0.25]]

    @settings(max_examples=100)
    @given(columns=st.lists(st.floats(width=64), min_size=0, max_size=60).map(
        lambda v: (np.array(v), np.array(v[::-1]))), block=st.sampled_from([1, 40, 1000]))
    def test_reads_as_loadtxt(self, tmp_path_factory, columns, block):
        path = str(tmp_path_factory.mktemp("kernel") / "t.csv")
        fileio._write_table(path, fileio._FRINGE, {}, columns)
        with mock.patch.object(fileio, "_BLOCK", block):
            got = fileio._read_table(path, fileio._FRINGE, lambda meta, *columns: columns)
            with mock.patch.object(decimals, "parse", lambda *args: None):
                want = fileio._read_table(path, fileio._FRINGE, lambda meta, *columns: columns)
        assert [c.view(np.int64).tolist() for c in got] == [
            c.view(np.int64).tolist() for c in want]
        assert all(np.array_equal(g, c, equal_nan=True) for g, c in zip(got, columns))


def mz_trace(seed=5, duration=0.2):
    return simulate_mz_trace(NoiseParams(sigma_ref=0.1418, tau_ref=182.5e-6),
                             duration, 1e-6, phi0=math.pi / 2, seed=seed)


class TestKernelCoverage:
    """Files the writer makes are read without numpy's parser: the read's
    DEBUG record counts 0 blocks by loadtxt."""

    @pytest.mark.parametrize("write,read,make", [
        (write_trace, read_trace, mz_trace),
        (write_trace, read_trace, lambda: extract_phase(mz_trace())),
        (write_fringe_scan, read_fringe_scan, lambda: simulate_fringe_scan(
            NoiseParams(sigma_ref=0.3, tau_ref=100e-6), 50.0, 50, 200,
            detector_noise=0.01, seed=3)),
    ], ids=["intensity", "nan_padded_phase", "fringe"])
    def test_no_block_by_loadtxt(self, tmp_path, caplog, write, read, make):
        obj = make()
        path = str(tmp_path / "t.csv")
        write(path, obj)
        with caplog.at_level(logging.DEBUG, logger="fiberphase"):
            assert read(path) == obj
        message = caplog.records[-1].getMessage()
        assert re.fullmatch(rf"read {re.escape(path)}: \d+ rows in \d+ blocks, 0 by loadtxt, "
                            r"0 blank lines skipped", message), message

    def test_line_breaks_read_by_kernel(self, tmp_path, caplog, tiny_block, spell_breaks):
        # CRLF and bare CR rows read bit for bit as their LF spelling, and
        # none of their blocks goes to numpy's parser
        trace = mz_trace(duration=3e-4)
        lf, spelled = tmp_path / "lf.csv", tmp_path / "spelled.csv"
        write_trace(str(lf), trace)
        spelled.write_bytes(spell_breaks(lf.read_bytes()))
        with caplog.at_level(logging.DEBUG, logger="fiberphase"):
            got = read_trace(str(spelled))
        assert bits(got) == bits(read_trace(str(lf))) == bits(trace)
        message = caplog.records[-1].getMessage()
        assert re.fullmatch(rf"read {re.escape(str(spelled))}: 301 rows in \d+ blocks, "
                            r"0 by loadtxt, 0 blank lines skipped", message), message


class TestStreamingMemory:
    """A table's memory is its column arrays plus one block, not the whole text.

    On a 2e5-row intensity trace (6.3 MB of text, 3.2 MB of column arrays)
    whole-text reading and writing peaked at 24 MB and 32 MB.  Reading the
    kept column as 1 MiB block parts joined at the end peaked at 7.9 MB.
    """

    BOUND = 16e6  # bytes, for each of write_trace and read_trace

    def test_read_and_write_peaks(self, tmp_path, traced_peak, spell_breaks):
        # the LF file as written, and its CRLF and bare CR spellings
        rng = np.random.Generator(np.random.Philox(key=11))
        trace = IntensityTrace(t0=0.0, dt=1e-6, samples=rng.uniform(0.0, 1.0, 200_000),
                               i_max=1.0, i_min=0.0)
        path = tmp_path / "mz.csv"
        assert traced_peak(write_trace, str(path), trace) < self.BOUND
        path.write_bytes(spell_breaks(path.read_bytes()))
        read_peak = traced_peak(read_trace, str(path))
        assert read_peak < self.BOUND
        # the kept column once, plus one block and its parse
        assert read_peak <= 1.25 * trace.samples.nbytes + 1.5 * 2**20

    def test_failing_read_peak(self, tmp_path, traced_peak):
        # A parse error is raised at its line as the parse reaches it;
        # decoding the whole file again to look for a non-UTF-8 byte peaked
        # at 13.6 MiB here.
        rng = np.random.Generator(np.random.Philox(key=11))
        trace = IntensityTrace(t0=0.0, dt=1e-6, samples=rng.uniform(0.0, 1.0, 200_000),
                               i_max=1.0, i_min=0.0)
        path = tmp_path / "mz.csv"
        write_trace(str(path), trace)
        bad_line = path.read_bytes().count(b"\n") + 1
        with open(path, "ab") as fh:
            fh.write(b"0.2,x\n")

        def read():
            with pytest.raises(TraceParseError, match=f"line {bad_line}: .*unparseable"):
                read_trace(str(path))

        assert traced_peak(read) <= 1.25 * trace.samples.nbytes + 1.5 * 2**20


class TestCodecLogging:
    def test_package_logger_is_silent_by_default(self):
        handlers = logging.getLogger("fiberphase").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)

    def test_debug_records_rows_blocks_and_blank_lines(self, tmp_path, caplog, monkeypatch):
        # 10 rows of two NUL-padded cells per written block of 4 * _BLOCK bytes
        monkeypatch.setattr(fileio, "_BLOCK", 2 * (decimals.WIDTH + 1) * 10 // 4)
        path = str(tmp_path / "t.csv")
        samples = np.zeros(25)
        samples[[3, 17]] = 5e-324, 1e300  # outside the kernel's domain
        with caplog.at_level(logging.DEBUG, logger="fiberphase"):
            write_trace(path, PhaseTrace(t0=1.0, dt=1e-6, samples=samples))
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("\n\n")
            read_trace(path)
        assert [r.name for r in caplog.records] == ["fiberphase.fileio"] * 2
        assert caplog.records[0].getMessage() == (
            f"wrote {path}: 25 rows in 3 blocks, 2 cells by repr")
        assert caplog.records[1].getMessage().startswith(f"read {path}: 25 rows in ")
        # the appended blank lines put the last block outside the kernel's language
        assert caplog.records[1].getMessage().endswith(
            " blocks, 1 by loadtxt, 2 blank lines skipped")


class TestReport:
    CONFIG = {"command": "repeater budget", "params": {"total_km": 1000.0}}
    RESULTS = {"budget": {"dphi_limit_rad": 0.10183420137426842}}

    def test_deterministic_bytes(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        write_report(a, self.CONFIG, [], self.RESULTS)
        write_report(b, self.CONFIG, [], self.RESULTS)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_sorted_keys_and_schema(self, tmp_path):
        path = str(tmp_path / "r.json")
        write_report(path, self.CONFIG, [], self.RESULTS)
        text = (tmp_path / "r.json").read_text(encoding="utf-8")
        data = json.loads(text)
        assert data["schema_version"] == "v1"
        assert data["tool"]["name"] == "fiberphase"
        assert text.index('"config"') < text.index('"results"')
        assert "0.101834201374" in text

    def test_twelve_significant_digits(self, tmp_path):
        path = str(tmp_path / "r.json")
        write_report(path, {}, [], {"x": {"v": math.pi}})
        data = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        assert data["results"]["x"]["v"] == float(f"{math.pi:.12g}")

    def test_non_finite_serialized_as_strings(self, tmp_path):
        path = str(tmp_path / "r.json")
        write_report(path, {}, [], {"x": {"v": math.nan}})
        data = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        assert data["results"]["x"]["v"] == "nan"

    def test_numpy_integers_serialized_as_ints(self, tmp_path):
        path = str(tmp_path / "r.json")
        write_report(path, {}, [], {"x": {"n": np.int64(7)}})
        data = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        assert data["results"]["x"]["n"] == 7 and type(data["results"]["x"]["n"]) is int

    def test_unserializable_value_raises(self, tmp_path):
        with pytest.raises(DomainError, match="^cannot serialize set into a report$"):
            write_report(str(tmp_path / "r.json"), {}, [], {"x": {"v": {1, 2}}})
        assert not list(tmp_path.iterdir())

    def test_sha256_of_file_is_that_of_its_bytes(self, tmp_path):
        path = tmp_path / "t.csv"  # several of its 64 KiB chunks
        write_trace(str(path), PhaseTrace(t0=0.0, dt=1e-6, samples=np.linspace(0, 1, 10000)))
        assert path.stat().st_size > 3 * 65536
        assert fileio.sha256_of_file(str(path)) == hashlib.sha256(path.read_bytes()).hexdigest()


class TestPipelineFileEquivalence:
    def test_file_pipeline_matches_in_memory(self, tmp_path):
        # analyze-phase on a written trace file reproduces the in-memory path
        proc = NoiseParams(sigma_ref=0.1418, tau_ref=182.5e-6)
        trace = simulate_mz_trace(proc, 2e-3, 2e-6, phi0=math.pi / 2, seed=9)
        path = str(tmp_path / "mz.csv")
        write_trace(path, trace)
        from_file = extract_phase(read_trace(path))
        in_memory = extract_phase(trace)
        assert from_file == in_memory
