"""Tests for the CSV trace/fringe/curve formats and the JSON report."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fiberphase import (
    FringeScan,
    IntensityTrace,
    DomainError,
    NoiseParams,
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
        first = open(path, encoding="utf-8").readline().rstrip("\n")
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
        lines = open(path, encoding="utf-8").read().splitlines()
        assert lines[0] == "# fiberphase-histogram v1"
        assert lines[1] == "bin_center_rad,count"
        assert len(lines) == 2 + hist.counts.size
        total = sum(int(line.split(",")[1]) for line in lines[2:])
        assert total == 400


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
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_sorted_keys_and_schema(self, tmp_path):
        path = str(tmp_path / "r.json")
        write_report(path, self.make_report())
        text = open(path, encoding="utf-8").read()
        data = json.loads(text)
        assert data["schema_version"] == "v1"
        assert data["tool"]["name"] == "fiberphase"
        assert text.index('"config"') < text.index('"results"')
        assert "0.101834201374" in text

    def test_twelve_significant_digits(self, tmp_path):
        path = str(tmp_path / "r.json")
        report = ReportDocument(config={}, results={"x": {"v": math.pi}})
        write_report(path, report)
        data = json.loads(open(path, encoding="utf-8").read())
        assert data["results"]["x"]["v"] == float(f"{math.pi:.12g}")

    def test_non_finite_serialized_as_strings(self, tmp_path):
        path = str(tmp_path / "r.json")
        report = ReportDocument(config={}, results={"x": {"v": math.nan}})
        write_report(path, report)
        data = json.loads(open(path, encoding="utf-8").read())
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
