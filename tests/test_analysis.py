"""Tests for the fringe-fit / phase-extraction / increment-statistics pipeline."""

import dataclasses
import hashlib
import logging
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fiberphase import (
    DomainError,
    EmptySegmentsError,
    FitError,
    FringeFit,
    FringeScan,
    InsufficientDataError,
    IntensityTrace,
    NoiseParams,
    PhaseStats,
    PhaseTrace,
    ThresholdNotReachedError,
    build_process,
    check_gaussian_relation,
    default_lag_grid,
    estimate_diffusion,
    extract_phase,
    fit_fringe,
    fit_gaussian,
    fit_scaling_exponent,
    gaussian_widths,
    increment_sets,
    increments_at,
    mean_phase_change,
    pool_stats,
    preset_params,
    simulate_fringe_scan,
    simulate_mz_trace,
    tau_threshold,
)
from fiberphase import analysis
from fiberphase.analysis import _lsq_gaussian
from fiberphase.errors import Adopted

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def synthetic_scan(visibility, n_points=50, i0=1.0, noise=0.0, phase_offset=0.0):
    """Noiseless fringe with a prescribed visibility: the fit oracle."""
    phi = np.linspace(0.0, 2.0 * math.pi, n_points)
    area = 0.5 * i0 * (1.0 + visibility * np.cos(phi + phase_offset)) + noise
    return FringeScan(applied_phase=phi, pulse_area=area, detector_noise=noise, i0=i0)


def gaussian_increments(sigma, n, seed):
    """n gaussian increments of width sigma."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return sigma * rng.standard_normal(n)


def gaussian_stats(sigma, n, seed, tau=1e-4):
    """PhaseStats of n gaussian increments at a single lag."""
    inc = gaussian_increments(sigma, n, seed)
    return PhaseStats(
        taus=np.array([tau]),
        n_increments=np.array([n]),
        dt=tau,
        mean_abs_change=[np.mean(np.abs(inc))],
        sigma_per_tau=[np.std(inc, ddof=1)],
    )


class TestFitFringe:
    def test_noiseless_perfect_visibility(self):
        fit = fit_fringe(synthetic_scan(1.0))
        assert abs(fit.visibility - 1.0) < 1e-12
        assert fit.residual_rms < 1e-12

    @pytest.mark.parametrize("visibility", [0.0, 0.25, 0.5, 0.937, 0.992, 1.0])
    def test_exact_on_noiseless_scans(self, visibility):
        fit = fit_fringe(synthetic_scan(visibility, phase_offset=0.7))
        assert fit.visibility == pytest.approx(visibility, abs=1e-12)
        assert fit.residual_rms < 1e-12

    def test_recovers_992_from_simulation(self):
        # quiet loop: sigma chosen so exp(-sigma^2/2) = 0.992
        sigma = math.sqrt(-2.0 * math.log(0.992))
        proc = build_process(NoiseParams(sigma_ref=sigma, tau_ref=91.25e-6))
        scan = simulate_fringe_scan(proc, 36.5, 50, 5000, seed=21)
        fit = fit_fringe(scan)
        assert fit.visibility == pytest.approx(0.992, abs=0.005)

    def test_recovers_day_visibility(self):
        proc = build_process(NoiseParams(sigma_ref=0.36, tau_ref=178.75e-6))
        scan = simulate_fringe_scan(proc, 71.5, 50, 10_000, seed=22)
        fit = fit_fringe(scan)
        assert fit.visibility == pytest.approx(0.9372548956126777, abs=0.01)

    def test_recovers_diffusion_calibrated_visibility(self):
        # analytic oracle exp(-D*L/2) = 0.9718 at D=8e-4 over a 71.5 km loop
        from fiberphase import from_sagnac_calibration

        proc = build_process(from_sagnac_calibration(8e-4, 71.5))
        scan = simulate_fringe_scan(proc, 71.5, 50, 10_000, seed=23)
        fit = fit_fringe(scan)
        assert fit.visibility == pytest.approx(0.9718051087760714, abs=0.01)

    def test_detector_noise_is_subtracted(self):
        clean = fit_fringe(synthetic_scan(0.8))
        noisy = fit_fringe(synthetic_scan(0.8, noise=0.3))
        assert noisy.visibility == pytest.approx(clean.visibility, rel=1e-10)
        assert noisy.offset == pytest.approx(clean.offset, rel=1e-10)

    def test_degenerate_grid(self):
        scan = FringeScan(
            applied_phase=np.zeros(8), pulse_area=np.full(8, 0.5)
        )
        with pytest.raises(FitError):
            fit_fringe(scan)

    def test_visibility_above_one_raises(self):
        # A fringe narrower than a sinusoid fits an amplitude above its offset.
        scan = FringeScan(applied_phase=np.linspace(0.0, 2.0 * math.pi, 8),
                          pulse_area=[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        with pytest.raises(FitError, match=r"^fitted visibility out of range: 1\.99"):
            fit_fringe(scan)

    def test_non_positive_offset_raises(self):
        with pytest.raises(FitError, match=r"^non-positive fringe offset after fit: 0\.0$"):
            FringeFit(offset=0.0, cos_amp=0.0, sin_amp=0.0, visibility=0.0, residual_rms=0.0)

    def test_flat_scan_at_the_floor_raises_without_warning(self):
        # The fit's offset is 0, which must not be divided by: the test
        # settings turn numpy's RuntimeWarning into an error.
        scan = FringeScan(applied_phase=np.linspace(0.0, 2.0 * math.pi, 8),
                          pulse_area=np.full(8, 0.1), detector_noise=0.1)
        with pytest.raises(FitError, match=r"^non-positive fringe offset after fit: 0\.0$"):
            fit_fringe(scan)


class TestExtractPhase:
    def test_midpoint_everywhere(self):
        trace = IntensityTrace(
            t0=0.0, dt=1e-6, samples=np.full(20, 0.5), i_max=1.0, i_min=0.0
        )
        phase = extract_phase(trace)
        assert phase.segments == ((0, 20),)
        np.testing.assert_allclose(phase.samples, math.pi / 2, rtol=1e-12)

    def test_clipped_samples_excluded(self):
        samples = np.array([0.5, 0.5, 1.0, 1.0, 0.5, 0.5, 0.5])
        trace = IntensityTrace(t0=0.0, dt=1e-6, samples=samples, i_max=1.0, i_min=0.0)
        phase = extract_phase(trace)
        assert phase.segments == ((0, 2), (4, 7))
        assert np.isnan(phase.samples[2]) and np.isnan(phase.samples[3])

    def test_singleton_runs_dropped(self):
        samples = np.array([1.0, 0.5, 1.0, 0.4, 0.5, 1.0])
        trace = IntensityTrace(t0=0.0, dt=1e-6, samples=samples, i_max=1.0, i_min=0.0)
        phase = extract_phase(trace)
        assert phase.segments == ((3, 5),)

    def test_singleton_runs_logged(self, caplog):
        samples = np.array([0.5, 1.0, 0.5, 1.0, 0.4, 0.5, 1.0, 0.5])
        trace = IntensityTrace(t0=0.0, dt=1e-6, samples=samples, i_max=1.0, i_min=0.0)
        with caplog.at_level(logging.DEBUG, logger="fiberphase"):
            assert extract_phase(trace).segments == ((4, 6),)
        assert [(r.name, r.levelno) for r in caplog.records] == [
            ("fiberphase.analysis", logging.DEBUG)]
        assert caplog.records[0].getMessage() == (
            "extract_phase: dropped 3 one-sample runs inside the band")
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="fiberphase"):
            extract_phase(IntensityTrace(0.0, 1e-6, np.full(4, 0.5), 1.0, 0.0))
        assert caplog.records == []

    def test_all_out_of_band(self):
        trace = IntensityTrace(
            t0=0.0, dt=1e-6, samples=np.ones(10), i_max=1.0, i_min=0.0
        )
        with pytest.raises(EmptySegmentsError):
            extract_phase(trace)

    def test_invalid_band(self):
        trace = IntensityTrace(
            t0=0.0, dt=1e-6, samples=np.full(4, 0.5), i_max=1.0, i_min=0.0
        )
        with pytest.raises(DomainError):
            extract_phase(trace, band=(0.8, 0.2))
        # the extrema u = 0 and 1 fold the phase, so the band must exclude them
        for band in ((0.0, 0.8), (0.2, 1.0)):
            with pytest.raises(DomainError):
                extract_phase(trace, band=band)

    def test_round_trip_against_ground_truth(self):
        # simulate -> extract; recovered phase equals the true phase up to
        # a segment-wise sign and 2*pi offset, well within 2% RMS.
        proc = build_process(NoiseParams(sigma_ref=0.1418, tau_ref=182.5e-6))
        truth = proc.sample_trace(4e-3, 2e-6, seed=31)
        intensity = IntensityTrace(
            t0=0.0,
            dt=2e-6,
            samples=0.5 * (1.0 + np.cos(math.pi / 2 + truth.samples)),
            i_max=1.0,
            i_min=0.0,
        )
        phase = extract_phase(intensity)
        worst = 0.0
        for a, b in phase.segments:
            got = phase.samples[a:b]
            want = math.pi / 2 + truth.samples[a:b]
            best = min(
                float(np.sqrt(np.mean((got - s * want - (got[0] - s * want[0])) ** 2)))
                for s in (1.0, -1.0)
            )
            worst = max(worst, best)
        scale = float(np.std(truth.samples))
        assert worst <= 0.02 * max(scale, 0.1)

    @pytest.mark.parametrize("hurst,n_segments,samples_digest,segments_digest", [
        (0.5, 32, "bc9fa2981adc5f4e80a64bf9640d2f9731f819d7b38b2beef5ea429ea6567ef0",
         "ccdf17229b1acc1de15dda06a6dd231a622a9f8f3caa4f78c4d3c5c97236a57a"),
        (0.8, 7, "f671471b86a1ba1522ca632815b307902f08f0e45a85c4163a78cf74205d20d8",
         "ce2720ca3d2d52a4357d31a59bd5cab624959170bed75910bf4669a9efad1ae3"),
    ])
    def test_golden_bytes(self, hurst, n_segments, samples_digest, segments_digest):
        # SHA-256 of the extracted samples (NaN padding included) and of the
        # segment bounds as int64 pairs.
        proc = NoiseParams(sigma_ref=0.1418, tau_ref=182.5e-6, hurst=hurst)
        phase = extract_phase(simulate_mz_trace(proc, 20e-3, 1e-6, phi0=math.pi / 2, seed=4))
        assert len(phase.segments) == n_segments
        assert hashlib.sha256(phase.samples.tobytes()).hexdigest() == samples_digest
        segments = np.array(phase.segments, dtype=np.int64)
        assert hashlib.sha256(segments.tobytes()).hexdigest() == segments_digest


def whole_array_edges(u, lo, hi):
    """The run edges of the in-band mask, from the whole mask at once."""
    in_band = (u >= lo) & (u <= hi)
    return np.flatnonzero(np.diff(np.concatenate([[False], in_band, [False]])))


class TestChunkedRunEdges:
    """extract_phase finds the run edges one chunk of the mask at a time;
    the whole-array formula is the oracle."""

    # in band: 0.2, 0.5 and 0.8; out: the others
    LEVELS = [0.0, 0.19999999999999998, 0.2, 0.5, 0.8, 0.8000000000000002, 1.0]

    @settings(max_examples=300)
    @given(levels=st.lists(st.sampled_from(LEVELS), max_size=40),
           chunk=st.sampled_from([1, 2, 3, 7]))
    @example(levels=[], chunk=1)  # an empty trace
    @example(levels=[0.5] * 14, chunk=7)  # all in band
    @example(levels=[1.0] * 14, chunk=7)  # none in band
    @example(levels=[0.0] * 6 + [0.5] + [0.0] * 6 + [0.5], chunk=7)  # one-sample runs at edges
    @example(levels=[0.0] + [0.5] * 12 + [0.0], chunk=3)  # a run across several edges
    def test_matches_whole_array_formula(self, levels, chunk):
        u = np.array(levels, dtype=float)
        with mock.patch.object(analysis, "_EDGE_CHUNK", chunk):
            edges = analysis._run_edges(u, 0.2, 0.8)
        expected = whole_array_edges(u, 0.2, 0.8)
        assert edges.dtype == expected.dtype
        assert np.array_equal(edges, expected)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 4096])
    def test_extract_phase_same_at_any_chunk(self, chunk, caplog):
        proc = NoiseParams(sigma_ref=0.1418, tau_ref=20e-6, hurst=0.5)
        mz = simulate_mz_trace(proc, 20e-3, 1e-6, phi0=math.pi / 2, seed=4)
        with caplog.at_level(logging.DEBUG, logger="fiberphase"):
            expected = extract_phase(mz)
            with mock.patch.object(analysis, "_EDGE_CHUNK", chunk):
                phase = extract_phase(mz)
        assert len(expected.segments) > 50
        assert phase.segments == expected.segments
        assert phase.samples.tobytes() == expected.samples.tobytes()
        first, second = [r.getMessage() for r in caplog.records]
        assert first == second and "one-sample runs" in first


class TestIncrementSets:
    def test_constant_phase(self):
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=np.full(50, 0.7))
        stats = increment_sets(trace, [1e-6, 5e-6])
        for tau in stats.taus:
            assert np.all(increments_at(trace, tau) == 0.0)

    def test_linear_drift(self):
        rate = 250.0
        t = 1e-6 * np.arange(100)
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=rate * t)
        stats = increment_sets(trace, [2e-6, 10e-6])
        for tau in stats.taus:
            np.testing.assert_allclose(increments_at(trace, tau), rate * tau, rtol=1e-9)

    def test_monte_carlo_std_matches_generator(self):
        proc = build_process(NoiseParams(sigma_ref=0.2, tau_ref=1e-4, hurst=0.5))
        trace = proc.sample_trace(2**14 * 2e-6, 2e-6, seed=17)
        stats = increment_sets(trace, [2e-6, 8e-6])
        for tau in stats.taus:
            inc = increments_at(trace, tau)
            assert inc.size >= 10**4
            rms = math.sqrt(np.mean(inc**2))
            assert rms == pytest.approx(proc.sigma_at(tau), rel=0.03)

    def test_lag_not_on_grid(self):
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=np.zeros(10))
        with pytest.raises(DomainError):
            increment_sets(trace, [1.5e-6])
        with pytest.raises(DomainError):
            increments_at(trace, 1.5e-6)

    @pytest.mark.parametrize("call", [lambda trace: increment_sets(trace, [1.5e-6]),
                                      lambda trace: increments_at(trace, 1.5e-6)],
                             ids=["increment_sets", "increments_at"])
    def test_lag_not_on_grid_names_tau_and_dt(self, call):
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=np.zeros(10))
        with pytest.raises(DomainError, match=r"^lag 1\.5e-06 s is not a positive multiple "
                                              r"of dt = 1e-06 s$") as excinfo:
            call(trace)
        assert excinfo.value.fields == ("tau", "dt")

    def test_lags_must_increase(self):
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=np.zeros(10))
        with pytest.raises(DomainError):
            increment_sets(trace, [2e-6, 1e-6])

    @pytest.mark.parametrize("k_max,max_lags", [
        (101, 100), (150, 100), (600, 100), (1000, 100), (10**5, 100), (10**6, 100),
        (200, 40), (5000, 2), (5000, 3), (2**20 + 7, 1000), (10**7, 7),
    ])
    def test_thinned_lag_grid_is_the_unique_rounded_geomspace(self, k_max, max_lags):
        expected = np.unique(np.round(np.geomspace(1, k_max, max_lags)).astype(int))
        np.testing.assert_array_equal(default_lag_grid(1.0, float(k_max), max_lags), expected)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_lags_must_be_finite(self, bad):
        with pytest.raises(DomainError, match=r"taus\[1\] is not finite"):
            PhaseStats(
                taus=np.array([1e-6, bad, 3e-6]), n_increments=np.array([9, 8, 7]), dt=1e-6,
                mean_abs_change=np.full(3, 0.1), sigma_per_tau=np.full(3, np.nan),
            )

    @pytest.mark.parametrize("column,bad,message", [
        ("mean_abs_change", math.nan, r"mean_abs_change\[1\] is not finite"),
        ("mean_abs_change", math.inf, r"mean_abs_change\[1\] is not finite"),
        ("mean_abs_change", -0.1, "mean_abs_change >= 0"),
        ("n_increments", 0, "n_increments >= 1"),
        ("sigma_per_tau", -0.1, "sigma_per_tau must be finite and >= 0"),
        ("sigma_per_tau", math.inf, "sigma_per_tau must be finite and >= 0"),
        ("sigma_per_tau", math.nan, "sigma_per_tau must be finite and >= 0"),
    ])
    def test_curve_values_checked(self, column, bad, message):
        curve = {"n_increments": np.array([9, 8, 7]), "mean_abs_change": np.full(3, 0.1),
                 "sigma_per_tau": np.full(3, 0.12)}
        curve[column] = curve[column].astype(type(bad))
        curve[column][1] = bad
        with pytest.raises(DomainError, match=message):
            PhaseStats(taus=np.array([1e-6, 2e-6, 3e-6]), dt=1e-6, **curve)

    def test_segment_boundaries_not_bridged(self):
        samples = np.arange(20.0) * 0.01
        trace = PhaseTrace(
            t0=0.0, dt=1e-6, samples=samples, segments=((0, 8), (12, 20))
        )
        stats = increment_sets(trace, [3e-6])
        # (8-3) + (8-3) pairs; nothing across the gap
        assert stats.n_increments[0] == 10

    @pytest.mark.parametrize("bad,message", [
        (math.nan, "dt must be > 0"),
        (math.inf, "dt must be finite"),
        (0.0, "dt must be > 0"),
        (-1e-6, "dt must be > 0"),
    ])
    def test_dt_must_be_finite_and_positive(self, bad, message):
        with pytest.raises(DomainError, match=message):
            PhaseStats(
                taus=np.array([1e-6, 2e-6]), n_increments=np.array([9, 8]), dt=bad,
                mean_abs_change=np.full(2, 0.1), sigma_per_tau=np.full(2, 0.2),
            )

    def test_lag_longer_than_all_segments_dropped(self):
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=np.zeros(6))
        stats = increment_sets(trace, [2e-6, 5e-6, 6e-6])
        assert stats.taus.size == 2  # 6e-6 has no pair on a 6-sample trace

    def test_dropped_lags_logged(self, caplog):
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=np.zeros(6))
        with caplog.at_level(logging.DEBUG, logger="fiberphase"):
            increment_sets(trace, [2e-6, 6e-6, 7e-6])
        assert [(r.name, r.levelno) for r in caplog.records] == [
            ("fiberphase.analysis", logging.DEBUG)]
        assert caplog.records[0].getMessage() == (
            "increment_sets: dropped 2 lags with no valid pair, from 6e-06 s")
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="fiberphase"):
            increment_sets(trace, [2e-6, 5e-6])
        assert caplog.records == []

    def test_all_lags_dropped_logs_then_raises(self, caplog):
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=np.zeros(6))
        with caplog.at_level(logging.DEBUG, logger="fiberphase"):
            with pytest.raises(InsufficientDataError, match="no lag has a valid increment"):
                increment_sets(trace, [6e-6, 7e-6])
        assert [r.getMessage() for r in caplog.records] == [
            "increment_sets: dropped 2 lags with no valid pair, from 6e-06 s"]

    def test_pool_stats_merges_counts(self):
        traces = [
            PhaseTrace(t0=0.0, dt=1e-6, samples=np.arange(10.0) * k)
            for k in (1, 2, 3)
        ]
        pooled = pool_stats([increment_sets(t, [2e-6]) for t in traces])
        assert pooled.n_increments[0] == 3 * 8

    def test_pool_stats_dt_mismatch(self):
        a = increment_sets(PhaseTrace(0.0, 1e-6, np.zeros(10)), [2e-6])
        b = increment_sets(PhaseTrace(0.0, 2e-6, np.zeros(10)), [2e-6])
        with pytest.raises(DomainError):
            pool_stats([a, b])


def reference_increments(phase, tau):
    """Per-segment concatenation of the increments at one lag: the oracle."""
    k = int(round(tau / phase.dt))
    parts = [phase.samples[a + k:b] - phase.samples[a:b - k]
             for a, b in phase.segments if b - a > k]
    return np.concatenate(parts) if parts else np.empty(0)


def extracted_night_trace(seed, duration=20e-3):
    proc = build_process(NoiseParams(sigma_ref=0.1418, tau_ref=182.5e-6))
    return extract_phase(simulate_mz_trace(proc, duration, 1e-6, phi0=math.pi / 2, seed=seed))


def handed_over_curve(phase, taus):
    """increment_sets of a copy of `phase` handed over, so packed in the copy's buffer."""
    copy = PhaseTrace(t0=phase.t0, dt=phase.dt, samples=phase.samples, segments=phase.segments)
    return increment_sets(Adopted(copy), taus)


CURVE_PATHS = {"plain": increment_sets, "handed_over": handed_over_curve}


class TestStreamingReduction:
    """The per-lag summaries against the stored-increment reduction, on a
    trace read in place and on a copy handed over."""

    @pytest.fixture(params=CURVE_PATHS.values(), ids=CURVE_PATHS.keys())
    def curve(self, request):
        return request.param

    def assert_curve_is_reference(self, curve, phase, taus):
        stats = curve(phase, taus)
        refs = [reference_increments(phase, tau) for tau in taus]
        kept = [(tau, ref) for tau, ref in zip(taus, refs) if ref.size]
        assert np.array_equal(stats.taus, [round(tau / phase.dt) * phase.dt for tau, _ in kept])
        assert np.array_equal(stats.n_increments, [ref.size for _, ref in kept])
        assert np.array_equal(mean_phase_change(stats), [np.mean(np.abs(r)) for _, r in kept])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # np.std of one increment
            want_sigma = [np.std(ref, ddof=1) for _, ref in kept]
        assert np.array_equal(gaussian_widths(stats), want_sigma, equal_nan=True)
        assert np.array_equal(stats.signed_mean, [np.mean(r) for _, r in kept])
        assert np.array_equal(stats.m2, [np.sum((r - np.mean(r)) ** 2) for _, r in kept])
        for tau, ref in kept:
            assert np.array_equal(increments_at(phase, tau), ref)

    def test_multi_segment_extracted_trace_bit_identical(self, curve):
        phase = extracted_night_trace(seed=4)
        assert len(phase.segments) > 5
        self.assert_curve_is_reference(curve, phase, default_lag_grid(1e-6, 600e-6))

    @pytest.mark.parametrize("name,digest", [
        ("taus", "793740083d389f00def189dd252f1cb4e73bad55a9ccabb7e26a6668d9ed1b50"),
        ("n_increments", "6594fefcd7bddb2e6b1395b7e6fa8b783cd1ea419a9467fe90cb4acc1869092b"),
        ("mean_abs_change", "3dad0d9b4822f7306c5b715c66216dfbac25f11e409698a6cf94a51d9f0d70db"),
        ("sigma_per_tau", "4a74400235a5fc79ae6e857aec61b5fb55cc37740ff9aca724d9231b16050952"),
        ("signed_mean", "578aaaba640131b7089a5426aca8a50aa2db9399b1ef85a7ad7ab017d8ec8863"),
        ("m2", "338e50f791c340f7ec8d270f7c4a0673162d902eb88c48f44a88a96dde3b7412"),
    ])
    def test_golden_bytes(self, curve, name, digest):
        # SHA-256 of each curve array on an extracted H = 0.8 trace.
        proc = NoiseParams(sigma_ref=0.1418, tau_ref=182.5e-6, hurst=0.8)
        phase = extract_phase(simulate_mz_trace(proc, 20e-3, 1e-6, phi0=math.pi / 2, seed=4))
        assert len(phase.segments) == 7
        stats = curve(phase, default_lag_grid(1e-6, 600e-6))
        assert hashlib.sha256(getattr(stats, name).tobytes()).hexdigest() == digest

    def test_drifting_trace_bit_identical(self, curve):
        # 2000 rad/s drift: the increment mean dwarfs the spread, where a raw
        # sum of squares would cancel; adjacent segments must not be bridged.
        proc = build_process(
            NoiseParams(sigma_ref=0.1418, tau_ref=182.5e-6, drift_rate=2000.0)
        )
        truth = proc.sample_trace(20e-3, 1e-6, seed=8)
        phase = PhaseTrace(
            t0=0.0, dt=1e-6, samples=truth.samples,
            segments=((0, 3000), (3100, 9000), (9000, 9600), (9600, 20001)),
        )
        self.assert_curve_is_reference(curve, phase, default_lag_grid(1e-6, 700e-6))

    # Segment layouts on 20 samples: lengths 2, k = 4 and k + 1 = 5,
    # adjacent segments, a segment ending at the last sample, and lags up to
    # 12, longer than every segment of most layouts.
    @pytest.mark.parametrize("segments", [
        ((3, 5), (9, 11), (14, 16)),
        ((0, 4), (6, 11), (13, 17)),
        ((2, 8), (8, 14), (14, 20)),
        ((0, 2), (2, 6), (6, 11)),
        ((4, 9), (12, 20)),
        ((0, 1), (19, 20)),
        ((0, 20),),
    ], ids=["length_2", "length_k_and_k_plus_1", "adjacent", "adjacent_2_k_k_plus_1",
            "ends_at_last_sample", "single_samples", "whole_trace"])
    def test_segment_layouts_bit_identical(self, curve, segments):
        walk = np.cumsum(gaussian_increments(0.1, 20, seed=9))
        inside = np.zeros(20, dtype=bool)
        for a, b in segments:
            inside[a:b] = True
        phase = PhaseTrace(0.0, 1e-6, np.where(inside, walk, np.nan), segments=segments)
        taus = 1e-6 * np.arange(1, 13)
        if not any(b - a > 1 for a, b in segments):
            with pytest.raises(InsufficientDataError):
                curve(phase, taus)
        else:
            self.assert_curve_is_reference(curve, phase, taus)
        for tau in taus:  # every lag, kept or dropped
            assert np.array_equal(increments_at(phase, tau), reference_increments(phase, tau))

    def test_short_segments_between_two_long(self, curve):
        # 200 segments of 3-8 samples: lags shorter and longer than they
        # are, so the shared buffer is refilled from fewer segments as the
        # lag grows.  Segments are separated by one NaN sample.
        lengths = [5000] + [3, 8, 4, 7, 5, 6] * 33 + [3, 8] + [5000]
        starts = np.cumsum([0] + [n + 1 for n in lengths[:-1]])
        segments = tuple((int(a), int(a + n)) for a, n in zip(starts, lengths))
        walk = np.cumsum(gaussian_increments(0.1, segments[-1][1], seed=11))
        walk[starts[1:] - 1] = np.nan
        phase = PhaseTrace(0.0, 1e-6, walk, segments=segments)
        self.assert_curve_is_reference(curve, phase, default_lag_grid(1e-6, 600e-6))

    def test_multi_segment_lag_longer_than_every_segment(self):
        phase = PhaseTrace(0.0, 1e-6, np.arange(12.0), segments=((0, 4), (4, 9), (9, 12)))
        stats = increment_sets(phase, [3e-6, 4e-6, 5e-6, 8e-6])
        assert np.array_equal(stats.taus, [3e-6, 4e-6])
        assert stats.n_increments.tolist() == [1 + 2, 1]
        assert increments_at(phase, 4e-6).tolist() == [4.0]
        assert increments_at(phase, 5e-6).size == 0 and increments_at(phase, 8e-6).size == 0

    def test_no_segments(self):
        phase = PhaseTrace(0.0, 1e-6, np.full(5, np.nan), segments=())
        assert increments_at(phase, 1e-6).size == 0
        with pytest.raises(InsufficientDataError):
            increment_sets(phase, [1e-6])

    def test_pool_matches_concatenated_reference(self):
        # traces of different lengths: the longest lags exist in some only
        phases = [extracted_night_trace(seed=s, duration=d)
                  for s, d in zip(range(6), (2e-3, 3e-3, 20e-3, 5e-3, 1e-3, 8e-3))]
        taus = default_lag_grid(1e-6, 600e-6)
        pooled = pool_stats([increment_sets(p, taus) for p in phases])
        refs = [np.concatenate([reference_increments(p, tau) for p in phases]) for tau in taus]
        kept = [(tau, ref) for tau, ref in zip(taus, refs) if ref.size]
        assert np.array_equal(pooled.taus, [round(tau / 1e-6) * 1e-6 for tau, _ in kept])
        assert np.array_equal(pooled.n_increments, [ref.size for _, ref in kept])
        # float64 reductions in a different order: agreement to rounding
        np.testing.assert_allclose(
            pooled.mean_abs_change, [np.mean(np.abs(r)) for _, r in kept], rtol=1e-12
        )
        np.testing.assert_allclose(
            pooled.sigma_per_tau, [np.std(r, ddof=1) for _, r in kept], rtol=1e-12
        )

    def test_pool_of_one_is_identity(self):
        stats = increment_sets(extracted_night_trace(seed=2), default_lag_grid(1e-6, 100e-6))
        pooled = pool_stats([stats])
        for name in ("taus", "n_increments", "mean_abs_change", "sigma_per_tau"):
            assert np.array_equal(getattr(pooled, name), getattr(stats, name))

    def test_single_pair_lag_has_nan_sigma_without_warning(self):
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=np.array([0.0, 0.1, 0.3, 0.2, 0.5, 0.4]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = increment_sets(trace, [1e-6, 5e-6])
            pooled = pool_stats([stats])
        assert stats.n_increments.tolist() == [5, 1]
        assert math.isnan(stats.sigma_per_tau[1]) and math.isnan(pooled.sigma_per_tau[1])
        assert stats.mean_abs_change[1] == pytest.approx(0.4)

    def test_stats_are_immutable(self):
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=np.arange(20.0))
        stats = increment_sets(trace, [1e-6, 2e-6, 3e-6])
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.mean_abs_change = None
        with pytest.raises(ValueError):
            stats.sigma_per_tau[0] = 1.0
        curve = mean_phase_change(stats).copy()
        tau_threshold(stats, 2.5)
        fit_scaling_exponent(stats, (1e-6, 3e-6))
        check_gaussian_relation(stats, 2e-6)
        assert np.array_equal(stats.mean_abs_change, curve)
        assert not hasattr(stats, "increments")

    def test_peak_memory_does_not_grow_with_lags(self, traced_peak):
        # Keeping every increment would take 8 bytes per sample per lag
        # (~580 B/sample here); one lag at a time needs a few O(n) arrays.
        phase = extracted_night_trace(seed=1, duration=0.2)
        taus = default_lag_grid(1e-6, 600e-6)
        assert taus.size > 50
        assert traced_peak(increment_sets, phase, taus) <= 40 * phase.n_samples

    def test_peak_memory_of_one_long_segment(self, traced_peak):
        # Every lag is gathered into one buffer (8 B per sample), and the
        # reduction needs one temporary of the same size.
        proc = build_process(NoiseParams(sigma_ref=0.1, tau_ref=1e-4))
        phase = proc.sample_trace(2**20 * 1e-6, 1e-6, seed=5)
        assert phase.segments == ((0, phase.n_samples),)
        taus = default_lag_grid(1e-6, 600e-6)
        assert traced_peak(increment_sets, phase, taus) <= 20 * phase.n_samples + 64 * 1024

    def test_peak_memory_of_many_short_segments(self, traced_peak):
        # 44 480 segments of 2-5 samples: each lag keeps the previous lag's
        # segment tuples that are still longer than it.  An index array and
        # its list of ints per lag peaked at 21.7 B per in-segment sample.
        rng = np.random.Generator(np.random.Philox(key=12))
        lengths = rng.integers(2, 6, 44_480)
        starts = np.cumsum(lengths + 1) - lengths - 1
        samples = np.full(int(starts[-1] + lengths[-1] + 1), np.nan)
        for a, n in zip(starts.tolist(), lengths.tolist()):
            samples[a:a + n] = rng.standard_normal(n)
        phase = PhaseTrace(t0=0.0, dt=1e-6, samples=samples,
                           segments=tuple(zip(starts.tolist(), (starts + lengths).tolist())))
        taus = default_lag_grid(1e-6, 600e-6)
        increment_sets(phase, taus)  # its first call may import or cache
        peak = traced_peak(increment_sets, phase, taus)
        assert peak <= 16 * int(lengths.sum()) + 64 * 1024


class TestMeanPhaseChange:
    def test_zero_increments(self):
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=np.zeros(50))
        stats = increment_sets(trace, [1e-6])
        assert mean_phase_change(stats)[0] == 0.0

    def test_gaussian_closed_form(self):
        # <|x|> = sqrt(2/pi) * sigma; sigma=0.1418 gives 0.113140
        stats = gaussian_stats(0.1418, 40_000, seed=41)
        dphi = mean_phase_change(stats)[0]
        assert dphi == pytest.approx(SQRT_2_OVER_PI * 0.1418, rel=0.02)

    def test_day_mz_curve_crosses_at_calibration(self):
        # calibrated so dphi reaches 0.1 rad at 122 us
        params = NoiseParams(
            sigma_ref=math.sqrt(math.pi / 2) * 0.1, tau_ref=122e-6
        )
        proc = build_process(params)
        dt = 2e-6
        taus = default_lag_grid(dt, 250e-6)
        pooled = pool_stats([
            increment_sets(proc.sample_trace(2e-3, dt, seed=s), taus)
            for s in range(60)
        ])
        mean_phase_change(pooled)
        crossing = tau_threshold(pooled, 0.1)
        assert crossing == pytest.approx(122e-6, rel=0.08)


class TestFitGaussian:
    def test_known_distribution(self):
        hist = fit_gaussian(gaussian_increments(0.2, 10_000, seed=51))
        assert hist.sigma == pytest.approx(0.2, rel=0.02)
        assert not hist.degenerate
        assert hist.counts.sum() == 10_000
        assert hist.counts.size == math.ceil(math.sqrt(10_000))

    def test_fit_sigma_agrees_on_gaussian_data(self):
        hist = fit_gaussian(gaussian_increments(0.2, 10_000, seed=52))
        assert hist.fit_sigma == pytest.approx(hist.sigma, rel=0.1)

    def test_closed_form_fit_recovers_exact_gaussian_counts(self):
        x = np.linspace(-1.0, 1.3, 40)
        counts = 37.5 * np.exp(-((x - 0.12) ** 2) / (2 * 0.3**2))
        assert _lsq_gaussian(x, counts) == pytest.approx(0.3, rel=1e-9)

    @pytest.mark.parametrize("counts", [
        np.where(np.isin(np.arange(40), [11, 25]), 50, 0),  # two non-empty bins
        1.0 + np.linspace(-1.0, 1.3, 40) ** 2,  # convex: no peak to fit
    ], ids=["two_bins", "convex"])
    def test_closed_form_fit_without_a_peak_is_nan(self, counts):
        assert math.isnan(_lsq_gaussian(np.linspace(-1.0, 1.3, 40), counts))

    def test_degenerate_flagged(self):
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=np.zeros(200))
        hist = fit_gaussian(increments_at(trace, 1e-6))
        assert hist.sigma == 0.0
        assert hist.degenerate

    def test_insufficient_increments(self):
        with pytest.raises(InsufficientDataError):
            fit_gaussian(gaussian_increments(0.2, 50, seed=53))

    def test_night_pipeline_sigma(self):
        # 36.5 km night calibration recovered through the full MZ pipeline
        proc = build_process(NoiseParams(sigma_ref=0.1418, tau_ref=182.5e-6))
        pooled = np.concatenate([
            increments_at(
                extract_phase(simulate_mz_trace(proc, 2e-3, 2e-6, phi0=math.pi / 2, seed=s)),
                182e-6,
            )
            for s in range(150)
        ])
        hist = fit_gaussian(pooled)
        assert hist.sigma == pytest.approx(0.142, rel=0.05)


class TestGaussianRelation:
    def test_gaussian_increments_pass(self):
        stats = gaussian_stats(0.2, 10**5, seed=61)
        mean_phase_change(stats)
        assert check_gaussian_relation(stats, 1e-4) < 0.01

    def test_closed_form_factor(self):
        assert SQRT_2_OVER_PI * 0.36 == pytest.approx(0.2872384418890315, rel=1e-12)

    def test_two_point_distribution_detected(self):
        # increments of +-c: <|x|> = c but sigma = c, so the relation is off
        # by |1 - sqrt(pi/2)| = 0.2533
        inc = np.tile([0.3, -0.3], 5000)
        stats = PhaseStats(
            taus=np.array([1e-4]),
            n_increments=np.array([inc.size]),
            dt=1e-4,
            mean_abs_change=[np.mean(np.abs(inc))],
            sigma_per_tau=[np.std(inc, ddof=1)],
        )
        mean_phase_change(stats)
        assert check_gaussian_relation(stats, 1e-4) == pytest.approx(
            0.2533141373155001, rel=0.01
        )

    def test_zero_sigma_undefined(self):
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=np.zeros(200))
        stats = increment_sets(trace, [1e-6])
        mean_phase_change(stats)
        assert math.isnan(check_gaussian_relation(stats, 1e-6))


class TestTauThreshold:
    def make_stats(self, taus, values):
        # one increment per lag: the curve is the values, with no sigma
        return PhaseStats(
            taus=np.asarray(taus, dtype=float),
            n_increments=np.ones(len(values), dtype=int),
            dt=float(taus[0]),
            mean_abs_change=values,
            sigma_per_tau=np.full(len(values), np.nan),
        )

    def test_linear_interpolation(self):
        stats = self.make_stats([100e-6, 200e-6], [0.05, 0.15])
        assert tau_threshold(stats, 0.1) == pytest.approx(150e-6, rel=1e-12)

    def test_never_reached(self):
        stats = self.make_stats([1e-4, 2e-4], [0.02, 0.04])
        with pytest.raises(ThresholdNotReachedError) as excinfo:
            tau_threshold(stats, 0.1)
        assert excinfo.value.max_dphi == pytest.approx(0.04)

    def test_clamped_at_first_lag(self):
        stats = self.make_stats([1e-4, 2e-4], [0.2, 0.4])
        assert tau_threshold(stats, 0.1) == 1e-4

    def test_monotone_in_target(self):
        stats = self.make_stats([1e-4, 2e-4, 3e-4, 4e-4], [0.02, 0.06, 0.09, 0.2])
        targets = np.linspace(0.03, 0.18, 12)
        crossings = [tau_threshold(stats, t) for t in targets]
        assert np.all(np.diff(crossings) >= 0)

    def test_random_walk_inversion(self):
        # sigma_at(tau0) = sqrt(pi/2)*0.1 puts the dphi=0.1 crossing at tau0
        tau0 = 100e-6 * (math.sqrt(math.pi / 2) * 0.1 / 0.2) ** 2
        proc = build_process(NoiseParams(sigma_ref=0.2, tau_ref=100e-6, hurst=0.5))
        dt = 2e-6
        taus = default_lag_grid(dt, 100e-6)
        pooled = pool_stats([
            increment_sets(proc.sample_trace(2e-3, dt, seed=s), taus)
            for s in range(60)
        ])
        mean_phase_change(pooled)
        assert tau_threshold(pooled, 0.1) == pytest.approx(tau0, rel=0.05)


class TestScalingExponent:
    def test_pure_drift_is_one(self):
        t = 1e-6 * np.arange(5000)
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=400.0 * t)
        stats = increment_sets(trace, default_lag_grid(1e-6, 50e-6))
        mean_phase_change(stats)
        x = fit_scaling_exponent(stats, (1e-6, 50e-6))
        assert x == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("hurst", [0.5, 0.8])
    def test_recovers_generator_exponent(self, hurst):
        proc = build_process(NoiseParams(sigma_ref=0.2, tau_ref=1e-4, hurst=hurst))
        dt = 2e-6
        trace = proc.sample_trace(2**15 * dt, dt, seed=71)
        stats = increment_sets(trace, default_lag_grid(dt, 64 * dt))
        mean_phase_change(stats)
        x = fit_scaling_exponent(stats, (dt, 64 * dt))
        assert x == pytest.approx(hurst, abs=0.05)

    def test_too_few_lags(self):
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=np.arange(100.0))
        stats = increment_sets(trace, [1e-6, 2e-6])
        mean_phase_change(stats)
        with pytest.raises(DomainError):
            fit_scaling_exponent(stats, (1e-6, 2e-6))

    def test_zero_curve_rejected(self):
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=np.zeros(100))
        stats = increment_sets(trace, [1e-6, 2e-6, 3e-6])
        mean_phase_change(stats)
        with pytest.raises(DomainError):
            fit_scaling_exponent(stats, (1e-6, 3e-6))


class TestEstimateDiffusion:
    def test_from_visibility(self):
        assert estimate_diffusion(71.5, visibility=0.98) == pytest.approx(
            5.651106941963487e-4, rel=1e-12
        )

    def test_from_sigma(self):
        assert estimate_diffusion(71.5, sigma=0.36) == pytest.approx(
            1.8125874125874124e-3, rel=1e-12
        )

    def test_perfect_visibility(self):
        assert estimate_diffusion(10.0, visibility=1.0) == 0.0

    def test_requires_exactly_one_input(self):
        with pytest.raises(DomainError):
            estimate_diffusion(10.0)
        with pytest.raises(DomainError):
            estimate_diffusion(10.0, visibility=0.9, sigma=0.1)

    def test_range_checks(self):
        with pytest.raises(DomainError):
            estimate_diffusion(10.0, visibility=1.2)
        with pytest.raises(DomainError):
            estimate_diffusion(0.0, sigma=0.1)
        with pytest.raises(DomainError):
            estimate_diffusion(10.0, sigma=-0.1)


class TestPipelineOracle:
    def test_extraction_matches_ground_truth_curve(self):
        # dphi(tau) from extracted phase == dphi(tau) from the true phase
        # restricted to the same segments, within 2% RMS across the grid.
        proc = build_process(NoiseParams(sigma_ref=0.1418, tau_ref=182.5e-6))
        dt = 2e-6
        taus = default_lag_grid(dt, 200e-6, max_lags=40)
        rel = []
        for seed in range(20):
            truth = proc.sample_trace(4e-3, dt, seed=seed)
            intensity = simulate_mz_trace(proc, 4e-3, dt, phi0=math.pi / 2, seed=seed)
            phase = extract_phase(intensity)
            truth_on_segments = PhaseTrace(
                t0=truth.t0, dt=dt, samples=truth.samples, segments=phase.segments
            )
            got = mean_phase_change(increment_sets(phase, taus))
            want = mean_phase_change(increment_sets(truth_on_segments, taus))
            rel.append((got - want) / want)
        rms = float(np.sqrt(np.mean(np.concatenate(rel) ** 2)))
        assert rms <= 0.02

    # Extracted/true dphi per lag (us), pooled over 16 realizations of 0.5 s:
    # keeping only in-band samples biases the extracted curve low, more so at
    # longer lags and in daytime.  One realization alone spreads wider than
    # the bias (day, 600 us: 0.81-0.95 over six seeds), hence the pooling.
    # The bounds were fixed before the pooled run, on seeds other than those.
    BIAS_BOUNDS = {
        "day": {100: (0.93, 0.98), 350: (0.89, 0.95), 600: (0.85, 0.93)},
        "night": {100: (0.97, 1.005), 350: (0.95, 1.00), 600: (0.93, 0.99)},
    }
    BIAS_SEEDS = range(100, 116)

    @pytest.mark.parametrize("preset", ["day", "night"])
    def test_extraction_bias_against_true_phase(self, preset):
        proc = preset_params(preset)
        bounds = self.BIAS_BOUNDS[preset]
        taus = [tau * 1e-6 for tau in bounds]
        got, want = [], []
        for seed in self.BIAS_SEEDS:
            # simulate_mz_trace draws exactly this phase for the same seed
            truth = proc.sample_trace(0.5, 1e-6, seed)
            intensity = simulate_mz_trace(proc, 0.5, 1e-6, phi0=math.pi / 2, seed=seed)
            got.append(increment_sets(extract_phase(intensity), taus))
            want.append(increment_sets(truth, taus))
        pooled = mean_phase_change(pool_stats(got)) / mean_phase_change(pool_stats(want))
        ratios = dict(zip(bounds, pooled))
        for tau, (lo, hi) in bounds.items():
            assert lo <= ratios[tau] <= hi, (preset, tau, ratios)
        if preset == "day":
            assert ratios[100] > ratios[350] > ratios[600]

    def test_sigma_estimator_converges(self):
        # error scales like 1/sqrt(n): bounded by 4/sqrt(2n) at both sizes
        for n in (10**3, 10**4):
            hist = fit_gaussian(gaussian_increments(0.2, n, seed=81))
            assert abs(hist.sigma - 0.2) / 0.2 < 4.0 / math.sqrt(2 * n)
