"""Tests for the Sagnac/Mach-Zehnder forward models."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fiberphase import (
    DomainError,
    FringeScan,
    IntensityTrace,
    NoiseParams,
    from_sagnac_calibration,
    sagnac_effective_sigma,
    sigma_from_visibility,
    simulate_fringe_scan,
    simulate_mz_trace,
    travel_time,
    visibility_from_sigma,
)


class TestVisibilitySigma:
    def test_zero_noise(self):
        assert visibility_from_sigma(0.0) == 1.0

    def test_day_value(self):
        # exp(-0.36^2/2) = 0.9372548956126777
        assert visibility_from_sigma(0.36) == pytest.approx(0.9372548956126777, rel=1e-12)

    def test_night_value(self):
        assert visibility_from_sigma(0.2) == pytest.approx(0.9801986733067553, rel=1e-12)

    def test_inverse_day(self):
        assert sigma_from_visibility(0.936) == pytest.approx(0.3637026326672518, rel=1e-12)

    def test_inverse_unity(self):
        assert sigma_from_visibility(1.0) == 0.0

    def test_inverse_of_0995(self):
        # V=99.5% corresponds to sigma=0.1 rad (not dphi=0.1, which would be
        # sigma*sqrt(2/pi)=0.0798); sigma and dphi are kept distinct.
        assert sigma_from_visibility(0.995) == pytest.approx(0.10012533968525936, rel=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 0.0, 1.0001, 2.0])
    def test_inverse_domain(self, bad):
        with pytest.raises(DomainError):
            sigma_from_visibility(bad)

    def test_negative_sigma_rejected(self):
        with pytest.raises(DomainError):
            visibility_from_sigma(-0.2)

    @given(st.floats(min_value=0.01, max_value=3.0))
    def test_round_trip(self, sigma):
        assert sigma_from_visibility(visibility_from_sigma(sigma)) == pytest.approx(
            sigma, rel=1e-12
        )

    @given(st.floats(min_value=0.0, max_value=0.01))
    def test_round_trip_tiny_sigma(self, sigma):
        # Below sigma ~ 0.01 the visibility sits within a few ulp of 1 and
        # float64 cannot carry 1e-12 relative accuracy through it; the
        # absolute error stays below ~2e-8.
        assert sigma_from_visibility(visibility_from_sigma(sigma)) == pytest.approx(
            sigma, abs=5e-8
        )

    def test_strictly_decreasing(self):
        sigmas = np.linspace(0.0, 4.0, 200)
        values = [visibility_from_sigma(s) for s in sigmas]
        assert np.all(np.diff(values) < 0)


class TestSagnacEffectiveSigma:
    def test_calibration_round_trip(self):
        # A loop built on its own calibration reads back sqrt(D*L) exactly.
        for diffusion, loop in [(8e-4, 71.5), (5.65e-4, 25.0), (1.8e-3, 250.0)]:
            proc = from_sagnac_calibration(diffusion, loop)
            assert sagnac_effective_sigma(proc, loop) == math.sqrt(diffusion * loop)

    def test_250_km_projection(self):
        proc = from_sagnac_calibration(8e-4, 250.0)
        assert sagnac_effective_sigma(proc, 250.0) == pytest.approx(
            0.4472135954999579, rel=1e-12
        )

    def test_mz_night_cross_check(self):
        # sigma measured at the 36.5 km arm delay predicts the 73 km loop.
        proc = NoiseParams(sigma_ref=0.1418, tau_ref=182.5e-6, hurst=0.5)
        assert sagnac_effective_sigma(proc, 73.0) == pytest.approx(0.1418, rel=1e-12)

    @pytest.mark.parametrize("hurst", [0.5, 0.8])
    def test_double_length_consistency(self, hurst):
        # Loop of 2L sees exactly sigma at the one-way travel time of L.
        proc = NoiseParams(sigma_ref=0.3, tau_ref=1e-4, hurst=hurst)
        for arm in (10.0, 36.5, 120.0):
            assert sagnac_effective_sigma(proc, 2 * arm) == proc.sigma_at(
                travel_time(arm, proc.group_index)
            )

    def test_bad_loop_rejected(self):
        proc = NoiseParams(sigma_ref=0.3, tau_ref=1e-4)
        with pytest.raises(DomainError):
            sagnac_effective_sigma(proc, 0.0)


class TestSimulateFringeScan:
    def test_noiseless_scan_is_pure_cosine(self):
        proc = NoiseParams(sigma_ref=0.0, tau_ref=1e-4)
        scan = simulate_fringe_scan(proc, 71.5, n_points=50, pulses_per_point=10, seed=0)
        expected = 0.5 * (1.0 + np.cos(scan.applied_phase))
        np.testing.assert_allclose(scan.pulse_area, expected, rtol=1e-12, atol=1e-15)

    def test_span_and_shape(self):
        proc = NoiseParams(sigma_ref=0.1, tau_ref=1e-4)
        scan = simulate_fringe_scan(proc, 36.5, n_points=41, pulses_per_point=5, seed=1)
        assert scan.applied_phase.size == 41
        assert scan.applied_phase[0] == 0.0
        assert scan.applied_phase[-1] == pytest.approx(2 * math.pi)

    def test_detector_noise_offset(self):
        proc = NoiseParams(sigma_ref=0.0, tau_ref=1e-4)
        plain = simulate_fringe_scan(proc, 36.5, 20, 5, detector_noise=0.0, seed=2)
        offset = simulate_fringe_scan(proc, 36.5, 20, 5, detector_noise=0.07, seed=2)
        np.testing.assert_allclose(offset.pulse_area - plain.pulse_area, 0.07, rtol=1e-12)

    def test_fringe_mean_property(self):
        # Mean over a whole number of fringes (duplicated endpoint dropped)
        # approaches i0/2 + noise within 3/sqrt(points*pulses) * i0.
        proc = NoiseParams(sigma_ref=0.36, tau_ref=178.75e-6)
        n_points, pulses = 51, 2000
        scan = simulate_fringe_scan(
            proc, 71.5, n_points, pulses, detector_noise=0.05, seed=3
        )
        mean = scan.pulse_area[:-1].mean()
        budget = 3.0 / math.sqrt((n_points - 1) * pulses) * scan.i0
        assert abs(mean - (0.5 * scan.i0 + 0.05)) < budget

    def test_determinism(self):
        proc = NoiseParams(sigma_ref=0.2, tau_ref=1e-4)
        a = simulate_fringe_scan(proc, 71.5, 20, 100, seed=9)
        b = simulate_fringe_scan(proc, 71.5, 20, 100, seed=9)
        assert a == b

    def test_invalid_counts(self):
        proc = NoiseParams(sigma_ref=0.2, tau_ref=1e-4)
        with pytest.raises(DomainError):
            simulate_fringe_scan(proc, 71.5, 3, 100, seed=0)
        with pytest.raises(DomainError):
            simulate_fringe_scan(proc, 71.5, 20, 0, seed=0)

    def test_bad_i0_rejected_before_sampling(self, monkeypatch):
        import fiberphase.interferometer as interferometer

        def no_sampling(*args):
            raise AssertionError("sampled before checking i0")

        monkeypatch.setattr(interferometer, "sagnac_effective_sigma", no_sampling)
        proc = NoiseParams(sigma_ref=0.2, tau_ref=1e-4)
        with pytest.raises(DomainError, match="i0 must be > 0, got 0.0"):
            simulate_fringe_scan(proc, 71.5, 20, 100, i0=0.0)

    @pytest.mark.parametrize("pulses,noise,digest", [
        (10000, 0.0, "1524af3a48f70bb940bc200bc3c99f39881f99b95a7780072c83fc03b7fe5b83"),
        (10000, 0.05, "f9977ddfee222070b28e2af4af50dc6fccc8d2d022732121e3ea4ed4ca5fcd3d"),
        (3, 0.0, "46f7a3da193c6288cfb515ced590f9295ecec1ba58baa127d1b85ee3b439a0bd"),
        (3, 0.05, "cd9f04272bee5b6d200da02474cc3b3da9156af309fab77bff9dae74f1909cb5"),
    ])
    def test_golden_bytes(self, pulses, noise, digest):
        # SHA-256 of the pulse areas: scan changes must keep every bit.
        proc = NoiseParams(sigma_ref=0.36, tau_ref=178.75e-6)
        scan = simulate_fringe_scan(proc, 71.5, 50, pulses, detector_noise=noise, seed=11)
        assert hashlib.sha256(scan.pulse_area.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("n_points,pulses,noise,i0,seed", [
        (50, 10000, 0.0, 1.0, 11),
        (50, 3, 0.05, 1.0, 2**64 + 5),
        (7, 1, 0.0, 2.5, 0),
        (20, 257, 0.01, 0.3, 123456789),
    ])
    def test_matches_jumped_substream_reference(self, n_points, pulses, noise, i0, seed):
        proc = NoiseParams(sigma_ref=0.36, tau_ref=178.75e-6)
        scan = simulate_fringe_scan(proc, 71.5, n_points, pulses, noise, seed=seed, i0=i0)
        want = reference_fringe_areas(proc, 71.5, n_points, pulses, noise, seed, i0)
        assert np.array_equal(scan.pulse_area, want)


def reference_fringe_areas(process, loop_km, n_points, pulses, noise, seed, i0):
    """Pulse areas built point by point from `Philox.jumped(i)`: the oracle
    for the substream layout of simulate_fringe_scan."""
    sigma = sagnac_effective_sigma(process, loop_km)
    applied = np.linspace(0.0, 2.0 * math.pi, n_points)
    base = np.random.Philox(key=int(seed) & (2**64 - 1))
    areas = np.empty(n_points)
    for i, phi in enumerate(applied):
        rng = np.random.Generator(base.jumped(i))
        jitter = sigma * rng.standard_normal(pulses)
        areas[i] = (0.5 * i0 * (1.0 + np.cos(phi + jitter))).mean() + noise
    return areas


class TestSimulateMzTrace:
    def test_constant_phase_at_maximum(self):
        proc = NoiseParams(sigma_ref=0.0, tau_ref=1e-4)
        trace = simulate_mz_trace(proc, 1e-4, 1e-5, i_max=2.0, i_min=0.5, phi0=0.0, seed=0)
        np.testing.assert_allclose(trace.samples, 2.0, rtol=1e-12)

    def test_quadrature_point(self):
        proc = NoiseParams(sigma_ref=0.0, tau_ref=1e-4)
        trace = simulate_mz_trace(
            proc, 1e-4, 1e-5, i_max=2.0, i_min=0.5, phi0=math.pi / 2, seed=0
        )
        np.testing.assert_allclose(trace.samples, 1.25, rtol=1e-12)

    def test_samples_within_bounds_exactly(self):
        proc = NoiseParams(sigma_ref=0.6, tau_ref=1e-4)
        trace = simulate_mz_trace(proc, 5e-3, 2e-6, i_max=1.3, i_min=0.2, seed=4)
        assert trace.samples.min() >= 0.2
        assert trace.samples.max() <= 1.3

    def test_determinism(self):
        proc = NoiseParams(sigma_ref=0.2, tau_ref=1e-4)
        a = simulate_mz_trace(proc, 1e-3, 2e-6, seed=5)
        b = simulate_mz_trace(proc, 1e-3, 2e-6, seed=5)
        assert a == b

    def test_bad_extremes_rejected(self):
        proc = NoiseParams(sigma_ref=0.2, tau_ref=1e-4)
        with pytest.raises(DomainError):
            simulate_mz_trace(proc, 1e-3, 2e-6, i_max=0.0, i_min=1.0, seed=0)

    @pytest.mark.parametrize("i_max,i_min,message", [
        (1.0, 2.0, "i_max must exceed i_min, got i_max=1.0, i_min=2.0"),
        (1.7e308, -1.7e308,
         "the span i_max - i_min is not finite at i_max=1.7e+308, i_min=-1.7e+308"),
    ], ids=["order", "span"])
    def test_bad_extremes_rejected_before_sampling(self, monkeypatch, i_max, i_min, message):
        proc = NoiseParams(sigma_ref=0.2, tau_ref=1e-4)

        def no_sampling(*args):
            raise AssertionError("sampled before checking the extremes")

        monkeypatch.setattr(NoiseParams, "sample_trace", no_sampling)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as excinfo:
            simulate_mz_trace(proc, 1e-3, 2e-6, i_max=i_max, i_min=i_min, seed=0)
        assert excinfo.value.fields == ("i_max", "i_min")

    @pytest.mark.parametrize("hurst,digest", [
        (0.5, "d1627df5a14dc6e7cbb3839290bd1bcbc9ce2eb20c21d09c443aa8f99714be9c"),
        (0.8, "1545e2608845bb9b0821c40a073683e7dbc852f240a965f19b16116924a64daa"),
    ])
    def test_golden_bytes(self, hurst, digest):
        # SHA-256 of the intensity samples: kernel changes must keep every bit.
        proc = NoiseParams(sigma_ref=0.1418, tau_ref=182.5e-6, hurst=hurst)
        trace = simulate_mz_trace(proc, 4096e-6, 1e-6, phi0=math.pi / 2, seed=2007)
        assert trace.n_samples == 4097
        assert hashlib.sha256(trace.samples.tobytes()).hexdigest() == digest


class TestContainers:
    def test_fringe_scan_length_mismatch(self):
        with pytest.raises(DomainError):
            FringeScan(applied_phase=np.zeros(5), pulse_area=np.zeros(4))

    def test_fringe_scan_too_short(self):
        with pytest.raises(DomainError):
            FringeScan(applied_phase=np.zeros(3), pulse_area=np.zeros(3))

    def test_fringe_scan_negative_area(self):
        with pytest.raises(DomainError):
            FringeScan(
                applied_phase=np.linspace(0, 6.3, 8),
                pulse_area=np.full(8, -0.5),
            )

    @pytest.mark.parametrize("field", ["applied_phase", "pulse_area"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_fringe_scan_non_finite(self, field, bad):
        arrays = {"applied_phase": np.linspace(0, 6.3, 8), "pulse_area": np.full(8, 0.5)}
        arrays[field][5] = bad
        with pytest.raises(DomainError, match=rf"{field}\[5\] is not finite"):
            FringeScan(**arrays)

    @pytest.mark.parametrize("field,bad,message", [
        ("i0", math.nan, "i0 must be > 0"),
        ("i0", math.inf, "i0 must be finite"),
        ("i0", 0.0, "i0 must be > 0"),
        ("i0", -1.0, "i0 must be > 0"),
        ("detector_noise", math.nan, "detector_noise must be finite"),
        ("detector_noise", math.inf, "detector_noise must be finite"),
        ("detector_noise", -math.inf, "detector_noise must be finite"),
    ])
    def test_fringe_scan_scalar_metadata(self, field, bad, message):
        arrays = {"applied_phase": np.linspace(0, 6.3, 8), "pulse_area": np.full(8, 0.5)}
        with pytest.raises(DomainError, match=message):
            FringeScan(**arrays, **{field: bad})

    @pytest.mark.parametrize("field,bad,message", [
        ("t0", math.nan, "t0 must be finite"),
        ("t0", math.inf, "t0 must be finite"),
        ("t0", -math.inf, "t0 must be finite"),
        ("dt", math.inf, "dt must be finite"),
        ("dt", math.nan, "dt must be > 0"),
        ("dt", 0.0, "dt must be > 0"),
        ("i_max", math.inf, "i_max must be finite"),
        ("i_min", -math.inf, "i_min must be finite"),
    ])
    def test_intensity_trace_scalar_metadata(self, field, bad, message):
        fields = {"t0": 0.0, "dt": 1e-6, "samples": np.full(4, 0.5), "i_max": 1.0, "i_min": 0.0}
        with pytest.raises(DomainError, match=message):
            IntensityTrace(**{**fields, field: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_intensity_trace_non_finite_sample(self, bad):
        samples = np.array([0.5, 0.6, 0.7, bad, 0.4, math.nan])
        with pytest.raises(DomainError, match=r"samples\[3\] is not finite"):
            IntensityTrace(t0=0.0, dt=1e-6, samples=samples, i_max=1.0, i_min=0.0)

    def test_intensity_trace_bounds(self):
        with pytest.raises(DomainError):
            IntensityTrace(t0=0.0, dt=1e-6, samples=np.array([0.0, 5.0]), i_max=1.0, i_min=0.0)

    def test_intensity_trace_extremes(self):
        with pytest.raises(DomainError):
            IntensityTrace(t0=0.0, dt=1e-6, samples=np.zeros(2), i_max=0.0, i_min=0.0)
