"""Tests for the stochastic phase-noise process."""

import decimal
import hashlib
import logging
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from fiberphase import (
    DomainError,
    NoiseParams,
    PhaseTrace,
    ResourceLimitError,
    from_sagnac_calibration,
    noise,
    travel_time,
)


class TestTravelTime:
    def test_installed_arm(self):
        # 36.5 km at n=1.5 is 182.5 us (5 us/km convention)
        assert travel_time(36.5, 1.5) == pytest.approx(182.5e-6, rel=1e-12)

    def test_zero_length(self):
        assert travel_time(0.0) == 0.0

    def test_long_loop(self):
        assert travel_time(71.5, 1.5) == pytest.approx(357.5e-6, rel=1e-12)

    def test_negative_length_rejected(self):
        with pytest.raises(DomainError):
            travel_time(-1.0)

    def test_group_index_must_exceed_one(self):
        with pytest.raises(DomainError):
            travel_time(10.0, group_index=1.0)


class TestNoiseParams:
    def test_valid_process(self):
        proc = NoiseParams(sigma_ref=0.2, tau_ref=357.5e-6, hurst=0.5)
        assert proc.sigma_ref == 0.2

    def test_hurst_out_of_range(self):
        with pytest.raises(DomainError, match="hurst out of range"):
            NoiseParams(sigma_ref=0.2, tau_ref=1e-4, hurst=1.2)

    def test_zero_sigma_is_valid(self):
        proc = NoiseParams(sigma_ref=0.0, tau_ref=1e-4)
        assert proc.sigma_at(5e-4) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sigma_ref=-0.1, tau_ref=1e-4),
            dict(sigma_ref=0.1, tau_ref=0.0),
            dict(sigma_ref=0.1, tau_ref=1e-4, hurst=0.0),
            dict(sigma_ref=0.1, tau_ref=1e-4, group_index=0.9),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(DomainError):
            NoiseParams(**kwargs)

    def test_sigma_at_reference_is_exact(self):
        for hurst in (0.3, 0.5, 0.77):
            proc = NoiseParams(sigma_ref=0.2, tau_ref=1e-4, hurst=hurst)
            assert proc.sigma_at(1e-4) == 0.2

    def test_build_process_requires_params(self):
        # Reached by module path: `perfbench/workloads.py` is its one caller.
        with pytest.raises(DomainError):
            noise.build_process({"sigma_ref": 0.2})


class TestSigmaAt:
    def test_reference_point(self):
        proc = NoiseParams(sigma_ref=0.2, tau_ref=100e-6, hurst=0.5)
        assert proc.sigma_at(100e-6) == pytest.approx(0.2)

    def test_random_walk_scaling(self):
        proc = NoiseParams(sigma_ref=0.2, tau_ref=100e-6, hurst=0.5)
        assert proc.sigma_at(400e-6) == pytest.approx(0.4, rel=1e-12)

    def test_high_exponent_scaling(self):
        # 4**0.8 = 3.0314331330207964
        proc = NoiseParams(sigma_ref=0.2, tau_ref=100e-6, hurst=0.8)
        assert proc.sigma_at(400e-6) == pytest.approx(0.2 * 3.0314331330207964, rel=1e-12)

    def test_zero_lag(self):
        proc = NoiseParams(sigma_ref=0.2, tau_ref=100e-6)
        assert proc.sigma_at(0.0) == 0.0

    def test_zero_width_at_every_lag(self):
        # tau / tau_ref = 1e316 is past float range; the width is 0 all the same
        assert NoiseParams(sigma_ref=0.0, tau_ref=1e-316).sigma_at(1.0) == 0.0

    def test_negative_lag_rejected(self):
        proc = NoiseParams(sigma_ref=0.2, tau_ref=100e-6)
        with pytest.raises(DomainError):
            proc.sigma_at(-1e-6)

    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.9])
    def test_power_law_homogeneity(self, hurst):
        # sigma(a*tau) = a^H * sigma(tau), exact closed form
        proc = NoiseParams(sigma_ref=0.31, tau_ref=7e-5, hurst=hurst)
        for a in (0.25, 2.0, 17.0):
            for tau in (1e-5, 7e-5, 3e-3):
                assert proc.sigma_at(a * tau) == pytest.approx(
                    a**hurst * proc.sigma_at(tau), rel=1e-12
                )


class TestSagnacCalibration:
    def test_urban_loop_coefficient(self):
        params = from_sagnac_calibration(8e-4, 71.5)
        assert params.sigma_ref == pytest.approx(0.23916521486202796, rel=1e-12)
        assert params.tau_ref == pytest.approx(178.75e-6, rel=1e-12)

    def test_zero_diffusion(self):
        assert from_sagnac_calibration(0.0, 50.0).sigma_ref == 0.0

    def test_night_coefficient(self):
        # D back-computed from V=0.98: -2*ln(0.98)/71.5 = 5.651e-4
        params = from_sagnac_calibration(5.65e-4, 71.5)
        assert params.sigma_ref == pytest.approx(0.2009912933437665, rel=1e-12)

    def test_negative_diffusion_rejected(self):
        with pytest.raises(DomainError):
            from_sagnac_calibration(-1e-4, 71.5)


class TestSampleTrace:
    def test_zero_noise_zero_drift(self):
        proc = NoiseParams(sigma_ref=0.0, tau_ref=1e-4)
        trace = proc.sample_trace(1e-3, 1e-5, seed=0)
        assert np.all(trace.samples == 0.0)
        assert trace.segments == ((0, trace.n_samples),)

    def test_pure_drift_final_sample(self):
        # 1000 rad/s over 100 us accumulates 0.1 rad
        proc = NoiseParams(sigma_ref=0.0, tau_ref=1e-4, drift_rate=1000.0)
        trace = proc.sample_trace(100e-6, 1e-6, seed=0)
        assert trace.samples[-1] == pytest.approx(0.1, rel=1e-12)
        assert trace.samples[0] == 0.0

    def test_determinism(self):
        proc = NoiseParams(sigma_ref=0.2, tau_ref=1e-4, hurst=0.5)
        a = proc.sample_trace(1e-3, 2e-6, seed=99)
        b = proc.sample_trace(1e-3, 2e-6, seed=99)
        assert np.array_equal(a.samples, b.samples)
        assert a == b

    def test_different_seeds_differ(self):
        proc = NoiseParams(sigma_ref=0.2, tau_ref=1e-4, hurst=0.5)
        a = proc.sample_trace(1e-3, 2e-6, seed=1)
        b = proc.sample_trace(1e-3, 2e-6, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_drift_superposition(self):
        base = NoiseParams(sigma_ref=0.2, tau_ref=1e-4, hurst=0.5)
        drifted = NoiseParams(sigma_ref=0.2, tau_ref=1e-4, hurst=0.5, drift_rate=300.0)
        quiet = base.sample_trace(1e-3, 2e-6, seed=5)
        noisy = drifted.sample_trace(1e-3, 2e-6, seed=5)
        np.testing.assert_allclose(
            noisy.samples - quiet.samples, 300.0 * (quiet.dt * np.arange(quiet.n_samples)),
            rtol=1e-12, atol=1e-15,
        )

    def test_grid_shape(self):
        proc = NoiseParams(sigma_ref=0.1, tau_ref=1e-4)
        trace = proc.sample_trace(2e-3, 2e-6, seed=0)
        assert trace.n_samples == 1001
        assert trace.dt == 2e-6
        assert trace.t0 == 0.0

    def test_invalid_grid_rejected(self):
        proc = NoiseParams(sigma_ref=0.1, tau_ref=1e-4)
        with pytest.raises(DomainError):
            proc.sample_trace(1e-3, 0.0, seed=0)
        with pytest.raises(DomainError):
            proc.sample_trace(1e-6, 1e-5, seed=0)

    @pytest.mark.parametrize("hurst,digest", [
        (0.3, "2686969688bb3e5182043d629218d8fdc3757c429f786f32715fac392ed724f3"),
        (0.5, "9eab025a2ebcbbc35aadd3025e39caf5eba20c2113a61b5f054974572b46997a"),
        (0.8, "fd1c8f2db64df4a808d3d804c33ba9d9dda21304eef13a73c1f3c084113cb5e6"),
    ])
    def test_golden_bytes(self, hurst, digest):
        # SHA-256 of the samples: synthesis changes must keep every bit.
        proc = NoiseParams(sigma_ref=0.1418, tau_ref=182.5e-6, hurst=hurst)
        trace = proc.sample_trace(4096e-6, 1e-6, seed=2007)
        assert trace.n_samples == 4097
        assert hashlib.sha256(trace.samples.tobytes()).hexdigest() == digest

    def test_synthesis_limit(self):
        proc = NoiseParams(sigma_ref=0.1, tau_ref=1e-4, hurst=0.7)
        with pytest.raises(ResourceLimitError):
            proc.sample_trace(3.0, 1e-6, seed=0)

    def test_synthesis_limit_checked_before_allocation(self):
        # 1e15 steps: the limit is reported, not a failed 8 PB allocation.
        proc = NoiseParams(sigma_ref=0.1, tau_ref=1e-4, hurst=0.7)
        with pytest.raises(ResourceLimitError, match="1000000000000000 steps"):
            proc.sample_trace(1e9, 1e-6, seed=0)

    @pytest.mark.parametrize("hurst", [0.5, 0.8])
    def test_increment_std_matches_sigma_at(self, hurst):
        # Monte Carlo against the closed-form oracle, 2^16 samples, rms
        # (no mean subtraction: increments have zero mean by construction).
        proc = NoiseParams(sigma_ref=0.2, tau_ref=1e-4, hurst=hurst)
        dt = 2e-6
        trace = proc.sample_trace(2**16 * dt, dt, seed=12)
        for k in (1, 4, 16):
            inc = trace.samples[k:] - trace.samples[:-k]
            emp = math.sqrt(np.mean(inc**2))
            assert emp == pytest.approx(proc.sigma_at(k * dt), rel=0.03)

    def test_increment_gaussianity_ks(self):
        # Disjoint lag-2 increments are iid gaussian at H=0.5; KS at 1%.
        proc = NoiseParams(sigma_ref=0.2, tau_ref=1e-4, hurst=0.5)
        dt = 2e-6
        trace = proc.sample_trace(20001 * dt, dt, seed=3)
        inc = np.diff(trace.samples[::2])[:10**4]
        assert inc.size == 10**4
        result = scipy_stats.kstest(inc, "norm", args=(0.0, proc.sigma_at(2 * dt)))
        assert result.pvalue > 0.01

    def test_fgn_gaussianity_ks(self):
        # H != 0.5 increments are long-range correlated, which invalidates a
        # KS test within one trace; draw one increment per independent seed
        # to get a genuinely iid sample.
        proc = NoiseParams(sigma_ref=0.2, tau_ref=1e-4, hurst=0.75)
        dt = 2e-6
        inc = np.array([
            proc.sample_trace(32 * dt, dt, seed=s).samples[8]
            for s in range(2000)
        ])
        result = scipy_stats.kstest(inc, "norm", args=(0.0, proc.sigma_at(8 * dt)))
        assert result.pvalue > 0.01


class TestSpectrumCache:
    """The circulant spectrum is computed once per (n_steps, hurst)."""

    @staticmethod
    def sample(hurst, seed=5):
        proc = NoiseParams(sigma_ref=0.2, tau_ref=1e-4, hurst=hurst)
        return proc.sample_trace(1000e-6, 1e-6, seed=seed).samples

    def test_cold_and_warm_cache_agree(self):
        from fiberphase.noise import _fgn_spectrum

        _fgn_spectrum.cache_clear()
        cold = self.sample(0.8)
        assert _fgn_spectrum.cache_info().misses == 1
        warm = self.sample(0.8)
        assert _fgn_spectrum.cache_info().hits == 1
        assert np.array_equal(cold, warm)
        assert not np.array_equal(self.sample(0.8, seed=6), cold)
        assert _fgn_spectrum.cache_info().maxsize == 4

    def test_cache_miss_logged(self, caplog):
        from fiberphase.noise import _fgn_spectrum

        _fgn_spectrum.cache_clear()
        with caplog.at_level(logging.DEBUG, logger="fiberphase"):
            self.sample(0.8)
            self.sample(0.8, seed=6)
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("fiberphase.noise", logging.DEBUG,
             "fGn spectrum cache miss: 1000 steps at hurst=0.8")]

    def test_hurst_values_do_not_share_an_entry(self):
        from fiberphase.noise import _fgn_spectrum

        _fgn_spectrum.cache_clear()
        a, b = self.sample(0.7), self.sample(0.8)
        info = _fgn_spectrum.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 0, 2)
        assert not np.array_equal(a, b)
        _fgn_spectrum.cache_clear()
        assert np.array_equal(self.sample(0.8), b)

    def test_cached_scale_factors_read_only(self):
        from fiberphase.noise import _fgn_spectrum

        _, _, half = _fgn_spectrum(1000, 0.8)
        assert half.shape == (999,) and not half.flags.writeable
        with pytest.raises(ValueError):
            half[0] = 0.0


def decimal_autocov(hurst, k):
    # 0.5 * ((k+1)^2H - 2 k^2H + |k-1|^2H) in 60-digit decimal arithmetic.
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        two_h = 2 * decimal.Decimal(hurst)
        above, at, below = (decimal.Decimal(x) ** two_h for x in (k + 1, k, abs(k - 1)))
        return float((above - 2 * at + below) / 2)


class TestCirculantSynthesis:
    """The one fGn path: a stable autocovariance and a valid embedding."""

    @pytest.mark.parametrize("hurst", [0.3, 0.8, 0.99])
    def test_autocov_matches_decimal_reference(self, hurst):
        from fiberphase.noise import _fgn_autocov

        gamma = _fgn_autocov(hurst, 10**5)
        assert gamma[0] == 1.0
        for k in (1, 2, 3, 10, 1000, 10**5):
            assert gamma[k] == pytest.approx(decimal_autocov(hurst, k), rel=1e-9, abs=0)

    def test_embedding_nonnegative_over_grid(self):
        # A clipped negative eigenvalue would leave a zero scale factor.
        from fiberphase.noise import _fgn_spectrum

        try:
            for hurst in (0.05, 0.3, 0.7, 0.95, 0.99, 0.999):
                for n in (1 << 12, 1 << 16, 1 << 21):
                    first, middle, half = _fgn_spectrum(n, hurst)
                    assert first > 0 and middle > 0 and half.min() > 0, (hurst, n)
        finally:
            _fgn_spectrum.cache_clear()

    @pytest.mark.parametrize("hurst,n_steps", [(0.99, 1 << 19), (0.97, 1 << 20), (0.95, 1 << 21)])
    def test_long_trace_near_hurst_one(self, hurst, n_steps):
        from fiberphase.noise import _fgn_spectrum

        proc = NoiseParams(sigma_ref=0.1, tau_ref=1e-4, hurst=hurst)
        trace = proc.sample_trace(n_steps * 1e-6, 1e-6, seed=1)
        _fgn_spectrum.cache_clear()
        assert trace.n_samples == n_steps + 1
        assert np.all(np.isfinite(trace.samples))

    def test_failed_embedding_raises(self, monkeypatch):
        from fiberphase import noise

        # |gamma(1)| > gamma(0): no covariance, so no valid embedding.
        monkeypatch.setattr(noise, "_fgn_autocov", lambda hurst, lag: np.r_[1.0, np.full(lag, 2.0)])
        noise._fgn_spectrum.cache_clear()
        proc = NoiseParams(sigma_ref=0.1, tau_ref=1e-4, hurst=0.7)
        try:
            with pytest.raises(ResourceLimitError, match=r"64 steps at hurst=0\.7"):
                proc.sample_trace(64e-6, 1e-6, seed=0)
        finally:
            noise._fgn_spectrum.cache_clear()

    def test_increment_covariance_matches_autocov(self):
        # Empirical covariance of unit increments over 3000 seeds, per pair
        # of positions, against the target at lags 0-3.
        from fiberphase.noise import _fgn_autocov

        n, reps = 16, 3000
        for hurst in (0.3, 0.8):
            proc = NoiseParams(sigma_ref=1.0, tau_ref=1e-6, hurst=hurst)
            x = np.array([
                np.diff(proc.sample_trace(n * 1e-6, 1e-6, seed=s).samples)
                for s in range(reps)
            ])
            emp = x.T @ x / reps
            gamma = _fgn_autocov(hurst, n - 1)
            for lag in range(4):
                assert np.allclose(np.diagonal(emp, lag), gamma[lag], atol=0.1), (hurst, lag)


class TestPhaseTrace:
    def test_segment_validation(self):
        with pytest.raises(DomainError):
            PhaseTrace(t0=0.0, dt=1e-6, samples=np.zeros(10), segments=((0, 11),))
        with pytest.raises(DomainError):
            PhaseTrace(t0=0.0, dt=1e-6, samples=np.zeros(10), segments=((3, 5), (4, 8)))

    def test_samples_immutable(self):
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=np.zeros(4))
        with pytest.raises(ValueError):
            trace.samples[0] = 1.0

    @pytest.mark.parametrize("field,bad,message", [
        ("t0", math.nan, "t0 must be finite"),
        ("t0", math.inf, "t0 must be finite"),
        ("t0", -math.inf, "t0 must be finite"),
        ("dt", math.inf, "dt must be finite"),
        ("dt", math.nan, "dt must be > 0"),
        ("dt", -1e-6, "dt must be > 0"),
    ])
    def test_scalar_metadata(self, field, bad, message):
        fields = {"t0": 0.0, "dt": 1e-6, "samples": np.zeros(4)}
        with pytest.raises(DomainError, match=message):
            PhaseTrace(**{**fields, field: bad})

    def test_empty_trace(self):
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=np.empty(0))
        assert trace.segments == ()
        assert trace.n_samples == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_inside_segment(self, bad):
        samples = np.array([0.1, np.nan, 0.3, 0.4, 0.5, 0.6, np.nan])
        samples[4] = bad
        with pytest.raises(DomainError, match="sample 4 "):
            PhaseTrace(t0=0.0, dt=1e-6, samples=samples, segments=((2, 3), (3, 6)))
        with pytest.raises(DomainError, match="sample 1 "):
            PhaseTrace(t0=0.0, dt=1e-6, samples=samples)

    def test_non_finite_sample_outside_segments(self):
        samples = np.array([np.nan, 0.1, 0.2, np.inf, 0.5, np.nan])
        trace = PhaseTrace(t0=0.0, dt=1e-6, samples=samples, segments=((1, 3), (4, 5)))
        assert trace.segments == ((1, 3), (4, 5))
        assert PhaseTrace(t0=0.0, dt=1e-6, samples=samples, segments=()).segments == ()
