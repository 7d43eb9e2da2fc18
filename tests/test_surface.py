"""Pins of the package surface: the bits of the closed forms, the equality
contract of the value objects, the public names and the benchmark's traced
attributes."""

import dataclasses
import functools
import hashlib
import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

import fiberphase as fp
from fiberphase.errors import finite_arithmetic

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from tracer import TRACED  # noqa: E402


def closed_form_values() -> list[float]:
    """Every closed form on a fixed grid, in a fixed order."""
    values = []
    for sigma in np.linspace(0.0, 4.0, 41):
        values.append(fp.visibility_from_sigma(float(sigma)))
        values.append(fp.fidelity_from_sigma(float(sigma)))
        values.append(fp.estimate_diffusion(71.5, sigma=float(sigma)))
    for visibility in [*np.linspace(0.01, 1.0, 34), 0.936, 0.98, 0.995]:
        values.append(fp.sigma_from_visibility(float(visibility)))
        values.append(fp.estimate_diffusion(36.5, visibility=float(visibility)))
    for diffusion in np.linspace(0.0, 2e-3, 9):
        for length_km in (1.0, 36.5, 71.5, 250.0):
            values.append(fp.predict_visibility(float(diffusion), length_km))
            for hurst in (0.5, 0.7):
                params = fp.from_sagnac_calibration(float(diffusion), length_km, hurst=hurst)
                values += [params.sigma_ref, params.tau_ref]
                for loop_km in (length_km, 0.5 * length_km, 2.0 * length_km):
                    values.append(fp.sagnac_effective_sigma(params, loop_km))
    for args in [(1000.0, 8, 0.9, 36.5), (600.0, 3, 0.97, 50.0), (100.0, 1, 0.51, 100.0),
                 (2000.0, 16, 0.75, 125.0)]:
        report = fp.budget_per_segment(*args)
        values += [report.total_sigma, report.visibility,
                   report.per_segment_sigma_limit, report.per_segment_dphi_limit]
    for name in ("day", "night"):
        for hurst in (0.3, 0.5, 0.8):
            params = fp.preset_params(name, hurst=hurst)
            values += [params.sigma_ref, params.tau_ref]
    return values


def test_closed_forms_golden_bits():
    # SHA-256 of the float64 bits: moving a closed form must keep every bit.
    values = np.array(closed_form_values(), dtype=np.float64)
    assert values.size == 621
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    assert digest == "21477fcd46d4a7f2f4bd7f2ad9153a1d63d3d8cf83be0b1da7fb75d2d9be9996"


def _phase(**changes):
    fields = dict(t0=0.5, dt=1e-6, samples=[0.0, 0.1, np.nan, 0.3, 0.2],
                  segments=((0, 2), (3, 5)))
    fields.update(changes)
    return fp.PhaseTrace(**fields)


def _ramp(step=1.0):
    return fp.PhaseTrace(t0=0, dt=1e-6, samples=np.arange(10.0) * step)


def _ramp_curve(step=1.0):
    return fp.increment_sets(_ramp(step), [1e-6, 2e-6, 3e-6])


def _alternating(amplitude):
    """A phase trace of 300 samples that alternate between +-amplitude."""
    return fp.PhaseTrace(t0=0, dt=1e-6, samples=np.resize([amplitude, -amplitude], 300))


def _fringe_past_range():
    """A finite fringe scan whose fit residuals square past float range."""
    phi = np.linspace(0.0, 2.0 * np.pi, 8)
    return fp.FringeScan(phi, 0.7e308 * (1.0 + np.cos(phi)) + 1e300)


def _intensity(**changes):
    fields = dict(t0=0.5, dt=1e-6, samples=[0.2, 0.4, 0.6, 0.8, 0.5], i_max=1.0, i_min=0.0)
    fields.update(changes)
    return fp.IntensityTrace(**fields)


def _scan(**changes):
    fields = dict(applied_phase=[0.0, 1.0, 2.0, 3.0, 4.0],
                  pulse_area=[1.0, 0.7, 0.3, 0.1, 0.4], detector_noise=0.01, i0=1.1)
    fields.update(changes)
    return fp.FringeScan(**fields)


def _histogram(**changes):
    fields = dict(sigma=0.1, bin_edges=[-0.5, 0.0, 0.5], counts=[3, 4], fit_sigma=0.11,
                  degenerate=False)
    fields.update(changes)
    return fp.GaussianHistogram(**fields)


def _stats(**changes):
    fields = dict(taus=[1e-6, 2e-6], n_increments=[3, 1], dt=1e-6,
                  mean_abs_change=[0.2, 0.4], sigma_per_tau=[0.25, np.nan],
                  signed_mean=[0.07, 0.4], m2=[0.13, 0.0])
    fields.update(changes)
    return fp.PhaseStats(**fields)


# (builder, field, changed value): one case per field of each value object.
FIELD_CHANGES = [
    (_phase, "t0", 0.0),
    (_phase, "dt", 2e-6),
    (_phase, "samples", [0.0, 0.1, np.nan, 0.3, 0.25]),
    (_phase, "samples", [0.0, 0.1, np.nan, 0.3, 0.2, 0.1]),
    (_phase, "segments", ((0, 2), (3, 4))),
    (_intensity, "t0", 0.0),
    (_intensity, "dt", 2e-6),
    (_intensity, "samples", [0.2, 0.4, 0.6, 0.8, 0.55]),
    (_intensity, "samples", [0.2, 0.4, 0.6, 0.8]),
    (_intensity, "i_max", 1.5),
    (_intensity, "i_min", -0.5),
    (_scan, "applied_phase", [0.0, 1.0, 2.0, 3.0, 4.5]),
    (_scan, "pulse_area", [1.0, 0.7, 0.3, 0.1, 0.45]),
    (_scan, "detector_noise", 0.0),
    (_scan, "i0", 1.0),
    (_histogram, "sigma", 0.2),
    (_histogram, "bin_edges", [-0.5, 0.0, 0.6]),
    (_histogram, "counts", [3, 5]),
    (_histogram, "fit_sigma", np.nan),
    (_histogram, "degenerate", True),
    (_stats, "taus", [1e-6, 3e-6]),
    (_stats, "n_increments", [4, 1]),
    (_stats, "dt", 2e-6),
    (_stats, "mean_abs_change", [0.2, 0.5]),
    (_stats, "sigma_per_tau", [0.25, 0.0]),
    (_stats, "signed_mean", [0.07, -0.4]),
    (_stats, "signed_mean", None),  # as a curve read from a file
    (_stats, "m2", [0.13, 0.1]),
]


class TestValueObjectEquality:
    @pytest.mark.parametrize("build", [_phase, _intensity, _scan, _histogram, _stats])
    def test_equals_rebuilt_copy(self, build):
        first, second = build(), build()
        assert first == second
        assert not (first != second)
        assert first.__eq__(object()) is NotImplemented
        assert first != 1

    @pytest.mark.parametrize("build,name,value", FIELD_CHANGES)
    def test_single_field_change_is_unequal(self, build, name, value):
        assert build() != build(**{name: value})
        assert not (build() == build(**{name: value}))
        assert build(**{name: value}) != build()

    def test_curves_of_one_trace_compare_equal(self):
        curve = fp.increment_sets(_phase(), [1e-6])
        assert curve == fp.increment_sets(_phase(), [1e-6])
        read_back = fp.PhaseStats(curve.taus, curve.n_increments, curve.dt,
                                  mean_abs_change=curve.mean_abs_change,
                                  sigma_per_tau=curve.sigma_per_tau)
        assert curve != read_back and read_back != curve  # no signed moments

    def test_nan_outside_segments_compares_equal(self):
        trace = _phase()
        assert np.isnan(trace.samples[2])
        assert trace == _phase(samples=np.array(trace.samples))

    def test_fitted_histograms_compare_and_stay_read_only(self):
        rng = np.random.Generator(np.random.Philox(key=6))
        draws = 0.2 * rng.standard_normal(400)
        for increments in (draws, np.full(100, 0.3)):  # the second one is degenerate
            hist = fp.fit_gaussian(increments)
            assert hist == fp.fit_gaussian(increments)
            for array in (hist.bin_edges, hist.counts):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1

    def test_phase_and_intensity_on_one_grid_are_unequal(self):
        samples = [0.2, 0.4, 0.6, 0.8, 0.5]
        phase = fp.PhaseTrace(t0=0.5, dt=1e-6, samples=samples)
        intensity = _intensity(samples=samples)
        assert np.array_equal(phase.samples, intensity.samples)
        assert phase != intensity
        assert intensity != phase


_NIGHT = fp.NoiseParams(sigma_ref=0.1, tau_ref=350e-6)


# One call per library check that takes a non-finite value for its field as
# it takes any other out-of-range one, with that field.
@pytest.mark.parametrize("call,field,got", [
    (lambda: fp.NoiseParams(sigma_ref=0.1, tau_ref=np.inf), "tau_ref", "inf"),
    (lambda: _NIGHT.sample_trace(1e-3, np.inf, seed=1), "dt", "inf"),
    (lambda: _NIGHT.sample_trace(np.inf, 1e-6, seed=1), "duration", "inf"),
    (lambda: fp.sagnac_effective_sigma(_NIGHT, np.inf), "loop_km", "inf"),
    (lambda: fp.from_sagnac_calibration(8e-4, np.inf), "loop_km", "inf"),
    (lambda: fp.tau_threshold(_stats(), np.inf), "target", "inf"),
    (lambda: fp.estimate_diffusion(np.inf, sigma=0.1), "length_km", "inf"),
    (lambda: fp.budget_per_segment(np.inf, 8, 0.9, 36.5), "total_km", "inf"),
    (lambda: fp.predict_visibility(8e-4, np.inf), "length_km", "inf"),
    (lambda: fp.visibility_from_sigma(np.inf), "sigma", "inf"),
    (lambda: fp.visibility_from_sigma(np.nan), "sigma", "nan"),
    (lambda: fp.fidelity_from_sigma(np.inf), "sigma", "inf"),
    (lambda: fp.fidelity_from_sigma(np.nan), "sigma", "nan"),
    (lambda: fp.monte_carlo_fidelity(np.inf, 10), "sigma", "inf"),
    (lambda: fp.monte_carlo_fidelity(np.nan, 10), "sigma", "nan"),
    (lambda: fp.monte_carlo_fidelity(10**400, 10), "sigma", str(10**400)),  # no float holds it
    (lambda: fp.monte_carlo_fidelity(0.1, np.inf), "n_samples", "inf"),
    (lambda: fp.monte_carlo_fidelity(0.1, np.nan), "n_samples", "nan"),
    (lambda: fp.predict_visibility(np.inf, 10), "diffusion", "inf"),
    (lambda: fp.predict_visibility(np.nan, 10), "diffusion", "nan"),
    (lambda: fp.estimate_diffusion(10, sigma=np.inf), "sigma", "inf"),
    (lambda: fp.estimate_diffusion(10, sigma=np.nan), "sigma", "nan"),
    (lambda: fp.from_sagnac_calibration(np.inf, 10), "diffusion", "inf"),
    (lambda: fp.from_sagnac_calibration(np.nan, 10), "diffusion", "nan"),
    (lambda: fp.budget_per_segment(1000, np.inf, 0.9, 36.5), "n_links", "inf"),
    (lambda: fp.budget_per_segment(1000, np.nan, 0.9, 36.5), "n_links", "nan"),
    (lambda: fp.travel_time(np.inf), "length_km", "inf"),
    (lambda: fp.travel_time(np.nan), "length_km", "nan"),
    (lambda: fp.travel_time(10, np.inf), "group_index", "inf"),
    (lambda: fp.travel_time(10, np.nan), "group_index", "nan"),
    (lambda: fp.NoiseParams(sigma_ref=np.inf, tau_ref=1e-4), "sigma_ref", "inf"),
    (lambda: fp.NoiseParams(sigma_ref=np.nan, tau_ref=1e-4), "sigma_ref", "nan"),
    (lambda: fp.NoiseParams(sigma_ref=0.1, tau_ref=1e-4, group_index=np.inf),
     "group_index", "inf"),
    (lambda: fp.NoiseParams(sigma_ref=0.1, tau_ref=1e-4, drift_rate=np.inf), "drift_rate", "inf"),
    (lambda: fp.NoiseParams(sigma_ref=0.1, tau_ref=1e-4, drift_rate=np.nan), "drift_rate", "nan"),
    (lambda: _NIGHT.sigma_at(np.inf), "tau", "inf"),
    (lambda: _NIGHT.sigma_at(np.nan), "tau", "nan"),
    (lambda: _stats().lag_index(np.inf), "tau", "inf"),
    (lambda: _stats().lag_index(np.nan), "tau", "nan"),
    (lambda: fp.check_gaussian_relation(_stats(), np.nan), "tau", "nan"),
    (lambda: fp.default_lag_grid(1e-6, np.inf), "tau_max", "inf"),
    (lambda: fp.default_lag_grid(1e-6, np.nan), "tau_max", "nan"),
    (lambda: fp.increment_sets(_phase(), [np.inf]), "tau", "inf"),
    (lambda: fp.increment_sets(_phase(), [np.nan]), "tau", "nan"),
    (lambda: fp.increments_at(_phase(), np.inf), "tau", "inf"),
    (lambda: fp.increments_at(_phase(), np.nan), "tau", "nan"),
    (lambda: fp.simulate_mz_trace(_NIGHT, 1e-5, 1e-6, phi0=np.inf), "phi0", "inf"),
    (lambda: fp.simulate_mz_trace(_NIGHT, 1e-5, 1e-6, phi0=np.nan), "phi0", "nan"),
    (lambda: fp.simulate_fringe_scan(_NIGHT, 40, np.inf, 10), "n_points", "inf"),
    (lambda: fp.simulate_fringe_scan(_NIGHT, 40, np.nan, 10), "n_points", "nan"),
    (lambda: fp.simulate_fringe_scan(_NIGHT, 40, 8, np.inf), "pulses_per_point", "inf"),
    (lambda: fp.simulate_fringe_scan(_NIGHT, 40, 8, np.nan), "pulses_per_point", "nan"),
    (lambda: fp.default_lag_grid(1e-6, 1e-3, np.inf), "max_lags", "inf"),
    (lambda: fp.default_lag_grid(1e-6, 1e-3, np.nan), "max_lags", "nan"),
    (lambda: _NIGHT.sample_trace(1e-3, 1e-6, seed=np.inf), "seed", "inf"),
    (lambda: _NIGHT.sample_trace(1e-3, 1e-6, seed=np.nan), "seed", "nan"),
    (lambda: fp.simulate_fringe_scan(_NIGHT, 40, 8, 10, seed=np.inf), "seed", "inf"),
    (lambda: fp.simulate_fringe_scan(_NIGHT, 40, 8, 10, seed=np.nan), "seed", "nan"),
    (lambda: fp.monte_carlo_fidelity(0.1, 10, seed=np.inf), "seed", "inf"),
    (lambda: fp.monte_carlo_fidelity(0.1, 10, seed=np.nan), "seed", "nan"),
], ids=["params_tau_ref", "sample_trace_dt", "sample_trace_duration",
        "sagnac_sigma_loop_km", "sagnac_calibration_loop_km", "tau_threshold_target",
        "diffusion_length_km", "budget_total_km", "predict_visibility_length_km",
        "visibility_sigma_inf", "visibility_sigma_nan", "fidelity_sigma_inf",
        "fidelity_sigma_nan", "monte_carlo_sigma_inf", "monte_carlo_sigma_nan",
        "monte_carlo_sigma_huge_int",
        "monte_carlo_n_samples_inf", "monte_carlo_n_samples_nan",
        "predict_visibility_diffusion_inf", "predict_visibility_diffusion_nan",
        "diffusion_sigma_inf", "diffusion_sigma_nan",
        "sagnac_calibration_diffusion_inf", "sagnac_calibration_diffusion_nan",
        "budget_n_links_inf", "budget_n_links_nan",
        "travel_time_length_km_inf", "travel_time_length_km_nan",
        "travel_time_group_index_inf", "travel_time_group_index_nan",
        "params_sigma_ref_inf", "params_sigma_ref_nan", "params_group_index",
        "params_drift_rate_inf", "params_drift_rate_nan",
        "sigma_at_tau_inf", "sigma_at_tau_nan", "lag_index_tau_inf", "lag_index_tau_nan",
        "gaussian_relation_tau_nan", "lag_grid_tau_max_inf", "lag_grid_tau_max_nan",
        "increment_sets_tau_inf", "increment_sets_tau_nan",
        "increments_at_tau_inf", "increments_at_tau_nan", "mz_phi0_inf", "mz_phi0_nan",
        "fringe_n_points_inf", "fringe_n_points_nan",
        "fringe_pulses_per_point_inf", "fringe_pulses_per_point_nan",
        "lag_grid_max_lags_inf", "lag_grid_max_lags_nan",
        "sample_trace_seed_inf", "sample_trace_seed_nan", "fringe_seed_inf", "fringe_seed_nan",
        "monte_carlo_seed_inf", "monte_carlo_seed_nan"])
def test_infinite_value_names_its_field(call, field, got):
    with pytest.raises(fp.DomainError, match=f"^{field} must be finite, got {got}$") as excinfo:
        call()
    assert (excinfo.value.fields, excinfo.value.index) == ((field,), None)


# A finite request whose size no array can hold: refused before anything of
# that size is allocated.
@pytest.mark.parametrize("call,message", [
    (lambda: _NIGHT.sample_trace(1e9, 1e-6, seed=1), "1000000000000000 steps"),
    (lambda: _NIGHT.sample_trace(1e300, 1e-6, seed=1), "e+306 steps"),
    (lambda: fp.default_lag_grid(1e-300, 1.0), "e+299 steps"),
    (lambda: fp.default_lag_grid(5e-324, 6e-4), "inf steps"),
    (lambda: fp.simulate_fringe_scan(_NIGHT, 40, 10**30, 10), f"{10**30} points"),
    (lambda: fp.simulate_fringe_scan(_NIGHT, 40, 10**400, 10), f"{10**400} points"),
    (lambda: fp.simulate_fringe_scan(_NIGHT, 40, 8, 10**30), f"{10**30} pulses per point"),
    (lambda: fp.monte_carlo_fidelity(0.1, 10**30), f"{10**30} samples"),
    (lambda: fp.increment_sets(_ramp(), [1e-6, 2**63 * 1e-6]), "9.223372036854776e+18 steps"),
    (lambda: fp.increments_at(_ramp(), 1e300), "1.0000000000000002e+306 steps"),  # off the grid
], ids=["sample_trace_steps", "sample_trace_huge_steps", "lag_grid_steps",
        "lag_grid_infinite_steps", "fringe_n_points", "fringe_n_points_huge_int",
        "fringe_pulses_per_point", "monte_carlo_n_samples", "increment_sets_lag_steps",
        "increments_at_off_grid_steps"])
def test_oversize_request_is_refused(call, message):
    with pytest.raises(fp.ResourceLimitError,
                       match=re.escape(f"{message} exceed the limit of {2**44}") + "$"):
        call()


def test_zero_max_lags_names_its_field():
    with pytest.raises(fp.DomainError, match="^max_lags must be >= 1, got 0$") as excinfo:
        fp.default_lag_grid(1e-6, 1e-3, 0)
    assert excinfo.value.fields == ("max_lags",)


def test_seed_keeps_its_stream_however_large():
    # Keys are seeds modulo 2^64, whether the seed is a numpy integer or a
    # Python int too large for a float.
    expected = fp.monte_carlo_fidelity(0.3, 16, seed=7)
    for seed in (np.int64(7), 7 + 2**64, 7 + 2**1100):
        assert fp.monte_carlo_fidelity(0.3, 16, seed=seed) == expected


# One call per library check of a value's range, shape or kind: its message,
# and the fields of the values it rejects.
@pytest.mark.parametrize("call,message,fields", [
    (lambda: fp.default_lag_grid(0.0, 1e-3), "need tau_max >= dt > 0, got dt=0.0, tau_max=0.001",
     ("tau_max", "dt")),
    (lambda: fp.default_lag_grid(1e-3, 1e-6), "need tau_max >= dt > 0, got dt=0.001, "
     "tau_max=1e-06", ("tau_max", "dt")),
    (lambda: fp.fit_scaling_exponent(_stats(), (0.0, 2e-6)),
     "need 0 < tau_min < tau_max, got (0.0, 2e-06)", ("tau_min", "tau_max")),
    (lambda: fp.fit_scaling_exponent(_stats(), (2e-6, 1e-6)),
     "need 0 < tau_min < tau_max, got (2e-06, 1e-06)", ("tau_min", "tau_max")),
    (lambda: fp.increment_sets(_phase(), []), "at least one lag is required", ("taus",)),
    (lambda: fp.pool_stats([]), "nothing to pool", ()),
    (lambda: fp.pool_stats([_stats(taus=[1.5e-6, 2e-6])]),
     "lag 1.5e-06 s is not a positive multiple of dt = 1e-06 s", ("tau", "dt")),
    (lambda: fp.pool_stats([_stats(), _stats(taus=[1e-6, 2.6e-6])]),
     "lag 2.6e-06 s is not a positive multiple of dt = 1e-06 s", ("tau", "dt")),
    (lambda: fp.pool_stats([_stats(taus=[1e-6, 1e-6 + 1e-13])]),
     "lags must be strictly increasing", ("taus",)),
    (lambda: fp.fit_gaussian(np.full(200, np.nan)), "increments[0] is not finite: nan",
     ("increments",)),
    (lambda: fp.fit_gaussian(np.r_[np.zeros(150), np.inf]), "increments[150] is not finite: inf",
     ("increments",)),
    (lambda: _stats(n_increments=[3]), "n_increments must hold one value per lag",
     ("n_increments",)),
    (lambda: _stats(sigma_per_tau=None), "sigma_per_tau must be one-dimensional, got shape ()",
     ("sigma_per_tau",)),
    (lambda: fp.PhaseStats(taus=[], n_increments=[], dt=1e-6, mean_abs_change=[],
                           sigma_per_tau=[]), "a dphi curve needs at least one lag", ("taus",)),
    (lambda: _stats(taus=[0.0, 1e-6]), "lags must be > 0", ("taus",)),
    (lambda: fp.preset_params("dusk"), "unknown preset 'dusk'; choose 'day' or 'night'",
     ("name",)),
    (lambda: fp.chain_sigma((), 8e-4), "a chain needs at least one link", ("link_km",)),
    (lambda: fp.default_lag_grid(1e-6, 1e-3, 2.5), "max_lags must be an integer, got 2.5",
     ("max_lags",)),
    (lambda: fp.default_lag_grid(1e-6, 1e-5, 50.0), "max_lags must be an integer, got 50.0",
     ("max_lags",)),
    (lambda: fp.simulate_fringe_scan(_NIGHT, 40, 8.5, 10),
     "n_points must be an integer, got 8.5", ("n_points",)),
    (lambda: fp.simulate_fringe_scan(_NIGHT, 40, 8, 10.5),
     "pulses_per_point must be an integer, got 10.5", ("pulses_per_point",)),
    (lambda: fp.monte_carlo_fidelity(0.1, 10.5), "n_samples must be an integer, got 10.5",
     ("n_samples",)),
    (lambda: fp.monte_carlo_fidelity(0.1, True), "n_samples must be an integer, got True",
     ("n_samples",)),
    (lambda: fp.default_lag_grid(1e-6, 1e-3, max_lags=True),
     "max_lags must be an integer, got True", ("max_lags",)),
    (lambda: _NIGHT.sample_trace(1e-3, 1e-6, seed=1.5), "seed must be an integer, got 1.5",
     ("seed",)),
    (lambda: fp.simulate_fringe_scan(_NIGHT, 40, 8, 10, seed=2.5),
     "seed must be an integer, got 2.5", ("seed",)),
    (lambda: fp.monte_carlo_fidelity(0.1, 10, seed=7.0), "seed must be an integer, got 7.0",
     ("seed",)),
    (lambda: fp.fit_gaussian(np.ones((20, 20))),
     "increments must be one-dimensional, got shape (20, 20)", ("increments",)),
    (lambda: fp.from_sagnac_calibration(1e300, 1e300),
     "the loop variance diffusion * loop_km is not finite at diffusion=1e+300, loop_km=1e+300",
     ("diffusion", "loop_km")),
    (lambda: fp.predict_visibility(1e300, 1e300),
     "the loop variance diffusion * length_km is not finite at diffusion=1e+300, "
     "length_km=1e+300", ("diffusion", "length_km")),
    (lambda: fp.from_sagnac_calibration(8e-4, 1e300, group_index=1e10),
     "the loop delay is not finite at loop_km=1e+300, group_index=10000000000.0",
     ("loop_km", "group_index")),
    (lambda: fp.sagnac_effective_sigma(fp.NoiseParams(0.1, 1e-4, group_index=1e10), 1e300),
     "the loop delay is not finite at loop_km=1e+300, group_index=10000000000.0",
     ("loop_km", "group_index")),
    (lambda: fp.from_sagnac_calibration(8e-4, 1e-320),
     "the loop delay underflows to 0 at loop_km=1e-320", ("loop_km",)),
    (lambda: fp.NoiseParams(sigma_ref=0.1, tau_ref=1e-316).sigma_at(1.0),
     "the lag ratio tau / tau_ref is not finite at tau=1.0, tau_ref=1e-316", ("tau_ref",)),
    (lambda: fp.monte_carlo_fidelity(1e308, 100),  # finite, but sigma * z overflows
     "a phase draw sigma * z is not finite at sigma=1e+308", ("sigma",)),
    (lambda: fp.NoiseParams(sigma_ref=1e300, tau_ref=1e-30).sample_trace(1.0, 1.0, seed=1),
     "the phase is not finite at sigma_ref=1e+300", ("sigma_ref",)),  # sigma_at(dt) overflows
    (lambda: fp.budget_per_segment(1000, 2.5, 0.9, 36.5), "n_links must be an integer, got 2.5",
     ("n_links",)),
    (lambda: fp.PhaseTrace(t0=0, dt=1e-6, samples=5.0),
     "samples must be one-dimensional, got shape ()", ("samples",)),
    (lambda: _intensity(samples=np.full((3, 4), 0.5)),
     "samples must be one-dimensional, got shape (3, 4)", ("samples",)),
    (lambda: fp.FringeScan(applied_phase=np.zeros((2, 3)), pulse_area=np.ones((3, 2))),
     "applied_phase must be one-dimensional, got shape (2, 3)", ("applied_phase",)),
    (lambda: _stats(taus=[[1e-6, 2e-6]]), "taus must be one-dimensional, got shape (1, 2)",
     ("taus",)),
    (lambda: fp.increment_sets(_phase(), 1e-6), "taus must be one-dimensional, got shape ()",
     ("taus",)),
    (lambda: _stats(n_increments=[3, 2.7]), "n_increments[1] is not a whole number below 2^63: "
     "2.7", ("n_increments",)),
    (lambda: _stats(n_increments=[np.nan, 1]), "n_increments[0] is not a whole number below "
     "2^63: nan", ("n_increments",)),
    (lambda: _stats(n_increments=[3, 2.0**63]), "n_increments[1] is not a whole number below "
     "2^63: 9.223372036854776e+18", ("n_increments",)),
    (lambda: _histogram(counts=[2.9, 4]), "counts[0] is not a whole number below 2^63: 2.9",
     ("counts",)),
    (lambda: _stats(signed_mean=[0.07, np.nan]), "signed_mean[1] is not finite: nan",
     ("signed_mean",)),
    (lambda: _stats(m2=[-5.0, 0.0]), "m2 must be finite and >= 0", ("m2",)),
    (lambda: _stats(m2=[0.13, np.inf]), "m2 must be finite and >= 0", ("m2",)),
    (lambda: fp.pool_stats([_stats(signed_mean=None)]),
     "cannot pool a curve without signed moments (read from a file?)", ()),
    (lambda: _ramp_curve().lag_index(1.4e-6),
     "lag 1.4e-06 s is not a positive multiple of dt = 1e-06 s", ("tau", "dt")),
    (lambda: _ramp_curve().lag_index(2.6e-6),
     "lag 2.6e-06 s is not a positive multiple of dt = 1e-06 s", ("tau", "dt")),
    (lambda: fp.check_gaussian_relation(_ramp_curve(), 2.6e-6),
     "lag 2.6e-06 s is not a positive multiple of dt = 1e-06 s", ("tau", "dt")),
    (lambda: fp.check_gaussian_relation(_ramp_curve(), 4e-6),
     "no stored lag near tau=4e-06 s", ("tau",)),
    (lambda: fp.simulate_fringe_scan(_NIGHT, 40, 50, 10, detector_noise=np.nan),
     "detector_noise must be finite, got nan", ("detector_noise",)),
    (lambda: fp.simulate_fringe_scan(_NIGHT, 40, 50, 10, detector_noise=np.inf),
     "detector_noise must be finite, got inf", ("detector_noise",)),
    # Finite inputs whose increments, moments, histogram, crossing or fit
    # leave float range.
    (lambda: fp.increments_at(fp.PhaseTrace(t0=0, dt=1e-6, samples=[1.7e308, -1.7e308]), 1e-6),
     "an increment is not finite at tau=1e-06", ("samples",)),
    (lambda: fp.increment_sets(_alternating(8e307), [1e-6, 2e-6]),
     "the dphi curve is not finite at tau_max=2e-06", ("samples",)),
    (lambda: fp.pool_stats([_ramp_curve(1e154), _ramp_curve(-1e154)]),
     "a pooled moment is not finite at curves=2", ("signed_mean", "m2")),
    (lambda: fp.fit_gaussian(np.resize([1.6e308, -1.6e308], 100)),
     "the increment histogram is not finite at min=-1.6e+308, max=1.6e+308", ("increments",)),
    (lambda: fp.fit_gaussian(1e160 + 1e150 * np.linspace(-2.0, 2.0, 400)),
     "the increment histogram is not finite at min=9.999999998e+159, max=1.0000000002e+160",
     ("increments",)),
    (lambda: fp.tau_threshold(_stats(taus=[1e-6, 1e10], mean_abs_change=[0.0, 2e300]), 1e300),
     "the threshold crossing is not finite at target=1e+300", ("target",)),
    (lambda: fp.check_gaussian_relation(_stats(sigma_per_tau=[1e-320, 0.5]), 1e-6),
     "the relative deviation is not finite at sigma_per_tau=1e-320", ("sigma_per_tau",)),
    (lambda: fp.FringeScan(np.linspace(0.0, 6.0, 8), np.full(8, 1.7e308),
                           detector_noise=-1.7e308),
     "a pulse area less the detector floor is not finite at detector_noise=-1.7e+308",
     ("detector_noise", "pulse_area")),
    (lambda: fp.fit_fringe(_fringe_past_range()),
     "the fit's residual rms is not finite at max_area=1.40000001e+308", ("pulse_area",)),
], ids=["lag_grid_dt_zero", "lag_grid_tau_max_below_dt", "exponent_tau_min_zero",
        "exponent_range_reversed", "increment_sets_no_lag", "pool_nothing",
        "pool_off_grid_lag", "pool_off_grid_second_curve", "pool_lags_share_a_step",
        "fit_gaussian_nan",
        "fit_gaussian_inf",
        "stats_wrong_length", "stats_no_sigma", "stats_no_lag", "stats_lag_not_positive",
        "unknown_preset",
        "chain_no_link",
        "lag_grid_max_lags_fraction", "lag_grid_max_lags_float", "fringe_n_points_fraction",
        "fringe_pulses_per_point_fraction", "monte_carlo_n_samples_fraction",
        "monte_carlo_n_samples_bool", "lag_grid_max_lags_bool", "sample_trace_seed_fraction",
        "fringe_seed_fraction", "monte_carlo_seed_float", "fit_gaussian_2d",
        "sagnac_calibration_overflow", "predict_visibility_overflow",
        "sagnac_calibration_delay_overflow",
        "sagnac_sigma_delay_overflow", "sagnac_calibration_delay_underflow",
        "sigma_at_lag_ratio_overflow",
        "monte_carlo_draw_overflow", "sample_trace_one_step_overflow",
        "budget_n_links_fraction", "phase_samples_scalar", "intensity_samples_2d",
        "fringe_2d", "stats_taus_2d", "increment_sets_scalar_lag", "stats_count_fraction",
        "stats_count_nan", "stats_count_too_large", "histogram_count_fraction",
        "stats_signed_mean_nan", "stats_m2_negative", "stats_m2_inf",
        "pool_without_signed_mean", "lag_index_below_half_a_step",
        "lag_index_above_half_a_step", "gaussian_relation_off_grid_lag",
        "gaussian_relation_lag_not_in_curve", "fringe_detector_noise_nan",
        "fringe_detector_noise_inf", "increments_at_overflow", "increment_sets_overflow",
        "pool_stats_overflow", "fit_gaussian_spread_overflow", "fit_gaussian_offset_overflow",
        "tau_threshold_overflow", "gaussian_relation_overflow", "fringe_floor_overflow",
        "fringe_fit_residual_overflow"])
def test_broken_rule_names_its_fields(call, message, fields):
    with pytest.raises(fp.DomainError) as excinfo:
        call()
    assert (str(excinfo.value), excinfo.value.fields) == (message, fields)


# The non-underscore, non-module names of the package, as released.
PUBLIC_NAMES = {
    "BudgetReport", "DEFAULT_GROUP_INDEX", "DomainError", "EmptySegmentsError",
    "FiberPhaseError", "FitError", "FringeFit", "FringeScan", "GaussianHistogram",
    "InsufficientDataError", "IntensityTrace", "NoiseParams",
    "PhaseStats", "PhaseTrace", "ResourceLimitError",
    "SPEED_OF_LIGHT_KM_S", "ThresholdNotReachedError", "TraceParseError",
    "budget_per_segment", "chain_sigma", "check_gaussian_relation",
    "default_lag_grid", "estimate_diffusion", "extract_phase", "fidelity_from_sigma",
    "fit_fringe", "fit_gaussian", "fit_scaling_exponent",
    "from_sagnac_calibration", "increment_sets", "increments_at",
    "monte_carlo_fidelity", "pool_stats", "predict_visibility",
    "preset_params", "read_dphi_curve", "read_fringe_scan", "read_trace",
    "sagnac_effective_sigma", "sigma_from_visibility", "simulate_fringe_scan",
    "simulate_mz_trace", "tau_threshold", "travel_time", "visibility_from_sigma",
    "write_dphi_curve", "write_fringe_scan", "write_histogram", "write_report",
    "write_trace",
}


class TestFiniteArithmetic:
    """The float-range guard: a flag raised in its body is a DomainError over its inputs."""

    @pytest.mark.parametrize("body", [lambda: np.float64(1e308) * 10,
                                      lambda: np.float64(np.inf) - np.inf,
                                      lambda: np.add.reduce(np.full(3, 1e308))],
                             ids=["overflow", "invalid", "array_overflow"])
    def test_flag_names_the_inputs(self, body):
        with pytest.raises(fp.DomainError) as excinfo:
            with finite_arithmetic("x", a=1e308, b=-2):
                body()
        assert (str(excinfo.value), excinfo.value.fields) == (
            "x is not finite at a=1e+308, b=-2", ("a", "b"))
        assert excinfo.value.__suppress_context__

    def test_fields_name_the_inputs_flags(self):
        with pytest.raises(fp.DomainError) as excinfo:
            with finite_arithmetic("a pulse jitter", "sigma_ref", sigma=1e308):
                np.float64(1e308) * 10
        assert (str(excinfo.value), excinfo.value.fields) == (
            "a pulse jitter is not finite at sigma=1e+308", ("sigma_ref",))

    @pytest.mark.parametrize("factor", [1.0, 10.0], ids=["finite", "refused"])
    def test_error_state_restored_without_warning(self, factor):
        with np.errstate(over="warn", invalid="ignore", divide="ignore", under="ignore"):
            before = np.geterr()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    with finite_arithmetic("x", a=factor):
                        np.float64(1.0) / 0.0  # a divide flag stays as it was set
                        np.float64(1e308) * factor
                    refused = False
                except fp.DomainError:
                    refused = True
            assert (refused, np.geterr()) == (factor > 1, before)
        assert caught == []

    def test_other_errors_pass_through(self):
        with pytest.raises(ZeroDivisionError):
            with finite_arithmetic("x", a=1.0):
                1.0 / 0


class TestPublicSurface:
    def test_top_level_names(self):
        names = {name for name, value in vars(fp).items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert names == PUBLIC_NAMES

    def test_each_name_has_one_owner(self):
        # The package re-exports each listed module's __all__, and nothing else.
        lists = [importlib.import_module(f"fiberphase.{module}").__all__
                 for module in ("analysis", "errors", "fileio", "interferometer", "noise",
                                "presets", "repeater")]
        names = {name for name, value in vars(fp).items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert names == set().union(*lists)
        assert sum(map(len, lists)) == len(names)

    def test_modules(self):
        assert {m.name for m in pkgutil.iter_modules(fp.__path__)} == {
            "analysis", "cli", "decimals", "errors", "fileio", "interferometer", "noise",
            "presets", "repeater",
        }

    def test_unread_members_are_gone(self):
        with pytest.raises(fp.ThresholdNotReachedError) as excinfo:
            fp.tau_threshold(_stats(), 1.0)
        for value, name in [(_phase(), "times"), (_scan(), "n_points"),
                            (excinfo.value, "target")]:
            assert not hasattr(value, name)
        assert [f.name for f in dataclasses.fields(fp.GaussianHistogram)] == [
            "sigma", "bin_edges", "counts", "fit_sigma", "degenerate"]
        assert importlib.import_module("fiberphase.presets").__all__ == ["preset_params"]

    def test_cli_exports(self):
        cli = importlib.import_module("fiberphase.cli")
        assert cli.__all__ == ["DEFAULT_SEED", "parse_cli", "run", "main"]

    @pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(fp.__path__)))
    def test_exported_names_resolve(self, module):
        # A module without __all__ exports its public names, which resolve as such.
        namespace = importlib.import_module(f"fiberphase.{module}")
        assert [name for name in getattr(namespace, "__all__", ())
                if not hasattr(namespace, name)] == []

    @pytest.mark.parametrize("module,attribute", [
        (module, attribute) for module, names in TRACED.items() for attribute in names
    ])
    def test_traced_attribute_resolves(self, module, attribute):
        assert callable(getattr(importlib.import_module(f"fiberphase.{module}"), attribute))

    def test_histogram_fit_runs_on_numpy_only(self, tmp_path):
        # A fresh interpreter, since the test suite itself imports scipy.
        script = ("import sys; from fiberphase.cli import main; "
                  "print([main(c.split()) for c in sys.argv[1:]], 'scipy' in sys.modules)")
        commands = [
            f"simulate noise --sigma-ref 0.1 --tau-ref-us 100 --duration-ms 2 --dt-us 1 "
            f"--out {tmp_path}/p.csv",
            f"analyze dphi --in {tmp_path}/p.csv --tau-max-us 100 --out {tmp_path}/c.csv "
            f"--histogram-tau-us 20 --histogram-out {tmp_path}/h.csv",
        ]
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
        done = subprocess.run([sys.executable, "-c", script, *commands], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.splitlines()[-1] == "[0, 0] False", done.stderr
        assert (tmp_path / "h.csv").exists()

    def test_plain_dphi_curve_leaves_numpy_ma_unimported(self, tmp_path):
        # A fresh interpreter, since the test suite itself imports numpy.ma.
        script = ("import sys; from fiberphase.cli import main; "
                  "print([main(c.split()) for c in sys.argv[1:]], 'numpy.ma' in sys.modules)")
        commands = [
            f"simulate noise --sigma-ref 0.1 --tau-ref-us 100 --duration-ms 2 --dt-us 1 "
            f"--out {tmp_path}/p.csv",
            f"analyze dphi --in {tmp_path}/p.csv --tau-max-us 1000 --out {tmp_path}/c.csv",
        ]
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
        done = subprocess.run([sys.executable, "-c", script, *commands], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.splitlines()[-1] == "[0, 0] False", done.stderr
        assert (tmp_path / "c.csv").exists()

    def test_pool_stats_leaves_numpy_ma_unimported(self):
        # A fresh interpreter, since the test suite itself imports numpy.ma.
        script = ("import sys, fiberphase as fp; from math import nan; "
                  "a = fp.PhaseStats([1e-6, 2e-6], [2, 1], 1e-6, [1.5, 3], [0.5 ** 0.5, nan], "
                  "[1.5, 3], [0.5, 0]); "
                  "b = fp.PhaseStats([2e-6, 4e-6], [2, 1], 1e-6, [4.5, 6], [0.5 ** 0.5, nan], "
                  "[4.5, 6], [0.5, 0]); "
                  "pooled = fp.pool_stats([a, b, a]); "
                  "print(pooled.n_increments.tolist(), 'numpy.ma' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.splitlines()[-1] == "[4, 4, 1] False", done.stderr

    def test_no_source_file_names_scipy(self):
        for path in pathlib.Path(ROOT, "src").rglob("*.py"):
            assert "scipy" not in path.read_text(encoding="utf-8"), path

    def test_only_errors_takes_a_handed_over_trace(self):
        # errors.taken is the one owner of the handover: the type check and
        # the reopened buffer.
        for path in pathlib.Path(ROOT, "src").rglob("*.py"):
            if path.name != "errors.py":
                text = path.read_text(encoding="utf-8")
                assert "setflags(write=True)" not in text, path
                assert not re.search(r"isinstance\([^()]*,\s*Adopted\)", text), path

    def test_only_errors_catches_a_float_range_error(self):
        # errors.finite_arithmetic is the one owner of float range; the one
        # other errstate block computes a step count that check_count refuses.
        # math.isfinite stays only on flag values (cli) and report JSON (fileio).
        blocks = {}
        for path in pathlib.Path(ROOT, "src").rglob("*.py"):
            if path.name != "errors.py":
                text = path.read_text(encoding="utf-8")
                assert "FloatingPointError" not in text, path
                assert "is not finite at" not in text, path
                blocks[path.name] = text.count("np.errstate(")
                if path.name not in ("cli.py", "fileio.py"):
                    assert "math.isfinite(" not in text, path
        assert {name: n for name, n in blocks.items() if n} == {"analysis.py": 1}

    @pytest.mark.parametrize("path", [
        "noise.build_process", "noise.PhaseProcess.sample_trace", "analysis.mean_phase_change",
        "analysis.gaussian_widths", "fileio.sha256_of_file",
    ])
    def test_traced_method_resolves(self, path):
        # perfbench reaches these helpers by module path; none is public.
        module, name, *rest = path.split(".")
        value = getattr(importlib.import_module(f"fiberphase.{module}"), name)
        assert callable(functools.reduce(getattr, rest, value))
        lists = [getattr(importlib.import_module(f"fiberphase.{m.name}"), "__all__", ())
                 for m in pkgutil.iter_modules(fp.__path__)]
        assert not hasattr(fp, name) and not any(name in names for names in lists)
