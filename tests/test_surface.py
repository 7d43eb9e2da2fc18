"""Pins of the package surface: the bits of the closed forms, the equality
contract of the value objects, the public names and the benchmark's traced
attributes."""

import hashlib
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys
import types

import numpy as np
import pytest

import fiberphase as fp

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
                values += [params.sigma_ref, params.tau_ref, params.length_km]
                for loop_km in (length_km, 0.5 * length_km, 2.0 * length_km):
                    values.append(fp.sagnac_effective_sigma(params, loop_km))
    for args in [(1000.0, 8, 0.9, 36.5), (600.0, 3, 0.97, 50.0), (100.0, 1, 0.51, 100.0),
                 (2000.0, 16, 0.75, 125.0)]:
        report = fp.budget_per_segment(*args)
        values += [report.total_sigma, report.fidelity, report.visibility,
                   report.per_segment_sigma_limit, report.per_segment_dphi_limit]
    for name in ("day", "night"):
        for hurst in (0.3, 0.5, 0.8):
            params = fp.preset_params(name, hurst=hurst)
            values += [params.sigma_ref, params.tau_ref]
    return values


def test_closed_forms_golden_bits():
    # SHA-256 of the float64 bits: moving a closed form must keep every bit.
    values = np.array(closed_form_values(), dtype=np.float64)
    assert values.size == 697
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    assert digest == "af82bf75120484e187d5d380090e18652587f8cdddce20f023b2bbbbce2d61f1"


def _phase(**changes):
    fields = dict(t0=0.5, dt=1e-6, samples=[0.0, 0.1, np.nan, 0.3, 0.2],
                  segments=((0, 2), (3, 5)))
    fields.update(changes)
    return fp.PhaseTrace(**fields)


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
    fields = dict(sigma=0.1, bin_edges=[-0.5, 0.0, 0.5], counts=[3, 4], fit_amplitude=4.2,
                  fit_mean=np.nan, fit_sigma=0.11, degenerate=False)
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
    (_histogram, "fit_amplitude", 4.0),
    (_histogram, "fit_mean", 0.0),
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
    (lambda: fp.NoiseParams(sigma_ref=0.1, tau_ref=1e-4, length_km=np.inf), "length_km", "inf"),
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
], ids=["params_tau_ref", "params_length_km", "sample_trace_dt", "sample_trace_duration",
        "sagnac_sigma_loop_km", "sagnac_calibration_loop_km", "tau_threshold_target",
        "diffusion_length_km", "budget_total_km", "predict_visibility_length_km",
        "visibility_sigma_inf", "visibility_sigma_nan", "fidelity_sigma_inf",
        "fidelity_sigma_nan", "monte_carlo_sigma_inf", "monte_carlo_sigma_nan",
        "monte_carlo_n_samples_inf", "monte_carlo_n_samples_nan",
        "predict_visibility_diffusion_inf", "predict_visibility_diffusion_nan",
        "diffusion_sigma_inf", "diffusion_sigma_nan",
        "sagnac_calibration_diffusion_inf", "sagnac_calibration_diffusion_nan",
        "budget_n_links_inf", "budget_n_links_nan",
        "travel_time_length_km_inf", "travel_time_length_km_nan",
        "travel_time_group_index_inf", "travel_time_group_index_nan",
        "params_sigma_ref_inf", "params_sigma_ref_nan", "params_group_index",
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


def test_zero_max_lags_names_its_field():
    with pytest.raises(fp.DomainError, match="^max_lags must be >= 1, got 0$") as excinfo:
        fp.default_lag_grid(1e-6, 1e-3, 0)
    assert excinfo.value.fields == ("max_lags",)


def test_seed_keeps_its_stream_however_large():
    # Keys are seeds modulo 2^64, whether the seed is a float, a numpy
    # integer or a Python int too large for a float.
    expected = fp.monte_carlo_fidelity(0.3, 16, seed=7)
    for seed in (7.0, np.int64(7), 7 + 2**64, 7 + 2**1100):
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
    (lambda: _stats(n_increments=[3]), "n_increments must hold one value per lag",
     ("n_increments",)),
    (lambda: fp.PhaseStats(taus=[1e-6], n_increments=[0], dt=1e-6, increments=[[]]),
     "every lag needs at least one increment", ()),
    (lambda: fp.PhaseStats(taus=[1e-6], n_increments=[3], dt=1e-6),
     "give increments=, or mean_abs_change= and sigma_per_tau=", ()),
    (lambda: fp.PhaseStats(taus=[], n_increments=[], dt=1e-6, mean_abs_change=[],
                           sigma_per_tau=[]), "a dphi curve needs at least one lag", ("taus",)),
    (lambda: fp.PhaseStats(taus=[], n_increments=[], dt=1e-6, increments=[]),
     "a dphi curve needs at least one lag", ("taus",)),
    (lambda: fp.preset_params("dusk"), "unknown preset 'dusk'; choose 'day' or 'night'",
     ("name",)),
    (lambda: fp.RepeaterChain(link_lengths=()), "a chain needs at least one link",
     ("link_lengths",)),
    (lambda: fp.RepeaterChain(link_lengths=(10.0, 20.0), link_sigmas=(0.1,)),
     "1 sigmas for 2 links", ("link_sigmas", "link_lengths")),
    (lambda: fp.RepeaterChain(link_lengths=(10.0,), link_sigmas=(-0.1,)),
     "link sigmas must be >= 0, got (-0.1,)", ("link_sigmas",)),
    (lambda: fp.BudgetReport(total_sigma=3.0, fidelity=0.4, visibility=-0.2,
                             per_segment_sigma_limit=1.0, per_segment_dphi_limit=0.8),
     "fidelity must be in [0.5, 1], got 0.4", ("fidelity",)),
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
    (lambda: fp.budget_per_segment(1000, 2.5, 0.9, 36.5), "n_links must be an integer, got 2.5",
     ("n_links",)),
], ids=["lag_grid_dt_zero", "lag_grid_tau_max_below_dt", "exponent_tau_min_zero",
        "exponent_range_reversed", "increment_sets_no_lag", "pool_nothing",
        "stats_wrong_length", "stats_empty_lag", "stats_no_curve", "stats_no_lag",
        "stats_no_lag_increments", "unknown_preset",
        "chain_no_link", "chain_sigma_count", "chain_negative_sigma", "budget_fidelity",
        "lag_grid_max_lags_fraction", "lag_grid_max_lags_float", "fringe_n_points_fraction",
        "fringe_pulses_per_point_fraction", "monte_carlo_n_samples_fraction",
        "budget_n_links_fraction"])
def test_broken_rule_names_its_fields(call, message, fields):
    with pytest.raises(fp.DomainError) as excinfo:
        call()
    assert (str(excinfo.value), excinfo.value.fields) == (message, fields)


# The non-underscore, non-module names of the package, as released.
PUBLIC_NAMES = {
    "BudgetReport", "DEFAULT_GROUP_INDEX", "DomainError", "EmptySegmentsError",
    "FiberPhaseError", "FitError", "FringeFit", "FringeScan", "GaussianHistogram",
    "InsufficientDataError", "IntensityTrace", "NoiseParams", "PhaseProcess",
    "PhaseStats", "PhaseTrace", "RepeaterChain", "ReportDocument", "ResourceLimitError",
    "SPEED_OF_LIGHT_KM_S", "ThresholdNotReachedError", "TraceParseError",
    "budget_per_segment", "build_process", "chain_sigma", "check_gaussian_relation",
    "default_lag_grid", "estimate_diffusion", "extract_phase", "fidelity_from_sigma",
    "fidelity_visibility_convert", "fit_fringe", "fit_gaussian", "fit_scaling_exponent",
    "from_sagnac_calibration", "gaussian_widths", "increment_sets", "increments_at",
    "mean_phase_change", "monte_carlo_fidelity", "pool_stats", "predict_visibility",
    "preset_params", "read_dphi_curve", "read_fringe_scan", "read_trace",
    "sagnac_effective_sigma", "sigma_from_visibility", "simulate_fringe_scan",
    "simulate_mz_trace", "tau_threshold", "travel_time", "visibility_from_sigma",
    "write_dphi_curve", "write_fringe_scan", "write_histogram", "write_report",
    "write_trace",
}


class TestPublicSurface:
    def test_top_level_names(self):
        names = {name for name, value in vars(fp).items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert names == PUBLIC_NAMES

    def test_modules(self):
        assert {m.name for m in pkgutil.iter_modules(fp.__path__)} == {
            "analysis", "cli", "decimals", "errors", "fileio", "interferometer", "noise",
            "presets", "repeater",
        }

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
        script = ("import sys, fiberphase as fp; "
                  "a = fp.PhaseStats([1e-6, 2e-6], [2, 1], 1e-6, increments=[[1, 2], [3]]); "
                  "b = fp.PhaseStats([2e-6, 4e-6], [2, 1], 1e-6, increments=[[4, 5], [6]]); "
                  "pooled = fp.pool_stats([a, b, a]); "
                  "print(pooled.n_increments.tolist(), 'numpy.ma' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.splitlines()[-1] == "[4, 4, 1] False", done.stderr

    def test_no_source_file_names_scipy(self):
        for path in pathlib.Path(ROOT, "src").rglob("*.py"):
            assert "scipy" not in path.read_text(encoding="utf-8"), path

    def test_traced_method_resolves(self):
        from fiberphase import noise

        assert callable(noise.PhaseProcess.sample_trace)
