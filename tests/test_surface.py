"""Pins of the package surface: the bits of the closed forms, the equality
contract of the value objects, the public names and the benchmark's traced
attributes."""

import hashlib
import importlib
import os
import pkgutil
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
]


class TestValueObjectEquality:
    @pytest.mark.parametrize("build", [_phase, _intensity, _scan, _histogram])
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
            "analysis", "cli", "errors", "fileio", "interferometer", "noise", "presets",
            "repeater",
        }

    @pytest.mark.parametrize("module,attribute", [
        (module, attribute) for module, names in TRACED.items() for attribute in names
    ])
    def test_traced_attribute_resolves(self, module, attribute):
        assert callable(getattr(importlib.import_module(f"fiberphase.{module}"), attribute))

    def test_traced_method_resolves(self):
        from fiberphase import noise

        assert callable(noise.PhaseProcess.sample_trace)
