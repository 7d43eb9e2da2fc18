"""Tests for the repeater phase-budget arithmetic."""

import hashlib
import math

import numpy as np
import pytest

from fiberphase import (
    DomainError,
    budget_per_segment,
    chain_sigma,
    fidelity_from_sigma,
    monte_carlo_fidelity,
    predict_visibility,
)


def mc_variance(sigma):
    """Closed-form variance of (1 + cos(x))/2 for x ~ N(0, sigma^2)."""
    e1 = math.exp(-sigma * sigma / 2)
    e2 = 0.5 * (1 + math.exp(-2 * sigma * sigma))
    return (e2 - e1 * e1) / 4


class TestFidelityFromSigma:
    def test_noiseless(self):
        assert fidelity_from_sigma(0.0) == 1.0

    def test_fully_dephased_limit(self):
        assert fidelity_from_sigma(50.0) == pytest.approx(0.5, abs=1e-12)

    def test_f09_inversion(self):
        # sigma = sqrt(-2 ln(2F-1)) for F=0.9 is 0.6680472308365775
        assert fidelity_from_sigma(0.6680472308365775) == pytest.approx(0.9, rel=1e-12)

    def test_day_value(self):
        assert fidelity_from_sigma(0.36) == pytest.approx(0.9686274478063388, rel=1e-12)

    def test_strictly_decreasing_into_half_one(self):
        sigmas = np.linspace(0.0, 6.0, 300)
        values = [fidelity_from_sigma(s) for s in sigmas]
        assert values[0] == 1.0
        assert np.all(np.diff(values) < 0)
        assert all(0.5 < v <= 1.0 for v in values)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            fidelity_from_sigma(-0.1)


class TestMonteCarloFidelity:
    def test_zero_sigma_exact(self):
        for n in (1, 10, 1000):
            assert monte_carlo_fidelity(0.0, n, seed=0) == 1.0

    @pytest.mark.parametrize("sigma", [0.1, 0.36, 1.0])
    def test_matches_closed_form_within_3_se(self, sigma):
        n = 10**6
        estimate = monte_carlo_fidelity(sigma, n, seed=13)
        bound = 3.0 * math.sqrt(mc_variance(sigma) / n)
        assert abs(estimate - fidelity_from_sigma(sigma)) < bound

    def test_night_value(self):
        assert monte_carlo_fidelity(0.2, 10**6, seed=14) == pytest.approx(
            0.9900993366533777, abs=0.001
        )

    def test_determinism(self):
        assert monte_carlo_fidelity(0.3, 1000, seed=7) == monte_carlo_fidelity(
            0.3, 1000, seed=7
        )

    def test_bad_count(self):
        with pytest.raises(DomainError):
            monte_carlo_fidelity(0.3, 0)


class TestChainSigma:
    def test_from_diffusion(self):
        assert chain_sigma((35.0, 36.5), diffusion=8e-4) == pytest.approx(
            math.sqrt(0.0572), rel=1e-12)

    def test_quadrature_associativity(self):
        lengths = (20.0, 35.0, 36.5, 50.0)
        left = chain_sigma(lengths[:2], 8e-4)
        right = chain_sigma(lengths[2:], 8e-4)
        combined = math.sqrt(left ** 2 + right ** 2)
        assert combined == pytest.approx(chain_sigma(lengths, 8e-4), rel=1e-12)

    @pytest.mark.parametrize("kwargs,message,fields", [
        (dict(link_km=(1e300,), diffusion=1e300), "is not finite at", ("diffusion", "link_km")),
        (dict(link_km=(1.0,), diffusion=math.nan), "diffusion must be finite, got nan",
         ("diffusion",)),
        (dict(link_km=(1.0, math.inf), diffusion=8e-4), "link_km\\[1\\] is not finite: inf",
         ("link_km",)),
    ], ids=["overflow", "nan_diffusion", "inf_length"])
    def test_non_finite_variance_names_the_calibration(self, kwargs, message, fields):
        # A width of inf would read as fidelity 0.5; a nan would pass silently.
        with pytest.raises(DomainError, match=message) as excinfo:
            chain_sigma(**kwargs)
        assert excinfo.value.fields == fields

    def test_invalid_lengths(self):
        with pytest.raises(DomainError):
            chain_sigma((10.0, -1.0), diffusion=1e-4)


def test_chain_sigma_golden_bits():
    # SHA-256 of the float64 bits: a rewrite of the quadrature sum must keep
    # every bit.
    links = ((36.5,), (35.0, 36.5), (125.0,) * 8, (20.0, 35.0, 36.5, 50.0))
    values = [chain_sigma(lengths, diffusion=d)
              for d in np.linspace(0, 2e-3, 9) for lengths in links]
    values = np.array(values, dtype=np.float64)
    assert values.size == 36
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    assert digest == "5fce2da5478d9ea1c7c4e579c5d15840f33bee7f9ed91b7acab18a0992a0b219"


class TestBudgetPerSegment:
    def test_1000_km_8_links(self):
        report = budget_per_segment(1000.0, 8, 0.9, 36.5)
        assert report.per_segment_dphi_limit == pytest.approx(0.1018, abs=0.0005)
        assert report.per_segment_dphi_limit == pytest.approx(
            0.10183420137426842, rel=1e-12
        )
        assert report.per_segment_sigma_limit == pytest.approx(
            0.12763024424460415, rel=1e-12
        )
        assert report.visibility == pytest.approx(0.8, rel=1e-12)

    def test_single_link_whole_budget(self):
        report = budget_per_segment(200.0, 1, 0.87, 200.0)
        expected = math.sqrt(-2.0 * math.log(2 * 0.87 - 1))
        assert report.per_segment_sigma_limit == pytest.approx(expected, rel=1e-12)
        assert report.total_sigma == pytest.approx(expected, rel=1e-12)

    def test_full_link_segment(self):
        report = budget_per_segment(1000.0, 8, 0.9, 125.0)
        assert report.per_segment_sigma_limit == pytest.approx(
            0.2361903635387194, rel=1e-12
        )

    def test_budget_inversion(self):
        # scaling the per-segment allowance back to full links and chaining
        # reproduces the target fidelity exactly
        for total, links, fidelity, segment in [
            (1000.0, 8, 0.9, 36.5),
            (500.0, 4, 0.75, 100.0),
            (120.0, 2, 0.96, 25.0),
        ]:
            report = budget_per_segment(total, links, fidelity, segment)
            diffusion = report.per_segment_sigma_limit ** 2 / segment
            sigma = chain_sigma((total / links,) * links, diffusion)
            assert fidelity_from_sigma(sigma) == pytest.approx(fidelity, abs=1e-12)

    @pytest.mark.parametrize(
        "args",
        [
            (1000.0, 0, 0.9, 36.5),
            (1000.0, 8, 0.5, 36.5),
            (1000.0, 8, 1.0, 36.5),
            (1000.0, 8, 0.9, 126.0),  # longer than one link
            (1000.0, 8, 0.9, 0.0),
        ],
    )
    def test_domain_errors(self, args):
        with pytest.raises(DomainError):
            budget_per_segment(*args)


class TestPredictVisibility:
    def test_250_km_claim(self):
        value = predict_visibility(8e-4, 250.0)
        assert value == pytest.approx(0.9048374180359595, rel=1e-12)
        assert value > 0.90

    def test_no_noise(self):
        assert predict_visibility(0.0, 1000.0) == 1.0

    def test_loop_scale(self):
        assert predict_visibility(8e-4, 71.5) == pytest.approx(
            0.9718051087760714, rel=1e-12
        )

    def test_negative_diffusion(self):
        with pytest.raises(DomainError):
            predict_visibility(-1e-4, 100.0)

