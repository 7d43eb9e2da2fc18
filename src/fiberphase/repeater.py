"""Phase-noise propagation into entanglement-distribution figures of merit.

A single delocalized excitation shared between two nodes,
(|01> + e^{i*phi}|10>)/sqrt(2), dephased by gaussian channel phase noise
of width sigma, keeps fidelity F = (1 + exp(-sigma^2/2)) / 2 to the ideal
state.  Over a chain of links the per-link phase errors add, so the link
variances add in quadrature.  Only phase noise is modeled here; detector
dark counts, multi-photon events, photon distinguishability and memory
errors are separate budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_finite, check_scalar, finite_arithmetic
from .noise import (
    MEAN_ABS_FACTOR,
    check_count,
    seeded_rng,
    variance_from_visibility,
    visibility_from_sigma,
    visibility_from_variance,
)

__all__ = [
    "BudgetReport",
    "fidelity_from_sigma",
    "monte_carlo_fidelity",
    "chain_sigma",
    "budget_per_segment",
    "predict_visibility",
]


@dataclass(frozen=True)
class BudgetReport:
    """End-to-end phase budget of a repeater chain, as `budget_per_segment` derives it."""

    total_sigma: float
    visibility: float
    per_segment_sigma_limit: float
    per_segment_dphi_limit: float


def fidelity_from_sigma(sigma: float) -> float:
    """Entangled-state fidelity under gaussian phase noise of width sigma."""
    return 0.5 * (1.0 + visibility_from_sigma(sigma))


def monte_carlo_fidelity(sigma: float, n_samples: int, seed: int = 0) -> float:
    """Monte Carlo estimate of the same fidelity.

    Draws phase shifts from N(0, sigma^2) and averages the squared overlap
    (1 + cos(delta_phi)) / 2 with the ideal state; converges to
    :func:`fidelity_from_sigma`.  A sigma so large that a draw overflows is
    refused.
    """
    check_scalar("sigma", sigma, minimum=0)
    check_scalar("n_samples", n_samples, minimum=1, integer=True)
    check_count("samples", n_samples, "n_samples")
    with finite_arithmetic("a phase draw sigma * z", sigma=sigma):
        delta = sigma * seeded_rng(seed).standard_normal(n_samples)
    return float(np.mean(0.5 * (1.0 + np.cos(delta))))


def chain_sigma(link_km, diffusion: float) -> float:
    """Total phase-noise width of a chain of links of `link_km` (km) at one diffusion
    coefficient D (rad^2/km): the link variances D * L add in quadrature.  Links
    calibrated by their own widths combine as ``math.hypot(*sigmas)``."""
    lengths = tuple(float(x) for x in link_km)
    if not lengths:
        raise DomainError("a chain needs at least one link", "link_km")
    if any(not (x > 0) for x in lengths):
        raise DomainError(f"link lengths must be > 0, got {lengths}", "link_km")
    check_finite("link_km", np.array(lengths))
    check_scalar("diffusion", diffusion, minimum=0)
    with finite_arithmetic("the chain's phase variance", "diffusion", "link_km",
                           diffusion=diffusion):
        variance = sum(np.float64(diffusion) * x for x in lengths)
    return math.sqrt(variance)


def budget_per_segment(
    total_km: float,
    n_links: int,
    target_fidelity: float,
    segment_km: float,
) -> BudgetReport:
    """Allowed phase noise per fiber segment for an end-to-end fidelity goal.

    The end-to-end budget sigma_tot^2 = -2 ln(2F - 1) is split equally over
    `n_links` links, then scaled down to `segment_km` of a link assuming
    phase variance grows linearly with length.  The per-segment allowance
    is reported both as a gaussian width and as the matching mean absolute
    phase change sqrt(2/pi) * sigma.
    """
    check_scalar("total_km", total_km, positive=True)
    check_scalar("n_links", n_links, minimum=1, integer=True)
    if not (0.5 < target_fidelity < 1.0):
        raise DomainError(f"target_fidelity must be in (0.5, 1), got {target_fidelity}",
                          "target_fidelity")
    link_km = total_km / n_links
    if not (0 < segment_km <= link_km):
        raise DomainError(f"segment_km must be in (0, {link_km:g}] (one link), got {segment_km}",
                          "segment_km")
    visibility = 2.0 * target_fidelity - 1.0
    total_variance = variance_from_visibility(visibility)
    sigma_limit = math.sqrt(total_variance / n_links * (segment_km / link_km))
    return BudgetReport(
        total_sigma=math.sqrt(total_variance),
        visibility=visibility,
        per_segment_sigma_limit=sigma_limit,
        per_segment_dphi_limit=MEAN_ABS_FACTOR * sigma_limit,
    )


def predict_visibility(diffusion: float, length_km: float) -> float:
    """Sagnac visibility predicted for a loop of `length_km` at diffusion D."""
    check_scalar("diffusion", diffusion, minimum=0)
    check_scalar("length_km", length_km, positive=True)
    with finite_arithmetic("the loop variance diffusion * length_km", diffusion=diffusion,
                           length_km=length_km):
        return visibility_from_variance(np.float64(diffusion) * length_km)
