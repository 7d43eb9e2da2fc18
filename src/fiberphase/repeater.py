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

from .errors import DomainError, check_scalar
from .noise import (
    MEAN_ABS_FACTOR,
    seeded_rng,
    variance_from_visibility,
    visibility_from_sigma,
    visibility_from_variance,
)

__all__ = [
    "RepeaterChain",
    "BudgetReport",
    "fidelity_from_sigma",
    "monte_carlo_fidelity",
    "chain_sigma",
    "budget_per_segment",
    "predict_visibility",
    "fidelity_visibility_convert",
]


@dataclass(frozen=True)
class RepeaterChain:
    """Elementary links of a repeater: lengths plus a noise calibration.

    Either per-link sigmas (rad) or a shared diffusion coefficient
    (rad^2/km) must be given; explicit sigmas take precedence.
    """

    link_lengths: tuple[float, ...]
    link_sigmas: tuple[float, ...] | None = None
    diffusion: float | None = None

    def __post_init__(self):
        lengths = tuple(float(x) for x in self.link_lengths)
        object.__setattr__(self, "link_lengths", lengths)
        if not lengths:
            raise DomainError("a chain needs at least one link", "link_lengths")
        if any(not (x > 0) for x in lengths):
            raise DomainError(f"link lengths must be > 0, got {lengths}", "link_lengths")
        if self.link_sigmas is not None:
            sigmas = tuple(float(x) for x in self.link_sigmas)
            object.__setattr__(self, "link_sigmas", sigmas)
            if len(sigmas) != len(lengths):
                raise DomainError(f"{len(sigmas)} sigmas for {len(lengths)} links",
                                  "link_sigmas", "link_lengths")
            if any(x < 0 for x in sigmas):
                raise DomainError(f"link sigmas must be >= 0, got {sigmas}", "link_sigmas")
        elif self.diffusion is None:
            raise DomainError("give link_sigmas or a diffusion coefficient",
                              "link_sigmas", "diffusion")
        if self.diffusion is not None and self.diffusion < 0:
            raise DomainError(f"diffusion must be >= 0, got {self.diffusion}", "diffusion")


@dataclass(frozen=True)
class BudgetReport:
    """End-to-end phase budget of a repeater chain."""

    total_sigma: float
    fidelity: float
    visibility: float
    per_segment_sigma_limit: float
    per_segment_dphi_limit: float

    def __post_init__(self):
        if not (0.5 <= self.fidelity <= 1.0):
            raise DomainError(f"fidelity must be in [0.5, 1], got {self.fidelity}", "fidelity")
        if abs(self.visibility - (2.0 * self.fidelity - 1.0)) > 1e-12:
            raise DomainError("visibility must equal 2*fidelity - 1", "visibility", "fidelity")


def fidelity_from_sigma(sigma: float) -> float:
    """Entangled-state fidelity under gaussian phase noise of width sigma."""
    return 0.5 * (1.0 + visibility_from_sigma(sigma))


def monte_carlo_fidelity(sigma: float, n_samples: int, seed: int = 0) -> float:
    """Monte Carlo estimate of the same fidelity.

    Draws phase shifts from N(0, sigma^2) and averages the squared overlap
    (1 + cos(delta_phi)) / 2 with the ideal state; converges to
    :func:`fidelity_from_sigma`.
    """
    check_scalar("sigma", sigma, minimum=0)
    check_scalar("n_samples", n_samples, minimum=1, integer=True)
    delta = sigma * seeded_rng(seed).standard_normal(n_samples)
    return float(np.mean(0.5 * (1.0 + np.cos(delta))))


def chain_sigma(chain: RepeaterChain) -> float:
    """Total phase-noise width of a chain: link variances add in quadrature."""
    if chain.link_sigmas is not None:
        variances, fields = [s * s for s in chain.link_sigmas], ("link_sigmas",)
    else:
        variances = [chain.diffusion * length for length in chain.link_lengths]
        fields = ("diffusion", "link_lengths")
    variance = sum(variances)
    if not math.isfinite(variance):
        raise DomainError(f"the chain's phase variance is not finite: {variance}", *fields)
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
    total_variance = variance_from_visibility(2.0 * target_fidelity - 1.0)
    link_variance = total_variance / n_links
    segment_variance = link_variance * (segment_km / link_km)
    sigma_limit = math.sqrt(segment_variance)
    return BudgetReport(
        total_sigma=math.sqrt(total_variance),
        fidelity=target_fidelity,
        visibility=2.0 * target_fidelity - 1.0,
        per_segment_sigma_limit=sigma_limit,
        per_segment_dphi_limit=MEAN_ABS_FACTOR * sigma_limit,
    )


def predict_visibility(diffusion: float, length_km: float) -> float:
    """Sagnac visibility predicted for a loop of `length_km` at diffusion D."""
    check_scalar("diffusion", diffusion, minimum=0)
    check_scalar("length_km", length_km, positive=True)
    return visibility_from_variance(diffusion * length_km)


def fidelity_visibility_convert(value: float, direction: str) -> float:
    """Exact affine conversion between fidelity and visibility.

    direction = "to_visibility": F in [0.5, 1] -> V = 2F - 1
    direction = "to_fidelity":   V in [0, 1]   -> F = (1 + V) / 2
    """
    if direction == "to_visibility":
        if not (0.5 <= value <= 1.0):
            raise DomainError(f"fidelity must be in [0.5, 1], got {value}", "value")
        return 2.0 * value - 1.0
    if direction == "to_fidelity":
        if not (0.0 <= value <= 1.0):
            raise DomainError(f"visibility must be in [0, 1], got {value}", "value")
        return 0.5 * (1.0 + value)
    raise DomainError(
        f"direction must be 'to_visibility' or 'to_fidelity', got {direction!r}", "direction"
    )
