"""Day/night convenience calibrations for installed urban fiber.

Field measurements on a 36.5 km installed arm put the time needed for a
mean phase change of 0.1 rad around 100 us in daytime (traffic and other
external vibration) and around 350 us at night.  The presets encode
exactly that: sigma_ref = sqrt(pi/2) * 0.1 rad anchored at the measured
threshold time, so the dphi(tau) curve of the true process, the phase that
`sample_trace` draws, crosses 0.1 rad at the anchor for any scaling
exponent.  The field values were read from phase extracted on fringe
slopes, and that gated estimate crosses later.  At H = 0.5, over seeds 0-11
of 1 s records at 1 us with phi0 = pi/2, on `default_lag_grid(1e-6, 2e-3)`
(mean +- sample sd of tau_0.1 / anchor - 1): the true curve crosses at
+0.02 +- 0.86% (night) and -0.07 +- 0.57% (day); the curve of
`simulate_mz_trace`, `extract_phase` and `increment_sets` at +5.87 +- 3.58%
(night) and +8.18 +- 2.04% (day).

At the 182.5 us arm travel time these calibrations imply Mach-Zehnder
visibilities of about 98.6% (day) and 99.6% (night), inside the error
bars of the corresponding field values (97.1 +- 2.4% and 99.0 +- 0.7%).
"""

from __future__ import annotations

from .errors import DomainError
from .noise import MEAN_ABS_FACTOR, NoiseParams

__all__ = ["preset_params"]

DPHI_TARGET = 0.1  # rad, tolerable mean phase change

_ANCHORS = {"day": 100e-6, "night": 350e-6}  # s, measured tau at DPHI_TARGET


def preset_params(name: str, hurst: float = 0.5) -> NoiseParams:
    """Noise parameters for the 'day' or 'night' urban-fiber calibration."""
    if name not in _ANCHORS:
        raise DomainError(f"unknown preset {name!r}; choose 'day' or 'night'", "name")
    return NoiseParams(
        sigma_ref=DPHI_TARGET / MEAN_ABS_FACTOR,
        tau_ref=_ANCHORS[name],
        hurst=hurst,
    )
