"""Day/night convenience calibrations for installed urban fiber.

Field measurements on a 36.5 km installed arm put the time needed for a
mean phase change of 0.1 rad around 100 us in daytime (traffic and other
external vibration) and around 350 us at night.  The presets encode
exactly that: sigma_ref = sqrt(pi/2) * 0.1 rad anchored at the measured
threshold time, so the simulated dphi(tau) curve crosses 0.1 rad at the
anchor for any scaling exponent.

At the 182.5 us arm travel time these calibrations imply Mach-Zehnder
visibilities of about 98.6% (day) and 99.6% (night), inside the error
bars of the corresponding field values (97.1 +- 2.4% and 99.0 +- 0.7%).
"""

from __future__ import annotations

from .errors import DomainError
from .noise import MEAN_ABS_FACTOR, NoiseParams

__all__ = [
    "DPHI_TARGET",
    "DAY_TAU_THRESHOLD_S",
    "NIGHT_TAU_THRESHOLD_S",
    "PRESET_ARM_KM",
    "preset_params",
]

DPHI_TARGET = 0.1  # rad, tolerable mean phase change
DAY_TAU_THRESHOLD_S = 100e-6
NIGHT_TAU_THRESHOLD_S = 350e-6
PRESET_ARM_KM = 36.5

_ANCHORS = {
    "day": DAY_TAU_THRESHOLD_S,
    "night": NIGHT_TAU_THRESHOLD_S,
}


def preset_params(name: str, hurst: float = 0.5) -> NoiseParams:
    """Noise parameters for the 'day' or 'night' urban-fiber calibration."""
    if name not in _ANCHORS:
        raise DomainError(f"unknown preset {name!r}; choose 'day' or 'night'")
    return NoiseParams(
        sigma_ref=DPHI_TARGET / MEAN_ABS_FACTOR,
        tau_ref=_ANCHORS[name],
        hurst=hurst,
        length_km=PRESET_ARM_KM,
    )
