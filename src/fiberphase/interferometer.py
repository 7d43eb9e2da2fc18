"""Forward models of Sagnac and Mach-Zehnder interferometers.

A Sagnac fringe scan jitters each pulse by the loop's effective phase
noise (the Sagnac model and the gaussian washout live in `noise`).  A
Mach-Zehnder maps the instantaneous arm phase difference phi(t) onto
intensity between calibration extremes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_finite, check_scalar, fields_equal, frozen
from .noise import NoiseParams, SampledTrace, sagnac_effective_sigma

__all__ = [
    "FringeScan",
    "IntensityTrace",
    "simulate_fringe_scan",
    "simulate_mz_trace",
]

# Tolerances on construction-time invariants (fraction of full scale).
_INTENSITY_BOUND_TOL = 1e-3
_AREA_NEGATIVE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FringeScan:
    """Pulse area vs applied phase for a scanned interference fringe.

    `pulse_area[i]` is the mean over `pulses_per_point` pulse repetitions
    at modulator setting `applied_phase[i]`, including the additive
    detector noise floor `detector_noise`; both arrays and the floor must be
    finite.  `i0` > 0 is the mean full intensity of the fringe.
    """

    applied_phase: np.ndarray
    pulse_area: np.ndarray
    detector_noise: float = 0.0
    i0: float = 1.0

    def __post_init__(self):
        check_scalar("detector_noise", self.detector_noise)
        check_scalar("i0", self.i0, positive=True)
        phase = frozen(self.applied_phase, float)
        area = frozen(self.pulse_area, float)
        object.__setattr__(self, "applied_phase", phase)
        object.__setattr__(self, "pulse_area", area)
        if phase.size != area.size:
            raise DomainError(
                f"applied_phase and pulse_area lengths differ: "
                f"{phase.size} vs {area.size}"
            )
        if phase.size < 4:
            raise DomainError(f"a fringe scan needs >= 4 points, got {phase.size}")
        for name, values in (("applied_phase", phase), ("pulse_area", area)):
            check_finite(name, values)
        tol = _AREA_NEGATIVE_TOL * (abs(self.i0) + abs(self.detector_noise)) + 1e-12
        if np.any(area - self.detector_noise < -tol):
            raise DomainError("pulse_area is negative after detector-noise subtraction")

    __eq__ = fields_equal

    @property
    def n_points(self) -> int:
        return int(self.applied_phase.size)


@dataclass(frozen=True, eq=False)
class IntensityTrace(SampledTrace):
    """Detector record of a Mach-Zehnder output vs time.

    i_max/i_min are the finite calibration extremes of the fringe; samples
    must be finite and stay inside them up to a small tolerance.
    """

    i_max: float
    i_min: float

    def __post_init__(self):
        super().__post_init__()
        if not (self.i_max > self.i_min):
            raise DomainError(
                f"i_max must exceed i_min, got i_max={self.i_max}, i_min={self.i_min}"
            )
        check_scalar("i_max", self.i_max)
        check_scalar("i_min", self.i_min)
        check_finite("samples", self.samples)
        if self.samples.size:
            eps = _INTENSITY_BOUND_TOL * (self.i_max - self.i_min)
            if self.samples.min() < self.i_min - eps or self.samples.max() > self.i_max + eps:
                raise DomainError("intensity samples fall outside [i_min, i_max]")


def simulate_fringe_scan(
    process: NoiseParams,
    loop_km: float,
    n_points: int,
    pulses_per_point: int,
    detector_noise: float = 0.0,
    seed: int = 0,
    i0: float = 1.0,
) -> FringeScan:
    """Scan one fringe of a Sagnac loop built on `process`.

    The applied phase spans [0, 2*pi] linearly.  Each point averages
    `pulses_per_point` pulses whose phase jitter is drawn independently
    from N(0, sagnac_effective_sigma^2); scan points use independent
    deterministic substreams of `seed`.
    """
    if n_points < 4:
        raise DomainError(f"n_points must be >= 4, got {n_points}")
    if pulses_per_point < 1:
        raise DomainError(f"pulses_per_point must be >= 1, got {pulses_per_point}")
    sigma = sagnac_effective_sigma(process, loop_km)
    applied = np.linspace(0.0, 2.0 * math.pi, n_points)
    # Point i draws from the key's stream jumped by i * 2^128, as
    # Philox.jumped(i) would give, without building a bit generator per point.
    bits = np.random.Philox(key=int(seed) & (2**64 - 1))
    start = bits.state
    rng = np.random.Generator(bits)
    x = np.empty(pulses_per_point)
    areas = np.empty(n_points)
    for i, phi in enumerate(applied):
        bits.state = start
        bits.advance(i << 128)
        rng.standard_normal(out=x)
        # 0.5 * i0 * (1 + cos(phi + sigma * jitter)), in place
        x *= sigma
        x += phi
        np.cos(x, out=x)
        x += 1.0
        x *= 0.5 * i0
        areas[i] = np.add.reduce(x) / pulses_per_point + detector_noise
    return FringeScan(
        applied_phase=applied,
        pulse_area=areas,
        detector_noise=detector_noise,
        i0=i0,
    )


def simulate_mz_trace(
    process: NoiseParams,
    duration: float,
    dt: float,
    i_max: float = 1.0,
    i_min: float = 0.0,
    phi0: float = 0.0,
    seed: int = 0,
) -> IntensityTrace:
    """Mach-Zehnder intensity record for one phase realization.

    samples[k] = (i_max - i_min)/2 * [1 + cos(phi0 + phi(t_k))] + i_min
    with phi drawn from `process` (noiseless detector).  Deterministic
    per seed.
    """
    if not (i_max > i_min):
        raise DomainError(f"i_max must exceed i_min, got i_max={i_max}, i_min={i_min}")
    phase = process.sample_trace(duration, dt, seed)
    # i_min + 0.5 * (i_max - i_min) * (1 + cos(phi0 + phi)), in one buffer
    values = np.add(phase.samples, phi0)
    np.cos(values, out=values)
    values += 1.0
    values *= 0.5 * (i_max - i_min)
    values += i_min
    np.clip(values, i_min, i_max, out=values)
    return IntensityTrace(t0=phase.t0, dt=dt, samples=values, i_max=i_max, i_min=i_min)
