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

from .errors import (
    Adopted, DomainError, check_all, check_finite, check_scalar, fields_equal, finite_arithmetic,
    frozen, taken,
)
from .noise import NoiseParams, SampledTrace, check_count, sagnac_effective_sigma, seeded_rng

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
        phase = frozen("applied_phase", self.applied_phase, float)
        area = frozen("pulse_area", self.pulse_area, float)
        object.__setattr__(self, "applied_phase", phase)
        object.__setattr__(self, "pulse_area", area)
        if phase.size != area.size:
            raise DomainError(f"applied_phase and pulse_area lengths differ: "
                              f"{phase.size} vs {area.size}", "applied_phase", "pulse_area")
        if phase.size < 4:
            raise DomainError(f"a fringe scan needs >= 4 points, got {phase.size}",
                              "applied_phase")
        for name, values in (("applied_phase", phase), ("pulse_area", area)):
            check_finite(name, values)
        tol = _AREA_NEGATIVE_TOL * (abs(self.i0) + abs(self.detector_noise)) + 1e-12
        with finite_arithmetic("a pulse area less the detector floor", "detector_noise",
                               "pulse_area", detector_noise=self.detector_noise):
            check_all("pulse_area", area - self.detector_noise >= -tol,
                      "pulse_area is negative after detector-noise subtraction")

    __eq__ = fields_equal


@dataclass(frozen=True, eq=False)
class IntensityTrace(SampledTrace):
    """Detector record of a Mach-Zehnder output vs time.

    i_max/i_min are the finite calibration extremes of the fringe, with a
    finite span i_max - i_min; samples must be finite and stay inside them
    up to a small tolerance.
    """

    i_max: float
    i_min: float

    def __post_init__(self):
        super().__post_init__()
        if not (self.i_max > self.i_min):
            raise DomainError(f"i_max must exceed i_min, got i_max={self.i_max}, "
                              f"i_min={self.i_min}", "i_max", "i_min")
        check_scalar("i_max", self.i_max)
        check_scalar("i_min", self.i_min)
        with finite_arithmetic("the span i_max - i_min", i_max=self.i_max, i_min=self.i_min):
            span = np.subtract(float(self.i_max), float(self.i_min))
        check_finite("samples", self.samples)
        if self.samples.size:
            eps = _INTENSITY_BOUND_TOL * span
            lo, hi = self.i_min - eps, self.i_max + eps
            if self.samples.min() < lo or self.samples.max() > hi:
                i = int(np.argmax((self.samples < lo) | (self.samples > hi)))
                raise DomainError(f"samples[{i}] falls outside [i_min, i_max]: "
                                  f"{self.samples[i]}", "samples", index=i)


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
    check_scalar("n_points", n_points, minimum=4, integer=True)
    check_scalar("pulses_per_point", pulses_per_point, minimum=1, integer=True)
    check_scalar("i0", i0, positive=True)
    sigma = sagnac_effective_sigma(process, loop_km)
    check_count("points", n_points, "n_points")
    check_count("pulses per point", pulses_per_point, "pulses_per_point")
    applied = np.linspace(0.0, 2.0 * math.pi, n_points)
    # Point i draws from the key's stream jumped by i * 2^128, as
    # Philox.jumped(i) would give, without building a bit generator per point.
    rng = seeded_rng(seed)
    bits, start = rng.bit_generator, rng.bit_generator.state
    x = np.empty(pulses_per_point)
    areas = np.empty(n_points)
    with finite_arithmetic("a sum of pulse areas", i0=i0):
        for i, phi in enumerate(applied):
            bits.state = start
            bits.advance(i << 128)
            rng.standard_normal(out=x)
            # 0.5 * i0 * (1 + cos(phi + sigma * jitter)), in place
            with finite_arithmetic("a pulse jitter sigma * z", "sigma_ref", sigma=sigma):
                x *= sigma
                x += phi
                np.cos(x, out=x)
            x += 1.0
            x *= 0.5 * i0
            areas[i] = np.add.reduce(x) / pulses_per_point
    # An inf or nan floor sets no flag, and FringeScan names it.
    with finite_arithmetic("a pulse area plus the detector floor", i0=i0,
                           detector_noise=detector_noise):
        areas += detector_noise
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
    # The trace's own checks of dt and the extremes, run before sampling.
    IntensityTrace(t0=0.0, dt=dt, samples=(), i_max=i_max, i_min=i_min)
    check_scalar("phi0", phi0)
    # i_min + 0.5 * (i_max - i_min) * (1 + cos(phi0 + phi)), in the buffer
    # of the phase trace, handed over since no one else sees it.
    phase, values = taken(Adopted(process.sample_trace(duration, dt, seed)), SampledTrace)
    values += phi0
    np.cos(values, out=values)
    values += 1.0
    values *= 0.5 * (i_max - i_min)
    values += i_min
    np.clip(values, i_min, i_max, out=values)
    return IntensityTrace(t0=phase.t0, dt=dt, samples=Adopted(values), i_max=i_max, i_min=i_min)
