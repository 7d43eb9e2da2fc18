"""Calibrated stochastic phase-noise processes for long optical fibers.

The model is a gaussian self-similar phase process with stationary
increments: the standard deviation of phi(t+tau) - phi(t) follows the
power law

    sigma(tau) = sigma_ref * (tau / tau_ref)**hurst

plus an optional deterministic linear drift.  hurst = 0.5 is an ordinary
random walk (independent gaussian increments); other exponents are
synthesized with exact covariance by circulant embedding of fractional
gaussian noise, which is nonnegative definite for every hurst in (0, 1)
(Dietrich & Newsam, SIAM J. Sci. Comput. 18, 1088, 1997; Craigmile,
J. Time Ser. Anal. 24, 505, 2003).

Loop/arm lengths convert to delays through the group index; the default
n = 1.5 corresponds to 5 us of one-way travel time per km of fiber.

The module owns the gaussian relations (visibility V = exp(-sigma^2 / 2),
mean absolute phase change sqrt(2/pi) * sigma) and the Sagnac model (a loop
sees the phase noise at half its travel time) that the other modules use.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceLimitError, check_scalar, fields_equal, frozen

# Propagation speed convention: c/n with c rounded to 3e5 km/s, i.e. exactly
# 5 us/km at the default group index 1.5.
SPEED_OF_LIGHT_KM_S = 3.0e5
DEFAULT_GROUP_INDEX = 1.5

# Hard limit for hurst != 0.5 synthesis (number of increments).
MAX_FGN_STEPS = 1 << 21

MEAN_ABS_FACTOR = math.sqrt(2.0 / math.pi)  # <|x|> / sigma for gaussian x

_log = logging.getLogger(__name__)

__all__ = [
    "SPEED_OF_LIGHT_KM_S",
    "DEFAULT_GROUP_INDEX",
    "MEAN_ABS_FACTOR",
    "NoiseParams",
    "SampledTrace",
    "PhaseTrace",
    "PhaseProcess",
    "build_process",
    "from_sagnac_calibration",
    "sagnac_effective_sigma",
    "sigma_from_visibility",
    "travel_time",
    "visibility_from_sigma",
]


def travel_time(length_km: float, group_index: float = DEFAULT_GROUP_INDEX) -> float:
    """One-way travel time in seconds for `length_km` of fiber.

    36.5 km at n = 1.5 gives 182.5 us.
    """
    if length_km < 0:
        raise DomainError(f"length_km must be >= 0, got {length_km}")
    if group_index <= 1:
        raise DomainError(f"group_index must be > 1, got {group_index}")
    return length_km * group_index / SPEED_OF_LIGHT_KM_S


@dataclass(frozen=True)
class NoiseParams:
    """Calibration of a fiber phase-noise process, and the process itself.

    Immutable and safe to share across threads: sampling is a pure
    function of (params, seed, grid).

    Attributes
    ----------
    sigma_ref : float
        Phase standard deviation (rad) at the reference lag.
    tau_ref : float
        Reference time lag (s).
    hurst : float
        Scaling exponent of the increment power law, in (0, 1).
        0.5 is a pure random walk.
    drift_rate : float
        Deterministic linear phase drift (rad/s).
    length_km : float, optional
        Fiber length the calibration refers to (km).  Defaults to the
        one-way length whose travel time equals tau_ref.
    group_index : float
        Refractive group index used for length <-> delay conversion.
    """

    sigma_ref: float
    tau_ref: float
    hurst: float = 0.5
    drift_rate: float = 0.0
    length_km: float | None = None
    group_index: float = DEFAULT_GROUP_INDEX

    def __post_init__(self):
        if not (self.sigma_ref >= 0):
            raise DomainError(f"sigma_ref must be >= 0, got {self.sigma_ref}")
        if not (self.tau_ref > 0):
            raise DomainError(f"tau_ref must be > 0, got {self.tau_ref}")
        if not (0 < self.hurst < 1):
            raise DomainError(f"hurst out of range (0, 1): got {self.hurst}")
        if not (self.group_index > 1):
            raise DomainError(f"group_index must be > 1, got {self.group_index}")
        if not math.isfinite(self.drift_rate):
            raise DomainError(f"drift_rate must be finite, got {self.drift_rate}")
        if self.length_km is None:
            derived = self.tau_ref * SPEED_OF_LIGHT_KM_S / self.group_index
            object.__setattr__(self, "length_km", derived)
        if not (self.length_km > 0):
            raise DomainError(f"length_km must be > 0, got {self.length_km}")

    def sigma_at(self, tau: float) -> float:
        """Phase-increment standard deviation (rad) at time lag `tau`."""
        if tau < 0:
            raise DomainError(f"tau must be >= 0, got {tau}")
        if tau == 0:
            return 0.0
        return self.sigma_ref * (tau / self.tau_ref) ** self.hurst

    def sample_trace(self, duration: float, dt: float, seed: int) -> PhaseTrace:
        """Simulate one realization of the phase on a regular grid.

        The returned trace starts at t = 0 with phi(0) = 0 and has
        floor(duration/dt) increments, so the final sample sits at
        t = duration when duration is a multiple of dt.  Identical
        (params, duration, dt, seed) give bit-identical output.
        """
        if not (dt > 0):
            raise DomainError(f"dt must be > 0, got {dt}")
        if not (duration >= dt):
            raise DomainError(f"duration must be >= dt, got duration={duration}, dt={dt}")
        n_steps = int(math.floor(duration / dt + 1e-9))

        rng = np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))
        sigma_step = self.sigma_at(dt)
        fgn = sigma_step != 0.0 and self.hurst != 0.5
        if fgn:
            if n_steps > MAX_FGN_STEPS:
                raise ResourceLimitError(
                    f"{n_steps} steps exceeds the hurst != 0.5 synthesis limit "
                    f"of {MAX_FGN_STEPS}"
                )
            # Before the trace buffer exists: the FFT's inputs are freed by
            # then, which keeps the peak down.
            increments = _fgn_circulant(n_steps, self.hurst, rng)
        # phi(0) = 0, then the running sum of the increments, in one buffer.
        samples = np.zeros(n_steps + 1)
        if sigma_step != 0.0:
            if not fgn:
                increments = rng.standard_normal(out=samples[1:])
            increments *= sigma_step
            np.cumsum(increments, out=samples[1:])
        if self.drift_rate != 0.0:
            samples += self.drift_rate * (dt * np.arange(n_steps + 1))
        return PhaseTrace(t0=0.0, dt=dt, samples=samples)


@dataclass(frozen=True, eq=False)
class SampledTrace:
    """Samples on the regular time grid t0 + k * dt.

    `t0` and `dt` are finite, `dt` > 0; `samples` is stored as a read-only
    float copy.
    """

    t0: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        check_scalar("dt", self.dt, positive=True)
        check_scalar("t0", self.t0)
        object.__setattr__(self, "samples", frozen(self.samples, float))

    __eq__ = fields_equal

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.samples.size)


@dataclass(frozen=True, eq=False)
class PhaseTrace(SampledTrace):
    """Sampled phase-vs-time series with valid-region bookkeeping.

    `segments` is a tuple of half-open (start, stop) index ranges marking
    contiguous runs of meaningful samples, which must be finite; samples
    outside every segment are NaN for extracted traces.  A freshly
    simulated trace has one segment covering everything.
    """

    segments: tuple[tuple[int, int], ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        super().__post_init__()
        n = self.n_samples
        if self.segments is None:
            segs = ((0, n),) if n else ()
        else:
            segs = tuple((int(a), int(b)) for a, b in self.segments)
        object.__setattr__(self, "segments", segs)
        prev_stop = 0
        for a, b in self.segments:
            if not (0 <= a < b <= n):
                raise DomainError(f"segment ({a}, {b}) out of bounds for {n} samples")
            if a < prev_stop:
                raise DomainError("segments must be sorted and disjoint")
            prev_stop = b
        bad = np.flatnonzero(self.in_segments() & ~np.isfinite(self.samples))
        if bad.size:
            raise DomainError(
                f"sample {bad[0]} inside a segment is not finite: {self.samples[bad[0]]}"
            )

    def in_segments(self) -> np.ndarray:
        """Boolean mask of the samples that lie inside a segment."""
        bounds = [0, *(i for segment in self.segments for i in segment), self.n_samples]
        # The runs between bounds alternate: outside, inside, outside, ...
        return np.repeat(np.resize([False, True], len(bounds) - 1), np.diff(bounds))


def _fgn_autocov(hurst: float, max_lag: int) -> np.ndarray:
    """Autocovariance of unit-variance fractional gaussian noise at lags
    0..max_lag (max_lag >= 1).  For k >= 2 the second difference of k^{2H}
    is written through expm1/log1p, so it does not cancel at large k."""
    two_h = 2.0 * hurst
    k = np.arange(2, max_lag + 1, dtype=float)
    tail = 0.5 * k**two_h * (
        np.expm1(two_h * np.log1p(1.0 / k)) + np.expm1(two_h * np.log1p(-1.0 / k))
    )
    return np.concatenate([[1.0, math.expm1((two_h - 1.0) * math.log(2.0))], tail])


# Spectra kept by _fgn_spectrum.  An entry holds n - 1 float64 scale factors
# plus two floats: 16 MiB at MAX_FGN_STEPS, so the cache retains at most 64 MiB.
_SPECTRUM_CACHE_SIZE = 4


@functools.lru_cache(maxsize=_SPECTRUM_CACHE_SIZE)
def _fgn_spectrum(n: int, hurst: float) -> tuple[float, float, np.ndarray]:
    """Scale factors of the circulant embedding of n fGn steps:
    sqrt(ev[0]/m), sqrt(ev[n]/m) and the read-only sqrt(ev[1:n]/(2m)), for
    the m = 2n eigenvalues ev (ev[n+1:] mirrors ev[1:n]).  They depend on
    (n, hurst) only, so repeated traces share them."""
    _log.debug("fGn spectrum cache miss: %d steps at hurst=%r", n, hurst)
    gamma = _fgn_autocov(hurst, n)
    eigenvalues = np.fft.rfft(np.concatenate([gamma, gamma[n - 1:0:-1]])).real
    # Safety check only: the embedding of fGn is nonnegative definite.
    if eigenvalues.min() < -1e-8 * eigenvalues.max():
        raise ResourceLimitError(
            f"circulant embedding of {n} steps at hurst={hurst} is not nonnegative definite"
        )
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    m = 2 * n
    half = np.sqrt(eigenvalues[1:n] / (2.0 * m))
    half.setflags(write=False)
    return math.sqrt(eigenvalues[0] / m), math.sqrt(eigenvalues[n] / m), half


def _fgn_circulant(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """Exact sample of n fGn steps: the first n values of the 2n-point real
    sequence whose random half spectrum w has n + 1 entries."""
    first, middle, half = _fgn_spectrum(n, hurst)
    z1 = rng.standard_normal(n + 1)
    z2 = rng.standard_normal(n - 1)
    w = np.empty(n + 1, dtype=complex)
    w[0], w[n] = first * z1[0], middle * z1[n]
    # w[1:n] = half * (z1[1:n] - 1j*z2), written part by part in place.
    np.multiply(half, z1[1:n], out=w.real[1:n])
    np.multiply(half, z2, out=w.imag[1:n])
    np.negative(w.imag[1:n], out=w.imag[1:n])
    del z1, z2  # freed before the FFT allocates its output
    return np.fft.irfft(w, 2 * n, norm="forward")[:n]


def build_process(params: NoiseParams) -> NoiseParams:
    """Check that `params` is a validated NoiseParams and return it."""
    if not isinstance(params, NoiseParams):
        raise DomainError(f"expected NoiseParams, got {type(params).__name__}")
    return params


# The process is fully described by its calibration; the old name stays bound.
PhaseProcess = NoiseParams


def visibility_from_variance(variance: float) -> float:
    """Visibility exp(-variance / 2) left by gaussian phase noise (rad^2)."""
    return math.exp(-0.5 * variance)


def variance_from_visibility(visibility: float) -> float:
    """Gaussian phase variance -2 ln(visibility) (rad^2), visibility in (0, 1]."""
    if not (0 < visibility <= 1):
        raise DomainError(f"visibility must be in (0, 1], got {visibility}")
    return -2.0 * math.log(visibility)


def visibility_from_sigma(sigma: float) -> float:
    """Fringe visibility left by gaussian phase noise of width `sigma`."""
    if sigma < 0:
        raise DomainError(f"sigma must be >= 0, got {sigma}")
    return visibility_from_variance(sigma * sigma)


def sigma_from_visibility(visibility: float) -> float:
    """Gaussian phase-noise width implied by a measured visibility.

    Exact inverse of :func:`visibility_from_sigma` on (0, 1].
    """
    return math.sqrt(variance_from_visibility(visibility))


def sagnac_effective_sigma(process: NoiseParams, loop_km: float) -> float:
    """Effective phase-noise width seen by a Sagnac loop of `loop_km`.

    Counterpropagating pulses sample each fiber element with a mean time
    offset of half the loop travel time, so the loop is sensitive to
    sigma at that half-loop delay.
    """
    if not (loop_km > 0):
        raise DomainError(f"loop_km must be > 0, got {loop_km}")
    return process.sigma_at(travel_time(loop_km, process.group_index) / 2.0)


def from_sagnac_calibration(
    diffusion: float,
    loop_km: float,
    hurst: float = 0.5,
    group_index: float = DEFAULT_GROUP_INDEX,
) -> NoiseParams:
    """Noise parameters from a loop diffusion coefficient D (rad^2/km).

    The reference point is placed at half the loop travel time (the
    effective delay of a fiber loop probed by counterpropagating pulses),
    with sigma_ref = sqrt(D * loop_km), so a loop of length `loop_km`
    built on the result has effective variance D * loop_km exactly.
    """
    if diffusion < 0:
        raise DomainError(f"diffusion coefficient must be >= 0, got {diffusion}")
    if not (loop_km > 0):
        raise DomainError(f"loop_km must be > 0, got {loop_km}")
    return NoiseParams(
        sigma_ref=math.sqrt(diffusion * loop_km),
        tau_ref=travel_time(loop_km, group_index) / 2.0,
        hurst=hurst,
        length_km=loop_km,
        group_index=group_index,
    )
