"""Recovery of phase statistics from interferometer records.

The pipeline mirrors how such measurements are reduced in practice:
sinusoidal fringe fits give visibility; intensity traces are inverted to
phase on fringe slopes only (extrema carry no usable phase information);
signed phase increments over a grid of lags give the mean phase change
curve dphi(tau), its gaussian width, threshold times and the scaling
exponent of the underlying noise; Sagnac visibilities convert to a
per-kilometre diffusion coefficient.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable
from dataclasses import InitVar, dataclass, fields

import numpy as np

from .errors import (
    DomainError,
    EmptySegmentsError,
    FitError,
    InsufficientDataError,
    ThresholdNotReachedError,
    check_finite,
    check_scalar,
    fields_equal,
    frozen,
)
from .interferometer import FringeScan, IntensityTrace
from .noise import MEAN_ABS_FACTOR, PhaseTrace, sigma_from_visibility

__all__ = [
    "FringeFit",
    "PhaseStats",
    "GaussianHistogram",
    "fit_fringe",
    "extract_phase",
    "default_lag_grid",
    "increments_at",
    "increment_sets",
    "pool_stats",
    "mean_phase_change",
    "gaussian_widths",
    "fit_gaussian",
    "check_gaussian_relation",
    "tau_threshold",
    "fit_scaling_exponent",
    "estimate_diffusion",
]

_log = logging.getLogger(__name__)

DEFAULT_BAND = (0.2, 0.8)
DEFAULT_MAX_LAGS = 100


@dataclass(frozen=True)
class FringeFit:
    """Result of a linear sinusoidal fit to a fringe scan."""

    offset: float
    cos_amp: float
    sin_amp: float
    visibility: float
    residual_rms: float

    def __post_init__(self):
        if not (self.offset > 0):
            raise FitError(f"non-positive fringe offset after fit: {self.offset}")
        if not (-1e-9 <= self.visibility <= 1.0 + 1e-6):
            raise FitError(f"fitted visibility out of range: {self.visibility}")


@dataclass(frozen=True, eq=False)
class PhaseStats:
    """Immutable dphi(tau) curve: per-lag summaries of the signed increments.

    The sample interval `dt` is finite and > 0; the lags `taus` are finite
    and strictly increasing.  Per lag: the count `n_increments`, the mean
    absolute increment `mean_abs_change` (dphi), the sample standard
    deviation `sigma_per_tau` (ddof=1; NaN below two increments), and the
    signed mean and sum of squared deviations `m2` that :func:`pool_stats`
    merges.  Arrays are read-only copies.  Give either per-lag `increments`
    (any iterable of arrays, reduced here and not stored) or the curve
    `mean_abs_change` and `sigma_per_tau`; a curve read from a file has no
    signed moments and cannot be pooled.
    """

    taus: np.ndarray
    n_increments: np.ndarray
    dt: float
    mean_abs_change: np.ndarray | None = None
    sigma_per_tau: np.ndarray | None = None
    signed_mean: np.ndarray | None = None
    m2: np.ndarray | None = None
    increments: InitVar[Iterable[np.ndarray] | None] = None

    def __post_init__(self, increments):
        check_scalar("dt", self.dt, positive=True)
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "dt"}
        if increments is not None:
            n, dphi, mean, m2 = np.array([_moments(x) for x in increments]).reshape(-1, 4).T
            if not np.array_equal(self.n_increments, n):
                raise DomainError("n_increments does not match the increment arrays")
            values.update(mean_abs_change=dphi, sigma_per_tau=_sample_sigma(n, m2),
                          signed_mean=mean, m2=m2)
        elif self.mean_abs_change is None or self.sigma_per_tau is None:
            raise DomainError("give increments=, or mean_abs_change= and sigma_per_tau=")
        for name, value in values.items():
            if value is not None:
                value = frozen(value, int if name == "n_increments" else float)
                if value.shape != np.shape(self.taus):
                    raise DomainError(f"{name} must hold one value per lag")
                object.__setattr__(self, name, value)
        check_finite("taus", self.taus)
        if np.any(np.diff(self.taus) <= 0):
            raise DomainError("lags must be strictly increasing")

    def lag_index(self, tau: float) -> int:
        """Index of the stored lag matching `tau` (within half a sample)."""
        idx = int(np.argmin(np.abs(self.taus - tau)))
        if abs(self.taus[idx] - tau) > 0.5 * self.dt:
            raise DomainError(f"no stored lag near tau={tau:g} s")
        return idx


del PhaseStats.increments  # the InitVar's class default; instances hold no increments


def _moments(increments) -> tuple[int, float, float, float]:
    # (n, mean |x|, mean x, sum of squared deviations), reduced exactly as
    # np.mean(np.abs(x)) and np.std(x, ddof=1) do, so the curve is
    # bit-identical to them; two-pass m2 does not cancel under drift.
    x = np.asarray(increments, dtype=float)
    n = x.size
    if n == 0:
        raise DomainError("every lag needs at least one increment")
    mean = np.add.reduce(x) / n
    dev = x - mean
    return n, np.add.reduce(np.abs(x)) / n, mean, np.add.reduce(np.square(dev, out=dev))


def _sample_sigma(n: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """sqrt(m2 / (n - 1)) per lag; NaN where n < 2."""
    sigma = np.full(n.shape, np.nan)
    ok = n >= 2
    sigma[ok] = np.sqrt(m2[ok] / (n[ok] - 1))
    return sigma


@dataclass(frozen=True, eq=False)
class GaussianHistogram:
    """Binned increment distribution at one lag, with a gaussian fit.

    `sigma` is the sample standard deviation (the primary estimate); the
    fit_* fields come from a least-squares gaussian on the histogram and
    exist for reporting/figures only.  `degenerate` marks distributions
    with zero spread, where no fit is possible.  `bin_edges` and `counts`
    are read-only copies.
    """

    sigma: float
    bin_edges: np.ndarray
    counts: np.ndarray
    fit_amplitude: float
    fit_mean: float
    fit_sigma: float
    degenerate: bool

    def __post_init__(self):
        object.__setattr__(self, "bin_edges", frozen(self.bin_edges, float))
        object.__setattr__(self, "counts", frozen(self.counts, int))

    __eq__ = fields_equal

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


def fit_fringe(scan: FringeScan) -> FringeFit:
    """Least-squares sinusoid through a fringe scan.

    The detector noise floor is subtracted, then
    I ~ a0 + a1*cos(phi) + a2*sin(phi) is solved as a linear problem on
    the known applied phases; visibility is sqrt(a1^2 + a2^2) / a0.
    """
    phi = scan.applied_phase
    y = scan.pulse_area - scan.detector_noise
    design = np.column_stack([np.ones_like(phi), np.cos(phi), np.sin(phi)])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 3:
        raise FitError("degenerate phase grid: singular design matrix")
    a0, a1, a2 = coef
    residual = design @ coef - y
    return FringeFit(
        offset=float(a0),
        cos_amp=float(a1),
        sin_amp=float(a2),
        visibility=float(math.hypot(a1, a2) / a0),
        residual_rms=float(np.sqrt(np.mean(residual**2))),
    )


def extract_phase(
    trace: IntensityTrace, band: tuple[float, float] = DEFAULT_BAND
) -> PhaseTrace:
    """Invert an intensity record to phase on fringe slopes.

    The intensity is normalized to u = (I - i_min) / (i_max - i_min) and
    clamped to [0, 1]; maximal contiguous runs with u inside `band`
    become the valid segments (runs of a single sample are dropped; they
    carry no increment information).  Within each segment the phase is
    arccos(2u - 1); the band must exclude the extrema u = 0 and 1, where
    the phase folds.  Samples outside all segments are NaN.
    """
    lo, hi = band
    if not (0 < lo < hi < 1):
        raise DomainError(f"band must satisfy 0 < lo < hi < 1, got ({lo}, {hi})")
    u = np.subtract(trace.samples, trace.i_min)
    u /= trace.i_max - trace.i_min
    np.clip(u, 0.0, 1.0, out=u)
    in_band = (u >= lo) & (u <= hi)

    samples = np.full(u.size, np.nan)
    segments = []
    padded = np.concatenate([[0], in_band.astype(np.int8), [0]])
    edges = np.flatnonzero(np.diff(padded))
    for start, stop in zip(edges[::2], edges[1::2]):
        if stop - start < 2:
            continue
        phi = samples[start:stop]  # arccos(2u - 1), written in place
        np.multiply(u[start:stop], 2.0, out=phi)
        phi -= 1.0
        np.arccos(phi, out=phi)
        segments.append((int(start), int(stop)))
    if len(segments) < edges.size // 2:
        _log.debug("extract_phase: dropped %d one-sample runs inside the band",
                   edges.size // 2 - len(segments))
    if not segments:
        raise EmptySegmentsError(
            "no contiguous run of >= 2 samples inside the intensity band "
            f"[{lo}, {hi}]"
        )
    return PhaseTrace(t0=trace.t0, dt=trace.dt, samples=samples, segments=tuple(segments))


def default_lag_grid(dt: float, tau_max: float, max_lags: int = DEFAULT_MAX_LAGS) -> np.ndarray:
    """Lags (s) from dt up to tau_max: every sample step, geometrically
    thinned once there would be more than `max_lags` of them."""
    if not (dt > 0) or not (tau_max >= dt):
        raise DomainError(f"need tau_max >= dt > 0, got dt={dt}, tau_max={tau_max}")
    k_max = int(math.floor(tau_max / dt + 1e-9))
    if k_max <= max_lags:
        ks = np.arange(1, k_max + 1)
    else:
        ks = np.unique(np.round(np.geomspace(1, k_max, max_lags)).astype(int))
    return ks * dt


def _lag_steps(tau: float, dt: float) -> int:
    k = int(round(tau / dt))
    if k < 1 or abs(tau - k * dt) > 1e-6 * dt:
        raise DomainError(f"lag {tau:g} s is not a positive multiple of dt = {dt:g} s")
    return k


def _increments(phase: PhaseTrace, steps):
    """Signed increments at each lag step in `steps`, one array at a time.

    The in-segment samples are concatenated once, with `room`, the number of
    samples from each one to the end of its segment.  A pair (i, i + k) lies
    in one segment exactly when room[i] > k, and then keeps lag k in the
    concatenation, so each lag reduces over in-segment samples only.
    """
    lengths = np.array([b - a for a, b in phase.segments], dtype=int)
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(lengths.sum())
    samples = phase.samples[phase.in_segments()]
    for k in steps:
        yield (samples[k:] - samples[:-k])[room[:-k] > k]


def increments_at(phase: PhaseTrace, tau: float) -> np.ndarray:
    """Signed increments phi(t + tau) - phi(t) at one lag, in time order.

    All overlapping pairs are used; pairs spanning a segment boundary are
    discarded (the phase is unobservable through omitted extrema).  `tau`
    must be a positive multiple of the sample interval.
    """
    return next(_increments(phase, [_lag_steps(tau, phase.dt)]))


def increment_sets(phase: PhaseTrace, taus) -> PhaseStats:
    """The dphi(tau) curve of a phase trace over a grid of lags.

    The increments of :func:`increments_at` are made and reduced one lag at
    a time, so memory is O(samples) whatever the number of lags.  Lags
    with no valid pair are dropped.
    """
    taus = np.asarray(taus, dtype=float)
    if taus.size == 0:
        raise DomainError("at least one lag is required")
    if np.any(np.diff(taus) <= 0):
        raise DomainError("lags must be strictly increasing")
    steps = np.array([_lag_steps(tau, phase.dt) for tau in taus])
    lengths = np.array([b - a for a, b in phase.segments])
    counts = np.array([np.maximum(lengths - k, 0).sum() for k in steps])
    if not counts.all():
        _log.debug("increment_sets: dropped %d lags with no valid pair, from %.6g s",
                   np.count_nonzero(counts == 0), taus[counts == 0][0])
    steps, counts = steps[counts > 0], counts[counts > 0]
    if steps.size == 0:
        raise InsufficientDataError("no lag has a valid increment pair on any segment")
    return PhaseStats(steps * phase.dt, counts, phase.dt, increments=_increments(phase, steps))


def pool_stats(stats_list: list[PhaseStats]) -> PhaseStats:
    """Merge the curves of repeated measurements of one process.

    Inputs share one sample interval and carry signed moments (a curve read
    from a file does not).  Lags are merged over the union of the grids by
    the pairwise update of Chan, Golub & LeVeque (1979): the result is the
    curve of the concatenated increments up to rounding.
    """
    if not stats_list:
        raise DomainError("nothing to pool")
    dt = stats_list[0].dt
    if any(s.dt != dt for s in stats_list):
        raise DomainError("pooled statistics must share the same sample interval")
    if any(s.m2 is None for s in stats_list):
        raise DomainError("cannot pool a curve without signed moments (read from a file?)")
    steps = [np.rint(s.taus / dt).astype(int) for s in stats_list]
    ks = np.unique(np.concatenate(steps))
    n, dphi, mean, m2 = np.zeros((4, ks.size))
    for s, k in zip(stats_list, steps):
        i = np.searchsorted(ks, k)
        total = n[i] + s.n_increments
        weight = s.n_increments / total
        delta = s.signed_mean - mean[i]
        dphi[i] += (s.mean_abs_change - dphi[i]) * weight
        mean[i] += delta * weight
        m2[i] += s.m2 + delta * delta * n[i] * weight
        n[i] = total
    return PhaseStats(taus=ks * dt, n_increments=n, dt=dt, mean_abs_change=dphi,
                      sigma_per_tau=_sample_sigma(n, m2), signed_mean=mean, m2=m2)


def mean_phase_change(stats: PhaseStats) -> np.ndarray:
    """Mean absolute phase change dphi(tau) per stored lag."""
    return stats.mean_abs_change


def gaussian_widths(stats: PhaseStats) -> np.ndarray:
    """Sample standard deviation of the increments at every stored lag (NaN
    below two increments): the primary estimator of :func:`fit_gaussian`."""
    return stats.sigma_per_tau


def fit_gaussian(increments) -> GaussianHistogram:
    """Gaussian width of one lag's increments, e.g. ``increments_at(phase, tau)``.

    The primary sigma is the (bias-free, bin-free) sample standard deviation;
    a ceil(sqrt(n))-bin histogram with a least-squares gaussian is attached
    for reporting.  Needs >= 100 increments.
    """
    inc = np.asarray(increments, dtype=float)
    if inc.size < 100:
        raise InsufficientDataError(f"need >= 100 increments, have {inc.size}")
    sigma = float(np.std(inc, ddof=1))
    n_bins = math.ceil(math.sqrt(inc.size))
    degenerate = sigma == 0.0
    if degenerate:
        # All increments identical: a single spike, nothing to fit.
        center = float(inc[0])
        width = max(abs(center) * 1e-6, 1e-12)
        edges = np.linspace(center - width, center + width, n_bins + 1)
        counts, _ = np.histogram(inc, bins=edges)
        amp, mu, fit_sig = math.nan, math.nan, math.nan
    else:
        counts, edges = np.histogram(inc, bins=n_bins)
        centers = 0.5 * (edges[:-1] + edges[1:])
        amp, mu, fit_sig = _lsq_gaussian(centers, counts, sigma)
    return GaussianHistogram(
        sigma=sigma,
        bin_edges=edges,
        counts=counts,
        fit_amplitude=amp,
        fit_mean=mu,
        fit_sigma=fit_sig,
        degenerate=degenerate,
    )


def _lsq_gaussian(x: np.ndarray, y: np.ndarray, sigma0: float) -> tuple[float, float, float]:
    from scipy.optimize import curve_fit

    def model(t, amp, mu, sig):
        return amp * np.exp(-0.5 * ((t - mu) / sig) ** 2)

    p0 = (float(y.max()), float(np.average(x, weights=np.maximum(y, 1e-12))), sigma0)
    try:
        popt, _ = curve_fit(model, x, y.astype(float), p0=p0, maxfev=10000)
        return float(popt[0]), float(popt[1]), float(abs(popt[2]))
    except RuntimeError:
        return math.nan, math.nan, math.nan


def check_gaussian_relation(stats: PhaseStats, tau: float) -> float:
    """Relative deviation from the gaussian identity dphi = sqrt(2/pi)*sigma.

    Returns |dphi - sqrt(2/pi)*sigma| / (sqrt(2/pi)*sigma) at the lag
    nearest `tau`; NaN (undefined) when sigma is zero or unknown.
    """
    idx = stats.lag_index(tau)
    sigma = stats.sigma_per_tau[idx]
    if sigma == 0.0:
        return math.nan
    expected = MEAN_ABS_FACTOR * sigma
    return float(abs(stats.mean_abs_change[idx] - expected) / expected)


def tau_threshold(stats: PhaseStats, target: float) -> float:
    """First lag at which dphi(tau) reaches `target`, by linear interpolation.

    If the curve already starts at or above the target, the first stored
    lag is returned (the crossing happened below the resolved range).
    Raises ThresholdNotReachedError, carrying the maximum observed value,
    when the curve never gets there.
    """
    if not (target > 0):
        raise DomainError(f"target must be > 0, got {target}")
    curve = stats.mean_abs_change
    above = np.flatnonzero(curve >= target)
    if above.size == 0:
        raise ThresholdNotReachedError(target, float(curve.max()))
    i = int(above[0])
    if i == 0:
        return float(stats.taus[0])
    t0, t1 = stats.taus[i - 1], stats.taus[i]
    y0, y1 = curve[i - 1], curve[i]
    return float(t0 + (target - y0) * (t1 - t0) / (y1 - y0))


def fit_scaling_exponent(stats: PhaseStats, tau_range: tuple[float, float]) -> float:
    """Slope of log dphi vs log tau over lags inside `tau_range`."""
    lo, hi = tau_range
    if not (0 < lo < hi):
        raise DomainError(f"need 0 < tau_min < tau_max, got ({lo}, {hi})")
    curve = stats.mean_abs_change
    mask = (stats.taus >= lo) & (stats.taus <= hi)
    if mask.sum() < 3:
        raise DomainError(
            f"need >= 3 lags in [{lo:g}, {hi:g}] s, have {int(mask.sum())}"
        )
    if np.any(curve[mask] <= 0):
        raise DomainError("dphi must be positive over the fit range")
    slope, _ = np.polyfit(np.log(stats.taus[mask]), np.log(curve[mask]), 1)
    return float(slope)


def estimate_diffusion(
    length_km: float,
    *,
    visibility: float | None = None,
    sigma: float | None = None,
) -> float:
    """Per-kilometre phase-diffusion coefficient D = sigma^2 / L (rad^2/km).

    Give exactly one of `visibility` (converted through the gaussian
    washout V = exp(-sigma^2/2), i.e. D = -2 ln(V) / L) or `sigma`.
    """
    if not (length_km > 0):
        raise DomainError(f"length_km must be > 0, got {length_km}")
    if (visibility is None) == (sigma is None):
        raise DomainError("give exactly one of visibility= or sigma=")
    if visibility is not None:
        sigma = sigma_from_visibility(visibility)
    if sigma < 0:
        raise DomainError(f"sigma must be >= 0, got {sigma}")
    return sigma * sigma / length_km
