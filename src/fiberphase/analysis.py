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
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    Adopted,
    DomainError,
    EmptySegmentsError,
    FitError,
    InsufficientDataError,
    ThresholdNotReachedError,
    check_all,
    check_finite,
    check_scalar,
    fields_equal,
    finite_arithmetic,
    frozen,
    taken,
)
from .interferometer import FringeScan, IntensityTrace
from .noise import MEAN_ABS_FACTOR, PhaseTrace, check_count, sigma_from_visibility, step_count

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
    "fit_gaussian",
    "check_gaussian_relation",
    "tau_threshold",
    "fit_scaling_exponent",
    "estimate_diffusion",
]

_log = logging.getLogger(__name__)

DEFAULT_BAND = (0.2, 0.8)
DEFAULT_MAX_LAGS = 100
_EDGE_CHUNK = 1 << 16  # samples of the in-band mask that extract_phase holds at once


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

    The sample interval `dt` is finite and > 0; the lags `taus`, one or more,
    are finite, > 0 and strictly increasing.  Per lag: the count `n_increments`
    (a whole number >= 1), the mean absolute increment `mean_abs_change`
    (dphi; finite, >= 0), the sample standard deviation `sigma_per_tau`
    (ddof=1; finite, >= 0, NaN only below two increments), and the signed
    mean (finite) and sum of squared deviations `m2` (finite, >= 0) that
    :func:`pool_stats` merges.  Arrays are one-dimensional read-only copies.
    A curve is built from these per-lag fields; one read from a file has no
    signed moments.
    """

    taus: np.ndarray
    n_increments: np.ndarray
    dt: float
    mean_abs_change: np.ndarray
    sigma_per_tau: np.ndarray
    signed_mean: np.ndarray | None = None
    m2: np.ndarray | None = None

    def __post_init__(self):
        check_scalar("dt", self.dt, positive=True)
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            if name != "dt" and not (value is None and f.default is None):  # unset moments
                value = frozen(name, value, int if name == "n_increments" else float)
                if value.shape != np.shape(self.taus):
                    raise DomainError(f"{name} must hold one value per lag", name)
                object.__setattr__(self, name, value)
        if not self.taus.size:
            raise DomainError("a dphi curve needs at least one lag", "taus")
        check_finite("taus", self.taus)
        check_all("taus", self.taus > 0, "lags must be > 0")
        check_all("taus", np.diff(self.taus, prepend=-np.inf) > 0,
                  "lags must be strictly increasing")
        check_finite("mean_abs_change", self.mean_abs_change)
        sigma, n = self.sigma_per_tau, self.n_increments
        check_all("mean_abs_change", (self.mean_abs_change >= 0) & (n >= 1),
                  "need mean_abs_change >= 0 and n_increments >= 1 at every lag")
        check_all("sigma_per_tau", (sigma >= 0) & (sigma < np.inf) | np.isnan(sigma) & (n < 2),
                  "sigma_per_tau must be finite and >= 0 (NaN below two increments)")
        if self.signed_mean is not None:
            check_finite("signed_mean", self.signed_mean)
        if self.m2 is not None:
            check_all("m2", (self.m2 >= 0) & (self.m2 < np.inf), "m2 must be finite and >= 0")

    __eq__ = fields_equal

    def lag_index(self, tau: float) -> int:
        """Index of the stored lag `tau`, a multiple of the sample interval (see `_lag_steps`)."""
        hit = np.flatnonzero(_lag_steps([tau], self.dt) == _lag_steps(self.taus, self.dt))
        if not hit.size:
            raise DomainError(f"no stored lag near tau={tau:g} s", "tau")
        return int(hit[0])


def _reduced(increments) -> dict[str, np.ndarray]:
    """The per-lag fields of a curve, from the non-empty float increment
    array of each lag that `_increments` yields: its (n, mean |x|, mean x,
    sum of squared deviations), reduced exactly as np.mean(np.abs(x)) and
    np.std(x, ddof=1) do, so the curve is bit-identical to them; two-pass
    m2 does not cancel under drift."""
    moments = []
    for x in increments:
        n = x.size
        tmp = np.abs(x)  # |x|, then the squared deviations
        mean_abs = np.add.reduce(tmp) / n
        mean = np.add.reduce(x) / n
        np.subtract(x, mean, out=tmp)
        moments.append((n, mean_abs, mean, np.add.reduce(np.square(tmp, out=tmp))))
        del tmp  # freed before the next lag's
    return _curve(*np.array(moments).reshape(-1, 4).T)


def _curve(n, dphi, mean, m2) -> dict[str, np.ndarray]:
    """The per-lag fields of a curve from its moments; sigma is NaN where n < 2."""
    sigma = np.full(n.shape, np.nan)
    ok = n >= 2
    sigma[ok] = np.sqrt(m2[ok] / (n[ok] - 1))
    return dict(n_increments=n, mean_abs_change=dphi, sigma_per_tau=sigma, signed_mean=mean, m2=m2)


@dataclass(frozen=True, eq=False)
class GaussianHistogram:
    """Binned increment distribution at one lag, with a gaussian fit.

    `sigma` is the sample standard deviation (the primary estimate);
    `fit_sigma`, reported next to it, is the width of a weighted
    log-parabola fit of a gaussian to the histogram (NaN where it has no peak).
    `degenerate` marks distributions with zero spread, where no fit is
    possible.  `bin_edges` and `counts` are read-only copies.
    """

    sigma: float
    bin_edges: np.ndarray
    counts: np.ndarray
    fit_sigma: float
    degenerate: bool

    def __post_init__(self):
        object.__setattr__(self, "bin_edges", frozen("bin_edges", self.bin_edges, float))
        object.__setattr__(self, "counts", frozen("counts", self.counts, int))

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
    with finite_arithmetic("the fit's residual rms", "pulse_area", max_area=y.max()):
        residual_rms = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
    return FringeFit(
        offset=float(a0),
        cos_amp=float(a1),
        sin_amp=float(a2),
        # a0 <= 0 is left to FringeFit's offset check, not divided by
        visibility=float(math.hypot(a1, a2) / a0) if a0 > 0 else math.nan,
        residual_rms=residual_rms,
    )


def extract_phase(
    trace: IntensityTrace | Adopted, band: tuple[float, float] = DEFAULT_BAND
) -> PhaseTrace:
    """Invert an intensity record to phase on fringe slopes.

    The intensity is normalized to u = (I - i_min) / (i_max - i_min) and
    clamped to [0, 1]; maximal contiguous runs with u inside `band`
    become the valid segments (runs of a single sample are dropped; they
    carry no increment information).  Within each segment the phase is
    arccos(2u - 1); the band must exclude the extrema u = 0 and 1, where
    the phase folds.  Samples outside all segments are NaN.

    u is computed in a copy of the samples.  A trace handed over as
    ``Adopted(trace)`` is consumed instead: u and then the phase are
    computed in its own samples buffer, which the returned trace keeps, so
    the caller must not use the trace again.
    """
    lo, hi = band
    if not (0 < lo < hi < 1):
        raise DomainError(f"band must satisfy 0 < lo < hi < 1, got ({lo}, {hi})", "band")
    trace, u = taken(trace, IntensityTrace)
    u = np.subtract(trace.samples if u is None else u, trace.i_min, out=u)
    u /= trace.i_max - trace.i_min
    np.clip(u, 0.0, 1.0, out=u)

    # The phase overwrites u: arccos(2u - 1) on each segment, NaN between.
    segments, done = [], 0
    edges = _run_edges(u, lo, hi)
    for start, stop in zip(edges[::2], edges[1::2]):
        if stop - start < 2:
            continue
        u[done:start] = np.nan
        phi = u[start:stop]
        phi *= 2.0
        phi -= 1.0
        np.arccos(phi, out=phi)
        segments.append((int(start), int(stop)))
        done = stop
    u[done:] = np.nan
    if len(segments) < edges.size // 2:
        _log.debug("extract_phase: dropped %d one-sample runs inside the band",
                   edges.size // 2 - len(segments))
    if not segments:
        raise EmptySegmentsError(
            "no contiguous run of >= 2 samples inside the intensity band "
            f"[{lo}, {hi}]"
        )
    return PhaseTrace(t0=trace.t0, dt=trace.dt, samples=Adopted(u), segments=tuple(segments))


def _run_edges(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Interleaved starts and stops of the runs of `lo <= u <= hi`, by chunks."""
    parts, last = [np.empty(0, np.intp)], False
    for c in range(0, u.size, _EDGE_CHUNK):
        chunk = u[c:c + _EDGE_CHUNK]
        in_band = (chunk >= lo) & (chunk <= hi)
        parts.append(np.flatnonzero(np.diff(in_band, prepend=last)) + c)
        last = in_band[-1]
    return np.concatenate(parts + [np.full(int(last), u.size)])


def default_lag_grid(dt: float, tau_max: float, max_lags: int = DEFAULT_MAX_LAGS) -> np.ndarray:
    """Lags (s) from dt up to tau_max: every sample step, geometrically
    thinned once there would be more than `max_lags` of them."""
    check_scalar("tau_max", tau_max)
    check_scalar("max_lags", max_lags, minimum=1, integer=True)
    if not (dt > 0) or not (tau_max >= dt):
        raise DomainError(f"need tau_max >= dt > 0, got dt={dt}, tau_max={tau_max}",
                          "tau_max", "dt")
    k_max = step_count(tau_max, dt)
    if k_max <= max_lags:
        ks = np.arange(1, k_max + 1)
    else:
        ks = np.round(np.geomspace(1, k_max, max_lags)).astype(int)
        ks = ks[np.diff(ks, prepend=0) > 0]  # sorted already: np.unique would import numpy.ma
    return ks * dt


def _lag_steps(taus, dt: float) -> np.ndarray:
    """Steps of `dt` in the strictly increasing lags `taus` (s), as int64.  The
    first lag that is not finite, at most MAX_SAMPLES steps (see `check_count`)
    and a positive multiple of dt within 1e-6 step is named, in that order."""
    taus = np.asarray(taus, dtype=float)
    # Not finite_arithmetic: check_count refuses an inf step count as a size.
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.rint(taus / dt)
        off = ~((k >= 1) & (np.abs(taus - k * dt) <= 1e-6 * dt))
    if off.any():
        i = int(np.argmax(off))
        check_scalar("tau", taus[i])
        check_count("steps", k[i], "tau")  # past the limit, float lags drift off the grid
        raise DomainError(f"lag {taus[i]:g} s is not a positive multiple of dt = {dt:g} s",
                          "tau", "dt")
    check_count("steps", k.max(), "tau")
    check_all("taus", np.diff(k, prepend=0) > 0, "lags must be strictly increasing")
    return k.astype(np.int64)


def _increments(samples: np.ndarray, segments, steps: np.ndarray):
    """Signed increments of the `segments` of `samples` at each lag step in
    `steps` (ascending), one array at a time, in time order: the pairs with
    both samples in one segment, until a lag that no segment is longer than.

    Each segment longer than the lag (filtered from the previous lag's) writes
    its pairs s[a+k:b] - s[a:b-k] into one buffer, sized at the first lag,
    which has the most, and the lag yields a view of those it wrote, which the
    next lag overwrites: 8 B per in-segment sample, whatever the number of
    lags.  Each segment costs one ufunc call per lag.
    """
    buf = None
    for k in steps.tolist():
        segments = [s for s in segments if s[1] - s[0] > k]
        if not segments:
            return
        if buf is None:
            buf = np.empty(sum(b - a - k for a, b in segments))
        o = 0
        for a, b in segments:
            np.subtract(samples[a + k:b], samples[a:b - k], out=buf[o:o + b - a - k])
            o += b - a - k
        yield buf[:o]


def increments_at(phase: PhaseTrace, tau: float) -> np.ndarray:
    """Signed increments phi(t + tau) - phi(t) at one lag, in time order.

    All overlapping pairs within one segment are used (the phase is
    unobservable through omitted extrema), so a lag that no segment is longer
    than has none.  `tau` must be a positive multiple of the sample interval.
    """
    steps = _lag_steps([tau], phase.dt)
    with finite_arithmetic("an increment", "samples", tau=tau):
        return next(_increments(phase.samples, phase.segments, steps), np.empty(0))


def increment_sets(phase: PhaseTrace | Adopted, taus) -> PhaseStats:
    """The dphi(tau) curve of a phase trace over a grid of lags.

    The increments of :func:`increments_at` are gathered and reduced one lag
    at a time (see `_increments`), so memory does not grow with the number
    of lags: 16 B per in-segment sample, the shared buffer and one
    temporary of the reduction.  Lags that no segment is longer than are dropped.

    The trace is only read.  A trace handed over as ``Adopted(trace)`` is
    consumed instead: its segments are packed, in time order, to the front
    of its own samples buffer, which then shrinks to them, so the NaN
    padding is freed before the reduction.  The curve is the same bit for
    bit, and the caller must not use the trace again.
    """
    phase, samples = taken(phase, PhaseTrace)
    taus = frozen("taus", taus, float)
    if taus.size == 0:
        raise DomainError("at least one lag is required", "taus")
    steps = _lag_steps(taus, phase.dt)
    samples, segments = ((phase.samples, phase.segments) if samples is None
                         else _packed(samples, phase.segments))
    with finite_arithmetic("the dphi curve", "samples", tau_max=taus[-1]):
        curve = _reduced(_increments(samples, segments, steps))
    kept = curve["n_increments"].size
    if kept < steps.size:
        _log.debug("increment_sets: dropped %d lags with no valid pair, from %.6g s",
                   steps.size - kept, taus[kept])
    if kept == 0:
        raise InsufficientDataError("no lag has a valid increment pair on any segment")
    return PhaseStats(steps[:kept] * phase.dt, dt=phase.dt, **curve)


def _packed(samples: np.ndarray, segments) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The `segments` of a consumed trace's `samples`, moved in time order to
    the front of that buffer, which shrinks to them; and their new bounds."""
    packed, o = [], 0
    for a, b in segments:
        samples[o:o + b - a] = samples[a:b]  # a forward move: o <= a
        packed.append((o, o + b - a))
        o += b - a
    samples.resize(o, refcheck=False)
    return samples, packed


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
        raise DomainError("pooled statistics must share the same sample interval", "dt")
    if any(s.signed_mean is None or s.m2 is None for s in stats_list):
        raise DomainError("cannot pool a curve without signed moments (read from a file?)")
    steps = [_lag_steps(s.taus, dt) for s in stats_list]
    ks = np.sort(np.concatenate(steps))
    ks = ks[np.diff(ks, prepend=ks[0] - 1) > 0]  # np.unique would import numpy.ma
    n, dphi, mean, m2 = np.zeros((4, ks.size))
    with finite_arithmetic("a pooled moment", "signed_mean", "m2", curves=len(stats_list)):
        for s, k in zip(stats_list, steps):
            i = np.searchsorted(ks, k)
            total = n[i] + s.n_increments
            weight = s.n_increments / total
            delta = s.signed_mean - mean[i]
            dphi[i] += (s.mean_abs_change - dphi[i]) * weight
            mean[i] += delta * weight
            m2[i] += s.m2 + delta * delta * n[i] * weight
            n[i] = total
    return PhaseStats(taus=ks * dt, dt=dt, **_curve(n, dphi, mean, m2))


def mean_phase_change(stats: PhaseStats) -> np.ndarray:
    """Not public: `stats.mean_abs_change`, until `perfbench/workloads.py` reads the field."""
    return stats.mean_abs_change


def gaussian_widths(stats: PhaseStats) -> np.ndarray:
    """Not public: `stats.sigma_per_tau`, until `perfbench/workloads.py` reads the field."""
    return stats.sigma_per_tau


def fit_gaussian(increments) -> GaussianHistogram:
    """Gaussian width of one lag's increments, e.g. ``increments_at(phase, tau)``:
    the sample standard deviation `sigma` (bias-free, bin-free), and a histogram of
    ceil(sqrt(n)) equal bins over [min, max] of the increments, or over inc[0] +-
    max(|inc[0]| * 1e-6, 1e-12) if sigma is 0 (`degenerate`), with the width
    `fit_sigma` of a weighted log-parabola gaussian fit to it.  Needs >= 100
    finite increments in a 1-D array; DomainError if a result leaves float range.
    """
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 1:
        raise DomainError(f"increments must be one-dimensional, got shape {inc.shape}",
                          "increments")
    check_finite("increments", inc)
    if inc.size < 100:
        raise InsufficientDataError(f"need >= 100 increments, have {inc.size}")
    lo, hi = inc.min(), inc.max()
    with finite_arithmetic("the increment histogram", "increments", min=lo, max=hi):
        sigma = float(np.std(inc, ddof=1))
        width = max(abs(inc[0]) * 1e-6, 1e-12)
        span = (lo, hi) if sigma else (inc[0] - width, inc[0] + width)
        counts, edges = np.histogram(inc, bins=math.ceil(math.sqrt(inc.size)), range=span)
        fit_sigma = _lsq_gaussian(0.5 * (edges[:-1] + edges[1:]), counts)
    return GaussianHistogram(sigma, edges, counts, fit_sigma, sigma == 0.0)


def _lsq_gaussian(x: np.ndarray, y: np.ndarray) -> float:
    """Width sqrt(-1/(2c)) of a gaussian through the non-empty bins, from the
    least squares of ln y on (1, x, x^2) = (a, b, c) with each row scaled by
    its count y (Caruana et al., Anal. Chem. 58, 1162, 1986; Guo, IEEE Signal
    Process. Mag. 28(5), 134, 2011).  NaN when under three bins are non-empty
    or the fit is not concave."""
    keep = y > 0
    x, y = x[keep], y[keep].astype(float)
    if y.size < 3:  # no peak; checked first, as a spike far from 0 overflows the design
        return math.nan
    design = np.column_stack([y, y * x, y * x * x])
    (_, _, c), *_ = np.linalg.lstsq(design, y * np.log(y), rcond=None)
    return math.sqrt(-0.5 / c) if c < 0 else math.nan


def check_gaussian_relation(stats: PhaseStats, tau: float) -> float:
    """Relative deviation from the gaussian identity dphi = sqrt(2/pi)*sigma.

    Returns |dphi - sqrt(2/pi)*sigma| / (sqrt(2/pi)*sigma) at the stored
    lag `tau`; NaN (undefined) when sigma is zero or unknown.
    """
    idx = stats.lag_index(tau)
    sigma = stats.sigma_per_tau[idx]
    if sigma == 0.0:
        return math.nan
    with finite_arithmetic("the relative deviation", "sigma_per_tau", sigma_per_tau=sigma):
        expected = MEAN_ABS_FACTOR * sigma
        return float(abs(stats.mean_abs_change[idx] - expected) / expected)


def tau_threshold(stats: PhaseStats, target: float) -> float:
    """First lag at which dphi(tau) reaches `target`, by linear interpolation.

    If the curve already starts at or above the target, the first stored
    lag is returned (the crossing happened below the resolved range).
    Raises ThresholdNotReachedError, carrying the maximum observed value,
    when the curve never gets there.
    """
    check_scalar("target", target, positive=True)
    curve = stats.mean_abs_change
    above = np.flatnonzero(curve >= target)
    if above.size == 0:
        raise ThresholdNotReachedError(target, float(curve.max()))
    i = int(above[0])
    if i == 0:
        return float(stats.taus[0])
    t0, t1 = stats.taus[i - 1], stats.taus[i]
    y0, y1 = curve[i - 1], curve[i]
    with finite_arithmetic("the threshold crossing", "target", target=target):
        return float(t0 + (target - y0) * (t1 - t0) / (y1 - y0))


def fit_scaling_exponent(stats: PhaseStats, tau_range: tuple[float, float]) -> float:
    """Slope of log dphi vs log tau over lags inside `tau_range`."""
    lo, hi = tau_range
    if not (0 < lo < hi):
        raise DomainError(f"need 0 < tau_min < tau_max, got ({lo}, {hi})", "tau_min", "tau_max")
    curve = stats.mean_abs_change
    mask = (stats.taus >= lo) & (stats.taus <= hi)
    if mask.sum() < 3:
        raise DomainError(f"need >= 3 lags in [{lo:g}, {hi:g}] s, have {int(mask.sum())}",
                          "tau_min", "tau_max")
    if np.any(curve[mask] <= 0):
        raise DomainError("dphi must be positive over the fit range", "mean_abs_change")
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
    check_scalar("length_km", length_km, positive=True)
    if (visibility is None) == (sigma is None):
        raise DomainError("give exactly one of visibility= or sigma=", "visibility", "sigma")
    if visibility is not None:
        sigma = sigma_from_visibility(visibility)
    check_scalar("sigma", sigma, minimum=0)
    with finite_arithmetic("the diffusion coefficient",
                           "sigma" if visibility is None else "visibility", "length_km",
                           sigma=sigma, length_km=length_km):
        return float(np.float64(sigma) * sigma / length_km)
