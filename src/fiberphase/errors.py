"""Exception hierarchy shared by all fiberphase modules, and the checks,
read-only copies and field-wise equality that value objects are built on."""

import dataclasses
import math

import numpy as np


class FiberPhaseError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FiberPhaseError, ValueError):
    """An input value violates a documented precondition or invariant."""


class ResourceLimitError(FiberPhaseError, RuntimeError):
    """A request exceeds a hard synthesis/memory limit."""


class FitError(FiberPhaseError, RuntimeError):
    """A least-squares fit is degenerate (singular design, bad offset)."""


class InsufficientDataError(FiberPhaseError, RuntimeError):
    """Too few samples/increments to compute a requested statistic."""


class EmptySegmentsError(FiberPhaseError, RuntimeError):
    """Phase extraction produced no usable segment (>= 2 samples)."""


class ThresholdNotReachedError(FiberPhaseError, RuntimeError):
    """The mean-phase-change curve never reaches the requested target.

    Carries the largest observed value so callers can report how far
    the curve got.
    """

    def __init__(self, target: float, max_dphi: float):
        self.target = target
        self.max_dphi = max_dphi
        super().__init__(
            f"mean phase change never reaches {target:g} rad "
            f"(maximum observed: {max_dphi:g} rad)"
        )


class TraceParseError(FiberPhaseError, ValueError):
    """A CSV file does not conform to its declared format.

    Carries the 1-based line number at which parsing failed.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def check_scalar(name: str, value: float, positive: bool = False) -> None:
    """Raise DomainError unless `value` is finite and, if `positive`, > 0."""
    if positive and not (value > 0):
        raise DomainError(f"{name} must be > 0, got {value}")
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")


def check_finite(name: str, values: np.ndarray) -> None:
    """Raise DomainError naming the first non-finite entry of `values`."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DomainError(f"{name}[{bad[0]}] is not finite: {values[bad[0]]}")


def frozen(values, dtype) -> np.ndarray:
    """A read-only copy of `values` as an array of `dtype`."""
    array = np.array(values, dtype=dtype)
    array.setflags(write=False)
    return array


def fields_equal(self, other) -> bool:
    """``__eq__`` of a value object: same type and every field equal, arrays
    element-wise, with NaN equal to NaN in arrays and scalars alike."""
    if type(other) is not type(self):
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in dataclasses.fields(self))
    return all(np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray)
               else a == b or a != a and b != b for a, b in pairs)
