"""Exception hierarchy shared by all fiberphase modules; the checks, read-only
arrays and field-wise equality that value objects are built on; and
`finite_arithmetic`, under which a kernel refuses a result past float range."""

import contextlib
import dataclasses
import numbers
import sys
from typing import NamedTuple

import numpy as np

__all__ = [
    "FiberPhaseError",
    "DomainError",
    "ResourceLimitError",
    "FitError",
    "InsufficientDataError",
    "EmptySegmentsError",
    "ThresholdNotReachedError",
    "TraceParseError",
]


class FiberPhaseError(Exception):
    """Base class for all errors raised by this package.

    A library check names the `fields` of the values it rejects, both of a
    rule on two values, and, for an array, the `index` of its first offending
    entry.  They are the one channel to the value's source: the CLI names the
    flags of those fields, and `fileio._read_table` the file line of the row
    or of the first one, for the readers' own metadata checks too.
    """

    def __init__(self, message: str, *fields: str, index: int | None = None):
        super().__init__(message)
        self.fields, self.index = fields, index


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


def check_scalar(name: str, value: float, positive: bool = False,
                 minimum: float | None = None, integer: bool = False) -> None:
    """Raise DomainError unless `value` is finite, > 0 if `positive`, >=
    `minimum` if given and an integer (of an integer type, not bool) if `integer`.
    The bounds are tested before finiteness, so -inf names its bound, and nan
    names finiteness unless `positive` is set.  An int too large for a float
    is finite only as an `integer`, a count that its size limit then refuses."""
    if positive and not (value > 0):
        raise DomainError(f"{name} must be > 0, got {value}", name)
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}", name)
    if not (integer and isinstance(value, int) or abs(value) <= sys.float_info.max):
        raise DomainError(f"{name} must be finite, got {value}", name)
    if integer and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise DomainError(f"{name} must be an integer, got {value}", name)


def check_finite(name: str, values: np.ndarray) -> None:
    """Raise DomainError naming the first non-finite entry of `values`."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DomainError(f"{name}[{bad[0]}] is not finite: {values[bad[0]]}", name,
                          index=int(bad[0]))


def check_all(name: str, ok: np.ndarray, message: str) -> None:
    """Raise DomainError(message) naming the first entry of `name` where `ok` is False."""
    if not ok.all():
        raise DomainError(message, name, index=int(np.argmin(ok)))


@contextlib.contextmanager
def finite_arithmetic(what: str, *fields: str, **inputs):
    """Run the body with numpy's overflow and invalid flags raised, and turn one
    into ``DomainError(f"{what} is not finite at k=v, ...")`` over `inputs`,
    naming `fields`, or else the inputs.  Only numpy arithmetic sets the flags:
    Python float arithmetic and an inf or nan operand do not."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        at = ", ".join(f"{key}={value}" for key, value in inputs.items())
        raise DomainError(f"{what} is not finite at {at}", *(fields or inputs)) from None


class Adopted(NamedTuple):
    """A buffer the library has just built and drops: a value object given
    one keeps it, read-only, instead of a copy (see `frozen`).

    A trace handed over this way is consumed by the function that takes it,
    which computes in its samples buffer (see `taken`), so the caller must
    not use the trace again.
    """

    array: np.ndarray


def frozen(name: str, values, dtype) -> np.ndarray:
    """A read-only copy of `values` as a one-dimensional array of `dtype`.

    An `Adopted` array that owns its data, is writeable and has `dtype`
    already is flagged read-only and returned itself; any other is copied.
    DomainError naming `name` if the array is not 1-D or, for `int`, holds a
    value that is not a whole number below 2^63, which a cast would truncate
    or wrap.
    """
    adopted = isinstance(values, Adopted)
    array = np.asarray(values.array if adopted else values)
    if array.ndim != 1:
        raise DomainError(f"{name} must be one-dimensional, got shape {array.shape}", name)
    if dtype is int and array.dtype.kind != "i":
        real = array.astype(float)
        whole = (np.trunc(real) == real) & (np.abs(real) < 2.0**63)
        if not whole.all():
            i = int(np.argmin(whole))
            raise DomainError(f"{name}[{i}] is not a whole number below 2^63: {array[i]}",
                              name, index=i)
    if not (adopted and array.base is None and array.flags.writeable and array.dtype == dtype):
        array = np.array(array, dtype=dtype)
    array.setflags(write=False)
    return array


def taken(value, cls):
    """`value` and None if the trace is only lent; for ``Adopted(trace)``, the
    trace, which must be a `cls`, and the samples buffer it owns, writeable
    again for the taker to compute in."""
    if not isinstance(value, Adopted):
        return value, None
    trace = value.array
    if not isinstance(trace, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise DomainError(f"only {article} {cls.__name__} can be handed over, got "
                          f"{type(trace).__name__}")
    trace.samples.setflags(write=True)
    return trace, trace.samples


def fields_equal(self, other) -> bool:
    """``__eq__`` of a value object: same type and every field equal, arrays
    element-wise, with NaN equal to NaN in arrays and scalars alike.  An
    array never equals None."""
    if type(other) is not type(self):
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in dataclasses.fields(self))
    return all(np.array_equal(a, b, equal_nan=True)
               if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
               else a == b or a != a and b != b for a, b in pairs)
