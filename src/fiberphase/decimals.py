"""Exact float64 <-> decimal text, a block of CSV cells at a time.

A block's float cells are rendered by one numpy kernel (`render`).  NaN,
±inf and ±0 are constant strings.  A finite cell with 1e-6 <= |x| < 1e17
is scaled by an exact 10**s, s in [0, 22], into X in [1e16, 1e17), which
Dekker's two-product gives exactly; its digits are the multiple of 100, of
10 or of 1 nearest X that lies in x's round-trip interval, tested in
exact int64 arithmetic.  The few cells outside that domain, or at an exact
tie between two candidates, and all integer cells are written by `repr`.

A block's rows are read back by one numpy kernel (`parse`) when they are
in the writer's own language: ASCII rows of exactly one cell per column,
each `-?D+(.D+)?(e[+-]D+)?` or `nan`, ending in LF, in a table of float
columns.  A `nan` cell is known by its first token and not decoded; any
other cell's significand is read 8 digits a word into uint64.
Below 2**53 with a power of ten of at most 22, it and the power are exact
doubles, so one multiply or divide rounds once to the nearest (Clinger's
fast path).  Otherwise a double candidate is corrected by an exact
integer test of its distance against half the gap to its neighbours, the
interval arithmetic of `_shortest` run in reverse.  `float()` reads the
few cells neither decides.  Each cell is thus bit for bit what `float()`
gives.  `parse` declines a block with anything else (a blank line, a
space, `inf`, a byte that is not ASCII, a wrong cell count, an int column)
and the caller, which reads CRLF and CR as LF, parses it as text.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

# ---------------------------------------------------------------------------
# Writing: repr(float(x)) for a block of float64 cells at once
#
# A rendered cell is a row of WIDTH bytes, NUL where it holds no character:
# column 0 the sign, 1-5 the "0.000" of a positional x < 1, then digit j of
# 17 at column 4 + 2j with a slot at 5 + 2j for a "." or a padding "0", and
# 39-42 the suffix ("0" of ".0", or "e-05").  Digits stay in fixed columns,
# so a layout is one row of a table keyed by (sign, decimal point, digit
# count).  Dropping the NULs leaves repr's text.

WIDTH = 43
_DEC = range(-5, 19)  # decimal-point positions of the scaled domain
_POW10 = np.array([float(10**k) for k in range(24)])  # exact up to 10**22
_POW5 = 5 ** np.arange(23, dtype=np.int64)
_POW2 = 2.0 ** np.arange(64)
_MANTISSA = (1 << 52) - 1
# Keys after the (sign, decimal point, digit count) layouts: a constant, the
# same constant with its sign bit set, and the empty row of a cell by repr.
_NAN, _INF, _ZERO, _BY_REPR = range(2 * len(_DEC) * 17, 2 * len(_DEC) * 17 + 7, 2)


def _layout(sign: int, decpt: int, n: int) -> bytes:
    """repr's layout of 0.d1...dn x 10**decpt, digits left out."""
    row = bytearray(WIDTH)
    row[0] = ord("-") * sign
    if -4 < decpt <= 16:
        if decpt <= 0:
            row[1:3 - decpt] = b"0." + b"0" * -decpt
        else:
            row[5 + 2 * decpt] = ord(".")
            for j in range(n, decpt):  # the zeros of a long integer part
                row[5 + 2 * j] = ord("0")
            if decpt >= n:
                row[39] = ord("0")
    else:
        if n > 1:
            row[7] = ord(".")
        row[39:43] = b"e%+03d" % (decpt - 1)
    return bytes(row)


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The layout rows by key, the 4-digit groups and their trailing zeros.

    Groups 10000-19999 render k as its 4 digits with trailing zeros NUL.
    """
    constants = (b"nan", b"nan", b"inf", b"-inf", b"0.0", b"-0.0", b"")
    layouts = [_layout(sign, decpt, n) for sign in (0, 1) for decpt in _DEC for n in range(1, 18)]
    layouts += [c.ljust(WIDTH, b"\0") for c in constants]
    quads = [b"%04d" % k for k in range(10000)]
    quads += [q.rstrip(b"0").ljust(4, b"\0") for q in quads]
    zeros = [4] + [len(q) - len(q.rstrip(b"0")) for q in quads[1:10000]]
    return (np.frombuffer(b"".join(layouts), np.uint8).reshape(-1, WIDTH),
            np.frombuffer(b"".join(quads), np.uint32), np.array(zeros, np.int64))


def render(cells: np.ndarray, out: np.ndarray) -> int:
    """Write each cell's repr into its row of `out`, NUL-padded; return the
    number of cells that `repr` itself rendered."""
    if cells.dtype.kind != "f":
        out[:] = _by_repr(cells)
        return cells.size
    layouts, quads, zeros = _tables()
    a = np.abs(cells)
    key = np.full(cells.shape, _BY_REPR, np.intp)
    key[a == 0] = _ZERO
    key[a == np.inf] = _INF
    key[np.isnan(a)] = _NAN
    key[(key != _BY_REPR) & np.signbit(cells)] += 1
    idx = np.flatnonzero((a >= 1e-6) & (a < 1e17))
    digits, decpt, ok = _shortest(a[idx])
    groups = np.empty((5, idx.size), np.int64)  # the digits in base 10**4
    for j in range(4, 0, -1):
        digits, groups[j] = np.divmod(digits, 10000)
    groups[0] = digits
    # tail[j]: every group after groups[j + 1] is zero, so its trailing zeros are the cell's
    tail = np.ones((4, idx.size), bool)
    tail[:3] = np.logical_and.accumulate(groups[:1:-1] == 0, axis=0)[::-1]
    n = 17 - (zeros[groups[1:]] * tail).sum(axis=0)
    sign = np.signbit(cells[idx])
    key[idx] = np.where(ok, (sign * len(_DEC) + decpt - _DEC[0]) * 17 + n - 1, _BY_REPR)
    layouts.take(key, axis=0, out=out, mode="clip")  # "clip" writes to `out` unbuffered
    out[idx, 6] = ord("0") + groups[0]
    out[idx, 8:39:2] = np.ascontiguousarray(quads[groups[1:] + 10000 * tail].T).view(np.uint8)
    slow = np.flatnonzero(key == _BY_REPR)
    out[slow] = _by_repr(cells[slow])
    return slow.size


def _by_repr(cells: np.ndarray) -> np.ndarray:
    """The repr of each cell, NUL-padded to WIDTH bytes."""
    text = np.array(list(map(repr, cells.tolist())), f"S{WIDTH}")
    return text.view(np.uint8).reshape(-1, WIDTH)


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e): p = a * b rounded, and a * b = p + e exactly (Dekker's
    two-product with Veltkamp splits; no overflow or underflow)."""
    p = a * b
    t = a * 134217729.0
    ah = t - (t - a)
    al = a - ah
    t = b * 134217729.0
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shortest round-trip digits of each positive a in [1e-6, 1e17).

    Returns (N, decpt, ok).  repr's digits are those of N, in [1e16, 1e17),
    without its trailing zeros, and a ~ 0.N * 10**decpt.  ok is False where
    `repr` must render the cell: outside the scaled domain, or at an exact
    tie between two candidates.
    """
    bits = a.view(np.int64)
    q = (bits >> 52) - 1075  # a = m * 2**q, m = 2**52 | mantissa
    s = 16 - (((q + 52) * 78913) >> 18)  # 16 - floor(log10(2**(q + 52)))
    s -= a * _POW10[s] >= 1e17
    ok = s <= 22  # 10**23 is not exact
    s = np.minimum(s, 22)
    p, e = _two_product(a, _POW10[s])  # X = a * 10**s = p + e exactly
    ok &= (p >= 1e16) & (p < 1e17) & ((p != 1e16) | (e >= 0))
    # In units of 2**-sh, X's fraction and the half-gaps to x's neighbours
    # (10**s * 2**(q - 1), and half that below a power of two) are integers.
    sh = np.maximum(2 - q - s, 0)
    ee = (e * _POW2[sh]).astype(np.int64)
    xi = p.astype(np.int64) + (ee >> sh)  # floor(X)
    frac = ee - ((ee >> sh) << sh)
    # A candidate at distance d below (above) X reads back as x iff d <= hm
    # (d <= hp): the interval is closed when m is even.
    odd = bits & 1
    hp = (_POW5[s] << (q + s - 1 + sh)) - odd
    hm = (_POW5[s] << (q + s - 1 + sh - ((bits & _MANTISSA) == 0))) - odd

    def nearest(unit):
        """The multiple of `unit` below X and its distances to X, scaled."""
        r = xi - xi // unit * unit
        lo = (r << sh) + frac
        return xi - r, lo, (np.int64(unit) << sh) - lo

    # <= 15 digits: at most one multiple of 100 is in an interval this narrow.
    base, lo, hi = nearest(100)
    short = lo <= hm
    done = short | (hi <= hp)
    digits = np.where(short, base, base + 100)
    # 16 digits: the multiple of 10 nearest X among those inside.
    base, lo, hi = nearest(10)
    below, above = lo <= hm, hi <= hp
    pick = ~done & (below | above)
    ok &= ~(pick & below & above & (lo == hi))
    digits = np.where(pick, np.where(below & (~above | (lo < hi)), base, base + 10), digits)
    done |= pick
    # 17 digits: the integer nearest X, inside as both half-gaps exceed 0.55.
    base, lo, hi = nearest(1)
    ok &= done | (lo != hi)
    digits = np.where(done, digits, np.where(lo < hi, base, base + 1))
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    return digits, 17 - s + carry, ok


# ---------------------------------------------------------------------------
# Reading: float(text) for a block of rows at once
#
# The kernel reads the writer's cell language, -?D+(.D+)?(e[+-]D+)? and nan,
# in rows of one cell per column ending in LF.  Every byte that is not a
# digit is a token, and a block is in the language iff each pair of adjacent
# tokens is allowed, with or without digits between them (_cell_tables), and
# the separators are ncols - 1 commas and a LF, row after row.

# Token kinds: a byte's class, then its kind given the token before it.
_COMMA, _LF, _POINT, _EXP, _MINUS, _PLUS, _LETTER_N, _LETTER_A, _OTHER = range(9)
_SEP, _DOT, _E, _LEAD, _SIGN, _N1, _A, _N2, _BAD = range(9)
# A separator before the first cell, after room for three 8-byte words.
HEAD = b"0" * 23 + b"\n"


class _CellTables(NamedTuple):
    klass: np.ndarray  # the class of each byte
    kinds: np.ndarray  # a token's kind by (class before, class, adjacent)
    pairs: np.ndarray  # whether (kind before, kind, adjacent) is allowed
    masks: np.ndarray  # [n, k]: the digits of word k from the end of an n-digit run
    pow10: np.ndarray  # 10**k in uint64, k <= 24 (wrapped past 10**19)
    swar: tuple  # (mask, factor, shift): two digits, then four, then eight in a word


@functools.cache
def _cell_tables() -> _CellTables:
    klass = np.full(256, _OTHER, np.uint8)
    for byte, cls in zip(b",\n.e-+na", range(8)):
        klass[byte] = cls
    kind = np.full((9, 9, 2), _BAD, np.uint8)
    kind[:, [_COMMA, _LF]] = _SEP
    kind[:, _POINT], kind[:, _EXP], kind[:, _LETTER_A] = _DOT, _E, _A
    kind[[_COMMA, _LF], _MINUS, 1] = _LEAD
    kind[_EXP, [_MINUS, _PLUS], 1] = _SIGN
    kind[[_COMMA, _LF], _LETTER_N, 1] = _N1
    kind[_LETTER_A, _LETTER_N, 1] = _N2
    pairs = np.zeros((9, 9, 2), bool)
    for before, after in ((_SEP, _SEP), (_SEP, _DOT), (_SEP, _E), (_LEAD, _SEP), (_LEAD, _DOT),
                          (_LEAD, _E), (_DOT, _SEP), (_DOT, _E), (_SIGN, _SEP)):
        pairs[before, after, 0] = True  # digits between
    for before, after in ((_SEP, _LEAD), (_SEP, _N1), (_E, _SIGN), (_N1, _A), (_A, _N2),
                          (_N2, _SEP)):
        pairs[before, after, 1] = True
    masks = [[0x0F0F0F0F0F0F0F0F & ~((1 << 8 * (8 - min(max(n - 8 * k, 0), 8))) - 1)
              for k in range(3)] for n in range(25)]
    swar = tuple((np.uint64(m), np.uint64(f), np.uint64(s)) for m, f, s in (
        (0x0F0F0F0F0F0F0F0F, 10 * 256 + 1, 8), (0x00FF00FF00FF00FF, 100 * 2**16 + 1, 16),
        (0x0000FFFF0000FFFF, 10000 * 2**32 + 1, 32)))
    return _CellTables(klass, kind.ravel(), pairs.ravel(), np.array(masks, np.uint64),
                       np.array([10**k % 2**64 for k in range(25)], np.uint64), swar)


def parse(text: bytes, columns, keep) -> list[np.ndarray] | None:
    """The kept columns of a block of whole rows behind `HEAD`, each cell
    bit for bit as `float()` reads it, or None if the block is not in the
    kernel's language or a column is not float."""
    if any(kind is not float for _, kind in columns) or len(text) >= 2**31:  # int32 offsets
        return None
    tables = _cell_tables()
    buf = np.frombuffer(text, np.uint8)
    is_token = np.subtract(buf, 48, dtype=np.uint8)
    np.greater(is_token, 9, out=is_token.view(bool))
    at = np.flatnonzero(is_token.view(bool)).astype(np.int32)  # bytes that are not digits
    del is_token
    cls = tables.klass.take(buf[at])
    adjacent = np.diff(at) == 1
    kind = np.empty(at.size, np.uint8)
    kind[0] = _SEP
    tables.kinds.take((cls[:-1] * 9 + cls[1:]) * 2 + adjacent, out=kind[1:], mode="clip")
    if not tables.pairs.take((kind[:-1] * 9 + kind[1:]) * 2 + adjacent).all():
        return None
    del adjacent
    seps = np.flatnonzero(kind == _SEP).astype(np.int32)
    ncols = len(columns)
    ends = cls[seps[ncols::ncols]]  # each row's last separator, and its LFs
    if (seps.size - 1) % ncols or not ends.all() or np.count_nonzero(cls[seps]) != ends.size + 1:
        return None
    return [_cell_values(text, at, cls, kind, seps[j:-1:ncols], seps[j + 1::ncols])
            for j in keep]


def _cell_values(text, at, cls, kind, before, after) -> np.ndarray:
    """The cells between the separator tokens `before` and `after`.

    A cell whose first token is `nan` is not decoded.  A significand that
    fits uint64 and is below 2**53, with a power of ten of at most 22, is
    exact in a double, and one rounding gives the nearest (Clinger, PLDI
    1990).  Otherwise `_nearest` corrects a candidate in exact integer
    arithmetic, and `float()` reads the cells neither decides.
    """
    nan = kind[before + 1] == _N1
    if nan.any():  # each cell's value is its own, so the others are decoded alone
        value = np.full(before.size, np.nan)
        num = np.flatnonzero(~nan)
        if num.size:
            value[num] = _cell_values(text, at, cls, kind, before[num], after[num])
        return value
    sig, power, slow, neg, first, stop = _significands(text, at, cls, kind, before, after)
    scale = _POW10.take(np.abs(power), mode="clip")
    value = sig.astype(np.float64)
    np.divide(value, scale, out=value, where=power < 0)
    np.multiply(value, scale, out=value, where=power > 0)
    fast = (sig < 2**53) & (np.abs(power) <= 22)
    fix = np.flatnonzero(~(slow | fast) & (power <= 0) & (power >= -22) & (sig < 2**62))
    slow |= ~fast
    value[fix], slow[fix] = _nearest(sig[fix].astype(np.int64), -power[fix], value[fix])
    for i in np.flatnonzero(slow):
        value[i] = float(text[first[i]:stop[i]])
    return np.negative(value, out=value, where=neg)


def _significands(text, at, cls, kind, before, after) -> tuple[np.ndarray, ...]:
    """Each cell, none of them `nan`, between the separator tokens `before`
    and `after` as sig * 10**power: (sig in uint64, power, where sig may be
    wrong, the minus signs, and the span of the digits and exponent)."""
    # Arrays are deleted once dead: a block's peak is in this function.
    token = before + 1  # each cell's first token, or its closing separator
    neg = kind[token] == _LEAD
    token += neg
    dot = kind[token] == _DOT
    point = at[token]
    token += dot
    exp = kind[token] == _E
    stop = at[after]
    exp_at = np.where(exp, at[token], stop)
    exp_neg = exp & (cls.take(token + 1, mode="clip") == _MINUS)
    del token
    int_end = np.where(dot, point, exp_at)
    n_frac = np.where(dot, exp_at - int_end - 1, 0)
    del point, dot
    n_exp = np.where(exp, stop - exp_at - 2, 0)
    first = at[before] + 1 + neg
    n_int = int_end - first
    whole, whole_ok = _digits(text, int_end, n_int)
    del int_end
    frac, frac_ok = _digits(text, exp_at, n_frac)
    sig = whole * _cell_tables().pow10.take(n_frac, mode="clip") + frac  # wraps past 2**64
    # a run of more than 24 digits, or a significand that may have wrapped
    wrong = ((n_int > 24) | (n_frac > 24) | (n_exp > 4) | ~whole_ok | ~frac_ok
             | ((whole != 0) & (n_int + n_frac > 19)))
    del whole, frac, n_int
    power = _digits(text, stop, n_exp)[0].astype(np.int64)
    power[exp_neg] *= -1
    power -= n_frac
    return sig, power, wrong, neg, first, stop


def _digits(text: bytes, end: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The number written by the n <= 24 decimal digits before byte `end`
    in uint64, and where it is below 2**64.  Each run is read as up to three
    8-byte words at once, and a word's digits take three multiplies
    (Lemire, Softw. Pract. Exp. 51(8), 1700, 2021)."""
    words = min(-(-int(n.max(initial=0)) // 8), 3)
    value = np.zeros(end.size, np.uint64)
    if not words:
        return value, np.ones(end.size, bool)
    runs = np.ndarray((len(text) - 8 * words + 1,), f"V{8 * words}", text, strides=(1,))
    w = runs[end - 8 * words].view(np.uint64).reshape(-1, words)  # the last word last
    tables = _cell_tables()
    for j in range(words):
        w[:, j] &= tables.masks[:, words - 1 - j].take(n, mode="clip")
    for mask, factor, shift in tables.swar:
        w &= mask
        w *= factor
        w >>= shift
    for k in range(words):
        value += w[:, words - 1 - k] * np.uint64(10 ** (8 * k))
    # 1843 * 10**16 + (10**16 - 1) < 2**64 <= 1844 * 10**16
    return value, w[:, 0] < 1844 if words == 3 else np.ones(end.size, bool)


def _nearest(sig: np.ndarray, s: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The double nearest each sig * 10**-s, ties to even, for 2**53 <= sig
    < 2**62 and 0 <= s <= 22, from a candidate c within a few units in the
    last place; and where that double is not decided.

    `_shortest`'s interval test run in reverse: X = c * 10**s = p + e
    exactly, and sig - X is an exact number of gaps between c and its
    neighbours, scaled by 10**s.  In units of 2**-sh the distance and the
    gap are integers below 2**56, and the nearest double is c moved by the
    nearest whole number of gaps.  Where that move would leave c's binade,
    whose gaps it assumes, the double is not decided.
    """
    bits = c.view(np.int64)
    q = (bits >> 52) - 1075  # c = mantissa * 2**q
    p, e = _two_product(c, _POW10[s])
    sh = np.maximum(2 - q - s, 0)
    d = ((sig - p.astype(np.int64)) << sh) - (e * _POW2[sh]).astype(np.int64)
    half = _POW5[s] << (q + s - 1 + sh)  # half a gap
    steps, past = np.divmod(d + half, 2 * half)
    steps -= (past == 0) & ((bits + steps) & 1 == 1)  # a tie goes to the even neighbour
    mantissa = (bits & _MANTISSA) + steps
    undecided = (mantissa < 0) | (mantissa > _MANTISSA) | ((mantissa == steps) & (d < 0))
    return (bits + steps).view(np.float64), undecided
