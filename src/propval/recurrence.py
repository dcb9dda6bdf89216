"""Valuation of changing income streams driven by first-order recurrences.

A stream is generated by y_0 = seed and y_k = multiplier * y_(k-1) +
increment; taking y_k as the income at the end of period k, the present
value is a divided difference of a power, kept accurate as i, m - 1 or
m - 1 - i vanishes by the kernels timevalue._accumulation and _increasing.
Offset streams, which start at a level d and shed y_k-sized slices of it,
cover the straight-line declining annuity, the constant-ratio growth
annuity, the income behind the accelerating-change cap-rate premise, and
the sinking-fund declining streams behind the Ring and Hoskold methods.
"""

from __future__ import annotations

import math

from . import _EXPORTS
from ._record import record
from .timevalue import (
    _NONNEGATIVE, _RATE, _accumulation, _annuity, _check_periods, _check_real, _increasing, _j_factor, _sff,
)

__all__ = list(_EXPORTS["recurrence"])


class RecurrenceSpec(record("RecurrenceSpec", "multiplier increment seed")):
    """Generator y_0 = seed, y_k = multiplier * y_(k-1) + increment."""

    __slots__ = ()

    def __new__(cls, multiplier: float, increment: float, seed: float) -> RecurrenceSpec:
        multiplier = _check_real(multiplier, "multiplier")
        increment = _check_real(increment, "increment")
        seed = _check_real(seed, "seed")
        return tuple.__new__(cls, (multiplier, increment, seed))


class OffsetStreamSpec(record("OffsetStreamSpec", "first_income decrement recurrence")):
    """Stream d, d - y_1*h, d - y_2*h, ... built off a recurrence.

    first_income is d; decrement is h, the amount each generated y_k shaves
    off the base income one period later. A negative decrement produces a
    rising stream. The recurrence is stored as a RecurrenceSpec, so a plain
    (multiplier, increment, seed) tuple is checked like one.
    """

    __slots__ = ()

    def __new__(cls, first_income: float, decrement: float, recurrence: RecurrenceSpec) -> OffsetStreamSpec:
        first_income = _check_real(first_income, "first_income")
        decrement = _check_real(decrement, "decrement")
        return tuple.__new__(cls, (first_income, decrement, RecurrenceSpec._make(recurrence)))


def recurrence_terms(spec: RecurrenceSpec, n: int) -> list[float]:
    """First n generated terms y_1..y_n, by iterating the recurrence.

    A step whose m*y leaves the double range is taken again as
    y + ((m-1)y + b), which stays in range wherever the term does.
    """
    n = _check_periods(n)
    m, b, y = spec
    terms = []
    for _ in range(n):
        step = m * y + b
        if not math.isfinite(step):
            step = y + ((m - 1.0) * y + b)
            if not math.isfinite(step):
                raise OverflowError("recurrence_terms: result is out of floating-point range")
        y = step
        terms.append(y)
    return terms


def recurrence_term(spec: RecurrenceSpec, k: int) -> float:
    """Closed form for y_k: m^k c + b s(k, m-1), which is c + kb when m = 1.

    Where m^k c or b s(k, m-1) leaves the double range, y_k is taken again
    as c + s(k, m-1)((m-1)c + b), whose last factor is computed exactly, so
    that a stream fixed at c (a last factor of 0) returns c itself.
    """
    k = _check_periods(k, name="k", minimum=0)
    m, b, c = spec
    try:
        term = m**k * c + b * _accumulation(m - 1.0, k)
        if math.isfinite(term):
            return term
    except OverflowError:  # m**k or s(k, m-1) past the double range
        pass
    from fractions import Fraction

    slope = (Fraction(m) - 1) * Fraction(c) + Fraction(b)
    if slope == 0:
        return c
    try:
        term = c + _accumulation(m - 1.0, k) * float(slope)
    except OverflowError:
        term = math.inf
    if math.isfinite(term):
        return term
    raise OverflowError("recurrence_term: result is out of floating-point range")


def value_recurrence_stream(spec: RecurrenceSpec, rate: float, n: int) -> float:
    """Present value of y_1..y_n discounted at the given rate.

    With q = m/(1+i) it is c q s(n, q-1) plus b times the value of the
    accumulation factors s(1, m-1)..s(n, m-1), both divided differences
    whose kernels stay accurate as m tends to 1 or to 1+i, and at i = 0.
    """
    rate = _check_real(rate, "rate", _RATE)
    n = _check_periods(n)
    m, b, c = spec
    value = c * m / (1.0 + rate) * _accumulation((m - 1.0 - rate) / (1.0 + rate), n)
    if b != 0.0:
        value += b * _increasing(m - 1.0, rate, n)
    return value


def value_offset_stream(spec: OffsetStreamSpec, rate: float, n: int) -> float:
    """Present value of d, d - y_1*h, ..., d - y_(n-1)*h discounted at rate.

    d a_n less h/(1+i) times the value of y_1..y_(n-1): each slice y_k*h
    is shed one period after y_k.
    """
    rate = _check_real(rate, "rate", _RATE)
    n = _check_periods(n)
    d, h, recurrence = spec
    shed = value_recurrence_stream(recurrence, rate, n - 1) / (1.0 + rate) if n > 1 else 0.0
    return d * _annuity(rate, n) - h * shed


def straight_line_annuity_value(d: float, h: float, rate: float, n: int) -> float:
    """Value of the stream d, d-h, d-2h, ..., d-(n-1)h.

    d a_n - h/(1+i) times the value of 1, 2, ..., n-1; a negative h values
    a stream rising by a constant amount.
    """
    d = _check_real(d, "d")
    h = _check_real(h, "h")
    rate = _check_real(rate, "rate", _RATE)
    n = _check_periods(n)
    return d * _annuity(rate, n) - h * (_increasing(0.0, rate, n - 1) / (1.0 + rate))


def constant_ratio_annuity_value(growth: float, rate: float, n: int) -> float:
    """Value of a stream starting at one and growing by a fixed ratio.

    s(n, (g-i)/(1+i)) / (1+i), i.e. [1 - ((1+g)/(1+i))^n] / (i - g), or n/(1+i) at g = i.
    """
    growth = _check_real(growth, "growth", _RATE)
    rate = _check_real(rate, "rate", _RATE)
    n = _check_periods(n)
    return _accumulation((growth - rate) / (1.0 + rate), n) / (1.0 + rate)


def accumulation_stream_value(rate: float, n: int) -> float:
    """Value of the stream s_1, s_2, ..., s_n of accumulation factors.

    Equals the sum of a_1..a_n, which is (n - a_n)/i, or n(n+1)/2 at i = 0.
    """
    rate = _check_real(rate, "rate", _RATE)
    return _increasing(rate, rate, _check_periods(n))


def ellwood_j_factor(rate: float, n: int) -> float:
    """Curvature factor for income changing along an accumulation path.

    J = (1/s_n) * (n / (1 - (1+i)^-n) - 1/i), or (n+1)/(2n) at i = 0: the
    value of s_1..s_n over a_n s_n. Scales the relative income change in
    the denominator of the changing-income cap rate.
    """
    return _j_factor(_check_real(rate, "rate", _RATE), _check_periods(n))


def hoskold_stream_value(income: float, rate: float, safe_rate: float, n: int) -> float:
    """Value of the declining stream priced by the safe-rate recovery method.

    V = I / (i + SFF(n, i_s)): first-year income divided by the discount
    rate loaded with a sinking fund factor at the lower safe rate. The
    stream itself (see hoskold_income_stream) declines by the compounding
    interest losses of recovering capital at the safe rate.
    """
    income, rate, safe_rate, n, sff = _hoskold(income, rate, safe_rate, n)
    value = income / (rate + sff)
    if math.isfinite(value):
        return value
    raise OverflowError("hoskold_stream_value: result is out of floating-point range")


def hoskold_income_stream(income: float, rate: float, safe_rate: float, n: int) -> list[float]:
    """The declining incomes whose present value is hoskold_stream_value.

    I_k = I - (i - i_s) * SFF(n, i_s) * V * s(k-1, i_s): the first income is
    I and each later one sheds the accumulated interest losses on the
    safe-rate recovery deposits. With i_s = 0 the drop is the constant
    i*V/n of the straight-line method; with i_s = i the stream is level.
    The loss is taken as I (i - i_s) SFF / (i + SFF), so a stream in range
    is returned also where V itself is not.
    """
    income, rate, safe_rate, n, sff = _hoskold(income, rate, safe_rate, n)
    loss = income * ((rate - safe_rate) * sff / (rate + sff))
    try:
        stream = [income - loss * _accumulation(safe_rate, k) for k in range(n)]
    except OverflowError:  # s(k, i_s) past the double range, so 1 - v^n rounds to 1: s(k) SFF = v^(n-k) (1 - v^k)
        log_v = -math.log1p(safe_rate)
        shares = (math.exp((n - k) * log_v) * -math.expm1(k * log_v) for k in range(n))
        stream = [income - income * ((rate - safe_rate) * share / (rate + sff)) for share in shares]
    if all(map(math.isfinite, stream)):
        return stream
    raise OverflowError("hoskold_income_stream: result is out of floating-point range")


def _hoskold(income: float, rate: float, safe_rate: float, n: int) -> tuple:
    # the checked arguments and SFF(n, i_s), with i + SFF known to be nonzero
    income = _check_real(income, "income")
    rate = _check_real(rate, "rate", _RATE)
    safe_rate = _check_real(safe_rate, "safe_rate", _NONNEGATIVE)
    n = _check_periods(n)
    sff = _sff(safe_rate, n)
    if rate + sff == 0.0:
        raise ValueError("rate plus sinking fund factor is zero; value undefined")
    return income, rate, safe_rate, n, sff
