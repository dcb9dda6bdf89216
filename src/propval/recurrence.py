"""Valuation of changing income streams driven by first-order recurrences.

A stream is generated by y_0 = seed and y_k = multiplier * y_(k-1) +
increment; taking y_k as the income at the end of period k, the present
value has a closed form in four regimes of the multiplier versus the
discount rate. The offset form values streams that start at a level d and
shed y_k-sized slices of it each period, which covers the straight-line
declining annuity, the constant-ratio growth annuity, the income stream
behind the accelerating-change cap-rate premise, and the sinking-fund
declining streams behind the Ring and Hoskold capitalization methods.
"""

from __future__ import annotations

from . import _EXPORTS
from ._record import record
from .timevalue import _NONNEGATIVE, _RATE, _accumulation, _annuity, _check_periods, _check_real, _sff

__all__ = list(_EXPORTS["recurrence"])

# Closed-form dispatch window: multipliers this close to 1 (or to 1+i) take
# the degenerate branch instead of dividing by a vanishing m-1 or i-m gap.
_DISPATCH_TOL = 1e-12


class RecurrenceSpec(record("RecurrenceSpec", "multiplier increment seed")):
    """Generator y_0 = seed, y_k = multiplier * y_(k-1) + increment."""

    __slots__ = ()

    def __new__(cls, multiplier: float, increment: float, seed: float) -> RecurrenceSpec:
        self = super().__new__(cls, multiplier, increment, seed)
        for field, value in zip(self._fields, self):
            _check_real(value, field)
        return self


class OffsetStreamSpec(record("OffsetStreamSpec", "first_income decrement recurrence")):
    """Stream d, d - y_1*h, d - y_2*h, ... built off a recurrence.

    first_income is d; decrement is h, the amount each generated y_k shaves
    off the base income one period later. A negative decrement produces a
    rising stream.
    """

    __slots__ = ()

    def __new__(cls, first_income: float, decrement: float, recurrence: RecurrenceSpec) -> OffsetStreamSpec:
        _check_real(first_income, "first_income")
        _check_real(decrement, "decrement")
        if recurrence.multiplier == 0.0:
            raise ValueError("offset streams need a nonzero recurrence multiplier")
        return super().__new__(cls, first_income, decrement, recurrence)


def recurrence_terms(spec: RecurrenceSpec, n: int) -> list[float]:
    """First n generated terms y_1..y_n, by iterating the recurrence."""
    n = _check_periods(n)
    terms = []
    y = spec.seed
    for _ in range(n):
        y = spec.multiplier * y + spec.increment
        terms.append(y)
    return terms


def recurrence_term(spec: RecurrenceSpec, k: int) -> float:
    """Closed form for y_k: m^k c + b(m^k - 1)/(m - 1), or c + kb when m = 1."""
    k = _check_periods(k, name="k", minimum=0)
    m, b, c = spec.multiplier, spec.increment, spec.seed
    if abs(m - 1.0) < _DISPATCH_TOL:
        return c + k * b
    mk = m**k
    return mk * c + b * (mk - 1.0) / (m - 1.0)


def value_recurrence_stream(spec: RecurrenceSpec, rate: float, n: int) -> float:
    """Present value of y_1..y_n discounted at the given rate.

    Dispatches on the multiplier m against 1 and 1+i:
      m matches neither      -> [b/(m-1) + c] * m(1 - (m/(1+i))^n)/(1+i-m) - b/(m-1) * a_n
      m = 1+i (i nonzero)    -> n*c + b(n - a_n)/i
      m = 1   (i nonzero)    -> [c + (n+1)b] a_n - b(n - a_n)/i
      m = 1, i = 0           -> n*c + b*n(n+1)/2
    """
    rate = _check_real(rate, "rate", _RATE)
    n = _check_periods(n)
    m, b, c = spec.multiplier, spec.increment, spec.seed
    if abs(m - 1.0) < _DISPATCH_TOL:
        if abs(rate) < _DISPATCH_TOL:
            return n * c + b * n * (n + 1) / 2.0
        a_n = _annuity(rate, n)
        return (c + (n + 1) * b) * a_n - b * (n - a_n) / rate
    if abs(m - (1.0 + rate)) < _DISPATCH_TOL:
        a_n = _annuity(rate, n)
        return n * c + b * (n - a_n) / rate
    a_n = _annuity(rate, n)
    ratio = m / (1.0 + rate)
    geometric = m * (1.0 - ratio**n) / (1.0 + rate - m)
    scale = b / (m - 1.0)
    return (scale + c) * geometric - scale * a_n


def value_offset_stream(spec: OffsetStreamSpec, rate: float, n: int) -> float:
    """Present value of d, d - y_1*h, ..., d - y_(n-1)*h discounted at rate.

    Evaluated as [d + bh/m] a_n - h V_n / m + h c / (1+i), which reuses the
    closed form for V_n above.
    """
    rate = _check_real(rate, "rate", _RATE)
    n = _check_periods(n)
    m, b, c = spec.recurrence.multiplier, spec.recurrence.increment, spec.recurrence.seed
    d, h = spec.first_income, spec.decrement
    v_n = value_recurrence_stream(spec.recurrence, rate, n)
    a_n = _annuity(rate, n)
    return (d + b * h / m) * a_n - h * v_n / m + h * c / (1.0 + rate)


def straight_line_annuity_value(d: float, h: float, rate: float, n: int) -> float:
    """Value of the stream d, d-h, d-2h, ..., d-(n-1)h.

    [d - nh] a_n + h(n - a_n)/i for a nonzero rate; a negative h values a
    stream rising by a constant amount.
    """
    _check_real(d, "d")
    _check_real(h, "h")
    rate = _check_real(rate, "rate", _RATE)
    n = _check_periods(n)
    if abs(rate) < _DISPATCH_TOL:
        counting = RecurrenceSpec(multiplier=1.0, increment=1.0, seed=0.0)
        return value_offset_stream(OffsetStreamSpec(d, h, counting), rate, n)
    a_n = _annuity(rate, n)
    return (d - n * h) * a_n + h * (n - a_n) / rate


def constant_ratio_annuity_value(growth: float, rate: float, n: int) -> float:
    """Value of a stream starting at one and growing by a fixed ratio.

    [1 - ((1+g)/(1+i))^n] / (i - g); when g = i every discounted term is
    1/(1+i), so the value is n/(1+i).
    """
    growth = _check_real(growth, "growth", _RATE)
    rate = _check_real(rate, "rate", _RATE)
    n = _check_periods(n)
    if abs(growth - rate) < _DISPATCH_TOL:
        return n / (1.0 + rate)
    return (1.0 - ((1.0 + growth) / (1.0 + rate)) ** n) / (rate - growth)


def accumulation_stream_value(rate: float, n: int) -> float:
    """Value of the stream s_1, s_2, ..., s_n of accumulation factors.

    Equals the sum of a_1..a_n, and collapses to (n - a_n)/i. Rejects a
    zero rate; that limit is n(n+1)/2 and lives on the recurrence path.
    """
    rate = _check_real(rate, "rate", _RATE)
    n = _check_periods(n)
    if rate == 0.0:
        raise ValueError("rate must be nonzero; the zero-rate value is n(n+1)/2")
    return (n - _annuity(rate, n)) / rate


def ellwood_j_factor(rate: float, n: int) -> float:
    """Curvature factor for income changing along an accumulation path.

    J = (1/s_n) * (n / (1 - (1+i)^-n) - 1/i). Scales the relative income
    change in the denominator of the changing-income cap rate.
    """
    rate = _check_real(rate, "rate", _RATE)
    n = _check_periods(n)
    if rate == 0.0:
        raise ValueError("rate must be nonzero")
    denom = 1.0 - (1.0 + rate) ** (-n)
    if denom == 0.0:
        raise ValueError(f"rate {rate!r} is too close to zero: 1 - (1+i)^-n rounds to 0")
    return (n / denom - 1.0 / rate) / _accumulation(rate, n)


def hoskold_stream_value(income: float, rate: float, safe_rate: float, n: int) -> float:
    """Value of the declining stream priced by the safe-rate recovery method.

    V = I / (i + SFF(n, i_s)): first-year income divided by the discount
    rate loaded with a sinking fund factor at the lower safe rate. The
    stream itself (see hoskold_income_stream) declines by the compounding
    interest losses of recovering capital at the safe rate.
    """
    _check_real(income, "income")
    rate = _check_real(rate, "rate", _RATE)
    safe_rate = _check_real(safe_rate, "safe_rate", _NONNEGATIVE)
    n = _check_periods(n)
    denom = rate + _sff(safe_rate, n)
    if denom == 0.0:
        raise ValueError("rate plus sinking fund factor is zero; value undefined")
    return income / denom


def hoskold_income_stream(income: float, rate: float, safe_rate: float, n: int) -> list[float]:
    """The declining incomes whose present value is hoskold_stream_value.

    I_k = I - (i - i_s) * SFF(n, i_s) * V * s(k-1, i_s): the first income is
    I and each later one sheds the accumulated interest losses on the
    safe-rate recovery deposits. With i_s = 0 the drop is the constant
    i*V/n of the straight-line method; with i_s = i the stream is level.
    """
    value = hoskold_stream_value(income, rate, safe_rate, n)  # checks every argument
    loss = (rate - safe_rate) * _sff(safe_rate, n) * value
    incomes = []
    for k in range(1, int(n) + 1):  # n is a checked count; 12.0 stands for 12
        accumulated = 0.0 if k == 1 else _accumulation(safe_rate, k - 1)
        incomes.append(income - loss * accumulated)
    return incomes
