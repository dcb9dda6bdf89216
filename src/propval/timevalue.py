"""Compound-interest factor functions.

The six classic factors (compound amount, present value reversion, annuity
present value, installment to amortize, accumulation per period, sinking
fund factor) plus the unit-loan balance fractions derived from them.

All rates are per period, expressed as decimal fractions (0.10 means 10%
per period). Periods are integers; callers converting an annual rate to a
monthly schedule pass rate/12 and the month count explicitly. Every
function is pure and safe to call concurrently.

Zero rates are handled by explicit limit branches (annuity -> n,
accumulation -> n, sinking fund factor -> 1/n) rather than evaluating 0/0.

Each argument is validated once, at the public entry point that receives
it, through one of two helpers that the whole package shares. A failed
check raises ValueError("<name> must be <range>, got <value>"):

- _check_real(value, name, bounds) returns float(value) for a value in
  one of the ranges defined below ("rate must be greater than -1 and
  finite, got nan"); an integer beyond the double range is named as
  such, not by its digits;
- _check_periods(n, name, minimum=1, maximum=None) returns an integer
  count (12.0 counts as 12; True, 2.5, nan and inf do not): a period count
  is >= 1, a payment index k >= 0, and decimal places are in 0..12 ("n
  must be >= 1, got 0", "n must be an integer, got 2.5").

The private kernels _annuity, _accumulation, _sff and _increasing hold each
formula and its zero-rate branch once and check nothing; a caller hands
them only values it has checked, or fields of a record that validated them
when it was built. _j_factor, Ellwood's J, is built from three of them and
keeps its results.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from . import _EXPORTS

__all__ = list(_EXPORTS["timevalue"])

_MAX = sys.float_info.max
# Admissible ranges of a real argument as (low, high, words): the closed
# interval low..high, so that the one test low <= value <= high rejects nan,
# inf and -inf too. An open end is the nearest double inside it.
_FINITE = (-_MAX, _MAX, "finite")  # amounts, changes, stream parameters
_RATE = (math.nextafter(-1.0, 0.0), _MAX, "greater than -1 and finite")  # rates, yields, growth
_ANNUAL_RATE = (math.nextafter(-12.0, 0.0), _MAX, "greater than -12 and finite")  # annual rates of monthly loans
_POSITIVE = (math.ulp(0.0), _MAX, "positive and finite")  # principals, a perpetuity's rate
_NONNEGATIVE = (0.0, _MAX, ">= 0 and finite")  # safe and recovery rates
_FRACTION = (0.0, 1.0, "in [0, 1]")  # loan-to-value
_CHANGE = (-1.0, _MAX, ">= -1 and finite")  # change in resale value; -1 wastes the asset


def _check_real(value: float, name: str, bounds: tuple = _FINITE) -> float:
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the double range, whose digits may not even print
        raise ValueError(f"{name} must be {bounds[2]}, got an integer beyond the double range") from None
    if bounds[0] <= value <= bounds[1]:
        return value
    raise ValueError(f"{name} must be {bounds[2]}, got {value!r}")


def _check_periods(n: int, name: str = "n", minimum: int = 1, maximum: int | None = None) -> int:
    if type(n) is int:
        if minimum <= n and (maximum is None or n <= maximum):
            return n
        bounds = f">= {minimum}" if maximum is None else f"in {minimum}..{maximum}"
        raise ValueError(f"{name} must be {bounds}, got {n}")
    if isinstance(n, bool) or not float(n).is_integer():
        raise ValueError(f"{name} must be an integer, got {n!r}")
    return _check_periods(int(n), name, minimum, maximum)


def _annuity(rate: float, n: int) -> float:
    if rate == 0.0:
        return float(n)
    return -math.expm1(-n * math.log1p(rate)) / rate


def _accumulation(rate: float, n: int) -> float:
    if rate == 0.0:
        return float(n)
    if rate <= -1.0:  # a base 1 + rate <= 0 has no logarithm
        return ((1.0 + rate) ** n - 1.0) / rate
    return math.expm1(n * math.log1p(rate)) / rate


def _increasing(growth: float, rate: float, n: int) -> float:
    """Value at rate of the accumulation factors s(1, g), ..., s(n, g).

    That is v P[q, v, 1], the second divided difference of P(y) = y^(n+1)
    at q = (1+g)/(1+i), v = 1/(1+i) and 1, taken across the widest gap with
    each first difference an _accumulation. When n times that gap is below
    1/16, and at n = 0, where P is linear, the Taylor series about 1 is
    summed instead: C(n+1, k+2) h_k(q-1, v-1) over k, h_k the complete
    homogeneous polynomial of degree k. Its twelve terms leave a tail below
    1e-19 of the sum, as term k is at most (n+1)^2 (k+1) 8^-k / (k+2)!.
    """
    v = 1.0 / (1.0 + rate)
    q1, v1, qv = (growth - rate) * v, -rate * v, growth * v  # q - 1, v - 1, q - v
    wq, w1, wv = abs(qv), abs(q1), abs(v1)
    if wq >= w1 and wq >= wv:
        if n * wq >= 0.0625:
            return v * (_accumulation(q1, n + 1) - _accumulation(v1, n + 1)) / qv
    elif n * (w1 if w1 >= wv else wv) >= 0.0625:  # P[q, v, 1] = (P[q, v] - P[v, 1]) / (q - 1), or q and v swapped
        gap, other = (q1, v1) if w1 >= wv else (v1, q1)
        p_qv = math.exp(-n * math.log1p(rate)) * _accumulation(growth, n + 1)  # P[q, v] = v^n s(n+1, g)
        return v * (p_qv - _accumulation(other, n + 1)) / gap
    total, h, v1_k, binomial = 0.0, 1.0, 1.0, n * (n + 1) / 2.0
    for k in range(min(n, 12)):
        total += binomial * h
        v1_k *= v1
        h = q1 * h + v1_k
        binomial *= (n - 1 - k) / (k + 3)
    return v * total


def _sff(rate: float, n: int) -> float:
    if rate == 0.0:
        return 1.0 / n
    try:
        return rate / math.expm1(n * math.log1p(rate))
    except OverflowError:  # (1+rate)^n past the double range, where 1 - v^n rounds to 1: SFF = rate v^n
        return math.exp(math.log(rate) - n * math.log1p(rate))


@lru_cache(maxsize=256)  # a cap-rate sweep asks for each yield's J at several points
def _j_factor(rate: float, n: int) -> float:
    """Ellwood's J: the value of s_1..s_n over a_n s_n."""
    return _increasing(rate, rate, n) / (_annuity(rate, n) * _accumulation(rate, n))


def compound_amount(rate: float, n: int) -> float:
    """Future value of one after n periods: (1+r)^n."""
    rate = _check_real(rate, "rate", _RATE)
    n = _check_periods(n)
    return (1.0 + rate) ** n


def pv_reversion(rate: float, n: int) -> float:
    """Present value of one received n periods out: 1/(1+r)^n."""
    rate = _check_real(rate, "rate", _RATE)
    n = _check_periods(n)
    return (1.0 + rate) ** (-n)


def annuity_pv(rate: float, n: int) -> float:
    """Present value of one per period for n periods.

    a(n,r) = (1 - (1+r)^-n) / r, with the r = 0 limit equal to n.
    Evaluated through expm1/log1p so rates arbitrarily close to zero
    stay accurate instead of cancelling to 0/0.
    """
    return _annuity(_check_real(rate, "rate", _RATE), _check_periods(n))


def installment_to_amortize(rate: float, n: int) -> float:
    """Level payment that retires a loan of one over n periods: 1/a(n,r)."""
    return 1.0 / _annuity(_check_real(rate, "rate", _RATE), _check_periods(n))


def accumulation(rate: float, n: int) -> float:
    """Future value at time n of one deposited per period.

    s(n,r) = ((1+r)^n - 1) / r, with the r = 0 limit equal to n.
    """
    return _accumulation(_check_real(rate, "rate", _RATE), _check_periods(n))


def sinking_fund_factor(rate: float, n: int) -> float:
    """Deposit per period that accumulates to one at time n: 1/s(n,r).

    Satisfies 1/a(n,r) = r + SFF(n,r) for every rate and horizon.
    """
    return _sff(_check_real(rate, "rate", _RATE), _check_periods(n))


def balance_fraction(k: int, n: int, rate: float) -> float:
    """Fraction of a unit level-payment loan still owed after k of n payments.

    bal(k) = a(n-k, r) / a(n, r): the payment on a loan of one is 1/a(n,r),
    and the balance at time k is the value there of the n-k payments left.
    bal(0) = 1 and bal(n) = 0 exactly.
    """
    n = _check_periods(n)
    k = _check_periods(k, name="k", minimum=0)
    if k > n:
        raise ValueError(f"k must not exceed n, got k={k}, n={n}")
    rate = _check_real(rate, "rate", _RATE)
    if k == 0:
        return 1.0
    if k == n:
        return 0.0
    return _annuity(rate, n - k) / _annuity(rate, n)


def portion_paid(k: int, n: int, rate: float) -> float:
    """Fraction of a unit loan repaid after k of n payments: 1 - bal(k)."""
    return 1.0 - balance_fraction(k, n, rate)
