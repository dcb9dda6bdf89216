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
  finite, got nan");
- _check_periods(n, name, minimum=1, maximum=None) returns an integer
  count (12.0 counts as 12; True, 2.5, nan and inf do not): a period count
  is >= 1, a payment index k >= 0, and decimal places are in 0..12 ("n
  must be >= 1, got 0", "n must be an integer, got 2.5").

The private kernels _annuity, _accumulation and _sff hold each formula and
its zero-rate branch once and check nothing; a caller hands them only
values it has checked, or fields of a record that validated them when it
was built.
"""

from __future__ import annotations

import math
import sys

from . import _EXPORTS

__all__ = list(_EXPORTS["timevalue"])

_MAX = sys.float_info.max
# Admissible ranges of a real argument as (low, high, words): the closed
# interval low..high, so that the one test low <= value <= high rejects nan,
# inf and -inf too. An open end is the nearest double inside it.
_FINITE = (-_MAX, _MAX, "finite")  # amounts, changes, stream parameters
_RATE = (math.nextafter(-1.0, 0.0), _MAX, "greater than -1 and finite")  # rates, yields, growth
_POSITIVE = (math.ulp(0.0), _MAX, "positive and finite")  # principals, a perpetuity's rate
_NONNEGATIVE = (0.0, _MAX, ">= 0 and finite")  # safe and recovery rates
_FRACTION = (0.0, 1.0, "in [0, 1]")  # loan-to-value
_CHANGE = (-1.0, _MAX, ">= -1 and finite")  # change in resale value; -1 wastes the asset


def _check_real(value: float, name: str, bounds: tuple = _FINITE) -> float:
    value = float(value)
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
    return math.expm1(n * math.log1p(rate)) / rate


def _sff(rate: float, n: int) -> float:
    if rate == 0.0:
        return 1.0 / n
    return rate / math.expm1(n * math.log1p(rate))


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
