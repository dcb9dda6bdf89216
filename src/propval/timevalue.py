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
it. The private kernels _annuity, _accumulation and _sff hold each formula
and its zero-rate branch once and check nothing; a caller hands them only
values it has checked, or fields of a record that validated them when it
was built.
"""

from __future__ import annotations

import math

from . import _EXPORTS

__all__ = list(_EXPORTS["timevalue"])


def _check_finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _check_rate(rate: float, name: str = "rate") -> float:
    # the finite check is inline rather than a call to _check_finite: this
    # runs once per rate argument of every public factor function
    rate = float(rate)
    if not math.isfinite(rate):
        raise ValueError(f"{name} must be finite, got {rate!r}")
    if rate <= -1.0:
        raise ValueError(f"{name} must be greater than -1, got {rate!r}")
    return rate


def _check_periods(n: int, name: str = "n", minimum: int = 1) -> int:
    if type(n) is int and n >= minimum:
        return n
    if isinstance(n, bool) or float(n) != int(n):
        raise ValueError(f"{name} must be an integer period count, got {n!r}")
    n = int(n)
    if n < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {n}")
    return n


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
    rate = _check_rate(rate)
    n = _check_periods(n)
    return (1.0 + rate) ** n


def pv_reversion(rate: float, n: int) -> float:
    """Present value of one received n periods out: 1/(1+r)^n."""
    rate = _check_rate(rate)
    n = _check_periods(n)
    return (1.0 + rate) ** (-n)


def annuity_pv(rate: float, n: int) -> float:
    """Present value of one per period for n periods.

    a(n,r) = (1 - (1+r)^-n) / r, with the r = 0 limit equal to n.
    Evaluated through expm1/log1p so rates arbitrarily close to zero
    stay accurate instead of cancelling to 0/0.
    """
    return _annuity(_check_rate(rate), _check_periods(n))


def installment_to_amortize(rate: float, n: int) -> float:
    """Level payment that retires a loan of one over n periods: 1/a(n,r)."""
    return 1.0 / _annuity(_check_rate(rate), _check_periods(n))


def accumulation(rate: float, n: int) -> float:
    """Future value at time n of one deposited per period.

    s(n,r) = ((1+r)^n - 1) / r, with the r = 0 limit equal to n.
    """
    return _accumulation(_check_rate(rate), _check_periods(n))


def sinking_fund_factor(rate: float, n: int) -> float:
    """Deposit per period that accumulates to one at time n: 1/s(n,r).

    Satisfies 1/a(n,r) = r + SFF(n,r) for every rate and horizon.
    """
    return _sff(_check_rate(rate), _check_periods(n))


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
    rate = _check_rate(rate)
    if k == 0:
        return 1.0
    if k == n:
        return 0.0
    return _annuity(rate, n - k) / _annuity(rate, n)


def portion_paid(k: int, n: int, rate: float) -> float:
    """Fraction of a unit loan repaid after k of n payments: 1 - bal(k)."""
    return 1.0 - balance_fraction(k, n, rate)
