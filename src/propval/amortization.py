"""Amortization schedules: level payment, arbitrary paydown, sinking-fund.

Every schedule obeys the same column arithmetic: interest is the rate
times the prior balance, the payment is interest plus that period's
principal reduction, and the balance telescopes to zero. The discounted
payment column always sums back to the principal, whatever principal
reductions were chosen; verify_main_theorem measures the float residual
of that identity for any schedule built here.

Amounts stay full-precision doubles; rounding happens only when a schedule
is rendered as CSV (to cents) or as a table (to any number of decimals),
both through one row formatter. Months are just periods: pass a monthly
rate and a month count.
"""

from __future__ import annotations

import math
from itertools import chain

from . import _EXPORTS
from ._record import record
from .render import MAX_PLACES, _float_rounding_agrees, _report_text, format_fixed
from .timevalue import _NONNEGATIVE, _POSITIVE, _RATE, _annuity, _check_periods, _check_real, _sff

__all__ = list(_EXPORTS["amortization"])

COLUMNS = ["period", "payment", "interest", "principal_reduction", "ending_balance"]


class AmortizationRow(record("AmortizationRow", COLUMNS)):
    """One period of a schedule; the amounts are unrounded doubles."""

    __slots__ = ()


def _schedule_rows(rows: list[tuple], builder: str) -> tuple:
    """The builders' plain 5-tuples as AmortizationRows, one C call each.

    tuple.__new__ is what a plain named tuple's _make calls: it skips
    AmortizationRow.__new__, which validates nothing as long as the class
    defines none of its own. A non-finite amount raises OverflowError.
    """
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise OverflowError(f"{builder}: result is out of floating-point range")
    new = tuple.__new__
    return tuple([new(AmortizationRow, row) for row in rows])


class AmortizationSchedule(record("AmortizationSchedule", "principal rate rows")):
    """Principal, per-period rate, and the tuple of rows that retire the principal."""

    __slots__ = ()

    @property
    def payments(self) -> list[float]:
        return [row.payment for row in self.rows]

    @property
    def principal_reductions(self) -> list[float]:
        return [row.principal_reduction for row in self.rows]

    @property
    def negative_amortization_periods(self) -> list[int]:
        """Periods whose balance rose instead of falling."""
        return [row.period for row in self.rows if row.principal_reduction < 0.0]


def level_schedule(principal: float, rate: float, n: int) -> AmortizationSchedule:
    """Classic equal-payment schedule: PMT = principal / a(n, rate).

    Interest comes out of each payment first; the remainder reduces the
    balance, so the principal reductions grow by (1 + rate) each period
    and the final payment retires the loan.
    """
    _check_real(principal, "principal", _POSITIVE)
    rate = _check_real(rate, "rate", _RATE)
    n = _check_periods(n)
    try:
        payment = principal * (1.0 / _annuity(rate, n))
    except OverflowError:  # a(n, rate) past the double range
        raise OverflowError("level_schedule: result is out of floating-point range") from None
    rows = []
    balance = principal
    for period in range(1, n + 1):
        interest = rate * balance
        reduction = payment - interest
        balance -= reduction
        rows.append((period, payment, interest, reduction, balance))
    return AmortizationSchedule(principal, rate, _schedule_rows(rows, "level_schedule"))


def generalized_schedule(principal_reductions: list[float], rate: float) -> AmortizationSchedule:
    """Schedule from arbitrarily chosen principal reductions.

    The principal is their sum, interest in period k accrues on what is
    still outstanding, and the payment column is P_k + i*(P_k + ... + P_n).
    Negative entries are allowed (the balance rises that period and the
    schedule flags it via negative_amortization_periods).
    """
    reductions = [float(p) for p in principal_reductions]
    if not reductions:
        raise ValueError("need at least one principal reduction")
    if not all(math.isfinite(p) for p in reductions):
        raise ValueError("principal reductions must be finite")
    rate = _check_real(rate, "rate", _RATE)
    n = len(reductions)
    # tails[k] = P_(k+1) + ... + P_n, built right to left so the last
    # balance is zero exactly, not up to summation rounding.
    tails = [0.0] * (n + 1)
    for k in range(n - 1, -1, -1):
        tails[k] = reductions[k] + tails[k + 1]
    principal = tails[0]
    rows = []
    for k in range(n):
        interest = rate * tails[k]
        reduction = reductions[k]
        rows.append((k + 1, reduction + interest, interest, reduction, tails[k + 1]))
    return AmortizationSchedule(principal, rate, _schedule_rows(rows, "generalized_schedule"))


def sinking_fund_schedule(
    principal: float, rate: float, recovery_rate: float, n: int
) -> AmortizationSchedule:
    """Capital recovery through a sinking fund at its own rate.

    The recovery deposit is SFF(n, r) * principal; with fund interest the
    capital recovered in period k is that deposit times (1+r)^(k-1), and
    the income column starts at principal * (rate + SFF(n, r)) and sheds
    the accumulated interest losses (rate - r) on the fund. r = rate gives
    back the level schedule; r = 0 drops income by a constant
    rate * principal / n each period.
    """
    _check_real(principal, "principal", _POSITIVE)
    rate = _check_real(rate, "rate", _RATE)
    recovery_rate = _check_real(recovery_rate, "recovery_rate", _NONNEGATIVE)
    n = _check_periods(n)
    try:
        sff = _sff(recovery_rate, n)
    except OverflowError:  # s(n, recovery_rate) past the double range
        raise OverflowError("sinking_fund_schedule: result is out of floating-point range") from None
    deposit = sff * principal
    rows = []
    fund_prev = 0.0  # s(k-1, r): accumulation factor of the fund so far
    for period in range(1, n + 1):
        balance_before = principal * (1.0 - sff * fund_prev)
        interest = rate * balance_before
        recovered = deposit * (1.0 + recovery_rate) ** (period - 1)
        fund_now = fund_prev * (1.0 + recovery_rate) + 1.0
        rows.append((period, interest + recovered, interest, recovered, principal * (1.0 - sff * fund_now)))
        fund_prev = fund_now
    return AmortizationSchedule(principal, rate, _schedule_rows(rows, "sinking_fund_schedule"))


def verify_main_theorem(schedule: AmortizationSchedule) -> float:
    """Residual of: discounted payments == total principal reductions.

    Returns |sum(payment_k / (1+i)^k) - sum(P_k)|; zero up to float noise
    for every schedule produced by this module. A residual that is not
    finite raises OverflowError.
    """
    rate = schedule.rate
    discounted = 0.0
    factor = 1.0
    for row in schedule.rows:
        factor /= 1.0 + rate
        payment = row.payment
        if payment:  # skipped when 0: 0 times an overflowed factor is nan
            discounted += payment * factor
    try:
        residual = abs(discounted - math.fsum(schedule.principal_reductions))
    except OverflowError:  # fsum's own, when a partial sum leaves the double range
        residual = math.inf
    if not math.isfinite(residual):
        raise OverflowError("verify_main_theorem: result is out of floating-point range")
    return residual


# one % template per number of places: the period through %s, so that it
# prints as str() prints it (a period of 1.0 stays "1.0"), and the four
# amounts through %.{places}f, which rounds as f"{x:.{places}f}" does
_ROW_TEMPLATES = tuple("%s" + f",%.{k}f" * 4 for k in range(MAX_PLACES + 1))


def _row_line(row: AmortizationRow, places: int) -> str:
    """The period and the four amounts rounded to places decimals, as
    format_fixed rounds them, joined by commas: one template when all four
    amounts pass the fast-path test, format_fixed per amount otherwise."""
    period, a, b, c, d = row
    exact = _float_rounding_agrees
    if exact(a, places) and exact(b, places) and exact(c, places) and exact(d, places):
        return _ROW_TEMPLATES[places] % row
    return ",".join([str(period)] + [format_fixed(x, places) for x in (a, b, c, d)])


def schedule_to_csv(schedule: AmortizationSchedule) -> str:
    """Render rows as CSV, amounts rounded to cents, LF line endings."""
    return "\n".join([",".join(COLUMNS)] + [_row_line(row, 2) for row in schedule.rows]) + "\n"


def schedule_to_table(schedule: AmortizationSchedule, places: int) -> str:
    """Render rows as aligned columns, amounts rounded to places decimals."""
    places = _check_periods(places, "places", 0, MAX_PLACES)
    # split from the right: of the five cells only the period can hold a comma
    return _report_text([COLUMNS] + [_row_line(row, places).rsplit(",", 4) for row in schedule.rows])


def schedule_to_dict(schedule: AmortizationSchedule) -> dict:
    """Plain-dict form with unrounded doubles, ready for json.dumps."""
    return {
        "schema": 1,
        "principal": schedule.principal,
        "rate": schedule.rate,
        "rows": [
            {
                "period": period,
                "payment": payment,
                "interest": interest,
                "principal_reduction": reduction,
                "ending_balance": balance,
            }
            for period, payment, interest, reduction, balance in schedule.rows
        ],
    }


def schedule_to_json(schedule: AmortizationSchedule) -> str:
    import json

    return json.dumps(schedule_to_dict(schedule), allow_nan=False)
