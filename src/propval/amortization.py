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

from . import _EXPORTS
from ._record import record
from .render import _check_places, _float_rounding_agrees, align_table, format_fixed
from .timevalue import _annuity, _check_periods, _check_rate, _sff

__all__ = list(_EXPORTS["amortization"])

COLUMNS = ["period", "payment", "interest", "principal_reduction", "ending_balance"]


class AmortizationRow(record("AmortizationRow", COLUMNS)):
    """One period of a schedule; the amounts are unrounded doubles."""

    __slots__ = ()


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
    if not 0.0 < principal < math.inf:
        raise ValueError(f"principal must be positive and finite, got {principal!r}")
    rate = _check_rate(rate)
    n = _check_periods(n)
    payment = principal * (1.0 / _annuity(rate, n))
    rows = []
    balance = principal
    for period in range(1, n + 1):
        interest = rate * balance
        reduction = payment - interest
        balance -= reduction
        rows.append(AmortizationRow(period, payment, interest, reduction, balance))
    return AmortizationSchedule(principal, rate, tuple(rows))


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
    rate = _check_rate(rate)
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
        rows.append(
            AmortizationRow(k + 1, reduction + interest, interest, reduction, tails[k + 1])
        )
    return AmortizationSchedule(principal, rate, tuple(rows))


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
    if not 0.0 < principal < math.inf:
        raise ValueError(f"principal must be positive and finite, got {principal!r}")
    rate = _check_rate(rate)
    if recovery_rate < 0.0:
        raise ValueError(f"recovery_rate must be >= 0, got {recovery_rate!r}")
    n = _check_periods(n)
    sff = _sff(_check_rate(recovery_rate), n)  # the test above passes nan and inf
    deposit = sff * principal
    rows = []
    fund_prev = 0.0  # s(k-1, r): accumulation factor of the fund so far
    for period in range(1, n + 1):
        balance_before = principal * (1.0 - sff * fund_prev)
        interest = rate * balance_before
        recovered = deposit * (1.0 + recovery_rate) ** (period - 1)
        fund_now = fund_prev * (1.0 + recovery_rate) + 1.0
        rows.append(
            AmortizationRow(
                period,
                interest + recovered,
                interest,
                recovered,
                principal * (1.0 - sff * fund_now),
            )
        )
        fund_prev = fund_now
    return AmortizationSchedule(principal, rate, tuple(rows))


def verify_main_theorem(schedule: AmortizationSchedule) -> float:
    """Residual of: discounted payments == total principal reductions.

    Returns |sum(payment_k / (1+i)^k) - sum(P_k)|; zero up to float noise
    for every schedule produced by this module.
    """
    rate = schedule.rate
    discounted = 0.0
    factor = 1.0
    for row in schedule.rows:
        factor /= 1.0 + rate
        discounted += row.payment * factor
    return abs(discounted - math.fsum(schedule.principal_reductions))


def _row_cells(row: AmortizationRow, places: int) -> list[str]:
    """The period and the four amounts rounded to places decimals, as
    format_fixed rounds them: one float formatting pass when all four
    amounts allow it, format_fixed per amount otherwise."""
    period, a, b, c, d = row
    exact = _float_rounding_agrees
    if exact(a, places) and exact(b, places) and exact(c, places) and exact(d, places):
        spec = f".{places}f"
        return [str(period), f"{a:{spec}}", f"{b:{spec}}", f"{c:{spec}}", f"{d:{spec}}"]
    return [str(period)] + [format_fixed(x, places) for x in (a, b, c, d)]


def schedule_to_csv(schedule: AmortizationSchedule) -> str:
    """Render rows as CSV, amounts rounded to cents, LF line endings."""
    lines = [",".join(COLUMNS)] + [",".join(_row_cells(row, 2)) for row in schedule.rows]
    return "\n".join(lines) + "\n"


def schedule_to_table(schedule: AmortizationSchedule, places: int) -> str:
    """Render rows as aligned columns, amounts rounded to places decimals."""
    _check_places(places)
    return align_table([COLUMNS] + [_row_cells(row, places) for row in schedule.rows])


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

    return json.dumps(schedule_to_dict(schedule))
