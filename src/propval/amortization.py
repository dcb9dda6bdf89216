"""Amortization schedules: level payment, arbitrary paydown, sinking-fund.

Every schedule is built from its principal reductions P_1..P_n, as the
main amortization theorem builds one: the balance after period k is the
sum of the reductions still to come, interest is the rate times the
balance owed before the period, and the payment is that interest plus
P_k, so the discounted payments sum back to the principal whatever the
reductions; verify_main_theorem measures the float residual of that.
Level loans at rate r and sinking funds earning r take P_k = P (1+r)^(k-1) / s(n, r).

Amounts stay full-precision doubles; rounding happens only when a schedule
is rendered as CSV (to cents) or as a table (to any number of decimals),
both through one row formatter. Months are just periods: pass a monthly
rate and a month count.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, count, islice, repeat
from operator import add, mul

from . import _EXPORTS
from ._record import record
from .render import MAX_PLACES, _float_rounding_agrees, _report_text, format_fixed
from .timevalue import _NONNEGATIVE, _POSITIVE, _RATE, _accumulation, _annuity, _check_periods, _check_real

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
    and the final payment retires the loan. Every row carries the same
    payment: P_1 + rate * principal, or P_1 (1 + rate)^n for a rate <= 0,
    where that sum would cancel.
    """
    principal = _check_real(principal, "principal", _POSITIVE)
    rate = _check_real(rate, "rate", _RATE)
    n = _check_periods(n)
    reductions = _reductions(principal, rate, n)
    payment = reductions[0] + rate * principal if rate > 0.0 else reductions[0] * (1.0 + rate) ** n
    return _schedule(principal, rate, reductions, "level_schedule", payment)


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
    return _schedule(None, _check_real(rate, "rate", _RATE), reductions, "generalized_schedule")


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
    principal = _check_real(principal, "principal", _POSITIVE)
    rate = _check_real(rate, "rate", _RATE)
    recovery_rate = _check_real(recovery_rate, "recovery_rate", _NONNEGATIVE)
    reductions = _reductions(principal, recovery_rate, _check_periods(n))
    return _schedule(principal, rate, reductions, "sinking_fund_schedule")


def _reductions(principal: float, rate: float, n: int) -> list[float]:
    """P_k = principal (1+rate)^(k-1) / s(n, rate), k = 1..n, each its neighbour
    times (1+rate) or v = 1/(1+rate) from the largest on: backward from
    P_n = principal / a(n, rate) * v for rate > 0, else forward from
    P_1 = principal / s(n, rate), so that neither factor can overflow."""
    if rate > 0.0:
        v = 1.0 / (1.0 + rate)
        reductions = list(accumulate(repeat(v, n - 1), mul, initial=principal / _annuity(rate, n) * v))
        reductions.reverse()
        return reductions
    return list(accumulate(repeat(1.0 + rate, n - 1), mul, initial=principal / _accumulation(rate, n)))


def _schedule(
    principal: float | None, rate: float, reductions: list[float], builder: str, payment: float | None = None
) -> AmortizationSchedule:
    """The schedule of the given reductions, principal None standing for their sum.

    Balances are the sums of the reductions still to come, taken right to
    left so that the last is 0.0 exactly. Interest accrues on the principal
    in period 1 and on the balance owed after that; the payment is reduction
    plus interest, or the given one in every row. Rows skip the constructor,
    as a plain named tuple's _make does; a non-finite amount raises OverflowError.
    """
    owed = list(accumulate(reversed(reductions), initial=0.0))[::-1]
    if principal is not None:
        owed[0] = principal
    interest = list(map(rate.__mul__, owed))  # the last, on the 0.0 owed after period n, is no row's
    payments = list(map(add, reductions, interest)) if payment is None else [payment] * len(reductions)
    # every amount reaches an interest or a payment; a sum is finite only if each
    # term is, but finite terms can sum past the double range, so then check each
    if not (math.isfinite(sum(interest) + sum(payments)) or all(map(math.isfinite, chain(interest, payments)))):
        raise OverflowError(f"{builder}: result is out of floating-point range")
    cells = zip(count(1), payments, interest, reductions, islice(owed, 1, None))
    rows = tuple(map(tuple.__new__, repeat(AmortizationRow), cells))
    return AmortizationSchedule(owed[0], rate, rows)


def verify_main_theorem(schedule: AmortizationSchedule) -> float:
    """Residual of: discounted payments == total principal reductions.

    Returns |sum(payment_k / (1+i)^k) - sum(P_k)|; zero up to float noise
    for every schedule produced by this module. A residual that is not
    finite raises OverflowError; a sum that passes the double range on the
    way is taken again, scaled down by a power of two.
    """
    residual = _residual(schedule, 1.0)
    if not math.isfinite(residual):
        # a partial sum or a discount factor can pass the double range where
        # the residual does not; scaled by 2**-k with 2**k > 2n, n terms
        # within the range and the difference of two such sums stay within
        # it, and a power of two scales exactly but for subnormal terms
        scale = 0.5 ** (len(schedule.rows).bit_length() + 1)
        residual = _residual(schedule, scale) / scale
        if not math.isfinite(residual):
            raise OverflowError("verify_main_theorem: result is out of floating-point range")
    return residual


def _residual(schedule: AmortizationSchedule, scale: float) -> float:
    """verify_main_theorem's residual times scale, a power of two; inf when
    fsum's partial sum leaves the double range."""
    rate = schedule.rate
    discounted = 0.0
    factor = scale
    for row in schedule.rows:
        factor /= 1.0 + rate
        payment = row.payment
        if payment:  # skipped when 0: 0 times an overflowed factor is nan
            discounted += payment * factor
    reductions = schedule.principal_reductions
    try:
        return abs(discounted - math.fsum(reductions if scale == 1.0 else map(scale.__mul__, reductions)))
    except OverflowError:
        return math.inf


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


# a row of schedule_to_dict as json.dumps prints it: %d prints an int and %r
# a finite float as json.dumps does
_JSON_ROW = '{"period": %d, "payment": %r, "interest": %r, "principal_reduction": %r, "ending_balance": %r}'


def schedule_to_json(schedule: AmortizationSchedule) -> str:
    """json.dumps(schedule_to_dict(schedule), allow_nan=False), byte for byte.

    When the rows are AmortizationRows whose periods are ints and whose
    amounts, like the principal and the rate, are finite floats, as every
    builder makes them, each row prints through one % template. Any other
    schedule goes through json.dumps, which raises ValueError on a value
    that is not finite.
    """
    principal, rate, rows = schedule
    if {*map(type, rows)} <= {AmortizationRow}:
        amounts = [principal, rate, *chain.from_iterable(rows)]
        periods = amounts[2::5]
        del amounts[2::5]
        # a finite sum has finite terms; a sum past the double range only
        # sends the schedule to json.dumps
        if {*map(type, periods)} <= {int} and {*map(type, amounts)} == {float} and math.isfinite(sum(amounts)):
            head = '{"schema": 1, "principal": %r, "rate": %r, "rows": [' % (principal, rate)
            return head + ", ".join(map(_JSON_ROW.__mod__, rows)) + "]}"
    import json

    return json.dumps(schedule_to_dict(schedule), allow_nan=False)
