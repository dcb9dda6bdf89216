"""Direct capitalization rates for income properties.

Everything here turns a first-year income into a value through V = I/R.
The rate R is assembled from the deal structure: a perpetuity divides by
the discount rate alone, wasting assets load a sinking fund factor on
top, appreciation unloads it, and leveraged holds blend debt and equity
through the band-of-investment and mortgage-equity formulas (with the
income-change variant dividing by 1 + delta*J).
"""

from __future__ import annotations

from functools import lru_cache

from . import _EXPORTS
from ._record import record
from .timevalue import (
    _ANNUAL_RATE, _CHANGE, _FRACTION, _NONNEGATIVE, _POSITIVE, _RATE, _annuity, _check_periods, _check_real, _j_factor,
    _sff,
)

__all__ = list(_EXPORTS["capitalization"])

RECOVERY_METHODS = ("ring", "hoskold", "annuity")


class MortgageTerms(record("MortgageTerms", "loan_to_value annual_rate amortization_months holding_years")):
    """Financing shape of a leveraged hold.

    loan_to_value is the financed fraction of value; annual_rate the note
    rate; the loan amortizes monthly over amortization_months, which may
    outlast the holding_years (never the reverse, or there is no balance
    left to describe). Both counts are stored as ints: 300.0 becomes 300.
    """

    __slots__ = ()

    def __new__(
        cls, loan_to_value: float, annual_rate: float, amortization_months: int, holding_years: int
    ) -> MortgageTerms:
        loan_to_value = _check_real(loan_to_value, "loan_to_value", _FRACTION)
        annual_rate = _check_real(annual_rate, "annual_rate", _RATE)
        amortization_months = _check_periods(amortization_months, name="amortization_months")
        holding_years = _check_periods(holding_years, name="holding_years")
        if amortization_months < 12 * holding_years:
            raise ValueError(
                "amortization_months must cover the holding period "
                f"({amortization_months} < {12 * holding_years})"
            )
        return tuple.__new__(cls, (loan_to_value, annual_rate, amortization_months, holding_years))


class AppreciationSpec(record("AppreciationSpec", "asset_change income_change", defaults=(0.0, 0.0))):
    """Relative changes over the holding period.

    asset_change is the fractional change in resale value (-1 means the
    asset wastes away entirely); income_change is the fractional change in
    income used by the changing-income cap rate.
    """

    __slots__ = ()

    def __new__(cls, asset_change: float = 0.0, income_change: float = 0.0) -> AppreciationSpec:
        asset_change = _check_real(asset_change, "asset_change", _CHANGE)
        income_change = _check_real(income_change, "income_change")
        return tuple.__new__(cls, (asset_change, income_change))


class EllwoodRate(
    record(
        "EllwoodRate",
        [
            "rate",
            "c_factor",
            "mortgage_constant",
            "portion_paid",
            "balance_fraction",
            "equity_sff",
            "akerson_rate",
            "j_factor",
            "income_change",
        ],
        defaults=(None, 0.0),
    )
):
    """A mortgage-equity cap rate with its intermediate pieces.

    akerson_rate regroups the same terms band-of-investment style and must
    equal rate up to float noise; j_factor is set only by the
    changing-income variant.
    """

    __slots__ = ()


def perpetuity_value(income: float, rate: float) -> float:
    """Value of a level income that never stops: I / i."""
    return _check_real(income, "income") / _check_real(rate, "rate", _POSITIVE)


def capitalize(income: float, cap_rate: float) -> float:
    """Value from one period's income and a capitalization rate: V = I/R."""
    income = _check_real(income, "income")
    cap_rate = _check_real(cap_rate, "cap_rate")
    if cap_rate == 0.0:
        raise ValueError("cap_rate must be nonzero")
    return income / cap_rate


def rate_from(value: float, income: float) -> float:
    """Implied capitalization rate R = I/V from an observed value."""
    value = _check_real(value, "value")
    income = _check_real(income, "income")
    if value == 0.0:
        raise ValueError("value must be nonzero")
    return income / value


def adjusted_cap_rate(rate: float, n: int, asset_change: float) -> float:
    """Cap rate for a level income with a resale at (1 + change) * V.

    R = i - change * SFF(n, i). No change leaves the discount rate;
    change = -1 (total waste) loads the full sinking fund factor back on,
    recovering 1/a(n, i).
    """
    rate = _check_real(rate, "rate", _RATE)
    n = _check_periods(n)
    return rate - _check_real(asset_change, "asset_change") * _sff(rate, n)


def band_of_investment(loan_to_value: float, debt_rate: float, equity_yield: float) -> float:
    """Blend of debt and equity rates for an interest-only loan.

    R = M*i + (1-M)*Y: the cap rate is the value-weighted average of what
    each band of the capital stack requires.
    """
    loan_to_value = _check_real(loan_to_value, "loan_to_value", _FRACTION)
    debt_rate = _check_real(debt_rate, "debt_rate")
    equity_yield = _check_real(equity_yield, "equity_yield")
    return loan_to_value * debt_rate + (1.0 - loan_to_value) * equity_yield


def band_with_mortgage_constant(
    loan_to_value: float, mortgage_constant_annual: float, equity_yield: float
) -> float:
    """Band of investment with amortizing debt: R = M*Rm + (1-M)*Y.

    Applies when the loan amortizes over the hold and the asset value
    declines in step with the payoff, so the annual debt service constant
    replaces the bare interest rate.
    """
    loan_to_value = _check_real(loan_to_value, "loan_to_value", _FRACTION)
    mortgage_constant_annual = _check_real(mortgage_constant_annual, "mortgage_constant_annual")
    equity_yield = _check_real(equity_yield, "equity_yield")
    return loan_to_value * mortgage_constant_annual + (1.0 - loan_to_value) * equity_yield


def mortgage_constant(annual_rate: float, amortization_months: int) -> float:
    """Annual debt service per unit of loan: 12 / a(months, rate/12)."""
    amortization_months = _check_periods(amortization_months, name="amortization_months")
    annual_rate = _check_real(annual_rate, "annual_rate", _ANNUAL_RATE)
    return _loan(annual_rate, amortization_months, amortization_months)[0]


def ellwood_cap_rate(
    terms: MortgageTerms,
    equity_yield: float,
    appreciation: AppreciationSpec = AppreciationSpec(),
) -> EllwoodRate:
    """Mortgage-equity cap rate for a constant income over the hold.

    R = Y - M*C - change * SFF(H, Y), where C = Y + P*SFF(H, Y) - Rm folds
    the loan's rate advantage and the equity built by paydown (P is the
    portion of the loan retired by the end of the hold, from the monthly
    balance at 12H). The akerson_rate field carries the equivalent
    regrouping M*Rm + (1-M)Y - M*P*SFF - change*SFF.
    """
    return _ellwood(terms, _check_real(equity_yield, "equity_yield", _RATE), appreciation)


def ellwood_j_cap_rate(
    terms: MortgageTerms,
    equity_yield: float,
    appreciation: AppreciationSpec,
    n_for_j: int | None = None,
) -> EllwoodRate:
    """Mortgage-equity cap rate when income changes over the hold.

    R = (Y - M*C - change*SFF) / (1 + delta*J): the constant-income rate
    divided by one plus the relative income change scaled by the J factor.
    J is computed at the equity yield over the holding period unless
    n_for_j overrides the horizon.
    """
    equity_yield = _check_real(equity_yield, "equity_yield", _RATE)
    horizon = terms.holding_years if n_for_j is None else _check_periods(n_for_j, name="n_for_j")
    return _ellwood(terms, equity_yield, appreciation, horizon)


def _ellwood(terms: MortgageTerms, equity_yield: float, appreciation: AppreciationSpec, j_horizon: int | None = None):
    # the rate, divided by 1 + delta*J when J has a horizon; the records validated their fields
    m, h = terms.loan_to_value, terms.holding_years
    r_m, bal = _loan(terms.annual_rate, terms.amortization_months, 12 * h)
    change = appreciation.asset_change
    paid = 1.0 - bal
    sff = _sff(equity_yield, h)
    c_factor = equity_yield + paid * sff - r_m
    rate = equity_yield - m * c_factor - change * sff
    akerson = m * r_m + (1.0 - m) * equity_yield - m * paid * sff - change * sff
    if j_horizon is None:
        return tuple.__new__(EllwoodRate, (rate, c_factor, r_m, paid, bal, sff, akerson, None, 0.0))
    j, delta = _j_factor(equity_yield, j_horizon), appreciation.income_change
    denom = 1.0 + delta * j
    if denom == 0.0:
        raise ValueError("income change cancels the J adjustment; rate undefined")
    return tuple.__new__(EllwoodRate, (rate / denom, c_factor, r_m, paid, bal, sff, akerson / denom, j, delta))


@lru_cache(maxsize=64)
def _loan(annual_rate: float, months: int, paid_months: int) -> tuple[float, float]:
    # mortgage constant R_m and the balance fraction left after paid_months of a
    # monthly loan; a sweep asks for one loan's pair at every point, so it is kept
    monthly = annual_rate / 12.0
    a_n = _annuity(monthly, months)
    bal = 0.0 if paid_months == months else _annuity(monthly, months - paid_months) / a_n
    return 12.0 * (1.0 / a_n), bal


def recovery_cap_rate(method: str, rate: float, n: int, safe_rate: float | None = None) -> float:
    """Cap rate by recovery method: return on investment plus return of it.

    ring    -> i + 1/n        (capital recovered in equal zero-interest slices)
    hoskold -> i + SFF(n, i_s) (recovery accrues at a safe rate below i)
    annuity -> 1/a(n, i)       (recovery accrues at the discount rate itself)
    """
    rate = _check_real(rate, "rate", _RATE)
    n = _check_periods(n)
    if method == "ring":
        return rate + 1.0 / n
    if method == "hoskold":
        if safe_rate is None:
            raise ValueError("hoskold method requires a safe_rate")
        return rate + _sff(_check_real(safe_rate, "safe_rate", _NONNEGATIVE), n)
    if method == "annuity":
        return 1.0 / _annuity(rate, n)
    raise ValueError(f"unknown method {method!r}; expected one of {RECOVERY_METHODS}")
