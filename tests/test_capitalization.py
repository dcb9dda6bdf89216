import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propval import (
    AppreciationSpec,
    EllwoodRate,
    MortgageTerms,
    adjusted_cap_rate,
    annuity_pv,
    balance_fraction,
    band_of_investment,
    band_with_mortgage_constant,
    capitalize,
    ellwood_cap_rate,
    ellwood_j_cap_rate,
    ellwood_j_factor,
    hoskold_stream_value,
    mortgage_constant,
    perpetuity_value,
    rate_from,
    sinking_fund_factor,
    recovery_cap_rate,
)

from propval.capitalization import _loan

from oracles import accumulation_sum, annuity_sum, stream_pv


def mortgage_balance_equation_residual(noi, value, terms, equity_yield, asset_change, rm, bal):
    """Discounted equity cash flows plus loan face value, minus the value.

    value = a(H,Y) * (noi - M*value*rm)
            + (1+Y)^-H * ((1+change)*value - M*value*bal) + M*value
    """
    m, h = terms.loan_to_value, terms.holding_years
    equity_income = annuity_sum(equity_yield, h) * (noi - m * value * rm)
    reversion = ((1 + asset_change) * value - m * value * bal) / (1 + equity_yield) ** h
    return value - (equity_income + reversion + m * value)


class TestPerpetuityAndIrv:
    def test_limit_of_long_annuity(self):
        assert perpetuity_value(100, 0.10) == 1000.0
        assert abs(perpetuity_value(100, 0.10) - 100 * annuity_sum(0.10, 200)) < 0.01

    def test_zero_income(self):
        assert perpetuity_value(0, 0.05) == 0.0

    def test_unit_rate(self):
        assert perpetuity_value(1, 1.0) == 1.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            perpetuity_value(100, 0.0)
        with pytest.raises(ValueError):
            perpetuity_value(100, -0.05)

    def test_capitalize_basic(self):
        assert capitalize(120, 0.12) == pytest.approx(1000.0, rel=1e-12)
        assert capitalize(0, 0.1) == 0.0

    def test_capitalize_with_annuity_rate(self):
        rate = 1.0 / annuity_pv(0.10, 5)
        assert capitalize(100, rate) == pytest.approx(100 * annuity_sum(0.10, 5), rel=1e-12)

    def test_round_trip(self):
        for income, rate in [(120, 0.12), (85.5, 0.0735), (40, -0.02)]:
            assert rate_from(capitalize(income, rate), income) == pytest.approx(rate, rel=1e-12)

    def test_rejects_zero_divisors(self):
        with pytest.raises(ValueError):
            capitalize(100, 0.0)
        with pytest.raises(ValueError):
            rate_from(0.0, 100)


class TestAdjustedCapRate:
    def test_no_change_gives_discount_rate(self):
        assert adjusted_cap_rate(0.10, 10, 0.0) == pytest.approx(0.10, rel=1e-12)

    def test_total_waste_gives_full_load(self):
        assert adjusted_cap_rate(0.10, 10, -1.0) == pytest.approx(
            1.0 / annuity_pv(0.10, 10), rel=1e-12
        )

    def test_appreciation_unloads(self):
        expected = 0.10 - 0.5 * sinking_fund_factor(0.10, 10)
        assert adjusted_cap_rate(0.10, 10, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_fixed_point_of_value_equation(self):
        # V = I/R* must equal PV of 10 incomes plus the 1.5V reversion
        income, i, n, change = 100.0, 0.10, 10, 0.5
        value = capitalize(income, adjusted_cap_rate(i, n, change))
        direct = income * annuity_sum(i, n) + (1 + change) * value / (1 + i) ** n
        assert abs(value - direct) < 1e-8 * value

    def test_strictly_decreasing_in_change(self):
        rates = [adjusted_cap_rate(0.08, 12, delta) for delta in [k * 0.1 - 1.0 for k in range(20)] + [1.0]]
        assert all(a > b for a, b in zip(rates, rates[1:]))


class TestBandOfInvestment:
    def test_all_equity(self):
        assert band_of_investment(0.0, 0.08, 0.12) == 0.12

    def test_all_debt(self):
        assert band_of_investment(1.0, 0.08, 0.12) == 0.08

    def test_weighted_blend(self):
        assert band_of_investment(0.7, 0.08, 0.12) == pytest.approx(0.092, rel=1e-12)

    def test_value_equation_balances(self):
        # V = (NOI - M*V*i)/Y + M*V with V = NOI/R
        noi, m, i, y = 100.0, 0.7, 0.08, 0.12
        value = capitalize(noi, band_of_investment(m, i, y))
        assert abs(value - ((noi - m * value * i) / y + m * value)) < 1e-8 * value

    def test_resale_after_hold_gives_same_rate(self):
        # interest-only loan, asset sold at unchanged value after the hold:
        # V = a(H,Y)(NOI - M*V*i) + (1+Y)^-H (V - MV) + MV balances with
        # the same blended rate
        noi, m, i, y, hold = 100.0, 0.7, 0.08, 0.12, 10
        value = capitalize(noi, band_of_investment(m, i, y))
        equity_income = annuity_sum(y, hold) * (noi - m * value * i)
        reversion = (value - m * value) / (1 + y) ** hold
        assert abs(value - (equity_income + reversion + m * value)) < 1e-8 * value

    def test_rejects_bad_ltv(self):
        with pytest.raises(ValueError):
            band_of_investment(1.2, 0.08, 0.12)


class TestBandWithMortgageConstant:
    def test_all_equity(self):
        assert band_with_mortgage_constant(0.0, 0.10, 0.13) == 0.13

    def test_all_debt(self):
        assert band_with_mortgage_constant(1.0, 0.10, 0.13) == 0.10

    def test_weighted_blend(self):
        assert band_with_mortgage_constant(0.6, 0.0966, 0.13) == pytest.approx(
            0.6 * 0.0966 + 0.4 * 0.13, rel=1e-12
        )

    def test_value_equation_with_full_amortization(self):
        # loan amortizes over the hold; resale nets to V - MV
        noi, m, i, y, hold = 100.0, 0.6, 0.09, 0.13, 10
        rm = mortgage_constant(i, 12 * hold)
        value = capitalize(noi, band_with_mortgage_constant(m, rm, y))
        equity_income = annuity_sum(y, hold) * (noi - m * value * rm)
        reversion = (value - m * value) / (1 + y) ** hold
        assert abs(value - (equity_income + reversion + m * value)) < 1e-8 * value


class TestMortgageConstant:
    def test_zero_rate(self):
        assert mortgage_constant(0.0, 120) == pytest.approx(0.1, rel=1e-12)

    def test_one_year_loan(self):
        assert mortgage_constant(0.12, 12) == pytest.approx(
            12 * (0.01 / (1 - 1.01 ** (-12))), rel=1e-12
        )

    def test_against_monthly_annuity_oracle(self):
        assert mortgage_constant(0.09, 300) == pytest.approx(
            12 / annuity_sum(0.09 / 12, 300), rel=1e-12
        )


class TestEllwoodCapRate:
    def test_unlevered_no_change_is_equity_yield(self):
        terms = MortgageTerms(0.0, 0.09, 300, 10)
        result = ellwood_cap_rate(terms, 0.14, AppreciationSpec(0.0))
        assert result.rate == pytest.approx(0.14, rel=1e-12)
        assert result.akerson_rate == pytest.approx(0.14, rel=1e-12)

    def test_full_amortization_with_matching_depreciation(self):
        # paid off at resale and value falls by the loan share: the band
        # of investment rate with the mortgage constant
        terms = MortgageTerms(0.6, 0.09, 120, 10)
        result = ellwood_cap_rate(terms, 0.13, AppreciationSpec(asset_change=-0.6))
        rm = mortgage_constant(0.09, 120)
        assert result.rate == pytest.approx(band_with_mortgage_constant(0.6, rm, 0.13), rel=1e-10)
        assert result.portion_paid == pytest.approx(1.0, abs=1e-12)

    def test_worked_case_round_trip(self):
        noi = 100.0
        terms = MortgageTerms(0.7, 0.09, 300, 10)
        result = ellwood_cap_rate(terms, 0.14, AppreciationSpec(asset_change=0.1))
        value = capitalize(noi, result.rate)
        residual = mortgage_balance_equation_residual(
            noi, value, terms, 0.14, 0.1, result.mortgage_constant, result.balance_fraction
        )
        assert abs(residual) < 1e-8 * value

    def test_akerson_regrouping_matches(self):
        rng = random.Random(3)
        for _ in range(1000):
            hold = rng.randrange(1, 31)
            terms = MortgageTerms(
                rng.uniform(0, 0.95),
                rng.uniform(0.01, 0.15),
                12 * hold + rng.randrange(0, 361),
                hold,
            )
            spec = AppreciationSpec(asset_change=rng.uniform(-0.9, 1.0))
            y = rng.uniform(0.03, 0.25)
            result = ellwood_cap_rate(terms, y, spec)
            assert abs(result.rate - result.akerson_rate) < 1e-12

    def test_balance_uses_monthly_loan(self):
        terms = MortgageTerms(0.7, 0.09, 300, 10)
        result = ellwood_cap_rate(terms, 0.14, AppreciationSpec())
        expected_bal = annuity_sum(0.0075, 180) / annuity_sum(0.0075, 300)
        assert result.balance_fraction == pytest.approx(expected_bal, rel=1e-10)

    def test_unlevered_collapses_to_adjusted_rate(self):
        # no debt: the mortgage-equity rate is just the value-change rate
        terms = MortgageTerms(0.0, 0.09, 300, 10)
        result = ellwood_cap_rate(terms, 0.14, AppreciationSpec(asset_change=0.3))
        assert result.rate == pytest.approx(adjusted_cap_rate(0.14, 10, 0.3), rel=1e-12)

    def test_rejects_hold_beyond_amortization(self):
        with pytest.raises(ValueError):
            MortgageTerms(0.7, 0.09, 60, 10)


class TestEllwoodJCapRate:
    def test_no_income_change_matches_constant_income(self):
        terms = MortgageTerms(0.7, 0.09, 300, 10)
        plain = ellwood_cap_rate(terms, 0.14, AppreciationSpec(asset_change=0.1))
        with_j = ellwood_j_cap_rate(terms, 0.14, AppreciationSpec(asset_change=0.1, income_change=0.0))
        assert with_j.rate == pytest.approx(plain.rate, rel=1e-12)

    def test_pure_income_premise_rate(self):
        # unlevered wasting asset with fully changing income
        terms = MortgageTerms(0.0, 0.09, 300, 10)
        spec = AppreciationSpec(asset_change=-1.0, income_change=1.0)
        result = ellwood_j_cap_rate(terms, 0.14, spec)
        y = 0.14
        expected = (y + sinking_fund_factor(y, 10)) / (1.0 + result.j_factor)
        assert result.rate == pytest.approx(expected, rel=1e-12)

    def test_worked_case_round_trip_with_stream_oracle(self):
        noi = 100.0
        y, hold = 0.14, 10
        terms = MortgageTerms(0.7, 0.09, 300, hold)
        spec = AppreciationSpec(asset_change=0.1, income_change=0.2)
        result = ellwood_j_cap_rate(terms, y, spec)
        value = capitalize(noi, result.rate)
        # discount the changing income net of debt service, add reversion
        # net of the loan balance, plus the loan face value
        h = noi * spec.income_change / accumulation_sum(y, hold)
        incomes = [noi + accumulation_sum(y, k) * h for k in range(1, hold + 1)]
        debt_service = terms.loan_to_value * value * result.mortgage_constant
        equity = stream_pv([inc - debt_service for inc in incomes], y)
        reversion = (
            (1 + spec.asset_change) * value
            - terms.loan_to_value * value * result.balance_fraction
        ) / (1 + y) ** hold
        direct = equity + reversion + terms.loan_to_value * value
        assert abs(value - direct) < 1e-8 * value

    def test_income_change_that_cancels_j_is_rejected(self):
        # J = 1 at Y = 0 over one year, so 1 + delta * J = 0 at delta = -1
        spec = AppreciationSpec(asset_change=0.0, income_change=-1.0)
        with pytest.raises(ValueError, match="^income change cancels the J adjustment; rate undefined$"):
            ellwood_j_cap_rate(MortgageTerms(0.7, 0.09, 300, 1), 0.0, spec)


class TestRecoveryMethods:
    def test_ring(self):
        assert recovery_cap_rate("ring", 0.10, 10) == pytest.approx(0.20, rel=1e-12)

    def test_annuity(self):
        assert recovery_cap_rate("annuity", 0.10, 10) == pytest.approx(
            1.0 / annuity_pv(0.10, 10), rel=1e-12
        )

    def test_hoskold_matches_stream_value(self):
        rate = recovery_cap_rate("hoskold", 0.10, 10, safe_rate=0.05)
        assert rate == pytest.approx(0.10 + sinking_fund_factor(0.05, 10), rel=1e-12)
        assert capitalize(100, rate) == pytest.approx(
            hoskold_stream_value(100, 0.10, 0.05, 10), rel=1e-12
        )

    def test_hoskold_requires_safe_rate(self):
        with pytest.raises(ValueError):
            recovery_cap_rate("hoskold", 0.10, 10)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            recovery_cap_rate("gordon", 0.10, 10)


# each function with finite reference arguments; every position is then made non-finite
FINITE_CALLS = [
    (perpetuity_value, (100.0, 0.1)),
    (capitalize, (100.0, 0.1)),
    (rate_from, (1000.0, 100.0)),
    (band_of_investment, (0.7, 0.09, 0.12)),
    (band_with_mortgage_constant, (0.7, 0.1, 0.12)),
]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "fn, args, position",
    [(fn, args, k) for fn, args in FINITE_CALLS for k in range(len(args))],
    ids=[f"{fn.__name__}-arg{k}" for fn, args in FINITE_CALLS for k in range(len(args))],
)
def test_rejects_nonfinite_arguments(fn, args, position, bad):
    with pytest.raises(ValueError):
        fn(*args[:position], bad, *args[position + 1 :])



def composed_ellwood(terms, equity_yield, change):
    """EllwoodRate assembled from the public factor functions, term by term."""
    m, h = terms.loan_to_value, terms.holding_years
    r_m = mortgage_constant(terms.annual_rate, terms.amortization_months)
    bal = balance_fraction(12 * h, terms.amortization_months, terms.annual_rate / 12.0)
    paid = 1.0 - bal
    sff = sinking_fund_factor(equity_yield, h)
    c_factor = equity_yield + paid * sff - r_m
    rate = equity_yield - m * c_factor - change * sff
    akerson = m * r_m + (1.0 - m) * equity_yield - m * paid * sff - change * sff
    return EllwoodRate(rate, c_factor, r_m, paid, bal, sff, akerson)


@st.composite
def ellwood_inputs(draw):
    hold = draw(st.integers(1, 40))
    # a loan that ends with the hold leaves a balance of exactly zero
    months = 12 * hold + draw(st.one_of(st.just(0), st.integers(0, 360)))
    annual_rate = draw(st.one_of(st.just(0.0), st.floats(-0.5, 1.0)))
    terms = MortgageTerms(draw(st.floats(0.0, 1.0)), annual_rate, months, hold)
    equity_yield = draw(st.one_of(st.floats(-0.5, -1e-3), st.floats(1e-3, 1.0)))
    change = AppreciationSpec(draw(st.floats(-1.0, 1.0)), draw(st.floats(-0.5, 0.5)))
    return terms, equity_yield, change


class TestEllwoodBitIdentity:
    """The Ellwood rates equal, bit for bit, the composition of the public
    factor functions they are defined by."""

    @settings(max_examples=300, deadline=None)
    @given(ellwood_inputs())
    def test_constant_income(self, inputs):
        terms, equity_yield, change = inputs
        result = ellwood_cap_rate(terms, equity_yield, change)
        assert result == composed_ellwood(terms, equity_yield, change.asset_change)
        if 12 * terms.holding_years == terms.amortization_months:
            assert result.balance_fraction == 0.0

    @settings(max_examples=300, deadline=None)
    @given(ellwood_inputs(), st.one_of(st.none(), st.integers(1, 40)))
    def test_changing_income(self, inputs, n_for_j):
        terms, equity_yield, change = inputs
        base = composed_ellwood(terms, equity_yield, change.asset_change)
        j = ellwood_j_factor(equity_yield, terms.holding_years if n_for_j is None else n_for_j)
        denom = 1.0 + change.income_change * j
        expected = base._replace(
            rate=base.rate / denom, akerson_rate=base.akerson_rate / denom, j_factor=j,
            income_change=change.income_change,
        )
        assert ellwood_j_cap_rate(terms, equity_yield, change, n_for_j) == expected


def _bits(values):
    return [float(x).hex() for x in values]


class TestLoanMemo:
    """_loan keeps each loan's pair; a kept pair equals a fresh evaluation bit
    for bit, whichever of 0.0, -0.0 and 0 filled the entry."""

    RATES = [0.0, -0.0, 0] + [random.Random(19).uniform(-0.5, 1.0) for _ in range(20)]

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
    def test_kept_loan_equals_fresh(self, order):
        rng = random.Random(1919)
        # the same loans at every rate, so that 0.0, -0.0 and 0 share entries;
        # 12 * hold == months leaves no balance
        loans = [(hold, months) for hold in rng.sample(range(1, 41), 3) for months in (12 * hold, 12 * hold + 60)]
        _loan.cache_clear()
        for rate in self.RATES[::order]:
            for hold, months in loans:
                fresh = _loan.__wrapped__(rate, months, 12 * hold)
                for _ in range(2):  # a miss, then a hit
                    assert _bits(_loan(float(rate), months, 12 * hold)) == _bits(fresh)
                    assert mortgage_constant(rate, months).hex() == _loan.__wrapped__(rate, months, months)[0].hex()
                    e = ellwood_cap_rate(MortgageTerms(0.75, rate, months, hold), 0.1, AppreciationSpec(0.1, 0.2))
                    assert _bits([e.mortgage_constant, e.balance_fraction]) == _bits(fresh)

    def test_memo_is_bounded(self):
        assert _loan.cache_parameters()["maxsize"] <= 256


class TestRecordsBuiltInOneFrame:
    def test_appreciation_spec_defaults_and_paths_still_validate(self):
        assert AppreciationSpec() == (0.0, 0.0) and type(AppreciationSpec()) is AppreciationSpec
        spec = AppreciationSpec._make((0.1, 0.2))
        assert spec == (0.1, 0.2) and type(spec) is AppreciationSpec
        assert spec._replace(income_change=0.3) == (0.1, 0.3)
        with pytest.raises(ValueError, match="asset_change must be >= -1"):
            AppreciationSpec._make((-2.0, 0.0))
        with pytest.raises(ValueError, match="income_change must be finite"):
            spec._replace(income_change=math.nan)

    def test_ellwood_rate_fields_are_the_constructors(self):
        terms, spec = MortgageTerms(0.75, 0.08, 300, 10), AppreciationSpec(0.1, 0.2)
        constant = ellwood_cap_rate(terms, 0.12, spec)
        assert type(constant) is EllwoodRate and constant == EllwoodRate(*constant[:7])
        assert (constant.j_factor, constant.income_change) == (None, 0.0)
        changing = ellwood_j_cap_rate(terms, 0.12, spec)
        assert type(changing) is EllwoodRate and changing == EllwoodRate(*changing)
