import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propval import (
    accumulation,
    annuity_pv,
    balance_fraction,
    compound_amount,
    installment_to_amortize,
    portion_paid,
    pv_reversion,
    sinking_fund_factor,
)

from oracles import accumulation_sum, annuity_sum, bal_form2_exact, compound_oracle

# 21 rates from -0.5 to 0.5 in 0.05 steps
RATE_GRID = [(j - 10) * 0.05 for j in range(21)]
HORIZONS = range(1, 41)


class TestCompoundAmount:
    def test_zero_rate_is_identity(self):
        assert compound_amount(0.0, 7) == 1.0

    def test_one_period(self):
        assert compound_amount(0.10, 1) == pytest.approx(1.10, rel=1e-12)

    def test_three_periods_matches_repeated_multiplication(self):
        assert compound_amount(0.10, 3) == pytest.approx(1.3310000000000004, rel=1e-12)
        assert compound_amount(0.10, 3) == pytest.approx(compound_oracle(0.10, 3), rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            compound_amount(float("nan"), 3)
        with pytest.raises(ValueError):
            compound_amount(float("inf"), 3)
        with pytest.raises(ValueError):
            compound_amount(0.1, 0)
        with pytest.raises(ValueError):
            compound_amount(-1.0, 3)


class TestPvReversion:
    def test_zero_rate(self):
        assert pv_reversion(0.0, 5) == 1.0

    def test_one_period(self):
        assert pv_reversion(0.10, 1) == pytest.approx(0.9090909090909091, rel=1e-12)

    def test_reciprocal_of_compound(self):
        assert pv_reversion(0.10, 3) == pytest.approx(0.7513148009015775, rel=1e-12)
        for r in (-0.3, 0.07, 0.25):
            assert pv_reversion(r, 9) == pytest.approx(1.0 / compound_oracle(r, 9), rel=1e-12)

    def test_rejects_rate_at_minus_one(self):
        with pytest.raises(ValueError):
            pv_reversion(-1.0, 2)


class TestAnnuityPv:
    def test_zero_rate_limit_is_n(self):
        assert annuity_pv(0.0, 4) == 4.0

    def test_single_payment(self):
        assert annuity_pv(0.10, 1) == pytest.approx(0.9090909090909091, rel=1e-12)

    def test_five_periods_matches_summation(self):
        assert annuity_pv(0.10, 5) == pytest.approx(3.790786769408448, rel=1e-12)

    def test_grid_matches_summation_oracle(self):
        for r in RATE_GRID:
            for n in HORIZONS:
                expected = annuity_sum(r, n) if r != 0.0 else float(n)
                assert annuity_pv(r, n) == pytest.approx(expected, rel=1e-10)


class TestInstallmentToAmortize:
    def test_zero_rate(self):
        assert installment_to_amortize(0.0, 4) == 0.25

    def test_reciprocal_of_summation(self):
        assert installment_to_amortize(0.10, 5) == pytest.approx(0.2637974807947454, rel=1e-12)

    def test_splits_into_sinking_fund_plus_rate(self):
        for r in RATE_GRID:
            for n in HORIZONS:
                lhs = installment_to_amortize(r, n)
                rhs = sinking_fund_factor(r, n) + r
                assert lhs == pytest.approx(rhs, rel=1e-10)


class TestAccumulation:
    def test_zero_rate_limit_is_n(self):
        assert accumulation(0.0, 6) == 6.0

    def test_two_periods(self):
        assert accumulation(0.10, 2) == pytest.approx(2.1, rel=1e-12)

    def test_restates_annuity_at_horizon(self):
        for r in RATE_GRID:
            for n in HORIZONS:
                assert accumulation(r, n) == pytest.approx(
                    compound_amount(r, n) * annuity_pv(r, n), rel=1e-10
                )

    def test_matches_summation_oracle(self):
        for r in (-0.4, -0.05, 0.03, 0.18):
            for n in (1, 7, 23):
                assert accumulation(r, n) == pytest.approx(accumulation_sum(r, n), rel=1e-11)


class TestSinkingFundFactor:
    def test_zero_rate_is_one_over_n(self):
        assert sinking_fund_factor(0.0, 5) == 0.2

    def test_reciprocal_of_accumulation_oracle(self):
        assert sinking_fund_factor(0.10, 5) == pytest.approx(0.16379748079474532, rel=1e-12)
        assert sinking_fund_factor(0.10, 5) == pytest.approx(1.0 / accumulation_sum(0.10, 5), rel=1e-12)

    @pytest.mark.parametrize(
        "rate, n, exact",
        [(1e300, 2, 1e-300), (1.0, 1025, 2.0**-1025), (1e300, 10, 0.0), (1.0, 2000, 0.0)],
    )
    def test_accumulation_past_the_double_range(self, rate, n, exact):
        # (1+r)^n overflows, but SFF = r / ((1+r)^n - 1) is r v^n in range, or rounds to 0.0
        assert sinking_fund_factor(rate, n) == pytest.approx(exact, rel=1e-12, abs=0.0)


class TestBalanceFraction:
    def test_nothing_repaid_at_start(self):
        for n in (1, 12, 360):
            assert balance_fraction(0, n, 0.07) == 1.0

    def test_retired_at_end(self):
        for n in (1, 12, 360):
            assert balance_fraction(n, n, 0.07) == 0.0

    def test_halfway_matches_annuity_ratio(self):
        expected = annuity_sum(0.01, 6) / annuity_sum(0.01, 12)
        assert balance_fraction(6, 12, 0.01) == pytest.approx(expected, rel=1e-12)

    def test_both_closed_forms_agree(self):
        # form 2 evaluated in exact rational arithmetic; its raw float
        # version cancels to ~1e-9 near k = n at the largest grid rates
        for i in RATE_GRID:
            for n in (2, 5, 17, 40):
                for k in (0, 1, n // 2, n - 1, n):
                    direct = balance_fraction(k, n, i)
                    assert direct == pytest.approx(bal_form2_exact(k, n, i), rel=1e-10, abs=1e-12)

    def test_strictly_decreasing_in_k(self):
        for i in (-0.4, -0.1, 0.0, 0.05, 0.3):
            for n in (2, 9, 30):
                values = [balance_fraction(k, n, i) for k in range(n + 1)]
                assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_k_beyond_n(self):
        with pytest.raises(ValueError):
            balance_fraction(13, 12, 0.01)


class TestPortionPaid:
    def test_endpoints(self):
        assert portion_paid(0, 12, 0.01) == 0.0
        assert portion_paid(12, 12, 0.01) == 1.0

    def test_complements_balance(self):
        assert portion_paid(6, 12, 0.01) == pytest.approx(
            1.0 - annuity_sum(0.01, 6) / annuity_sum(0.01, 12), rel=1e-12
        )


@settings(deadline=None, max_examples=200)
@given(
    rate=st.floats(min_value=-0.9, max_value=2.0, allow_nan=False),
    n=st.integers(min_value=1, max_value=60),
)
def test_installment_identity_everywhere(rate, n):
    lhs = installment_to_amortize(rate, n)
    rhs = rate + sinking_fund_factor(rate, n)
    assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-12)


@settings(deadline=None, max_examples=200)
@given(
    rate=st.floats(min_value=-0.9, max_value=2.0, allow_nan=False),
    n=st.integers(min_value=1, max_value=60),
)
def test_accumulation_restates_annuity_everywhere(rate, n):
    assert math.isclose(
        accumulation(rate, n),
        compound_amount(rate, n) * annuity_pv(rate, n),
        rel_tol=1e-10,
    )
