import json
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from propval import (
    annuity_pv,
    generalized_schedule,
    hoskold_income_stream,
    level_schedule,
    schedule_to_csv,
    schedule_to_dict,
    schedule_to_json,
    sinking_fund_factor,
    sinking_fund_schedule,
    verify_main_theorem,
)

from oracles import annuity_sum, stream_pv

GENERAL_EXAMPLE_CSV = (
    "period,payment,interest,principal_reduction,ending_balance\n"
    "1,200.00,100.00,100.00,900.00\n"
    "2,390.00,90.00,300.00,600.00\n"
    "3,660.00,60.00,600.00,0.00\n"
)


def assert_row_arithmetic(schedule):
    balance = schedule.principal
    for row in schedule.rows:
        assert row.payment == pytest.approx(row.interest + row.principal_reduction, abs=1e-9)
        assert row.interest == pytest.approx(schedule.rate * balance, abs=1e-9)
        balance -= row.principal_reduction
        assert row.ending_balance == pytest.approx(balance, abs=1e-6)
    assert abs(schedule.rows[-1].ending_balance) < 1e-6


class TestLevelSchedule:
    def test_zero_rate_splits_evenly(self):
        schedule = level_schedule(1000, 0.0, 4)
        assert schedule.payments == [250, 250, 250, 250]
        assert all(row.interest == 0.0 for row in schedule.rows)
        assert schedule.rows[-1].ending_balance == 0.0

    def test_unit_loan_payment_is_annuity_reciprocal(self):
        schedule = level_schedule(1.0, 0.10, 5)
        expected = 1.0 / annuity_sum(0.10, 5)
        for payment in schedule.payments:
            assert payment == pytest.approx(expected, rel=1e-12)
        assert abs(schedule.rows[-1].ending_balance) < 1e-12

    def test_principal_reductions_grow_by_one_plus_rate(self):
        schedule = level_schedule(1000, 0.10, 5)
        prs = schedule.principal_reductions
        for prev, nxt in zip(prs, prs[1:]):
            assert nxt == pytest.approx(1.10 * prev, rel=1e-10)

    @pytest.mark.parametrize("principal, rate, n", [(1000, 0.10, 5), (250_000, 0.065 / 12, 360), (1.0, -0.9, 400)])
    def test_payments_are_one_double(self, principal, rate, n):
        schedule = level_schedule(principal, rate, n)
        assert len(set(schedule.payments)) == 1

    def test_balances_match_unit_loan_fraction(self):
        schedule = level_schedule(1000, 0.10, 5)
        for row in schedule.rows[:-1]:
            expected = 1000 * annuity_sum(0.10, 5 - row.period) / annuity_sum(0.10, 5)
            assert row.ending_balance == pytest.approx(expected, rel=1e-8)

    def test_row_arithmetic(self):
        assert_row_arithmetic(level_schedule(250000, 0.0075, 360))

    def test_rejects_nonpositive_principal(self):
        with pytest.raises(ValueError):
            level_schedule(0.0, 0.05, 12)

    @pytest.mark.parametrize("principal", [math.inf, math.nan])
    def test_rejects_non_finite_principal(self, principal):
        with pytest.raises(ValueError, match="principal must be positive and finite"):
            level_schedule(principal, 0.1, 3)


class TestGeneralizedSchedule:
    def test_single_period(self):
        schedule = generalized_schedule([1000], 0.08)
        assert schedule.rows[0].payment == pytest.approx(1080.0, rel=1e-12)
        assert schedule.rows[0].ending_balance == 0.0

    def test_reproduces_level_schedule(self):
        level = level_schedule(1000, 0.10, 5)
        rebuilt = generalized_schedule(level.principal_reductions, 0.10)
        for ours, theirs in zip(rebuilt.rows, level.rows):
            assert ours.payment == pytest.approx(theirs.payment, rel=1e-12)
            assert ours.interest == pytest.approx(theirs.interest, rel=1e-10)
            assert ours.ending_balance == pytest.approx(theirs.ending_balance, abs=1e-8)

    def test_hand_worked_incomes(self):
        schedule = generalized_schedule([100, 300, 600], 0.10)
        assert schedule.principal == 1000
        assert schedule.payments == pytest.approx([200, 390, 660], rel=1e-12)
        assert [row.ending_balance for row in schedule.rows] == pytest.approx(
            [900, 600, 0], abs=1e-12
        )

    def test_final_balance_is_exactly_zero(self):
        # all three builders sum the reductions still to come, right to left
        rng = random.Random(5)
        for _ in range(50):
            ps = [rng.uniform(-500, 500) for _ in range(rng.randrange(1, 31))]
            principal, n = rng.uniform(1.0, 1e9), rng.randrange(1, 481)
            rate, fund_rate = rng.uniform(-0.5, 1.0), rng.choice([0.0, rng.uniform(0.0, 1.0)])
            for schedule in (
                generalized_schedule(ps, 0.07),
                level_schedule(principal, rate, n),
                sinking_fund_schedule(principal, rate, fund_rate, n),
            ):
                assert schedule.rows[-1].ending_balance == 0.0

    def test_flags_negative_amortization(self):
        schedule = generalized_schedule([100, -50, 950], 0.05)
        assert schedule.negative_amortization_periods == [2]

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError):
            generalized_schedule([], 0.05)
        with pytest.raises(ValueError):
            generalized_schedule([100, float("inf")], 0.05)


class TestMainTheorem:
    def test_level_schedule_residual(self):
        assert verify_main_theorem(level_schedule(1000, 0.10, 5)) < 1e-9

    def test_hand_worked_residual(self):
        schedule = generalized_schedule([100, 300, 600], 0.10)
        assert stream_pv(schedule.payments, 0.10) == pytest.approx(1000.0, rel=1e-12)
        assert verify_main_theorem(schedule) < 1e-9

    def test_sinking_fund_residual(self):
        assert verify_main_theorem(sinking_fund_schedule(1000, 0.10, 0.05, 10)) < 1e-9

    @settings(deadline=None, max_examples=300)
    @given(
        ps=st.lists(
            st.floats(min_value=-500, max_value=500, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        rate=st.floats(min_value=1e-3, max_value=0.3, allow_nan=False),
    )
    def test_holds_for_arbitrary_reductions(self, ps, rate):
        assume(math.fsum(ps) > 1.0)
        schedule = generalized_schedule(ps, rate)
        assert verify_main_theorem(schedule) < 1e-6 * math.fsum(ps)


class TestSinkingFundSchedule:
    def test_matching_rates_reproduce_level_schedule(self):
        # the same reductions, balances and interest; only the level payment
        # is the one double P_1 + i * P where the sinking fund adds P_k + interest
        for principal, rate, n in [(1000, 0.10, 10), (250_000, 0.065 / 12, 360), (1e6, 0.9, 119), (1e6, 0.0, 7)]:
            level = level_schedule(principal, rate, n)
            sinking = sinking_fund_schedule(principal, rate, rate, n)
            for ours, theirs in zip(sinking.rows, level.rows, strict=True):
                assert ours.payment == pytest.approx(theirs.payment, rel=1e-12)
                assert ours[2:] == theirs[2:]

    def test_zero_fund_rate_drops_income_by_constant(self):
        schedule = sinking_fund_schedule(1000, 0.10, 0.0, 10)
        payments = schedule.payments
        drops = [a - b for a, b in zip(payments, payments[1:])]
        for drop in drops:
            assert drop == pytest.approx(0.10 * 1000 / 10, rel=1e-10)

    def test_first_income_and_acceleration(self):
        schedule = sinking_fund_schedule(1000, 0.10, 0.05, 10)
        sff = sinking_fund_factor(0.05, 10)
        assert schedule.payments[0] == pytest.approx(1000 * (0.10 + sff), rel=1e-12)
        drops = [a - b for a, b in zip(schedule.payments, schedule.payments[1:])]
        for prev, nxt in zip(drops, drops[1:]):
            assert nxt == pytest.approx(1.05 * prev, rel=1e-9)

    def test_discounted_income_recovers_principal(self):
        schedule = sinking_fund_schedule(1000, 0.10, 0.05, 10)
        assert stream_pv(schedule.payments, 0.10) == pytest.approx(1000.0, rel=1e-10)

    def test_incomes_match_safe_rate_stream(self):
        # same declining incomes as the safe-rate capitalization stream
        schedule = sinking_fund_schedule(1000, 0.10, 0.05, 10)
        first = 1000 * (0.10 + sinking_fund_factor(0.05, 10))
        expected = hoskold_income_stream(first, 0.10, 0.05, 10)
        # the stream values income 'first' at V = first/(i + SFF) = 1000
        assert expected == pytest.approx(schedule.payments, rel=1e-9)

    def test_capital_recovered_column_sums_to_principal(self):
        schedule = sinking_fund_schedule(1000, 0.10, 0.05, 10)
        assert math.fsum(schedule.principal_reductions) == pytest.approx(1000.0, rel=1e-12)

    def test_row_arithmetic(self):
        assert_row_arithmetic(sinking_fund_schedule(1000, 0.10, 0.05, 10))
        assert_row_arithmetic(sinking_fund_schedule(500, 0.07, 0.0, 25))

    def test_rising_income_above_discount_rate(self):
        schedule = sinking_fund_schedule(1000, 0.10, 0.15, 10)
        payments = schedule.payments
        assert all(b > a for a, b in zip(payments, payments[1:]))

    def test_rejects_negative_fund_rate(self):
        with pytest.raises(ValueError):
            sinking_fund_schedule(1000, 0.10, -0.05, 10)

    @pytest.mark.parametrize("principal", [math.inf, math.nan])
    def test_rejects_non_finite_principal(self, principal):
        with pytest.raises(ValueError, match="principal must be positive and finite"):
            sinking_fund_schedule(principal, 0.10, 0.05, 10)


class TestSerialization:
    def test_csv_bytes_frozen(self):
        schedule = generalized_schedule([100, 300, 600], 0.10)
        assert schedule_to_csv(schedule) == GENERAL_EXAMPLE_CSV

    def test_csv_uses_lf_and_no_negative_zero(self):
        schedule = level_schedule(1000, 0.10, 5)
        text = schedule_to_csv(schedule)
        assert "\r" not in text
        assert text.endswith("0.00\n")
        assert "-0.00" not in text

    def test_csv_rounds_ties_away_from_zero(self):
        schedule = generalized_schedule([100.005, -100.005, 1000], 0.0)
        text = schedule_to_csv(schedule)
        assert "100.01" in text
        assert "-100.01" in text

    def test_json_round_trip_unrounded(self):
        schedule = sinking_fund_schedule(1000, 0.10, 0.05, 10)
        data = json.loads(schedule_to_json(schedule))
        assert data["schema"] == 1
        assert data["principal"] == 1000.0
        assert data["rate"] == 0.10
        assert [row["payment"] for row in data["rows"]] == schedule.payments

    def test_dict_carries_all_columns(self):
        schedule = level_schedule(1000, 0.10, 2)
        row = schedule_to_dict(schedule)["rows"][0]
        assert set(row) == {"period", "payment", "interest", "principal_reduction", "ending_balance"}
