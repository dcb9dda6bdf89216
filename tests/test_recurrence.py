import math
import random

import pytest

from propval import (
    AppreciationSpec,
    MortgageTerms,
    OffsetStreamSpec,
    RecurrenceSpec,
    accumulation,
    accumulation_stream_value,
    annuity_pv,
    constant_ratio_annuity_value,
    ellwood_j_cap_rate,
    ellwood_j_factor,
    hoskold_income_stream,
    hoskold_stream_value,
    recurrence_term,
    recurrence_terms,
    sinking_fund_factor,
    straight_line_annuity_value,
    value_offset_stream,
    value_recurrence_stream,
)
from propval.timevalue import _j_factor

from oracles import (
    accumulation_sum,
    annuity_sum,
    ellwood_j_exact,
    offset_pv_exact,
    recurrence_pv_exact,
    recurrence_stream,
    relclose,
    stream_pv,
)

COUNTING = RecurrenceSpec(multiplier=1.0, increment=1.0, seed=0.0)


class TestRecurrenceTerms:
    def test_counting_sequence(self):
        assert recurrence_terms(COUNTING, 5) == [1, 2, 3, 4, 5]

    def test_constant_sequence(self):
        spec = RecurrenceSpec(multiplier=1.0, increment=0.0, seed=7.0)
        assert recurrence_terms(spec, 3) == [7, 7, 7]

    def test_growth_terms_are_accumulation_factors(self):
        spec = RecurrenceSpec(multiplier=1.05, increment=1.0, seed=0.0)
        terms = recurrence_terms(spec, 3)
        assert terms == pytest.approx([1.0, 2.05, 3.1525], rel=1e-12)
        assert terms == pytest.approx([accumulation(0.05, k) for k in (1, 2, 3)], rel=1e-12)

    def test_closed_form_matches_iteration(self):
        rng = random.Random(7)
        for _ in range(200):
            m, b, c = (rng.uniform(-2, 2) for _ in range(3))
            if rng.random() < 0.3:
                m = 1.0
            spec = RecurrenceSpec(m, b, c)
            iterated = recurrence_terms(spec, 12)
            closed = [recurrence_term(spec, k) for k in range(1, 13)]
            for lhs, rhs in zip(iterated, closed):
                assert relclose(lhs, rhs, rel=1e-9)

    def test_rejects_non_finite_spec(self):
        with pytest.raises(ValueError):
            RecurrenceSpec(float("nan"), 0.0, 1.0)


class TestValueRecurrenceStream:
    def test_level_stream_is_plain_annuity(self):
        spec = RecurrenceSpec(multiplier=1.0, increment=0.0, seed=5.0)
        assert value_recurrence_stream(spec, 0.10, 4) == pytest.approx(
            5 * annuity_pv(0.10, 4), rel=1e-12
        )

    def test_counting_stream_zero_rate(self):
        # 1 + 2 + 3 + 4 undiscounted
        assert value_recurrence_stream(COUNTING, 0.0, 4) == pytest.approx(10.0, rel=1e-12)

    def test_growth_matching_discount(self):
        spec = RecurrenceSpec(multiplier=1.1, increment=1.0, seed=0.0)
        expected = (5 - annuity_pv(0.10, 5)) / 0.10
        assert value_recurrence_stream(spec, 0.10, 5) == pytest.approx(expected, rel=1e-12)
        oracle = stream_pv(recurrence_stream(1.1, 1.0, 0.0, 5), 0.10)
        assert value_recurrence_stream(spec, 0.10, 5) == pytest.approx(oracle, rel=1e-12)

    def test_dispatch_complete_over_random_draws(self):
        # all four regimes, including forced boundaries, against summation
        rng = random.Random(20260810)
        rates = [0.0] + [0.01 * j for j in range(1, 31)]
        for trial in range(800):
            m, b, c = (rng.uniform(-2, 2) for _ in range(3))
            i = rates[rng.randrange(0, len(rates))]
            n = rng.randrange(1, 26)
            kind = trial % 4
            if kind == 1:
                m = 1.0
            elif kind == 2:
                m = 1.0 + i
            elif kind == 3:
                i = 0.0
                if trial % 8 == 3:
                    m = 1.0
            value = value_recurrence_stream(RecurrenceSpec(m, b, c), i, n)
            oracle = stream_pv(recurrence_stream(m, b, c, n), i)
            assert relclose(value, oracle, rel=1e-9)

    def test_continuous_across_dispatch_boundary(self):
        b, c, i, n = 0.8, -1.3, 0.10, 12
        at = value_recurrence_stream(RecurrenceSpec(1.0 + i, b, c), i, n)
        for eps in (1e-7, -1e-7):
            near = value_recurrence_stream(RecurrenceSpec(1.0 + i + eps, b, c), i, n)
            assert abs(near - at) < 1e-4 * abs(at)
        at_one = value_recurrence_stream(RecurrenceSpec(1.0, b, c), i, n)
        for eps in (1e-7, -1e-7):
            near = value_recurrence_stream(RecurrenceSpec(1.0 + eps, b, c), i, n)
            assert abs(near - at_one) < 1e-4 * abs(at_one)

    def test_weighted_position_sum_identity(self):
        # sum of k/(1+i)^k equals (n+1)a_n - (n - a_n)/i
        for i in [(j - 10) * 0.05 for j in range(21) if j != 10]:
            for n in range(1, 41):
                lhs = stream_pv(range(1, n + 1), i)
                a_n = annuity_pv(i, n)
                rhs = (n + 1) * a_n - (n - a_n) / i
                assert relclose(lhs, rhs, rel=1e-10, abs_floor=1e-10)


class TestValueOffsetStream:
    def test_zero_decrement_is_level(self):
        spec = OffsetStreamSpec(100.0, 0.0, RecurrenceSpec(1.3, 0.4, 2.0))
        assert value_offset_stream(spec, 0.10, 5) == pytest.approx(
            100 * annuity_pv(0.10, 5), rel=1e-12
        )

    def test_straight_line_decline(self):
        spec = OffsetStreamSpec(100.0, 10.0, COUNTING)
        assert value_offset_stream(spec, 0.10, 4) == pytest.approx(273.2053821460282, rel=1e-12)
        assert value_offset_stream(spec, 0.10, 4) == pytest.approx(
            stream_pv([100, 90, 80, 70], 0.10), rel=1e-12
        )

    def test_safe_rate_decline_matches_direct_value(self):
        incomes, rate, safe, n = 100.0, 0.10, 0.05, 10
        value = hoskold_stream_value(incomes, rate, safe, n)
        h = (rate - safe) * sinking_fund_factor(safe, n) * value
        spec = OffsetStreamSpec(incomes, h, RecurrenceSpec(1.0 + safe, 1.0, 0.0))
        assert value_offset_stream(spec, rate, n) == pytest.approx(value, rel=1e-11)

    def test_random_specs_match_summation(self):
        rng = random.Random(11)
        for _ in range(300):
            m = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
            b, c = (rng.uniform(-2, 2) for _ in range(2))
            d, h = (rng.uniform(-100, 100) for _ in range(2))
            i = rng.uniform(0.0, 0.3)
            n = rng.randrange(1, 21)
            spec = OffsetStreamSpec(d, h, RecurrenceSpec(m, b, c))
            offsets = recurrence_stream(m, b, c, n - 1)
            oracle = stream_pv([d] + [d - h * y for y in offsets], i)
            assert relclose(value_offset_stream(spec, i, n), oracle, rel=1e-9, abs_floor=1e-8)

    def test_large_increment_does_not_cancel(self):
        # b*h/m is 5e5 times this value: a form that divides by m and adds
        # such terms back loses 1e-10 of it
        d, h, m, b, c, i = -2.195361446424029, -896.752429557636, 1.0000083267552788, -986.9284864511649, 0.0029, 0.35
        spec = OffsetStreamSpec(d, h, RecurrenceSpec(m, b, c))
        assert value_offset_stream(spec, i, 1) == pytest.approx(float(offset_pv_exact(d, h, m, b, c, i, 1)), rel=1e-14)

    def test_values_a_zero_multiplier(self):
        # m = 0 makes every generated term after the seed the increment b
        d, h, b, c, i = 100.0, 2.0, 5.0, 7.0, 0.08
        spec = OffsetStreamSpec(d, h, RecurrenceSpec(0.0, b, c))
        exact = float(offset_pv_exact(d, h, 0.0, b, c, i, 12))
        assert value_offset_stream(spec, i, 12) == pytest.approx(exact, rel=1e-14)


class TestStraightLineAnnuity:
    def test_level(self):
        assert straight_line_annuity_value(100, 0, 0.10, 5) == pytest.approx(
            100 * annuity_pv(0.10, 5), rel=1e-12
        )

    def test_declining(self):
        value = straight_line_annuity_value(100, 10, 0.10, 4)
        a4 = annuity_pv(0.10, 4)
        assert value == pytest.approx((100 - 40) * a4 + 10 * (4 - a4) / 0.10, rel=1e-12)
        assert value == pytest.approx(273.2053821460282, rel=1e-12)

    def test_negative_step_rises(self):
        assert straight_line_annuity_value(100, -10, 0.10, 4) == pytest.approx(
            360.76770712383035, rel=1e-12
        )

    def test_zero_rate_path(self):
        assert straight_line_annuity_value(100, 10, 0.0, 4) == pytest.approx(
            100 + 90 + 80 + 70, rel=1e-12
        )

    def test_agrees_with_offset_stream(self):
        for d, h, i, n in [(50, 5, 0.07, 9), (20, -3, 0.2, 6), (10, 2, 0.01, 30)]:
            spec = OffsetStreamSpec(float(d), float(h), COUNTING)
            assert straight_line_annuity_value(d, h, i, n) == pytest.approx(
                value_offset_stream(spec, i, n), rel=1e-11
            )

    @pytest.mark.parametrize("d, h", [(math.nan, 10.0), (100.0, math.inf), (-math.inf, 0.0)])
    def test_rejects_non_finite_amounts(self, d, h):
        with pytest.raises(ValueError, match="must be finite"):
            straight_line_annuity_value(d, h, 0.10, 4)


class TestConstantRatioAnnuity:
    def test_no_growth_is_annuity(self):
        assert constant_ratio_annuity_value(0.0, 0.10, 5) == pytest.approx(
            annuity_pv(0.10, 5), rel=1e-12
        )

    def test_growth_below_discount(self):
        value = constant_ratio_annuity_value(0.05, 0.10, 10)
        assert value == pytest.approx((1 - (1.05 / 1.10) ** 10) / 0.05, rel=1e-12)
        assert value == pytest.approx(7.439812149162716, rel=1e-12)

    def test_growth_equal_discount(self):
        assert constant_ratio_annuity_value(0.10, 0.10, 3) == pytest.approx(3 / 1.1, rel=1e-12)

    def test_matches_recurrence_form(self):
        for g, i, n in [(0.05, 0.10, 10), (0.3, 0.1, 7), (-0.2, 0.05, 12), (0.1, 0.1, 9)]:
            spec = RecurrenceSpec(1.0 + g, 0.0, 1.0 / (1.0 + g))
            assert constant_ratio_annuity_value(g, i, n) == pytest.approx(
                value_recurrence_stream(spec, i, n), rel=1e-11
            )

    def test_rejects_full_decline(self):
        with pytest.raises(ValueError):
            constant_ratio_annuity_value(-1.0, 0.10, 5)


class TestAccumulationStreamValue:
    def test_single_term(self):
        assert accumulation_stream_value(0.10, 1) == pytest.approx(0.9090909090909091, rel=1e-12)

    def test_equals_sum_of_annuities(self):
        assert accumulation_stream_value(0.10, 4) == pytest.approx(8.30134553650707, rel=1e-12)
        for i in (0.05, 0.1, 0.25):
            for n in (1, 4, 8, 30):
                value = accumulation_stream_value(i, n)
                assert relclose(value, sum(annuity_sum(i, k) for k in range(1, n + 1)), rel=1e-10)
                oracle = stream_pv([accumulation_sum(i, k) for k in range(1, n + 1)], i)
                assert relclose(value, oracle, rel=1e-10)

    def test_quarter_rate(self):
        assert accumulation_stream_value(0.25, 8) == pytest.approx(18.684354559999996, rel=1e-12)

    def test_rejects_zero_rate(self):
        # a zero rate is a removable singularity, where the value is its
        # limit n(n+1)/2, the undiscounted 1 + 2 + ... + n
        assert accumulation_stream_value(0.0, 5) == float(recurrence_pv_exact(1, 1, 0, 0, 5)) == 15.0


class TestEllwoodJFactor:
    def test_single_period_is_one(self):
        assert ellwood_j_factor(0.10, 1) == pytest.approx(1.0, rel=1e-10)

    def test_consistent_with_stream_value(self):
        # value of income 1 changing by delta along accumulation factors
        for i, n, delta in [(0.10, 10, 1.0), (0.06, 25, -0.4), (0.2, 5, 0.3)]:
            s_n = accumulation(i, n)
            h = delta / s_n
            oracle = stream_pv([1 + accumulation_sum(i, k) * h for k in range(1, n + 1)], i)
            j = ellwood_j_factor(i, n)
            via_rate = (1 + delta * j) / (i + sinking_fund_factor(i, n))
            a_n = annuity_pv(i, n)
            via_bracket = a_n + (delta / s_n) * (n - a_n) / i
            assert relclose(via_rate, oracle, rel=1e-9)
            assert relclose(via_bracket, oracle, rel=1e-9)
            assert relclose(via_rate, via_bracket, rel=1e-9)

    def test_positive_over_grid(self):
        for i in (0.01, 0.05, 0.1, 0.2, 0.3):
            for n in range(1, 31):
                assert ellwood_j_factor(i, n) > 0.0

    def test_rejects_zero_rate(self):
        # a zero rate is a removable singularity, where J is its limit (n+1)/(2n)
        assert ellwood_j_factor(0.0, 5) == ellwood_j_exact(0, 5) == 0.6

    @pytest.mark.parametrize("rate, n", [(1e-300, 1), (1e-300, 360), (1e-17, 5), (-1e-17, 5)])
    def test_rejects_rate_whose_discount_rounds_away(self, rate, n):
        # 1 - (1+i)^-n rounds to 0 at these rates; J is still the double
        # nearest its exact value
        assert ellwood_j_factor(rate, n) == ellwood_j_exact(rate, n)


class TestHoskoldStream:
    def test_safe_rate_equal_discount_is_annuity(self):
        assert hoskold_stream_value(100, 0.10, 0.10, 7) == pytest.approx(
            100 * annuity_pv(0.10, 7), rel=1e-12
        )

    def test_safe_rate_zero_is_straight_line_value(self):
        assert hoskold_stream_value(100, 0.10, 0.0, 10) == pytest.approx(
            100 / (0.10 + 1.0 / 10), rel=1e-12
        )

    def test_value_matches_stream_discounting(self):
        value = hoskold_stream_value(100, 0.10, 0.05, 10)
        assert value == pytest.approx(557.0888653910001, rel=1e-12)
        stream = hoskold_income_stream(100, 0.10, 0.05, 10)
        assert stream_pv(stream, 0.10) == pytest.approx(value, rel=1e-10)

    def test_first_income_is_given_income(self):
        stream = hoskold_income_stream(100, 0.10, 0.05, 10)
        assert stream[0] == 100.0

    def test_drops_accelerate_at_safe_rate(self):
        stream = hoskold_income_stream(100, 0.10, 0.05, 10)
        drops = [a - b for a, b in zip(stream, stream[1:])]
        for prev, nxt in zip(drops, drops[1:]):
            assert nxt == pytest.approx(1.05 * prev, rel=1e-9)

    def test_zero_safe_rate_drops_constant(self):
        value = hoskold_stream_value(100, 0.10, 0.0, 10)
        stream = hoskold_income_stream(100, 0.10, 0.0, 10)
        drops = [a - b for a, b in zip(stream, stream[1:])]
        for drop in drops:
            assert drop == pytest.approx(0.10 * value / 10, rel=1e-9)

    def test_rejects_negative_safe_rate(self):
        with pytest.raises(ValueError):
            hoskold_stream_value(100, 0.10, -0.01, 10)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            hoskold_stream_value(100, -0.5, 0.0, 2)

    @pytest.mark.parametrize("income", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_income(self, income):
        with pytest.raises(ValueError, match="income must be finite"):
            hoskold_stream_value(income, 0.10, 0.03, 10)


class TestJFactorMemo:
    """_j_factor keeps its results; a kept J equals a fresh evaluation bit for
    bit, whichever of 0.0, -0.0 and 0 filled the entry."""

    RATES = [0.0, -0.0, 0] + [random.Random(19).uniform(-0.5, 1.0) for _ in range(20)]

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
    def test_kept_j_factor_equals_fresh(self, order):
        horizons = random.Random(1920).sample(range(1, 41), 4)  # shared, so 0.0, -0.0 and 0 share entries
        _j_factor.cache_clear()
        for rate in self.RATES[::order]:
            for n in horizons:
                fresh = _j_factor.__wrapped__(float(rate), n)
                terms = MortgageTerms(0.75, 0.08, 12 * n, n)
                for _ in range(2):  # a miss, then a hit
                    assert ellwood_j_factor(rate, n).hex() == fresh.hex()
                    assert ellwood_j_cap_rate(terms, rate, AppreciationSpec(0.1, 0.2)).j_factor.hex() == fresh.hex()

    def test_memo_is_bounded(self):
        assert _j_factor.cache_parameters()["maxsize"] <= 256
