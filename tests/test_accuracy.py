"""Accuracy of the factor and changing-income forms, gaps down to 0 included,
of every row of the three schedules, of npv, and of the mortgage-equity
(Ellwood and Akerson) cap rate.

Each closed form is compared with an exact Fraction sum of its stream
(tests/oracles.py) and must satisfy |computed - exact| <= BOUND * scale.
The scale of a changing-income value or term is the same value or term
with every parameter in absolute value (|m|, |b|, |c|; |d|, |h|); for the
constant-ratio annuity, the accumulation stream, J and the six factors it
is the value itself, and for the balance fractions the unit loan. Rates
lie in [-0.5, 1], multipliers in [-2, 3] and horizons in 1..40, and the
gaps the forms divide by (i, m - 1, m - 1 - i, g - i) are drawn as
exactly 0 or with a magnitude in [1e-15, 1e-1], where cancellation is
worst.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from propval import (
    AppreciationSpec,
    MortgageTerms,
    OffsetStreamSpec,
    Project,
    RecurrenceSpec,
    accumulation,
    accumulation_stream_value,
    annuity_pv,
    balance_fraction,
    compound_amount,
    constant_ratio_annuity_value,
    ellwood_cap_rate,
    ellwood_j_cap_rate,
    ellwood_j_factor,
    generalized_schedule,
    installment_to_amortize,
    level_schedule,
    npv,
    portion_paid,
    pv_reversion,
    recurrence_term,
    sinking_fund_factor,
    sinking_fund_schedule,
    straight_line_annuity_value,
    value_offset_stream,
    value_recurrence_stream,
)

from oracles import (
    assert_rows_within,
    ellwood_j_exact,
    ellwood_j_rate_exact,
    ellwood_rate_exact,
    generalized_schedule_exact,
    level_schedule_exact,
    offset_pv_exact,
    recurrence_pv_exact,
    recurrence_term_exact,
    sinking_fund_schedule_exact,
)

BOUND = Fraction(1e-12)
EXAMPLES = settings(derandomize=True, max_examples=150, deadline=None)

_MAGNITUDES = st.floats(-15.0, -1.0).map(lambda e: 10.0**e)
GAPS = st.one_of(st.just(0.0), _MAGNITUDES, _MAGNITUDES.map(lambda x: -x))
RATES = st.one_of(GAPS, st.floats(-0.5, 1.0))
COUNTS = st.integers(1, 40)
# nonzero amounts and multipliers stay at least 1e-3 in size, so that no
# power of them underflows into the subnormal range, where a double holds
# fewer than 53 bits whatever the formula
AMOUNTS = st.one_of(st.just(0.0), st.floats(-1e3, -1e-3), st.floats(1e-3, 1e3))


def _multipliers(rate: float):
    """m in [-2, 3], 0 included, or with m - 1 or m - 1 - i a gap."""
    return st.one_of(
        st.just(0.0),
        st.floats(-2.0, -1e-3),
        st.floats(1e-3, 3.0),
        GAPS.map(lambda g: 1.0 + g),
        GAPS.map(lambda g: 1.0 + rate + g),
    )


def _assert_within(computed: float, exact: Fraction, scale: Fraction):
    error = abs(Fraction(computed) - exact)
    assert error <= BOUND * scale, f"scaled error {float(error / scale):.3g}"


@EXAMPLES
@given(st.data(), COUNTS.map(lambda n: n - 1), AMOUNTS, AMOUNTS)
def test_recurrence_term(data, k, b, c):
    m = data.draw(_multipliers(0.0))
    exact = recurrence_term_exact(m, b, c, k)
    _assert_within(recurrence_term(RecurrenceSpec(m, b, c), k), exact, recurrence_term_exact(abs(m), abs(b), abs(c), k))


@EXAMPLES
@given(st.data(), RATES, COUNTS, AMOUNTS, AMOUNTS)
def test_value_recurrence_stream(data, rate, n, b, c):
    m = data.draw(_multipliers(rate))
    exact = recurrence_pv_exact(m, b, c, rate, n)
    scale = recurrence_pv_exact(abs(m), abs(b), abs(c), rate, n)
    _assert_within(value_recurrence_stream(RecurrenceSpec(m, b, c), rate, n), exact, scale)


@EXAMPLES
@given(st.data(), RATES, COUNTS, AMOUNTS, AMOUNTS, AMOUNTS, AMOUNTS)
def test_value_offset_stream(data, rate, n, d, h, b, c):
    m = data.draw(_multipliers(rate))
    exact = offset_pv_exact(d, h, m, b, c, rate, n)
    scale = offset_pv_exact(abs(d), -abs(h), abs(m), abs(b), abs(c), rate, n)  # incomes |d| + |h| |y_k|
    _assert_within(value_offset_stream(OffsetStreamSpec(d, h, RecurrenceSpec(m, b, c)), rate, n), exact, scale)


@EXAMPLES
@given(AMOUNTS, AMOUNTS, RATES, COUNTS)
def test_straight_line_annuity_value(d, h, rate, n):
    exact = recurrence_pv_exact(1, -h, Fraction(d) + Fraction(h), rate, n)
    scale = recurrence_pv_exact(1, abs(h), Fraction(abs(d)) - Fraction(abs(h)), rate, n)
    _assert_within(straight_line_annuity_value(d, h, rate, n), exact, scale)


@EXAMPLES
@given(st.data(), RATES, COUNTS)
def test_constant_ratio_annuity_value(data, rate, n):
    growth = data.draw(st.one_of(st.floats(-0.5, 1.0), GAPS.map(lambda g: rate + g)))
    ratio = 1 + Fraction(growth)
    exact = recurrence_pv_exact(ratio, 0, 1 / ratio, rate, n)
    _assert_within(constant_ratio_annuity_value(growth, rate, n), exact, exact)


@EXAMPLES
@given(RATES, COUNTS)
def test_accumulation_stream_value(rate, n):
    exact = recurrence_pv_exact(1 + Fraction(rate), 1, 0, rate, n)
    _assert_within(accumulation_stream_value(rate, n), exact, exact)


@EXAMPLES
@given(RATES, COUNTS)
def test_ellwood_j_factor(rate, n):
    nearest = Fraction(ellwood_j_exact(rate, n))  # within 2^-53 of J in relative terms
    _assert_within(ellwood_j_factor(rate, n), nearest, nearest)


@EXAMPLES
@given(st.data(), RATES, COUNTS)
def test_timevalue_factors(data, rate, n):
    # scale: the factor itself, and the unit loan for the balance fractions
    growth = 1 + Fraction(rate)
    a_n, s_n = sum(growth**-t for t in range(1, n + 1)), sum(growth**t for t in range(n))
    for function, exact in (
        (compound_amount, growth**n),
        (pv_reversion, growth**-n),
        (annuity_pv, a_n),
        (installment_to_amortize, 1 / a_n),
        (accumulation, s_n),
        (sinking_fund_factor, 1 / s_n),
    ):
        _assert_within(function(rate, n), exact, exact)
    k = data.draw(st.integers(0, n))
    owed = sum(growth**-t for t in range(1, n - k + 1)) / a_n
    _assert_within(balance_fraction(k, n, rate), owed, Fraction(1))
    _assert_within(portion_paid(k, n, rate), 1 - owed, Fraction(1))


# Schedules: every amount of every row against the same schedule in exact
# arithmetic from the same doubles, over 1..120 periods (and 360 and 480 in
# the examples), rates as above, fund rates in [0, 1] with 0 included, and
# reductions of either sign, a negative one being a period of negative
# amortization.
SCHEDULE_COUNTS = st.integers(1, 120)
PRINCIPALS = st.floats(1.0, 1e9)
FUND_RATES = st.one_of(st.just(0.0), _MAGNITUDES, st.floats(0.0, 1.0))
REDUCTIONS = st.lists(AMOUNTS.map(lambda x: x * 1e3), min_size=1, max_size=120)


@EXAMPLES
@given(PRINCIPALS, RATES, SCHEDULE_COUNTS)
@example(250_000.0, 0.065 / 12, 360)
@example(1e6, 0.0, 480)
@example(1e6, 0.18 / 12, 480)
@example(1e6, 0.5, 60)
@example(1e6, 0.9, 119)
def test_level_schedule(principal, rate, n):
    exact = level_schedule_exact(principal, rate, n)
    assert_rows_within(level_schedule(principal, rate, n), exact, BOUND * Fraction(principal))


@EXAMPLES
@given(PRINCIPALS, RATES, FUND_RATES, SCHEDULE_COUNTS)
@example(1e6, 0.08 / 12, 0.0, 360)
@example(1e6, 0.08 / 12, 0.04 / 12, 480)
def test_sinking_fund_schedule(principal, rate, recovery_rate, n):
    exact = sinking_fund_schedule_exact(principal, rate, recovery_rate, n)
    assert_rows_within(sinking_fund_schedule(principal, rate, recovery_rate, n), exact, BOUND * Fraction(principal))


@EXAMPLES
@given(REDUCTIONS, RATES)
@example([-500.0] * 24 + [1500.0] * 336, 0.07 / 12)
def test_generalized_schedule(reductions, rate):
    # the principal when no period amortizes negatively
    scale = sum(abs(Fraction(x)) for x in reductions)
    schedule = generalized_schedule(reductions, rate)
    _assert_within(schedule.principal, sum(map(Fraction, reductions)), scale)
    assert_rows_within(schedule, generalized_schedule_exact(reductions, rate), BOUND * scale)


# npv: Higham's bounds for Horner's rule (Accuracy and Stability of
# Numerical Algorithms, 2nd ed., 3.1 and 5.1). npv evaluates sum C_t w^t by
# Horner's rule at the rounded w = 1/(1 + r), which carries two roundings
# (1 + r once, the division once), so w^t carries 2t, and Horner's rule adds
# up to 2n more to each term. With n periods that proves |npv - exact| <=
# gamma(4n) * sum |C_t| (1 + r)^-t, where gamma(k) = k u / (1 - k u) and u
# is the unit roundoff. The test asserts the tighter gamma(2n + 2), the
# bound of a loop that divides a running discount factor each period; every
# draw measured so far meets it. Rates and amounts keep every product and
# partial sum normal, where these bounds hold. oracles.npv_oracle rounds
# too, so it cannot serve as the exact sum here.
UNIT_ROUNDOFF = Fraction(sys.float_info.epsilon) / 2
FLOWS = st.lists(AMOUNTS, min_size=2, max_size=121)


@EXAMPLES
@given(FLOWS, RATES)
@example([-1e3] + [1e3 * (1 - 1e-15)] * 120, 1e-15)
@example([1e3, -1e3] * 60 + [1e3], 1.0)
# at -99.9% w^t passes the double range near t = 103, a power Horner's rule never forms
@example([-1.0] + [0.0] * 120 + [1e-300], -0.999)
@example([-1.0, 2.0] + [0.0] * 120, -0.999)
def test_npv(flows, rate):
    n = len(flows) - 1
    discount = 1 / (1 + Fraction(rate))
    exact = sum(Fraction(c) * discount**t for t, c in enumerate(flows))
    scale = sum(abs(Fraction(c)) * discount**t for t, c in enumerate(flows))
    gamma = (2 * n + 2) * UNIT_ROUNDOFF / (1 - (2 * n + 2) * UNIT_ROUNDOFF)
    assert abs(Fraction(npv(Project("p", flows), rate)) - exact) <= gamma * scale


# The mortgage-equity cap rate R against the exact R of the equity-NPV
# identity (oracles.ellwood_rate_exact), at the scale
# S = (1-M)|Y| + M Rm + (|change| + M P) SFF of its terms: relative to |R|
# itself the error grows where the terms cancel to a small R. Loan-to-value
# at the usual ratios, 0 and 1 or uniform in [0, 1]; note rates 0 or in
# [-0.05, 0.25] over 120..360 months, held 1..months // 12 years; equity
# yields 0, in [-0.5, 1] or within 1e-6 of 0; resale changes in [-1, 2].
LOAN_TO_VALUES = st.one_of(st.sampled_from([0.0, 0.5, 0.7, 0.9, 1.0]), st.floats(0.0, 1.0))
NOTE_RATES = st.one_of(st.just(0.0), st.floats(-0.05, 0.25))
EQUITY_YIELDS = st.one_of(st.just(0.0), st.floats(-0.5, 1.0), st.floats(-1e-6, 1e-6))
CHANGES = st.floats(-1.0, 2.0)


@EXAMPLES
@given(st.data(), LOAN_TO_VALUES, NOTE_RATES, st.integers(120, 360), EQUITY_YIELDS, CHANGES)
def test_ellwood_cap_rate(data, m, note_rate, months, equity_yield, change):
    hold = data.draw(st.integers(1, months // 12))
    result = ellwood_cap_rate(MortgageTerms(m, note_rate, months, hold), equity_yield, AppreciationSpec(change))
    exact, scale = ellwood_rate_exact(m, note_rate, months, hold, equity_yield, change)
    _assert_within(result.rate, exact, scale)
    _assert_within(result.akerson_rate, exact, scale)


# The changing-income rate R_J = R / (1 + delta J) against the same identity
# with J in exact rationals (oracles.ellwood_j_rate_exact), at the scale
# S / |1 + delta J|: the code divides by 1 + delta J, which it refuses at 0.
# The draws of test_ellwood_cap_rate, and relative income changes in [-1, 2].
@EXAMPLES
@given(st.data(), LOAN_TO_VALUES, NOTE_RATES, st.integers(120, 360), EQUITY_YIELDS, CHANGES, CHANGES)
def test_ellwood_j_cap_rate(data, m, note_rate, months, equity_yield, change, income_change):
    hold = data.draw(st.integers(1, months // 12))
    try:
        exact, scale = ellwood_j_rate_exact(m, note_rate, months, hold, equity_yield, change, income_change)
    except ZeroDivisionError:  # the income change cancels the J adjustment: no rate exists
        return
    result = ellwood_j_cap_rate(
        MortgageTerms(m, note_rate, months, hold), equity_yield, AppreciationSpec(change, income_change)
    )
    _assert_within(result.rate, exact, scale)
    _assert_within(result.akerson_rate, exact, scale)
