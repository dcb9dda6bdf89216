"""The out-of-range rule for the non-scalar results: the three schedule
builders, verify_main_theorem, npv, the recurrence terms and the Hoskold
stream and its value.

A call with finite arguments in its domain returns finite numbers only, or
raises OverflowError whose message starts with the function's name.
Principals, flows, incomes and the recurrence's fields reach +-1e308, rates
run from just above -1 to 1e308, safe rates from 0 to 1e308, and counts reach
10**4.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propval import (
    AmortizationRow,
    AmortizationSchedule,
    Project,
    RecurrenceSpec,
    generalized_schedule,
    hoskold_income_stream,
    hoskold_stream_value,
    level_schedule,
    npv,
    recurrence_term,
    recurrence_terms,
    schedule_to_csv,
    schedule_to_json,
    schedule_to_table,
    sinking_fund_schedule,
    verify_main_theorem,
)

from oracles import assert_rows_within, level_schedule_exact, sinking_fund_schedule_exact

EDGE_AMOUNTS = [0.0, 1.0, -1.0, 1e-300, 1e6, 1e300, 1e308, -1e308]
AMOUNT = st.one_of(st.sampled_from(EDGE_AMOUNTS), st.floats(-1e308, 1e308))
PRINCIPAL = st.one_of(st.sampled_from([1e-300, 1.0, 1e6, 1e300, 1e308]), st.floats(1e-300, 1e308))
RATE = st.one_of(
    st.sampled_from([-0.999999, -0.9, -0.5, 0.0, 1e-12, 0.01, 0.1, 10.0, 1e300, 1e308]),
    st.floats(-1.0, 1e308, exclude_min=True),
    st.floats(-1.0, 1.0, exclude_min=True),
)
NONNEGATIVE_RATE = st.one_of(st.sampled_from([0.0, 0.05, 10.0, 1e308]), st.floats(0.0, 1e308), st.floats(0.0, 1.0))
COUNT = st.one_of(st.sampled_from([1, 2, 360, 400, 2_000, 10_000]), st.integers(1, 10_000))
# short drawn lists, and one amount repeated up to 10**4 times, with or without trailing zeros
AMOUNTS = st.one_of(
    st.lists(AMOUNT, min_size=1, max_size=40),
    st.tuples(AMOUNT, COUNT).map(lambda t: [t[0]] * t[1]),
    st.tuples(st.lists(AMOUNT, min_size=1, max_size=5), COUNT).map(lambda t: t[0] + [0.0] * t[1]),
)
FLOWS = AMOUNTS.filter(lambda flows: len(flows) >= 2)
SPEC = st.builds(RecurrenceSpec, AMOUNT, AMOUNT, AMOUNT)

SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def _call(function, *args):
    """function(*args), or None when it raises the rule's OverflowError."""
    try:
        return function(*args)
    except OverflowError as exc:
        assert str(exc) == f"{function.__name__}: result is out of floating-point range"
        return None


def _finite_or_refused(function, *args):
    """function(*args) is finite floats, the rule's OverflowError, or the
    ValueError of a Hoskold rate at -SFF(n, i_s)."""
    try:
        result = _call(function, *args)
    except ValueError as exc:
        assert str(exc) == "rate plus sinking fund factor is zero; value undefined"
        return
    assert result is None or all(map(math.isfinite, result if isinstance(result, list) else [result]))


def _check_schedule(builder, *args):
    schedule = _call(builder, *args)
    if schedule is None:
        return
    assert math.isfinite(schedule.principal) and math.isfinite(schedule.rate)
    assert all(math.isfinite(x) for row in schedule.rows for x in row)
    residual = _call(verify_main_theorem, schedule)
    assert residual is None or math.isfinite(residual)


@SETTINGS
@given(principal=PRINCIPAL, rate=RATE, n=COUNT)
def test_level_schedule(principal, rate, n):
    _check_schedule(level_schedule, principal, rate, n)


@SETTINGS
@given(reductions=AMOUNTS, rate=RATE)
def test_generalized_schedule(reductions, rate):
    _check_schedule(generalized_schedule, reductions, rate)


@SETTINGS
@given(principal=PRINCIPAL, rate=RATE, recovery_rate=NONNEGATIVE_RATE, n=COUNT)
def test_sinking_fund_schedule(principal, rate, recovery_rate, n):
    _check_schedule(sinking_fund_schedule, principal, rate, recovery_rate, n)


@SETTINGS
@given(flows=FLOWS, rate=RATE)
def test_npv(flows, rate):
    value = _call(npv, Project("P", flows), rate)
    assert value is None or math.isfinite(value)


@SETTINGS
@given(spec=SPEC, n=COUNT)
@example(spec=RecurrenceSpec(1e200, 0.0, 1e200), n=3)
@example(spec=RecurrenceSpec(2.0, -1e308, 1e308), n=3)
def test_recurrence_terms(spec, n):
    _finite_or_refused(recurrence_terms, spec, n)


@SETTINGS
@given(spec=SPEC, k=st.one_of(st.just(0), COUNT))
@example(spec=RecurrenceSpec(10.0, 1.0, 1.0), k=400)
def test_recurrence_term(spec, k):
    _finite_or_refused(recurrence_term, spec, k)


@SETTINGS
@given(income=AMOUNT, rate=RATE, safe_rate=NONNEGATIVE_RATE, n=COUNT)
@example(income=1e308, rate=0.1, safe_rate=0.05, n=10)
@example(income=100.0, rate=0.1, safe_rate=1.0, n=2000)
def test_hoskold_income_stream(income, rate, safe_rate, n):
    _finite_or_refused(hoskold_income_stream, income, rate, safe_rate, n)


@SETTINGS
@given(income=AMOUNT, rate=RATE, safe_rate=NONNEGATIVE_RATE, n=COUNT)
@example(income=1e308, rate=0.1, safe_rate=0.05, n=10)
@example(income=100.0, rate=0.1, safe_rate=1.0, n=2000)
def test_hoskold_stream_value(income, rate, safe_rate, n):
    _finite_or_refused(hoskold_stream_value, income, rate, safe_rate, n)


@pytest.mark.parametrize(
    "spec, k, term",
    [
        (RecurrenceSpec(2.0, -1e308, 1e308), 400, 1e308),
        (RecurrenceSpec(10.0, -9.0, 1.0), 400, 1.0),
    ],
    ids=["m-y-overflows", "fixed-point"],
)
def test_recurrence_returns_a_term_past_an_overflowed_power(spec, k, term):
    """m^k c overflows, but the stream stays at its fixed point c."""
    assert recurrence_term(spec, k) == term
    assert recurrence_terms(spec, k)[-1] == term


def test_hoskold_stream_without_its_value():
    """V = I / (i + SFF) is about 5.6e308; the stream it prices is not."""
    stream = hoskold_income_stream(1e308, 0.1, 0.05, 10)
    assert stream[0] == 1e308 and all(math.isfinite(x) for x in stream)
    assert stream[1] == pytest.approx(9.7785e307, rel=1e-4)
    with pytest.raises(OverflowError, match="^hoskold_stream_value: result is out of floating-point range$"):
        hoskold_stream_value(1e308, 0.1, 0.05, 10)


@pytest.mark.parametrize(
    "safe_rate, n, last",
    [(1.0, 2000, 550.0), (1e308, 10, 1100.0)],
    ids=["s-n-overflows", "loss-ratio-overflows"],
)
def test_hoskold_stream_past_an_overflowed_accumulation(safe_rate, n, last):
    """s(n, i_s) is beyond the double range, and at i_s = 1e308 so is
    (i - i_s) / (i + SFF); each income, I less I (i - i_s) s(k) SFF /
    (i + SFF), is not. At I = 100 and i = 0.1 the last one is
    100 (1 + (i_s - 0.1) / (0.1 (1 + i_s))), exact within rounding."""
    stream = hoskold_income_stream(100.0, 0.1, safe_rate, n)
    assert stream[0] == 100.0 and all(math.isfinite(x) for x in stream)
    assert stream[-1] == pytest.approx(last, rel=1e-12)


@pytest.mark.parametrize(
    "builder, args, exact",
    [
        (level_schedule, (1e308, 10.0, 5), None),
        (level_schedule, (1.0, -0.9, 400), level_schedule_exact),
        (generalized_schedule, ([1e308, 1e308], 1.0), None),
        (sinking_fund_schedule, (1e308, 1e308, 0.0, 3), None),
        (sinking_fund_schedule, (1.0, 0.1, 1e3, 400), sinking_fund_schedule_exact),
    ],
    ids=["level-nan-row", "level-annuity", "generalized", "sinking-row", "sinking-sff"],
)
def test_builders_name_themselves(builder, args, exact):
    """Rows out of range raise the builder's own OverflowError; rows in range
    are returned, also where a(n, i) or s(n, r) itself is past the double
    range (1/a(400, -0.9) and 1/s(400, 1000) round to 0)."""
    if exact is None:
        with pytest.raises(OverflowError, match=f"^{builder.__name__}: result is out of floating-point range$"):
            builder(*args)
    else:
        assert_rows_within(builder(*args), exact(*args), Fraction(args[0]) * Fraction(1e-12))


def test_residual_out_of_range_names_verify_main_theorem():
    # finite rows whose discounting at -90% overflows
    with pytest.raises(OverflowError, match="^verify_main_theorem: "):
        verify_main_theorem(generalized_schedule([1.0] * 400, -0.9))


def test_residual_past_an_overflowed_partial_sum():
    """The running sums of the reductions and of the discounted payments
    leave the double range; the residual of the rows, 7.2e290, does not.
    The float residual is within gamma(3n + 3) of the summed magnitudes of
    the exact one: each term carries 1 + rate, k divisions, a product and
    n additions, and fsum and the subtraction one rounding each."""
    schedule = generalized_schedule([1e308, 1e308, -1e308], 0.1)
    v = 1 / (1 + Fraction(schedule.rate))
    terms = [Fraction(row.payment) * v**row.period for row in schedule.rows]
    terms += [-Fraction(p) for p in schedule.principal_reductions]
    exact = abs(sum(terms))
    assert 7.1e290 < exact < 7.2e290
    k = 3 * len(schedule.rows) + 3
    gamma = Fraction(k, 2**53 - k)
    assert abs(Fraction(verify_main_theorem(schedule)) - exact) <= gamma * sum(map(abs, terms))


def test_zero_payments_meet_no_overflowed_factor():
    # at -99.9% the discount factor passes the double range near period 103;
    # a zero payment times it once made the residual nan, though it is exactly 0
    schedule = generalized_schedule([1.0] + [0.0] * 120, -0.999)
    assert verify_main_theorem(schedule) == 0.0


def test_renderers_refuse_a_hand_built_nonfinite_schedule():
    row = AmortizationRow(1, math.inf, 0.0, 100.0, 0.0)
    schedule = AmortizationSchedule(100.0, 0.0, (row,))
    for render in (schedule_to_csv, schedule_to_json, lambda s: schedule_to_table(s, 2)):
        with pytest.raises(ValueError):
            render(schedule)
