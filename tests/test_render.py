"""format_fixed and the schedule renderers against the Decimal oracle.

format_fixed formats with a float f-string when _float_rounding_agrees
proves that exact, and with Decimal otherwise; every output must equal the
Decimal-only oracle in tests/oracles.py, byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propval import (
    generalized_schedule,
    level_schedule,
    schedule_to_csv,
    schedule_to_table,
    sinking_fund_schedule,
)
from propval.cli import main
from propval.render import _float_rounding_agrees, align_table, format_fixed, format_percent

from oracles import align_table_oracle, format_fixed_oracle, schedule_cells_oracle

PLACES = st.integers(0, 12)
EDGE = 2.0**40


def nudged(value: float, ulps: int) -> float:
    """value moved by ulps steps to the next doubles."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = math.nextafter(value, toward)
    return value


@st.composite
def near_ties(draw):
    """A double within a few ulps of a rounding tie at the drawn places."""
    places = draw(PLACES)
    k = draw(st.integers(-(10**13), 10**13))
    value = nudged((k + 0.5) / 10**places, draw(st.integers(-3, 3)))
    return value, places


@st.composite
def near_edge(draw):
    """A double within a few ulps of the fast path's 2**40 limit after scaling."""
    places = draw(PLACES)
    sign = draw(st.sampled_from((1.0, -1.0)))
    value = nudged(sign * EDGE / 10**places, draw(st.integers(-4, 4)))
    return value, places


@st.composite
def rounding_to_zero(draw):
    """-0.0, a tiny negative, or a negative within a few ulps of -1/2 after
    scaling (-0.00499... at 2 places) at the drawn places."""
    places = draw(PLACES)
    half = 0.5 / 10**places
    value = draw(
        st.one_of(
            st.sampled_from((-0.0, -1.5e-11, -5e-324)),
            st.floats(-half, -0.0),
            st.integers(-4, 4).map(lambda ulps: nudged(-half, ulps)),
        )
    )
    return value, places


class TestFormatFixed:
    @given(st.floats(allow_nan=False, allow_infinity=False), PLACES)
    @settings(max_examples=400)
    def test_any_finite_double(self, value, places):
        assert format_fixed(value, places) == format_fixed_oracle(value, places)

    @given(st.floats(min_value=-1e9, max_value=1e9), PLACES)
    @settings(max_examples=400)
    def test_money_range(self, value, places):
        assert format_fixed(value, places) == format_fixed_oracle(value, places)

    @given(st.one_of(near_ties(), near_edge()))
    @settings(max_examples=400)
    def test_near_ties_and_the_edge(self, case):
        value, places = case
        assert format_fixed(value, places) == format_fixed_oracle(value, places)

    @given(rounding_to_zero())
    @settings(max_examples=400)
    def test_negatives_that_round_to_zero(self, case):
        value, places = case
        assert format_fixed(value, places) == format_fixed_oracle(value, places)

    @pytest.mark.parametrize(
        "value",
        [
            0.125, 2.675, 1.005, -0.005, -0.0, 0.0, -0.0049999,
            EDGE / 100, nudged(EDGE / 100, -1), nudged(EDGE / 100, 1), -EDGE / 100,
            (EDGE - 0.5) / 100, 1e15 + 0.5, 1e16, 1e22, 5e-324, -5e-324,
            1e26, 1.7976931348623157e308, -1.7976931348623157e308,
        ],
    )
    @pytest.mark.parametrize("places", range(13))
    def test_edge_cases(self, value, places):
        assert format_fixed(value, places) == format_fixed_oracle(value, places)

    @pytest.mark.parametrize(
        "value, places, text",
        [
            (2.675, 2, "2.68"),
            (0.125, 2, "0.13"),
            (1.005, 2, "1.01"),
            (-0.005, 2, "-0.01"),
            (-0.0, 2, "0.00"),
            (-0.0049999, 2, "0.00"),
            (2.5, 0, "3"),
            (1e26, 2, "100000000000000000000000000.00"),
        ],
    )
    def test_ties_away_from_zero_on_the_shortest_repr(self, value, places, text):
        assert format_fixed(value, places) == text

    def test_fast_path_covers_ordinary_amounts(self):
        assert all(_float_rounding_agrees(x, 2) for x in (1234.567, -98.761, 0.004, 0.0, 1e9 + 0.3))

    @pytest.mark.parametrize(
        "value, places",
        [(2.675, 2), (0.125, 2), (-0.0, 2), (-0.004, 2), (EDGE / 100, 2), (1e16, 0), (math.inf, 2), (math.nan, 2)],
    )
    def test_fast_path_refuses_ties_signed_zeros_and_huge_values(self, value, places):
        assert not _float_rounding_agrees(value, places)

    @pytest.mark.parametrize("places", [-1, 13])
    def test_places_out_of_range(self, places):
        with pytest.raises(ValueError):
            format_fixed(1.0, places)
        with pytest.raises(ValueError):
            schedule_to_table(level_schedule(1000.0, 0.1, 2), places)


MAX = sys.float_info.max


class TestFormatPercent:
    @pytest.mark.parametrize("rate", [0.2, -0.125, 0.0, 1e300, 1.7e306])
    def test_rate_times_100_where_it_is_finite(self, rate):
        assert format_percent(rate) == format_fixed(rate * 100.0, 2) + "%"

    @pytest.mark.parametrize(
        "rate, places, text",
        [
            (1e307, 2, "1" + "0" * 309 + ".00%"),
            (-1e307, 0, "-1" + "0" * 309 + "%"),
            (MAX, 2, "17976931348623157" + "0" * 294 + ".00%"),
            (-MAX, 12, "-17976931348623157" + "0" * 294 + "." + "0" * 12 + "%"),
            (5.4321e306, 1, "54321" + "0" * 304 + ".0%"),
        ],
        ids=["1e307", "-1e307", "max", "-max", "5.4321e306"],
    )
    def test_percent_beyond_the_double_range_from_the_decimal_digits(self, rate, places, text):
        assert math.isinf(rate * 100.0)
        assert format_percent(rate, places) == text

    @pytest.mark.parametrize("places", [-1, 13])
    def test_places_out_of_range(self, places):
        for rate in (0.2, MAX):
            with pytest.raises(ValueError):
                format_percent(rate, places)


cells = st.text(alphabet="ab -.0", max_size=6)


@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(cells, min_size=n, max_size=n), min_size=1, max_size=6)))
def test_align_table_matches_ljust(rows):
    assert align_table(rows) == align_table_oracle(rows)


rates = st.one_of(st.just(0.0), st.floats(-0.5, 0.3), st.sampled_from((0.005, 0.01, 0.1)))
amounts = st.one_of(
    st.floats(-1e7, 1e7),
    st.integers(-(10**8), 10**8).map(lambda k: k / 200),  # half cents: ties at 2 places
)


@st.composite
def schedules(draw):
    kind = draw(st.sampled_from(("level", "sinking", "general")))
    rate = draw(rates)
    if kind == "general":
        # negative entries are periods of negative amortization
        return generalized_schedule(draw(st.lists(amounts, min_size=1, max_size=30)), rate)
    principal = draw(st.floats(1.0, 1e7))
    n = draw(st.integers(1, 40))
    if kind == "level":
        return level_schedule(principal, rate, n)
    return sinking_fund_schedule(principal, rate, draw(st.floats(0.0, 0.2)), n)


@given(schedules())
@settings(max_examples=150)
def test_csv_rows_match_the_oracle_per_cell(schedule):
    expected = "".join(",".join(row) + "\n" for row in schedule_cells_oracle(schedule, 2))
    assert schedule_to_csv(schedule) == expected


@given(schedules(), PLACES)
@settings(max_examples=150)
def test_table_rows_match_the_oracle_per_cell(schedule, places):
    assert schedule_to_table(schedule, places) == align_table_oracle(schedule_cells_oracle(schedule, places))


@given(
    st.sampled_from(("level", "sinking")),
    st.floats(1.0, 1e7),
    st.floats(-0.5, 0.3),
    st.integers(1, 30),
    PLACES,
)
@settings(max_examples=40, deadline=None)
def test_cli_table_rows_match_the_oracle_per_cell(kind, principal, rate, n, places):
    if kind == "level":
        argv = ["amort", "level", "--pv", repr(principal), f"--i={rate!r}", "--n", str(n)]
        schedule = level_schedule(principal, rate, n)
    else:
        argv = ["amort", "sinking", "--v", repr(principal), f"--i={rate!r}", "--r", "0.05", "--n", str(n)]
        schedule = sinking_fund_schedule(principal, rate, 0.05, n)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--precision", str(places)]) == 0
    table = out.getvalue().splitlines()[:-1]  # the last line is the residual
    assert [line.split() for line in table] == schedule_cells_oracle(schedule, places)
