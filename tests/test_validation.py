"""Error contract of the public math functions, pinned argument by argument.

Every public function of timevalue, recurrence, capitalization and
amortization that takes a number is called with valid arguments except
at one numeric position, which takes each of PROBES in turn: nan, inf,
-inf, a rate of -1, a count of 0, True, 2.5 and 12.0. The outcome (the
exception type and exact message, or the repr of the result, hashed when
it is long) must equal the entry in tests/validation.json. A period count
of 12.0 must also give the same result as 12 wherever 12 is accepted.

To rewrite the table after an intended change, run this file as a script:
PYTHONPATH=src python tests/test_validation.py
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest

from propval import amortization, capitalization, recurrence, timevalue

TABLE = Path(__file__).parent / "validation.json"
PROBES = (math.nan, math.inf, -math.inf, -1.0, 0, True, 2.5, 12.0)
# results whose repr is longer than this are pinned by a hash of it
MAX_REPR = 120

SPEC = recurrence.RecurrenceSpec(1.02, 5.0, 100.0)
OFFSET = recurrence.OffsetStreamSpec(100.0, 2.0, SPEC)
TERMS = capitalization.MortgageTerms(0.7, 0.09, 300, 10)
CHANGE = capitalization.AppreciationSpec(0.1, 0.2)
SCHEDULE = amortization.level_schedule(1000.0, 0.1, 5)

RATE_N = {"rate": (0, "x"), "n": (1, "n")}

# case -> (function, valid arguments, {argument: (position, kind)}); kind "n"
# marks a period count; a (position, index) pair is an element of a list
CASES = {
    **{
        name: (getattr(timevalue, name), (0.05, 10), RATE_N)
        for name in (
            "compound_amount", "pv_reversion", "annuity_pv", "installment_to_amortize", "accumulation",
            "sinking_fund_factor",
        )
    },
    **{
        name: (getattr(timevalue, name), (120, 360, 0.005), {"k": (0, "n"), "n": (1, "n"), "rate": (2, "x")})
        for name in ("balance_fraction", "portion_paid")
    },
    "RecurrenceSpec": (
        recurrence.RecurrenceSpec,
        (1.02, 5.0, 100.0),
        {"multiplier": (0, "x"), "increment": (1, "x"), "seed": (2, "x")},
    ),
    "OffsetStreamSpec": (
        recurrence.OffsetStreamSpec, (100.0, 2.0, SPEC), {"first_income": (0, "x"), "decrement": (1, "x")}
    ),
    "recurrence_terms": (recurrence.recurrence_terms, (SPEC, 10), {"n": (1, "n")}),
    "recurrence_term": (recurrence.recurrence_term, (SPEC, 10), {"k": (1, "n")}),
    "value_recurrence_stream": (recurrence.value_recurrence_stream, (SPEC, 0.1, 10), {"rate": (1, "x"), "n": (2, "n")}),
    "value_recurrence_stream[m=1]": (
        recurrence.value_recurrence_stream,
        (recurrence.RecurrenceSpec(1.0, 5.0, 100.0), 0.1, 10),
        {"rate": (1, "x"), "n": (2, "n")},
    ),
    "value_recurrence_stream[m=1+i]": (
        recurrence.value_recurrence_stream,
        (recurrence.RecurrenceSpec(1.1, 5.0, 100.0), 0.1, 10),
        {"n": (2, "n")},
    ),
    "value_offset_stream": (recurrence.value_offset_stream, (OFFSET, 0.1, 10), {"rate": (1, "x"), "n": (2, "n")}),
    "straight_line_annuity_value": (
        recurrence.straight_line_annuity_value,
        (100.0, 10.0, 0.1, 4),
        {"d": (0, "x"), "h": (1, "x"), "rate": (2, "x"), "n": (3, "n")},
    ),
    "constant_ratio_annuity_value": (
        recurrence.constant_ratio_annuity_value,
        (0.05, 0.1, 10),
        {"growth": (0, "x"), "rate": (1, "x"), "n": (2, "n")},
    ),
    "accumulation_stream_value": (recurrence.accumulation_stream_value, (0.1, 10), RATE_N),
    "ellwood_j_factor": (recurrence.ellwood_j_factor, (0.14, 10), RATE_N),
    **{
        name: (
            getattr(recurrence, name),
            (1000.0, 0.12, 0.04, 10),
            {"income": (0, "x"), "rate": (1, "x"), "safe_rate": (2, "x"), "n": (3, "n")},
        )
        for name in ("hoskold_stream_value", "hoskold_income_stream")
    },
    "MortgageTerms": (
        capitalization.MortgageTerms,
        (0.7, 0.09, 300, 10),
        {
            "loan_to_value": (0, "x"),
            "annual_rate": (1, "x"),
            "amortization_months": (2, "n"),
            "holding_years": (3, "n"),
        },
    ),
    "AppreciationSpec": (
        capitalization.AppreciationSpec, (0.1, 0.2), {"asset_change": (0, "x"), "income_change": (1, "x")}
    ),
    "perpetuity_value": (capitalization.perpetuity_value, (100.0, 0.1), {"income": (0, "x"), "rate": (1, "x")}),
    "capitalize": (capitalization.capitalize, (100.0, 0.1), {"income": (0, "x"), "cap_rate": (1, "x")}),
    "rate_from": (capitalization.rate_from, (1000.0, 100.0), {"value": (0, "x"), "income": (1, "x")}),
    "adjusted_cap_rate": (
        capitalization.adjusted_cap_rate,
        (0.1, 10, -0.2),
        {"rate": (0, "x"), "n": (1, "n"), "asset_change": (2, "x")},
    ),
    "band_of_investment": (
        capitalization.band_of_investment,
        (0.7, 0.08, 0.12),
        {"loan_to_value": (0, "x"), "debt_rate": (1, "x"), "equity_yield": (2, "x")},
    ),
    "band_with_mortgage_constant": (
        capitalization.band_with_mortgage_constant,
        (0.7, 0.1, 0.12),
        {"loan_to_value": (0, "x"), "mortgage_constant_annual": (1, "x"), "equity_yield": (2, "x")},
    ),
    "mortgage_constant": (
        capitalization.mortgage_constant,
        (0.09, 300),
        {"annual_rate": (0, "x"), "amortization_months": (1, "n")},
    ),
    "ellwood_cap_rate": (capitalization.ellwood_cap_rate, (TERMS, 0.14, CHANGE), {"equity_yield": (1, "x")}),
    "ellwood_cap_rate[full term, zero note rate]": (
        capitalization.ellwood_cap_rate,
        (capitalization.MortgageTerms(0.7, 0.0, 120, 10), 0.14, CHANGE),
        {"equity_yield": (1, "x")},
    ),
    "ellwood_cap_rate[counts given as floats]": (
        capitalization.ellwood_cap_rate,
        (capitalization.MortgageTerms(0.7, 0.09, 300.0, 10.0), 0.14, CHANGE),
        {"equity_yield": (1, "x")},
    ),
    "ellwood_j_cap_rate": (capitalization.ellwood_j_cap_rate, (TERMS, 0.14, CHANGE), {"equity_yield": (1, "x")}),
    "ellwood_j_cap_rate[n_for_j]": (
        capitalization.ellwood_j_cap_rate,
        (TERMS, 0.14, CHANGE, 5),
        {"equity_yield": (1, "x"), "n_for_j": (3, "n")},
    ),
    **{
        f"recovery_cap_rate[{method}]": (
            capitalization.recovery_cap_rate,
            (method, 0.1, 10, 0.04),
            {"rate": (1, "x"), "n": (2, "n"), "safe_rate": (3, "x")},
        )
        for method in capitalization.RECOVERY_METHODS
    },
    "level_schedule": (
        amortization.level_schedule, (1000.0, 0.1, 5), {"principal": (0, "x"), "rate": (1, "x"), "n": (2, "n")}
    ),
    "generalized_schedule": (
        amortization.generalized_schedule,
        ([300.0, 300.0, 400.0], 0.1),
        {"principal_reductions[0]": ((0, 0), "x"), "rate": (1, "x")},
    ),
    "sinking_fund_schedule": (
        amortization.sinking_fund_schedule,
        (1000.0, 0.1, 0.05, 5),
        {"principal": (0, "x"), "rate": (1, "x"), "recovery_rate": (2, "x"), "n": (3, "n")},
    ),
    "schedule_to_table": (amortization.schedule_to_table, (SCHEDULE, 2), {"places": (1, "x")}),
}
# public names that take no number of their own: records that only hold
# values, and functions of a schedule
NO_NUMERIC_ARGUMENT = {
    "EllwoodRate", "AmortizationRow", "AmortizationSchedule", "verify_main_theorem", "schedule_to_csv",
    "schedule_to_dict", "schedule_to_json",
}
# period counts where 12 is accepted and 12.0 is not: a known defect, pinned
# as a strict xfail so that its fix has to remove this entry
KNOWN_FLOAT_COUNT_FAILURES = {
    ("hoskold_income_stream", "n"): "range() is handed the count as given, so 12.0 raises TypeError",
}


def _with(args: tuple, position, value) -> tuple:
    """args with value at position, or at element index of the list at position."""
    args = list(args)
    if isinstance(position, tuple):
        position, index = position
        args[position] = [*args[position][:index], value, *args[position][index + 1:]]
    else:
        args[position] = value
    return tuple(args)


def _call(case: str, position, value):
    function, args, _ = CASES[case]
    return function(*_with(args, position, value))


def outcome(case: str, position, value) -> str:
    """'TypeName: message' for an exception, else the result's repr."""
    try:
        text = repr(_call(case, position, value))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    if len(text) > MAX_REPR:
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    return text


def outcomes(case: str) -> dict:
    """{argument: {repr(probe): outcome}} for one case."""
    return {
        argument: {repr(value): outcome(case, position, value) for value in PROBES}
        for argument, (position, _) in CASES[case][2].items()
    }


def test_every_public_function_is_probed():
    covered = {function.__name__ for function, _, _ in CASES.values()}
    for module in (timevalue, recurrence, capitalization, amortization):
        assert set(module.__all__) - NO_NUMERIC_ARGUMENT <= covered, module.__name__


@pytest.mark.parametrize("case", sorted(CASES))
def test_outcomes_match_the_table(case):
    assert outcomes(case) == json.loads(TABLE.read_text(encoding="utf-8"))[case]


def _count_cases():
    for case, (_, _, arguments) in sorted(CASES.items()):
        for argument, (position, kind) in arguments.items():
            if kind != "n":
                continue
            reason = KNOWN_FLOAT_COUNT_FAILURES.get((case, argument))
            marks = pytest.mark.xfail(raises=TypeError, reason=reason) if reason else ()
            yield pytest.param(case, position, id=f"{case}-{argument}", marks=marks)


@pytest.mark.parametrize(("case", "position"), _count_cases())
def test_integral_float_count_matches_the_int(case, position):
    try:
        expected = _call(case, position, 12)
    except ValueError:
        pytest.skip("12 is not a valid value here")
    assert _call(case, position, 12.0) == expected


if __name__ == "__main__":
    text = json.dumps({case: outcomes(case) for case in CASES}, indent=1, sort_keys=True)
    TABLE.write_text(text + "\n", encoding="utf-8")
