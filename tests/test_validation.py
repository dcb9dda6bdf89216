"""Error contract of the public math functions, pinned argument by argument.

Every public function of timevalue, recurrence, capitalization,
amortization, projects and render that takes a number is called with
valid arguments except at one numeric position, which takes each of
PROBES in turn: nan, inf, -inf, a rate of -1, a count of 0, True, 2.5 and
12.0, and a real argument also 10**400, an integer beyond the double
range. The outcome (the exception type and exact message, or the repr of
the result, hashed when it is long) must equal the entry in
tests/validation.json. A count of 12.0 must also give the same result as
12 wherever 12 is accepted, and a scalar argument that rejects nan, inf,
-inf or 10**400 must do so with a ValueError that names it first.

To rewrite the table after an intended change, run this file as a script:
PYTHONPATH=src python tests/test_validation.py
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from propval import amortization, capitalization, projects, recurrence, render, timevalue

TABLE = Path(__file__).parent / "validation.json"
PROBES = (math.nan, math.inf, -math.inf, -1.0, 0, True, 2.5, 12.0)
# keyed by this text in the table, not by its 401 digits; counts do not
# take it, as some functions would count that far
BEYOND_DOUBLE = "10**400"
# results whose repr is longer than this are pinned by a hash of it
MAX_REPR = 120
# an outcome that is an exception, "TypeName: message"; no repr starts so
RAISED = re.compile(r"[A-Za-z]\w*: ")

SPEC = recurrence.RecurrenceSpec(1.02, 5.0, 100.0)
OFFSET = recurrence.OffsetStreamSpec(100.0, 2.0, SPEC)
TERMS = capitalization.MortgageTerms(0.7, 0.09, 300, 10)
CHANGE = capitalization.AppreciationSpec(0.1, 0.2)
SCHEDULE = amortization.level_schedule(1000.0, 0.1, 5)
PROJECT = projects.Project("A", (-100.0, 60.0, 60.0))
LATER = projects.Project("B", (-100.0, 20.0, 100.0))
IRR = projects.irr_all(PROJECT)
REPORT = projects.compare_pairwise(PROJECT, LATER)

RATE_N = {"rate": (0, "x"), "n": (1, "n")}

# case -> (function, valid arguments, {argument: (position, kind)}); kind "n"
# marks a count; a (position, index) pair is an element of a list
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
    "schedule_to_table": (amortization.schedule_to_table, (SCHEDULE, 2), {"places": (1, "n")}),
    "npv": (projects.npv, (PROJECT, 0.1), {"rate": (1, "x")}),
    "Project": (projects.Project, ("A", (-100.0, 60.0, 60.0)), {"cashflows[0]": ((1, 0), "x")}),
    "irr_all": (projects.irr_all, (PROJECT, (-0.5, 1.0)), {"bounds[0]": ((1, 0), "x"), "bounds[1]": ((1, 1), "x")}),
    "compare_pairwise": (
        projects.compare_pairwise,
        (PROJECT, LATER, (-0.5, 1.0)),
        {"bounds[0]": ((2, 0), "x"), "bounds[1]": ((2, 1), "x")},
    ),
    "profitability_test": (projects.profitability_test, (PROJECT, 0.1), {"rate": (1, "x")}),
    **{
        name: (getattr(projects, name), (PROJECT, IRR, (0.1,)), {"npv_rates[0]": ((2, 0), "x")})
        for name in ("analysis_to_dict", "analysis_table", "analysis_csv")
    },
    **{
        name: (getattr(projects, name), (REPORT, (0.1,)), {"npv_rates[0]": ((1, 0), "x")})
        for name in ("comparison_to_dict", "comparison_table", "comparison_csv")
    },
    "format_fixed": (render.format_fixed, (2.675, 2), {"value": (0, "x"), "places": (1, "n")}),
    "format_percent": (render.format_percent, (0.12345, 2), {"rate": (0, "x"), "places": (1, "n")}),
}
# public names that take no number of their own: records that only hold
# values, functions of a schedule or a project, the parser of a project's
# JSON (its flows reach Project), a constant, and the table aligner
NO_NUMERIC_ARGUMENT = {
    "EllwoodRate", "AmortizationRow", "AmortizationSchedule", "verify_main_theorem", "schedule_to_csv",
    "schedule_to_dict", "schedule_to_json", "IrrResult", "ComparisonReport", "DEFAULT_IRR_BOUNDS", "negate",
    "npv_slope_class", "project_from_dict", "align_table",
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
        argument: {
            **{repr(value): outcome(case, position, value) for value in PROBES},
            **({BEYOND_DOUBLE: outcome(case, position, 10**400)} if kind == "x" else {}),
        }
        for argument, (position, kind) in CASES[case][2].items()
    }


def test_every_public_function_is_probed():
    covered = {function.__name__ for function, _, _ in CASES.values()}
    for module in (timevalue, recurrence, capitalization, amortization, projects, render):
        assert set(module.__all__) - NO_NUMERIC_ARGUMENT <= covered, module.__name__


@pytest.mark.parametrize("case", sorted(CASES))
def test_outcomes_match_the_table(case):
    assert outcomes(case) == json.loads(TABLE.read_text(encoding="utf-8"))[case]


def test_non_finite_scalars_are_rejected_by_name():
    """A scalar argument that rejects nan, inf, -inf or an integer beyond
    the double range does so with a ValueError whose message starts with
    the argument's name."""
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    breaches = [
        (case, argument, result)
        for case, (_, _, arguments) in CASES.items()
        for argument, (position, _) in arguments.items()
        if not isinstance(position, tuple)  # an element of a list is no scalar argument
        for probe in ("nan", "inf", "-inf", BEYOND_DOUBLE)
        if RAISED.match(result := table[case][argument].get(probe, ""))  # counts lack BEYOND_DOUBLE
        and not result.startswith(f"ValueError: {argument} ")
    ]
    assert breaches == []


def _count_cases():
    for case, (_, _, arguments) in sorted(CASES.items()):
        for argument, (position, kind) in arguments.items():
            if kind == "n":
                yield pytest.param(case, position, id=f"{case}-{argument}")


@pytest.mark.parametrize(("case", "position"), _count_cases())
def test_integral_float_count_matches_the_int(case, position):
    try:
        expected = _call(case, position, 12)
    except ValueError:
        pytest.skip("12 is not a valid value here")
    assert _call(case, position, 12.0) == expected


def _real_cases():
    for case, (_, args, arguments) in sorted(CASES.items()):
        for argument, (position, kind) in arguments.items():
            if kind == "x":
                value = args[position[0]][position[1]] if isinstance(position, tuple) else args[position]
                yield pytest.param(case, position, value, id=f"{case}-{argument}")


@pytest.mark.parametrize(("case", "position", "value"), _real_cases())
def test_numeric_string_matches_the_float(case, position, value):
    """A real argument given as a numeric string is read as float() reads
    it: the same result as the float, never a TypeError from using the
    string that was checked."""
    assert outcome(case, position, str(value)) == outcome(case, position, value)


if __name__ == "__main__":
    text = json.dumps({case: outcomes(case) for case in CASES}, indent=1, sort_keys=True)
    TABLE.write_text(text + "\n", encoding="utf-8")
