"""The package namespace: every public name, loaded on first use; and
tests and demos that run without numpy."""

import ast
from pathlib import Path

import pytest

import propval

PUBLIC = [
    "compound_amount", "pv_reversion", "annuity_pv", "installment_to_amortize", "accumulation",
    "sinking_fund_factor", "balance_fraction", "portion_paid",
    "RecurrenceSpec", "OffsetStreamSpec", "recurrence_terms", "recurrence_term", "value_recurrence_stream",
    "value_offset_stream", "straight_line_annuity_value", "constant_ratio_annuity_value",
    "accumulation_stream_value", "ellwood_j_factor", "hoskold_stream_value", "hoskold_income_stream",
    "MortgageTerms", "AppreciationSpec", "EllwoodRate", "perpetuity_value", "capitalize", "rate_from",
    "adjusted_cap_rate", "band_of_investment", "band_with_mortgage_constant", "mortgage_constant",
    "ellwood_cap_rate", "ellwood_j_cap_rate", "recovery_cap_rate",
    "AmortizationRow", "AmortizationSchedule", "level_schedule", "generalized_schedule",
    "sinking_fund_schedule", "verify_main_theorem", "schedule_to_csv", "schedule_to_table",
    "schedule_to_dict", "schedule_to_json",
    "Project", "IrrResult", "ComparisonReport", "DEFAULT_IRR_BOUNDS", "npv", "irr_all", "negate",
    "npv_slope_class", "profitability_test", "compare_pairwise", "project_from_dict", "analysis_table",
    "analysis_csv", "analysis_to_dict", "comparison_table", "comparison_csv", "comparison_to_dict",
    "__version__",
]


def test_all_is_pinned():
    assert propval.__all__ == PUBLIC


def test_star_import_exposes_every_public_name():
    namespace = {}
    exec("from propval import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)


def test_names_come_from_their_modules():
    from propval import amortization, capitalization, projects, recurrence, timevalue

    for module in (timevalue, recurrence, capitalization, amortization, projects):
        for name in module.__all__:
            assert getattr(propval, name) is getattr(module, name)


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(propval))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        propval.no_such_name
    with pytest.raises(ImportError):
        from propval import no_such_name  # noqa: F401



def test_tests_and_demos_import_no_numpy():
    root = Path(__file__).resolve().parent.parent
    for path in sorted([*root.glob("tests/*.py"), *root.glob("demos/*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert "numpy" not in [module.split(".")[0] for module in modules], path.name
