"""Income-property valuation math.

Compound-interest factors, amortization schedules (level, arbitrary
paydown, sinking-fund recovery), direct capitalization rates (band of
investment, mortgage-equity, safe-rate and straight-line recovery),
closed-form valuation of changing income streams, and NPV/IRR project
analysis. Everything is a pure function over plain floats and small
immutable records: named tuples that validate when built, _replace and
_make included. Use _replace and _asdict where dataclasses.replace and
asdict served before; a record compares equal to a plain tuple that
holds the same values.

The package loads each module on first use (PEP 562): `import propval`
imports none of them, and `propval.irr_all` imports only `propval.projects`
and what it needs. _EXPORTS below is the only list of public names: each
module sets its __all__ from its entry, so a function is made public by
adding its name there.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it contributes; each module's __all__ is read from here
_EXPORTS = {
    "timevalue": (
        "compound_amount",
        "pv_reversion",
        "annuity_pv",
        "installment_to_amortize",
        "accumulation",
        "sinking_fund_factor",
        "balance_fraction",
        "portion_paid",
    ),
    "recurrence": (
        "RecurrenceSpec",
        "OffsetStreamSpec",
        "recurrence_terms",
        "recurrence_term",
        "value_recurrence_stream",
        "value_offset_stream",
        "straight_line_annuity_value",
        "constant_ratio_annuity_value",
        "accumulation_stream_value",
        "ellwood_j_factor",
        "hoskold_stream_value",
        "hoskold_income_stream",
    ),
    "capitalization": (
        "MortgageTerms",
        "AppreciationSpec",
        "EllwoodRate",
        "perpetuity_value",
        "capitalize",
        "rate_from",
        "adjusted_cap_rate",
        "band_of_investment",
        "band_with_mortgage_constant",
        "mortgage_constant",
        "ellwood_cap_rate",
        "ellwood_j_cap_rate",
        "recovery_cap_rate",
    ),
    "amortization": (
        "AmortizationRow",
        "AmortizationSchedule",
        "level_schedule",
        "generalized_schedule",
        "sinking_fund_schedule",
        "verify_main_theorem",
        "schedule_to_csv",
        "schedule_to_table",
        "schedule_to_dict",
        "schedule_to_json",
    ),
    "projects": (
        "Project",
        "IrrResult",
        "ComparisonReport",
        "DEFAULT_IRR_BOUNDS",
        "npv",
        "irr_all",
        "negate",
        "npv_slope_class",
        "profitability_test",
        "compare_pairwise",
        "project_from_dict",
        "analysis_table",
        "analysis_csv",
        "analysis_to_dict",
        "comparison_table",
        "comparison_csv",
        "comparison_to_dict",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
