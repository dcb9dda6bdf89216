"""Contract of the ten record types: immutable named tuples that validate.

Field order and defaults are those of the earlier frozen dataclasses.
Every construction path (the class, _make and _replace) validates.
"""

import math
import pickle

import pytest

from propval import (
    AmortizationRow,
    AmortizationSchedule,
    AppreciationSpec,
    ComparisonReport,
    EllwoodRate,
    IrrResult,
    MortgageTerms,
    OffsetStreamSpec,
    Project,
    RecurrenceSpec,
    generalized_schedule,
    level_schedule,
    sinking_fund_schedule,
)

NAN, INF = math.nan, math.inf

PROJECT = Project("A", (-1000.0, 200.0, 1200.0))
IRR = IrrResult((0.1,), "unique", (-0.999, 10.0))
ROW = AmortizationRow(1, 88.85, 10.0, 78.85, 921.15)
RECURRENCE = RecurrenceSpec(1.1, 0.0, 1.0)

# class -> (field order, defaults, a valid record built by keyword)
RECORDS = {
    Project: (("name", "cashflows"), {}, Project(name="A", cashflows=(-1000.0, 200.0, 1200.0))),
    IrrResult: (
        ("roots", "classification", "search_bounds"),
        {},
        IrrResult(roots=(0.1,), classification="unique", search_bounds=(-0.999, 10.0)),
    ),
    ComparisonReport: (
        (
            "first",
            "second",
            "difference_project",
            "first_irr",
            "second_irr",
            "difference_irr",
            "cutoff_rate",
            "preferred_below",
            "preferred_above",
            "orientation_valid",
            "degenerate",
        ),
        {"degenerate": False},
        ComparisonReport(
            first=PROJECT,
            second=PROJECT,
            difference_project=Project("A-A", (0.0, 0.0, 0.0)),
            first_irr=IRR,
            second_irr=IRR,
            difference_irr=None,
            cutoff_rate=None,
            preferred_below=None,
            preferred_above=None,
            orientation_valid=False,
        ),
    ),
    MortgageTerms: (
        ("loan_to_value", "annual_rate", "amortization_months", "holding_years"),
        {},
        MortgageTerms(loan_to_value=0.7, annual_rate=0.08, amortization_months=360, holding_years=10),
    ),
    AppreciationSpec: (
        ("asset_change", "income_change"),
        {"asset_change": 0.0, "income_change": 0.0},
        AppreciationSpec(asset_change=0.1, income_change=0.2),
    ),
    EllwoodRate: (
        (
            "rate",
            "c_factor",
            "mortgage_constant",
            "portion_paid",
            "balance_fraction",
            "equity_sff",
            "akerson_rate",
            "j_factor",
            "income_change",
        ),
        {"j_factor": None, "income_change": 0.0},
        EllwoodRate(
            rate=0.1,
            c_factor=0.05,
            mortgage_constant=0.1,
            portion_paid=0.17,
            balance_fraction=0.83,
            equity_sff=0.05,
            akerson_rate=0.1,
        ),
    ),
    RecurrenceSpec: (
        ("multiplier", "increment", "seed"),
        {},
        RecurrenceSpec(multiplier=1.1, increment=0.0, seed=1.0),
    ),
    OffsetStreamSpec: (
        ("first_income", "decrement", "recurrence"),
        {},
        OffsetStreamSpec(first_income=100.0, decrement=1.0, recurrence=RECURRENCE),
    ),
    AmortizationRow: (
        ("period", "payment", "interest", "principal_reduction", "ending_balance"),
        {},
        AmortizationRow(period=1, payment=88.85, interest=10.0, principal_reduction=78.85, ending_balance=921.15),
    ),
    AmortizationSchedule: (
        ("principal", "rate", "rows"),
        {},
        AmortizationSchedule(principal=1000.0, rate=0.01, rows=(ROW,)),
    ),
}

# class -> (field overrides of the valid record, message of the ValueError)
INVALID = [
    (Project, {"cashflows": (1.0,)}, "at least two cash flows"),
    (Project, {"cashflows": (-1.0, NAN)}, "cash flows must be finite"),
    (Project, {"cashflows": (-1.0, INF, 1.0)}, "cash flows must be finite"),
    (MortgageTerms, {"loan_to_value": 5.0}, "loan_to_value must be in"),
    (MortgageTerms, {"loan_to_value": -0.1}, "loan_to_value must be in"),
    (MortgageTerms, {"annual_rate": NAN}, "annual_rate must be greater than -1 and finite, got nan"),
    (MortgageTerms, {"annual_rate": -1.0}, "annual_rate must be greater than -1"),
    (MortgageTerms, {"amortization_months": 0}, "amortization_months must be >= 1"),
    (MortgageTerms, {"amortization_months": 360.5}, "amortization_months must be an integer"),
    (MortgageTerms, {"holding_years": 0}, "holding_years must be >= 1"),
    (MortgageTerms, {"amortization_months": 100}, "must cover the holding period"),
    (AppreciationSpec, {"asset_change": NAN}, "asset_change must be >= -1 and finite, got nan"),
    (AppreciationSpec, {"income_change": -INF}, "income_change must be finite, got -inf"),
    (AppreciationSpec, {"asset_change": -1.5}, "asset_change must be >= -1 and finite, got -1.5"),
    (RecurrenceSpec, {"multiplier": NAN}, "multiplier must be finite"),
    (RecurrenceSpec, {"increment": INF}, "increment must be finite"),
    (RecurrenceSpec, {"seed": -INF}, "seed must be finite"),
    (OffsetStreamSpec, {"first_income": NAN}, "first_income must be finite"),
    (OffsetStreamSpec, {"decrement": INF}, "decrement must be finite"),
    (OffsetStreamSpec, {"recurrence": (0.0, NAN, 0.0)}, "increment must be finite"),
]

ids = [cls.__name__ for cls in RECORDS]
each_record = pytest.mark.parametrize("cls", list(RECORDS), ids=ids)


@each_record
def test_fields_in_declared_order(cls):
    fields, _, record = RECORDS[cls]
    assert cls._fields == fields
    assert tuple(record._asdict()) == fields


@each_record
def test_keyword_and_positional_construction_agree(cls):
    _, _, record = RECORDS[cls]
    assert type(record) is cls
    assert cls(*record) == record
    assert cls(**record._asdict()) == record
    assert cls._make(record) == record and type(cls._make(record)) is cls


@each_record
def test_defaults(cls):
    fields, defaults, record = RECORDS[cls]
    assert cls._field_defaults == defaults
    required = [getattr(record, name) for name in fields if name not in defaults]
    assert cls(*required)._asdict() == {**record._asdict(), **defaults}


def test_appreciation_spec_defaults_to_no_change():
    assert AppreciationSpec() == (0.0, 0.0)


@each_record
def test_fields_cannot_be_assigned(cls):
    fields, _, record = RECORDS[cls]
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


@each_record
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(cls, protocol):
    _, _, record = RECORDS[cls]
    copy = pickle.loads(pickle.dumps(record, protocol))
    assert copy == record and type(copy) is cls


@pytest.mark.parametrize(
    "cls, change, message", INVALID, ids=[f"{cls.__name__}-{next(iter(change))}" for cls, change, _ in INVALID]
)
def test_every_construction_path_validates(cls, change, message):
    _, _, record = RECORDS[cls]
    fields = {**record._asdict(), **change}
    with pytest.raises(ValueError, match=message):
        cls(**fields)
    with pytest.raises(ValueError, match=message):
        cls._make(fields.values())
    with pytest.raises(ValueError, match=message):
        record._replace(**change)


def test_replace_of_a_valid_field_keeps_the_type():
    terms = MortgageTerms(0.7, 0.08, 360, 10)._replace(loan_to_value=0.5)
    assert type(terms) is MortgageTerms and terms == (0.5, 0.08, 360, 10)
    with pytest.raises(ValueError, match="unexpected field names"):
        terms._replace(ltv=0.5)


def test_project_stores_its_cash_flows_as_floats():
    for project in (Project("A", [-1000, 200, 1200]), PROJECT._replace(cashflows=[-1000, 200, 1200])):
        assert project.cashflows == (-1000.0, 200.0, 1200.0)
        assert all(type(c) is float for c in project.cashflows)


def test_offset_stream_spec_stores_its_recurrence_as_a_spec():
    spec = OffsetStreamSpec(100.0, 1.0, (0.0, 5.0, 7.0))
    assert type(spec.recurrence) is RecurrenceSpec and spec.recurrence == (0.0, 5.0, 7.0)


def test_records_compare_equal_to_plain_tuples():
    assert PROJECT == ("A", (-1000.0, 200.0, 1200.0))
    assert repr(PROJECT) == "Project(name='A', cashflows=(-1000.0, 200.0, 1200.0))"


def test_schedule_rows_are_built_past_a_constructor_that_checks_nothing():
    # the schedule builders make their rows with tuple.__new__, as a plain
    # named tuple's _make does, and so skip any __new__ of the class
    assert "__new__" not in vars(AmortizationRow), (
        "AmortizationRow defines its own __new__: the schedule builders skip it, "
        "so a validating __new__ needs them to call the class again"
    )
    for schedule in (
        level_schedule(1000.0, 0.01, 3),
        sinking_fund_schedule(1000.0, 0.01, 0.005, 3),
        generalized_schedule([400.0, -100.0, 700.0], 0.01),
    ):
        for row in schedule.rows:
            assert type(row) is AmortizationRow and row == AmortizationRow(*row)
