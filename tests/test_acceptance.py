"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (run with -s to see them all) and
enforces its stated tolerance. Published-table figures are asserted to
half a cent / half a basis point; property checks run on seeded draws so
every run sees the same cases.
"""

import math
import random
import time

import pytest

from propval import (
    AppreciationSpec,
    MortgageTerms,
    Project,
    annuity_pv,
    accumulation,
    accumulation_stream_value,
    balance_fraction,
    capitalize,
    compare_pairwise,
    compound_amount,
    ellwood_cap_rate,
    ellwood_j_cap_rate,
    generalized_schedule,
    hoskold_income_stream,
    hoskold_stream_value,
    installment_to_amortize,
    irr_all,
    negate,
    npv,
    RecurrenceSpec,
    sinking_fund_factor,
    sinking_fund_schedule,
    value_recurrence_stream,
    verify_main_theorem,
)

from oracles import accumulation_sum, annuity_sum, bal_form2_exact, recurrence_stream, relclose, stream_pv

RATE_TOL = 5e-5       # half a basis point: table rates quoted to 0.01%
MONEY_TOL = 0.005     # half a cent: table amounts quoted to 0.01
RATE_GRID = [(j - 10) * 0.05 for j in range(21)]

PROJECT_A = Project("A", (-1000, 200, 200, 1200))
PROJECT_B = Project("B", (-1000, 500, 500, 500))
PROJECT_C = Project("C", (-1000, 120, 120, 1120))
PROJECT_D = Project("D", (-1000, 1450, 1500, -2200))


def _finish(number: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {label}")
    assert not failures, f"criterion {number}: " + "; ".join(failures[:5])


def _check(failures: list[str], ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def test_criterion_1_three_project_table():
    failures: list[str] = []
    started = time.perf_counter()
    expected = {
        "A": (PROJECT_A, 0.20, 248.69, 192.15),
        "B": (PROJECT_B, 0.2338, 243.43, 200.92),
        "C": (PROJECT_C, 0.12, 49.74, 0.00),
    }
    for name, (project, rate, npv10, npv12) in expected.items():
        result = irr_all(project)
        _check(failures, result.classification == "unique", f"{name}: not a single IRR")
        _check(failures, abs(result.roots[0] - rate) <= RATE_TOL, f"{name}: IRR {result.roots[0]}")
        _check(failures, abs(npv(project, 0.10) - npv10) <= MONEY_TOL, f"{name}: NPV@10%")
        _check(failures, abs(npv(project, 0.12) - npv12) <= MONEY_TOL, f"{name}: NPV@12%")
    elapsed = time.perf_counter() - started
    _check(failures, elapsed < 1.0, f"took {elapsed:.2f}s")
    _finish(1, "projects A/B/C IRRs and NPVs", failures)


def test_criterion_2_negated_project():
    failures: list[str] = []
    minus_a = negate(PROJECT_A)
    result = irr_all(minus_a)
    _check(failures, result.classification == "unique", "not a single IRR")
    _check(failures, abs(result.roots[0] - 0.20) <= RATE_TOL, f"IRR {result.roots}")
    _check(failures, abs(npv(minus_a, 0.10) - (-248.69)) <= MONEY_TOL, "NPV@10%")
    _check(failures, abs(npv(minus_a, 0.12) - (-192.15)) <= MONEY_TOL, "NPV@12%")
    _finish(2, "sign-flipped project keeps the IRR, flips the NPVs", failures)


def test_criterion_3_multiple_and_missing_roots():
    failures: list[str] = []
    result = irr_all(PROJECT_D)
    _check(failures, len(result.roots) == 2, f"expected 2 roots, got {result.roots}")
    _check(failures, abs(result.roots[0] - 0.2852) <= RATE_TOL, f"first root {result.roots[0]}")
    _check(failures, abs(result.roots[1] - 0.3934) <= RATE_TOL, f"second root {result.roots[1]}")
    _check(failures, abs(npv(PROJECT_D, 0.30) - 1.59) <= MONEY_TOL, "NPV@30%")
    lowered = Project("D'", (-1000, 1450, 1450, -2200))
    _check(failures, irr_all(lowered).roots == (), "lowered project should have no IRR")
    _finish(3, "double-root project and its rootless variant", failures)


def test_criterion_4_pairwise_cutoff():
    failures: list[str] = []
    report = compare_pairwise(PROJECT_A, PROJECT_B)
    diff = report.difference_project
    _check(failures, diff.cashflows == (0, -300, -300, 700), f"difference {diff.cashflows}")
    _check(failures, report.cutoff_rate is not None and abs(report.cutoff_rate - 0.1073) <= RATE_TOL,
           f"cutoff {report.cutoff_rate}")
    _check(failures, abs(npv(diff, 0.10) - 5.26) <= MONEY_TOL, "difference NPV@10%")
    _check(failures, abs(npv(diff, 0.12) - (-8.77)) <= MONEY_TOL, "difference NPV@12%")
    _check(failures, report.preferred_below == "A", "A preferred below the cutoff")
    _check(failures, report.preferred_above == "B", "B preferred above the cutoff")
    _finish(4, "difference-project cutoff between A and B", failures)


def test_criterion_5_discounted_payments_recover_principal():
    failures: list[str] = []
    rng = random.Random(42)
    started = time.perf_counter()
    for trial in range(1000):
        while True:
            ps = [rng.uniform(-500.0, 500.0) for _ in range(rng.randrange(1, 31))]
            if math.fsum(ps) > 0.0:
                break
        rate = rng.uniform(0.0, 0.3) or 0.15
        schedule = generalized_schedule(ps, rate)
        total = math.fsum(ps)
        residual = verify_main_theorem(schedule)
        _check(failures, residual < 1e-6 * total, f"trial {trial}: residual {residual:.2e} vs sum {total:.2e}")
    elapsed = time.perf_counter() - started
    _check(failures, elapsed < 5.0, f"took {elapsed:.2f}s")
    _finish(5, "1000 arbitrary-paydown schedules discount back to principal", failures)


def test_criterion_6_recurrence_closed_forms_match_summation():
    failures: list[str] = []
    rng = random.Random(20260810)
    rate_grid = [0.01 * j for j in range(31)]
    started = time.perf_counter()
    for trial in range(2000):
        m, b, c = (rng.uniform(-2.0, 2.0) for _ in range(3))
        if rng.random() < 0.5:
            i = rate_grid[rng.randrange(0, len(rate_grid))]
        else:
            i = rng.uniform(0.005, 0.3)
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
        _check(
            failures,
            relclose(value, oracle, rel=1e-9, abs_floor=1e-9),
            f"trial {trial}: m={m} b={b} c={c} i={i} n={n} value={value!r} oracle={oracle!r}",
        )
    elapsed = time.perf_counter() - started
    _check(failures, elapsed < 5.0, f"took {elapsed:.2f}s")
    _finish(6, "2000 recurrence streams, closed form vs summation", failures)


def test_criterion_7_safe_rate_recovery_streams():
    failures: list[str] = []
    income = 100.0
    for i in (0.05, 0.10, 0.15, 0.20):
        safe_rates = sorted({round(k * 0.025, 6) for k in range(round(i / 0.025) + 1)} | {i})
        for i_s in safe_rates:
            for n in range(1, 31):
                value = hoskold_stream_value(income, i, i_s, n)
                stream = hoskold_income_stream(income, i, i_s, n)
                discounted = stream_pv(stream, i)
                _check(
                    failures,
                    relclose(discounted, value, rel=1e-9),
                    f"stream pv i={i} i_s={i_s} n={n}",
                )
                schedule = sinking_fund_schedule(value, i, i_s, n)
                rows_match = all(
                    relclose(payment, expected, rel=1e-9)
                    for payment, expected in zip(schedule.payments, stream)
                )
                _check(failures, rows_match, f"schedule rows i={i} i_s={i_s} n={n}")
    _finish(7, "safe-rate declining streams discount to income/(i+SFF)", failures)


def test_criterion_8_mortgage_equity_identity_and_round_trip():
    failures: list[str] = []
    rng = random.Random(8)
    noi = 100.0
    for trial in range(1000):
        hold = rng.randrange(1, 31)
        terms = MortgageTerms(
            rng.uniform(0.0, 0.95),
            rng.uniform(0.01, 0.15),
            12 * hold + rng.randrange(0, 361),
            hold,
        )
        y = rng.uniform(0.03, 0.25)
        spec = AppreciationSpec(
            asset_change=rng.uniform(-0.9, 1.0),
            income_change=rng.uniform(-0.5, 0.5),
        )
        result = ellwood_cap_rate(terms, y, spec)
        _check(
            failures,
            abs(result.rate - result.akerson_rate) < 1e-12,
            f"trial {trial}: regroupings differ by {abs(result.rate - result.akerson_rate):.2e}",
        )
        if result.rate == 0.0:
            continue
        m = terms.loan_to_value
        value = capitalize(noi, result.rate)
        equity = annuity_sum(y, hold) * (noi - m * value * result.mortgage_constant)
        reversion = (
            (1 + spec.asset_change) * value - m * value * result.balance_fraction
        ) / (1 + y) ** hold
        residual = abs(value - (equity + reversion + m * value))
        _check(failures, residual < 1e-8 * abs(value), f"trial {trial}: constant-income residual")

        with_j = ellwood_j_cap_rate(terms, y, spec)
        if with_j.rate == 0.0:
            continue
        value_j = capitalize(noi, with_j.rate)
        h = noi * spec.income_change / accumulation_sum(y, hold)
        incomes = [noi + accumulation_sum(y, k) * h for k in range(1, hold + 1)]
        debt_service = m * value_j * with_j.mortgage_constant
        equity_j = stream_pv([inc - debt_service for inc in incomes], y)
        reversion_j = (
            (1 + spec.asset_change) * value_j - m * value_j * with_j.balance_fraction
        ) / (1 + y) ** hold
        residual_j = abs(value_j - (equity_j + reversion_j + m * value_j))
        _check(failures, residual_j < 1e-8 * abs(value_j), f"trial {trial}: changing-income residual")
    _finish(8, "1000 mortgage-equity draws: regrouping identity and value equations", failures)


def test_criterion_9_factor_identities():
    failures: list[str] = []
    for r in RATE_GRID:
        for n in range(1, 41):
            lhs = installment_to_amortize(r, n)
            rhs = r + sinking_fund_factor(r, n)
            _check(failures, relclose(lhs, rhs, rel=1e-10, abs_floor=1e-12),
                   f"payment split r={r} n={n}")
            _check(
                failures,
                relclose(accumulation(r, n), compound_amount(r, n) * annuity_pv(r, n), rel=1e-10),
                f"future-value restatement r={r} n={n}",
            )
            if r != 0.0:
                total = math.fsum(annuity_pv(r, k) for k in range(1, n + 1))
                _check(
                    failures,
                    relclose(total, accumulation_stream_value(r, n), rel=1e-10, abs_floor=1e-10),
                    f"annuity ladder r={r} n={n}",
                )
                weighted = stream_pv(range(1, n + 1), r)
                a_n = annuity_pv(r, n)
                _check(
                    failures,
                    relclose(weighted, (n + 1) * a_n - (n - a_n) / r, rel=1e-10, abs_floor=1e-10),
                    f"weighted positions r={r} n={n}",
                )
        for n in (2, 5, 13, 27, 40):
            ks = sorted({0, 1, n // 4, n // 2, 3 * n // 4, n - 1, n})
            for k in ks:
                _check(
                    failures,
                    relclose(balance_fraction(k, n, r), bal_form2_exact(k, n, r), rel=1e-10, abs_floor=1e-12),
                    f"balance forms r={r} n={n} k={k}",
                )
    _finish(9, "factor identities over the rate grid", failures)
