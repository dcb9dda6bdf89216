import json
import math
import random
import re
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propval import projects
from propval import (
    Project,
    compare_pairwise,
    comparison_csv,
    comparison_table,
    comparison_to_dict,
    irr_all,
    negate,
    npv,
    npv_slope_class,
    profitability_test,
    project_from_dict,
)

from oracles import npv_oracle, sturm_root_count


class TestNpv:
    def test_table_values_for_a(self, project_a):
        assert npv(project_a, 0.10) == pytest.approx(248.69, abs=0.005)
        assert npv(project_a, 0.12) == pytest.approx(192.15, abs=0.005)

    def test_zero_at_own_rate_for_c(self, project_c):
        assert npv(project_c, 0.12) == pytest.approx(0.0, abs=0.005)
        assert npv(project_c, 0.10) == pytest.approx(49.74, abs=0.005)

    def test_matches_oracle_on_random_flows(self):
        rng = random.Random(2)
        for _ in range(100):
            flows = tuple(rng.uniform(-2000, 2000) for _ in range(rng.randrange(2, 9)))
            project = Project("p", flows)
            rate = rng.uniform(-0.9, 2.0)
            assert npv(project, rate) == pytest.approx(npv_oracle(flows, rate), rel=1e-12, abs=1e-9)

    def test_trailing_zero_flows_meet_no_overflowed_factor(self):
        # at -99.9% the discount factor passes the double range near t = 103,
        # and a zero flow times it once made the NPV nan
        flows, rate = (-1.0, 2.0) + (0.0,) * 120, -0.999
        exact = sum(Fraction(c) / (1 + Fraction(rate)) ** t for t, c in enumerate(flows))
        assert npv(Project("z", flows), rate) == pytest.approx(float(exact), rel=1e-12)

    def test_rejects_rate_at_minus_one(self, project_a):
        with pytest.raises(ValueError):
            npv(project_a, -1.0)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_rejects_non_finite_rate(self, project_a, rate):
        # an infinite rate used to discount every later flow to zero and return C_0
        with pytest.raises(ValueError, match="finite"):
            npv(project_a, rate)

    def test_project_needs_two_flows(self):
        with pytest.raises(ValueError):
            Project("x", (100.0,))

    def test_tuple_of_floats_is_kept(self):
        flows = (-100.0, 60.0, 60.0)
        assert Project("p", flows).cashflows is flows
        # anything else becomes a new tuple of floats
        for given in ([-100.0, 60.0, 60.0], (-100, 60.0, 60.0), (True, -1.0)):
            cashflows = Project("p", given).cashflows
            assert cashflows == tuple(map(float, given)) and {*map(type, cashflows)} == {float}


class TestIrrAll:
    def test_project_a_single_root(self, project_a):
        result = irr_all(project_a)
        assert result.classification == "unique"
        assert result.roots[0] == pytest.approx(0.20, abs=5e-5)

    def test_project_b_single_root(self, project_b):
        result = irr_all(project_b)
        assert result.classification == "unique"
        assert result.roots[0] == pytest.approx(0.2338, abs=5e-5)

    def test_project_d_double_root(self, project_d):
        result = irr_all(project_d)
        assert result.classification == "multiple"
        assert len(result.roots) == 2
        assert result.roots[0] == pytest.approx(0.2852, abs=5e-5)
        assert result.roots[1] == pytest.approx(0.3934, abs=5e-5)

    def test_lowered_payout_has_no_root(self):
        project = Project("D'", (-1000, 1450, 1450, -2200))
        result = irr_all(project)
        assert result.classification == "none"
        assert result.roots == ()

    def test_roots_zero_the_npv(self, project_a, project_b, project_d):
        for project in (project_a, project_b, project_d):
            for root in irr_all(project).roots:
                assert abs(npv(project, root)) < 1e-6 * project.gross

    def test_roots_strictly_increasing(self, project_d):
        roots = irr_all(project_d).roots
        assert all(a < b for a, b in zip(roots, roots[1:]))

    def test_bounds_are_respected(self, project_a):
        result = irr_all(project_a, bounds=(-0.5, 0.1))
        assert result.classification == "none"
        assert result.search_bounds == (-0.5, 0.1)

    def test_matches_sturm_count_on_fixtures(self, project_a, project_b, project_c, project_d):
        fixtures = [project_a, project_b, project_c, project_d,
                    negate(project_a), Project("D'", (-1000, 1450, 1450, -2200))]
        for project in fixtures:
            expected = sturm_root_count(project.cashflows, -0.999, 10.0)
            assert len(irr_all(project).roots) == expected

    def test_matches_sturm_count_on_random_projects(self):
        rng = random.Random(20260810)
        bounds = (-0.9, 1.5)
        for _ in range(500):
            flows = tuple(rng.uniform(-2000, 2000) for _ in range(4))
            project = Project("p", flows)
            result = irr_all(project, bounds=bounds)
            assert len(result.roots) == sturm_root_count(flows, *bounds)
            for root in result.roots:
                assert abs(npv(project, root)) < 1e-6 * project.gross

    @pytest.mark.parametrize("bounds", [(0.1,), 5, (0.0, 1.0, 2.0)], ids=["one", "int", "three"])
    def test_bounds_must_be_two_rates(self, project_a, project_b, bounds):
        # one rate raised IndexError, an int TypeError, and a third rate was ignored
        message = re.escape(f"bounds must be two rates, got {bounds!r}")
        with pytest.raises(ValueError, match=message):
            irr_all(project_a, bounds)
        with pytest.raises(ValueError, match=message):
            compare_pairwise(project_a, project_b, bounds)

    def test_loan_search_makes_horner_passes_in_solve_only(self, monkeypatch):
        # one sign change reads no slope at a chart's ends, so every
        # _horner pass is a _solve step; evaluating the four ends with
        # _horner, with slopes, would make 8 more
        passes, solving = [], []
        horner, solve = projects._horner, projects._solve

        def counted_horner(coeffs, x):
            passes.append(bool(solving))
            return horner(coeffs, x)

        def counted_solve(*args):
            solving.append(True)
            try:
                return solve(*args)
            finally:
                solving.pop()

        monkeypatch.setattr(projects, "_horner", counted_horner)
        monkeypatch.setattr(projects, "_solve", counted_solve)
        assert irr_all(_monthly_loan(250_000.0, 0.005)).roots == pytest.approx((0.005,), abs=1e-9)
        assert passes and all(passes)

    def test_rejects_all_zero_project(self):
        with pytest.raises(ValueError):
            irr_all(Project("z", (0.0, 0.0, 0.0)))

    @pytest.mark.parametrize("upper", [math.inf, math.nan, -1.0])
    def test_rejects_upper_bound_outside_the_rates(self, upper):
        # a first flow of 0 puts a root at x = 0 of the w chart; with an
        # infinite upper bound, mapping it back through 1/x - 1 divides by 0
        with pytest.raises(ValueError, match="upper bound must be greater than -1 and finite"):
            irr_all(Project("D", (0.0, 40.0, -40.0)), (-0.5, upper))


def _monthly_loan(principal: float, rate: float, months: int = 360) -> Project:
    payment = principal * rate / (1.0 - (1.0 + rate) ** -months)
    return Project("loan", (-principal,) + (payment,) * months)


def _close_pair(r1: float, gap_exponent: float, r3: float) -> tuple[float, ...]:
    """Flows 1000 (w - a)(w - b)(w - c) in w = 1/(1+r), with IRRs at r1,
    r1 + 10**gap_exponent and r3 before the flows round."""
    a, b, c = (1.0 / (1.0 + r) for r in (r1, r1 + 10.0**gap_exponent, r3))
    return tuple(1000.0 * x for x in (-a * b * c, a * b + b * c + c * a, -(a + b + c), 1.0))


# every root of _unique_flow_projects under PIN_BOUNDS, as float.hex; to
# rewrite it after an intended change, run this file as a script:
# PYTHONPATH=src python tests/test_projects.py
UNIQUE_ROOTS = Path(__file__).parent / "unique_roots.json"
# the default bounds, then bounds on either side of r = 0 that exclude it
PIN_BOUNDS = (projects.DEFAULT_IRR_BOUNDS, (1e-4, 10.0), (-0.999, -1e-4))


def _outlay_then_inflows(rng: random.Random, n: int, lo: float, hi: float) -> tuple[float, ...]:
    """An outlay then n - 1 inflows in [lo, hi], whose IRR lies on either side of 0."""
    inflows = [rng.uniform(lo, hi) for _ in range(n - 1)]
    return (-sum(inflows) * rng.uniform(0.4, 1.3), *inflows)


def _zero_flow_projects() -> list[tuple[str, tuple[float, ...]]]:
    """20 seeded one-sign-change projects with flows of 0.0 and -0.0: 10
    monthly loans whose first 1-6 payments are deferred, (-P, 0.0, -0.0,
    0.0, A, ...), and 10 short projects with an interior 0.0 and a trailing
    -0.0."""
    rng = random.Random("zero-flow roots")
    drawn = []
    for i in range(10):
        principal, rate = rng.uniform(50_000.0, 900_000.0), rng.uniform(-0.01, 0.12) / 12.0
        deferred = rng.randint(1, 6)
        payments = _monthly_loan(principal * (1.0 + rate) ** deferred, rate, 360 - deferred).cashflows[1:]
        drawn.append((f"deferred{i}", (-principal, *((0.0, -0.0) * 3)[:deferred], *payments)))
    for i in range(10):
        flows = list(_outlay_then_inflows(rng, rng.randint(4, 12), 50.0, 600.0))
        flows[rng.randint(1, len(flows) - 2)] = 0.0
        drawn.append((f"gapped{i}", (*flows, -0.0)))
    return drawn


def _unique_flow_projects() -> list[tuple[str, tuple[float, ...]]]:
    """220 seeded projects whose flows change sign once: the 20 with zero
    flows above, then 80 short conventional projects (4-12 flows), 60
    monthly loans of 360 payments at annual rates from -1% to 12%, and 60
    comparison differences a - b."""
    rng = random.Random("unique-flow roots")
    drawn = _zero_flow_projects()
    drawn += [(f"short{i}", _outlay_then_inflows(rng, rng.randint(4, 12), 50.0, 600.0)) for i in range(80)]
    for i in range(60):
        loan = _monthly_loan(rng.uniform(50_000.0, 900_000.0), rng.uniform(-0.01, 0.12) / 12.0)
        drawn.append((f"loan{i}", loan.cashflows))
    for i in range(60):
        n = rng.randint(4, 8)
        a = _outlay_then_inflows(rng, n, 300.0, 900.0)
        b = tuple(x - y for x, y in zip(a, _outlay_then_inflows(rng, n, 20.0, 250.0)))
        drawn.append((f"difference{i}", tuple(x - y for x, y in zip(a, b))))
    return drawn


def _unique_roots() -> dict[str, list[list[str]]]:
    return {
        name: [[root.hex() for root in irr_all(Project(name, flows), bounds).roots] for bounds in PIN_BOUNDS]
        for name, flows in _unique_flow_projects()
    }


def test_unique_flow_roots_are_pinned_bit_for_bit():
    assert all(projects._sign_changes(flows) == 1 for _, flows in _unique_flow_projects())
    pinned, found = json.loads(UNIQUE_ROOTS.read_text(encoding="utf-8")), _unique_roots()
    if found != pinned:
        # a short list instead of pytest's diff of two dicts of 220 entries
        unset = [None] * len(PIN_BOUNDS)
        differing = [
            f"{name} {bounds}: {old} -> {new}"
            for name in {**pinned, **found}
            for bounds, old, new in zip(PIN_BOUNDS, pinned.get(name, unset), found.get(name, unset))
            if old != new
        ]
        listed = "\n".join(differing[:10])
        pytest.fail(f"{len(differing)} pinned results differ, the first ten as pinned -> found:\n{listed}")


# zeros of both signs, subnormals, and magnitudes up to 1e300
PART_COEFF = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0, 1e300, -1e300]),
    st.floats(-1e300, 1e300),
    st.floats(-1e-300, 1e-300),
)
PART_X = st.one_of(st.sampled_from([1.0, 0.5, 1e-3, 1e-300, 5e-324]), st.floats(0.0, 1.0, exclude_min=True))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(PART_COEFF, min_size=1, max_size=40), PART_X)
@example([1.0, -0.0, 0.0, -2.0], 1.0)
@example([-0.0, 1e300, -1e300, 1e300], 1.0)  # parts near the top of the drawn range
@example([5e-324, -5e-324, 0.0], 5e-324)  # both parts underflow to 0.0
def test_parts_match_horner_on_the_split_lists(coeffs, x):
    # what the split lists hold in _chart_roots; float.hex tells 0.0 from -0.0
    pos = [c if c > 0.0 else 0.0 for c in coeffs]
    neg = [-c if c < 0.0 else 0.0 for c in coeffs]
    expected = (projects._horner(pos, x)[0], projects._horner(neg, x)[0])
    assert [v.hex() for v in projects._parts(coeffs, x)] == [v.hex() for v in expected]


CLOSE_PAIRS = st.builds(_close_pair, st.floats(2.0, 2.8), st.floats(-7.0, -4.0), st.floats(-0.5, 1.5))


class TestIrrHardCases:
    def test_roots_closer_than_a_coarse_grid(self):
        result = irr_all(Project("close", (-1, 2.2005, -1.21055)))
        assert result.classification == "multiple"
        assert len(result.roots) == 2
        assert result.roots[0] == pytest.approx(0.1, abs=1e-6)
        assert result.roots[1] == pytest.approx(0.1005, abs=1e-6)

    def test_tangent_root_reported_at_most_once(self):
        roots = irr_all(Project("tangent", (-1, 2.2, -1.21))).roots
        assert len(roots) <= 1
        assert all(abs(r - 0.1) <= 1e-6 for r in roots)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(flows=CLOSE_PAIRS)
    # two crossings 7.5e-7 apart in one stopped node, above 0.0779
    @example(flows=(-102.12153477328346, 725.6707466997598, -1591.2645961723263, 1000.0))
    def test_no_root_missed_by_a_close_pair(self, flows):
        # every stretch of the bounds farther than 2 ROOT_RESOLUTION from
        # each reported root holds no root; an extra reported root passes
        lo, hi = projects.DEFAULT_IRR_BOUNDS
        margin = 2.0 * projects.ROOT_RESOLUTION
        roots = irr_all(Project("pair", flows)).roots
        edges = [lo] + [edge for root in roots for edge in (root - margin, root + margin)] + [hi]
        for a, b in zip(edges[::2], edges[1::2]):
            if a < b:
                assert sturm_root_count(flows, a, b) == 0, (a, b)

    def test_long_loan_gives_its_rate_without_warnings(self):
        loan = _monthly_loan(250_000.0, 0.06 / 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = irr_all(loan)
        assert result.classification == "unique"
        assert result.roots[0] == pytest.approx(0.005, abs=1e-9)

    def test_long_project_with_two_sign_changes(self):
        # outlay, 359 level inflows, then a balloon outflow
        balloon = Project("balloon", (-1000.0,) + (30.0,) * 359 + (-12000.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = irr_all(balloon)
        assert result.classification == "multiple"
        assert len(result.roots) == 2
        for root in result.roots:
            assert abs(npv(balloon, root)) <= 1e-6 * balloon.gross
            assert npv(balloon, root - 1e-5) * npv(balloon, root + 1e-5) < 0.0
            assert -0.2 < root < 0.2
        # Descartes' rule: two sign changes allow at most two IRRs above -1,
        # and the NPV changes sign at each of the two reported
        signs = [c > 0.0 for c in balloon.cashflows if c != 0.0]
        assert sum(a != b for a, b in zip(signs, signs[1:])) == 2

    @pytest.mark.parametrize(
        "base",
        [
            (-1.0, 1.0, 1.0),
            (-1000.0, 1450.0, 1500.0, -2200.0),
            (-1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0),
            (-1.0,) + (0.05,) * 58 + (1.0,),
            (-1000.0,) + (30.0,) * 359 + (-12000.0,),
        ],
        ids=["len3", "len4", "len7", "len60", "len361"],
    )
    def test_flows_near_the_double_limit(self, base):
        # the largest flow is 1e308, so the NPV near r = 0 overflows; scaling
        # every flow by one power of two leaves the IRRs as they are
        peak = max(map(abs, base))
        huge = Project("H", [c / peak * 1e308 for c in base])
        scaled = Project("S", [math.ldexp(c, -1000) for c in huge.cashflows])
        assert irr_all(huge) == irr_all(scaled)
        assert irr_all(huge).roots == pytest.approx(irr_all(Project("B", base)).roots, abs=1e-12)

    @pytest.mark.parametrize(
        ("rate", "bounds", "first_rescaled"),
        [
            (0.005, projects.DEFAULT_IRR_BOUNDS, 972),
            (0.005, (1e-4, 10.0), 974),
            (-0.002, projects.DEFAULT_IRR_BOUNDS, 973),
            (-0.002, (-0.5, -1e-4), 974),
        ],
        ids=["default", "w-chart-excludes-0", "negative-default", "x-chart-excludes-0"],
    )
    def test_scaled_loan_keeps_its_root_across_the_rescale(self, monkeypatch, rate, bounds, first_rescaled):
        """A 360-payment loan times 2**k gives the unscaled result for every
        k up to the double limit, with no warning. Each chart is rescaled
        once from k = first_rescaled on and never before: with bounds that
        hold r = 0, once (n + 2) times its absolute flows sum past 2**1000;
        otherwise once the NPV parts and their slopes at the bound nearest
        r = 0 do. A rescaled chart's largest coefficient is below 1, so its
        sums stay near n**2 and it is never rescaled twice."""
        loan = _monthly_loan(250_000.0, rate)
        expected = irr_all(loan, bounds)
        assert len(expected.roots) == 1
        charts, calls = (bounds[0] < 0.0) + (bounds[1] > 0.0), []
        chart_roots = projects._chart_roots
        monkeypatch.setattr(projects, "_chart_roots", lambda *args: calls.append(1) or chart_roots(*args))
        for k in range(first_rescaled - 12, 1007):  # 2**1007 times the principal is past the double range
            scaled = Project("S", [math.ldexp(c, k) for c in loan.cashflows])
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert irr_all(scaled, bounds) == expected, k
            assert len(calls) - charts == (0 if k < first_rescaled else charts), k

    def test_golden_ratio_at_the_double_limit(self):
        # -1 + x + x^2 = 0 in x = 1/(1+r): r = (1 + sqrt 5)/2 - 1 at every scale
        golden = (1.0 + math.sqrt(5.0)) / 2.0 - 1.0
        for scale in (1.0, 1e307, 1e308, 1.7e308):
            roots = irr_all(Project("H", (-scale, scale, scale))).roots
            assert roots == pytest.approx((golden,), abs=1e-15)

    @pytest.mark.parametrize("bounds", [(0.12, 1.0), (-0.5, 0.12)])
    def test_root_on_a_bound_is_found(self, project_c, bounds):
        result = irr_all(project_c, bounds=bounds)
        assert result.classification == "unique"
        assert result.roots[0] == pytest.approx(0.12, abs=1e-12)
        assert bounds[0] <= result.roots[0] <= bounds[1]

    @pytest.mark.parametrize("bounds", [(0.25, 2.0), (-0.9, 0.15)])
    def test_one_sign_change_with_root_outside_bounds(self, project_a, bounds):
        result = irr_all(project_a, bounds=bounds)
        assert result.classification == "none"
        assert result.roots == ()


class TestNegate:
    def test_negated_a_from_table(self, project_a):
        minus_a = negate(project_a)
        assert minus_a.cashflows == (1000, -200, -200, -1200)
        result = irr_all(minus_a)
        assert result.roots[0] == pytest.approx(0.20, abs=5e-5)
        assert npv(minus_a, 0.10) == pytest.approx(-248.69, abs=0.005)
        assert npv(minus_a, 0.12) == pytest.approx(-192.15, abs=0.005)

    def test_involution(self, project_b):
        assert negate(negate(project_b)) == project_b

    def test_npv_flips_sign(self, project_a):
        for rate in (0.0, 0.10, 0.25):
            assert npv(negate(project_a), rate) == pytest.approx(-npv(project_a, rate), rel=1e-12)

    def test_roots_coincide(self, project_d):
        ours = irr_all(project_d).roots
        theirs = irr_all(negate(project_d)).roots
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            assert a == pytest.approx(b, abs=1e-9)


class TestNpvSlopeClass:
    def test_simple_investment_is_decreasing(self, project_a):
        assert npv_slope_class(project_a) == "decreasing"

    def test_two_sign_changes_not_guaranteed(self, project_d):
        assert npv_slope_class(project_d) == "not_guaranteed"

    def test_difference_project_is_decreasing(self):
        assert npv_slope_class(Project("A-B", (0, -300, -300, 700))) == "decreasing"

    def test_positive_first_not_guaranteed(self, project_a):
        assert npv_slope_class(negate(project_a)) == "not_guaranteed"

    def test_single_sign_not_guaranteed(self):
        assert npv_slope_class(Project("gift", (0, 100, 100))) == "not_guaranteed"


class TestProfitability:
    def test_a_profitable_below_irr(self, project_a):
        assert profitability_test(project_a, 0.10) == "profitable"

    def test_negated_project_is_inapplicable(self, project_a):
        assert profitability_test(negate(project_a), 0.10) == "inapplicable"

    def test_boundary_counts_as_unprofitable(self, project_c):
        assert profitability_test(project_c, 0.12) == "unprofitable"

    def test_above_irr_unprofitable(self, project_a):
        assert profitability_test(project_a, 0.25) == "unprofitable"

    def test_multiple_roots_inapplicable(self, project_d):
        assert profitability_test(project_d, 0.10) == "inapplicable"

    def test_irr_outside_bounds_inapplicable(self):
        # the NPV slopes downward, but its one IRR, 99 (9,900%), lies
        # outside DEFAULT_IRR_BOUNDS
        project = Project("x", (-1.0, 100.0))
        assert npv_slope_class(project) == "decreasing"
        assert irr_all(project).classification == "none"
        assert profitability_test(project, 0.05) == "inapplicable"


class TestComparePairwise:
    def test_a_against_b(self, project_a, project_b):
        report = compare_pairwise(project_a, project_b)
        assert report.difference_project.cashflows == (0, -300, -300, 700)
        assert report.difference_project.name == "A-B"
        assert report.orientation_valid
        assert report.cutoff_rate == pytest.approx(0.1073, abs=5e-5)
        assert report.preferred_below == "A"
        assert report.preferred_above == "B"
        assert npv(report.difference_project, 0.10) == pytest.approx(5.26, abs=0.005)
        assert npv(report.difference_project, 0.12) == pytest.approx(-8.77, abs=0.005)

    def test_order_does_not_matter(self, project_a, project_b):
        report = compare_pairwise(project_b, project_a)
        assert report.difference_project.name == "A-B"
        assert report.preferred_below == "A"
        assert report.preferred_above == "B"

    def test_preference_flips_across_cutoff(self, project_a, project_b):
        report = compare_pairwise(project_a, project_b)
        cutoff = report.cutoff_rate
        below = npv(project_a, cutoff - 0.01) - npv(project_b, cutoff - 0.01)
        above = npv(project_a, cutoff + 0.01) - npv(project_b, cutoff + 0.01)
        assert below > 0 > above

    def test_identical_projects_degenerate(self, project_a):
        report = compare_pairwise(project_a, project_a)
        assert report.degenerate
        assert not report.orientation_valid
        assert report.cutoff_rate is None
        assert all(c == 0.0 for c in report.difference_project.cashflows)

    def test_cutoff_outside_bounds_is_none(self, project_a, project_b):
        # the A-B difference has its IRR at 10.73%, below these bounds
        report = compare_pairwise(project_a, project_b, (0.15, 0.5))
        assert report.orientation_valid
        assert report.cutoff_rate is None
        assert report.preferred_below is report.preferred_above is None
        assert report.difference_irr.classification == "none"
        irrs = (report.first_irr, report.second_irr, report.difference_irr)
        assert all(result.search_bounds == (0.15, 0.5) for result in irrs)
        assert report.first_irr == irr_all(project_a, (0.15, 0.5))

    def test_renderers_reuse_the_report_irrs(self, project_a, project_b, monkeypatch):
        reports = [compare_pairwise(project_a, project_b), compare_pairwise(project_a, project_a)]

        def forbidden(*args, **kwargs):
            raise AssertionError("a renderer searched for an IRR again")

        monkeypatch.setattr(projects, "irr_all", forbidden)
        for report in reports:
            comparison_table(report)
            comparison_csv(report)
            comparison_to_dict(report)

    @pytest.mark.parametrize(
        "render",
        [projects.analysis_table, projects.analysis_csv, projects.analysis_to_dict],
        ids=["table", "csv", "dict"],
    )
    def test_renderers_refuse_a_nonfinite_npv(self, render):
        huge = Project("H", (-1e308, 1e308, 1e308))
        with pytest.raises(OverflowError, match="^npv: "):
            npv(huge, -0.9)
        with pytest.raises(OverflowError):
            render(huge, irr_all(huge), (0.1, -0.9))

    def test_overflowing_difference_is_out_of_range(self):
        huge = Project("H", (-1e308, 1e308, 1e308))
        with pytest.raises(OverflowError):
            compare_pairwise(huge, negate(huge))
        with pytest.raises(OverflowError):
            compare_pairwise(negate(huge), huge)

    def test_unorientable_pair(self):
        p1 = Project("p1", (-100, 300, -100, 50))
        p2 = Project("p2", (-100, 50, 160, 40))
        report = compare_pairwise(p1, p2)
        assert not report.orientation_valid
        assert report.cutoff_rate is None

    def test_zero_pads_shorter_project(self, project_a):
        shorter = Project("S", (-1000, 200, 200))
        report = compare_pairwise(project_a, shorter)
        assert len(report.difference_project.cashflows) == 4

    def test_highest_irr_fallacy_regression(self, project_a, project_b):
        # B has the higher IRR yet A has the higher NPV at 10%
        assert irr_all(project_b).roots[0] > irr_all(project_a).roots[0]
        assert npv(project_a, 0.10) > npv(project_b, 0.10)


class TestIngestionAndReports:
    def test_from_dict_validations(self):
        with pytest.raises(ValueError):
            project_from_dict({"name": "x", "cashflows": [1.0]})
        with pytest.raises(ValueError):
            project_from_dict({"name": "x", "cashflows": [0, 0.0]})
        with pytest.raises(ValueError):
            project_from_dict({"name": "x", "cashflows": [1, "two"]})
        with pytest.raises(ValueError):
            project_from_dict({"name": "", "cashflows": [1, 2]})
        with pytest.raises(ValueError):
            project_from_dict([1, 2])
        with pytest.raises(ValueError, match="cash flows must be finite"):
            project_from_dict({"name": "x", "cashflows": [-(10**400), 1]})  # beyond the double range

    def test_comparison_table_frozen(self, project_a, project_b):
        report = compare_pairwise(project_a, project_b)
        text = comparison_table(report)
        expected = (
            "Project  C0        C1       C2       C3       IRR     NPV @ 10.00%  NPV @ 12.00%\n"
            "A        -1000.00  200.00   200.00   1200.00  20.00%  248.69        192.15\n"
            "B        -1000.00  500.00   500.00   500.00   23.38%  243.43        200.92\n"
            "A-B      0.00      -300.00  -300.00  700.00   10.73%  5.26          -8.77\n"
            "cutoff rate: 10.73%\n"
            "preferred below cutoff: A\n"
            "preferred above cutoff: B\n"
        )
        assert text == expected

    def test_comparison_dict_raw_doubles(self, project_a, project_b):
        data = comparison_to_dict(compare_pairwise(project_a, project_b), (0.10,))
        assert data["schema"] == 1
        assert data["cutoff_rate"] == pytest.approx(0.10727512693405156, abs=1e-9)
        assert data["projects"][0]["npv"]["0.1"] == npv(project_a, 0.10)
        assert data["preferred_below"] == "A"

    def test_degenerate_table_mentions_it(self, project_a):
        text = comparison_table(compare_pairwise(project_a, project_a))
        assert "degenerate" in text


if __name__ == "__main__":
    UNIQUE_ROOTS.write_text(json.dumps(_unique_roots(), indent=1) + "\n", encoding="utf-8")
