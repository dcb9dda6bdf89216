"""Cash-flow project analysis: NPV, all-root IRR search, and comparison.

A project is a dated cash-flow vector starting at time zero. NPV is a
polynomial in w = 1/(1+r), evaluated by Horner's rule at every rate. The
IRR search isolates its roots on two charts that keep every power of the
variable at most 1: w itself for r >= 0, and 1+r (coefficients
reversed) for r < 0. Flows with at most one Descartes sign change have at
most one IRR and need one bracketed solve; other flows are bisected until
enclosures of the NPV and its slope prove each piece holds no root or at
most one, or the piece is narrower than ROOT_RESOLUTION in rate. Roots
closer than ROOT_RESOLUTION are reported once, and a tangent root (the
curve touching zero without crossing) is reported when the NPV at the
touching point is zero within its own rounding error.

The pitfalls of quoting a single IRR are first-class here: sign-flipped
projects share roots, multiple or missing roots are reported as such, and
the profitability shortcut r < IRR is only applied when the NPV curve is
guaranteed to slope downward.

Pairwise choice works through the difference project: subtract the two
cash-flow vectors in the orientation whose NPV slopes downward, and its
unique IRR is the cutoff rate below which the later-paying project wins.
The comparison report carries the IRRs of both projects and of the
difference, all searched in the same bounds, so the table, CSV and JSON
renderers below only format what compare_pairwise found.
"""

from __future__ import annotations

import math

from . import _EXPORTS
from ._record import record
from .render import _report_text, format_fixed, format_percent
from .timevalue import _RATE, _check_real

__all__ = list(_EXPORTS["projects"])

DEFAULT_IRR_BOUNDS = (-0.999, 10.0)
# isolation stops at nodes this narrow in rate; closer roots are reported once
ROOT_RESOLUTION = 1e-6
ROOT_TOL = 1e-9
_EPS = 2.0**-53  # unit roundoff of a double
_MAX_SOLVE_STEPS = 200
# charts whose values and slopes sum past this are rescaled first, so that
# sums of a few of them, and second derivatives (at most n times a slope),
# stay finite; ordinary flows come nowhere near it
_SCALE_LIMIT = 2.0**1000


class Project(record("Project", "name cashflows")):
    """Named cash-flow series; cashflows[t] lands at the end of period t."""

    __slots__ = ()

    def __new__(cls, name: str, cashflows) -> Project:
        # a tuple of floats is kept as given, anything else converted once
        if type(cashflows) is tuple and {*map(type, cashflows)} == {float}:
            flows = cashflows
        else:
            try:
                flows = tuple(map(float, cashflows))
            except OverflowError:  # an integer beyond the double range
                raise ValueError("cash flows must be finite") from None
        if len(flows) < 2:
            raise ValueError("a project needs at least two cash flows")
        if not all(map(math.isfinite, flows)):
            raise ValueError("cash flows must be finite")
        return tuple.__new__(cls, (name, flows))

    @property
    def gross(self) -> float:
        """Sum of absolute cash flows; the scale for NPV residual checks."""
        return math.fsum(abs(c) for c in self.cashflows)


class IrrResult(record("IrrResult", "roots classification search_bounds")):
    """Every discount rate in search_bounds that zeroes the project's NPV.

    roots is a tuple of rates, classification is 'unique', 'multiple' or
    'none', and search_bounds is the (lo, hi) pair searched.
    """

    __slots__ = ()


class ComparisonReport(
    record(
        "ComparisonReport",
        [
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
        ],
        defaults=(False,),
    )
):
    """Outcome of a pairwise choice via the difference project.

    difference_project is oriented with the later-paying project first so
    its NPV slopes downward; cutoff_rate is that project's unique IRR when
    one exists in bounds, else None. preferred_below names the better
    project for discount rates under the cutoff. orientation_valid is False
    when neither subtraction order has a guaranteed-decreasing NPV, and
    degenerate marks identical inputs. first_irr, second_irr and
    difference_irr are the IRR searches behind the report, all in the same
    bounds; difference_irr is None for identical inputs, whose difference
    has no nonzero flow.
    """

    __slots__ = ()


def npv(project: Project, rate: float) -> float:
    """Net present value at the given rate: sum of C_t w^t with w = 1/(1+r),
    by Horner's rule; a non-finite total raises OverflowError."""
    rate = _check_real(rate, "rate", _RATE)
    total = _horner(project.cashflows[::-1], 1.0 / (1.0 + rate))[0]
    if not math.isfinite(total):
        raise OverflowError("npv: result is out of floating-point range")
    return total


def _horner(coeffs, x: float) -> tuple[float, float]:
    # p(x) and p'(x); coeffs run from the highest power down
    p = dp = 0.0
    for c in coeffs:
        dp = dp * x + p
        p = p * x + c
    return p, dp


def _straddles_zero(fa: float, fb: float) -> bool:
    return min(fa, fb) <= 0.0 <= max(fa, fb)


def _floor(fa: float, fb: float, slope_lo: float, slope_hi: float, width: float) -> float:
    """A lower bound on |p| over a node whose ends fa, fb share a sign,
    given that p' lies in [slope_lo, slope_hi] there (slope_lo <= 0 <=
    slope_hi): the lowest point of the lines bounding p from either end."""
    if fa < 0.0:
        fa, fb, slope_lo, slope_hi = -fa, -fb, -slope_hi, -slope_lo
    if slope_hi == slope_lo:
        return min(fa, fb)
    t = min(max((fa - fb + slope_hi * width) / (slope_hi - slope_lo), 0.0), width)
    return fa + slope_lo * t


def _solve(coeffs, a: float, b: float, fa: float, fb: float) -> float:
    """The root of a polynomial in [a, b], given values of opposite sign there.

    Newton steps, falling back to halving the bracket whenever a step would
    leave it or shrinks too slowly; ends when the bracket has no float left
    between its ends or a step no longer moves x.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa > 0.0:
        a, b = b, a  # from here on p(a) < 0 < p(b); a may lie above b
    x = 0.5 * (a + b)
    prev_step = abs(b - a)
    for _ in range(_MAX_SOLVE_STEPS):
        f, df = _horner(coeffs, x)
        if f == 0.0:
            return x
        if f < 0.0:
            a = x
        else:
            b = x
        step = f / df if df != 0.0 else math.inf
        nxt = x - step
        if nxt == x:
            return x
        if not (min(a, b) < nxt < max(a, b)) or abs(step) > 0.5 * prev_step:
            nxt = 0.5 * (a + b)
            if nxt in (a, b):
                return x
        prev_step = abs(nxt - x)
        x = nxt
    return x


def _chart_roots(coeffs, x_lo: float, x_hi: float, to_rate, unique: bool) -> list[float]:
    """Roots of the polynomial with these coefficients (highest power first)
    for x in [x_lo, x_hi], inside (0, 1]; to_rate maps x back to a rate."""
    pos = [c if c > 0.0 else 0.0 for c in coeffs]
    neg = [-c if c < 0.0 else 0.0 for c in coeffs]
    # Horner's rounding error on a sum of nonnegative terms, with a factor 2
    # to spare: the computed p is within tol * (p+ + p-) of the true value
    tol = 4.0 * len(coeffs) * _EPS

    def point(x: float) -> tuple[float, float, float, float, float]:
        vp, dp = _horner(pos, x)
        vm, dm = _horner(neg, x)
        return x, vp, vm, dp, dm

    lo_pt, hi_pt = point(x_lo), point(x_hi)
    _, vp, vm, dp, dm = hi_pt
    if vp + vm + dp + dm > _SCALE_LIMIT:
        # p+, p- and their slopes increase on (0, 1], so their values at x_hi
        # bound every node's; a power-of-two scale moves no root and rounds
        # nothing unless a coefficient becomes subnormal
        shift = -math.frexp(max(map(abs, coeffs)))[1]
        return _chart_roots([math.ldexp(c, shift) for c in coeffs], x_lo, x_hi, to_rate, unique)
    # an end where p is zero within rounding error is a root: the search
    # bound, or r = 0 where the two charts meet
    roots = [to_rate(x) for x, vp, vm, _, _ in (lo_pt, hi_pt) if abs(vp - vm) <= tol * (vp + vm)]
    stack = [(lo_pt, hi_pt)]
    while stack:
        (xa, pa, ma, dpa, dma), (xb, pb, mb, dpb, dmb) = node = stack.pop()
        fa, fb = pa - ma, pb - mb
        crossing = _straddles_zero(fa, fb)
        if not unique:
            # p+ and p- both increase on x > 0, so p over [xa, xb] lies in
            # [p+(xa) - p-(xb), p+(xb) - p-(xa)], and likewise its slope p'
            margin = tol * (pb + mb)
            if pa - mb > margin or pb - ma < -margin:
                continue  # no root
            d_margin = tol * (dpb + dmb)
            slope_lo, slope_hi = dpa - dmb - d_margin, dpb - dma + d_margin
            if slope_lo <= 0.0 <= slope_hi:  # p may turn inside the node
                # twice the margin: once for the end values, once for the floor's own rounding
                if not crossing and _floor(fa, fb, slope_lo, slope_hi, xb - xa) > 2.0 * margin:
                    continue  # no root
                if abs(to_rate(xa) - to_rate(xb)) >= ROOT_RESOLUTION:
                    mid = point(0.5 * (xa + xb))
                    stack.append((node[0], mid))
                    stack.append((mid, node[1]))
                    continue
                if not crossing:
                    # a stopped node: a tangent root if p at its extremum
                    # is zero within its own rounding error, and a close
                    # pair of crossings, reported once, if p there has the
                    # sign opposite to its ends
                    if _straddles_zero(dpa - dma, dpb - dmb):
                        n = len(coeffs) - 1
                        slope = [(n - k) * c for k, c in enumerate(coeffs[:-1])]
                        xe, vp, vm, _, _ = point(_solve(slope, xa, xb, dpa - dma, dpb - dmb))
                        if abs(vp - vm) <= tol * (vp + vm) or (vp > vm) != (fa > 0.0):
                            roots.append(to_rate(xe))
                    continue
        # here the node holds at most one root
        if crossing:
            roots.append(to_rate(_solve(coeffs, xa, xb, fa, fb)))
    return roots


def _sign_changes(flows) -> int:
    signs = [c > 0.0 for c in flows if c != 0.0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def irr_all(project: Project, bounds: tuple[float, float] = DEFAULT_IRR_BOUNDS) -> IrrResult:
    """Find every IRR in bounds, two finite rates above -1, by certified root isolation.

    NPV is a polynomial in w = 1/(1+r), searched on two charts with x in
    (0, 1]: x = w with coefficients C_t for r >= 0, and x = 1+r with the
    coefficients reversed for r < 0 (that polynomial is NPV * (1+r)^n, of
    the same sign as the NPV). No power of x exceeds 1, so nothing
    overflows near r = -1.

    Flows with at most one Descartes sign change have at most one IRR, so
    each chart needs only a bracketed solve. Otherwise each chart interval
    is bisected until every node is settled by enclosures of the NPV and
    its slope, built from the increasing positive and negative parts of the
    polynomial: no root, or a monotone stretch with at most one root.
    Nodes narrower than ROOT_RESOLUTION in rate stop there and report at
    most one root: a crossing when their ends differ in sign, else one at
    the slope's zero where the NPV is zero within its own rounding error
    (a tangent root) or of the sign opposite to the ends (two crossings).
    Roots closer than ROOT_RESOLUTION are reported once; a bound
    where the NPV is zero within rounding error counts as a root. An empty
    result is a valid outcome, classified 'none'.
    """
    if not any(c != 0.0 for c in project.cashflows):
        raise ValueError("project has no nonzero cash flows; IRR undefined")
    lo, hi = _check_real(bounds[0], "lower bound", _RATE), _check_real(bounds[1], "upper bound", _RATE)
    if not hi > lo:
        raise ValueError(f"bounds must be increasing, got {bounds!r}")
    flows = project.cashflows
    unique = _sign_changes(flows) <= 1

    found: list[float] = []
    if lo < 0.0:
        # x = 1+r: NPV * (1+r)^n = sum C_t x^(n-t), highest power first is C_0
        found += _chart_roots(flows, 1.0 + lo, 1.0 + min(hi, 0.0), lambda x: x - 1.0, unique)
    if hi > 0.0:
        # x = 1/(1+r): NPV = sum C_t x^t, highest power first is C_n
        found += _chart_roots(
            flows[::-1], 1.0 / (1.0 + hi), 1.0 / (1.0 + max(lo, 0.0)), lambda x: 1.0 / x - 1.0, unique
        )

    roots: list[float] = []
    for root in sorted(min(max(r, lo), hi) for r in found):
        if not roots or root - roots[-1] >= ROOT_RESOLUTION:
            roots.append(root)
    if not roots:
        classification = "none"
    elif len(roots) == 1:
        classification = "unique"
    else:
        classification = "multiple"
    return IrrResult(tuple(roots), classification, (lo, hi))


def negate(project: Project) -> Project:
    """Flip every cash flow; the lender's view of the borrower's project.

    Shares all IRRs with the original while every NPV changes sign, which
    is why r < IRR alone says nothing about profitability.
    """
    name = project.name[1:] if project.name.startswith("-") else f"-{project.name}"
    return Project(name, tuple(-c for c in project.cashflows))


def npv_slope_class(project: Project) -> str:
    """'decreasing' when the NPV curve is guaranteed to slope downward.

    That holds when the nonzero cash flows, in time order, are some
    negatives followed by some positives with exactly one sign change.
    Anything else returns 'not_guaranteed'.
    """
    first = next((c for c in project.cashflows if c != 0.0), 0.0)
    if first < 0.0 and _sign_changes(project.cashflows) == 1:
        return "decreasing"
    return "not_guaranteed"


def profitability_test(project: Project, rate: float) -> str:
    """Apply the r < IRR shortcut where it is actually valid.

    Returns 'profitable' or 'unprofitable' only when the NPV curve is
    guaranteed decreasing and exactly one IRR exists; otherwise
    'inapplicable' (judge by NPV directly). Rates within the root
    tolerance of the IRR count as not below it, so an NPV of zero reads
    as unprofitable.
    """
    rate = _check_real(rate, "rate", _RATE)
    if npv_slope_class(project) != "decreasing":
        return "inapplicable"
    result = irr_all(project)
    if result.classification != "unique":
        return "inapplicable"
    return "profitable" if rate < result.roots[0] - ROOT_TOL else "unprofitable"


def _padded(p: Project, length: int) -> tuple[float, ...]:
    return p.cashflows + (0.0,) * (length - len(p.cashflows))


def compare_pairwise(
    p1: Project, p2: Project, bounds: tuple[float, float] = DEFAULT_IRR_BOUNDS
) -> ComparisonReport:
    """Choose between two projects via the IRR of their difference.

    Both subtraction orders are formed (shorter project zero-padded); the
    one with a guaranteed-decreasing NPV is kept, putting the later-paying
    project first. Its unique IRR in bounds is the cutoff: the later payer
    is preferred at discount rates below it, the other project above it.
    Every IRR in the report is searched once, in bounds. A difference of
    two finite flows that overflows raises OverflowError.
    """
    length = max(len(p1.cashflows), len(p2.cashflows))
    diff12 = tuple(a - b for a, b in zip(_padded(p1, length), _padded(p2, length)))
    if not all(map(math.isfinite, diff12)):
        raise OverflowError("the difference of the two projects' cash flows is out of floating-point range")
    first_irr, second_irr = irr_all(p1, bounds), irr_all(p2, bounds)
    proj12 = Project(f"{p1.name}-{p2.name}", diff12)
    proj21 = Project(f"{p2.name}-{p1.name}", tuple(-c for c in diff12))
    if npv_slope_class(proj12) == "decreasing":
        difference, later, earlier = proj12, p1, p2
    elif npv_slope_class(proj21) == "decreasing":
        difference, later, earlier = proj21, p2, p1
    else:  # identical projects land here too, with an all-zero difference
        difference, later, earlier = proj12, None, None
    degenerate = all(c == 0.0 for c in diff12)
    result = None if degenerate else irr_all(difference, bounds)
    if later is not None and result.classification == "unique":
        cutoff, below, above = result.roots[0], later.name, earlier.name
    else:
        cutoff, below, above = None, None, None
    return ComparisonReport(
        first=p1,
        second=p2,
        difference_project=difference,
        first_irr=first_irr,
        second_irr=second_irr,
        difference_irr=result,
        cutoff_rate=cutoff,
        preferred_below=below,
        preferred_above=above,
        orientation_valid=later is not None,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# ingestion and report emission


def project_from_dict(data: dict, fallback_name: str = "project") -> Project:
    """Build a validated Project from {"name": ..., "cashflows": [...]}."""
    if not isinstance(data, dict):
        raise ValueError("project JSON must be an object with name and cashflows")
    name = data.get("name", fallback_name)
    if not isinstance(name, str) or not name:
        raise ValueError("project name must be a non-empty string")
    flows = data.get("cashflows")
    if not isinstance(flows, list) or len(flows) < 2:
        raise ValueError("cashflows must be a list of at least two numbers")
    if not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in flows):
        raise ValueError("cashflows must all be numbers")
    project = Project(name, flows)
    if not any(c != 0.0 for c in project.cashflows):
        raise ValueError("cashflows must include a nonzero entry")
    return project


def analysis_to_dict(
    project: Project, result: IrrResult, npv_rates: tuple[float, ...] = ()
) -> dict:
    """Raw-double analysis record for one project."""
    return {
        "schema": 1,
        "name": project.name,
        "cashflows": list(project.cashflows),
        "irr": {
            "roots": list(result.roots),
            "classification": result.classification,
            "search_bounds": list(result.search_bounds),
        },
        "npv": {_rate_text(r): npv(project, r) for r in _rates(npv_rates)},
    }


def _rates(npv_rates) -> list[float]:
    """The rates as npv reads them, checked once, so that labels format floats."""
    return [_check_real(r, "rate", _RATE) for r in npv_rates]


def _rate_text(rate: float) -> str:
    """The rate as f"{rate:g}" when that reads back as rate, else as its repr."""
    text = f"{rate:g}"
    return text if float(text) == rate else repr(rate)


def _project_rows(entries, npv_rates, csv: bool) -> list[list[str]]:
    """A header row, then for each (project, IrrResult) its name, its flows
    zero-padded to the longest project, its IRR cells and its NPV at each
    rate. Table cells show the IRRs as percentages, or "none"; CSV cells
    join them in percent by ';' and add the classification. Every NPV is
    computed before any cell is formatted."""
    npv_rates = _rates(npv_rates)
    npvs = [[npv(project, r) for r in npv_rates] for project, _ in entries]
    periods = range(max(len(p.cashflows) for p, _ in entries))
    if csv:
        header = ["project", *(f"c{t}" for t in periods), "irr", "classification"]
        rows = [header + [f"npv@{_rate_text(r)}" for r in npv_rates]]
    else:
        rows = [["Project", *(f"C{t}" for t in periods), "IRR", *(f"NPV @ {format_percent(r)}" for r in npv_rates)]]
    for (project, result), values in zip(entries, npvs):
        if csv:
            irr = [";".join(format_fixed(r * 100.0, 2) for r in result.roots), result.classification]
        else:
            irr = [", ".join(map(format_percent, result.roots)) or "none"]
        flows = (format_fixed(c, 2) for c in _padded(project, len(periods)))
        rows.append([project.name, *flows, *irr, *(format_fixed(value, 2) for value in values)])
    return rows


def analysis_table(
    project: Project, result: IrrResult, npv_rates: tuple[float, ...] = ()
) -> str:
    """Aligned one-project table with IRR and requested NPV columns."""
    rows = _project_rows([(project, result)], npv_rates, csv=False)
    return _report_text(rows, [f"classification: {result.classification}"])


def analysis_csv(
    project: Project, result: IrrResult, npv_rates: tuple[float, ...] = ()
) -> str:
    """One-project CSV: IRRs in percent joined by ';', then the classification."""
    return _report_text(_project_rows([(project, result)], npv_rates, csv=True), csv=True)


def _comparison_entries(report: ComparisonReport) -> list[tuple[Project, IrrResult]]:
    entries = [(report.first, report.first_irr), (report.second, report.second_irr)]
    if report.difference_irr is not None:
        entries.append((report.difference_project, report.difference_irr))
    return entries


def comparison_to_dict(
    report: ComparisonReport, npv_rates: tuple[float, ...] = ()
) -> dict:
    """Raw-double comparison record including both projects and the difference."""
    records = [analysis_to_dict(p, result, npv_rates) for p, result in _comparison_entries(report)]
    if report.difference_irr is None:
        difference = report.difference_project
        records.append(
            {"schema": 1, "name": difference.name, "cashflows": list(difference.cashflows), "irr": None, "npv": {}}
        )
    return {
        "schema": 1,
        "projects": records[:2],
        "difference": records[2],
        "cutoff_rate": report.cutoff_rate,
        "preferred_below": report.preferred_below,
        "preferred_above": report.preferred_above,
        "orientation_valid": report.orientation_valid,
        "degenerate": report.degenerate,
    }


def comparison_table(
    report: ComparisonReport, npv_rates: tuple[float, ...] = (0.10, 0.12)
) -> str:
    """Aligned table of both projects plus the difference, then the verdict."""
    rows = _project_rows(_comparison_entries(report), npv_rates, csv=False)
    if report.degenerate:
        verdict = ["degenerate: projects are identical"]
    elif not report.orientation_valid:
        verdict = ["no orientation of the difference has a guaranteed-decreasing NPV; no cutoff"]
    elif report.cutoff_rate is None:
        verdict = ["difference project has no unique IRR in bounds; no cutoff"]
    else:
        verdict = [
            f"cutoff rate: {format_percent(report.cutoff_rate)}",
            f"preferred below cutoff: {report.preferred_below}",
            f"preferred above cutoff: {report.preferred_above}",
        ]
    return _report_text(rows, verdict)


def comparison_csv(
    report: ComparisonReport, npv_rates: tuple[float, ...] = (0.10, 0.12)
) -> str:
    """CSV of both projects plus the difference, then the verdict as name,value rows."""
    rows = _project_rows(_comparison_entries(report), npv_rates, csv=True)
    cutoff = "" if report.cutoff_rate is None else format_fixed(report.cutoff_rate * 100.0, 2)
    verdict = [
        f"cutoff_rate,{cutoff}",
        f"preferred_below,{report.preferred_below or ''}",
        f"preferred_above,{report.preferred_above or ''}",
        f"orientation_valid,{str(report.orientation_valid).lower()}",
    ]
    return _report_text(rows, verdict, csv=True)
