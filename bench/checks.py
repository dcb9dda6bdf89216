"""Output checks, run between timed blocks, never inside the timed region.

Each check returns a list of failure messages (empty when the output is
right). The oracles here are independent of propval: plain float sums and
the documented rounding rule, so a defect in the library cannot hide in its
own checker.
"""

from __future__ import annotations

import json
import math
from decimal import ROUND_HALF_UP, Decimal

ROOT_TOL = 1e-6  # reported IRR vs constructed root
NPV_REL = 1e-6  # |NPV(root)| <= NPV_REL * sum(|flows|)
REL = 1e-9  # closed forms vs brute force
CENT = 0.005 + 1e-9  # one half of the display unit at 2 decimals
SCHEDULE_HEADER = ["period", "payment", "interest", "principal_reduction", "ending_balance"]


def fixed(value: float, places: int) -> str:
    """The documented display rule: fixed point, ties away from zero, no -0."""
    q = Decimal(repr(float(value))).quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP)
    return f"{abs(q) if q == 0 else q:f}"


def npv(flows, rate: float) -> float:
    w = 1.0 / (1.0 + rate)
    total = 0.0
    for c in reversed(flows):
        total = total * w + c
    return total


def close(a: float, b: float, rel: float = REL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel * 1e-3)


def roots(name: str, reported, flows, expected, tangent: bool = False) -> list[str]:
    """Reported IRRs equal the constructed ones and each zeroes the NPV.

    A tangent (double) root may be reported once or missed; reporting it
    twice fails."""
    errors = []
    gross = math.fsum(abs(c) for c in flows)
    for r in reported:
        if abs(npv(flows, r)) > NPV_REL * gross:
            errors.append(f"{name}: |NPV({r!r})| = {abs(npv(flows, r)):.3g} above {NPV_REL:g} x gross")
    got = sorted(reported)
    if tangent:
        ok = len(got) == 0 or (len(got) == 1 and abs(got[0] - expected[0]) <= ROOT_TOL)
    else:
        ok = len(got) == len(expected) and all(abs(a - b) <= ROOT_TOL for a, b in zip(got, expected))
    if not ok:
        errors.append(f"{name}: roots {got} != constructed {list(expected)}")
    return errors


def comparison(payload, expected, report, table: str, record: dict) -> list[str]:
    (name_a, flows_a), (name_b, flows_b) = payload
    rate_a, rate_d = expected
    flows_d = [a - b for a, b in zip(flows_a, flows_b)]
    errors = []
    if report.cutoff_rate is None or abs(report.cutoff_rate - rate_d) > ROOT_TOL:
        errors.append(f"{name_a}: cutoff {report.cutoff_rate!r} != constructed {rate_d!r}")
        return errors
    if (report.preferred_below, report.preferred_above) != (name_a, name_b):
        errors.append(f"{name_a}: preference {report.preferred_below}/{report.preferred_above}")
    if record["cutoff_rate"] != report.cutoff_rate:
        errors.append(f"{name_a}: JSON cutoff {record['cutoff_rate']!r} != {report.cutoff_rate!r}")
    first, second = record["projects"]
    errors += roots(name_a, first["irr"]["roots"], flows_a, [rate_a])
    errors += roots(name_a + "-" + name_b, record["difference"]["irr"]["roots"], flows_d, [rate_d])
    # the second project's roots are not constructed; they must still zero its NPV
    gross_b = math.fsum(abs(c) for c in flows_b)
    errors += [
        f"{name_b}: |NPV({r!r})| too large" for r in second["irr"]["roots"] if abs(npv(flows_b, r)) > NPV_REL * gross_b
    ]
    if f"cutoff rate: {fixed(report.cutoff_rate * 100.0, 2)}%" not in table.splitlines():
        errors.append(f"{name_a}: table cutoff line missing")
    row_a = next((line.split() for line in table.splitlines() if line.split()[:1] == [name_a]), [])
    if fixed(first["irr"]["roots"][0] * 100.0, 2) + "%" not in row_a:
        errors.append(f"{name_a}: table IRR cell disagrees with JSON")
    return errors


# ---------------------------------------------------------------------------
# appraisal_batch


def _annuity(rate: float, n: int) -> float:
    return math.fsum((1.0 + rate) ** -k for k in range(1, n + 1))


def _sff(rate: float, n: int) -> float:
    return 1.0 / math.fsum((1.0 + rate) ** k for k in range(n))


def sweep(prop: dict, points) -> list[str]:
    """Every sweep point against brute-force sums of its defining streams."""
    m, note, months, hold = prop["ltv"], prop["note_rate"], prop["months"], prop["hold"]
    income, safe, g, delta = prop["income"], prop["safe_rate"], prop["growth"], prop["income_change"]
    h = income * prop["decline"]
    r_m = 12.0 / _annuity(note / 12.0, months)
    paid = 1.0 - _annuity(note / 12.0, months - 12 * hold) / _annuity(note / 12.0, months)
    errors = []
    for y, change, e, ej, band, band_rm, ring, hoskold, value, v_growth, v_line, v_hosk, v_ratio in points:
        sff = _sff(y, hold)
        s_n = math.fsum((1.0 + y) ** k for k in range(hold))
        j = (hold / (1.0 - (1.0 + y) ** -hold) - 1.0 / y) / s_n
        rate = y - m * (y + paid * sff - r_m) - change * sff
        disc = [(1.0 + y) ** -k for k in range(1, hold + 1)]
        wanted = (
            ("ellwood", e.rate, rate),
            ("akerson", e.akerson_rate, e.rate),
            ("ellwood-j", ej.rate, rate / (1.0 + delta * j)),
            ("band", band, m * note + (1.0 - m) * y),
            ("band-rm", band_rm, m * r_m + (1.0 - m) * y),
            ("ring", ring, y + 1.0 / hold),
            ("hoskold", hoskold, y + _sff(safe, hold)),
            ("value", value, income / rate),
            ("growth stream", v_growth, math.fsum(income * (1.0 + g) ** k * d for k, d in enumerate(disc, 1))),
            ("straight line", v_line, math.fsum((income - k * h) * d for k, d in enumerate(disc))),
            ("hoskold stream", v_hosk, income / (y + _sff(safe, hold))),
            ("ratio annuity", v_ratio, math.fsum((1.0 + g) ** (k - 1) * d for k, d in enumerate(disc, 1))),
        )
        errors += [
            f"sweep y={y:.4f} change={change}: {name} {got!r} != {want!r}"
            for name, got, want in wanted
            if not close(got, want)
        ]
    return errors


def _numeric_rows(lines) -> list[list[float]]:
    return [[float(cell) for cell in line] for line in lines]


def schedule(spec: dict, sched, residual: float, text: str, stats: dict) -> list[str]:
    """Schedule identities, then the export read back against the rows."""
    rows = sched.rows
    principal = sched.principal
    errors = []
    if len(rows) != spec["rows"]:
        return [f"schedule: {len(rows)} rows, expected {spec['rows']}"]
    discounted = math.fsum(r.payment * (1.0 + sched.rate) ** -r.period for r in rows)
    rel = abs(discounted - math.fsum(r.principal_reduction for r in rows)) / principal
    stats["max_residual_rel"] = max(stats.get("max_residual_rel", 0.0), rel)
    stats["rows"] = stats.get("rows", 0) + len(rows)
    if rel > REL or residual > REL * principal:
        errors.append(f"schedule: main theorem residual {rel:.3g} (library {residual:.3g})")
    if abs(rows[-1].ending_balance) > REL * principal:
        errors.append(f"schedule: final balance {rows[-1].ending_balance!r}")
    if spec["kind"] == "level":
        rate, n = spec["rate"], spec["rows"]
        if not close(rows[0].payment, principal / _annuity(rate, n), 1e-8):
            errors.append("schedule: level payment disagrees with P / a(n, i)")
    fmt = spec["format"]
    values = [[r.period, r.payment, r.interest, r.principal_reduction, r.ending_balance] for r in rows]
    if fmt == "json":
        data = json.loads(text)
        got = [[d[k] for k in SCHEDULE_HEADER] for d in data["rows"]]
        if got != values or data["principal"] != principal or data["rate"] != sched.rate:
            errors.append("schedule: JSON round trip differs from the rows")
        return errors
    lines = text.splitlines()
    if fmt == "csv":
        header, body = lines[0].split(","), [line.split(",") for line in lines[1:]]
    else:
        header, body = lines[0].split(), [line.split() for line in lines[1:]]
    if header != SCHEDULE_HEADER:
        return errors + [f"schedule: {fmt} header {header}"]
    got = _numeric_rows(body)
    if len(got) != len(values) or any(
        g[0] != v[0] or any(abs(a - b) > CENT + 1e-12 * abs(b) for a, b in zip(g[1:], v[1:]))
        for g, v in zip(got, values)
    ):
        errors.append(f"schedule: {fmt} cells differ from the rows at display precision")
    return errors


# ---------------------------------------------------------------------------
# cli_cold: stdout against the value computed in-process, at display precision


def cli(cmd: str, fmt: str, stdout: str, expected, stats: dict) -> list[str]:
    lines = stdout.splitlines()
    if cmd in ("tvm", "caprate", "value"):
        key, value, places, ellwood = expected
        if fmt == "json":
            data = json.loads(stdout)
            ok = close(data[key], value, 1e-12)
            if ellwood:
                ok = ok and close(data["rate"], data["akerson_rate"])
        elif fmt == "csv":
            ok = f"{key},{fixed(value, places)}" in lines
        else:  # a bare value, or "name value" lines when there is a breakdown
            text = fixed(value, places)
            ok = stdout.strip() == text or f"{key} {text}" in lines
        return [] if ok else [f"cli {cmd} {fmt}: {stdout.strip()[:80]!r} != {key}={value!r}"]
    if cmd == "amort":
        spec, sched = expected
        if fmt == "json":
            data = json.loads(stdout)
            return schedule(spec, sched, data["main_theorem_residual"], stdout, stats)
        residual = float(lines[-1].replace("=", " ").replace(":", " ").split()[-1])
        return schedule(spec, sched, residual, "\n".join(lines[:-1]), stats)
    # irr --compare: the cutoff, the preference and the first project's IRR
    report, results = expected
    if fmt == "json":
        data = json.loads(stdout)
        got = [p["irr"]["roots"] for p in data["projects"]]
        ok = close(data["cutoff_rate"], report.cutoff_rate, 1e-12) and got == [list(r.roots) for r in results]
        ok = ok and data["preferred_below"] == report.preferred_below
    else:
        cutoff = fixed(report.cutoff_rate * 100.0, 2)
        root = fixed(results[0].roots[0] * 100.0, 2)
        name = report.first.name
        if fmt == "csv":
            row = next(line.split(",") for line in lines if line.startswith(name + ","))
            ok = f"cutoff_rate,{cutoff}" in lines and f"preferred_below,{report.preferred_below}" in lines
        else:
            row = next(line.split() for line in lines if line.split()[:1] == [name])
            ok = f"cutoff rate: {cutoff}%" in lines and f"preferred below cutoff: {report.preferred_below}" in lines
        ok = ok and row[len(report.first.cashflows) + 1].rstrip("%") == root
    return [] if ok else [f"cli irr {fmt}: output disagrees with cutoff {report.cutoff_rate!r}"]
