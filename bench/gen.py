"""Seeded inputs for the benchmark workloads.

Pure Python on purpose: importing neither numpy nor the test suite keeps the
cost of ``import propval`` inside the measured set-up time. Every input is
plain data (tuples, floats, strings); ``worker.py`` turns it into library
objects. The same seed always gives the same inputs.

Each workload is a list of blocks. A block holds a fixed number of ops per
op class (``*_BLOCK`` below), shuffled by the seed, so every run executes the
same class mix in the same order and the latency percentiles land inside a
known class (see README.md).
"""

from __future__ import annotations

import random

BLOCKS = 24

# op class -> ops per block
IRR_BLOCK = {"short": 56, "multi": 8, "loan": 14, "comparison": 22}
APPRAISAL_BLOCK = {"schedule": 30, "sweep": 40, "export": 30}
# the known-defect probe set run after the timed phase of irr_portfolio
IRR_PROBE = {"close": 64, "tangent": 32}

SMALL_ROWS = (12, 18, 24, 30, 36)
LARGE_ROWS = (240, 300, 360, 420, 480)
FORMATS = ("csv", "json", "table")
# exports: four CSV or table renderings for each JSON one
EXPORT_FORMATS = ("csv", "table", "csv", "table", "json")
KINDS = ("level", "sinking", "general")


def _shuffled_block(rng: random.Random, counts: dict, make) -> list:
    classes = [cls for cls, n in counts.items() for _ in range(n)]
    rng.shuffle(classes)
    return [make(cls, i) for i, cls in enumerate(classes)]


def _poly_from_roots(rates, extra) -> list[float]:
    """Cash flows whose NPV, a polynomial in w = 1/(1+r), vanishes exactly at
    the given rates. Each ``extra`` b > 0 adds a factor (w + b), whose root
    at w = -b is no discount rate, so the rates are the only IRRs."""
    coeffs = [1.0]
    for root_w in [1.0 / (1.0 + r) for r in rates] + [-b for b in extra]:
        nxt = [0.0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k] -= root_w * c
            nxt[k + 1] += c
        coeffs = nxt
    scale = -1000.0 / coeffs[0]
    return [c * scale for c in coeffs]


def _conventional(rng: random.Random, n_flows: int, rate: float, lo=50.0, hi=600.0):
    """Outlay then positive inflows, outlay set so the NPV at ``rate`` is 0."""
    inflows = [round(rng.uniform(lo, hi), 2) for _ in range(n_flows - 1)]
    outlay = sum(c / (1.0 + rate) ** t for t, c in enumerate(inflows, start=1))
    return (-outlay, *inflows)


def irr_op(rng: random.Random, cls: str, name: str):
    """(class, payload, expected roots). Payload is one or two flow tuples."""
    if cls == "short":
        rate = rng.uniform(0.02, 0.45)
        return cls, ((name, _conventional(rng, rng.randint(4, 12), rate)),), (rate,)
    if cls == "multi":
        k = rng.choice((2, 3))
        while True:
            rates = sorted(rng.uniform(-0.3, 1.5) for _ in range(k))
            if all(b - a >= 0.08 for a, b in zip(rates, rates[1:])):
                break
        extra = [rng.uniform(0.5, 3.0) for _ in range(rng.randint(0, 2))]
        return cls, ((name, tuple(_poly_from_roots(rates, extra))),), tuple(rates)
    if cls == "loan":
        principal = round(rng.uniform(50_000, 900_000), 2)
        rate = rng.uniform(0.03, 0.12) / 12.0
        payment = principal * rate / (1.0 - (1.0 + rate) ** -360)
        return cls, ((name, (-principal,) + (payment,) * 360),), (rate,)
    if cls == "comparison":
        # b = a - d with d conventional, so the difference project is d and
        # its IRR, the cutoff rate, is known by construction
        n = rng.randint(4, 8)
        rate_a, rate_d = rng.uniform(0.05, 0.35), rng.uniform(0.02, 0.30)
        a = _conventional(rng, n, rate_a, 300.0, 900.0)
        d = _conventional(rng, n, rate_d, 20.0, 250.0)
        b = tuple(x - y for x, y in zip(a, d))
        return cls, (("A" + name, a), ("B" + name, b)), (rate_a, rate_d)
    if cls == "close":
        # two roots 2e-4..9e-4 apart: narrower than the 1e-3 scan step
        r1 = rng.uniform(0.03, 0.40)
        r2 = r1 + rng.uniform(2e-4, 9e-4)
        s = rng.uniform(100.0, 5000.0)
        a, b = 1.0 + r1, 1.0 + r2
        return cls, ((name, (-s, s * (a + b), -s * a * b)),), (r1, r2)
    if cls == "tangent":
        # a double root at a rate typed with few decimals, flows rounded the
        # way a user would type them; it may be reported once or missed
        r0 = rng.randint(2, 80) / 200.0
        s = rng.choice((1.0, 10.0, 100.0, 1000.0))
        a = 1.0 + r0
        return cls, ((name, (-s, round(2.0 * a * s, 6), -round(a * a * s, 6))),), (r0,)
    raise ValueError(cls)


def irr_portfolio(seed: int) -> list[list]:
    rng = random.Random(seed)
    return [
        _shuffled_block(rng, IRR_BLOCK, lambda cls, i, b=b: irr_op(rng, cls, f"{b}.{i}"))
        for b in range(BLOCKS)
    ]


def irr_probe(seed: int) -> list:
    rng = random.Random(seed ^ 0x5EED)
    return [irr_op(rng, cls, f"h{i}") for cls, n in IRR_PROBE.items() for i in range(n)]


def _property(rng: random.Random) -> dict:
    hold = rng.randint(5, 15)
    base_yield = rng.uniform(0.08, 0.16)
    return {
        "income": round(rng.uniform(50_000, 500_000), 2),
        "ltv": rng.uniform(0.5, 0.8),
        "note_rate": rng.uniform(0.04, 0.10),
        "months": rng.choice((240, 300, 360)),
        "hold": hold,
        "yields": tuple(base_yield + d for d in (-0.03, -0.02, -0.01, 0.0, 0.01, 0.02, 0.03)),
        "asset_changes": (-0.2, -0.1, 0.0, 0.1, 0.3),
        "income_change": rng.uniform(-0.1, 0.3),
        "safe_rate": rng.uniform(0.02, 0.05),
        "growth": rng.uniform(0.0, 0.04),
        "decline": round(rng.uniform(0.0, 0.03), 4),
    }


def _reductions(rng: random.Random, n: int, principal: float) -> tuple:
    """A paydown pattern; about a third start with negative amortization."""
    weights = [rng.uniform(0.5, 1.5) * (1.0 + k / n) for k in range(n)]
    if rng.random() < 1 / 3:
        for k in range(max(1, n // 10)):
            weights[k] = -rng.uniform(0.1, 0.5)
    total = sum(weights)
    return tuple(principal * w / total for w in weights)


def _schedule(rng: random.Random, rows: int, fmt: str, kind: str) -> dict:
    principal = round(rng.uniform(20_000, 2_000_000), 2)
    rate = rng.uniform(0.02, 0.12) / 12.0
    spec = {"kind": kind, "rows": rows, "format": fmt, "principal": principal, "rate": rate}
    if kind == "sinking":
        spec["recovery_rate"] = rate * rng.uniform(0.0, 1.0)
    elif kind == "general":
        spec["reductions"] = _reductions(rng, rows, principal)
    return spec


def appraisal_batch(seed: int) -> list[list]:
    rng = random.Random(seed)
    blocks = []
    turn = {"schedule": 0, "export": 0}

    def make(cls: str, _i: int):
        if cls == "sweep":
            return cls, _property(rng)
        # row counts, formats and kinds rotate on fixed cycles, so the class
        # mix is the same for every seed; the seed picks the amounts
        k = turn[cls]
        turn[cls] += 1
        if cls == "schedule":
            return cls, _schedule(rng, SMALL_ROWS[(k // 3) % 5], FORMATS[k % 3], KINDS[(k // 15) % 3])
        return cls, _schedule(rng, LARGE_ROWS[(k // 5) % 5], EXPORT_FORMATS[k % 5], KINDS[k % 3])

    for _ in range(BLOCKS):
        blocks.append(_shuffled_block(rng, APPRAISAL_BLOCK, make))
    return blocks


def cli_cold(seed: int) -> tuple[list, dict]:
    """One block of CLI calls covering all five subcommands in all three
    formats, plus the input files they read ({file name: JSON-able data})."""
    rng = random.Random(seed)
    r = lambda lo, hi, nd=4: round(rng.uniform(lo, hi), nd)  # noqa: E731
    files = {}
    ops = []
    for fmt, tvm_fn, kind, cap_method, value_form in (
        ("table", "annuity", "level", "ellwood", "recurrence"),
        ("csv", "amortize", "general", "band", "straight-line"),
        ("json", "sff", "sinking", "ellwood-j", "hoskold"),
    ):
        add = lambda cmd, argv: ops.append((cmd, argv + ["--format", fmt]))  # noqa: E731
        add("tvm", ["tvm", tvm_fn, "--rate", str(r(0.01, 0.15)), "--n", str(rng.randint(5, 40))])

        rows = rng.randint(12, 36)
        if kind == "level":
            argv = ["amort", "level", "--pv", str(r(10_000, 500_000, 2)),
                    "--i", str(r(0.002, 0.01, 5)), "--n", str(rows)]
        elif kind == "general":
            fname = f"reductions_{fmt}.json"
            files[fname] = {"principal_reductions": list(_reductions(rng, rows, r(10_000, 500_000, 2)))}
            argv = ["amort", "general", "--file", fname, "--i", str(r(0.002, 0.01, 5))]
        else:
            i = r(0.002, 0.01, 5)
            argv = ["amort", "sinking", "--v", str(r(10_000, 500_000, 2)), "--i", str(i),
                    "--r", str(round(i * rng.uniform(0, 1), 5)), "--n", str(rows)]
        add("amort", argv)

        hold = rng.randint(5, 15)
        if cap_method == "band":
            argv = ["caprate", "band", "--m", str(r(0.5, 0.8)), "--i", str(r(0.04, 0.10)), "--y", str(r(0.08, 0.16))]
        else:
            argv = ["caprate", cap_method, "--m", str(r(0.5, 0.8)), "--i", str(r(0.04, 0.10)),
                    "--months", str(rng.choice((240, 300, 360))), "--hold", str(hold),
                    "--y", str(r(0.08, 0.16)), "--delta0", str(r(-0.2, 0.3))]
            if cap_method == "ellwood-j":
                argv += ["--delta", str(r(-0.1, 0.3))]
        add("caprate", argv)

        if value_form == "recurrence":
            argv = ["value", "recurrence", "--m", str(r(1.0, 1.05)), "--b", str(r(0, 500, 2)),
                    "--c", str(r(1_000, 50_000, 2))]
        elif value_form == "straight-line":
            argv = ["value", "straight-line", "--d", str(r(10_000, 90_000, 2)), "--h", str(r(0, 800, 2))]
        else:
            argv = ["value", "hoskold", "--income", str(r(10_000, 90_000, 2)), "--is", str(r(0.02, 0.05))]
        add("value", argv + ["--i", str(r(0.06, 0.14)), "--n", str(rng.randint(5, 30))])

        # every irr call is a comparison (four IRR scans, about 16 ms more
        # than the other calls), so the slowest fifth of calls is one kind
        names = []
        for j, (name, flows) in enumerate(irr_op(rng, "comparison", f"P{fmt}")[1]):
            fname = f"project_{fmt}{j}.json"
            files[fname] = {"name": name, "cashflows": list(flows)}
            names.append(fname)
        add("irr", ["irr", *names, "--compare", "--npv-at", "0.1"])

    return ops, files
