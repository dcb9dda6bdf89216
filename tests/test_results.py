"""Results of the public math functions, pinned bit for bit.

For every case of tests/test_validation.py, CALLS seeded calls draw each
numeric argument of the case from inside the range its checker admits
(DRAW), and a case whose arguments hold a RecurrenceSpec draws its
multiplier too. Some draws land on the removable singularities of the
changing-income forms, with i, m - 1, m - 1 - i or g - i exactly 0 or
within 1e-12 of it: a quarter of the rates, half of the multipliers, and
a quarter of the growth rates of constant_ratio_annuity_value.
The outcome of each call must equal the entry in tests/results.json: a
float as float.hex, a list or record as the list of its encoded fields,
an exception as "TypeName: message", and an encoding longer than MAX_TEXT
characters as a hash of it.

The table pins raw doubles from this platform's libm (exp, log1p, expm1
and pow), as the JSON golden files do, so on another platform the last
bits of a result may differ.

To rewrite the table after an intended change, run this file as a script:
PYTHONPATH=src python tests/test_results.py

To compare this checkout's results with those of another revision, call by
call, run
PYTHONPATH=src python tests/test_results.py --against REV [--calls N]
It extracts REV's src with git archive into a temporary directory, leaving
the repository's .git untouched, and runs N seeded calls per case
(default 10,000) in one child process per tree. Both children import
this checkout's tests, so they draw the same arguments, and each imports
its own tree's src. It prints every call whose outcome differs (at most
MAX_SHOWN per case, then a count) and exits 1 if any does.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from itertools import groupby
from pathlib import Path

import pytest

from propval.recurrence import OffsetStreamSpec, RecurrenceSpec

from test_validation import CASES, _with

TABLE = Path(__file__).parent / "results.json"
CALLS = 30
MAX_TEXT = 400
# differing calls printed per case by --against
MAX_SHOWN = 20

# where each numeric argument is drawn, by name: inside _RATE (greater than
# -1) for rates, yields and growth, _NONNEGATIVE for safe and recovery
# rates, _POSITIVE for principals, _FRACTION for loan-to-value, _CHANGE for
# a change in resale value, and _FINITE for every other amount
DRAW = {
    "rate": (-0.5, 1.0),
    "growth": (-0.5, 1.0),
    "equity_yield": (-0.5, 1.0),
    "annual_rate": (-0.5, 1.0),
    "debt_rate": (-0.5, 1.0),
    "npv_rates[0]": (-0.5, 1.0),
    "bounds[0]": (-0.9, 0.2),
    "bounds[1]": (0.2, 2.0),
    "safe_rate": (0.0, 0.5),
    "recovery_rate": (0.0, 0.5),
    "principal": (1e-3, 1e6),
    "loan_to_value": (0.0, 1.0),
    "asset_change": (-1.0, 2.0),
    "income_change": (-1.0, 2.0),
    "multiplier": (-2.0, 3.0),
}
FINITE = (-1e3, 1e3)
# the same names under a narrower checker in one case
DRAW_IN_CASE = {("perpetuity_value", "rate"): (1e-3, 1.0), ("format_percent", "rate"): FINITE}
RATE_LIKE = {"rate", "growth", "equity_yield", "annual_rate"}


def _near_zero(rng: random.Random) -> float:
    """Exactly 0, or a magnitude in [1e-15, 1e-12] of either sign."""
    if rng.random() < 0.25:
        return 0.0
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-15.0, -12.0)


def _real(rng: random.Random, case: str, argument: str) -> float:
    if argument in RATE_LIKE and rng.random() < 0.25:
        return _near_zero(rng)
    return rng.uniform(*DRAW_IN_CASE.get((case, argument), DRAW.get(argument, FINITE)))


def _count(rng: random.Random, argument: str, valid: int) -> int:
    if argument == "places":
        return rng.randint(0, 12)
    return rng.randint(0 if argument == "k" else 1, 2 * valid)


def _spec(rng: random.Random, rate: float | None) -> RecurrenceSpec:
    """A generator whose multiplier is m, or 1 or 1 + rate within 1e-12."""
    draw = rng.random()
    if draw < 0.25:
        multiplier = 1.0 + _near_zero(rng)
    elif draw < 0.5 and rate is not None:
        multiplier = 1.0 + rate + _near_zero(rng)
    else:
        multiplier = rng.uniform(*DRAW["multiplier"])
    return RecurrenceSpec(multiplier, rng.uniform(*FINITE), rng.uniform(*FINITE))


def draw_call(case: str, rng: random.Random) -> tuple[tuple, dict]:
    """Arguments for one call of case, and the drawn values by name."""
    _, args, arguments = CASES[case]
    drawn = {}
    for argument, (position, kind) in arguments.items():
        if kind == "n":
            valid = args[position]
            drawn[argument] = _count(rng, argument, int(valid))
        else:
            drawn[argument] = _real(rng, case, argument)
        args = _with(args, position, drawn[argument])
    rate = drawn.get("rate")
    if case == "constant_ratio_annuity_value" and rng.random() < 0.25:
        drawn["growth"] = rate + _near_zero(rng)
        args = _with(args, 0, drawn["growth"])
    for position, arg in enumerate(args):
        if isinstance(arg, RecurrenceSpec):
            args = _with(args, position, _spec(rng, rate))
            drawn["recurrence"] = args[position]
        elif isinstance(arg, OffsetStreamSpec):
            spec = _spec(rng, rate)
            args = _with(args, position, arg._replace(recurrence=spec))
            drawn["recurrence"] = spec
    return args, drawn


def encode(value):
    """JSON form of a result: floats as float.hex, records and lists as lists."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        return {key: encode(item) for key, item in value.items()}
    return value


def outcome(function, args):
    try:
        encoded = encode(function(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    text = json.dumps(encoded, sort_keys=True)
    if len(text) > MAX_TEXT:
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    return encoded


def outcomes(case: str, calls: int = CALLS) -> list:
    """[[drawn arguments, outcome], ...] for the first calls seeded calls of case."""
    rng = random.Random(f"results:{case}")
    function = CASES[case][0]
    rows = []
    for _ in range(calls):
        args, drawn = draw_call(case, rng)
        rows.append([", ".join(f"{name}={value!r}" for name, value in drawn.items()), outcome(function, args)])
    return rows


@pytest.mark.parametrize("case", sorted(CASES))
def test_results_match_the_table(case):
    assert outcomes(case) == json.loads(TABLE.read_text(encoding="utf-8"))[case]


def stream(calls: int) -> None:
    """Print one JSON line [case, drawn arguments, outcome] per seeded call."""
    for case in sorted(CASES):
        for drawn, result in outcomes(case, calls):
            print(json.dumps([case, drawn, result]))


def against(revision: str, calls: int) -> int:
    """Count the seeded calls whose outcome differs between revision and this checkout."""
    tests = Path(__file__).resolve().parent
    repo = tests.parent
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        archive = subprocess.run(["git", "-C", str(repo), "archive", revision, "src"], check=True, stdout=subprocess.PIPE)
        tarfile.open(fileobj=io.BytesIO(archive.stdout)).extractall(tree, filter="data")
        children = []
        try:
            for src in (tree / "src", repo / "src"):
                children.append(subprocess.Popen(
                    [sys.executable, "-c", f"import test_results; test_results.stream({calls})"],
                    cwd=tests,
                    env={**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{tests}"},
                    stdout=subprocess.PIPE,
                    text=True,
                ))
            differing = 0
            lines = ([json.loads(line) for line in pair] for pair in zip(*(child.stdout for child in children)))
            for case, pairs in groupby(lines, key=lambda pair: pair[0][0]):
                diffs = [(old[1], old[2], new[2]) for old, new in pairs if old != new]
                for drawn, old, new in diffs[:MAX_SHOWN]:
                    print(f"{case}({drawn}):\n  {revision}: {old}\n  this tree: {new}")
                if diffs:
                    print(f"{case}: {len(diffs)} of {calls} calls differ")
                differing += len(diffs)
            if any(child.wait() for child in children):
                raise SystemExit("a child process failed")
        finally:
            for child in children:
                child.kill()
                child.wait()
    print(f"{differing} differing calls in {calls} seeded calls per case, {len(CASES)} cases, against {revision}")
    return 1 if differing else 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Rewrite tests/results.json, or compare against a revision.")
    parser.add_argument("--against", metavar="REV", help="compare every seeded call with REV instead")
    parser.add_argument("--calls", type=int, default=10_000, metavar="N", help="seeded calls per case (default 10000)")
    options = parser.parse_args()
    if options.against:
        sys.exit(against(options.against, options.calls))
    text = json.dumps({case: outcomes(case) for case in CASES}, indent=1, sort_keys=True)
    TABLE.write_text(text + "\n", encoding="utf-8")
