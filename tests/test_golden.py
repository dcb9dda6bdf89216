"""Golden outputs: the exact stdout and exit code of every subcommand.

Each case runs in table, csv and json format and is compared byte for
byte with tests/golden/<case>.<format>.txt, whose first line holds the
exit code. The --help text of every parser and a set of usage errors are
pinned the same way in tests/golden/<case>.txt, with stderr after a
"--- stderr" line, at a help width of 80 columns. To rewrite the files
after an intended output change, run this file as a script:
PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
from pathlib import Path
from unittest import mock

import pytest

from propval.cli import _TREE, main
from test_cli_fuzz import LEAVES

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("table", "csv", "json")
A, B, D = (str(GOLDEN / f"{name}.json") for name in "ABD")

CASES = {
    **{f"tvm-{fn}": ["tvm", fn, "--rate", "0.10", "--n", "5"]
       for fn in ("compound", "reversion", "annuity", "amortize", "accumulate", "sff")},
    "tvm-bal": ["tvm", "bal", "--rate", "0.01", "--n", "360", "--k", "120"],
    "tvm-pp": ["tvm", "pp", "--rate", "0.01", "--n", "360", "--k", "120"],
    "amort-level": ["amort", "level", "--pv", "1000", "--i", "0.10", "--n", "5"],
    "amort-general": ["amort", "general", "--file", str(GOLDEN / "reductions.json"), "--i", "0.10"],
    "amort-sinking": ["amort", "sinking", "--v", "1000", "--i", "0.10", "--r", "0.05", "--n", "5"],
    "caprate-band": ["caprate", "band", "--m", "0.7", "--i", "0.08", "--y", "0.12"],
    "caprate-band-rm": ["caprate", "band-rm", "--m", "0.7", "--rm", "0.1007", "--y", "0.12"],
    "caprate-mortgage-constant": ["caprate", "mortgage-constant", "--i", "0.09", "--months", "300"],
    "caprate-adjusted": ["caprate", "adjusted", "--i", "0.12", "--n", "10", "--delta0", "-0.2"],
    "caprate-ring": ["caprate", "ring", "--i", "0.10", "--n", "10"],
    "caprate-hoskold": ["caprate", "hoskold", "--i", "0.10", "--is", "0.03", "--n", "10"],
    "caprate-annuity": ["caprate", "annuity", "--i", "0.10", "--n", "10"],
    "caprate-ellwood": [
        "caprate", "ellwood", "--m", "0.7", "--i", "0.09", "--months", "300",
        "--hold", "10", "--y", "0.14", "--delta0", "0.1",
    ],
    "caprate-ellwood-j": [
        "caprate", "ellwood-j", "--m", "0.7", "--i", "0.09", "--months", "300",
        "--hold", "10", "--y", "0.14", "--delta0", "0.1", "--delta", "0.2",
    ],
    "value-recurrence": ["value", "recurrence", "--m", "1.05", "--b", "2", "--c", "100", "--i", "0.10", "--n", "10"],
    "value-offset": [
        "value", "offset", "--d", "100", "--h", "1", "--m", "1.1", "--b", "0", "--c", "1", "--i", "0.10", "--n", "5",
    ],
    "value-accumulation": ["value", "accumulation", "--i", "0.10", "--n", "10"],
    "value-hoskold": ["value", "hoskold", "--income", "1000", "--is", "0.03", "--i", "0.10", "--n", "10"],
    "value-growth": ["value", "growth", "--g", "0.05", "--i", "0.10", "--n", "10"],
    "value-straight-line": ["value", "straight-line", "--d", "100", "--h", "10", "--i", "0.10", "--n", "4"],
    "irr-single": ["irr", A, "--npv-at", "0.10,0.12"],
    "irr-multiple": ["irr", D],
    "irr-compare": ["irr", A, B, "--compare"],
    "irr-compare-degenerate": ["irr", A, A, "--compare"],
}

HELP_CASES = {
    "help": [],
    "help-tvm": ["tvm"],
    "help-amort": ["amort"],
    **{f"help-amort-{kind}": ["amort", kind] for kind in ("level", "general", "sinking")},
    "help-caprate": ["caprate"],
    **{
        f"help-caprate-{method}": ["caprate", method]
        for method in (
            "band", "band-rm", "mortgage-constant", "adjusted", "ellwood", "ellwood-j", "ring", "hoskold", "annuity"
        )
    },
    "help-value": ["value"],
    **{
        f"help-value-{form}": ["value", form]
        for form in ("recurrence", "offset", "straight-line", "growth", "accumulation", "hoskold")
    },
    "help-irr": ["irr"],
}
USAGE_CASES = {
    "usage-no-command": [],
    "usage-unknown-command": ["bogus"],
    "usage-no-kind": ["amort"],
    "usage-unknown-method": ["caprate", "bogus"],
    "usage-missing-option": ["tvm", "annuity", "--rate", "0.1"],
    "usage-non-finite": ["value", "growth", "--g", "nan", "--i", "0.1", "--n", "5"],
    "usage-ambiguous-option": [
        "caprate", "ellwood-j", "--m", "0.7", "--i", "0.09", "--months", "300",
        "--hold", "10", "--y", "0.14", "--del", "0.2",
    ],
    "usage-unrecognized": ["tvm", "annuity", "--rate", "0.1", "--n", "5", "--bogus"],
    "usage-bad-list": ["irr", A, "--bounds", "0.1,x"],
}
PARSER_CASES = {**{case: argv + ["--help"] for case, argv in HELP_CASES.items()}, **USAGE_CASES}


def invoke(argv: list[str]) -> str:
    """Exit-code line plus stdout, and stderr if any, as stored in a golden file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.dict(os.environ, COLUMNS="80"):
        code = main(argv)
    text = f"exit {code}\n{out.getvalue()}"
    return text + f"--- stderr\n{err.getvalue()}" if err.getvalue() else text


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, fmt):
    expected = (GOLDEN / f"{case}.{fmt}.txt").read_text(encoding="utf-8")
    assert invoke(CASES[case] + ["--format", fmt]) == expected


@pytest.mark.parametrize("case", sorted(PARSER_CASES))
def test_help_and_usage(case):
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert invoke(PARSER_CASES[case]) == expected


def _tree_leaves():
    """(parser path, argv head) of every leaf of the CLI's command tree; each
    choice of a positional, such as tvm's function, is a leaf of its own."""
    for command, node in _TREE.items():
        for name, leaf in node.get("leaves", {None: node}).items():
            path = [command] if name is None else [command, name]
            positionals = [kwargs for flag, kwargs in leaf["options"] if not flag.startswith("-")]
            choices = [kwargs["choices"] for kwargs in positionals if "choices" in kwargs]
            for choice in choices[0] if choices else [None]:
                yield path, path if choice is None else path + [choice]


def test_every_leaf_has_goldens_and_a_fuzzer():
    fuzzed = [head for head, _ in LEAVES]
    leaves = list(_tree_leaves())
    assert len(leaves) >= 27  # the walk finds every leaf there is today
    for path, head in leaves:
        assert path in HELP_CASES.values(), f"no help golden for {path}"
        assert any(argv[: len(head)] == head for argv in CASES.values()), f"no output golden for {head}"
        assert head in fuzzed, f"no fuzzer strategy for {head}"


if __name__ == "__main__":
    for case, argv in sorted(CASES.items()):
        for fmt in FORMATS:
            (GOLDEN / f"{case}.{fmt}.txt").write_text(invoke(argv + ["--format", fmt]), encoding="utf-8")
    for case, argv in sorted(PARSER_CASES.items()):
        (GOLDEN / f"{case}.txt").write_text(invoke(argv), encoding="utf-8")
