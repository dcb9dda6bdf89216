"""Argv fuzzer for the CLI error contract.

Random argv lists for every leaf subcommand, irr with one project or two
under --compare and amort general included, with their input files
written under tmp_path. Each argv runs in table, CSV and JSON format, and
every call must:
- exit 0, 1 or 2 without an uncaught exception, all three formats alike;
- exit 2 only when it reads an input file;
- print nothing on stdout when it fails, and one error line or a usage
  message on stderr;
- print no nan or inf token when it succeeds.
For tvm, caprate and value, the table and CSV cells must also be
format_fixed of the JSON values. Option values mix ordinary numbers with
edge cases (signed zero, 1e-300, 1e308, -1, nan, inf); schedules and
cash-flow lists stay short so every example runs in milliseconds.
"""

import json
import re
from collections import namedtuple

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from propval.cli import main
from propval.render import format_fixed

FORMATS = ("table", "csv", "json")
NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")

# an input file's text; the test writes it under tmp_path and passes the path
InputFile = namedtuple("InputFile", "text")

EDGES = [
    "0", "-0.0", "1e-300", "-1e-300", "1e-12", "0.5", "1", "-1", "-0.999", "2", "10", "1e6", "1e308", "-1e308",
    "nan", "inf",
]
NUMBER = st.one_of(
    st.sampled_from(EDGES),
    st.floats(-2.0, 2.0).map(repr),
    st.floats(-1e4, 1e4).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
# rates and loan-to-value fractions lean towards the ranges where calls succeed
RATE = st.one_of(NUMBER, st.floats(-0.5, 0.5).map(repr))
FRACTION = st.one_of(NUMBER, st.floats(0.0, 1.0).map(repr))
PERIODS = st.one_of(st.sampled_from([-1, 0, 1, 2, 12, 360]), st.integers(1, 100_000)).map(str)
HOLD = st.integers(-1, 40).map(str)  # holding years
ROWS = st.integers(-1, 40).map(str)  # schedule lengths
RATE_LIST = st.lists(RATE, max_size=3).map(",".join)
IRR_OPTIONS = {"npv-at": RATE_LIST, "bounds": RATE_LIST}

FLOW = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 100.0, 1e-300, 1e308, -1e308]),
    st.floats(-1e4, 1e4),
    st.floats(allow_nan=False, allow_infinity=False),
)
REDUCTIONS = st.one_of(
    st.lists(FLOW, min_size=1, max_size=40).map(json.dumps),
    st.lists(FLOW, min_size=1, max_size=40).map(lambda xs: json.dumps({"principal_reductions": xs})),
    st.sampled_from(["[]", "[1e400, 100]", "[100, NaN]", "[true, 1]", '{"rows": [1]}', "[100, }", ""]),
).map(InputFile)
PROJECT = st.one_of(
    st.lists(FLOW, min_size=2, max_size=8).map(lambda xs: json.dumps({"name": "P", "cashflows": xs})),
    st.sampled_from([
        '{"name": "P", "cashflows": [-1e400, 1, 1]}',
        '{"name": "P", "cashflows": [1]}',
        '{"name": "P", "cashflows": [0, 0]}',
        '{"name": "", "cashflows": [-1, 2]}',
        "[1, 2]",
        "{",
    ]),
).map(InputFile)


def _options(*required, **optional):
    """argv tail: each required (name, strategy) as --name=value, then each
    optional one or nothing."""
    parts = [st.tuples(*(s.map(f"--{name}={{}}".format) for name, s in required))]
    parts += [st.one_of(st.just(()), s.map(lambda v, name=name: (f"--{name}={v}",))) for name, s in optional.items()]
    return st.tuples(*parts).map(lambda groups: [arg for group in groups for arg in group])


def _leaf(head, tail, kind=None, precision=True):
    """(argv without --format, kind of the values printed) for one leaf;
    kind is 'rate' or 'money' where the output is named scalars. irr, which
    takes no --precision, passes precision=False."""
    places = st.integers(-1, 13).map(lambda p: [f"--precision={p}"]) if precision else st.nothing()
    return st.tuples(st.just(head), tail, st.one_of(st.just([]), places)).map(lambda t: (t[0] + t[1] + t[2], kind))


ELLWOOD = [("m", FRACTION), ("i", RATE), ("months", PERIODS), ("hold", HOLD), ("y", RATE)]
# one strategy per leaf subcommand
LEAVES = (
    *(
        _leaf(["tvm", fn], _options(("rate", RATE), ("n", PERIODS), k=st.integers(-1, 400)), "rate")
        for fn in ("compound", "reversion", "annuity", "amortize", "accumulate", "sff", "bal", "pp")
    ),
    _leaf(["amort", "level"], _options(("pv", NUMBER), ("i", RATE), ("n", ROWS))),
    _leaf(["amort", "general"], st.tuples(REDUCTIONS, _options(("i", RATE))).map(lambda t: ["--file", t[0]] + t[1])),
    _leaf(["amort", "sinking"], _options(("v", NUMBER), ("i", RATE), ("r", RATE), ("n", ROWS))),
    _leaf(["caprate", "band"], _options(("m", FRACTION), ("i", RATE), ("y", RATE)), "rate"),
    _leaf(["caprate", "band-rm"], _options(("m", FRACTION), ("rm", RATE), ("y", RATE)), "rate"),
    _leaf(["caprate", "mortgage-constant"], _options(("i", RATE), ("months", PERIODS)), "rate"),
    _leaf(["caprate", "adjusted"], _options(("i", RATE), ("n", PERIODS), ("delta0", NUMBER)), "rate"),
    _leaf(["caprate", "ellwood"], _options(*ELLWOOD, delta0=NUMBER), "rate"),
    _leaf(["caprate", "ellwood-j"], _options(*ELLWOOD, ("delta", NUMBER), delta0=NUMBER, jn=PERIODS), "rate"),
    _leaf(["caprate", "ring"], _options(("i", RATE), ("n", PERIODS)), "rate"),
    _leaf(["caprate", "annuity"], _options(("i", RATE), ("n", PERIODS)), "rate"),
    _leaf(["caprate", "hoskold"], _options(("i", RATE), ("is", RATE), ("n", PERIODS)), "rate"),
    _leaf(
        ["value", "recurrence"],
        _options(("m", NUMBER), ("b", NUMBER), ("c", NUMBER), ("i", RATE), ("n", PERIODS)),
        "money",
    ),
    _leaf(
        ["value", "offset"],
        _options(("d", NUMBER), ("h", NUMBER), ("m", NUMBER), ("b", NUMBER), ("c", NUMBER), ("i", RATE), ("n", PERIODS)),
        "money",
    ),
    _leaf(["value", "straight-line"], _options(("d", NUMBER), ("h", NUMBER), ("i", RATE), ("n", PERIODS)), "money"),
    _leaf(["value", "growth"], _options(("g", RATE), ("i", RATE), ("n", PERIODS)), "money"),
    _leaf(["value", "accumulation"], _options(("i", RATE), ("n", PERIODS)), "money"),
    _leaf(["value", "hoskold"], _options(("income", NUMBER), ("is", RATE), ("i", RATE), ("n", PERIODS)), "money"),
    _leaf(["irr"], st.tuples(PROJECT, _options(**IRR_OPTIONS)).map(lambda t: [t[0], *t[1]]), precision=False),
    _leaf(
        ["irr"],
        st.tuples(PROJECT, PROJECT, _options(**IRR_OPTIONS)).map(lambda t: [t[0], t[1], "--compare", *t[2]]),
        precision=False,
    ),
)

ELLWOOD_J_TINY_YIELD = [
    "caprate", "ellwood-j", "--m=1e-300", "--i=0", "--months=360", "--hold=1", "--y=1e-300", "--delta0=-1",
    "--delta=-0.999",
]

# the table header's percent of a rate above ~1.8e306 overflows a double;
# it once ended in decimal.InvalidOperation in table format only
HUGE_NPV_RATE = ["irr", InputFile('{"name": "P", "cashflows": [-1, 2]}'), "--npv-at=1e307"]


def _written(path, arg) -> str:
    """arg itself, or the path of the file its text was written to."""
    if not isinstance(arg, InputFile):
        return arg
    path.write_text(arg.text)
    return str(path)


def _places(argv, kind) -> int:
    given_places = [int(arg.split("=")[1]) for arg in argv if arg.startswith("--precision=")]
    return given_places[0] if given_places else {"money": 2, "rate": 4}[kind]


def _assert_cells_agree(outputs, places):
    payload = json.loads(outputs["json"])
    assert payload.pop("schema") == 1
    expected = {name: format_fixed(value, places) for name, value in payload.items()}
    assert dict(line.split(",") for line in outputs["csv"].splitlines()) == expected
    if len(expected) == 1:
        assert outputs["table"] == f"{next(iter(expected.values()))}\n"
    else:
        assert dict(line.split(" ") for line in outputs["table"].splitlines()) == expected


@settings(
    max_examples=15,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(cases=st.tuples(*LEAVES))
@example(cases=[(ELLWOOD_J_TINY_YIELD, "rate")])
@example(cases=[(HUGE_NPV_RATE, None)])
def test_every_leaf_keeps_the_error_contract(tmp_path, capsys, cases):
    # each example runs one argv per leaf, so every leaf is fuzzed every run
    for argv, kind in cases:
        reads_file = any(isinstance(arg, InputFile) for arg in argv)
        argv = [_written(tmp_path / f"input{k}.json", arg) for k, arg in enumerate(argv)]
        codes, outputs = set(), {}
        for fmt in FORMATS:
            code = main([*argv, "--format", fmt])
            out, err = capsys.readouterr()
            codes.add(code)
            outputs[fmt] = out
            assert code in (0, 1, 2)
            if code == 0:
                assert not NON_FINITE.search(out), (argv, out)
            else:
                assert out == "", argv
                assert err.startswith(("propval: error: ", "usage: ")) and err.endswith("\n"), (argv, err)
                assert code == 1 or reads_file, argv
        assert len(codes) == 1, (argv, codes)
        if codes == {0} and kind is not None:
            _assert_cells_agree(outputs, _places(argv, kind))
