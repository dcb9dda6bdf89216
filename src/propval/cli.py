"""Command-line front end. Thin dispatch only; all math lives in the library.

_TREE describes each leaf subcommand once: its help line, its options in
help order, and the library call it makes. build_parser fills only the
parsers on a call's path from it, and _dispatch imports the one propval
module the chosen command uses, runs the leaf's call and renders the result.

Subcommands: tvm, amort, caprate, value, irr. Every subcommand accepts
--format {table,csv,json}, and all but irr --precision N.
Rates are decimal fractions (0.10, never 10). Exit codes: 0 success,
1 usage or parameter error (a non-finite number in argv, or a result out
of floating-point range, included), 2 unreadable or malformed input file
(a non-finite number in one included).

Output conventions: table format prints bare scalars (or name/value lines
when a result has a breakdown) and renders IRRs as percentages; csv prints
name,value rows or schedule rows; json carries raw doubles plus a
"schema": 1 marker. Each command's renderer prints through _emit, which
renders only the chosen format; a result out of range raises OverflowError
before that.
"""

from __future__ import annotations

import argparse
import math
import sys
from importlib import import_module

from .render import MAX_PLACES, format_fixed
from .timevalue import _check_periods

__all__ = ["main", "run", "build_parser"]


class InputFileError(Exception):
    """A named input file is missing, unreadable, or malformed."""


def _finite(text: str) -> float:
    """argparse type for every float option: nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _finite_list(text: str) -> tuple[float, ...]:
    """argparse type for a comma-separated list of finite numbers."""
    return tuple(_finite(part) for part in text.split(",") if part.strip() != "")


class _Parser(argparse.ArgumentParser):
    """Usage problems exit 1, not argparse's default 2.

    A subcommand's parser is registered with its name and help only; the
    first time argparse selects it, fill(parser) adds its arguments or its
    own subcommands. A call so builds just the parsers on its path, and
    every help and usage text reads as if the whole tree were built.
    """

    fill = None

    def parse_known_args(self, args=None, namespace=None):
        if self.fill is not None:
            fill, self.fill = self.fill, None
            fill(self)
        return super().parse_known_args(args, namespace)

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _places_from(args: argparse.Namespace) -> dict[str, int]:
    """Display decimals by value kind: 2 for money and 4 for rates, or --precision for both."""
    if getattr(args, "precision", None) is None:  # irr takes no --precision
        return {"money": 2, "rate": 4}
    places = _check_periods(args.precision, "--precision", 0, MAX_PLACES)
    return {"money": places, "rate": places}


def _emit(output_format: str, table, csv, json) -> int:
    """Print the text that the chosen format's renderer returns."""
    sys.stdout.write({"table": table, "csv": csv, "json": json}[output_format]())
    return 0


def _dumps(payload) -> str:
    import json

    return json.dumps(payload) + "\n"


def _scalars(kind: str, key: str):
    """Renderer of a value named key, or of a dict of named values, shown with
    the places of kind ('money' or 'rate'); a table prints a lone value bare.
    A value out of floating-point range raises OverflowError."""

    def render(module, result, output_format: str, places: dict[str, int]) -> int:
        values = result if isinstance(result, dict) else {key: result}
        if not all(map(math.isfinite, values.values())):
            raise OverflowError("a result is not a finite number")
        digits = places[kind]

        def lines(separator: str) -> str:
            return "".join(f"{name}{separator}{format_fixed(value, digits)}\n" for name, value in values.items())

        def table() -> str:
            return lines(" ") if len(values) > 1 else format_fixed(*values.values(), digits) + "\n"

        return _emit(output_format, table, lambda: lines(","), lambda: _dumps({"schema": 1, **values}))

    return render


def _schedule(amortization, schedule, output_format: str, places: dict[str, int]) -> int:
    """Print a schedule and its main-theorem residual, always a finite float."""
    residual = amortization.verify_main_theorem(schedule)
    return _emit(
        output_format,
        lambda: amortization.schedule_to_table(schedule, places["money"]) + f"main theorem residual: {residual:.6e}\n",
        lambda: amortization.schedule_to_csv(schedule) + f"# main_theorem_residual={residual:.6e}\n",
        lambda: amortization.schedule_to_json(schedule)[:-1] + ', "main_theorem_residual": %r}\n' % residual,
    )


def _report(projects, result, output_format: str, places: dict[str, int]) -> int:
    """Print an irr report through its (table, csv, to_dict) renderers."""
    report, (table, csv, to_dict) = result
    return _emit(output_format, lambda: table(*report), lambda: csv(*report), lambda: _dumps(to_dict(*report)))


def _load(path: str, convert):
    """convert(data) of the JSON file at path. A file that cannot be read or
    decoded, or whose data convert refuses with ValueError, raises InputFileError."""
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputFileError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return convert(data)
    except ValueError as exc:
        raise InputFileError(f"{path}: {exc}") from exc


def _reductions(data) -> list[float]:
    """amort general's principal reductions: a nonempty array of finite
    numbers, bare or under "principal_reductions"."""
    if isinstance(data, dict):
        data = data.get("principal_reductions")
    if not isinstance(data, list) or not data:
        raise ValueError('expected a JSON array of principal reductions (or {"principal_reductions": [...]})')
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in data):
        raise ValueError("principal reductions must all be numbers")
    try:
        reductions = [float(x) for x in data]
    except OverflowError:  # an integer beyond the double range
        reductions = [math.inf]
    if not all(map(math.isfinite, reductions)):
        raise ValueError("principal reductions must be finite")
    return reductions


# ---------------------------------------------------------------------------
# the command tree

_TVM = {
    "compound": "compound_amount", "reversion": "pv_reversion", "annuity": "annuity_pv",
    "amortize": "installment_to_amortize", "accumulate": "accumulation", "sff": "sinking_fund_factor",
    "bal": "balance_fraction", "pp": "portion_paid",
}


def _tvm(timevalue, args: argparse.Namespace) -> float:
    op = getattr(timevalue, _TVM[args.function])
    if args.function not in ("bal", "pp"):
        return op(args.rate, args.n)
    if args.k is None:
        raise ValueError(f"tvm {args.function} requires --k")
    return op(args.k, args.n, args.rate)


def _ellwood(capitalization, args: argparse.Namespace, cap_rate, *horizon) -> dict[str, float]:
    """An Ellwood leaf's rate and breakdown; ellwood-j passes its J horizon."""
    terms = capitalization.MortgageTerms(args.m, args.i, args.months, args.hold)
    spec = capitalization.AppreciationSpec(args.delta0, getattr(args, "delta", 0.0))  # ellwood has no --delta
    result = cap_rate(terms, args.y, spec, *horizon)
    values = {
        "rate": result.rate,
        "c_factor": result.c_factor,
        "mortgage_constant": result.mortgage_constant,
        "portion_paid": result.portion_paid,
        "sff": result.equity_sff,
        "akerson_rate": result.akerson_rate,
    }
    if result.j_factor is not None:
        values["j_factor"] = result.j_factor
    return values


def _irr(projects, args: argparse.Namespace) -> tuple:
    """The report's arguments and its (table, csv, to_dict) renderers."""
    bounds = projects.DEFAULT_IRR_BOUNDS if args.bounds is None else args.bounds
    if len(bounds) != 2:
        raise ValueError("--bounds takes two comma-separated rates")
    if args.compare and len(args.files) != 2:
        raise ValueError("--compare needs exactly two project files")
    if not args.compare and len(args.files) != 1:
        raise ValueError("analyze one project file, or pass two with --compare")

    loaded = [_load(path, lambda data: projects.project_from_dict(data, fallback_name=path)) for path in args.files]
    if args.compare:
        report = (projects.compare_pairwise(*loaded, bounds), (0.10, 0.12) if args.npv_at is None else args.npv_at)
        return report, (projects.comparison_table, projects.comparison_csv, projects.comparison_to_dict)
    report = (loaded[0], projects.irr_all(loaded[0], bounds), args.npv_at or ())
    return report, (projects.analysis_table, projects.analysis_csv, projects.analysis_to_dict)


def _real(flag: str, help_text: str, **kwargs) -> tuple[str, dict]:
    """A float option, required unless given a default."""
    return flag, dict(type=_finite, required="default" not in kwargs, help=help_text, **kwargs)


def _count(flag: str, help_text: str, **kwargs) -> tuple[str, dict]:
    """An integer option, required unless given a default."""
    return flag, dict(type=int, required="default" not in kwargs, help=help_text, **kwargs)


_FORMAT = ("--format", dict(choices=("table", "csv", "json"), default="table", help="output format (default table)"))
_PRECISION = ("--precision", dict(
    type=int, metavar="N", help="display decimals for every value (defaults: 2 money, 4 rates)"))
_N = _count("--n", "number of periods")
_LTV, _YIELD = _real("--m", "loan-to-value fraction"), _real("--y", "equity yield rate")
_ELLWOOD = (
    _LTV, _real("--i", "annual note rate"), _count("--months", "amortization term in months"),
    _count("--hold", "holding period in years"), _YIELD,
    _real("--delta0", "relative value change over the hold", default=0.0),
)
_MBC = (_real("--m", "multiplier"), _real("--b", "increment"), _real("--c", "seed value y_0"))
_IS = _real("--is", "safe sinking fund rate", dest="is_rate")
_STREAM = (_real("--i", "discount rate per period"), _N)
_RECOVERY = (_real("--i", "discount rate"), _count("--n", "recovery horizon"))


def _leaf(help_text: str, call, *options) -> dict:
    """A leaf's help line, call(module, args), and its options after --format and --precision."""
    return {"help": help_text, "call": call, "options": (_FORMAT, _PRECISION, *options)}


def _command(help_text: str, module: str, render, dest: str, leaves: dict) -> dict:
    """A command with leaves; dest names the chosen leaf in args and in usage errors."""
    return {"help": help_text, "module": module, "render": render, "dest": dest, "leaves": leaves}


# Each command names its help, the propval module its calls take and the
# renderer of their results. tvm and irr hold their own call and options.
_TREE = {
    "tvm": {"module": "timevalue", "render": _scalars("rate", "factor"), **_leaf(
        "compound interest factor functions", _tvm, ("function", dict(choices=tuple(_TVM))),
        _real("--rate", "rate per period, decimal fraction"), _N,
        _count("--k", "elapsed payments (bal and pp only)", default=None))},
    "amort": _command("amortization schedules", "amortization", _schedule, "kind", {
        "level": _leaf(
            "equal payments", lambda m, a: m.level_schedule(a.pv, a.i, a.n),
            _real("--pv", "loan principal"), _real("--i", "rate per period"), _N),
        "general": _leaf(
            "given principal reductions", lambda m, a: m.generalized_schedule(_load(a.file, _reductions), a.i),
            ("--file", dict(required=True, help="JSON file with the principal reductions")),
            _real("--i", "rate per period")),
        "sinking": _leaf(
            "sinking-fund capital recovery", lambda m, a: m.sinking_fund_schedule(a.v, a.i, a.r, a.n),
            _real("--v", "capital to recover"), _real("--i", "discount rate per period"),
            _real("--r", "sinking fund rate per period"), _N),
    }),
    "caprate": _command("direct capitalization rates", "capitalization", _scalars("rate", "rate"), "method", {
        "band": _leaf(
            "band of investment, interest-only debt", lambda m, a: m.band_of_investment(a.m, a.i, a.y),
            _LTV, _real("--i", "mortgage interest rate"), _YIELD),
        "band-rm": _leaf(
            "band of investment, amortizing debt", lambda m, a: m.band_with_mortgage_constant(a.m, a.rm, a.y),
            _LTV, _real("--rm", "annual mortgage constant"), _YIELD),
        "mortgage-constant": _leaf(
            "annual debt service per unit loan", lambda m, a: m.mortgage_constant(a.i, a.months),
            _real("--i", "annual note rate"), _count("--months", "amortization term in months")),
        "adjusted": _leaf(
            "level income with value change", lambda m, a: m.adjusted_cap_rate(a.i, a.n, a.delta0),
            _real("--i", "discount rate"), _count("--n", "horizon in periods"),
            _real("--delta0", "relative value change")),
        "ellwood": _leaf(
            "mortgage-equity rate, constant income", lambda m, a: _ellwood(m, a, m.ellwood_cap_rate), *_ELLWOOD),
        "ellwood-j": _leaf(
            "mortgage-equity rate, changing income", lambda m, a: _ellwood(m, a, m.ellwood_j_cap_rate, a.jn),
            *_ELLWOOD, _real("--delta", "relative income change over the hold"),
            _count("--jn", "horizon for the J factor (default: holding years)", default=None)),
        "ring": _leaf("straight-line recovery rate", lambda m, a: m.recovery_cap_rate("ring", a.i, a.n), *_RECOVERY),
        "hoskold": _leaf(
            "safe-rate recovery rate", lambda m, a: m.recovery_cap_rate("hoskold", a.i, a.n, a.is_rate),
            _RECOVERY[0], _IS, _RECOVERY[1]),
        "annuity": _leaf(
            "full-rate recovery: 1/a(n,i)", lambda m, a: m.recovery_cap_rate("annuity", a.i, a.n), *_RECOVERY),
    }),
    "value": _command("present value of changing income streams", "recurrence", _scalars("money", "value"), "form", {
        "recurrence": _leaf(
            "stream y_k = m*y_(k-1) + b from seed c",
            lambda m, a: m.value_recurrence_stream(m.RecurrenceSpec(a.m, a.b, a.c), a.i, a.n), *_MBC, *_STREAM),
        "offset": _leaf(
            "stream d, d - y_1*h, d - y_2*h, ...",
            lambda m, a: m.value_offset_stream(
                m.OffsetStreamSpec(a.d, a.h, m.RecurrenceSpec(a.m, a.b, a.c)), a.i, a.n),
            _real("--d", "first-period income"), _real("--h", "decrement scale on the generated terms"),
            *_MBC, *_STREAM),
        "straight-line": _leaf(
            "stream d, d-h, d-2h, ...", lambda m, a: m.straight_line_annuity_value(a.d, a.h, a.i, a.n),
            _real("--d", "first-period income"), _real("--h", "constant decline per period (negative rises)"),
            *_STREAM),
        "growth": _leaf(
            "stream starting at 1 growing at ratio g", lambda m, a: m.constant_ratio_annuity_value(a.g, a.i, a.n),
            _real("--g", "growth rate per period"), *_STREAM),
        "accumulation": _leaf(
            "stream of accumulation factors s_1..s_n", lambda m, a: m.accumulation_stream_value(a.i, a.n), *_STREAM),
        "hoskold": _leaf(
            "safe-rate declining stream value", lambda m, a: m.hoskold_stream_value(a.income, a.i, a.is_rate, a.n),
            _real("--income", "first-year income"), _IS, *_STREAM),
    }),
    "irr": {"help": "NPV / IRR project analysis", "module": "projects", "render": _report, "call": _irr, "options": (
        _FORMAT,
        ("files", dict(nargs="+", help='project JSON file(s): {"name": ..., "cashflows": [...]}')),
        ("--compare", dict(action="store_true", help="pairwise comparison of two projects")),
        ("--npv-at", dict(type=_finite_list, metavar="R1,R2,...", help="rates at which to report NPV")),
        ("--bounds", dict(
            type=_finite_list, metavar="LO,HI",
            help="search interval for every IRR and the --compare cutoff (default -0.999,10)")),
    )},
}


def _fill(parser: argparse.ArgumentParser, node: dict) -> None:
    """Add a node's options, or register its leaves, each filled the first time argparse selects it."""
    if "leaves" not in node:
        for flag, kwargs in node["options"]:
            parser.add_argument(flag, **kwargs)
        return
    sub = parser.add_subparsers(dest=node["dest"], required=True, parser_class=_Parser)
    for name, child in node["leaves"].items():
        sub.add_parser(name, help=child["help"]).fill = lambda p, child=child: _fill(p, child)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="propval",
        description="Income-property valuation calculations.",
        allow_abbrev=False,
    )
    _fill(parser, {"dest": "command", "leaves": _TREE})
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    """Run the chosen leaf's call on its command's module and render the result."""
    command = _TREE[args.command]
    leaf = command["leaves"][getattr(args, command["dest"])] if "leaves" in command else command
    places = _places_from(args)  # a bad --precision is reported before any input file is read
    module = import_module(f"propval.{command['module']}")
    return command["render"](module, leaf["call"](module, args), args.format, places)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except InputFileError as exc:
        print(f"propval: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"propval: error: {exc}", file=sys.stderr)
        return 1
    except OverflowError:
        print("propval: error: a result is out of floating-point range", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
