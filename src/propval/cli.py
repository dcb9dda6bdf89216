"""Command-line front end. Thin dispatch only; all math lives in the library.
Each handler imports the modules it uses, so a call loads only what its
subcommand needs.

Subcommands: tvm, amort, caprate, value, irr. Every subcommand accepts
--format {table,csv,json} and --precision N (irr ignores the latter).
Rates are decimal fractions (0.10, never 10). Exit codes: 0 success,
1 usage or parameter error (a non-finite number in argv, or a result out
of floating-point range, included), 2 unreadable or malformed input file.

Output conventions: table format prints bare scalars (or name/value lines
when a result has a breakdown) and renders IRRs as percentages; csv prints
name,value rows or schedule rows; json carries raw doubles plus a
"schema": 1 marker.
"""

from __future__ import annotations

import argparse
import math
import sys

from .render import format_fixed

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
    if args.precision is None:
        return {"money": 2, "rate": 4}
    if not 0 <= args.precision <= 12:
        raise ValueError(f"--precision must be in 0..12, got {args.precision}")
    return {"money": args.precision, "rate": args.precision}


def _print_json(payload: dict) -> None:
    import json

    print(json.dumps(payload))


def _emit_values(output_format: str, places: dict[str, int], items: list[tuple[str, float, str]]) -> None:
    """Print named scalars: bare in table format when there is only one."""
    if not all(math.isfinite(value) for _, value, _ in items):
        raise OverflowError("a result is not a finite number")
    if output_format == "json":
        payload: dict = {"schema": 1}
        payload.update({name: value for name, value, _ in items})
        _print_json(payload)
        return
    rendered = [(name, format_fixed(value, places[kind])) for name, value, kind in items]
    if output_format == "csv":
        for name, text in rendered:
            print(f"{name},{text}")
        return
    if len(rendered) == 1:
        print(rendered[0][1])
    else:
        for name, text in rendered:
            print(f"{name} {text}")


def _load_json(path: str):
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFileError(f"{path} is not valid JSON: {exc}") from exc


def _load_project_file(path: str):
    from . import projects

    data = _load_json(path)
    try:
        return projects.project_from_dict(data, fallback_name=path)
    except ValueError as exc:
        raise InputFileError(f"{path}: {exc}") from exc


def _load_reductions_file(path: str) -> list[float]:
    data = _load_json(path)
    if isinstance(data, dict):
        data = data.get("principal_reductions")
    if not isinstance(data, list) or not data:
        raise InputFileError(
            f"{path}: expected a JSON array of principal reductions "
            '(or {"principal_reductions": [...]})'
        )
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in data):
        raise InputFileError(f"{path}: principal reductions must all be numbers")
    return [float(x) for x in data]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_tvm(args: argparse.Namespace, places: dict[str, int]) -> int:
    from . import timevalue

    fn = args.function
    if fn in ("bal", "pp"):
        if args.k is None:
            raise ValueError(f"tvm {fn} requires --k")
        op = timevalue.balance_fraction if fn == "bal" else timevalue.portion_paid
        value = op(args.k, args.n, args.rate)
    else:
        op = {
            "compound": timevalue.compound_amount,
            "reversion": timevalue.pv_reversion,
            "annuity": timevalue.annuity_pv,
            "amortize": timevalue.installment_to_amortize,
            "accumulate": timevalue.accumulation,
            "sff": timevalue.sinking_fund_factor,
        }[fn]
        value = op(args.rate, args.n)
    _emit_values(args.format, places, [("factor", value, "rate")])
    return 0


def _cmd_amort(args: argparse.Namespace, places: dict[str, int]) -> int:
    """Print a schedule and its main-theorem residual; every amount must be finite."""
    from . import amortization

    if args.kind == "level":
        schedule = amortization.level_schedule(args.pv, args.i, args.n)
    elif args.kind == "general":
        schedule = amortization.generalized_schedule(_load_reductions_file(args.file), args.i)
    else:
        schedule = amortization.sinking_fund_schedule(args.v, args.i, args.r, args.n)
    amounts = [x for r in schedule.rows for x in (r.payment, r.interest, r.principal_reduction, r.ending_balance)]
    if not all(map(math.isfinite, amounts)):
        raise OverflowError("a schedule amount is not a finite number")
    residual = amortization.verify_main_theorem(schedule)
    if not math.isfinite(residual):
        raise OverflowError("the main theorem residual is not a finite number")
    if args.format == "json":
        payload = amortization.schedule_to_dict(schedule)
        payload["main_theorem_residual"] = residual
        _print_json(payload)
    elif args.format == "csv":
        sys.stdout.write(amortization.schedule_to_csv(schedule))
        print(f"# main_theorem_residual={residual:.6e}")
    else:
        sys.stdout.write(amortization.schedule_to_table(schedule, places["money"]))
        print(f"main theorem residual: {residual:.6e}")
    return 0


def _cmd_caprate(args: argparse.Namespace, places: dict[str, int]) -> int:
    from . import capitalization

    method = args.method
    if method == "band":
        items = [("rate", capitalization.band_of_investment(args.m, args.i, args.y), "rate")]
    elif method == "band-rm":
        items = [("rate", capitalization.band_with_mortgage_constant(args.m, args.rm, args.y), "rate")]
    elif method == "mortgage-constant":
        items = [("rate", capitalization.mortgage_constant(args.i, args.months), "rate")]
    elif method == "adjusted":
        items = [("rate", capitalization.adjusted_cap_rate(args.i, args.n, args.delta0), "rate")]
    elif method in ("ellwood", "ellwood-j"):
        terms = capitalization.MortgageTerms(args.m, args.i, args.months, args.hold)
        spec = capitalization.AppreciationSpec(
            asset_change=args.delta0,
            income_change=getattr(args, "delta", 0.0) or 0.0,
        )
        if method == "ellwood":
            result = capitalization.ellwood_cap_rate(terms, args.y, spec)
        else:
            result = capitalization.ellwood_j_cap_rate(terms, args.y, spec, args.jn)
        items = [
            ("rate", result.rate, "rate"),
            ("c_factor", result.c_factor, "rate"),
            ("mortgage_constant", result.mortgage_constant, "rate"),
            ("portion_paid", result.portion_paid, "rate"),
            ("sff", result.equity_sff, "rate"),
            ("akerson_rate", result.akerson_rate, "rate"),
        ]
        if result.j_factor is not None:
            items.append(("j_factor", result.j_factor, "rate"))
    else:
        items = [
            ("rate", capitalization.recovery_cap_rate(method, args.i, args.n, getattr(args, "is_rate", None)), "rate")
        ]
    _emit_values(args.format, places, items)
    return 0


def _cmd_value(args: argparse.Namespace, places: dict[str, int]) -> int:
    from . import recurrence

    form = args.form
    if form == "recurrence":
        spec = recurrence.RecurrenceSpec(args.m, args.b, args.c)
        value = recurrence.value_recurrence_stream(spec, args.i, args.n)
    elif form == "offset":
        spec = recurrence.OffsetStreamSpec(
            args.d, args.h, recurrence.RecurrenceSpec(args.m, args.b, args.c)
        )
        value = recurrence.value_offset_stream(spec, args.i, args.n)
    elif form == "straight-line":
        value = recurrence.straight_line_annuity_value(args.d, args.h, args.i, args.n)
    elif form == "growth":
        value = recurrence.constant_ratio_annuity_value(args.g, args.i, args.n)
    elif form == "accumulation":
        value = recurrence.accumulation_stream_value(args.i, args.n)
    else:
        value = recurrence.hoskold_stream_value(args.income, args.i, args.is_rate, args.n)
    _emit_values(args.format, places, [("value", value, "money")])
    return 0


def _cmd_irr(args: argparse.Namespace, places: dict[str, int]) -> int:
    from . import projects

    npv_rates = args.npv_at or ()
    bounds = args.bounds or projects.DEFAULT_IRR_BOUNDS
    if len(bounds) != 2:
        raise ValueError("--bounds takes two comma-separated rates")
    if args.compare and len(args.files) != 2:
        raise ValueError("--compare needs exactly two project files")
    if not args.compare and len(args.files) != 1:
        raise ValueError("analyze one project file, or pass two with --compare")

    loaded = [_load_project_file(path) for path in args.files]
    if args.compare:
        result = (projects.compare_pairwise(*loaded, bounds),)
        npv_rates = npv_rates or (0.10, 0.12)
        table, csv, to_dict = projects.comparison_table, projects.comparison_csv, projects.comparison_to_dict
    else:
        result = (loaded[0], projects.irr_all(loaded[0], bounds))
        table, csv, to_dict = projects.analysis_table, projects.analysis_csv, projects.analysis_to_dict

    if args.format == "json":
        _print_json(to_dict(*result, npv_rates))
    else:
        sys.stdout.write((csv if args.format == "csv" else table)(*result, npv_rates))
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_commands(parser: argparse.ArgumentParser, dest: str, fill, commands: dict[str, str]) -> None:
    """Register each subcommand name -> help; fill(subparser, name) builds the one argparse selects."""
    sub = parser.add_subparsers(dest=dest, required=True, parser_class=_Parser)
    for name, help_text in commands.items():
        sub.add_parser(name, help=help_text).fill = lambda p, name=name: fill(p, name)


def _add_common(p: argparse.ArgumentParser) -> None:
    """The --format and --precision options every leaf subcommand takes."""
    p.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output format (default table)",
    )
    p.add_argument(
        "--precision",
        type=int,
        default=None,
        metavar="N",
        help="display decimals for every value (defaults: 2 money, 4 rates)",
    )


def _fill_command(p: argparse.ArgumentParser, command: str) -> None:
    """A top-level subcommand's arguments, or the names of its own subcommands."""
    if command == "tvm":
        _add_common(p)
        p.add_argument(
            "function",
            choices=("compound", "reversion", "annuity", "amortize", "accumulate", "sff", "bal", "pp"),
        )
        p.add_argument("--rate", type=_finite, required=True, help="rate per period, decimal fraction")
        p.add_argument("--n", type=int, required=True, help="number of periods")
        p.add_argument("--k", type=int, default=None, help="elapsed payments (bal and pp only)")
    elif command == "amort":
        _add_commands(p, "kind", _fill_amort, {
            "level": "equal payments",
            "general": "given principal reductions",
            "sinking": "sinking-fund capital recovery",
        })
    elif command == "caprate":
        _add_commands(p, "method", _fill_caprate, {
            "band": "band of investment, interest-only debt",
            "band-rm": "band of investment, amortizing debt",
            "mortgage-constant": "annual debt service per unit loan",
            "adjusted": "level income with value change",
            "ellwood": "mortgage-equity rate, constant income",
            "ellwood-j": "mortgage-equity rate, changing income",
            "ring": "straight-line recovery rate",
            "hoskold": "safe-rate recovery rate",
            "annuity": "full-rate recovery: 1/a(n,i)",
        })
    elif command == "value":
        _add_commands(p, "form", _fill_value, {
            "recurrence": "stream y_k = m*y_(k-1) + b from seed c",
            "offset": "stream d, d - y_1*h, d - y_2*h, ...",
            "straight-line": "stream d, d-h, d-2h, ...",
            "growth": "stream starting at 1 growing at ratio g",
            "accumulation": "stream of accumulation factors s_1..s_n",
            "hoskold": "safe-rate declining stream value",
        })
    else:  # irr
        _add_common(p)
        p.add_argument("files", nargs="+", help="project JSON file(s): {\"name\": ..., \"cashflows\": [...]}")
        p.add_argument("--compare", action="store_true", help="pairwise comparison of two projects")
        p.add_argument(
            "--npv-at", type=_finite_list, default=None, metavar="R1,R2,...", help="rates at which to report NPV"
        )
        p.add_argument(
            "--bounds",
            type=_finite_list,
            default=None,
            metavar="LO,HI",
            help="search interval for every IRR and the --compare cutoff (default -0.999,10)",
        )


def _fill_amort(p: argparse.ArgumentParser, kind: str) -> None:
    _add_common(p)
    if kind == "level":
        p.add_argument("--pv", type=_finite, required=True, help="loan principal")
        p.add_argument("--i", type=_finite, required=True, help="rate per period")
        p.add_argument("--n", type=int, required=True, help="number of periods")
    elif kind == "general":
        p.add_argument("--file", required=True, help="JSON file with the principal reductions")
        p.add_argument("--i", type=_finite, required=True, help="rate per period")
    else:  # sinking
        p.add_argument("--v", type=_finite, required=True, help="capital to recover")
        p.add_argument("--i", type=_finite, required=True, help="discount rate per period")
        p.add_argument("--r", type=_finite, required=True, help="sinking fund rate per period")
        p.add_argument("--n", type=int, required=True, help="number of periods")


def _fill_caprate(p: argparse.ArgumentParser, method: str) -> None:
    _add_common(p)
    if method in ("band", "band-rm"):
        p.add_argument("--m", type=_finite, required=True, help="loan-to-value fraction")
        if method == "band":
            p.add_argument("--i", type=_finite, required=True, help="mortgage interest rate")
        else:
            p.add_argument("--rm", type=_finite, required=True, help="annual mortgage constant")
        p.add_argument("--y", type=_finite, required=True, help="equity yield rate")
    elif method == "mortgage-constant":
        p.add_argument("--i", type=_finite, required=True, help="annual note rate")
        p.add_argument("--months", type=int, required=True, help="amortization term in months")
    elif method in ("ellwood", "ellwood-j"):
        p.add_argument("--m", type=_finite, required=True, help="loan-to-value fraction")
        p.add_argument("--i", type=_finite, required=True, help="annual note rate")
        p.add_argument("--months", type=int, required=True, help="amortization term in months")
        p.add_argument("--hold", type=int, required=True, help="holding period in years")
        p.add_argument("--y", type=_finite, required=True, help="equity yield rate")
        p.add_argument("--delta0", type=_finite, default=0.0, help="relative value change over the hold")
        if method == "ellwood-j":
            p.add_argument("--delta", type=_finite, required=True, help="relative income change over the hold")
            p.add_argument("--jn", type=int, default=None, help="horizon for the J factor (default: holding years)")
    elif method == "adjusted":
        p.add_argument("--i", type=_finite, required=True, help="discount rate")
        p.add_argument("--n", type=int, required=True, help="horizon in periods")
        p.add_argument("--delta0", type=_finite, required=True, help="relative value change")
    else:  # ring, hoskold, annuity
        p.add_argument("--i", type=_finite, required=True, help="discount rate")
        if method == "hoskold":
            p.add_argument("--is", dest="is_rate", type=_finite, required=True, help="safe sinking fund rate")
        p.add_argument("--n", type=int, required=True, help="recovery horizon")


def _fill_value(p: argparse.ArgumentParser, form: str) -> None:
    _add_common(p)
    if form in ("offset", "straight-line"):
        p.add_argument("--d", type=_finite, required=True, help="first-period income")
        if form == "offset":
            p.add_argument("--h", type=_finite, required=True, help="decrement scale on the generated terms")
        else:
            p.add_argument("--h", type=_finite, required=True, help="constant decline per period (negative rises)")
    if form in ("recurrence", "offset"):
        for flag, hint in (("--m", "multiplier"), ("--b", "increment"), ("--c", "seed value y_0")):
            p.add_argument(flag, type=_finite, required=True, help=hint)
    elif form == "growth":
        p.add_argument("--g", type=_finite, required=True, help="growth rate per period")
    elif form == "hoskold":
        p.add_argument("--income", type=_finite, required=True, help="first-year income")
        p.add_argument("--is", dest="is_rate", type=_finite, required=True, help="safe sinking fund rate")
    p.add_argument("--i", type=_finite, required=True, help="discount rate per period")
    p.add_argument("--n", type=int, required=True, help="number of periods")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="propval",
        description="Income-property valuation calculations.",
        allow_abbrev=False,
    )
    _add_commands(parser, "command", _fill_command, {
        "tvm": "compound interest factor functions",
        "amort": "amortization schedules",
        "caprate": "direct capitalization rates",
        "value": "present value of changing income streams",
        "irr": "NPV / IRR project analysis",
    })
    return parser


_HANDLERS = {"tvm": _cmd_tvm, "amort": _cmd_amort, "caprate": _cmd_caprate, "value": _cmd_value, "irr": _cmd_irr}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args, _places_from(args))
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
