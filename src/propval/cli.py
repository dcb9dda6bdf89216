"""Command-line front end. Thin dispatch only; all math lives in the library.

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
import json
import math
import sys
from dataclasses import dataclass

from . import amortization, capitalization, projects, recurrence, timevalue
from .render import align_table, format_fixed

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
    # usage problems exit 1, not argparse's default 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass
class CliConfig:
    output_format: str = "table"
    money_precision: int = 2
    rate_precision: int = 4


def _config_from(args: argparse.Namespace) -> CliConfig:
    cfg = CliConfig(output_format=args.format)
    if args.precision is not None:
        if not 0 <= args.precision <= 12:
            raise ValueError(f"--precision must be in 0..12, got {args.precision}")
        cfg.money_precision = args.precision
        cfg.rate_precision = args.precision
    return cfg


def _precision_for(cfg: CliConfig, kind: str) -> int:
    return cfg.money_precision if kind == "money" else cfg.rate_precision


def _emit_values(cfg: CliConfig, items: list[tuple[str, float, str]]) -> None:
    """Print named scalars: bare in table format when there is only one."""
    if not all(math.isfinite(value) for _, value, _ in items):
        raise OverflowError("a result is not a finite number")
    if cfg.output_format == "json":
        payload: dict = {"schema": 1}
        payload.update({name: value for name, value, _ in items})
        print(json.dumps(payload))
        return
    rendered = [(name, format_fixed(value, _precision_for(cfg, kind))) for name, value, kind in items]
    if cfg.output_format == "csv":
        for name, text in rendered:
            print(f"{name},{text}")
        return
    if len(rendered) == 1:
        print(rendered[0][1])
    else:
        for name, text in rendered:
            print(f"{name} {text}")


def _emit_schedule(cfg: CliConfig, schedule: amortization.AmortizationSchedule) -> None:
    residual = amortization.verify_main_theorem(schedule)
    if cfg.output_format == "json":
        payload = amortization.schedule_to_dict(schedule)
        payload["main_theorem_residual"] = residual
        print(json.dumps(payload))
        return
    if cfg.output_format == "csv":
        sys.stdout.write(amortization.schedule_to_csv(schedule))
        print(f"# main_theorem_residual={residual:.6e}")
        return
    p = cfg.money_precision
    rows = [["period", "payment", "interest", "principal_reduction", "ending_balance"]]
    for row in schedule.rows:
        rows.append(
            [
                str(row.period),
                format_fixed(row.payment, p),
                format_fixed(row.interest, p),
                format_fixed(row.principal_reduction, p),
                format_fixed(row.ending_balance, p),
            ]
        )
    sys.stdout.write(align_table(rows))
    print(f"main theorem residual: {residual:.6e}")


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFileError(f"{path} is not valid JSON: {exc}") from exc


def _load_project_file(path: str) -> projects.Project:
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


def _cmd_tvm(args: argparse.Namespace, cfg: CliConfig) -> int:
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
    _emit_values(cfg, [("factor", value, "rate")])
    return 0


def _cmd_amort(args: argparse.Namespace, cfg: CliConfig) -> int:
    if args.kind == "level":
        schedule = amortization.level_schedule(args.pv, args.i, args.n)
    elif args.kind == "general":
        schedule = amortization.generalized_schedule(_load_reductions_file(args.file), args.i)
    else:
        schedule = amortization.sinking_fund_schedule(args.v, args.i, args.r, args.n)
    _emit_schedule(cfg, schedule)
    return 0


def _cmd_caprate(args: argparse.Namespace, cfg: CliConfig) -> int:
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
    _emit_values(cfg, items)
    return 0


def _cmd_value(args: argparse.Namespace, cfg: CliConfig) -> int:
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
    _emit_values(cfg, [("value", value, "money")])
    return 0


def _cmd_irr(args: argparse.Namespace, cfg: CliConfig) -> int:
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

    if cfg.output_format == "json":
        print(json.dumps(to_dict(*result, npv_rates)))
    else:
        sys.stdout.write((csv if cfg.output_format == "csv" else table)(*result, npv_rates))
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output format (default table)",
    )
    common.add_argument(
        "--precision",
        type=int,
        default=None,
        metavar="N",
        help="display decimals for every value (defaults: 2 money, 4 rates)",
    )

    parser = _Parser(
        prog="propval",
        description="Income-property valuation calculations.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    tvm = sub.add_parser("tvm", parents=[common], help="compound interest factor functions")
    tvm.add_argument(
        "function",
        choices=("compound", "reversion", "annuity", "amortize", "accumulate", "sff", "bal", "pp"),
    )
    tvm.add_argument("--rate", type=_finite, required=True, help="rate per period, decimal fraction")
    tvm.add_argument("--n", type=int, required=True, help="number of periods")
    tvm.add_argument("--k", type=int, default=None, help="elapsed payments (bal and pp only)")
    tvm.set_defaults(handler=_cmd_tvm)

    amort = sub.add_parser("amort", help="amortization schedules")
    amort_sub = amort.add_subparsers(dest="kind", required=True, parser_class=_Parser)
    level = amort_sub.add_parser("level", parents=[common], help="equal payments")
    level.add_argument("--pv", type=_finite, required=True, help="loan principal")
    level.add_argument("--i", type=_finite, required=True, help="rate per period")
    level.add_argument("--n", type=int, required=True, help="number of periods")
    general = amort_sub.add_parser("general", parents=[common], help="given principal reductions")
    general.add_argument("--file", required=True, help="JSON file with the principal reductions")
    general.add_argument("--i", type=_finite, required=True, help="rate per period")
    sinking = amort_sub.add_parser("sinking", parents=[common], help="sinking-fund capital recovery")
    sinking.add_argument("--v", type=_finite, required=True, help="capital to recover")
    sinking.add_argument("--i", type=_finite, required=True, help="discount rate per period")
    sinking.add_argument("--r", type=_finite, required=True, help="sinking fund rate per period")
    sinking.add_argument("--n", type=int, required=True, help="number of periods")
    amort.set_defaults(handler=_cmd_amort)
    for p in (level, general, sinking):
        p.set_defaults(handler=_cmd_amort)

    caprate = sub.add_parser("caprate", help="direct capitalization rates")
    cap_sub = caprate.add_subparsers(dest="method", required=True, parser_class=_Parser)
    band = cap_sub.add_parser("band", parents=[common], help="band of investment, interest-only debt")
    band.add_argument("--m", type=_finite, required=True, help="loan-to-value fraction")
    band.add_argument("--i", type=_finite, required=True, help="mortgage interest rate")
    band.add_argument("--y", type=_finite, required=True, help="equity yield rate")
    band_rm = cap_sub.add_parser("band-rm", parents=[common], help="band of investment, amortizing debt")
    band_rm.add_argument("--m", type=_finite, required=True, help="loan-to-value fraction")
    band_rm.add_argument("--rm", type=_finite, required=True, help="annual mortgage constant")
    band_rm.add_argument("--y", type=_finite, required=True, help="equity yield rate")
    mc = cap_sub.add_parser("mortgage-constant", parents=[common], help="annual debt service per unit loan")
    mc.add_argument("--i", type=_finite, required=True, help="annual note rate")
    mc.add_argument("--months", type=int, required=True, help="amortization term in months")
    adjusted = cap_sub.add_parser("adjusted", parents=[common], help="level income with value change")
    adjusted.add_argument("--i", type=_finite, required=True, help="discount rate")
    adjusted.add_argument("--n", type=int, required=True, help="horizon in periods")
    adjusted.add_argument("--delta0", type=_finite, required=True, help="relative value change")
    ellwood = cap_sub.add_parser("ellwood", parents=[common], help="mortgage-equity rate, constant income")
    ellwood_j = cap_sub.add_parser("ellwood-j", parents=[common], help="mortgage-equity rate, changing income")
    for p in (ellwood, ellwood_j):
        p.add_argument("--m", type=_finite, required=True, help="loan-to-value fraction")
        p.add_argument("--i", type=_finite, required=True, help="annual note rate")
        p.add_argument("--months", type=int, required=True, help="amortization term in months")
        p.add_argument("--hold", type=int, required=True, help="holding period in years")
        p.add_argument("--y", type=_finite, required=True, help="equity yield rate")
        p.add_argument("--delta0", type=_finite, default=0.0, help="relative value change over the hold")
    ellwood_j.add_argument("--delta", type=_finite, required=True, help="relative income change over the hold")
    ellwood_j.add_argument("--jn", type=int, default=None, help="horizon for the J factor (default: holding years)")
    ring = cap_sub.add_parser("ring", parents=[common], help="straight-line recovery rate")
    ring.add_argument("--i", type=_finite, required=True, help="discount rate")
    ring.add_argument("--n", type=int, required=True, help="recovery horizon")
    hoskold = cap_sub.add_parser("hoskold", parents=[common], help="safe-rate recovery rate")
    hoskold.add_argument("--i", type=_finite, required=True, help="discount rate")
    hoskold.add_argument("--is", dest="is_rate", type=_finite, required=True, help="safe sinking fund rate")
    hoskold.add_argument("--n", type=int, required=True, help="recovery horizon")
    annuity = cap_sub.add_parser("annuity", parents=[common], help="full-rate recovery: 1/a(n,i)")
    annuity.add_argument("--i", type=_finite, required=True, help="discount rate")
    annuity.add_argument("--n", type=int, required=True, help="recovery horizon")
    for p in (band, band_rm, mc, adjusted, ellwood, ellwood_j, ring, hoskold, annuity):
        p.set_defaults(handler=_cmd_caprate)

    value = sub.add_parser("value", help="present value of changing income streams")
    value_sub = value.add_subparsers(dest="form", required=True, parser_class=_Parser)
    rec = value_sub.add_parser("recurrence", parents=[common], help="stream y_k = m*y_(k-1) + b from seed c")
    for flag, hint in (("--m", "multiplier"), ("--b", "increment"), ("--c", "seed value y_0")):
        rec.add_argument(flag, type=_finite, required=True, help=hint)
    offset = value_sub.add_parser("offset", parents=[common], help="stream d, d - y_1*h, d - y_2*h, ...")
    for flag, hint in (
        ("--d", "first-period income"),
        ("--h", "decrement scale on the generated terms"),
        ("--m", "multiplier"),
        ("--b", "increment"),
        ("--c", "seed value y_0"),
    ):
        offset.add_argument(flag, type=_finite, required=True, help=hint)
    straight = value_sub.add_parser("straight-line", parents=[common], help="stream d, d-h, d-2h, ...")
    straight.add_argument("--d", type=_finite, required=True, help="first-period income")
    straight.add_argument("--h", type=_finite, required=True, help="constant decline per period (negative rises)")
    growth = value_sub.add_parser("growth", parents=[common], help="stream starting at 1 growing at ratio g")
    growth.add_argument("--g", type=_finite, required=True, help="growth rate per period")
    accum = value_sub.add_parser("accumulation", parents=[common], help="stream of accumulation factors s_1..s_n")
    hosk = value_sub.add_parser("hoskold", parents=[common], help="safe-rate declining stream value")
    hosk.add_argument("--income", type=_finite, required=True, help="first-year income")
    hosk.add_argument("--is", dest="is_rate", type=_finite, required=True, help="safe sinking fund rate")
    for p in (rec, offset, straight, growth, accum, hosk):
        p.add_argument("--i", type=_finite, required=True, help="discount rate per period")
        p.add_argument("--n", type=int, required=True, help="number of periods")
        p.set_defaults(handler=_cmd_value)

    irr = sub.add_parser("irr", parents=[common], help="NPV / IRR project analysis")
    irr.add_argument("files", nargs="+", help="project JSON file(s): {\"name\": ..., \"cashflows\": [...]}")
    irr.add_argument("--compare", action="store_true", help="pairwise comparison of two projects")
    irr.add_argument("--npv-at", type=_finite_list, default=None, metavar="R1,R2,...", help="rates at which to report NPV")
    irr.add_argument(
        "--bounds",
        type=_finite_list,
        default=None,
        metavar="LO,HI",
        help="search interval for every IRR and the --compare cutoff (default -0.999,10)",
    )
    irr.set_defaults(handler=_cmd_irr)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from(args)
        return args.handler(args, cfg)
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
