import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import propval

from propval import amortization, projects
from propval import (
    annuity_pv,
    balance_fraction,
    band_of_investment,
    constant_ratio_annuity_value,
    ellwood_cap_rate,
    generalized_schedule,
    hoskold_stream_value,
    irr_all,
    level_schedule,
    mortgage_constant,
    npv,
    Project,
    schedule_to_csv,
    sinking_fund_schedule,
    verify_main_theorem,
    AppreciationSpec,
    MortgageTerms,
)
from propval.cli import build_parser, main
from propval.render import format_fixed, format_percent


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def project_files(tmp_path):
    paths = {}
    for name, flows in {
        "A": [-1000, 200, 200, 1200],
        "B": [-1000, 500, 500, 500],
        "D": [-1000, 1450, 1500, -2200],
        "noirr": [-1000, 1450, 1450, -2200],
    }.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"name": name, "cashflows": flows}))
        paths[name] = str(path)
    return paths


class TestTvm:
    def test_annuity_scalar(self, run):
        code, out, err = run("tvm", "annuity", "--rate", "0.10", "--n", "5")
        assert (code, err) == (0, "")
        assert out == "3.7908\n"

    def test_sff_zero_rate(self, run):
        code, out, _ = run("tvm", "sff", "--rate", "0", "--n", "5")
        assert code == 0
        assert out == "0.2000\n"

    def test_balance_fraction_delegates(self, run):
        code, out, _ = run("tvm", "bal", "--rate", "0.01", "--n", "360", "--k", "120", "--format", "json")
        assert code == 0
        assert json.loads(out)["factor"] == balance_fraction(120, 360, 0.01)

    def test_precision_override(self, run):
        code, out, _ = run("tvm", "annuity", "--rate", "0.10", "--n", "5", "--precision", "8")
        assert code == 0
        assert out == "3.79078677\n"

    def test_missing_k_is_usage_error(self, run):
        code, out, err = run("tvm", "bal", "--rate", "0.01", "--n", "360")
        assert code == 1
        assert out == ""
        assert "--k" in err

    def test_invalid_rate_is_usage_error(self, run):
        code, _, err = run("tvm", "annuity", "--rate", "-1.5", "--n", "5")
        assert code == 1
        assert "rate" in err

    def test_unknown_function_rejected(self, run):
        code, _, err = run("tvm", "frobnicate", "--rate", "0.1", "--n", "5")
        assert code == 1
        assert "invalid choice" in err


class TestAmort:
    def test_level_csv_matches_library(self, run):
        code, out, _ = run("amort", "level", "--pv", "1000", "--i", "0.10", "--n", "5", "--format", "csv")
        assert code == 0
        schedule = level_schedule(1000, 0.10, 5)
        body, trailer = out.rsplit("#", 1)
        assert body == schedule_to_csv(schedule)
        assert trailer.startswith(" main_theorem_residual=") or trailer.startswith("main_theorem_residual=")
        assert out.endswith("\n")
        assert "0.00\n#" in out  # final balance hits zero

    def test_level_json_raw_doubles(self, run):
        code, out, _ = run("amort", "level", "--pv", "1000", "--i", "0.10", "--n", "5", "--format", "json")
        assert code == 0
        data = json.loads(out)
        schedule = level_schedule(1000, 0.10, 5)
        assert [r["payment"] for r in data["rows"]] == schedule.payments
        assert data["main_theorem_residual"] == verify_main_theorem(schedule)

    def test_general_from_file(self, run, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("[100, 300, 600]")
        code, out, _ = run("amort", "general", "--file", str(path), "--i", "0.10", "--format", "csv")
        assert code == 0
        assert "1,200.00,100.00,100.00,900.00" in out
        assert "2,390.00,90.00,300.00,600.00" in out
        assert "3,660.00,60.00,600.00,0.00" in out

    def test_general_accepts_keyed_object(self, run, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"principal_reductions": [100, 300, 600]}')
        code, out, _ = run("amort", "general", "--file", str(path), "--i", "0.10", "--format", "json")
        assert code == 0
        data = json.loads(out)
        expected = generalized_schedule([100, 300, 600], 0.10)
        assert [r["payment"] for r in data["rows"]] == expected.payments

    def test_sinking_table(self, run):
        code, out, _ = run("amort", "sinking", "--v", "1000", "--i", "0.10", "--r", "0.05", "--n", "10")
        assert code == 0
        schedule = sinking_fund_schedule(1000, 0.10, 0.05, 10)
        assert f"{schedule.payments[0]:.2f}" in out
        assert "main theorem residual" in out

    def test_missing_file_is_input_error(self, run, tmp_path):
        code, out, err = run("amort", "general", "--file", str(tmp_path / "nope.json"), "--i", "0.10")
        assert code == 2
        assert out == ""
        assert "cannot read" in err

    def test_malformed_file_is_input_error(self, run, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[100, }")
        code, _, err = run("amort", "general", "--file", str(path), "--i", "0.10")
        assert code == 2
        assert "not valid JSON" in err

    def test_precision_is_checked_before_the_file_is_read(self, run, tmp_path):
        argv = ("amort", "general", "--file", str(tmp_path / "nope.json"), "--i", "0.1", "--precision", "13")
        code, out, err = run(*argv)
        assert (code, out, err) == (1, "", "propval: error: --precision must be in 0..12, got 13\n")

    def test_wrong_schema_is_input_error(self, run, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": [1, 2]}')
        code, _, err = run("amort", "general", "--file", str(path), "--i", "0.10")
        assert code == 2
        assert "principal reductions" in err

    @pytest.mark.parametrize(
        "text",
        [
            "[1e400, 100]",
            "[100, NaN]",
            '{"principal_reductions": [-Infinity, 1]}',
            pytest.param("[1" + "0" * 400 + ", 100]", id="int-beyond-double-range"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_non_finite_reduction_is_input_error(self, run, tmp_path, text, fmt):
        # exit 2, as a non-finite cash flow in an irr project file does
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run("amort", "general", "--file", str(path), "--i", "0.10", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == f"propval: error: {path}: principal reductions must be finite\n"

    @pytest.mark.parametrize("text", ["[true, 1]", '["1", 2]'], ids=["bool", "string"])
    def test_non_numeric_reduction_is_input_error(self, run, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run("amort", "general", "--file", str(path), "--i", "0.1")
        assert (code, out) == (2, "")
        assert err == f"propval: error: {path}: principal reductions must all be numbers\n"


class TestCaprate:
    def test_band_scalar(self, run):
        code, out, _ = run("caprate", "band", "--m", "0.7", "--i", "0.08", "--y", "0.12")
        assert code == 0
        assert out == "0.0920\n"

    def test_band_delegates(self, run):
        code, out, _ = run("caprate", "band", "--m", "0.7", "--i", "0.08", "--y", "0.12", "--format", "json")
        assert json.loads(out)["rate"] == band_of_investment(0.7, 0.08, 0.12)

    def test_ring(self, run):
        code, out, _ = run("caprate", "ring", "--i", "0.10", "--n", "10")
        assert out == "0.2000\n"

    def test_mortgage_constant(self, run):
        code, out, _ = run("caprate", "mortgage-constant", "--i", "0.09", "--months", "300", "--format", "json")
        assert json.loads(out)["rate"] == mortgage_constant(0.09, 300)

    def test_ellwood_breakdown(self, run):
        code, out, _ = run(
            "caprate", "ellwood", "--m", "0.7", "--i", "0.09", "--months", "300",
            "--hold", "10", "--y", "0.14", "--delta0", "0.1",
        )
        assert code == 0
        result = ellwood_cap_rate(
            MortgageTerms(0.7, 0.09, 300, 10), 0.14, AppreciationSpec(asset_change=0.1)
        )
        lines = dict(line.split(" ", 1) for line in out.strip().split("\n"))
        assert lines["rate"] == f"{result.rate:.4f}"
        assert set(lines) == {
            "rate", "c_factor", "mortgage_constant", "portion_paid", "sff", "akerson_rate",
        }

    def test_ellwood_j_includes_j_factor(self, run):
        code, out, _ = run(
            "caprate", "ellwood-j", "--m", "0.7", "--i", "0.09", "--months", "300",
            "--hold", "10", "--y", "0.14", "--delta0", "0.1", "--delta", "0.2",
            "--format", "json",
        )
        data = json.loads(out)
        assert data["j_factor"] > 0
        plain = ellwood_cap_rate(
            MortgageTerms(0.7, 0.09, 300, 10), 0.14, AppreciationSpec(asset_change=0.1)
        )
        # rising income deflates the constant-income rate by 1 + delta*J
        assert data["rate"] == plain.rate / (1 + 0.2 * data["j_factor"])

    def test_ellwood_j_income_change_that_cancels_j_is_error(self, run):
        code, out, err = run(
            "caprate", "ellwood-j", "--m", "0.7", "--i", "0.09", "--months", "300",
            "--hold", "1", "--y", "0", "--delta", "-1",
        )
        assert (code, out) == (1, "")
        assert err == "propval: error: income change cancels the J adjustment; rate undefined\n"

    def test_hoskold_cap_rate(self, run):
        code, out, _ = run("caprate", "hoskold", "--i", "0.10", "--is", "0.05", "--n", "10", "--format", "csv")
        assert code == 0
        assert out.startswith("rate,")


class TestValue:
    def test_straight_line(self, run):
        code, out, _ = run("value", "straight-line", "--d", "100", "--h", "10", "--i", "0.10", "--n", "4")
        assert code == 0
        assert out == "273.21\n"

    def test_growth_delegates(self, run):
        code, out, _ = run("value", "growth", "--g", "0.05", "--i", "0.10", "--n", "10", "--format", "json")
        assert json.loads(out)["value"] == constant_ratio_annuity_value(0.05, 0.10, 10)

    def test_hoskold(self, run):
        code, out, _ = run("value", "hoskold", "--income", "100", "--i", "0.10", "--is", "0.05", "--n", "10")
        assert out == f"{hoskold_stream_value(100, 0.10, 0.05, 10):.2f}\n"

    def test_recurrence_form(self, run):
        code, out, _ = run(
            "value", "recurrence", "--m", "1.1", "--b", "1", "--c", "0", "--i", "0.10", "--n", "5",
            "--format", "json",
        )
        expected = (5 - annuity_pv(0.10, 5)) / 0.10
        assert json.loads(out)["value"] == pytest.approx(expected, rel=1e-12)


class TestIrrCommand:
    def test_single_project_table(self, run, project_files):
        code, out, _ = run("irr", project_files["A"], "--npv-at", "0.10,0.12")
        assert code == 0
        assert "20.00%" in out
        assert "248.69" in out
        assert "192.15" in out
        assert "classification: unique" in out

    def test_multiple_roots(self, run, project_files):
        code, out, _ = run("irr", project_files["D"])
        assert code == 0
        assert "28.52%" in out
        assert "39.34%" in out
        assert "classification: multiple" in out

    def test_no_irr_is_success(self, run, project_files):
        code, out, _ = run("irr", project_files["noirr"])
        assert code == 0
        assert "none" in out

    def test_compare(self, run, project_files):
        code, out, _ = run("irr", project_files["A"], project_files["B"], "--compare")
        assert code == 0
        assert "cutoff rate: 10.73%" in out
        assert "preferred below cutoff: A" in out
        assert "preferred above cutoff: B" in out

    def test_compare_csv(self, run, project_files):
        code, out, _ = run("irr", project_files["A"], project_files["B"], "--compare", "--format", "csv")
        assert code == 0
        assert "cutoff_rate,10.73" in out
        assert "preferred_below,A" in out

    def test_json_raw_roots(self, run, project_files):
        code, out, _ = run("irr", project_files["A"], "--format", "json")
        data = json.loads(out)
        expected = irr_all(Project("A", (-1000, 200, 200, 1200)))
        assert data["irr"]["roots"] == list(expected.roots)
        assert data["irr"]["classification"] == "unique"

    def test_custom_bounds(self, run, project_files):
        # equals form keeps argparse from reading the leading dash as a flag
        code, out, _ = run("irr", project_files["A"], "--bounds=-0.5,0.1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["irr"]["classification"] == "none"
        assert data["irr"]["search_bounds"] == [-0.5, 0.1]

    def test_npv_at_delegates(self, run, project_files):
        code, out, _ = run("irr", project_files["A"], "--npv-at", "0.10,0.12", "--format", "json")
        data = json.loads(out)
        a = Project("A", (-1000, 200, 200, 1200))
        assert data["npv"]["0.1"] == npv(a, 0.10)
        assert data["npv"]["0.12"] == npv(a, 0.12)

    def test_close_npv_rates_keep_a_key_and_a_label_each(self, run, project_files):
        # both rates print as 0.1 at six significant digits
        rates = (0.1000001, 0.1000002)
        argv = ("irr", project_files["A"], "--npv-at", "0.1000001,0.1000002", "--format")
        expected = [npv(Project("A", (-1000, 200, 200, 1200)), r) for r in rates]
        outputs = {}
        for fmt in ("table", "csv", "json"):
            code, outputs[fmt], err = run(*argv, fmt)
            assert (code, err) == (0, "")
        npvs = json.loads(outputs["json"])["npv"]
        assert [(float(key), value) for key, value in npvs.items()] == list(zip(rates, expected))
        header, row = (line.split(",") for line in outputs["csv"].splitlines())
        assert [float(label.removeprefix("npv@")) for label in header[-2:]] == list(rates)
        assert row[-2:] == [format_fixed(value, 2) for value in expected]
        assert outputs["table"].splitlines()[1].split()[-2:] == [format_fixed(value, 2) for value in expected]

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_empty_lists_are_not_the_defaults(self, run, project_files, fmt):
        # an empty --bounds holds no two rates, and an empty --npv-at asks for no NPV
        for bounds in ("--bounds=", "--bounds=,"):
            code, out, err = run("irr", project_files["D"], bounds, "--format", fmt)
            assert (code, out) == (1, "")
            assert "--bounds takes two comma-separated rates" in err
        code, out, err = run("irr", project_files["A"], project_files["B"], "--compare", "--npv-at=", "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            data = json.loads(out)
            assert [entry["npv"] for entry in data["projects"] + [data["difference"]]] == [{}] * 3
        else:
            assert "npv" not in out.lower()

    def test_missing_project_file(self, run, tmp_path):
        code, _, err = run("irr", str(tmp_path / "ghost.json"))
        assert code == 2
        assert "cannot read" in err

    def test_invalid_project_schema(self, run, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "cashflows": [0, 0]}')
        code, _, err = run("irr", str(path))
        assert code == 2
        assert "nonzero" in err

    @pytest.mark.parametrize("flow", ["-1e400", pytest.param("-1" + "0" * 400, id="int-beyond-double-range")])
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_non_finite_cash_flow_is_input_error(self, run, tmp_path, flow, fmt):
        # a JSON integer beyond the double range is not finite either
        path = tmp_path / "bad.json"
        path.write_text('{"name": "P", "cashflows": [%s, 100]}' % flow)
        code, out, err = run("irr", str(path), "--format", fmt)
        assert (code, out) == (2, "")
        assert err == f"propval: error: {path}: cash flows must be finite\n"

    def test_compare_needs_two_files(self, run, project_files):
        code, _, err = run("irr", project_files["A"], "--compare")
        assert code == 1
        assert "two project files" in err

    def test_two_files_need_compare(self, run, project_files):
        code, _, err = run("irr", project_files["A"], project_files["B"])
        assert code == 1

    def test_compare_bounds_apply_to_every_format(self, run, project_files):
        argv = ("irr", project_files["A"], project_files["B"], "--compare", "--bounds=0.15,0.5")
        outputs = {}
        for fmt in ("table", "csv", "json"):
            code, outputs[fmt], err = run(*argv, "--format", fmt)
            assert (code, err) == (0, "")
        data = json.loads(outputs["json"])
        entries = data["projects"] + [data["difference"]]
        assert [entry["irr"]["search_bounds"] for entry in entries] == [[0.15, 0.5]] * 3
        assert data["difference"]["name"] == "A-B"
        assert data["difference"]["irr"]["roots"] == []
        assert data["cutoff_rate"] is None
        csv_rows = {line.split(",")[0]: line.split(",") for line in outputs["csv"].splitlines()}
        assert csv_rows["cutoff_rate"] == ["cutoff_rate", ""]
        assert csv_rows["A-B"][5:7] == ["", "none"]
        assert outputs["table"].endswith("no cutoff\n")
        table_rows = {line.split()[0]: line.split() for line in outputs["table"].splitlines()}
        for entry in entries:
            roots = entry["irr"]["roots"]
            assert csv_rows[entry["name"]][5] == ";".join(format_fixed(r * 100.0, 2) for r in roots)
            assert table_rows[entry["name"]][5] == (", ".join(format_percent(r) for r in roots) or "none")


class TestVanishingGaps:
    """Changing-income values where a rate or a multiplier gap is (nearly) 0.

    The exact values: 1000 + 100k summed over ten periods, J = 0.55 at a
    yield of 1e-9 over 10 years, and J = 1 over a one-year hold at any
    yield, also at 1e-300, where 1 - (1+i)^-n rounds to 0.
    """

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (
                [
                    "value", "recurrence", "--m", "1.000000000002", "--b", "100", "--c", "1000", "--i", "1e-13",
                    "--n", "10",
                ],
                ["15500.00"],
            ),
            (
                [
                    "caprate", "ellwood-j", "--m", "0.7", "--i", "0.08", "--months", "360", "--hold", "10",
                    "--y", "1e-9", "--delta0", "0", "--delta", "0.2",
                ],
                ["j_factor 0.5500"],
            ),
            (
                [
                    "caprate", "ellwood-j", "--m", "1e-300", "--i", "0", "--months", "360", "--hold", "1",
                    "--y", "1e-300", "--delta0", "-1", "--delta", "-0.999",
                ],
                ["rate 1000.0000", "j_factor 1.0000"],
            ),
        ],
        ids=["recurrence-near-level", "ellwood-j-small-yield", "ellwood-j-tiny-yield"],
    )
    def test_prints_the_exact_value(self, run, argv, lines):
        code, out, err = run(*argv)
        assert (code, err) == (0, "")
        assert set(lines) <= set(out.splitlines())


class TestErrorContract:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["tvm", "compound", "--rate", "10", "--n", "100000"], "floating-point range"),
            (["value", "growth", "--g", "10", "--i", "0.1", "--n", "100000"], "floating-point range"),
            (["amort", "sinking", "--v", "1e308", "--i", "1e308", "--r", "0", "--n", "3"], "floating-point range"),
            (
                ["value", "straight-line", "--d", "1e308", "--h=-1e308", "--i", "0.1", "--n", "5", "--format", "json"],
                "floating-point range",
            ),
            (["caprate", "band", "--m", "0.7", "--i", "nan", "--y", "0.12"], "finite number"),
            (["irr", "A", "--npv-at", "0.1,inf"], "finite number"),
            (["irr", "A", "--bounds=0.1,inf"], "finite number"),
            (["tvm", "annuity", "--rate", "0.1", "--n", "5", "--precision", "13"], "--precision must be in 0..12"),
        ],
        ids=[
            "tvm-overflow", "value-overflow", "amort-overflow", "infinite-result", "nan-option", "npv-at-inf",
            "bounds-inf", "precision-too-large",
        ],
    )
    def test_clean_error_exit_1(self, run, project_files, argv, message):
        code, out, err = run(*(project_files.get(arg, arg) for arg in argv))
        assert (code, out) == (1, "")
        assert "error:" in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_schedule_past_an_overflowed_factor_exit_0(self, run, fmt):
        # s(400, 50) is past the double range, but every row of the schedule is not
        argv = ["amort", "sinking", "--v", "1000", "--i", "0.1", "--r", "50", "--n", "400", "--format", fmt]
        code, out, err = run(*argv)
        assert (code, err) == (0, "")
        if fmt == "json":
            assert json.loads(out)["rows"][-1]["ending_balance"] == 0.0
        else:  # the last row's balance, above the residual line
            assert out.splitlines()[-2].replace(",", " ").split()[-1] == "0.00"

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_schedule_overflow_exit_1(self, run, fmt):
        code, out, err = run("amort", "level", "--pv", "1e308", "--i", "10", "--n", "5", "--format", fmt)
        assert (code, out) == (1, "")
        assert "floating-point range" in err and "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_nonfinite_schedule_residual_exit_1(self, run, tmp_path, fmt):
        # finite rows whose discounting at -90% overflows
        path = tmp_path / "reductions.json"
        path.write_text(json.dumps([1.0] * 400))
        code, out, err = run("amort", "general", "--file", str(path), "--i=-0.9", "--format", fmt)
        assert (code, out) == (1, "")
        assert "floating-point range" in err

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_overflowing_comparison_exit_1(self, run, tmp_path, fmt):
        # each project is finite; their difference is not
        paths = []
        for name, sign in (("H", 1.0), ("N", -1.0)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"name": name, "cashflows": [sign * c for c in (-1e308, 1e308, 1e308)]}))
            paths.append(str(path))
        code, out, err = run("irr", *paths, "--compare", "--format", fmt)
        assert (code, out) == (1, "")
        assert err == "propval: error: a result is out of floating-point range\n"

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_nonfinite_npv_exit_1(self, run, tmp_path, fmt):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"name": "H", "cashflows": [-1e308, 1e308, 1e308]}))
        code, out, err = run("irr", str(path), "--npv-at=-0.9", "--format", fmt)
        assert (code, out) == (1, "")
        assert "floating-point range" in err

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_irr_takes_no_precision(self, run, project_files, fmt):
        # irr prints money and IRR cells at 2 decimals only, so it offers no --precision
        code, out, err = run("irr", project_files["A"], "--precision", "2", "--format", fmt)
        assert (code, out) == (1, "")
        assert err == (
            "usage: propval [-h] {tvm,amort,caprate,value,irr} ...\n"
            "propval: error: unrecognized arguments: --precision 2\n"
        )

    def test_huge_value_renders_in_every_format(self, run):
        argv = ("value", "growth", "--g", "10", "--i", "0.1", "--n", "300", "--format")
        value = constant_ratio_annuity_value(10.0, 0.1, 300)
        assert value > 1e298
        outputs = {fmt: run(*argv, fmt) for fmt in ("table", "csv", "json")}
        assert all(code == 0 and err == "" for code, _, err in outputs.values())
        table = outputs["table"][1].strip()
        assert outputs["csv"][1] == f"value,{table}\n"
        assert json.loads(outputs["json"][1])["value"] == value
        assert float(table) == value


class TestEachCallRendersOnce:
    """A call builds only the format it prints, and computes each NPV once."""

    def test_table_and_csv_build_no_json_payload(self, run, project_files, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a JSON payload was built")

        for module, name in (
            (amortization, "schedule_to_dict"),
            (amortization, "schedule_to_json"),
            (projects, "analysis_to_dict"),
            (projects, "comparison_to_dict"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        reductions = tmp_path / "reductions.json"
        reductions.write_text("[100, 300, 600]")
        calls = [
            ["amort", "level", "--pv", "1000", "--i", "0.1", "--n", "5"],
            ["amort", "general", "--file", str(reductions), "--i", "0.1"],
            ["amort", "sinking", "--v", "1000", "--i", "0.1", "--r", "0.05", "--n", "5"],
            ["irr", project_files["A"], "--npv-at", "0.1,0.12"],
            ["irr", project_files["A"], project_files["B"], "--compare"],
        ]
        for argv in calls:
            for fmt in ("table", "csv"):
                code, out, err = run(*argv, "--format", fmt)
                assert (code, err) == (0, "") and out, (argv, fmt)
            with pytest.raises(AssertionError, match="JSON payload"):
                main([*argv, "--format", "json"])

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_irr_computes_each_npv_once(self, run, project_files, monkeypatch, fmt):
        calls = []

        def counted(project, rate):
            calls.append((project.name, rate))
            return real_npv(project, rate)

        real_npv = projects.npv
        monkeypatch.setattr(projects, "npv", counted)
        code, _, err = run("irr", project_files["A"], "--npv-at", "0.1,0.12", "--format", fmt)
        assert (code, err) == (0, "")
        assert calls == [("A", 0.1), ("A", 0.12)]
        calls.clear()
        code, _, err = run("irr", project_files["A"], project_files["B"], "--compare", "--format", fmt)
        assert (code, err) == (0, "")
        assert sorted(calls) == sorted((name, rate) for name in ("A", "B", "A-B") for rate in (0.1, 0.12))


class TestDeterminismAndExitCodes:
    def test_byte_identical_repeat(self, run, project_files):
        first = run("irr", project_files["A"], project_files["B"], "--compare", "--format", "json")
        second = run("irr", project_files["A"], project_files["B"], "--compare", "--format", "json")
        assert first == second

    def test_no_arguments_is_usage_error(self, run):
        code, _, err = run()
        assert code == 1

    def test_help_exits_zero(self, run):
        code, out, _ = run("--help")
        assert code == 0
        assert "tvm" in out

    def test_one_parser_parses_every_command_again_and_again(self):
        # subcommand parsers are filled in on first use; reuse must not change a result
        commands = [
            ["tvm", "bal", "--rate", "0.01", "--n", "360", "--k", "120"],
            ["amort", "sinking", "--v", "1000", "--i", "0.1", "--r", "0.05", "--n", "5", "--format", "csv"],
            ["caprate", "ellwood", "--m", "0.7", "--i", "0.09", "--months", "300", "--hold", "10", "--y", "0.14"],
            ["caprate", "hoskold", "--i", "0.1", "--is", "0.03", "--n", "10", "--precision", "6"],
            ["value", "offset", "--d", "100", "--h", "1", "--m", "1.1", "--b", "0", "--c", "1", "--i", "0.1", "--n", "5"],
            ["irr", "A.json", "B.json", "--compare", "--npv-at", "0.1,0.12", "--bounds", "0,1"],
        ]
        parser = build_parser()
        for argv in commands + commands[::-1]:
            assert parser.parse_args(argv) == build_parser().parse_args(argv)


def _loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code."""
    env = dict(os.environ)
    src = str(Path(propval.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code += "\nimport sys; print(' '.join(sys.modules), file=sys.stderr)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_cli_import_leaves_numpy_unloaded():
    assert "numpy" not in _loaded_after("import propval.cli")


def test_package_import_loads_no_module():
    assert {name for name in _loaded_after("import propval") if name.startswith("propval")} == {"propval"}


# records are named tuples, so no call pays for dataclasses and the inspect module it loads
NEVER_LOADED = {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (
            ["tvm", "annuity", "--rate", "0.1", "--n", "10"],
            {"propval.projects", "propval.amortization", "propval.capitalization", "propval.recurrence",
             "decimal", "json"},
        ),
        # the last row's ending balance is a tiny negative that prints as 0.00
        (["amort", "level", "--pv", "1000", "--i", "0.01", "--n", "12", "--format", "table"],
         {"decimal", "json", "propval.projects"}),
        (
            ["caprate", "ellwood-j", "--m", "0.7", "--i", "0.09", "--months", "300", "--hold", "10",
             "--y", "0.14", "--delta", "0.2"],
            {"propval.projects", "propval.amortization", "propval.recurrence", "json"},
        ),
        (
            ["value", "offset", "--d", "100", "--h", "1", "--m", "1.1", "--b", "0", "--c", "1",
             "--i", "0.1", "--n", "5", "--format", "csv"],
            {"propval.projects", "propval.amortization", "propval.capitalization", "json"},
        ),
        (["irr", "PROJECT", "--npv-at", "0.1"], {"propval.amortization"}),
        # the schedule's JSON rows print through a template, and its residual is appended to them
        (["amort", "sinking", "--v", "1000", "--i", "0.1", "--r", "0.05", "--n", "5", "--format", "json"],
         {"decimal", "json", "propval.projects"}),
    ],
    ids=["tvm", "amort-level-table", "caprate-ellwood-j", "value-offset", "irr", "amort-sinking-json"],
)
def test_cli_call_loads_only_what_it_uses(tmp_path, argv, unloaded):
    project = tmp_path / "A.json"
    project.write_text(json.dumps({"name": "A", "cashflows": [-1000, 200, 200, 1200]}))
    argv = [str(project) if arg == "PROJECT" else arg for arg in argv]
    loaded = _loaded_after(f"from propval.cli import main; assert main({argv!r}) == 0")
    assert loaded & (unloaded | NEVER_LOADED) == set()
