"""Command line exit codes and option plumbing.

Exit codes are a stable contract: 0 success, 2 usage error, 3 model
error, 4 numeric failure.  Every case stops early or runs a handful of
integrations, so the module stays cheap.
"""

import argparse
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import polycycles
from polycycles.cli import main
from polycycles.errors import UsageError

MODELS = Path(__file__).resolve().parents[1] / "models"
FOUR = str(MODELS / "four_saddle.model")
SQUARE = str(MODELS / "integrable_square.model")
CIRCLE = str(MODELS / "circle_cycle.model")


USAGE = {
    "unknown-tol": ["analyze", "--model", FOUR, "--tol", "speed=1"],
    "unreadable-tol": ["analyze", "--model", FOUR, "--tol", "rtol=abc"],
    "undeclared-set": ["analyze", "--model", FOUR, "--set", "zz=1"],
    "unreadable-set": ["scan", "--model", FOUR, "--grid", "l1=0.3:0.3:1", "--set", "l2=abc"],
    # the same limit as samples, fit_points and a scan's grid
    "compose-check-count-huge": ["compose-check", "--count", "100000000000"],
    "compose-check-count-negative": ["compose-check", "--count", "-1"],
    "fit-points-3": ["oracle", "--what", "dulac", "--corner", "1", "--model", FOUR,
                     "--tol", "fit_points=3"],
    "fit-points-fractional": ["oracle", "--what", "dulac", "--corner", "1", "--model", FOUR,
                              "--tol", "fit_points=7.5"],
    # the default grid's 35th point, 5.8e-13, lies below the window's 1e-12
    "fit-points-40": ["oracle", "--what", "return", "--model", FOUR, "--tol", "fit_points=40"],
    # the circle's window starts at 0.2, above the default grid's 1e-2
    "return-default-grid-outside-window": ["oracle", "--what", "return", "--model", CIRCLE],
    "samples-1": ["oracle", "--what", "cycles", "--model", CIRCLE, "--s-range", "0.3:2.0",
                  "--tol", "samples=1"],
    "undeclared-grid": ["scan", "--model", FOUR, "--grid", "zz=0:1:3"],
    "grid-count-0": ["scan", "--model", FOUR, "--grid", "l1=0:1:0"],
    "grid-too-large": ["scan", "--model", FOUR, "--grid", "l1=0:1:1001",
                       "--grid", "l2=0:1:1000"],
    "s-range-reversed": ["oracle", "--what", "return", "--model", FOUR,
                         "--s-range", "2:1"],
    "s-range-outside-window": ["oracle", "--what", "return", "--model", FOUR,
                               "--s-range", "1e-3:5"],
    "s-range-unreadable": ["oracle", "--what", "cycles", "--model", CIRCLE,
                           "--s-range", "abc"],
    "cycles-s-range-outside-window": ["oracle", "--what", "cycles", "--model", CIRCLE,
                                      "--s-range", "3:5"],
    "dulac-without-corner": ["oracle", "--what", "dulac", "--model", FOUR],
    "dulac-corner-9": ["oracle", "--what", "dulac", "--corner", "9", "--model", FOUR],
    "return-with-corner": ["oracle", "--what", "return", "--corner", "2", "--model", FOUR],
    "cycles-with-corner": ["oracle", "--what", "cycles", "--corner", "1", "--model", CIRCLE,
                           "--s-range", "0.3:2.0"],
    "dulac-s-range-outside-window": ["oracle", "--what", "dulac", "--corner", "1",
                                     "--model", FOUR, "--s-range", "0.1:3"],
    # out-of-range values that would otherwise reach the integrator or the identity probe
    "t_max-nan": ["oracle", "--what", "return", "--model", FOUR, "--tol", "t_max=nan"],
    "t_max-inf": ["oracle", "--what", "return", "--model", FOUR, "--tol", "t_max=inf"],
    "atol-0": ["oracle", "--what", "cycles", "--model", CIRCLE, "--s-range", "0.3:2.0",
               "--tol", "atol=0"],
    "rtol-0": ["analyze", "--model", SQUARE, "--tol", "rtol=0"],
    "rtol-negative": ["analyze", "--model", SQUARE, "--tol", "rtol=-1"],
    "zero_tol-negative": ["analyze", "--model", SQUARE, "--tol", "zero_tol=-1"],
    # numbers past the float range, and counts past the scan grid's limit
    "set-out-of-range": ["analyze", "--model", FOUR, "--set", "l1=1e400"],
    "scan-set-out-of-range": ["scan", "--model", FOUR, "--grid", "l1=0.3:0.3:1",
                              "--set", "l2=1e400"],
    "samples-1e13": ["oracle", "--what", "cycles", "--model", CIRCLE, "--s-range", "0.3:2.0",
                     "--tol", "samples=1e13"],
    "fit-points-1e13": ["oracle", "--what", "return", "--model", FOUR,
                        "--tol", "fit_points=1e13"],
    "grid-nan": ["scan", "--model", FOUR, "--grid", "l1=nan:0.5:2"],
    "grid-out-of-range": ["scan", "--model", FOUR, "--grid", "l1=1e400:1e401:2"],
    "grid-span-out-of-range": ["scan", "--model", FOUR, "--grid", "l1=-1.7e308:1.7e308:3"],
    # a name given twice is refused, not overridden
    "grid-repeated": ["scan", "--model", FOUR, "--grid", "l1=0.3:0.4:2",
                      "--grid", "l1=0.5:0.6:2"],
    "grid-and-set": ["scan", "--model", FOUR, "--grid", "l1=0.3:0.4:2", "--set", "l1=0.9"],
    "set-repeated": ["analyze", "--model", FOUR, "--set", "l1=0.3", "--set", "l1=0.31"],
    "tol-repeated": ["oracle", "--what", "return", "--model", FOUR,
                     "--tol", "rtol=1e-9", "--tol", "rtol=1e-8"],
    # "--set expects NAME=VALUE" and "--grid expects NAME=START:STOP:COUNT"
    "set-without-value": ["analyze", "--model", FOUR, "--set", "l1"],
    "grid-without-count": ["scan", "--model", FOUR, "--grid", "l1=0.3:0.6"],
}


@pytest.mark.parametrize("argv", list(USAGE.values()), ids=list(USAGE))
def test_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize("what", [["return"], ["dulac", "--corner", "1"]], ids=["return", "dulac"])
def test_infinite_s_range_top_is_checked_before_the_grid(what, capsys):
    # the window check comes first, so numpy never builds a grid up to inf
    assert main(["oracle", "--what", *what, "--model", FOUR, "--s-range", "1e-6:inf"]) == 2
    assert capsys.readouterr().err == ("usage error: s range 1e-06:inf leaves the section "
                                       "window 1e-12:0.45\n")


@pytest.mark.parametrize("what", [["return"], ["dulac", "--corner", "1"], ["cycles"]],
                         ids=["return", "dulac", "cycles"])
def test_one_window_rule_for_every_oracle(what, capsys):
    # a range that passes the window's top is refused, never clipped
    assert main(["oracle", "--what", *what, "--model", FOUR, "--s-range", "1e-6:0.9"]) == 2
    assert capsys.readouterr().err == ("usage error: s range 1e-06:0.9 leaves the section "
                                       "window 1e-12:0.45\n")


def test_cycles_default_range_covers_a_window_past_1e_1(run_doc):
    # the circle's window 0.2:2.5 misses 1e-6:1e-1, so the scan takes it whole
    doc = run_doc(["oracle", "--what", "cycles", "--model", CIRCLE])
    assert doc["range"] == [0.2, 2.5]
    assert [c["stability"] for c in doc["cycles"]] == ["stable"]
    assert abs(doc["cycles"][0]["s"] - 1.0) < 1e-8


def test_cycles_default_range_is_clipped_to_the_window(run_doc):
    doc = run_doc(["oracle", "--what", "cycles", "--model", FOUR, "--tol", "samples=2"])
    assert doc["range"] == [1e-6, 0.1]


def test_cycles_default_range_needs_a_finite_window(circle_mf):
    # a window wholly above 1e-1 and without a top leaves no range to take
    from dataclasses import replace

    from polycycles.pipeline import oracle_cycles

    sect = replace(circle_mf.base_section, window=(0.2, math.inf))
    with pytest.raises(UsageError, match="0.2:inf does not meet .* give --s-range"):
        oracle_cycles(replace(circle_mf, base_section=sect))


@pytest.mark.parametrize("argv", [
    ["scan", "--model", FOUR, "--grid", "l1=0.3:0.3:1", "--tol", "rtol=1e-6"],
    ["compose-check", "--count", "0", "--tol", "rtol=1e-6"],
], ids=["scan", "compose-check"])
def test_tol_only_where_options_take_effect(argv, capsys):
    assert main(argv) == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_huge_grid_axis_rejected_before_allocation(monkeypatch, capsys):
    # a single axis of 2e9 points would need 16 GB if built before the size check
    def no_axes(*args, **kwargs):
        raise AssertionError("grid axis built before the size check")
    monkeypatch.setattr(np, "linspace", no_axes)
    assert main(["scan", "--model", FOUR, "--grid", "l1=0:1:2000000000"]) == 2
    assert "the limit is 1000000" in capsys.readouterr().err


@pytest.mark.parametrize("l1, message", [
    ("1000", "Mellin order alpha=1000 is past 150"),
    ("10000", "Mellin order alpha=10000 is past 150"),
    ("1e300", "Mellin order alpha=1e+300 is past 150"),
])
def test_large_ratio_exits_4(l1, message, capsys):
    # a corner ratio past the Mellin order bound fails before any series is
    # built; at 1e4 h_out**lam underflowed, at 1e300 the series overflowed numpy
    assert main(["analyze", "--model", FOUR, "--set", f"l1={l1}"]) == 4
    assert message in capsys.readouterr().err


def test_large_ratio_keeps_a_failing_unused_s_as_a_note(run_doc):
    # at l1 = 100 the Mellin tail of corner 4's S2 does not converge; the
    # corner is above one and uses S1 only, so S2 becomes a note
    doc = run_doc(["analyze", "--model", FOUR, "--set", "l1=100"])
    corner = doc["corners"][3]
    assert (corner["case"], corner["s2"]) == ("above-one", None)
    assert corner["s1"] == pytest.approx(8.223015943794277, rel=1e-9)
    (note,) = corner["notes"]
    assert note.startswith("S2 unavailable: Mellin tail quadrature did not converge")


def test_large_ratio_is_a_scan_error_cell(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--model", FOUR, "--grid", "l1=0.3:1e300:2", "--out", str(out)]) == 0
    header, good, bad = out.read_text(encoding="utf-8").splitlines()
    assert header.endswith(",error") and good.endswith(",")
    assert bad.startswith("1e+300,nan,") and "Mellin order alpha=1e+300 is past 150" in bad


def test_missing_model_exits_3(tmp_path, capsys):
    assert main(["analyze", "--model", str(tmp_path / "absent.model")]) == 3
    assert "cannot read model file" in capsys.readouterr().err


def test_model_file_that_is_not_utf8_exits_3(tmp_path, capsys):
    path = tmp_path / "square.model"
    path.write_bytes(Path(SQUARE).read_bytes() + b"# \xff\n")
    assert main(["analyze", "--model", str(path)]) == 3
    assert "cannot read model file" in capsys.readouterr().err


@pytest.mark.parametrize("dot_x, message", [
    ("(" * 300 + "x" + ")" * 300, "expression nested more than 100 deep (line 1, column 101)"),
    ("-" * 2000 + "x", "expression nested more than 100 deep (line 1, column 101)"),
    ("x^\u00b2", "unexpected character '\u00b2' (line 1, column 3)"),
    ("\u00b2*x", "unexpected character '\u00b2' (line 1, column 1)"),
    ("x/y", "division by a non-constant expression"),
], ids=["parentheses-300", "minus-signs-2000", "superscript-exponent", "superscript-factor",
        "division-by-y"])
def test_hostile_field_expressions_exit_3(dot_x, message, tmp_path, capsys):
    path = tmp_path / "square.model"
    text = Path(SQUARE).read_text(encoding="utf-8")
    assert "dot_x = x*(x - 1)*(y - a)" in text
    path.write_text(text.replace("dot_x = x*(x - 1)*(y - a)", f"dot_x = {dot_x}"),
                    encoding="utf-8")
    assert main(["analyze", "--model", str(path)]) == 3
    assert capsys.readouterr().err == f"model error: [field] dot_x: {message}\n"


@pytest.mark.parametrize("extra", ["[options]\ns_lo = 1e-3\n", "[sections]\nh = 0.25\n"],
                         ids=["options-s_lo", "sections-h"])
def test_removed_model_keys_exit_3(extra, tmp_path, capsys):
    path = tmp_path / "square.model"
    path.write_text(Path(SQUARE).read_text(encoding="utf-8") + "\n" + extra,
                    encoding="utf-8")
    assert main(["scan", "--model", str(path), "--grid", "a=0.4:0.4:1"]) == 3
    assert "unknown" in capsys.readouterr().err


@pytest.mark.parametrize("corners, message", [
    ("0,1 0,0 1,0 1,1", "line 16: expected a list of (x,y) pairs, got '0,1 0,0 1,0 1,1'"),
    ("(0,1) (0,0) (1e-13,0) (1,0) (1,1)", "corner 2: zero-length polycycle edge"),
], ids=["unparenthesized", "zero-length-edge"])
def test_bad_corner_lists_exit_3(corners, message, tmp_path, capsys):
    path = tmp_path / "square.model"
    text = Path(SQUARE).read_text(encoding="utf-8")
    assert "corners = (0,1) (0,0) (1,0) (1,1)" in text
    path.write_text(text.replace("corners = (0,1) (0,0) (1,0) (1,1)", f"corners = {corners}"),
                    encoding="utf-8")
    assert main(["analyze", "--model", str(path)]) == 3
    assert capsys.readouterr().err == f"model error: {message}\n"


def test_reversed_traversal_exits_3(tmp_path, capsys):
    text = Path(SQUARE).read_text(encoding="utf-8").replace(
        "corners = (0,1) (0,0) (1,0) (1,1)", "corners = (0,1) (1,1) (1,0) (0,0)").replace(
        "orientation = ccw", "orientation = cw")
    path = tmp_path / "reversed.model"
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", "--model", str(path)]) == 3
    assert "lies on the unstable axis" in capsys.readouterr().err


@pytest.mark.parametrize("extra", ["fit_points = 3", "fit_points = 7.5", "samples = 1",
                                   "samples = 5/2"],
                         ids=["fit_points-3", "fit_points-fractional", "samples-1",
                              "samples-fractional"])
def test_bad_count_options_exit_3(extra, tmp_path, capsys):
    path = tmp_path / "square.model"
    path.write_text(Path(SQUARE).read_text(encoding="utf-8") + "\n[options]\n" + extra + "\n",
                    encoding="utf-8")
    assert main(["analyze", "--model", str(path)]) == 3
    assert "must be an integer >=" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    ("l1 = 8/27", "l1 = 1e400", "line 8: number '1e400' is out of the float range"),
    ("corners = (0,1)", "corners = (1e400,1)",
     "line 19: number '1e400' is out of the float range"),
    ("orientation = ccw", "orientation = ccw\n[options]\nrtol = 1e400",
     "line 22: number '1e400' is out of the float range"),
    ("orientation = ccw", "orientation = ccw\n[options]\nsamples = 1e13",
     "option samples must be an integer >= 2 and <= 1000000"),
    ("orientation = ccw", "orientation = ccw\n[options]\nfit_points = 1e13",
     "option fit_points must be an integer >= 4 and <= 1000000"),
    # p^2 at p = 1e200 is finite as a rational, not as a float
    ("dot_x = x*(x - 1)*(", "dot_x = (10^200)^2*x*(x - 1)*(",
     "[field] dot_x: the coefficient of x^"),
], ids=["param", "corner", "rtol", "samples", "fit_points", "coefficient"])
def test_out_of_range_model_numbers_exit_3(old, new, message, tmp_path, capsys):
    path = tmp_path / "four_saddle.model"
    text = Path(FOUR).read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["analyze", "--model", str(path)]) == 3
    assert message in capsys.readouterr().err


def test_a_huge_literal_power_exits_3_at_once(tmp_path, capsys):
    # the exact power loop would run 99999999 times; the degree cap refuses it first
    path = tmp_path / "four_saddle.model"
    text = Path(FOUR).read_text(encoding="utf-8")
    path.write_text(text.replace("dot_x = x*(x - 1)*(", "dot_x = x^99999999*(x - 1)*("),
                    encoding="utf-8")
    start = time.perf_counter()
    assert main(["analyze", "--model", str(path)]) == 3
    assert time.perf_counter() - start < 1.0
    assert "power ^99999999 of an expression of degree 1 passes degree 100" in \
        capsys.readouterr().err


def test_a_huge_constant_power_exits_3_at_once(tmp_path, capsys):
    # a constant base is one Fraction power, after a bound on its bits
    path = tmp_path / "four_saddle.model"
    text = Path(FOUR).read_text(encoding="utf-8")
    path.write_text(text.replace("dot_x = x*(x - 1)*(", "dot_x = 2^99999999*x*(x - 1)*("),
                    encoding="utf-8")
    start = time.perf_counter()
    assert main(["analyze", "--model", str(path)]) == 3
    assert time.perf_counter() - start < 1.0
    assert "power ^99999999 of a constant passes 65536 bits" in capsys.readouterr().err


@pytest.mark.parametrize("direction", ["(0,0)", "(1e-300,0)"], ids=["zero", "underflow"])
def test_degenerate_base_direction_exits_3(direction, tmp_path, capsys):
    # (1e-300, 0) has a positive length but a squared length of 0.0, which
    # the section parameter divides by
    path = tmp_path / "circle.model"
    path.write_text(Path(CIRCLE).read_text(encoding="utf-8").replace(
        "base_direction = (1,0)", f"base_direction = {direction}"), encoding="utf-8")
    argv = ["oracle", "--what", "return", "--model", str(path), "--s-range", "0.3:2"]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(
        "model error: [sections] base_direction: section direction must be nonzero")


def test_zero_rtol_option_exits_3(tmp_path, capsys):
    path = tmp_path / "square.model"
    path.write_text(Path(SQUARE).read_text(encoding="utf-8") + "\n[options]\nrtol = 0\n",
                    encoding="utf-8")
    assert main(["analyze", "--model", str(path)]) == 3
    assert "option rtol must be finite and > 0" in capsys.readouterr().err


def test_division_by_a_zero_parameter_exits_3(tmp_path, capsys):
    path = tmp_path / "circle.model"
    path.write_text(Path(CIRCLE).read_text(encoding="utf-8").replace(
        "dot_x = -y + x*(1 - x^2 - y^2)", "dot_x = -y + x*(1 - x^2 - y^2)*(d/d)")
        + "\n[params]\nd = 1\n", encoding="utf-8")
    assert main(["analyze", "--model", str(path), "--set", "d=0"]) == 3
    assert capsys.readouterr().err == "model error: [field] dot_x: division by zero\n"
    # scan's error cell carries the same text
    out = tmp_path / "scan.csv"
    assert main(["scan", "--model", str(path), "--grid", "d=0:0:1", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").splitlines()[1].endswith(
        ",[field] dot_x: division by zero")


def test_every_cycle_sample_failing_exits_4(capsys):
    argv = ["oracle", "--what", "cycles", "--model", CIRCLE, "--s-range", "0.3:2.0",
            "--tol", "t_max=0.01", "--tol", "samples=5"]
    assert main(argv) == 4
    assert "too few displacement samples" in capsys.readouterr().err


RETURN = ["oracle", "--what", "return", "--model", FOUR]

OVERFLOWING = """\
[params]
k = 1e308

[field]
dot_x = -y + k*x^2
dot_y = x

[sections]
base_anchor = (0,0)
base_direction = (1,0)
"""


@pytest.mark.parametrize("what, s_range, message", [
    # every start on [1.5, 2] has k*x^2 = inf
    ("return", "1.5:2", "every sample failed; a fit needs at least 4; first failure at s=2: "
     "integration failed: the field is (inf, 2.0) at the start (2, 0)"),
    # further in, the field is finite, but its size over atol + |x|*rtol
    # overflows and the first trial step is 0; the scan drops every sample
    ("cycles", "0.3:2", "too few displacement samples for a scan"),
], ids=["return", "cycles"])
def test_an_integration_that_cannot_start_exits_4(what, s_range, message, tmp_path, capsys):
    path = tmp_path / "overflowing.model"
    path.write_text(OVERFLOWING, encoding="utf-8")
    argv = ["oracle", "--what", what, "--model", str(path), "--s-range", s_range]
    assert main(argv) == 4
    assert capsys.readouterr().err == f"numeric failure: {message}\n"


def test_failing_return_samples_leave_the_fit_running(run_doc):
    # below s ~ 2e-5 the orbit needs longer than t_max = 40 to come back
    doc = run_doc(RETURN + ["--s-range", "1e-9:1e-2", "--tol", "t_max=40"])
    rows = doc["samples"]
    failed = [row for row in rows if row["value"] is None]
    assert (len(rows), len(failed)) == (13, 8)
    assert all(row["error"] == "orbit did not return to the section window within t_max=40"
               and row["gap"] is None for row in failed)
    assert doc["fit_free"]["grid"] == [row["s"] for row in rows if row["value"] is not None]


@pytest.mark.parametrize("argv, reason", [
    (["--model", CIRCLE, "--s-range", "0.3:2"], "model declares no polycycle"),
    (["--model", FOUR, "--set", "l2=1.000001"],
     "Mellin order alpha=0.9999990000010001 is within 1e-06 of the pole at 1"),
], ids=["circle", "four-saddle-on-a-pole"])
def test_return_integrates_without_a_closed_form(argv, reason, run_doc):
    doc = run_doc(["oracle", "--what", "return"] + argv)
    assert doc["closed_form"] == {"unavailable": reason}
    rows = doc["samples"]
    assert sum(row["value"] is not None for row in rows) >= 12
    assert all(row["two_term"] is None and row["gap"] is None for row in rows)


def test_every_return_sample_failing_exits_4(capsys):
    assert main(RETURN + ["--tol", "t_max=20"]) == 4
    assert "every sample failed" in capsys.readouterr().err


@pytest.mark.parametrize("argv, why", [
    (RETURN + ["--s-range", "1e-9:1e-2", "--tol", "t_max=35"],
     "orbit did not return to the section window within t_max=35"),
    (["oracle", "--what", "dulac", "--corner", "2", "--model", FOUR,
      "--s-range", "1e-9:1e-2", "--tol", "t_max=8"],
     "orbit left the chart without reaching the exit section"),
], ids=["return", "dulac"])
def test_too_few_samples_for_a_fit_exit_4(argv, why, capsys):
    # the three largest s come back within t_max, the ten smaller do not; no
    # document is written, so the message names the first failing s and why
    assert main(argv) == 4
    assert capsys.readouterr().err.endswith(
        "only 3 of 13 samples succeeded; a fit needs at least 4; "
        f"first failure at s=0.000177828: {why}\n")


def test_dulac_fit_at_the_fewest_points_keeps_the_leading_offset(run_doc):
    doc = run_doc(["oracle", "--what", "dulac", "--corner", "1", "--model", FOUR,
                   "--tol", "fit_points=4"])
    pinned = doc["fit_pinned"]
    assert pinned["notes"] == ["lattice truncated to leave 3 degrees of freedom"]
    assert pinned["second_exponent"] is None
    assert doc["deviation"]["leading"] < 0.1


@pytest.mark.parametrize("extra, clean", [([], 11), (["--s-range", "1e-7:1e-3"], 13)],
                         ids=["default-grid", "s-range"])
def test_dulac_integrates_without_a_closed_form(extra, clean, run_doc):
    # near the pole at 1 the orbits from s = 1e-2 and 5e-3 turn back before
    # the exit line u = 0.5; every smaller s crosses it
    doc = run_doc(["oracle", "--what", "dulac", "--corner", "2", "--model", FOUR,
                   "--set", "l2=1.000001"] + extra)
    assert doc["closed_form"] == {
        "unavailable": "Mellin order alpha=0.9999990000010001 is within 1e-06 of the pole at 1"}
    rows = doc["samples"]
    assert (len(rows), sum(row["error"] is None for row in rows)) == (13, clean)
    assert doc["deviation"]["leading"] is None
    assert doc["deviation"]["exponent"] < 1e-7


def test_one_point_scan_exits_0(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--model", FOUR, "--grid", "l1=0.3:0.3:1", "--out", str(out)]) == 0
    lines = out.read_bytes().decode("utf-8").split("\r\n")
    assert lines[0].startswith("l1,r_minus_1,")
    assert lines[1].startswith("0.3,") and lines[1].endswith(",")  # no error cell
    assert lines[2] == ""


def test_fit_points_reaches_an_explicit_s_range(run_doc):
    doc = run_doc(["oracle", "--what", "dulac", "--corner", "1", "--model", FOUR,
                   "--s-range", "1e-4:1e-2", "--tol", "fit_points=7"])
    assert doc["provenance"]["tolerances"]["fit_points"] == 7.0
    svals = [row["s"] for row in doc["samples"]]
    assert len(svals) == 7
    assert svals[0] == pytest.approx(1e-2, rel=1e-12)
    assert svals[-1] == pytest.approx(1e-4, rel=1e-12)


def test_integration_tolerances_reach_the_integrator(run_doc, tmp_path):
    # model options set the grid; --tol overrides the integrator tolerances
    path = tmp_path / "square.model"
    path.write_text(Path(SQUARE).read_text(encoding="utf-8")
                    + "\n[options]\nfit_points = 4\n", encoding="utf-8")
    argv = ["oracle", "--what", "return", "--model", str(path), "--s-range", "1e-3:1e-1"]
    tight = run_doc(argv)
    loose = run_doc(argv + ["--tol", "rtol=1e-6", "--tol", "atol=1e-9"])
    assert loose["provenance"]["tolerances"]["rtol"] == 1e-6
    a = [row["value"] for row in tight["samples"]]
    b = [row["value"] for row in loose["samples"]]
    assert len(a) == len(b) == 4
    assert a != b
    # the return map is the identity here; rtol=1e-6 still lands within 1e-5
    assert b == pytest.approx(a, rel=0.0, abs=1e-5)


def test_importing_the_cli_leaves_mpmath_unloaded():
    # only compose-check needs mpmath; it loads when the command first runs
    src = str(Path(polycycles.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, polycycles.cli as cli\n"
            "print('mpmath' in sys.modules)\n"
            "from polycycles import CheckReport, run_compose_check\n"
            "print('mpmath' in sys.modules, cli.run_compose_check is run_compose_check,\n"
            "      run_compose_check(1, 0) == CheckReport(seed=1, count=0, bias=0.0, cases=()))\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "True", "True", "True"]


def test_start_up_leaves_numpy_unloaded(tmp_path):
    # numpy loads with the first bind or numeric layer, not with the package,
    # the CLI, --version, a usage error or compose-check; the CLI loads the
    # layers below the numeric ones and nothing else
    src = str(Path(polycycles.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = str(tmp_path / "doc.txt")
    code = ("import contextlib, io, sys\n"
            "import polycycles.cli as cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('polycycles')),\n"
            "      'mpmath' in sys.modules)\n"
            "loaded = ['numpy' in sys.modules]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['--version'])]\n"
            "loaded.append('numpy' in sys.modules)\n"
            "for argv in (['analyze'], ['compose-check', '--count', '-1']):\n"
            "    codes.append(cli.main(argv))\n"
            "    loaded.append('numpy' in sys.modules)\n"
            f"codes.append(cli.main(['compose-check', '--count', '2', '--out', {out!r}]))\n"
            "loaded.append('numpy' in sys.modules)\n"
            f"codes.append(cli.main(['analyze', '--model', {SQUARE!r}, '--out', {out!r}]))\n"
            "loaded.append('numpy' in sys.modules)\n"
            "print(codes, loaded)\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    modules, docs = run.stdout.splitlines()
    assert modules == str([f"polycycles{m}" for m in ("", ".cli", ".errors", ".expressions",
                                                      ".model", ".resultdoc")]) + " False"
    assert docs == "[0, 2, 2, 0, 0] [False, False, False, False, False, True]"


def test_the_parser_is_built_once(monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    assert main(["analyze"]) == 2
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["analyze"]) == 2
    assert built == []


# each command and the module attribute it reads its entry point from
ENTRY_POINTS = {
    "analyze": ["analyze", "--model", SQUARE],
    "oracle_dulac": ["oracle", "--what", "dulac", "--corner", "1", "--model", FOUR],
    "oracle_return": ["oracle", "--what", "return", "--model", FOUR],
    "oracle_cycles": ["oracle", "--what", "cycles", "--model", CIRCLE],
    "scan": ["scan", "--model", FOUR, "--grid", "l1=0.3:0.3:1"],
    "load_model": ["analyze", "--model", FOUR],
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_commands_run_through_the_module_attribute(name, monkeypatch):
    # a replacement on the module, as the benchmark's tracer makes, is what runs
    from polycycles import cli

    class Called(Exception):
        pass

    def fake(*args, **kwargs):
        raise Called(args)

    monkeypatch.setattr(cli, name, fake)
    with pytest.raises(Called):
        cli.main(ENTRY_POINTS[name])


def test_compose_check_runs_through_the_module_attribute(monkeypatch, run_doc):
    # the command looks run_compose_check up on the module, so a replacement there takes effect
    from polycycles import cli
    from polycycles.composecheck import CheckReport

    calls = []

    def fake(seed, count, bias=0.0):
        calls.append((seed, count, bias))
        return CheckReport(seed=seed, count=count, bias=bias, cases=())

    monkeypatch.setattr(cli, "run_compose_check", fake)
    doc = run_doc(["compose-check", "--seed", "9", "--count", "4"])
    assert calls == [(9, 4, 0.0)]
    assert (doc["seed"], doc["count"], doc["passed"]) == (9, 4, True)
