"""Command line exit codes and option plumbing.

Exit codes are a stable contract: 0 success, 2 usage error, 3 model
error, 4 numeric failure.  Every case stops early or runs a handful of
integrations, so the module stays cheap.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polycycles
from polycycles.cli import main
from polycycles.resultdoc import loads

MODELS = Path(__file__).resolve().parents[1] / "models"
FOUR = str(MODELS / "four_saddle.model")
SQUARE = str(MODELS / "integrable_square.model")
CIRCLE = str(MODELS / "circle_cycle.model")


def run_doc(argv, out):
    assert main(argv + ["--out", str(out)]) == 0
    return loads(out.read_text(encoding="utf-8"))


USAGE = {
    "unknown-tol": ["analyze", "--model", FOUR, "--tol", "speed=1"],
    "unreadable-tol": ["analyze", "--model", FOUR, "--tol", "rtol=abc"],
    "undeclared-set": ["analyze", "--model", FOUR, "--set", "zz=1"],
    "unreadable-set": ["scan", "--model", FOUR, "--grid", "l1=0.3:0.3:1", "--set", "l2=abc"],
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
}


@pytest.mark.parametrize("argv", list(USAGE.values()), ids=list(USAGE))
def test_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("usage error:")


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


def test_missing_model_exits_3(tmp_path, capsys):
    assert main(["analyze", "--model", str(tmp_path / "absent.model")]) == 3
    assert "cannot read model file" in capsys.readouterr().err


@pytest.mark.parametrize("extra", ["[options]\ns_lo = 1e-3\n", "[sections]\nh = 0.25\n"],
                         ids=["options-s_lo", "sections-h"])
def test_removed_model_keys_exit_3(extra, tmp_path, capsys):
    path = tmp_path / "square.model"
    path.write_text(Path(SQUARE).read_text(encoding="utf-8") + "\n" + extra,
                    encoding="utf-8")
    assert main(["scan", "--model", str(path), "--grid", "a=0.4:0.4:1"]) == 3
    assert "unknown" in capsys.readouterr().err


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


def test_failing_return_samples_leave_the_fit_running(tmp_path):
    # below s ~ 2e-5 the orbit needs longer than t_max = 40 to come back
    doc = run_doc(RETURN + ["--s-range", "1e-9:1e-2", "--tol", "t_max=40"],
                  tmp_path / "return.txt")
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
def test_return_integrates_without_a_closed_form(argv, reason, tmp_path):
    doc = run_doc(["oracle", "--what", "return"] + argv, tmp_path / "return.txt")
    assert doc["closed_form"] == {"unavailable": reason}
    rows = doc["samples"]
    assert sum(row["value"] is not None for row in rows) >= 12
    assert all(row["two_term"] is None and row["gap"] is None for row in rows)


def test_every_return_sample_failing_exits_4(capsys):
    assert main(RETURN + ["--tol", "t_max=20"]) == 4
    assert "every sample failed" in capsys.readouterr().err


def test_one_point_scan_exits_0(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--model", FOUR, "--grid", "l1=0.3:0.3:1", "--out", str(out)]) == 0
    lines = out.read_bytes().decode("utf-8").split("\r\n")
    assert lines[0].startswith("l1,r_minus_1,")
    assert lines[1].startswith("0.3,") and lines[1].endswith(",")  # no error cell
    assert lines[2] == ""


def test_fit_points_reaches_an_explicit_s_range(tmp_path):
    doc = run_doc(["oracle", "--what", "dulac", "--corner", "1", "--model", FOUR,
                   "--s-range", "1e-4:1e-2", "--tol", "fit_points=7"],
                  tmp_path / "dulac.txt")
    assert doc["provenance"]["tolerances"]["fit_points"] == 7.0
    svals = [row["s"] for row in doc["samples"]]
    assert len(svals) == 7
    assert svals[0] == pytest.approx(1e-2, rel=1e-12)
    assert svals[-1] == pytest.approx(1e-4, rel=1e-12)


def test_integration_tolerances_reach_the_integrator(tmp_path):
    # model options set the grid; --tol overrides the integrator tolerances
    path = tmp_path / "square.model"
    path.write_text(Path(SQUARE).read_text(encoding="utf-8")
                    + "\n[options]\nfit_points = 4\n", encoding="utf-8")
    argv = ["oracle", "--what", "return", "--model", str(path), "--s-range", "1e-3:1e-1"]
    tight = run_doc(argv, tmp_path / "tight.txt")
    loose = run_doc(argv + ["--tol", "rtol=1e-6", "--tol", "atol=1e-9"],
                    tmp_path / "loose.txt")
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


def test_compose_check_runs_through_the_module_attribute(monkeypatch, tmp_path):
    # the command looks run_compose_check up on the module, so a replacement there takes effect
    from polycycles import cli
    from polycycles.composecheck import CheckReport

    calls = []

    def fake(seed, count, bias=0.0):
        calls.append((seed, count, bias))
        return CheckReport(seed=seed, count=count, bias=bias, cases=())

    monkeypatch.setattr(cli, "run_compose_check", fake)
    doc = run_doc(["compose-check", "--seed", "9", "--count", "4"], tmp_path / "doc.txt")
    assert calls == [(9, 4, 0.0)]
    assert (doc["seed"], doc["count"], doc["passed"]) == (9, 4, True)
