"""Smoke tests of the demos, each run in its own interpreter.

- demo 01 drives the saddle layer directly (instantiate, normalize_saddle,
  dulac_coefficients) and checks D00 against a fit of numeric_dulac;
- demo 02 runs the closed-form chain to a cyclicity verdict;
- demo 03 checks the composition calculus against its pointwise oracle,
  with and without a bias;
- demo 04 builds the corners and return section of a staged four_saddle
  point and finds its two limit cycles with numeric_return and
  count_limit_cycles.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polycycles

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name):
    src = str(Path(polycycles.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, str(DEMOS / name)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_single_saddle_demo_agrees_with_integration():
    out = run_demo("01_single_saddle.py")
    deviation = re.search(r"relative deviation\s*=\s*(\S+)", out)
    assert deviation is not None, out
    assert float(deviation.group(1)) < 1e-6


def test_polycycle_verdict_demo_bounds_cyclicity_at_two():
    assert "cyclicity bounds: [ 2 , 2 ]" in run_demo("02_polycycle_verdict.py")


def test_compose_check_demo_passes_and_detects_bias():
    out = run_demo("03_compose_check.py")
    assert "passed at (1e-10, 1e-8) : True" in out
    assert "passed with 1e-6 bias   : False" in out


def test_two_limit_cycles_demo_finds_both_cycles():
    out = run_demo("04_two_limit_cycles.py")
    assert "limit cycles found: 2" in out
    found = re.findall(r"(\w+)\s+cycle crossing the section at s = (\S+)", out)
    assert [kind for kind, _ in found] == ["unstable", "stable"]
    assert float(found[0][1]) == pytest.approx(4.769e-08, rel=5e-3)
    assert float(found[1][1]) == pytest.approx(6.897e-06, rel=5e-3)
