"""Smoke tests of the demos, each run in its own interpreter.

Demo 01 drives the saddle layer (instantiate, normalize_saddle,
numeric_dulac) directly; demo 02 runs the closed-form chain to a verdict
and demo 03 the composition calculus against its oracle.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

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
