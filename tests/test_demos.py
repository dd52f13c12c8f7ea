"""Smoke test of demo 01, the one demo that drives the saddle layer
(instantiate, normalize_saddle, numeric_dulac) directly."""

import os
import re
import subprocess
import sys
from pathlib import Path

import polycycles

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_single_saddle_demo_agrees_with_integration():
    src = str(Path(polycycles.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, str(DEMOS / "01_single_saddle.py")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    deviation = re.search(r"relative deviation\s*=\s*(\S+)", run.stdout)
    assert deviation is not None, run.stdout
    assert float(deviation.group(1)) < 1e-6
