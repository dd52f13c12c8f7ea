"""The traced run: exact work counters, unchanged outputs, clean removal."""
import importlib
import json
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from tracer import LAYER_METRICS, PROBE_HOOKS, SPAN_HOOKS, WORK_COUNTERS, Tracer
from workloads import CIRCLE, SQUARE, Op

# Cheap ops that reach every work counter: quadrature and chain evaluations
# under a gradient (analyze), integrations (its identity probe), and returns
# beyond the sample grid of a cycle count.
OPS = [
    Op("analyze-square", ("analyze", "--model", SQUARE)),
    Op("cycles-circle", ("oracle", "--what", "cycles", "--model", CIRCLE,
                         "--s-range", "0.3:2.0", "--tol", "samples=25")),
]

SCRIPT = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import worker
from workloads import Op
ops = [Op(check, tuple(argv)) for check, argv in json.loads(sys.argv[1])]
records, tracer = worker.run_ops(ops, trace=sys.argv[2] == "1")
layers = tracer.layer_metrics() if tracer else None
print(json.dumps({{"records": records, "layers": layers}}))
"""


def run_fresh(trace):
    """The ops in a fresh process, as the benchmark runs them."""
    code = SCRIPT.format(bench=str(BENCH), src=str(ROOT / "src"))
    ops = json.dumps([[op.check, op.argv] for op in OPS])
    proc = subprocess.run([sys.executable, "-c", code, ops, "1" if trace else "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    return {"traced": run_fresh(True), "again": run_fresh(True), "plain": run_fresh(False)}


def test_work_counters_repeat_exactly(runs):
    a, b = runs["traced"]["layers"], runs["again"]["layers"]
    assert {k: a[k] for k in WORK_COUNTERS} == {k: b[k] for k in WORK_COUNTERS}
    assert all(a[k] > 0 for k in WORK_COUNTERS)


def test_traced_outputs_match_untraced(runs):
    assert all(not rec["problems"] for run in runs.values() for rec in run["records"])
    digests = {name: [rec["sha256"] for rec in run["records"]] for name, run in runs.items()}
    assert digests["traced"] == digests["plain"] == digests["again"]


def test_every_layer_metric_is_reported(runs):
    assert set(runs["traced"]["layers"]) == set(LAYER_METRICS)


def hooked():
    return {(mod, attr): getattr(importlib.import_module(f"polycycles.{mod}"), attr)
            for mod, attr, _ in SPAN_HOOKS + PROBE_HOOKS}


def test_hooks_are_installed_and_removed():
    before = hooked()
    with Tracer() as tracer:
        during = hooked()
    assert tracer.missing == []
    assert all(during[key] is not before[key] for key in before)
    assert all(after is before[key] for key, after in hooked().items())


def test_hooks_are_removed_after_an_error():
    before = hooked()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("op failed")
    assert all(after is before[key] for key, after in hooked().items())
