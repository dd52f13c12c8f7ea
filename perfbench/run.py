"""Benchmark of the polycycles command line; README.md describes it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With --trace 0 it reports the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced round.  The
last line of standard output is the JSON result; everything the workers
print on standard error is passed through.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import MODELS, WORKLOADS  # noqa: E402

SETUP_PROBES = 4  # fresh set-up processes per run, besides the worker's own
DEADLINE_S = 170.0  # the whole run ends within this
# Metric name -> unit.  With --trace 0 the result holds END_TO_END, with
# --trace 1 PER_LAYER; BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_cpu_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {**LAYER_METRICS, "trace.ops_per_s": "1/s", "trace.overhead_ops_per_s": "1/s"}
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run."""


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Starts worker processes with a one-thread BLAS and a shared deadline."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env.update({name: "1" for name in BLAS_THREADS})

    def worker(self, *extra: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", str(self.args.seconds), *extra]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchError(f"worker did not finish within {DEADLINE_S:g} s") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker {' '.join(extra)} exited with {proc.returncode}")
        return json.loads(lines[-1])


def _check_checkout() -> None:
    needed = [ROOT / "src" / "polycycles" / "cli.py"]
    needed += sorted({ROOT / path for paths in MODELS.values() for path in paths})
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not a polycycles checkout; missing {', '.join(missing)}")


def _failures(ops: list[dict]) -> int:
    return sum(1 for op in ops if op["problems"])


def _report_failures(ops: list[dict]) -> None:
    for op in ops:
        if op["problems"]:
            print(f"FAILED {op['check']}: {' '.join(op['argv'])}", file=sys.stderr)
            for problem in op["problems"]:
                print(f"    {problem}", file=sys.stderr)


def end_to_end(runner: Runner) -> dict:
    setups = [runner.worker("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    rep = runner.worker()
    setups.append(rep["setup_s"])
    ops = rep["ops"]
    _report_failures(ops)
    failed = _failures(ops)
    print(f"{rep['workload']}: {len(ops)} ops in {rep['phase_s']:.2f} s, "
          f"failed_frac {failed}/{len(ops)}, set-up runs {[round(s, 4) for s in setups]}")
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(op["wall_s"] for op in ops),
        "op_cpu_p50_s": statistics.median(op["cpu_s"] for op in ops),
        "ops_per_s": (len(ops) - failed) / rep["phase_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
    }
    return _result(len(ops), failed, values, END_TO_END)


def per_layer(runner: Runner) -> dict:
    """One untraced and one traced round of the same ops, in fresh processes."""
    plain = runner.worker("--rounds", "1")
    spans = HERE / "out" / f"spans-{runner.args.workload}-{runner.args.seed}.jsonl"
    traced = runner.worker("--rounds", "1", "--trace", "--spans", str(spans))
    if traced["missing_hooks"]:
        print(f"hooks not installed (renamed or removed): {traced['missing_hooks']}",
              file=sys.stderr)
    if [op["argv"] for op in plain["ops"]] != [op["argv"] for op in traced["ops"]]:
        raise BenchError("the traced and untraced rounds made different ops")
    for a, b in zip(plain["ops"], traced["ops"]):
        if a["sha256"] != b["sha256"]:
            b["problems"].append("traced output differs from the untraced output")
    ops = plain["ops"] + traced["ops"]
    _report_failures(ops)

    def rate(rep: dict) -> float:
        return len(rep["ops"]) / sum(op["wall_s"] for op in rep["ops"])

    values = dict(traced["layers"])
    values["trace.ops_per_s"] = rate(traced)
    values["trace.overhead_ops_per_s"] = rate(traced) - rate(plain)
    print(f"{traced['workload']}: traced round of {len(traced['ops'])} ops, "
          f"spans in {spans.relative_to(ROOT)}")
    return _result(len(ops), _failures(ops), values, PER_LAYER)


def _result(attempted: int, failed: int, values: dict, units: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    runner = Runner(args)
    try:
        _check_checkout()
        # the build: byte-compile once so every set-up probe reads the same files
        compileall.compile_dir(ROOT / "src", quiet=1)
        compileall.compile_dir(HERE, quiet=1, maxlevels=0)
        result = per_layer(runner) if args.trace else end_to_end(runner)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
