"""One workload process of the benchmark; run.py starts it.

It times its own set-up (importing `polycycles`, loading and binding the
workload's models), then runs whole rounds of ops as a closed loop with one
client: each op is one in-process `cli.main([...])` call writing to a
scratch `--out` file, and its output is checked before the next op starts.
The last line of standard output is a JSON report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--rounds K] [--trace] [--spans PATH] [--setup-only]
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Iterable, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import check  # noqa: E402
from workloads import MODELS, WORKLOADS, Op, rounds  # noqa: E402


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="start rounds until this much time has passed")
    p.add_argument("--rounds", type=int, help="run at most this many rounds")
    p.add_argument("--trace", action="store_true", help="trace the layers")
    p.add_argument("--spans", type=Path, help="write the spans here (with --trace)")
    p.add_argument("--setup-only", action="store_true",
                   help="report the set-up time and exit")
    return p.parse_args(argv)


def _run_op(main, op: Op, out: Path) -> dict:
    argv = list(op.argv) + ["--out", str(out)]
    out.unlink(missing_ok=True)
    problems: list[str] = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        code = main(argv)
    except Exception:  # an op that raises counts as failed; the run goes on
        code = None
        problems.append(traceback.format_exc())
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    data = out.read_bytes() if out.exists() else b""
    text = data.decode("utf-8")
    if code != 0:
        problems.append(f"exit code {code}")
    else:
        problems += check(op, text)
    return {"check": op.check, "argv": list(op.argv), "wall_s": wall, "cpu_s": cpu,
            "problems": problems,
            "sha256": hashlib.sha256(data).hexdigest()}


def planned_ops(args: argparse.Namespace, start: float) -> Iterator[Op]:
    """Whole rounds until --seconds have passed or --rounds have run.

    The generator is consumed lazily, so the clock is read at each round
    boundary, after the previous round's ops have run.
    """
    for index, ops in enumerate(rounds(args.workload, args.seed)):
        if index > 0 and (time.perf_counter() - start >= args.seconds
                          or (args.rounds is not None and index >= args.rounds)):
            return
        yield from ops


def run_ops(ops: Iterable[Op], trace: bool = False) -> tuple[list[dict], Any]:
    """Run and check each op in turn; with trace, under a Tracer, which is returned."""
    from polycycles import cli

    out = HERE / "out" / f"op-{os.getpid()}.txt"
    out.parent.mkdir(exist_ok=True)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    records: list[dict] = []
    try:
        with tracer or contextlib.nullcontext():
            for op in ops:
                if tracer is not None:
                    tracer.op = len(records)
                records.append(_run_op(cli.main, op, out))
    finally:
        out.unlink(missing_ok=True)
    return records, tracer


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    os.chdir(ROOT)  # model paths in the ops are relative to the repository root

    t0 = time.perf_counter()
    from polycycles import cli  # noqa: F401  (imports the whole package)
    from polycycles.model import bind, load_model
    for path in MODELS[args.workload]:
        bind(load_model(path))
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    start = time.perf_counter()
    records, tracer = run_ops(planned_ops(args, start), trace=args.trace)
    phase_s = time.perf_counter() - start
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "phase_s": phase_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": records,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["missing_hooks"] = tracer.missing
        if args.spans is not None:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
