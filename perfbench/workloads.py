"""Seeded op generators for the polycycles benchmark.

An op is one command line for the `polycycles` CLI plus the name of the
check its output must pass (see checks.py).  A workload is an endless
sequence of rounds; every round of a workload has the same mix of op
kinds, and the seed only moves the generated `--set`, `--s-range`,
`--grid` and `--tol` values.  The benchmark runs whole rounds, so a
run's median and throughput always cover the same mix.

This module imports nothing from the package: the program sees only the
command lines built here.
"""
from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, Iterator

FOUR = "models/four_saddle.model"
SQUARE = "models/integrable_square.model"
CIRCLE = "models/circle_cycle.model"

# Parameter defaults of the bundled models, as the model files state them.
FOUR_DEFAULTS = {"l1": 8 / 27, "l2": 1.5, "l3": 1.5, "l4": 1.5, "m1": 1625 / 162}

# Demo 04's staged point: r = 1.025 and A = 1.5501 split two limit cycles
# off the four-saddle polycycle.
STAGED = {
    "l1": 0.3037037037037037,
    "l2": 1.3622066489493219,
    "l3": 1.8188118943622775,
    "l4": 1.3622066489493219,
}

# Scan axes and the ranges their windows are placed in.  Every point of
# these ranges binds, normalises and expands without error in about 0.25 s.
# Left out: l1 below 0.3 and m1 below 6, where many points cost 2-200x
# more in adaptive quadrature (54 s at l1 = 0.152, m1 = 5.9), and l3 above
# 2 (26 s at l3 = 3.16); there a run's cost would depend on the seed.
SCAN_RANGES = {
    "l1": (0.3, 0.9),
    "l2": (1.1, 3.0),
    "l3": (1.1, 2.0),
    "l4": (1.1, 2.8),
    "m1": (6.0, 30.0),
}
SCAN_PAIRS = (("l1", "m1"), ("l2", "l3"), ("l1", "l4"))
SCAN_COUNT = 3  # points per axis

# Ratio between the top and the bottom of a fit grid: the default halving
# grid s0 * 2**-k, k = 0..12, spans 2**12.
FIT_SPAN = 2.0**12


@dataclass(frozen=True)
class Op:
    check: str  # key of checks.CHECKS
    argv: tuple[str, ...]  # CLI arguments, without --out


def _num(value: float) -> str:
    return repr(float(value))


def _sets(values: dict[str, float]) -> tuple[str, ...]:
    out: list[str] = []
    for name, value in values.items():
        out += ["--set", f"{name}={_num(value)}"]
    return tuple(out)


def _nudge(rng: Random, value: float) -> float:
    """Relative step of 0.1% to 2% with a random sign."""
    return value * (1.0 + rng.choice((-1.0, 1.0)) * rng.uniform(1e-3, 2e-2))


def _closed_form(rng: Random, index: int) -> list[Op]:
    ops: list[Op] = []
    for k in range(4):
        if index == 0 and k == 0:
            ops.append(Op("analyze-four", ("analyze", "--model", FOUR)))
            continue
        names = rng.sample(sorted(FOUR_DEFAULTS), rng.choice((1, 2)))
        point = {n: _nudge(rng, FOUR_DEFAULTS[n]) for n in sorted(names)}
        ops.append(Op("analyze-four", ("analyze", "--model", FOUR) + _sets(point)))
    point = {"a": rng.uniform(0.30, 0.45), "b": rng.uniform(0.40, 0.60)}
    ops.append(Op("analyze-square", ("analyze", "--model", SQUARE) + _sets(point)))
    return ops


def _scan_grid(rng: Random, index: int) -> list[Op]:
    ops: list[Op] = []
    for pair in SCAN_PAIRS:
        argv = ["scan", "--model", FOUR]
        for name in pair:
            lo, hi = SCAN_RANGES[name]
            width = (hi - lo) * rng.uniform(0.15, 0.3)
            start = rng.uniform(lo, hi - width)
            argv += ["--grid", f"{name}={_num(start)}:{_num(start + width)}:{SCAN_COUNT}"]
        ops.append(Op("scan", tuple(argv)))
    return ops


def _s_range(rng: Random, top: float) -> str:
    hi = top * rng.uniform(0.5, 1.0)
    return f"{_num(hi / FIT_SPAN)}:{_num(hi)}"


def _oracle(rng: Random, index: int) -> list[Op]:
    # Ten four_saddle returns sit between the four fast Dulac ops and the
    # slower integrable_square return and cycle counts, so the round's median
    # op is the middle of ten ops of the same kind and cost.
    ops = [Op("dulac", ("oracle", "--what", "dulac", "--model", FOUR,
                        "--corner", str(c), "--s-range", _s_range(rng, 1e-2)))
           for c in (1, 2, 3, 4)]
    for check, model in (("return-four", FOUR),) * 10 + (("return-square", SQUARE),):
        ops.append(Op(check, ("oracle", "--what", "return", "--model", model,
                              "--s-range", _s_range(rng, 1e-2))))
    ops.append(Op("cycles-circle", ("oracle", "--what", "cycles", "--model", CIRCLE,
                                    "--s-range", "0.3:2.0")))
    ops.append(Op("cycles-staged", ("oracle", "--what", "cycles", "--model", FOUR,
                                    "--s-range", "1e-8:1e-3",
                                    "--tol", "samples=40", "--tol", "t_max=600")
                  + _sets(STAGED)))
    return ops


def _compose_check(rng: Random, index: int) -> list[Op]:
    return [Op("compose", ("compose-check", "--seed", str(rng.randrange(10**6)),
                           "--count", str(rng.randint(16, 24))))
            for _ in range(4)]


WORKLOADS: dict[str, Callable[[Random, int], list[Op]]] = {
    "closed-form": _closed_form,
    "scan-grid": _scan_grid,
    "oracle": _oracle,
    "compose-check": _compose_check,
}

# Models each workload loads and binds during set-up.
MODELS = {
    "closed-form": (FOUR, SQUARE),
    "scan-grid": (FOUR,),
    "oracle": (FOUR, SQUARE, CIRCLE),
    "compose-check": (),
}


def rounds(workload: str, seed: int) -> Iterator[list[Op]]:
    """The workload's rounds for this seed, without end."""
    make = WORKLOADS[workload]
    rng = Random(f"{seed}:{workload}")
    index = 0
    while True:
        yield make(rng, index)
        index += 1


def set_values(argv: tuple[str, ...]) -> dict[str, float]:
    """The --set NAME=VALUE pairs of a command line."""
    out = {}
    for flag, item in zip(argv, argv[1:]):
        if flag == "--set":
            name, _, value = item.partition("=")
            out[name] = float(value)
    return out


def grid_axes(argv: tuple[str, ...]) -> dict[str, tuple[float, float, int]]:
    """The --grid NAME=START:STOP:COUNT axes of a command line."""
    out = {}
    for flag, item in zip(argv, argv[1:]):
        if flag == "--grid":
            name, _, rest = item.partition("=")
            start, stop, count = rest.split(":")
            out[name] = (float(start), float(stop), int(count))
    return out
