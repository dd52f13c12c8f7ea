"""Command line front end.

Four subcommands: `analyze` runs the closed-form pipeline to a verdict,
`oracle` integrates the flow and fits expansions numerically, `scan`
tabulates closed-form quantities over a parameter grid as CSV, and
`compose-check` cross-validates the composition calculus against the
pointwise oracle.  Exit codes are a stable contract: 0 success, 2 usage
error, 3 model error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from . import __version__
from .errors import ModelError, NumericError, PolycycleError, UsageError
from .model import MAX_GRID_POINTS, OPTION_DEFAULTS, load_model
from .resultdoc import block, dumps, render_csv

__all__ = ["main"]

# The commands read their entry points here, at call time, so that a
# replacement on this module takes effect; __getattr__ supplies them.
_module = sys.modules[__name__]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MODEL = 3
EXIT_NUMERIC = 4

# Only the syntax of the arguments is checked here; whether a name is
# declared, a grid is within bounds or a range is nonempty is checked once,
# by the pipeline and the model, which raise UsageError.


def _pairs(items: Sequence[str] | None, flag: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in items or ():
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or not name:
            raise UsageError(f"{flag} expects NAME=VALUE, got {item!r}")
        if name in out:
            raise UsageError(f"{flag} names {name!r} more than once")
        out[name] = value.strip()
    return out


def _tols(items: Sequence[str] | None) -> dict[str, float]:
    out = {}
    for name, value in _pairs(items, "--tol").items():
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise UsageError(f"--tol {name}: {value!r} is not a number") from exc
    return out


def _s_range(text: str | None) -> tuple[float, float] | None:
    if text is None:
        return None
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError as exc:
        raise UsageError(f"--s-range expects LO:HI, got {text!r}") from exc


def _grid(items: Sequence[str] | None) -> dict[str, tuple[float, float, int]]:
    out: dict[str, tuple[float, float, int]] = {}
    for name, axis in _pairs(items, "--grid").items():
        try:
            start, stop, count = axis.split(":")
            out[name] = (float(start), float(stop), int(count))
        except ValueError as exc:
            raise UsageError(f"--grid expects NAME=START:STOP:COUNT, "
                             f"got {name}={axis}") from exc
    return out


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycycles",
        description="Polycycle return-map expansions and cyclicity verdicts.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, run: Callable[[argparse.Namespace], int],
               model: bool, tol: bool = False) -> None:
        p.set_defaults(run=run)
        if model:
            p.add_argument("--model", required=True, help="model file path")
            p.add_argument("--set", action="append", metavar="NAME=VALUE",
                           help="override a parameter (repeatable)")
        if tol:
            p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                           help="override a model option for this run (repeatable); "
                                f"NAME is one of {', '.join(OPTION_DEFAULTS)}")
        p.add_argument("--out", help="write the result document here instead of stdout")

    p = sub.add_parser("analyze", help="closed-form pipeline: expansions and verdict")
    common(p, _cmd_analyze, model=True, tol=True)

    p = sub.add_parser("oracle", help="numeric integration cross-checks")
    common(p, _cmd_oracle, model=True, tol=True)
    p.add_argument("--what", required=True, choices=("dulac", "return", "cycles"))
    p.add_argument("--corner", type=int, help="1-based corner index (dulac only)")
    p.add_argument("--s-range", dest="s_range", metavar="LO:HI",
                   help="section-parameter range; dulac and return sample fit_points "
                        "values geometric over it (default: the halving grid), "
                        "cycles scans it (default: 1e-6:1e-1 clipped to the section "
                        "window, or the whole window when they do not meet)")

    p = sub.add_parser("compose-check",
                       help="cross-validate composition rules against the "
                            "pointwise oracle")
    common(p, _cmd_compose_check, model=False)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--count", type=int, default=100,
                   help=f"random cases per sign case, at most {MAX_GRID_POINTS}")
    p.add_argument("--bias", type=float, default=0.0,
                   help="test hook: perturb the closed forms to confirm the "
                        "check flags disagreement")

    p = sub.add_parser("scan", help="closed-form quantities over a parameter grid")
    common(p, _cmd_scan, model=True)
    p.add_argument("--grid", action="append", metavar="NAME=START:STOP:COUNT",
                   help="grid axis (repeatable)")
    return parser


def _cmd_analyze(args) -> int:
    mf = load_model(args.model)
    doc = _module.analyze(mf, _pairs(args.set, "--set"), _tols(args.tol))
    _emit(dumps(doc), args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    mf = load_model(args.model)
    overrides = _pairs(args.set, "--set")
    tols = _tols(args.tol)
    rng = _s_range(args.s_range)
    if args.what != "dulac" and args.corner is not None:
        raise UsageError(f"--corner applies to --what dulac only, not {args.what}")
    if args.what == "dulac":
        if args.corner is None:
            raise UsageError("oracle --what dulac requires --corner")
        doc = _module.oracle_dulac(mf, args.corner, rng, overrides, tols)
    elif args.what == "return":
        doc = _module.oracle_return(mf, rng, overrides, tols)
    else:
        doc = _module.oracle_cycles(mf, rng, overrides, tols)
    _emit(dumps(doc), args.out)
    return EXIT_OK


def _cmd_compose_check(args) -> int:
    if not 0 <= args.count <= MAX_GRID_POINTS:
        raise UsageError(f"--count must be >= 0 and <= {MAX_GRID_POINTS}, got {args.count}")
    report = _module.run_compose_check(args.seed, args.count, bias=args.bias)
    doc = {
        "command": "compose-check",
        "seed": report.seed,
        "count": report.count,
        "bias": report.bias,
        "cases": [block(c) for c in report.cases],
        "worst_leading": report.worst_leading,
        "worst_second": report.worst_second,
        "passed": report.passed(),
    }
    _emit(dumps(doc), args.out)
    return EXIT_OK


def _cmd_scan(args) -> int:
    mf = load_model(args.model)
    header, rows = _module.scan(mf, _grid(args.grid), _pairs(args.set, "--set"))
    _emit(render_csv(header, rows), args.out)
    return EXIT_OK


def __getattr__(name: str):
    # a public name of the package, such as an entry point, is imported on
    # first use through it: the pipeline loads numpy, composecheck mpmath
    package = sys.modules[__package__]
    if name in package.__all__:
        return getattr(package, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.run(args)
    except UsageError as exc:  # before ModelError, its base class
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PolycycleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
