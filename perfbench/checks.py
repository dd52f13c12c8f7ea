"""Output checks, one per op kind.

Each check reads the text an op wrote to its `--out` file and returns the
list of what is wrong with it; an empty list means the output is right.
Result documents are read with a small parser of the `dotted.key = value`
line format written here, not with the package's own reader, so a fault in
the package's serialisation cannot hide itself.

Known defects the checks deliberately do not gate on are listed in
README.md under "Known defects".
"""
from __future__ import annotations

import csv
import io
import json
import math
from typing import Callable

from workloads import FOUR_DEFAULTS, Op, grid_axes, set_values

# Frozen return-map second coefficient of four_saddle at its defaults.
FOUR_SECOND_COEFF = 0.34899393115700983
# Limit cycles of demo 04's staged point, found with the staged op itself.
# The op bisects each root to an absolute width of 1e-10 (its rtol), which
# is 2e-3 of the smaller root, so the check allows 1e-3 relative or 1e-10.
STAGED_CYCLES = (("unstable", 4.771656043281404e-08), ("stable", 6.897464720865517e-06))
STAGED_ABS_TOL = 1e-10


def parse_doc(text: str) -> dict[str, object]:
    """Flat {dotted key: value} view of a result document."""
    out: dict[str, object] = {}
    for line in text.splitlines():
        key, sep, raw = line.partition(" = ")
        if not sep:
            raise ValueError(f"not a document line: {line!r}")
        out[key] = _value(raw)
    return out


def _value(raw: str) -> object:
    words = {"none": None, "true": True, "false": False,
             "nan": math.nan, "inf": math.inf, "-inf": -math.inf}
    if raw in words:
        return words[raw]
    if raw.startswith('"'):
        return json.loads(raw)
    try:
        return int(raw)
    except ValueError:
        return float(raw)


def _rows(doc: dict[str, object], prefix: str) -> list[dict[str, object]]:
    """Entries prefix.0.*, prefix.1.*, ... as dicts."""
    rows: dict[int, dict[str, object]] = {}
    for key, value in doc.items():
        if key.startswith(prefix + "."):
            index, _, field = key[len(prefix) + 1:].partition(".")
            rows.setdefault(int(index), {})[field] = value
    return [rows[i] for i in sorted(rows)]


def _close(got: object, want: float, rel: float = 0.0, abs_: float = 0.0) -> bool:
    return (isinstance(got, (int, float)) and not isinstance(got, bool)
            and abs(got - want) <= max(abs_, rel * abs(want)))


def _verdict(doc: dict[str, object]) -> list[str]:
    bad = []
    lower, upper = doc.get("verdict.lower"), doc.get("verdict.upper")
    if doc.get("verdict.consistent") is not True:
        bad.append("verdict is not consistent")
    if not isinstance(lower, int) or (upper is not None and not isinstance(upper, int)):
        bad.append(f"verdict bounds unreadable: {lower!r}, {upper!r}")
        return bad
    if upper is not None and lower > upper:
        bad.append(f"verdict lower {lower} exceeds upper {upper}")
    hi = "inf" if upper is None else str(upper)
    if doc.get("verdict.summary") != f"cyclicity in [{lower}, {hi}]":
        bad.append(f"verdict summary {doc.get('verdict.summary')!r} disagrees with bounds")
    ratio = doc.get("return.ratio")
    zero_tol = doc.get("verdict.zero_tol")
    if (isinstance(ratio, float) and isinstance(zero_tol, float)
            and abs(ratio - 1.0) > zero_tol and (lower, upper) != (0, 0)):
        bad.append(f"graphic number {ratio!r} is not 1 but the verdict is [{lower}, {hi}]")
    return bad


def check_analyze_four(op: Op, text: str) -> list[str]:
    doc = parse_doc(text)
    params = {n: doc.get(f"parameters.{n}") for n in FOUR_DEFAULTS}
    want = {**FOUR_DEFAULTS, **set_values(op.argv)}
    bad = [f"parameter {n} = {params[n]!r}, asked for {want[n]!r}"
           for n in FOUR_DEFAULTS if not _close(params[n], want[n], rel=1e-15)]
    if bad:
        return bad
    r = math.prod(want[n] for n in ("l1", "l2", "l3", "l4"))
    if not _close(doc.get("return.ratio"), r, abs_=1e-12):
        bad.append(f"return.ratio {doc.get('return.ratio')!r} != l1*l2*l3*l4 = {r!r}")
    for n in ("l1", "l2", "l3", "l4"):
        g = doc.get(f"gradients.ratio.{n}")
        if not _close(g, r / want[n], rel=1e-6):
            bad.append(f"gradients.ratio.{n} = {g!r}, want r/{n} = {r / want[n]!r}")
    if doc.get("probe.not_identity") is not True:
        bad.append(f"identity probe gave {doc.get('probe.not_identity')!r}, want true")
    bad += _verdict(doc)
    if not set_values(op.argv):  # the default point
        if (doc.get("verdict.lower"), doc.get("verdict.upper")) != (2, 2):
            bad.append("default point: cyclicity is not [2, 2]")
        if not _close(doc.get("return.second_coeff"), FOUR_SECOND_COEFF, rel=1e-9):
            bad.append(f"default point: second coefficient "
                       f"{doc.get('return.second_coeff')!r} != {FOUR_SECOND_COEFF!r}")
    return bad


def check_analyze_square(op: Op, text: str) -> list[str]:
    doc = parse_doc(text)
    bad = []
    if not _close(doc.get("return.ratio"), 1.0, abs_=1e-12):
        bad.append(f"return.ratio {doc.get('return.ratio')!r} != 1")
    if doc.get("verdict.lower") != 0:
        bad.append(f"integrable field has lower bound {doc.get('verdict.lower')!r}, want 0")
    return bad + _verdict(doc)


def check_scan(op: Op, text: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    axes = grid_axes(op.argv)
    names = list(axes)
    header = names + ["r_minus_1", "leading_minus_1", "second",
                      "psi1", "psi2", "psi3", "error"]
    if not rows or rows[0] != header:
        return [f"header {rows[:1]!r} != {header!r}"]
    body = rows[1:]
    want_points = [[]]
    for start, stop, count in axes.values():
        want_points = [p + [v] for p in want_points for v in _linspace(start, stop, count)]
    if len(body) != len(want_points):
        return [f"{len(body)} rows for a grid of {len(want_points)} points"]
    bad = []
    for row, point in zip(body, want_points):
        got = [float(v) for v in row[:len(names)]]
        if any(not _close(g, w, rel=1e-12, abs_=1e-15) for g, w in zip(got, point)):
            bad.append(f"row {row[:len(names)]} is not grid point {point}")
            continue
        if row[-1]:
            bad.append(f"point {point}: error cell {row[-1]!r}")
            continue
        values = {**FOUR_DEFAULTS, **dict(zip(names, got))}
        r = math.prod(values[n] for n in ("l1", "l2", "l3", "l4"))
        if not _close(float(row[len(names)]), r - 1.0, abs_=1e-12):
            bad.append(f"point {point}: r_minus_1 {row[len(names)]} != {r - 1.0!r}")
    return bad


def _linspace(start: float, stop: float, count: int) -> list[float]:
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count - 1)] + [stop]


def _samples_clean(doc: dict[str, object]) -> list[str]:
    samples = _rows(doc, "samples")
    if not samples:
        return ["no samples"]
    return [f"sample s={row.get('s')!r} failed: {row.get('error')!r}"
            for row in samples if row.get("error") is not None or row.get("value") is None]


def check_dulac(op: Op, text: str) -> list[str]:
    doc = parse_doc(text)
    bad = _samples_clean(doc)
    dev = doc.get("deviation.leading")
    if not (isinstance(dev, float) and dev <= 1e-4):
        bad.append(f"deviation.leading {dev!r} > 1e-4")
    corner = int(op.argv[op.argv.index("--corner") + 1])
    if doc.get("corner") != corner:
        bad.append(f"document is for corner {doc.get('corner')!r}, asked for {corner}")
    return bad


def check_return_four(op: Op, text: str) -> list[str]:
    # The free fit's exponent and leading coefficient are a known defect
    # (README.md, "Known defects") and are not gated on.
    doc = parse_doc(text)
    bad = _samples_clean(doc)
    if not _close(doc.get("closed_form.ratio"), 1.0, abs_=1e-12):
        bad.append(f"closed_form.ratio {doc.get('closed_form.ratio')!r} != 1")
    if not _close(doc.get("closed_form.second_coeff"), FOUR_SECOND_COEFF, rel=1e-9):
        bad.append(f"closed_form.second_coeff {doc.get('closed_form.second_coeff')!r} "
                   f"!= {FOUR_SECOND_COEFF!r}")
    for row in _rows(doc, "samples"):
        if isinstance(row.get("value"), float) and not 0.0 < row["value"] < 1.0:
            bad.append(f"return value {row['value']!r} at s={row['s']!r} is off the section")
    return bad


def check_return_square(op: Op, text: str) -> list[str]:
    doc = parse_doc(text)
    bad = _samples_clean(doc)
    for key in ("fit_free.exponent", "fit_free.leading"):
        if not _close(doc.get(key), 1.0, abs_=1e-6):
            bad.append(f"{key} = {doc.get(key)!r}, want 1 (identity return map)")
    return bad


def _cycles(doc: dict[str, object], want: tuple[tuple[str, float], ...],
            rel: float = 0.0, abs_: float = 0.0) -> list[str]:
    got = [(c.get("stability"), c.get("s")) for c in _rows(doc, "cycles")]
    if len(got) != len(want):
        return [f"found cycles {got!r}, want {want!r}"]
    return [f"cycle {g!r} is not {w!r}" for g, w in zip(got, want)
            if g[0] != w[0] or not _close(g[1], w[1], rel=rel, abs_=abs_)]


def check_cycles_circle(op: Op, text: str) -> list[str]:
    return _cycles(parse_doc(text), (("stable", 1.0),), abs_=1e-8)


def check_cycles_staged(op: Op, text: str) -> list[str]:
    return _cycles(parse_doc(text), STAGED_CYCLES, rel=1e-3, abs_=STAGED_ABS_TOL)


def check_compose(op: Op, text: str) -> list[str]:
    doc = parse_doc(text)
    count = int(op.argv[op.argv.index("--count") + 1])
    bad = []
    if doc.get("passed") is not True:
        bad.append(f"compose-check did not pass: worst leading {doc.get('worst_leading')!r}, "
                   f"worst second {doc.get('worst_second')!r}")
    cases = _rows(doc, "cases")
    if len(cases) != 7 or any(c.get("trials") != count for c in cases):
        bad.append(f"expected 7 cases of {count} trials, got "
                   f"{[(c.get('case'), c.get('trials')) for c in cases]!r}")
    return bad


CHECKS: dict[str, Callable[[Op, str], list[str]]] = {
    "analyze-four": check_analyze_four,
    "analyze-square": check_analyze_square,
    "scan": check_scan,
    "dulac": check_dulac,
    "return-four": check_return_four,
    "return-square": check_return_square,
    "cycles-circle": check_cycles_circle,
    "cycles-staged": check_cycles_staged,
    "compose": check_compose,
}


def check(op: Op, text: str) -> list[str]:
    """Everything wrong with an op's output; a parse failure counts too."""
    try:
        return CHECKS[op.check](op, text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
