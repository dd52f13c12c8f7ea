"""Model files: a parametric vector field plus one polycycle of it.

The format is flat sectioned text, `key = value` lines under `[section]`
headers, with `#` comments.  Sections:

    [params]     name = default            (exact rationals: 8/27, 1.5, -2)
    [field]      dot_x = expr, dot_y = expr (expression grammar of the
                 expressions module, variables x and y)
    [polycycle]  corners = (x,y) (x,y) ...  in traversal order
                 orientation = ccw | cw
    [sections]   base_anchor = (x,y), base_direction = (dx,dy) and an
                 optional base_window = (lo,hi): a raw return section, for
                 models without a polycycle only, parsed into a LineSection.
                 Corner sections are not configurable: their half-lengths
                 are half the edges.
    [options]    name = value for the names in OPTION_DEFAULTS (atol, rtol,
                 t_max, zero_tol, samples, fit_points); a run may override
                 them again (`--tol`)

The numeric layers import LineSection and the option defaults (ATOL, RTOL,
T_MAX, ZERO_TOL, FIT_MIN_POINTS) from this module, which imports none of them.

Orientation is declared redundantly on purpose: it is checked against
the signed area of the corner polygon at load time, not stored.  The
corner list is checked where the sections are computed
(``pipeline._geometry``): the sections chain only when the edge into each
corner is parallel to the edge out of the next.  The field is checked against the polycycle where the
corners are built (``pipeline.build_corners``): every edge must be an
invariant line, and the flow must enter each corner along the edge from
the previous corner and leave it along the edge to the next.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .errors import ExpressionError, ModelError, UsageError
from .expressions import Program, instantiate, parse_expression

if TYPE_CHECKING:
    import numpy as np

__all__ = ["ModelFile", "Model", "OPTION_DEFAULTS", "parse_model", "load_model", "bind"]

# Every numeric option a model file or a run may set, with its default.
# atol, rtol and t_max reach every oracle and probe integration; rtol also
# scales the identity-probe threshold and the width cycle roots are refined to.
# zero_tol is the verdict's zero test, for the coefficients and for their
# gradients; samples is the cycle-scan grid size and fit_points the
# expansion-fit grid size.
ATOL = 1e-12
RTOL = 1e-10
T_MAX = 200.0        # default time span of one transition
ZERO_TOL = 1e-9
FIT_MIN_POINTS = 4   # the fewest samples fit_expansion takes
OPTION_DEFAULTS = {
    "atol": ATOL,
    "rtol": RTOL,
    "t_max": T_MAX,
    "zero_tol": ZERO_TOL,
    "samples": 200.0,
    "fit_points": 13.0,
}
# the options that count points, with their least value; every count, and a
# scan's grid, is at most MAX_GRID_POINTS.  Every other option is finite and
# > 0, except zero_tol, which may be 0
_COUNT_MINIMA = {"samples": 2, "fit_points": FIT_MIN_POINTS}
MAX_GRID_POINTS = 10**6

_SECTIONS = ("params", "field", "polycycle", "sections", "options")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_CORNER_RE = re.compile(r"\(\s*([^,()]+?)\s*,\s*([^,()]+?)\s*\)")


@dataclass(frozen=True)
class LineSection:
    """Straight transverse section: anchor + t * direction, t in window."""

    anchor: tuple[float, float]
    direction: tuple[float, float]
    window: tuple[float, float]

    @classmethod
    def make(cls, anchor, direction, window) -> "LineSection":
        dx, dy = float(direction[0]), float(direction[1])
        # param divides by this squared length
        if not 0.0 < dx * dx + dy * dy < math.inf:
            raise ValueError(f"section direction must be nonzero, with a positive and "
                             f"finite squared length; got ({dx!r}, {dy!r})")
        return cls((float(anchor[0]), float(anchor[1])), (dx, dy),
                   (float(window[0]), float(window[1])))

    @property
    def normal(self) -> tuple[float, float]:
        dx, dy = self.direction
        return -dy, dx

    def point(self, t: float) -> tuple[float, float]:
        (ax, ay), (dx, dy) = self.anchor, self.direction
        return ax + t * dx, ay + t * dy

    def param(self, point) -> float:
        (px, py), (ax, ay), (dx, dy) = point, self.anchor, self.direction
        return ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)


@dataclass(frozen=True)
class ModelFile:
    """Parsed but unbound model: parameter defaults and raw structure.

    ``expr_x``/``expr_y`` are the postfix programs of ``dot_x``/``dot_y``,
    parsed once under the declared parameters; every bind runs them.
    """

    params: tuple[tuple[str, Fraction], ...]
    expr_x: Program
    expr_y: Program
    corners: tuple[tuple[float, float], ...]
    base_section: LineSection | None
    options: tuple[tuple[str, float], ...]
    text: str
    path: str | None = None

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.params)

    def defaults(self) -> dict[str, Fraction]:
        return dict(self.params)


@dataclass(frozen=True)
class Model:
    """A model file bound to concrete parameter values.

    ``field_x``/``field_y`` are the instantiated x' and y' as coefficient
    arrays, entry [i, j] multiplying x^i y^j.
    """

    file: ModelFile
    values: dict[str, float | complex]
    field_x: np.ndarray
    field_y: np.ndarray


def _number(token: str, where: str, error: type[ModelError] = ModelError) -> Fraction:
    try:
        value = Fraction(token.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise error(f"{where}: unreadable number {token.strip()!r}") from exc
    try:
        float(value)
    except OverflowError as exc:
        raise error(f"{where}: number {token.strip()!r} is out of the float range") from exc
    return value


def check_option(name: str, value: float, where: str,
                 error: type[ModelError] = ModelError) -> float:
    """The value of a known option, checked against the rule for its name."""
    value = float(value)
    least = _COUNT_MINIMA.get(name)
    if least is not None:
        ok = value.is_integer() and least <= value <= MAX_GRID_POINTS
        rule = f"an integer >= {least} and <= {MAX_GRID_POINTS}"
    elif name == "zero_tol":
        ok, rule = math.isfinite(value) and value >= 0.0, "finite and >= 0"
    else:
        ok, rule = math.isfinite(value) and value > 0.0, "finite and > 0"
    if not ok:
        raise error(f"{where}: option {name} must be {rule}, got {value:g}")
    return value


def _parse_corners(value: str, where: str) -> tuple[tuple[float, float], ...]:
    matches = list(_CORNER_RE.finditer(value))
    if not matches:
        raise ModelError(f"{where}: expected a list of (x,y) pairs, got {value!r}")
    leftover = _CORNER_RE.sub("", value).strip()
    if leftover:
        raise ModelError(f"{where}: unparsed text {leftover!r} in corner list")
    return tuple(
        (float(_number(m.group(1), where)), float(_number(m.group(2), where)))
        for m in matches
    )


def _parse_pair(value: str, where: str) -> tuple[float, float]:
    m = _CORNER_RE.fullmatch(value.strip())
    if not m:
        raise ModelError(f"{where}: expected a pair (a,b), got {value!r}")
    return (float(_number(m.group(1), where)), float(_number(m.group(2), where)))


def _split_sections(text: str) -> dict[str, list[tuple[int, str, str]]]:
    sections: dict[str, list[tuple[int, str, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _SECTIONS:
                raise ModelError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ModelError(f"line {lineno}: content before the first [section] header")
        key, sep, value = line.partition("=")
        if not sep:
            raise ModelError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        sections[current].append((lineno, key.strip(), value.strip()))
    return sections


def parse_model(text: str, path: str | None = None) -> ModelFile:
    """Parse and statically validate a model file.

    Both field expressions are parsed under the declared parameters here,
    so a name error surfaces at load time, not at first bind.
    """
    sections = _split_sections(text)
    if "field" not in sections:
        raise ModelError("model has no [field] section")

    params: list[tuple[str, Fraction]] = []
    seen: set[str] = set()
    for lineno, key, value in sections.get("params", []):
        if not _NAME_RE.match(key):
            raise ModelError(f"line {lineno}: bad parameter name {key!r}")
        if key in ("x", "y"):
            raise ModelError(f"line {lineno}: parameter {key!r} shadows a field variable")
        if key in seen:
            raise ModelError(f"line {lineno}: duplicate parameter {key!r}")
        seen.add(key)
        params.append((key, _number(value, f"line {lineno}")))

    field: dict[str, str] = {}
    for lineno, key, value in sections["field"]:
        if key not in ("dot_x", "dot_y"):
            raise ModelError(f"line {lineno}: [field] keys are dot_x and dot_y, got {key!r}")
        if key in field:
            raise ModelError(f"line {lineno}: duplicate {key}")
        field[key] = value
    if set(field) != {"dot_x", "dot_y"}:
        raise ModelError("[field] must define both dot_x and dot_y")
    names = tuple(name for name, _ in params)
    exprs: dict[str, Program] = {}
    for key in ("dot_x", "dot_y"):
        try:
            exprs[key] = parse_expression(field[key], params=names)
        except ExpressionError as exc:
            raise ModelError(f"[field] {key}: {exc}") from exc

    corners: tuple[tuple[float, float], ...] = ()
    orientation: str | None = None
    for lineno, key, value in sections.get("polycycle", []):
        if key == "corners":
            corners = _parse_corners(value, f"line {lineno}")
        elif key == "orientation":
            if value not in ("ccw", "cw"):
                raise ModelError(f"line {lineno}: orientation must be ccw or cw")
            orientation = value
        else:
            raise ModelError(f"line {lineno}: unknown [polycycle] key {key!r}")
    if "polycycle" in sections and not corners:
        raise ModelError("[polycycle] section is missing the corners list")
    if len(corners) != len(set(corners)):
        raise ModelError("corner list repeats a vertex")
    if corners and orientation is not None:
        area = _signed_area(corners)
        if abs(area) < 1e-12:
            raise ModelError("corner polygon is degenerate (zero signed area)")
        found = "ccw" if area > 0 else "cw"
        if found != orientation:
            raise ModelError(
                f"declared orientation {orientation} but the corner order is {found}")

    base_anchor = base_direction = None
    base_window: tuple[float, float] | None = None
    for lineno, key, value in sections.get("sections", []):
        where = f"line {lineno}"
        if key == "base_anchor":
            base_anchor = _parse_pair(value, where)
        elif key == "base_direction":
            base_direction = _parse_pair(value, where)
        elif key == "base_window":
            base_window = _parse_pair(value, where)
        else:
            raise ModelError(f"{where}: unknown [sections] key {key!r}")
    if corners and sections.get("sections"):
        raise ModelError("[sections] is for models without a polycycle; a corner list "
                         "sets its own sections")
    base_section = None
    if base_anchor is not None or base_direction is not None:
        if base_anchor is None or base_direction is None:
            raise ModelError("base_anchor and base_direction must be given together")
        try:
            base_section = LineSection.make(base_anchor, base_direction,
                                            base_window or (0.0, math.inf))
        except ValueError as exc:
            raise ModelError(f"[sections] base_direction: {exc}") from exc

    options: list[tuple[str, float]] = []
    for lineno, key, value in sections.get("options", []):
        if key not in OPTION_DEFAULTS:
            known = ", ".join(sorted(OPTION_DEFAULTS))
            raise ModelError(f"line {lineno}: unknown option {key!r} (known: {known})")
        where = f"line {lineno}"
        options.append((key, check_option(key, _number(value, where), where)))

    return ModelFile(params=tuple(params), expr_x=exprs["dot_x"], expr_y=exprs["dot_y"],
                     corners=corners, base_section=base_section, options=tuple(options),
                     text=text, path=path)


def load_model(path: str) -> ModelFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc
    return parse_model(text, path=path)


def _signed_area(corners: Sequence[tuple[float, float]]) -> float:
    n = len(corners)
    total = 0.0
    for i in range(n):
        x0, y0 = corners[i]
        x1, y1 = corners[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return 0.5 * total


def merge_values(mf: ModelFile, overrides: Mapping[str, object] | None = None,
                 ) -> dict[str, Fraction | complex]:
    """Defaults plus overrides, exact where the override is exact.

    A complex override (a complex step) passes through as it is.
    """
    values = mf.defaults()
    for name, value in (overrides or {}).items():
        if name not in values:
            declared = ", ".join(mf.param_names) or "(none)"
            raise UsageError(f"unknown parameter {name!r}; declared: {declared}")
        values[name] = value if isinstance(value, (Fraction, complex)) else _number(
            str(value), f"override {name}", UsageError)
    return values


def binder(mf: ModelFile) -> Callable[[Mapping[str, object] | None], Model]:
    """``bind`` for one batch of points of ``mf``: the batch's binds share
    every subtree of the field programs whose parameters have values of
    equal type and repr (see expressions.instantiate).  Nothing outlives
    the function returned."""
    from .series import scalar  # series loads numpy, which start-up does without
    fields = (("dot_x", mf.expr_x, {}), ("dot_y", mf.expr_y, {}))

    def bind_one(overrides: Mapping[str, object] | None = None) -> Model:
        binding = merge_values(mf, overrides)
        arrays = []
        for key, expr, memo in fields:
            try:
                arrays.append(instantiate(expr, binding, memo))
            except ExpressionError as exc:  # a division by a parameter that is zero here
                raise ModelError(f"[field] {key}: {exc}") from exc
        return Model(file=mf, values={k: scalar(v) for k, v in binding.items()},
                     field_x=arrays[0], field_y=arrays[1])
    return bind_one


def bind(mf: ModelFile, overrides: Mapping[str, object] | None = None) -> Model:
    """Instantiate the field at parameter values."""
    return binder(mf)(overrides)
