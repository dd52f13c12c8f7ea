"""End-to-end analysis drivers shared by the command line and the tests.

A bound model is turned into per-corner sections (from the corner list
alone) and charts, the chain of Dulac expansions, the return and
displacement expansions, parameter gradients, and a cyclicity verdict.
The numeric drivers integrate the flow over the same sections, and build
no closed form they do not compare against; the one they do compare
against comes after the integration, so it cannot stop it.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import __version__
from .calculus import (DisplacementExpansion, ReturnExpansion, displacement_expansion,
                       return_expansion)
from .cyclicity import gradient, not_identity_probe, verdict
from .errors import (ModelError, NumericError, PolycycleError, UnsupportedGeometryError,
                     UsageError)
from .flow import (LineSection, chart_field, dulac_lattice, field_callable, fit_expansion,
                   count_limit_cycles, numeric_dulac, numeric_return)
from .model import (MAX_GRID_POINTS, OPTION_DEFAULTS, Model, ModelFile, bind, check_option,
                    merge_values)
from .resultdoc import block
from .saddle import DulacExpansion, LocalChart, dulac_coefficients, normalize_saddle

__all__ = [
    "CornerData",
    "build_corners",
    "return_section",
    "analyze",
    "oracle_dulac",
    "oracle_return",
    "oracle_cycles",
    "scan",
]


@dataclass(frozen=True)
class CornerData:
    index: int  # 1-based, order of the model's corner list
    corner: tuple[float, float]
    h_in: float
    h_out: float
    chart: LocalChart
    expansion: DulacExpansion


@dataclass(frozen=True)
class _Geometry:
    """Where a corner's sections lie: a property of the corner list alone."""

    corner: tuple[float, float]
    incoming: np.ndarray  # unit vector toward the previous corner
    outgoing: np.ndarray  # unit vector toward the next corner
    h_in: float
    h_out: float

    def entry(self) -> LineSection:
        """The entry line v = h_in: through the midpoint of the incoming edge,
        along the outgoing one, on a window inside the footprint and off the
        polycycle itself."""
        return LineSection.make(self.corner + self.h_in * self.incoming, self.outgoing,
                                (1e-12, 0.9 * self.h_in))


def _geometry(model: Model) -> list[_Geometry]:
    """Edge directions and section half-lengths (half the edges) of every corner.

    Corner k's exit line runs along the edge into k, and corner k + 1's entry
    line along the edge out of k + 1, both through the midpoint of the edge
    between them: one curve exactly when those edges are parallel.  That
    identity lets the corner expansions compose into a return map, so it is
    verified here.
    """
    corners = model.file.corners
    if not corners:
        raise ModelError("model declares no polycycle")
    points = [np.asarray(c, dtype=float) for c in corners]
    n = len(points)
    geometry = []
    for i, here in enumerate(points):
        vin, vout = points[i - 1] - here, points[(i + 1) % n] - here
        lin, lout = float(np.linalg.norm(vin)), float(np.linalg.norm(vout))
        if lin < 1e-12 or lout < 1e-12:
            raise ModelError(f"corner {i + 1}: zero-length polycycle edge")
        geometry.append(_Geometry(tuple(map(float, here)), vin / lin, vout / lout,
                                  0.5 * lin, 0.5 * lout))
    for i in range(n):
        if not np.allclose(geometry[i].incoming, geometry[(i + 1) % n].outgoing, atol=1e-9):
            raise UnsupportedGeometryError(
                f"corner {i + 1} exit section and corner {(i + 1) % n + 1} entry "
                "section are different curves; the polycycle edges do not chain")
    return geometry


def _corner(model: Model, index: int, geo: _Geometry) -> CornerData:
    chart = normalize_saddle(model.field_x, model.field_y, geo.corner,
                             geo.incoming, geo.outgoing)
    return CornerData(index=index, corner=geo.corner, h_in=geo.h_in, h_out=geo.h_out,
                      chart=chart, expansion=dulac_coefficients(chart, geo.h_in, geo.h_out))


def build_corners(model: Model) -> tuple[CornerData, ...]:
    """Charts and Dulac data for every corner of the polycycle, on the
    sections of ``_geometry``."""
    return tuple(_corner(model, i + 1, geo) for i, geo in enumerate(_geometry(model)))


def return_section(model: Model) -> LineSection:
    """The model's base section, else the entry line of corner 1.

    Return maps and displacement scans are measured here.
    """
    if model.file.base_section is not None:
        return model.file.base_section
    return _geometry(model)[0].entry()


def _return_map(model: Model, opts: Mapping[str, float],
                ) -> tuple[LineSection, Callable[[float], float]]:
    """The return section and the integrated return map on it."""
    sect = return_section(model)
    fun, kwargs = field_callable(model.field_x, model.field_y), _integration(opts)
    return sect, lambda s: numeric_return(fun, sect, s, **kwargs)


# ---------------------------------------------------------------------------
# Closed-form quantities and gradients


def _quantities(ret: ReturnExpansion, disp: DisplacementExpansion | None,
                ) -> dict[str, float | complex]:
    out = {
        "ratio": ret.ratio,
        "leading": ret.leading,
        "second": ret.second_coeff if ret.second_coeff is not None else math.nan,
        "psi1": math.nan, "psi2": math.nan, "psi3": math.nan,
    }
    if disp is not None:
        out["psi1"] = disp.psi1
        out["psi2"] = disp.psi2
        out["psi3"] = disp.psi3 if disp.psi3 is not None else math.nan
    return out


def _chain(model: Model) -> tuple[tuple[CornerData, ...], ReturnExpansion,
                                  DisplacementExpansion | None, str | None]:
    """Corners, return expansion and displacement expansion of a bound
    model, with the reason when the displacement is unavailable."""
    corners = build_corners(model)
    chain = [cd.expansion for cd in corners]
    ret = return_expansion(chain)
    try:
        return corners, ret, displacement_expansion(chain), None
    except PolycycleError as exc:
        return corners, ret, None, str(exc)


def _chain_quantities(mf: ModelFile, values: Mapping[str, object],
                      ) -> dict[str, float | complex]:
    """The six closed-form quantities at a parameter point.

    Complex parameter values (a complex step) give complex quantities.
    """
    _, ret, disp, _ = _chain(bind(mf, values))
    return _quantities(ret, disp)


def analyze(mf: ModelFile, overrides: Mapping[str, object] | None = None,
            tol_overrides: Mapping[str, float] | None = None) -> dict:
    """Full pipeline: normalize, expand, differentiate, probe, judge.

    Returns the result document as a nested dict ready for serialization.
    """
    opts = _options(mf, tol_overrides)
    model = bind(mf, overrides)
    corners, ret, disp, disp_note = _chain(model)

    grads: dict[str, dict[str, float | None]] = {}
    if model.values:
        base = _quantities(ret, disp)
        grads = {name: g for name, g in
                 gradient(lambda p: _chain_quantities(mf, p), model.values).items()
                 if math.isfinite(base[name])}

    not_identity: bool | None = None
    probe_error: str | None = None
    try:
        sect, return_map = _return_map(model, opts)
        s_hi = sect.window[1]
        not_identity = not_identity_probe(return_map, [s_hi / 4.0, s_hi / 16.0, s_hi / 64.0],
                                          tol=opts["rtol"])
    except PolycycleError as exc:
        probe_error = str(exc)

    v = verdict(ret, disp, grads, not_identity, zero_tol=opts["zero_tol"])
    doc: dict = {
        "command": "analyze",
        "provenance": _provenance(mf, opts),
        "parameters": dict(sorted(model.values.items())),
        "corners": [
            {
                "location": list(cd.corner),
                "h_in": cd.h_in,
                "h_out": cd.h_out,
                **_expansion_doc(cd.expansion),
            }
            for cd in corners
        ],
        "return": {
            "pattern": ret.pattern,
            "split": ret.split,
            "ratio": ret.ratio,
            "leading": ret.leading,
            "kind": ret.kind,
            "second_exponent": ret.second_exponent,
            "second_coeff": ret.second_coeff,
            "second_scale": ret.second_scale,
            "compensator": None if ret.comp is None else block(ret.comp),
            "flatness": list(ret.ell),
            "notes": list(ret.notes),
        },
    }
    if disp is not None:
        doc["displacement"] = block(disp)
    else:
        doc["displacement"] = {"unavailable": disp_note or "not computed"}
    doc["gradients"] = {
        name: dict(sorted(g.items())) for name, g in sorted(grads.items())
    }
    doc["probe"] = {
        "not_identity": not_identity,
        "error": probe_error,
        "tolerance": opts["rtol"],
    }
    doc["verdict"] = {
        "lower": v.lower,
        "upper": v.upper,
        "consistent": v.consistent,
        "summary": v.summary(),
        "zero_tol": opts["zero_tol"],
        "items": [block(it) for it in v.items],
        "notes": list(v.notes),
    }
    return doc


def _options(mf: ModelFile, tol_overrides: Mapping[str, float] | None) -> dict[str, float]:
    """OPTION_DEFAULTS, then the model file's [options], then per-run overrides."""
    opts = dict(OPTION_DEFAULTS)
    opts.update(dict(mf.options))
    for name, value in (tol_overrides or {}).items():
        if name not in OPTION_DEFAULTS:
            known = ", ".join(sorted(OPTION_DEFAULTS))
            raise UsageError(f"unknown tolerance {name!r} (known: {known})")
        opts[name] = check_option(name, value, "--tol", UsageError)
    return opts


def _integration(opts: Mapping[str, float]) -> dict[str, float]:
    """Keyword arguments that carry the options into every flow integration."""
    return {"t_max": opts["t_max"], "atol": opts["atol"], "rtol": opts["rtol"]}


def _check_range(s_range: tuple[float, float]) -> tuple[float, float]:
    lo, hi = s_range
    if not 0.0 < lo < hi:
        raise UsageError(f"s range {lo:g}:{hi:g} is empty; need 0 < LO < HI")
    return lo, hi


def _fit_grid(opts: Mapping[str, float], s_range: tuple[float, float] | None,
              window: tuple[float, float]) -> np.ndarray:
    """fit_points sample points, geometric over s_range from the top when
    given, else the halving grid from min(1e-2, half the window's top).
    Either grid must lie inside the section window."""
    points = int(opts["fit_points"])
    if s_range is None:
        svals = min(1e-2, 0.5 * window[1]) * 2.0 ** -np.arange(points, dtype=float)
        lo, hi, what, hint = svals[-1], svals[0], "default fit grid", "; give --s-range"
    else:
        lo, hi = _check_range(s_range)
        svals, what, hint = np.geomspace(hi, lo, points), "s range", ""
    if not (window[0] <= lo and hi <= window[1]):
        raise UsageError(f"{what} {lo:g}:{hi:g} leaves the section window "
                         f"{window[0]:g}:{window[1]:g}{hint}")
    return svals


# ---------------------------------------------------------------------------
# Document assembly


def _provenance(mf: ModelFile, opts: Mapping[str, float]) -> dict:
    return {
        "package": "polycycles",
        "version": __version__,
        "model_path": None if mf.path is None else str(mf.path),
        "input_sha256": hashlib.sha256(mf.text.encode()).hexdigest(),
        "tolerances": {k: float(v) for k, v in sorted(opts.items())},
    }


def _expansion_doc(d: DulacExpansion) -> dict:
    return {
        "ratio": d.ratio,
        "case": d.case,
        "leading": d.leading,
        "next_exponent": d.next_exponent,
        "next_coeff": d.next_coeff,
        "s1": d.s1,
        "s2": d.s2,
        "flatness": list(d.ell),
        "notes": list(d.notes),
    }


# ---------------------------------------------------------------------------
# Numeric drivers


def _sample(fun: Callable[[float], float], svals: Sequence[float],
            ) -> tuple[list[dict], list[float], list[float]]:
    rows, ok_s, ok_v = [], [], []
    for s in svals:
        row: dict = {"s": float(s)}
        try:
            value = fun(float(s))
        except PolycycleError as exc:
            row["value"] = None
            row["error"] = str(exc)
        else:
            row["value"] = value
            row["error"] = None
            ok_s.append(float(s))
            ok_v.append(value)
        rows.append(row)
    if not ok_s:
        raise NumericError("every sample failed; see per-sample errors")
    return rows, ok_s, ok_v


def oracle_dulac(mf: ModelFile, corner_index: int,
                 s_range: tuple[float, float] | None = None,
                 overrides: Mapping[str, object] | None = None,
                 tol_overrides: Mapping[str, float] | None = None) -> dict:
    """Integrate the corner transition map and fit its expansion.

    Samples fit_points values of s, geometric over s_range or on the
    halving grid, inside the entry window (1e-12, 0.9·h_in).  Two fits
    are reported: a free fit (exponent measured from the data) and a
    lattice fit pinned at the closed-form ratio, which refines the
    coefficients once the exponent is independently confirmed.
    """
    opts = _options(mf, tol_overrides)
    model = bind(mf, overrides)
    geometry = _geometry(model)
    if not 1 <= corner_index <= len(geometry):
        raise UsageError(f"corner index {corner_index} out of range "
                         f"1..{len(geometry)}")
    geo = geometry[corner_index - 1]
    cd = _corner(model, corner_index, geo)
    svals = _fit_grid(opts, s_range, geo.entry().window)
    fun = chart_field(cd.chart)
    rows, ok_s, ok_v = _sample(
        lambda s: numeric_dulac(fun, cd.h_in, cd.h_out, s, **_integration(opts)),
        svals)

    free = fit_expansion(ok_s, ok_v)
    lam = cd.expansion.ratio
    pinned = fit_expansion(ok_s, ok_v, exponent=lam, lattice=dulac_lattice(lam))
    d = cd.expansion
    closed = {"ratio": d.ratio, "leading": d.leading,
              "next_exponent": d.next_exponent, "next_coeff": d.next_coeff}
    deviation = {
        "exponent": _rel_gap(free.exponent, d.ratio),
        "leading": _rel_gap(pinned.leading, d.leading),
    }
    return {
        "command": "oracle",
        "what": "dulac",
        "corner": corner_index,
        "provenance": _provenance(mf, opts),
        "parameters": dict(sorted(model.values.items())),
        "samples": rows,
        "fit_free": block(free),
        "fit_pinned": block(pinned),
        "closed_form": closed,
        "deviation": deviation,
    }


def oracle_return(mf: ModelFile, s_range: tuple[float, float] | None = None,
                  overrides: Mapping[str, object] | None = None,
                  tol_overrides: Mapping[str, float] | None = None) -> dict:
    """Integrate the full return map and compare with the two-term form.

    Samples fit_points values of s, geometric over s_range or on the
    halving grid (see _fit_grid).  The closed form is built after the
    integration; when it fails, its reason stands in ``closed_form`` and
    the rows carry no prediction.
    """
    opts = _options(mf, tol_overrides)
    model = bind(mf, overrides)
    sect, return_map = _return_map(model, opts)
    rows, ok_s, ok_v = _sample(return_map, _fit_grid(opts, s_range, sect.window))
    free = fit_expansion(ok_s, ok_v)

    try:
        ret = return_expansion([cd.expansion for cd in build_corners(model)])
    except PolycycleError as exc:
        ret, closed = None, {"unavailable": str(exc)}
    else:
        closed = {"ratio": ret.ratio, "leading": ret.leading, "kind": ret.kind,
                  "second_exponent": ret.second_exponent, "second_coeff": ret.second_coeff}
    for row in rows:
        pred = None if ret is None or row["value"] is None else ret.evaluate(row["s"])
        row["two_term"] = pred
        row["gap"] = None if pred is None else row["value"] - pred
    return {
        "command": "oracle",
        "what": "return",
        "provenance": _provenance(mf, opts),
        "parameters": dict(sorted(model.values.items())),
        "section": block(sect),
        "samples": rows,
        "fit_free": block(free),
        "closed_form": closed,
    }


def oracle_cycles(mf: ModelFile, s_range: tuple[float, float],
                  overrides: Mapping[str, object] | None = None,
                  tol_overrides: Mapping[str, float] | None = None) -> dict:
    """Count return-map fixed points on s_range by sign changes.

    The range is clipped to the section window; samples sets the scan
    grid and rtol the width to which each root is refined.
    """
    opts = _options(mf, tol_overrides)
    lo, hi = _check_range(s_range)
    model = bind(mf, overrides)
    sect, return_map = _return_map(model, opts)
    lo = max(lo, sect.window[0])
    hi = min(hi, sect.window[1])
    if not 0.0 < lo < hi:
        raise UsageError(f"cycle scan range ({lo:g}, {hi:g}) is empty after "
                         "clipping to the section window")

    count = count_limit_cycles(lambda s: return_map(s) - s, lo, hi,
                               samples=int(opts["samples"]),
                               tol=opts["rtol"])
    return {
        "command": "oracle",
        "what": "cycles",
        "provenance": _provenance(mf, opts),
        "parameters": dict(sorted(model.values.items())),
        "section": block(sect),
        "range": [lo, hi],
        "scanned": count.scanned,
        "cycles": [{"s": c.s, "stability": c.stability} for c in count.cycles],
        "warnings": list(count.warnings),
    }


def _rel_gap(got: float | None, want: float | None) -> float | None:
    if got is None or want is None:
        return None
    return abs(got - want) / max(1e-300, abs(want))


# ---------------------------------------------------------------------------
# Parameter scans


def scan(mf: ModelFile, grid: Mapping[str, tuple[float, float, int]],
         overrides: Mapping[str, object] | None = None) -> tuple[list[str], list[list]]:
    """Closed-form quantities on a Cartesian parameter grid.

    Returns (header, rows) for CSV emission.  Grid axes must name
    declared parameters; the total point count is at most MAX_GRID_POINTS.
    """
    if not grid:
        raise UsageError("empty grid specification")
    declared = set(mf.param_names)
    for name in grid:
        if name not in declared:
            raise UsageError(f"grid parameter {name!r} is not declared by the model")
    total = 1
    for name, (start, stop, count) in grid.items():
        if count < 1:
            raise UsageError(f"grid axis {name!r}: count must be >= 1")
        # finite only when both bounds are, and the axis step then is too
        if not math.isfinite(stop - start):
            raise UsageError(f"grid axis {name!r}: bounds {start:g}:{stop:g} and their "
                             "difference must be finite")
        total *= count
    # checked before any axis is built: one huge axis alone would exhaust memory
    if total > MAX_GRID_POINTS:
        raise UsageError(f"grid has {total} points; the limit is {MAX_GRID_POINTS}")
    axes = [(name, np.linspace(start, stop, count))
            for name, (start, stop, count) in grid.items()]

    base = merge_values(mf, overrides)
    names = [name for name, _ in axes]
    quantity_cols = ["r_minus_1", "leading_minus_1", "second",
                     "psi1", "psi2", "psi3"]
    header = names + quantity_cols + ["error"]
    rows: list[list] = []
    for combo in itertools.product(*(vals for _, vals in axes)):
        point = dict(base)
        for name, value in zip(names, combo):
            point[name] = float(value)
        row: list = [float(v) for v in combo]
        try:
            q = _chain_quantities(mf, point)
        except PolycycleError as exc:
            row += [math.nan] * len(quantity_cols) + [str(exc)]
        else:
            row += [q["ratio"] - 1.0, q["leading"] - 1.0, q["second"],
                    q["psi1"], q["psi2"], q["psi3"], None]
        rows.append(row)
    return header, rows
