"""End-to-end analysis drivers shared by the command line and the tests.

A bound model is turned into per-corner charts and sections, the chain
of Dulac expansions, the return and displacement expansions, parameter
gradients, and a cyclicity verdict.  The numeric drivers wrap the flow
oracle over the same geometry so closed forms and integrations are
always talking about the same sections.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import __version__
from .calculus import (CompensatorTerm, DisplacementExpansion, ReturnExpansion,
                       displacement_expansion, return_expansion)
from .cyclicity import gradient, not_identity_probe, verdict
from .errors import (ModelError, NumericError, PolycycleError, UnsupportedGeometryError,
                     UsageError)
from .flow import (LineSection, chart_field, dulac_lattice, field_callable, fit_expansion,
                   count_limit_cycles, numeric_dulac, numeric_return)
from .model import OPTION_DEFAULTS, Model, ModelFile, bind, check_option, merge_values
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
    "default_fit_grid",
]

def default_fit_grid(s0: float = 1e-2, points: int = 13) -> np.ndarray:
    """Halving grid s0 * 2**-k, the standard grid for expansion fits."""
    return s0 * 2.0 ** -np.arange(points, dtype=float)


@dataclass(frozen=True)
class CornerData:
    index: int  # 1-based, order of the model's corner list
    corner: tuple[float, float]
    h_in: float
    h_out: float
    chart: LocalChart
    expansion: DulacExpansion


def _unit_edges(corners: Sequence[tuple[float, float]], i: int,
                ) -> tuple[np.ndarray, np.ndarray, float, float]:
    n = len(corners)
    here = np.asarray(corners[i], dtype=float)
    prev = np.asarray(corners[(i - 1) % n], dtype=float)
    nxt = np.asarray(corners[(i + 1) % n], dtype=float)
    vin, vout = prev - here, nxt - here
    lin, lout = float(np.linalg.norm(vin)), float(np.linalg.norm(vout))
    if lin < 1e-12 or lout < 1e-12:
        raise ModelError(f"corner {i + 1}: zero-length polycycle edge")
    return vin / lin, vout / lout, lin, lout


def build_corners(model: Model) -> tuple[CornerData, ...]:
    """Charts, sections and Dulac data for every corner of the polycycle.

    Section half-lengths follow the edges (h = edge length / 2), which
    makes the exit section of each corner and the entry section of the
    next the same model-coordinate curve; that identity is what lets the
    corner expansions compose into a return map, so it is verified here.
    """
    corners = model.file.corners
    if not corners:
        raise ModelError("model declares no polycycle")
    fx, fy = model.field_x, model.field_y

    data: list[CornerData] = []
    for i, corner in enumerate(corners):
        incoming, outgoing, lin, lout = _unit_edges(corners, i)
        h_in, h_out = 0.5 * lin, 0.5 * lout
        chart = normalize_saddle(fx, fy, corner, incoming, outgoing,
                                 footprint=max(h_in, h_out) + 0.05)
        expansion = dulac_coefficients(chart, h_in, h_out)
        data.append(CornerData(index=i + 1, corner=tuple(map(float, corner)),
                               h_in=h_in, h_out=h_out, chart=chart, expansion=expansion))

    for cd, nxt in zip(data, data[1:] + data[:1]):
        exit_anchor, exit_dir = _exit_curve(cd)
        entry_anchor, entry_dir = _entry_curve(nxt)
        if not (np.allclose(exit_anchor, entry_anchor, atol=1e-9)
                and np.allclose(exit_dir, entry_dir, atol=1e-9)):
            raise UnsupportedGeometryError(
                f"corner {cd.index} exit section and corner {nxt.index} entry "
                "section are different curves; the polycycle edges do not chain")
    return tuple(data)


def _exit_curve(cd: CornerData) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(cd.chart.linear, dtype=float)
    return cd.chart.to_model((cd.h_out, 0.0)), a.T @ np.array([0.0, 1.0])


def _entry_curve(cd: CornerData) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(cd.chart.linear, dtype=float)
    return cd.chart.to_model((0.0, cd.h_in)), a.T @ np.array([1.0, 0.0])


def return_section(model: Model, corners: tuple[CornerData, ...] | None = None,
                   ) -> LineSection:
    """The entry section of corner 1 as a model-coordinate line.

    Return maps and displacement scans are measured here; the window
    stays inside the section footprint and off the polycycle itself.
    """
    if model.file.base_section is not None:
        return model.file.base_section
    if corners is None:
        corners = build_corners(model)
    cd = corners[0]
    anchor, direction = _entry_curve(cd)
    return LineSection.make(tuple(anchor), tuple(direction), (1e-12, 0.9 * cd.h_in))


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
        sect = return_section(model, corners)
        fun = field_callable(model.field_x, model.field_y)
        s_hi = sect.window[1]
        probe_s = [s_hi / 4.0, s_hi / 16.0, s_hi / 64.0]
        not_identity = not_identity_probe(
            lambda s: numeric_return(fun, sect, s, **_integration(opts)),
            probe_s, tol=opts["rtol"])
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
            "compensator": _comp_doc(ret.comp),
            "flatness": list(ret.ell),
            "notes": list(ret.notes),
        },
    }
    if disp is not None:
        doc["displacement"] = {
            "rotation": disp.rotation,
            "split": disp.split,
            "alpha": disp.alpha,
            "exponents": list(disp.exponents),
            "psi1": disp.psi1,
            "psi2": disp.psi2,
            "psi3": disp.psi3,
            "scale": disp.scale,
            "notes": list(disp.notes),
        }
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
        "items": [
            {"label": it.label, "kind": it.kind, "bound": it.bound,
             "fired": it.fired, "condition": it.condition, "detail": it.detail}
            for it in v.items
        ],
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
              s0: float = 1e-2, window: tuple[float, float] | None = None) -> np.ndarray:
    """fit_points sample points, geometric over s_range from the top when
    given, else the halving grid from s0.  A given s_range must lie inside
    the section window, when there is one."""
    points = int(opts["fit_points"])
    if s_range is None:
        return default_fit_grid(s0=s0, points=points)
    lo, hi = _check_range(s_range)
    if window is not None and not window[0] <= lo < hi <= window[1]:
        raise UsageError(f"s range {lo:g}:{hi:g} leaves the section window "
                         f"{window[0]:g}:{window[1]:g}")
    return np.geomspace(hi, lo, points)


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


def _comp_doc(comp: CompensatorTerm | None) -> dict | None:
    if comp is None:
        return None
    return {"exponent": comp.exponent, "alpha": comp.alpha,
            "plain": comp.plain, "wrapped": comp.wrapped}


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


def _fit_doc(fit) -> dict:
    return {
        "exponent": fit.exponent,
        "leading": fit.leading,
        "second_exponent": fit.second_exponent,
        "second_coeff": fit.second_coeff,
        "residual_slope": fit.residual_slope,
        "rel_residual": fit.rel_residual,
        "confident": fit.confident,
        "notes": list(fit.notes),
        "grid": list(fit.grid),
    }


def oracle_dulac(mf: ModelFile, corner_index: int,
                 s_range: tuple[float, float] | None = None,
                 overrides: Mapping[str, object] | None = None,
                 tol_overrides: Mapping[str, float] | None = None) -> dict:
    """Integrate the corner transition map and fit its expansion.

    Samples fit_points values of s, geometric over s_range or on the
    standard halving grid.  Two fits are reported: a free fit (exponent
    measured from the data) and a lattice fit pinned at the closed-form
    ratio, which refines the coefficients once the exponent is
    independently confirmed.
    """
    opts = _options(mf, tol_overrides)
    svals = _fit_grid(opts, s_range)
    model = bind(mf, overrides)
    corners = build_corners(model)
    if not 1 <= corner_index <= len(corners):
        raise ModelError(f"corner index {corner_index} out of range "
                         f"1..{len(corners)}")
    cd = corners[corner_index - 1]
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
        "fit_free": _fit_doc(free),
        "fit_pinned": _fit_doc(pinned),
        "closed_form": closed,
        "deviation": deviation,
    }


def oracle_return(mf: ModelFile, s_range: tuple[float, float] | None = None,
                  overrides: Mapping[str, object] | None = None,
                  tol_overrides: Mapping[str, float] | None = None) -> dict:
    """Integrate the full return map and compare with the two-term form.

    Samples fit_points values of s, geometric over s_range or on the
    halving grid from min(1e-2, half the section window).
    """
    opts = _options(mf, tol_overrides)
    model = bind(mf, overrides)
    corners = build_corners(model)
    sect = return_section(model, corners)
    fun = field_callable(model.field_x, model.field_y)
    svals = _fit_grid(opts, s_range, s0=min(1e-2, 0.5 * sect.window[1]), window=sect.window)
    rows, ok_s, ok_v = _sample(
        lambda s: numeric_return(fun, sect, s, **_integration(opts)), svals)

    ret = return_expansion([cd.expansion for cd in corners])
    for row in rows:
        if row["value"] is not None:
            pred = ret.evaluate(row["s"])
            row["two_term"] = pred
            row["gap"] = row["value"] - pred
        else:
            row["two_term"] = None
            row["gap"] = None
    free = fit_expansion(ok_s, ok_v)
    return {
        "command": "oracle",
        "what": "return",
        "provenance": _provenance(mf, opts),
        "parameters": dict(sorted(model.values.items())),
        "section": {"anchor": [float(v) for v in sect.anchor],
                    "direction": [float(v) for v in sect.direction],
                    "window": [float(v) for v in sect.window]},
        "samples": rows,
        "fit_free": _fit_doc(free),
        "closed_form": {"ratio": ret.ratio, "leading": ret.leading,
                        "kind": ret.kind,
                        "second_exponent": ret.second_exponent,
                        "second_coeff": ret.second_coeff},
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
    sect = return_section(model)
    fun = field_callable(model.field_x, model.field_y)
    lo = max(lo, sect.window[0])
    hi = min(hi, sect.window[1])
    if not 0.0 < lo < hi:
        raise ModelError(f"cycle scan range ({lo:g}, {hi:g}) is empty after "
                         "clipping to the section window")

    def displacement(s: float) -> float:
        return numeric_return(fun, sect, s, **_integration(opts)) - s

    count = count_limit_cycles(displacement, lo, hi,
                               samples=int(opts["samples"]),
                               tol=opts["rtol"])
    return {
        "command": "oracle",
        "what": "cycles",
        "provenance": _provenance(mf, opts),
        "parameters": dict(sorted(model.values.items())),
        "section": {"anchor": [float(v) for v in sect.anchor],
                    "direction": [float(v) for v in sect.direction],
                    "window": [float(v) for v in sect.window]},
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
         overrides: Mapping[str, object] | None = None,
         max_points: int = 10**6) -> tuple[list[str], list[list]]:
    """Closed-form quantities on a Cartesian parameter grid.

    Returns (header, rows) for CSV emission.  Grid axes must name
    declared parameters; the total point count is capped.
    """
    if not grid:
        raise UsageError("empty grid specification")
    declared = set(mf.param_names)
    for name in grid:
        if name not in declared:
            raise UsageError(f"grid parameter {name!r} is not declared by the model")
    total = 1
    for name, (_, _, count) in grid.items():
        if count < 1:
            raise UsageError(f"grid axis {name!r}: count must be >= 1")
        total *= count
    # checked before any axis is built: one huge axis alone would exhaust memory
    if total > max_points:
        raise UsageError(f"grid has {total} points; the limit is {max_points}")
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
