"""End-to-end analysis drivers shared by the command line and the tests.

A bound model is turned into per-corner sections (from the corner list
alone) and charts, the chain of Dulac expansions, the return and
displacement expansions, parameter gradients, and a cyclicity verdict.
The numeric drivers integrate the flow over the same sections, and build
no closed form they do not compare against; the one they do compare
against comes after the integration, so it cannot stop it.

Scan chunks and gradients evaluate the chain over a batch of parameter
points, one lane each.  A batch computes each distinct input once: its
binds share every field subtree whose parameters are equal, and within a
corner, lanes with equal axis data share their transition.  A lane
computes only what its caller reads: the corners block of ``analyze``'s
document prints S1 and S2 and the notes on an S that fails, so that
chain asks each corner for both S (``both_s``); scan lanes, gradient
lanes and the oracles' closed forms read neither unused S and skip it.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import __version__
from .calculus import (DisplacementExpansion, DulacExpansion, ReturnExpansion,
                       displacement_expansion, return_expansion)
from .cyclicity import gradient, not_identity_probe, verdict
from .errors import (ModelError, NumericError, PolycycleError, UnsupportedGeometryError,
                     UsageError)
from .flow import (chart_field, dulac_lattice, field_callable, fit_expansion,
                   count_limit_cycles, numeric_dulac, numeric_return)
from .model import (FIT_MIN_POINTS, MAX_GRID_POINTS, OPTION_DEFAULTS, LineSection, Model,
                    ModelFile, bind, binder, check_option, merge_values)
from .resultdoc import block
from .saddle import dulac_coefficients, normalize_saddle

__all__ = [
    "build_corners",
    "return_section",
    "analyze",
    "oracle_dulac",
    "oracle_return",
    "oracle_cycles",
    "scan",
]


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


def _geometry(mf: ModelFile) -> list[_Geometry]:
    """Edge directions and section half-lengths (half the edges) of every corner.

    Corner k's exit line runs along the edge into k, and corner k + 1's entry
    line along the edge out of k + 1, both through the midpoint of the edge
    between them: one curve exactly when those edges are parallel.  That
    identity lets the corner expansions compose into a return map, so it is
    verified here.
    """
    corners = mf.corners
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
        a, b = geometry[i].incoming, geometry[(i + 1) % n].outgoing
        if not np.all(np.abs(a - b) <= 1e-9 + 1e-5 * np.abs(b)):  # np.allclose(a, b, atol=1e-9)
            raise UnsupportedGeometryError(
                f"corner {i + 1} exit section and corner {(i + 1) % n + 1} entry "
                "section are different curves; the polycycle edges do not chain")
    return geometry


SCAN_LANES = 32  # parameter points a scan evaluates in one batch


def _raised(lane):
    """A lane's result, or its error raised."""
    if isinstance(lane, PolycycleError):
        raise lane
    return lane


def _attempt(fun: Callable, lane):
    """fun(lane), or the PolycycleError it raises; an error lane stays."""
    try:
        return lane if isinstance(lane, PolycycleError) else fun(lane)
    except PolycycleError as exc:
        return exc


def _batch(fun: Callable[[list], list], lanes: Sequence) -> list:
    """fun of the lanes that are not errors, as one batch; an error stays."""
    results = iter(fun([lane for lane in lanes if not isinstance(lane, PolycycleError)]))
    return [lane if isinstance(lane, PolycycleError) else next(results) for lane in lanes]


def build_corners(models: Sequence[Model], *, both_s: bool = False,
                  ) -> list[tuple[DulacExpansion, ...] | PolycycleError]:
    """The Dulac expansion of every corner, on the sections of ``_geometry``,
    for a batch of bindings of one model file: per model (lane), its corners'
    expansions in corner-list order, or its first error.  Each corner is one
    batch.  ``both_s`` asks each corner for the S its case does not use (see
    dulac_coefficients), which only the corners block of a document prints."""
    try:
        geometry = _geometry(models[0].file) if models else []
    except PolycycleError as exc:
        return [exc] * len(models)
    lanes: list = [()] * len(models)
    for geo in geometry:
        charts = [_attempt(lambda m: normalize_saddle(m.field_x, m.field_y, geo.corner,
                                                      geo.incoming, geo.outgoing),
                           lane if isinstance(lane, PolycycleError) else m)
                  for lane, m in zip(lanes, models)]
        expansions = _batch(lambda batch: dulac_coefficients(batch, geo.h_in, geo.h_out,
                                                             both_s=both_s), charts)
        lanes = [d if isinstance(d, PolycycleError) else lane + (d,)
                 for lane, d in zip(lanes, expansions)]
    return lanes


def return_section(model: Model) -> LineSection:
    """The model's base section, else the entry line of corner 1.

    Return maps and displacement scans are measured here.
    """
    if model.file.base_section is not None:
        return model.file.base_section
    return _geometry(model.file)[0].entry()


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
    nan = math.nan
    out = {"ratio": ret.ratio, "leading": ret.leading,
           "second": nan if ret.second_coeff is None else ret.second_coeff,
           "psi1": nan, "psi2": nan, "psi3": nan}
    if disp is not None:
        out.update(psi1=disp.psi1, psi2=disp.psi2, psi3=nan if disp.psi3 is None else disp.psi3)
    return out


def _fold(chain: Sequence[DulacExpansion]) -> tuple[ReturnExpansion,
                                                    DisplacementExpansion | None, str | None]:
    """Return and displacement expansions, and why the latter is unavailable."""
    ret = return_expansion(chain)
    try:
        return ret, displacement_expansion(chain), None
    except PolycycleError as exc:
        return ret, None, str(exc)


def _chain_quantities(mf: ModelFile, points: Sequence[Mapping[str, object]],
                      ) -> list[dict[str, float | complex] | PolycycleError]:
    """The six closed-form quantities at each parameter point of one batch,
    or the point's first error.  A complex step gives complex quantities.
    The points are bound as one batch, and no corner computes the S its case
    does not use.
    """
    bind_one = binder(mf)
    lanes = _batch(build_corners, [_attempt(bind_one, p) for p in points])
    return [_attempt(lambda chain: _quantities(*_fold(chain)[:2]), lane) for lane in lanes]


def analyze(mf: ModelFile, overrides: Mapping[str, object] | None = None,
            tol_overrides: Mapping[str, float] | None = None) -> dict:
    """Full pipeline: normalize, expand, differentiate, probe, judge.

    Returns the result document as a nested dict ready for serialization.
    """
    opts = _options(mf, tol_overrides)
    model = bind(mf, overrides)
    chain = _raised(build_corners([model], both_s=True)[0])
    ret, disp, disp_note = _fold(chain)

    grads: dict[str, dict[str, float | None]] = {}
    if model.values:
        base = _quantities(ret, disp)
        steps = gradient(lambda points: [_raised(q) for q in _chain_quantities(mf, points)],
                         model.values)
        grads = {name: g for name, g in steps.items() if math.isfinite(base[name])}

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
                "location": list(geo.corner),
                "h_in": geo.h_in,
                "h_out": geo.h_out,
                **_expansion_doc(d),
            }
            for geo, d in zip(_geometry(mf), chain)
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


def _check_window(lo: float, hi: float, window: tuple[float, float],
                  what: str = "s range", hint: str = "") -> None:
    """The one range rule of the oracles: lo:hi lies inside the section
    window, or it is a UsageError."""
    if not (window[0] <= lo and hi <= window[1]):
        raise UsageError(f"{what} {lo:g}:{hi:g} leaves the section window "
                         f"{window[0]:g}:{window[1]:g}{hint}")


def _fit_grid(opts: Mapping[str, float], s_range: tuple[float, float] | None,
              window: tuple[float, float]) -> np.ndarray:
    """fit_points sample points, geometric over s_range from the top when
    given, else the halving grid from min(1e-2, half the window's top).
    Either grid must lie inside the section window."""
    points = int(opts["fit_points"])
    if s_range is None:
        svals = min(1e-2, 0.5 * window[1]) * 2.0 ** -np.arange(points, dtype=float)
        _check_window(svals[-1], svals[0], window, "default fit grid", "; give --s-range")
        return svals
    lo, hi = _check_range(s_range)
    _check_window(lo, hi, window)
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
    exponent, coeff = d.terms[0] if d.terms else (None, None)
    return {
        "ratio": d.ratio,
        "case": d.case,
        "leading": d.leading,
        "next_exponent": exponent,
        "next_coeff": coeff,
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
    if len(ok_s) < FIT_MIN_POINTS:
        first = next(row for row in rows if row["error"] is not None)
        got = (f"only {len(ok_s)} of {len(rows)} samples succeeded" if ok_s
               else "every sample failed")
        raise NumericError(f"{got}; a fit needs at least {FIT_MIN_POINTS}; first failure "
                           f"at s={first['s']:g}: {first['error']}")
    return rows, ok_s, ok_v


def oracle_dulac(mf: ModelFile, corner_index: int,
                 s_range: tuple[float, float] | None = None,
                 overrides: Mapping[str, object] | None = None,
                 tol_overrides: Mapping[str, float] | None = None) -> dict:
    """Integrate the corner transition map and compare with its closed form.

    Samples fit_points values of s, geometric over s_range or on the
    halving grid, inside the entry window (1e-12, 0.9·h_in).  A free fit
    measures the exponent, compared with the chart's ratio; a lattice fit
    is pinned at that ratio.  The closed form comes after the integration;
    when it fails, its reason stands in ``closed_form``.
    """
    opts = _options(mf, tol_overrides)
    model = bind(mf, overrides)
    geometry = _geometry(mf)
    if not 1 <= corner_index <= len(geometry):
        raise UsageError(f"corner index {corner_index} out of range "
                         f"1..{len(geometry)}")
    geo = geometry[corner_index - 1]
    chart = normalize_saddle(model.field_x, model.field_y, geo.corner, geo.incoming,
                             geo.outgoing)
    fun, kwargs = chart_field(chart), _integration(opts)
    rows, ok_s, ok_v = _sample(lambda s: numeric_dulac(fun, geo.h_in, geo.h_out, s, **kwargs),
                               _fit_grid(opts, s_range, geo.entry().window))
    free = fit_expansion(ok_s, ok_v)
    lam = chart.lam
    pinned = fit_expansion(ok_s, ok_v, exponent=lam, lattice=dulac_lattice(lam))

    (d,) = dulac_coefficients([chart], geo.h_in, geo.h_out)
    closed = {"unavailable": str(d)} if isinstance(d, PolycycleError) else {
        key: value for key, value in _expansion_doc(d).items()
        if key in ("ratio", "leading", "next_exponent", "next_coeff")}
    deviation = {
        "exponent": _rel_gap(free.exponent, lam),
        "leading": _rel_gap(pinned.leading, closed.get("leading")),
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
        ret = return_expansion(_raised(build_corners([model])[0]))
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


def oracle_cycles(mf: ModelFile, s_range: tuple[float, float] | None = None,
                  overrides: Mapping[str, object] | None = None,
                  tol_overrides: Mapping[str, float] | None = None) -> dict:
    """Count return-map fixed points on s_range by sign changes.

    The range must lie inside the section window, the rule of every
    oracle's s range (see _check_window); samples sets the scan grid and
    rtol the width to which each root is refined.
    """
    opts = _options(mf, tol_overrides)
    model = bind(mf, overrides)
    sect, return_map = _return_map(model, opts)
    if s_range is None:  # 1e-6:1e-1 clipped to the window, else the whole window
        w_lo, w_hi = sect.window
        lo, hi = max(1e-6, w_lo), min(1e-1, w_hi)
        if lo >= hi and not math.isfinite(w_hi):
            raise UsageError(f"the section window {w_lo:g}:{w_hi:g} does not meet the "
                             "default s range 1e-06:0.1; give --s-range")
        s_range = (lo, hi) if lo < hi else sect.window
    lo, hi = _check_range(s_range)
    _check_window(lo, hi, sect.window)
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
        if name in (overrides or {}):
            raise UsageError(f"grid parameter {name!r} is also set to a fixed value")
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
    combos = itertools.product(*(vals for _, vals in axes))
    while chunk := list(itertools.islice(combos, SCAN_LANES)):
        points = [{**base, **{name: float(v) for name, v in zip(names, combo)}}
                  for combo in chunk]
        for combo, q in zip(chunk, _chain_quantities(mf, points)):
            row: list = [float(v) for v in combo]
            if isinstance(q, PolycycleError):
                row += [math.nan] * len(quantity_cols) + [str(q)]
            else:
                row += [q["ratio"] - 1.0, q["leading"] - 1.0, q["second"],
                        q["psi1"], q["psi2"], q["psi3"], None]
            rows.append(row)
    return header, rows
