"""Numerical flow oracle: section-to-section maps by direct integration.

Everything here deliberately avoids the closed-form expansion machinery so
that its output can serve as an independent cross-check.  Transition maps
are computed by integrating the vector field with tight tolerances and
locating section crossings with event detection plus a Newton polish;
asymptotic coefficients are recovered from samples on a geometric grid of
section parameters by Richardson-style extrapolation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import NumericError, OutOfBasinError, PolycycleError
from .expressions import BivariatePolynomial
from .saddle import LocalChart, SectionPair
from .series import horner

ATOL = 1e-12
RTOL = 1e-10
CROSS_RESIDUAL = 1e-12
PRE_STEP = 1e-6   # advance past a start that sits on the section line
MAX_RESTARTS = 20


def _dense_rows(poly: BivariatePolynomial) -> list[list[float]]:
    if not poly.coeffs:
        return [[0.0]]
    deg_x = max(i for i, _ in poly.coeffs)
    deg_y = max(j for _, j in poly.coeffs)
    rows = [[0.0] * (deg_y + 1) for _ in range(deg_x + 1)]
    for (i, j), c in poly.coeffs.items():
        rows[i][j] = c
    return rows


def _horner2(rows: list[list[float]], x: float, y: float) -> float:
    acc = 0.0
    for row in reversed(rows):
        rv = 0.0
        for c in reversed(row):
            rv = rv * y + c
        acc = acc * x + rv
    return acc


def field_callable(fx: BivariatePolynomial, fy: BivariatePolynomial):
    """Pack two polynomial components into a solve_ivp right-hand side."""
    rx, ry = _dense_rows(fx), _dense_rows(fy)

    def fun(t: float, y):
        a, b = np.asarray(y).tolist()  # Python floats: cheaper arithmetic than numpy scalars
        return (_horner2(rx, a, b), _horner2(ry, a, b))

    return fun


def chart_field(chart: LocalChart):
    """Right-hand side of the normalized local system u' = uP, v' = vQ."""
    rp, rq = _dense_rows(chart.p_poly), _dense_rows(chart.q_poly)

    def fun(t: float, y):
        u, v = np.asarray(y).tolist()
        return (u * _horner2(rp, u, v), v * _horner2(rq, u, v))

    return fun


@dataclass(frozen=True)
class EventRecord:
    index: int
    t: float
    state: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    states: np.ndarray
    status: str  # "event" | "tmax" | "failed"
    events: tuple[EventRecord, ...]
    sol: object

    def state_at(self, t: float) -> np.ndarray:
        return np.asarray(self.sol(t), dtype=float)


def integrate(fun, start, t_max: float, events: Sequence = (),
              t0: float = 0.0, atol: float = ATOL, rtol: float = RTOL) -> Trajectory:
    """Integrate with RK45 at oracle tolerances, dense output always on."""
    res = solve_ivp(fun, (t0, t0 + t_max), np.asarray(start, dtype=float),
                    method="RK45", dense_output=True, events=list(events) or None,
                    atol=atol, rtol=rtol)
    if res.status == -1:
        raise NumericError(f"integration failed: {res.message}")
    recs = []
    if res.t_events is not None:
        for idx, (ts, ys) in enumerate(zip(res.t_events, res.y_events)):
            for te, ye in zip(ts, ys):
                recs.append(EventRecord(index=idx, t=float(te), state=np.asarray(ye)))
    recs.sort(key=lambda rec: rec.t)
    status = "event" if res.status == 1 else "tmax"
    return Trajectory(t=res.t, states=res.y.T, status=status,
                      events=tuple(recs), sol=res.sol)


# ---------------------------------------------------------------------------
# Sections as parametrized lines or curves


@dataclass(frozen=True)
class LineSection:
    """Straight transverse section: anchor + t * direction, t in window."""

    anchor: np.ndarray
    direction: np.ndarray
    window: tuple[float, float]

    @classmethod
    def make(cls, anchor, direction, window) -> "LineSection":
        a = np.asarray(anchor, dtype=float)
        d = np.asarray(direction, dtype=float)
        if not np.linalg.norm(d) > 0:
            raise ValueError("section direction must be nonzero")
        return cls(anchor=a, direction=d, window=(float(window[0]), float(window[1])))

    @property
    def normal(self) -> np.ndarray:
        d = self.direction
        return np.array([-d[1], d[0]])

    def point(self, t: float) -> np.ndarray:
        return self.anchor + t * self.direction

    def param(self, point) -> float:
        d = self.direction
        return float((np.asarray(point) - self.anchor) @ d / (d @ d))

    def residual(self, point) -> float:
        return float((np.asarray(point) - self.anchor) @ self.normal)


def _line_event(section: LineSection, direction: float):
    (ax, ay), (nx, ny) = section.anchor.tolist(), section.normal.tolist()

    def g(t, y):
        a, b = y.tolist()
        return (a - ax) * nx + (b - ay) * ny

    g.terminal = True
    g.direction = direction
    return g


def _polish_onto_line(fun, point: np.ndarray, section: LineSection) -> np.ndarray:
    """One-dimensional Newton along the flow onto the section line."""
    scale = max(1.0, float(np.linalg.norm(point)))
    for _ in range(8):
        g = section.residual(point)
        if abs(g) <= CROSS_RESIDUAL * scale:
            return point
        vel = np.asarray(fun(0.0, point), dtype=float)
        dg = vel @ section.normal
        if dg == 0.0:
            break
        point = point - (g / dg) * vel
    raise NumericError("section crossing failed to converge to the line")


def crossing_map(fun, start, section: LineSection, t_max: float = 200.0,
                 match_direction: float | None = None,
                 pre_step: float = PRE_STEP,
                 atol: float = ATOL, rtol: float = RTOL) -> tuple[float, float]:
    """First valid crossing of a section line: returns (parameter, time).

    The start may lie on the section line; a short event-free phase first
    moves off of it.  Crossings outside the section window are skipped by
    restarting just past them.  ``match_direction`` filters the crossing
    orientation (defaults to the orientation of the flow at the start).
    """
    y = np.asarray(start, dtype=float)
    vel0 = np.asarray(fun(0.0, y), dtype=float)
    if match_direction is None:
        match_direction = math.copysign(1.0, float(vel0 @ section.normal))
    t_now = 0.0
    pre = integrate(fun, y, pre_step, atol=atol, rtol=rtol)
    y = pre.state_at(pre_step)
    t_now += pre_step

    for _ in range(MAX_RESTARTS):
        if t_now >= t_max:
            break
        traj = integrate(fun, y, t_max - t_now, events=[_line_event(section, match_direction)],
                         t0=t_now, atol=atol, rtol=rtol)
        if traj.status != "event":
            break
        rec = traj.events[-1]
        point = _polish_onto_line(fun, rec.state.copy(), section)
        u = section.param(point)
        if section.window[0] <= u <= section.window[1]:
            return u, rec.t
        nudge = integrate(fun, rec.state, pre_step, t0=rec.t, atol=atol, rtol=rtol)
        y = nudge.state_at(rec.t + pre_step)
        t_now = rec.t + pre_step
    raise OutOfBasinError("orbit did not return to the section window "
                          f"within t_max={t_max:g}")


def numeric_return(fun, section: LineSection, s: float, t_max: float = 200.0,
                   atol: float = ATOL, rtol: float = RTOL) -> float:
    """Return-map value by integrating one full loop from section parameter s."""
    if not section.window[0] <= s <= section.window[1]:
        raise ValueError(f"start parameter {s!r} outside the section window")
    u, _ = crossing_map(fun, section.point(s), section, t_max=t_max, atol=atol, rtol=rtol)
    return u


# ---------------------------------------------------------------------------
# Corner transition by integration


def numeric_dulac(chart: LocalChart, sections: SectionPair, s: float,
                  t_max: float = 200.0, atol: float = ATOL, rtol: float = RTOL) -> float:
    """Corner transition parameter by integrating the normalized local field.

    Starts at sigma1(s), detects the crossing of the chord line of sigma2,
    then solves y(t) = sigma2(u) with a two-variable Newton iteration on
    the dense output, so curved polynomial sections are handled exactly.
    """
    if s <= 0.0:
        raise ValueError("numeric_dulac expects s > 0")
    fun = chart_field(chart)
    start = np.array(sections.sigma1(s), dtype=float)
    anchor = np.array(sections.sigma2(0.0), dtype=float)
    dsigma2_x, dsigma2_y = P.polyder(sections.sigma2_x), P.polyder(sections.sigma2_y)
    tangent = np.array([horner(dsigma2_x, 0.0), horner(dsigma2_y, 0.0)])
    chord = LineSection.make(anchor, tangent, (-np.inf, np.inf))

    traj = integrate(fun, start, t_max, events=[_line_event(chord, 0.0)],
                     atol=atol, rtol=rtol)
    if traj.status != "event":
        raise OutOfBasinError("orbit left the chart without reaching the exit section")
    rec = traj.events[0]

    t_cur = rec.t
    u_cur = chord.param(rec.state)
    for _ in range(30):
        pt = traj.state_at(t_cur)
        sig = np.array([horner(sections.sigma2_x, u_cur),
                        horner(sections.sigma2_y, u_cur)])
        res = pt - sig
        if float(np.linalg.norm(res)) <= CROSS_RESIDUAL * max(1.0, float(np.linalg.norm(pt))):
            return u_cur
        vel = np.asarray(fun(t_cur, pt), dtype=float)
        dsig = np.array([horner(dsigma2_x, u_cur), horner(dsigma2_y, u_cur)])
        jac = np.column_stack([vel, -dsig])
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise NumericError("degenerate crossing geometry") from exc
        t_cur += step[0]
        u_cur += step[1]
    raise NumericError("section crossing Newton iteration did not converge")


# ---------------------------------------------------------------------------
# Coefficient recovery from sampled maps


@dataclass(frozen=True)
class FitReport:
    exponent: float
    leading: float
    second_exponent: float | None
    second_coeff: float | None
    residual_slope: float | None  # decay rate of what the model leaves over
    rel_residual: float
    grid: tuple[float, ...]
    confident: bool
    notes: tuple[str, ...] = ()


def _aitken(seq: Sequence[float]) -> tuple[float, float]:
    """Cascaded Aitken delta-squared acceleration.

    Returns (value, spread) where spread is the width of the deepest
    stable level, a crude confidence measure.
    """
    cur = list(seq)
    while len(cur) >= 3:
        nxt = []
        for x0, x1, x2 in zip(cur, cur[1:], cur[2:]):
            den = (x2 - x1) - (x1 - x0)
            if den == 0.0:
                nxt.append(x2)
            else:
                nxt.append(x2 - (x2 - x1) ** 2 / den)
        if not all(math.isfinite(v) for v in nxt):
            break
        if len(nxt) >= 2 and max(nxt) - min(nxt) > max(cur) - min(cur):
            break  # acceleration is amplifying noise; stop
        cur = nxt
    spread = max(cur) - min(cur) if len(cur) > 1 else 0.0
    return cur[-1], spread


def dulac_lattice(lam: float, cap: float = 3.5) -> tuple[float, ...]:
    """Bracket offsets i*lam + j (i, j >= 0) up to cap, deduplicated.

    Corner transition brackets expand on exactly this exponent set, so a
    lattice fit against it absorbs the slowly decaying tails that plain
    extrapolation cannot.
    """
    if lam <= 0.0:
        raise ValueError("hyperbolicity ratio must be positive")
    offs: list[float] = []
    i = 0
    while i * lam <= cap:
        j = 0
        while i * lam + j <= cap:
            o = i * lam + j
            if all(abs(o - p) > 1e-9 for p in offs):
                offs.append(o)
            j += 1
        i += 1
    return tuple(sorted(offs))


def _slope(logx: np.ndarray, logy: np.ndarray) -> float:
    a = np.column_stack([logx, np.ones_like(logx)])
    coef, *_ = np.linalg.lstsq(a, logy, rcond=None)
    return float(coef[0])


def fit_expansion(svals: Sequence[float], values: Sequence[float],
                  exponent: float | None = None,
                  second_exponent: float | None = None,
                  lattice: Sequence[float] | None = None) -> FitReport:
    """Recover v(s) ~ A s^e (1 + (B/A) s^e2 + ...) from samples on a
    decreasing geometric grid.

    Default route: the exponent comes from extrapolated log-log slopes
    unless given, the leading coefficient from the extrapolated sequence
    v/s^e, and the second term from the residual sequence.  When the
    exponent lattice of the expansion is known (offsets inside the
    bracket, 0 included), pass it together with ``exponent`` to switch to
    a least-squares fit on those monomials; that resolves slowly decaying
    tails far better than extrapolation.

    second_exponent is the offset inside the bracket: the second term
    sits at s^(e + e2).  residual_slope is measured on the bracket, i.e.
    on v/s^e minus the fitted bracket model, and is None when the
    leftover is at machine level.
    """
    s = np.asarray(svals, dtype=float)
    v = np.asarray(values, dtype=float)
    if s.size != v.size or s.size < 4:
        raise ValueError("need at least 4 samples")
    order = np.argsort(-s)
    s, v = s[order], v[order]
    if np.any(s <= 0.0) or np.any(v == 0.0):
        raise ValueError("samples must have s > 0 and nonzero values")
    notes: list[str] = []
    confident = True

    if lattice is not None:
        if exponent is None:
            raise ValueError("a lattice fit needs the leading exponent")
        offsets = sorted(set(float(o) for o in lattice) | {0.0})
        room = s.size - 4
        if len(offsets) > room:
            offsets = offsets[:room]
            notes.append("lattice truncated to leave 4 degrees of freedom")
        if second_exponent is None:
            positive = [o for o in offsets if o > 0.0]
            second_exponent = positive[0] if positive else None
        bracket = v / s**exponent
        cols = np.column_stack([s**o for o in offsets])
        scale = np.linalg.norm(cols, axis=0)
        coef, *_ = np.linalg.lstsq(cols / scale, bracket, rcond=None)
        coef = coef / scale
        by_offset = dict(zip(offsets, coef))
        leading = float(by_offset[0.0])
        second_coeff = None
        if second_exponent is not None:
            near = [o for o in offsets if abs(o - second_exponent) <= 1e-9]
            second_coeff = float(by_offset[near[0]]) if near else None
        model_bracket = cols @ coef
    else:
        logs = np.log(s)
        logv = np.log(np.abs(v))
        if exponent is None:
            slopes = np.diff(logv) / np.diff(logs)
            exponent, e_spread = _aitken(list(slopes))
            if e_spread > 1e-3 * max(1.0, abs(exponent)):
                confident = False
                notes.append("exponent extrapolation did not stabilize")
        bracket = v / s**exponent
        leading, a_spread = _aitken(list(bracket))
        if a_spread > 1e-3 * abs(leading):
            confident = False
            notes.append("leading coefficient extrapolation did not stabilize")
        sign = math.copysign(1.0, v[-1])
        if sign * leading <= 0.0:
            confident = False
            notes.append("leading coefficient extrapolation disagrees with sample sign")

        resid = bracket - leading
        good = np.abs(resid) > 1e-13 * abs(leading)
        second_coeff = None
        if np.count_nonzero(good) >= 4:
            rs, rv = s[good], resid[good]
            if second_exponent is None:
                rslopes = np.diff(np.log(np.abs(rv))) / np.diff(np.log(rs))
                second_exponent, _ = _aitken(list(rslopes))
            second_coeff, _ = _aitken(list(rv / rs**second_exponent))
        model_bracket = np.full_like(s, leading)
        if second_coeff is not None:
            model_bracket = model_bracket + second_coeff * s**second_exponent

    leftover = bracket - model_bracket
    floor = 1e-13 * float(np.max(np.abs(bracket)))
    live = np.abs(leftover) > floor
    residual_slope = None
    if np.count_nonzero(live) >= 4:
        residual_slope = _slope(np.log(s[live]), np.log(np.abs(leftover[live])))
    model = model_bracket * s**exponent
    rel = float(np.max(np.abs(v - model) / np.abs(v)))
    if not np.all(np.diff(np.abs(v)) < 0.0) and not np.all(np.diff(np.abs(v)) > 0.0):
        confident = False
        notes.append("samples are not monotone in s")
    return FitReport(exponent=float(exponent), leading=float(leading),
                     second_exponent=None if second_exponent is None else float(second_exponent),
                     second_coeff=None if second_coeff is None else float(second_coeff),
                     residual_slope=residual_slope, rel_residual=rel,
                     grid=tuple(float(x) for x in s), confident=confident,
                     notes=tuple(notes))


# ---------------------------------------------------------------------------
# Limit cycle counting along a section


@dataclass(frozen=True)
class CycleRecord:
    s: float
    stability: str  # "stable" | "unstable" | "flat"


@dataclass(frozen=True)
class CycleCount:
    cycles: tuple[CycleRecord, ...]
    scanned: tuple[float, float]
    warnings: tuple[str, ...] = ()


def count_limit_cycles(displacement: Callable[[float], float], s_min: float, s_max: float,
                       samples: int = 200, tol: float = 1e-10) -> CycleCount:
    """Sign-change scan of a displacement function on a log grid, with
    Brent refinement of each bracket to tol*max(1, s) and stability tags
    from the signs of the bracketing samples.
    """
    if not 0.0 < s_min < s_max:
        raise ValueError("need 0 < s_min < s_max")
    grid = np.geomspace(s_min, s_max, samples)
    warnings: list[str] = []
    vals = np.empty_like(grid)
    ok = np.ones(grid.shape, dtype=bool)
    for i, g in enumerate(grid):
        try:
            vals[i] = displacement(float(g))
        except PolycycleError as exc:
            ok[i] = False
            warnings.append(f"sample s={g:.3e} failed: {exc}")
    grid, vals = grid[ok], vals[ok]
    if grid.size < 2:
        raise NumericError("too few displacement samples for a scan")

    cycles: list[CycleRecord] = []
    near_zero = np.abs(vals) <= tol
    if near_zero.any():
        warnings.append("displacement within tolerance of zero at some samples; "
                        "counts may be unreliable")
    for i in range(grid.size - 1):
        a, b = grid[i], grid[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa * fb >= 0.0:
            continue  # exact zeros at grid points are flagged by the warning above

        def bracketed(s: float) -> float:
            # brentq evaluates both ends first; the scan already has them
            return fa if s == a else fb if s == b else displacement(s)

        root = brentq(bracketed, a, b, xtol=0.5 * tol * max(1.0, b))
        if fa < 0.0 < fb:
            stab = "unstable"
        elif fa > 0.0 > fb:
            stab = "stable"
        else:
            stab = "flat"
        cycles.append(CycleRecord(s=float(root), stability=stab))
    return CycleCount(cycles=tuple(cycles), scanned=(float(grid[0]), float(grid[-1])),
                      warnings=tuple(warnings))
