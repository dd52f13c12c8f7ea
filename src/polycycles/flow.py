"""Numerical flow oracle: section-to-section maps by direct integration.

Everything here deliberately avoids the closed-form expansion machinery so
that its output can serve as an independent cross-check.  Transition maps
are computed by integrating the vector field with tight tolerances; a
section crossing is the root of the line function on the last step's
quartic interpolant, so it lies on the line to rounding.  Asymptotic
coefficients are recovered from samples on a geometric grid of section
parameters by Richardson-style extrapolation.

The integrator is a Dormand–Prince 5(4) pair stepping on Python floats
(`integrate`); fields are planar and autonomous, ``fun(x, y) -> (fx, fy)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, OutOfBasinError, PolycycleError
from .saddle import LocalChart

ATOL = 1e-12
RTOL = 1e-10
PRE_STEP = 1e-6   # advance past a start that sits on the section line
MAX_RESTARTS = 20
EPS = 2.0 ** -52
ROOT_RTOL = 4 * EPS  # relative part of the bracket width a root is refined to
ROOT_MAXITER = 100
LATTICE_CAP = 3.5    # largest offset of a corner-transition lattice fit

# Dormand–Prince 5(4) tableau (Dormand and Prince 1980) and the quartic
# dense output of Shampine (1986), the coefficients of scipy's RK45.  The
# fields are autonomous, so the stage times C are listed but never used.
C = (0.0, 1/5, 3/10, 4/5, 8/9, 1.0)
A = (
    (0.0, 0.0, 0.0, 0.0, 0.0),
    (1/5, 0.0, 0.0, 0.0, 0.0),
    (3/40, 9/40, 0.0, 0.0, 0.0),
    (44/45, -56/15, 32/9, 0.0, 0.0),
    (19372/6561, -25360/2187, 64448/6561, -212/729, 0.0),
    (9017/3168, -355/33, 46732/5247, 49/176, -5103/18656),
)
B = (35/384, 0.0, 500/1113, 125/192, -2187/6784, 11/84)
E = (-71/57600, 0.0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40)
P = (
    (1.0, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799),
    (0.0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072),
    (0.0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632),
    (0.0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844),
    (0.0, 40617522/29380423, -110615467/29380423, 69997945/29380423),
)
# step control of Hairer, Nørsett and Wanner (Solving ODEs I, §II.4)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 5.0  # the embedded error estimate is of order 4


def _horner_step(acc: str | None, var: str, term: str | None) -> str | None:
    """Source of acc*var + term, where None stands for an exact zero."""
    if acc is None:
        return term
    return f"({acc})*{var}" if term is None else f"({acc})*{var}+({term})"


def _horner_source(c: np.ndarray) -> str:
    """Straight-line source of sum_ij c[i, j] x^i y^j over the names x and y.

    Horner in x over Horner rows in y, the order of operations of the
    nested loop ``acc = acc*x + (...(c[i, m]*y + c[i, m-1])*y ... + c[i, 0])``
    started from zero.  Zero coefficients are left out: ``0*y + c`` is c
    and ``r*y + 0`` is r*y, so every value is ``==`` to the loop's at
    finite x and y (an exact zero may come out with the other sign).  A
    coefficient is written as the repr of its Python scalar, and a complex
    one as complex(re, im), so that it reads back to the same number.
    """
    acc = None
    for row in reversed(c.tolist()):
        rv = None
        for a in reversed(row):
            lit = None if a == 0 else (f"complex({a.real!r}, {a.imag!r})"
                                       if isinstance(a, complex) else repr(a))
            rv = _horner_step(rv, "y", lit)
        acc = _horner_step(acc, "x", rv)
    return "0.0" if acc is None else acc


def _compile(source: str) -> Callable[[float, float], tuple[float, float]]:
    """The function ``lambda x, y: (source)``; its names are inf, nan, complex."""
    return eval(f"lambda x, y: ({source})",
                {"__builtins__": {}, "inf": math.inf, "nan": math.nan, "complex": complex})


def field_callable(fx: np.ndarray, fy: np.ndarray,
                   ) -> Callable[[float, float], tuple[float, float]]:
    """Compile two coefficient arrays c[i, j] into one float right-hand side."""
    return _compile(f"{_horner_source(fx)}, {_horner_source(fy)}")


def chart_field(chart: LocalChart) -> Callable[[float, float], tuple[float, float]]:
    """Right-hand side of the normalized local system u' = uP, v' = vQ,
    compiled once per chart; its arguments are (u, v)."""
    return _compile(f"x*({_horner_source(chart.p_poly)}), "
                    f"y*({_horner_source(chart.q_poly)})")


# ---------------------------------------------------------------------------
# Dormand–Prince 5(4) integration


@dataclass(frozen=True)
class _Step:
    """One accepted step's quartic interpolant: state at t_old + theta*h is
    start + h*theta*(q0 + theta*(q1 + theta*(q2 + theta*q3)))."""

    t_old: float
    h: float
    start: tuple[float, float]
    qx: tuple[float, float, float, float]
    qy: tuple[float, float, float, float]

    @classmethod
    def make(cls, t_old: float, h: float, start: tuple[float, float],
             kx: Sequence[float], ky: Sequence[float]) -> "_Step":
        qx = tuple(sum(k * row[j] for k, row in zip(kx, P)) for j in range(4))
        qy = tuple(sum(k * row[j] for k, row in zip(ky, P)) for j in range(4))
        return cls(t_old, h, start, qx, qy)

    def __call__(self, t: float) -> tuple[float, float]:
        h, (x0, y0), (a0, a1, a2, a3), (b0, b1, b2, b3) = (
            self.h, self.start, self.qx, self.qy)
        th = (t - self.t_old) / h
        return (x0 + h * th * (a0 + th * (a1 + th * (a2 + th * a3))),
                y0 + h * th * (b0 + th * (b1 + th * (b2 + th * b3))))

    def crossing(self, g0: float, nx: float, ny: float) -> float:
        """Time at which (state - anchor)·n, equal to g0 at the step's start,
        has its root on the interpolant, the step having changed its sign."""
        c0, c1, c2, c3 = (a * nx + b * ny for a, b in zip(self.qx, self.qy))
        h = self.h

        def g(th: float) -> float:
            return g0 + h * th * (c0 + th * (c1 + th * (c2 + th * c3)))

        g1 = g(1.0)
        if g0 != 0.0 and (g0 > 0.0) == (g1 > 0.0):
            return self.t_old + h  # rounding left the interpolant short of the line
        return self.t_old + h * _bracket_root(g, 0.0, 1.0, g0, g1, xtol=4 * EPS)


@dataclass(frozen=True)
class Trajectory:
    """Where an integration stopped: at a section crossing ("event") or at
    the end of its time span ("tmax")."""

    status: str  # "event" | "tmax"
    t: float
    state: tuple[float, float]


def _rms(ex: float, ey: float, sx: float, sy: float) -> float:
    ex, ey = ex / sx, ey / sy
    return math.sqrt(0.5 * (ex * ex + ey * ey))


def _initial_step(fun, x: float, y: float, fx: float, fy: float,
                  span: float, atol: float, rtol: float) -> float:
    """First step size by the rule of Hairer, Nørsett and Wanner (§II.4)."""
    sx, sy = atol + abs(x) * rtol, atol + abs(y) * rtol
    d0, d1 = _rms(x, y, sx, sy), _rms(fx, fy, sx, sy)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    gx, gy = fun(x + h0 * fx, y + h0 * fy)
    d2 = _rms(gx - fx, gy - fy, sx, sy) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -ERROR_EXPONENT
    return min(100.0 * h0, h1, span)


def integrate(fun, start, t_max: float, section: LineSection | None = None,
              direction: float = 0.0, t0: float = 0.0,
              atol: float = ATOL, rtol: float = RTOL) -> Trajectory:
    """Integrate the planar field ``fun`` from ``start`` for time t_max.

    Dormand–Prince 5(4) with local extrapolation and FSAL, under the step
    control of scipy's RK45: the error is the RMS of the embedded estimate
    over atol + max(|y|, |y_new|)·rtol, the step grows by 0.9·err^(-1/5)
    within [0.2, 10] and not at all right after a rejection, and a step
    below ten ulps of t is a NumericError.  With a ``section`` the run
    stops in the first step over which (x - ax)·nx + (y - ay)·ny changes
    sign in ``direction`` (+1 upward, -1 downward, 0 either), at that
    function's root on the step's quartic interpolant.
    """
    t_end = t0 + t_max
    if not t_end > t0:
        raise ValueError("integration time span must be positive")
    (_, (a21, *_), (a31, a32, *_), (a41, a42, a43, *_), (a51, a52, a53, a54, _),
     (a61, a62, a63, a64, a65)) = A
    b1, _, b3, b4, b5, b6 = B
    e1, _, e3, e4, e5, e6, e7 = E
    x, y = float(start[0]), float(start[1])
    t = t0
    fx, fy = fun(x, y)
    h_abs = _initial_step(fun, x, y, fx, fy, t_end - t, atol, rtol)
    if section is not None:
        (ax, ay), (nx, ny) = section.anchor.tolist(), section.normal.tolist()
        g = (x - ax) * nx + (y - ay) * ny
        up, down = direction >= 0.0, direction <= 0.0

    crossed = False
    while not crossed and t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise NumericError(f"integration failed: step size fell below "
                                   f"ten ulps at t={t:g}")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            k2x, k2y = fun(x + h * (a21 * fx), y + h * (a21 * fy))
            k3x, k3y = fun(x + h * (a31 * fx + a32 * k2x),
                           y + h * (a31 * fy + a32 * k2y))
            k4x, k4y = fun(x + h * (a41 * fx + a42 * k2x + a43 * k3x),
                           y + h * (a41 * fy + a42 * k2y + a43 * k3y))
            k5x, k5y = fun(x + h * (a51 * fx + a52 * k2x + a53 * k3x + a54 * k4x),
                           y + h * (a51 * fy + a52 * k2y + a53 * k3y + a54 * k4y))
            k6x, k6y = fun(
                x + h * (a61 * fx + a62 * k2x + a63 * k3x + a64 * k4x + a65 * k5x),
                y + h * (a61 * fy + a62 * k2y + a63 * k3y + a64 * k4y + a65 * k5y))
            xn = x + h * (b1 * fx + b3 * k3x + b4 * k4x + b5 * k5x + b6 * k6x)
            yn = y + h * (b1 * fy + b3 * k3y + b4 * k4y + b5 * k5y + b6 * k6y)
            k7x, k7y = fun(xn, yn)
            err = _rms(h * (e1 * fx + e3 * k3x + e4 * k4x + e5 * k5x + e6 * k6x + e7 * k7x),
                       h * (e1 * fy + e3 * k3y + e4 * k4y + e5 * k5y + e6 * k6y + e7 * k7y),
                       atol + max(abs(x), abs(xn)) * rtol,
                       atol + max(abs(y), abs(yn)) * rtol)
            if err < 1.0:
                factor = (MAX_FACTOR if err == 0.0
                          else min(MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT))
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            rejected = True

        t_old, x_old, y_old, k1x, k1y = t, x, y, fx, fy
        t, x, y, fx, fy = t_new, xn, yn, k7x, k7y
        if section is not None:
            g_old, g = g, (x - ax) * nx + (y - ay) * ny
            crossed = (up and g_old <= 0.0 <= g) or (down and g_old >= 0.0 >= g)

    if crossed:
        step = _Step.make(t_old, h, (x_old, y_old), (k1x, k2x, k3x, k4x, k5x, k6x, k7x),
                          (k1y, k2y, k3y, k4y, k5y, k6y, k7y))
        t_cross = step.crossing(g_old, nx, ny)
        return Trajectory("event", t_cross, step(t_cross))
    return Trajectory("tmax", t, (x, y))


def _bracket_root(f: Callable[[float], float], a: float, b: float, fa: float, fb: float,
                  xtol: float) -> float:
    """Root of f in [a, b] from end values of opposite sign, by Brent's
    method (inverse quadratic interpolation safeguarded by bisection) as in
    scipy's brentq; stops once the bracket is narrower than
    xtol + ROOT_RTOL·|x|, and fails after ROOT_MAXITER steps.
    A value of f inside the bracket that is not finite is a NumericError:
    Brent would read NaN as neither sign and settle on a point that is no
    root.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError("root is not bracketed")
    x_pre, f_pre, x_cur, f_cur = a, fa, b, fb
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(ROOT_MAXITER):
        if (f_pre < 0.0 < f_cur) or (f_cur < 0.0 < f_pre):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * (xtol + ROOT_RTOL * abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = (-f_cur * (f_blk * d_blk - f_pre * d_pre)
                         / (d_blk * d_pre * (f_blk - f_pre)))
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = f(x_cur)
        if not math.isfinite(f_cur):
            raise NumericError(f"root refinement met f = {f_cur} at x = {x_cur:.6g}")
    raise NumericError(f"root refinement did not converge in {ROOT_MAXITER} steps")


# ---------------------------------------------------------------------------
# Sections


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


def crossing_map(fun, start, section: LineSection, t_max: float = 200.0,
                 atol: float = ATOL, rtol: float = RTOL) -> tuple[float, float]:
    """First valid crossing of a section line: returns (parameter, time).

    The start may lie on the section line; an event-free phase of PRE_STEP
    first moves off of it.  Only crossings in the orientation of the flow
    at the start count, and those outside the section window are skipped
    by restarting just past them.
    """
    state = (float(start[0]), float(start[1]))
    vx, vy = fun(*state)
    nx, ny = section.normal.tolist()
    direction = math.copysign(1.0, vx * nx + vy * ny)
    state = integrate(fun, state, PRE_STEP, atol=atol, rtol=rtol).state
    t_now = PRE_STEP

    for _ in range(MAX_RESTARTS):
        if t_now >= t_max:
            break
        traj = integrate(fun, state, t_max - t_now, section=section,
                         direction=direction, t0=t_now, atol=atol, rtol=rtol)
        if traj.status != "event":
            break
        u = section.param(traj.state)
        if section.window[0] <= u <= section.window[1]:
            return u, traj.t
        state = integrate(fun, traj.state, PRE_STEP, t0=traj.t, atol=atol, rtol=rtol).state
        t_now = traj.t + PRE_STEP
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


def numeric_dulac(fun, h_in: float, h_out: float, s: float,
                  t_max: float = 200.0, atol: float = ATOL, rtol: float = RTOL) -> float:
    """Corner transition by integrating the normalized local field ``fun``
    (a ``chart_field``): the v at which the orbit from (s, h_in) crosses
    the exit line u = h_out."""
    if s <= 0.0:
        raise ValueError("numeric_dulac expects s > 0")
    exit_line = LineSection.make((h_out, 0.0), (0.0, 1.0), (-np.inf, np.inf))
    traj = integrate(fun, (s, h_in), t_max, section=exit_line,
                     atol=atol, rtol=rtol)
    if traj.status != "event":
        raise OutOfBasinError("orbit left the chart without reaching the exit section")
    return traj.state[1]


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


def dulac_lattice(lam: float) -> tuple[float, ...]:
    """Bracket offsets i*lam + j (i, j >= 0) up to LATTICE_CAP, deduplicated.

    Corner transition brackets expand on exactly this exponent set, so a
    lattice fit against it absorbs the slowly decaying tails that plain
    extrapolation cannot.
    """
    if lam <= 0.0:
        raise ValueError("hyperbolicity ratio must be positive")
    offs: list[float] = []
    i = 0
    while i * lam <= LATTICE_CAP:
        j = 0
        while i * lam + j <= LATTICE_CAP:
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

    The report's second_exponent is the offset e2 inside the bracket: the
    second term sits at s^(e + e2).  A lattice fit takes the least positive
    offset.  residual_slope is measured on the bracket, i.e. on v/s^e
    minus the fitted bracket model, and is None when the leftover is at
    machine level.
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
        positive = [o for o in offsets if o > 0.0]
        second_exponent = positive[0] if positive else None
        bracket = v / s**exponent
        cols = np.column_stack([s**o for o in offsets])
        scale = np.linalg.norm(cols, axis=0)
        coef, *_ = np.linalg.lstsq(cols / scale, bracket, rcond=None)
        coef = coef / scale
        by_offset = dict(zip(offsets, coef))
        leading = float(by_offset[0.0])
        second_coeff = None if second_exponent is None else float(by_offset[second_exponent])
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
        second_exponent = second_coeff = None
        if np.count_nonzero(good) >= 4:
            rs, rv = s[good], resid[good]
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
    stability: str  # "stable" | "unstable"


@dataclass(frozen=True)
class CycleCount:
    cycles: tuple[CycleRecord, ...]
    scanned: tuple[float, float]
    warnings: tuple[str, ...] = ()


def count_limit_cycles(displacement: Callable[[float], float], s_min: float, s_max: float,
                       samples: int = 200, tol: float = 1e-10) -> CycleCount:
    """Sign-change scan of a displacement function on a log grid, with
    Brent refinement of each bracket to a relative width tol and stability
    tags from the signs of the bracketing samples.  Samples with
    |displacement| <= tol·s are flagged as possibly missed roots; a sample
    that raises a PolycycleError or is not finite is dropped with a warning,
    and so is a bracket whose refinement meets one.
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
            continue
        if not math.isfinite(vals[i]):
            ok[i] = False
            warnings.append(f"sample s={g:.3e} failed: displacement is {vals[i]}")
    grid, vals = grid[ok], vals[ok]
    if grid.size < 2:
        raise NumericError("too few displacement samples for a scan")

    cycles: list[CycleRecord] = []
    near_zero = np.abs(vals) <= tol * grid
    if near_zero.any():
        warnings.append("displacement within tolerance of zero at some samples; "
                        "counts may be unreliable")
    for i in range(grid.size - 1):
        a, b = float(grid[i]), float(grid[i + 1])
        fa, fb = float(vals[i]), float(vals[i + 1])
        if fa * fb >= 0.0:
            continue  # exact zeros at grid points are flagged by the warning above
        try:
            root = _bracket_root(displacement, a, b, fa, fb, xtol=0.5 * tol * b)
        except PolycycleError as exc:
            warnings.append(f"bracket [{a:.6e}, {b:.6e}] dropped: {exc}")
            continue
        cycles.append(CycleRecord(s=float(root), stability="unstable" if fa < 0.0 else "stable"))
    return CycleCount(cycles=tuple(cycles), scanned=(float(grid[0]), float(grid[-1])),
                      warnings=tuple(warnings))
