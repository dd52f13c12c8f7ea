"""Numerical flow oracle: section-to-section maps by direct integration.

Everything here deliberately avoids the closed-form expansion machinery so
that its output can serve as an independent cross-check.  Transition maps
are computed by integrating the vector field with tight tolerances.  A
section crossing is the root of the line function on a step's quartic
interpolant, so it lies on the line to rounding.  It counts, and ends the
run, when the line function changes sign in the requested direction and
the root lies inside the section window; `integrate` alone decides this.
Asymptotic coefficients are recovered from samples on a geometric grid of
section parameters: by cascaded Aitken delta-squared extrapolation, or by
least squares on the exponent lattice when the exponent is pinned.

The integrator is a Dormand–Prince 5(4) pair stepping on Python floats
(`integrate`); fields are planar and autonomous, ``fun(x, y) -> (fx, fy)``.
Its step loop is written once, as the source template _STEP_LOOP, and
compiled into a kernel per field pattern on the first integration that
needs it.  A field made by `field_callable` or `chart_field` is tagged
with its pattern: its kind and which coefficients are nonzero.  One
routine, _source, writes its Horner statements over coefficient names,
both for the field itself, which binds the names to its values, and for
the pattern's kernel, which inlines them at every stage and takes the
values as arguments, so fields that differ only in those values share
one kernel.  Any other callable runs in the generic kernel, which calls
it at every stage.  Both do the same float operations in the
same order, so they return the same trajectory to the last bit.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import NumericError, OutOfBasinError, PolycycleError
from .model import ATOL, FIT_MIN_POINTS, RTOL, T_MAX, LineSection

if TYPE_CHECKING:
    from .saddle import LocalChart

PRE_STEP = 1e-6   # advance past a start that sits on the section line
EPS = 2.0 ** -52
ROOT_RTOL = 4 * EPS  # relative part of the bracket width a root is refined to
ROOT_MAXITER = 100
LATTICE_CAP = 3.5    # largest offset of a corner-transition lattice fit

# Dormand–Prince 5(4) tableau (Dormand and Prince 1980) and the quartic
# dense output of Shampine (1986), the coefficients of scipy's RK45.
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


# Parentheses nested in one generated expression.  Python's parser allows 200;
# a deeper Horner expression is cut into statements (see _HornerSource).
_MAX_DEPTH = 50


class _HornerSource:
    """Straight-line source of polynomials in the variables named x and y:
    statements that bind the temporaries t0, t1, ..., then one expression
    per coefficient array."""

    def __init__(self, x: str, y: str) -> None:
        self.x, self.y = x, y
        self.lines: list[str] = []

    def _step(self, acc: tuple[str, int] | None, var: str,
              term: tuple[str, int] | None) -> tuple[str, int] | None:
        """Source and depth of acc*var + term, where None stands for an exact
        zero; a result nested _MAX_DEPTH deep is bound to a temporary."""
        if acc is None:
            return term
        src, depth = acc
        if term is None:
            src, depth = f"({src})*{var}", depth + 1
        else:
            src, depth = f"({src})*{var}+({term[0]})", max(depth, term[1]) + 1
        if depth < _MAX_DEPTH:
            return src, depth
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {src}")
        return name, 0

    def horner(self, terms: list[list[str | None]]) -> str:
        """Source of sum_ij c[i, j] x^i y^j, where terms[i][j] is the source
        of c[i, j] or None for an exact zero.

        Horner in x over Horner rows in y, the order of operations of the
        nested loop ``acc = acc*x + (...(c[i, m]*y + c[i, m-1])*y ... + c[i, 0])``
        started from zero.  Zero coefficients are left out: ``0*y + c`` is c
        and ``r*y + 0`` is r*y, so every value is ``==`` to the loop's at
        finite x and y (an exact zero may come out with the other sign).  A
        temporary holds a value the expression would have computed at the
        same point, so the order of operations is the same.
        """
        acc = None
        for row in reversed(terms):
            rv = None
            for term in reversed(row):
                rv = self._step(rv, self.y, None if term is None else (term, 0))
            acc = self._step(acc, self.x, rv)
        return "0.0" if acc is None else acc[0]


def _source(pattern: tuple | None, px: str, py: str, k: str) -> list[str]:
    """Statements that put the field of ``pattern`` at the point (px, py) in
    {k}x, {k}y: the Horner sources hx, hy of its two arrays over the names
    c0, c1, ..., one per nonzero coefficient in row-major order, as
    (hx, hy) for the kind "field" and (px*hx, py*hy) for "chart"; for the
    pattern None, a call of the function named field."""
    if pattern is None:
        return [f"{k}x, {k}y = field({px}, {py})"]
    kind, *masks = pattern
    names = map("c{}".format, itertools.count())
    terms = [[[next(names) if nonzero else None for nonzero in row] for row in mask]
             for mask in masks]
    source = _HornerSource(px, py)
    hx, hy = source.horner(terms[0]), source.horner(terms[1])
    value = f"{hx}, {hy}" if kind == "field" else f"{px}*({hx}), {py}*({hy})"
    return [*source.lines, f"{k}x, {k}y = {value}"]


def _generated(kind: str, cx: np.ndarray, cy: np.ndarray,
               ) -> Callable[[float, float], tuple[float, float]]:
    """Compile the field of one kind over the arrays cx and cy, tagged with
    its kernel pattern (the kind and which coefficients are nonzero) and its
    nonzero coefficients in row-major order, the names c0, c1, ... of its
    source and the arguments of the integration kernel that inlines it (see
    ``integrate``)."""
    arrays = cx.tolist(), cy.tolist()
    pattern = (kind, *(tuple(tuple(a != 0 for a in row) for row in c) for c in arrays))
    coefficients = tuple(a for c in arrays for row in c for a in row if a != 0)
    namespace = {"__builtins__": {}, **{f"c{i}": a for i, a in enumerate(coefficients)}}
    body = "".join(f"    {line}\n" for line in _source(pattern, "x", "y", "f"))
    exec(f"def field(x, y):\n{body}    return fx, fy\n", namespace)
    field = namespace["field"]
    field.pattern, field.coefficients = pattern, coefficients
    return field


def field_callable(fx: np.ndarray, fy: np.ndarray,
                   ) -> Callable[[float, float], tuple[float, float]]:
    """Compile two coefficient arrays c[i, j] into one float right-hand side."""
    return _generated("field", fx, fy)


def chart_field(chart: LocalChart) -> Callable[[float, float], tuple[float, float]]:
    """Right-hand side of the normalized local system u' = uP, v' = vQ,
    compiled once per chart; its arguments are (u, v)."""
    return _generated("chart", chart.p_poly, chart.q_poly)


# ---------------------------------------------------------------------------
# Dormand–Prince 5(4) integration


def _crossing(t_old: float, h: float, x0: float, y0: float,
              kx: Sequence[float], ky: Sequence[float], g0: float, nx: float, ny: float,
              ) -> tuple[float, tuple[float, float]]:
    """Time and state at which (state - anchor)·n, equal to g0 at the step's
    start (x0, y0) and of the other sign or zero at its end, has its root on
    the quartic interpolant (x0, y0) + h*th*(q0 + th*(q1 + th*(q2 + th*q3)))
    of the step of size h from t_old, whose q come from its stages kx, ky."""
    qx = [sum(k * row[j] for k, row in zip(kx, P)) for j in range(4)]
    qy = [sum(k * row[j] for k, row in zip(ky, P)) for j in range(4)]
    c0, c1, c2, c3 = (a * nx + b * ny for a, b in zip(qx, qy))

    def g(th: float) -> float:
        return g0 + h * th * (c0 + th * (c1 + th * (c2 + th * c3)))

    g1 = g(1.0)
    if g0 != 0.0 and (g0 > 0.0) == (g1 > 0.0):
        t = t_old + h  # rounding left the interpolant short of the line
    else:
        t = t_old + h * _bracket_root(g, 0.0, 1.0, g0, g1, xtol=4 * EPS)
    (a0, a1, a2, a3), (b0, b1, b2, b3), th = qx, qy, (t - t_old) / h
    return t, (x0 + h * th * (a0 + th * (a1 + th * (a2 + th * a3))),
               y0 + h * th * (b0 + th * (b1 + th * (b2 + th * b3))))


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
    """First step size by the rule of Hairer, Nørsett and Wanner (§II.4).
    A field that is not finite at the start, or a first trial step of 0,
    is a NumericError."""
    if not (math.isfinite(fx) and math.isfinite(fy)):
        raise NumericError(f"integration failed: the field is ({fx!r}, {fy!r}) at the "
                           f"start ({x:.6g}, {y:.6g})")
    sx, sy = atol + abs(x) * rtol, atol + abs(y) * rtol
    d0, d1 = _rms(x, y, sx, sy), _rms(fx, fy, sx, sy)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if h0 == 0.0:
        raise NumericError(f"integration failed: the first trial step is 0 at the "
                           f"start ({x:.6g}, {y:.6g})")
    h0 = min(h0, span)
    gx, gy = fun(x + h0 * fx, y + h0 * fy)
    d2 = _rms(gx - fx, gy - fy, sx, sy) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -ERROR_EXPONENT
    return min(100.0 * h0, h1, span)


# The step loop of `integrate` and the one source of its kernels: {unpack}
# binds a generated field's coefficient names c0, c1, ...; {stages} puts the
# six stages of a step in k2x, k2y ... k7x, k7y, with the new state xn, yn
# before the last; {err_x} and {err_y} are the embedded error estimate over h.
# max(a, b), which is a unless b > a, min(a, b), which is a unless b < a,
# and abs(a) are written out as comparisons; ``a if a > 0.0 else 0.0 - a``
# is abs(a) at every number, +0.0 at both zeros.
_STEP_LOOP = """\
def step(field, x, y, fx, fy, h_abs, t, t_end, section, direction, atol, rtol):
    {unpack}
    if section is not None:
        (ax, ay), (nx, ny), (lo, hi) = section.anchor, section.normal, section.window
        g = (x - ax) * nx + (y - ay) * ny
        up, down = direction >= 0.0, direction <= 0.0
    while t < t_end:
        min_step = 10.0 * (nextafter(t, inf) - t)
        if min_step > h_abs:
            h_abs = min_step
        abs_x = x if x > 0.0 else 0.0 - x
        abs_y = y if y > 0.0 else 0.0 - y
        rejected = False
        while True:
            if h_abs < min_step:
                raise NumericError("integration failed: step size fell below "
                                   "ten ulps at t=%g" % t)
            t_new = t + h_abs
            if t_end < t_new:
                t_new = t_end
            h = t_new - t
{stages}
            abs_xn = xn if xn > 0.0 else 0.0 - xn
            abs_yn = yn if yn > 0.0 else 0.0 - yn
            ex = h * ({err_x}) / (atol + (abs_xn if abs_xn > abs_x else abs_x) * rtol)
            ey = h * ({err_y}) / (atol + (abs_yn if abs_yn > abs_y else abs_y) * rtol)
            err = sqrt(0.5 * (ex * ex + ey * ey))
            if err < 1.0:
                factor = {max_factor}
                if err != 0.0:
                    factor = {safety} * err ** {exponent}
                    if not factor < {max_factor}:
                        factor = {max_factor}
                if rejected and not factor < 1.0:
                    factor = 1.0
                h_abs = h * factor
                break
            factor = {safety} * err ** {exponent}
            h_abs = h * (factor if factor > {min_factor} else {min_factor})
            rejected = True
        if section is not None:
            g_new = (xn - ax) * nx + (yn - ay) * ny
            if (up and g <= 0.0 <= g_new) or (down and g >= 0.0 >= g_new):
                t_cross, state = crossing(t, h, x, y, (fx, k2x, k3x, k4x, k5x, k6x, k7x),
                                          (fy, k2y, k3y, k4y, k5y, k6y, k7y), g, nx, ny)
                if lo <= section.param(state) <= hi:
                    return Trajectory("event", t_cross, state)
            g = g_new
        t, x, y, fx, fy = t_new, xn, yn, k7x, k7y
    return Trajectory("tmax", t, (x, y))
"""

# a kernel per field pattern, compiled on first use; None is the kernel
# that calls its field at each stage
_KERNELS: dict[tuple | None, Callable[..., Trajectory]] = {}


def _compile_kernel(pattern: tuple | None) -> Callable[..., Trajectory]:
    """_STEP_LOOP for the fields of one pattern: the kind and the nonzero
    masks of the two arrays (see ``_generated``).  Each stage runs
    _source's statements on the stage's own point, with the coefficient
    names bound from the kernel's first argument; the tableau is written
    in as the repr of each float.  For the pattern None the statements
    call the kernel's first argument instead."""
    count = sum(map(sum, itertools.chain(*pattern[1:]))) if pattern else 0
    unpack = f"{', '.join(map('c{}'.format, range(count)))}, = field" if count else ""
    ks = ("f", "k2", "k3", "k4", "k5", "k6", "k7")

    def combination(coeffs: Sequence[float], var: str) -> str:
        return " + ".join(f"{c!r} * {k}{var}" for c, k in zip(coeffs, ks) if c != 0.0)

    lines = []
    for i in range(1, 6):
        px, py = f"x{i + 1}", f"y{i + 1}"
        lines += [f"{px} = x + h * ({combination(A[i][:i], 'x')})",
                  f"{py} = y + h * ({combination(A[i][:i], 'y')})",
                  *_source(pattern, px, py, ks[i])]
    lines += [f"xn = x + h * ({combination(B, 'x')})",
              f"yn = y + h * ({combination(B, 'y')})", *_source(pattern, "xn", "yn", "k7")]
    source = _STEP_LOOP.format(
        unpack=unpack, stages="\n".join(f"            {line}" for line in lines),
        err_x=combination(E, "x"), err_y=combination(E, "y"), safety=repr(SAFETY),
        exponent=repr(ERROR_EXPONENT), min_factor=repr(MIN_FACTOR),
        max_factor=repr(MAX_FACTOR))
    namespace = {"__builtins__": {}, "nextafter": math.nextafter, "inf": math.inf,
                 "sqrt": math.sqrt, "crossing": _crossing, "NumericError": NumericError,
                 "Trajectory": Trajectory}
    exec(source, namespace)
    return namespace["step"]


def integrate(fun, start, t_max: float, section: LineSection | None = None,
              direction: float = 0.0, t0: float = 0.0,
              atol: float = ATOL, rtol: float = RTOL) -> Trajectory:
    """Integrate the planar field ``fun`` from ``start`` for time t_max.

    Dormand–Prince 5(4) with local extrapolation and FSAL, under the step
    control of scipy's RK45: the error is the RMS of the embedded estimate
    over atol + max(|y|, |y_new|)·rtol, the step grows by 0.9·err^(-1/5)
    within [0.2, 10] and not at all right after a rejection, and a step
    below ten ulps of t is a NumericError.  With a ``section`` the run
    stops at the first crossing that counts: a step over which
    (x - ax)·nx + (y - ay)·ny changes sign in ``direction`` (+1 upward,
    -1 downward, 0 either), with that function's root on the step's
    quartic interpolant inside the section window.  A crossing outside the
    window does not stop the run; it goes on from the end of that step.
    A field that is complex at the start is a ValueError.

    The steps run in a kernel compiled from _STEP_LOOP: for a field made by
    ``field_callable`` or ``chart_field`` the kernel of its pattern, with
    the field inlined, else the kernel that calls ``fun`` at each stage.
    """
    t_end = t0 + t_max
    if not t_end > t0:
        raise ValueError("integration time span must be positive")
    x, y = float(start[0]), float(start[1])
    fx, fy = fun(x, y)
    if isinstance(fx, complex) or isinstance(fy, complex):
        raise ValueError(f"the field is complex, ({fx!r}, {fy!r}), at the start "
                         f"({x:.6g}, {y:.6g}); only a real field integrates")
    h_abs = _initial_step(fun, x, y, fx, fy, t_end - t0, atol, rtol)
    pattern = getattr(fun, "pattern", None)
    kernel = _KERNELS.get(pattern)
    if kernel is None:
        kernel = _KERNELS[pattern] = _compile_kernel(pattern)
    return kernel(fun if pattern is None else fun.coefficients, x, y, fx, fy, h_abs,
                  t0, t_end, section, direction, atol, rtol)


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
                denom = d_blk * d_pre * (f_blk - f_pre)
                # an underflowed denominator makes the step infinite, so
                # the test below bisects, as brentq's C division does
                s_try = (-f_cur * (f_blk * d_blk - f_pre * d_pre) / denom if denom
                         else math.inf)
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


def crossing_map(fun, start, section: LineSection, t_max: float = T_MAX,
                 atol: float = ATOL, rtol: float = RTOL) -> tuple[float, float]:
    """First crossing of a section that counts: returns (parameter, time).

    The start may lie on the section line; an event-free phase of PRE_STEP
    first moves off of it.  A crossing counts when it runs in the
    orientation of the flow at the start and lies inside the section
    window (see ``integrate``).
    """
    if t_max > PRE_STEP:
        x, y = float(start[0]), float(start[1])
        vx, vy = fun(x, y)
        nx, ny = section.normal
        direction = math.copysign(1.0, vx * nx + vy * ny)
        state = integrate(fun, (x, y), PRE_STEP, atol=atol, rtol=rtol).state
        traj = integrate(fun, state, t_max - PRE_STEP, section=section, direction=direction,
                         t0=PRE_STEP, atol=atol, rtol=rtol)
        if traj.status == "event":
            return section.param(traj.state), traj.t
    raise OutOfBasinError("orbit did not return to the section window "
                          f"within t_max={t_max:g}")


def numeric_return(fun, section: LineSection, s: float, t_max: float = T_MAX,
                   atol: float = ATOL, rtol: float = RTOL) -> float:
    """Return-map value by integrating one full loop from section parameter s."""
    if not section.window[0] <= s <= section.window[1]:
        raise ValueError(f"start parameter {s!r} outside the section window")
    u, _ = crossing_map(fun, section.point(s), section, t_max=t_max, atol=atol, rtol=rtol)
    return u


# ---------------------------------------------------------------------------
# Corner transition by integration


def numeric_dulac(fun, h_in: float, h_out: float, s: float,
                  t_max: float = T_MAX, atol: float = ATOL, rtol: float = RTOL) -> float:
    """Corner transition by integrating the normalized local field ``fun``
    (a ``chart_field``): the v at which the orbit from (s, h_in) crosses
    the exit line u = h_out."""
    if s <= 0.0:
        raise ValueError("numeric_dulac expects s > 0")
    exit_line = LineSection.make((h_out, 0.0), (0.0, 1.0), (-math.inf, math.inf))
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
    confident: bool
    notes: tuple[str, ...]
    grid: tuple[float, ...]


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


def fit_expansion(svals: Sequence[float], values: Sequence[float],
                  exponent: float | None = None,
                  lattice: Sequence[float] | None = None) -> FitReport:
    """Recover v(s) ~ A s^e (1 + (B/A) s^e2 + ...) from samples on a
    decreasing geometric grid.

    Free route: the exponent comes from extrapolated log-log slopes, the
    leading coefficient from the extrapolated sequence v/s^e, and the
    second term from the residual sequence.  When the exponent and the
    exponent lattice of the expansion are known (offsets inside the
    bracket, 0 included), pass both to switch to a least-squares fit on
    those monomials; that resolves slowly decaying tails far better than
    extrapolation.  One of the two alone is a ValueError.

    The report's second_exponent is the offset e2 inside the bracket: the
    second term sits at s^(e + e2).  A lattice fit takes the least positive
    offset.  residual_slope is measured on the bracket, i.e. on v/s^e
    minus the fitted bracket model, and is None when the leftover is at
    machine level.
    """
    s = np.asarray(svals, dtype=float)
    v = np.asarray(values, dtype=float)
    if s.size != v.size or s.size < FIT_MIN_POINTS:
        raise ValueError(f"need at least {FIT_MIN_POINTS} samples")
    if (exponent is None) != (lattice is None):
        raise ValueError("a lattice fit needs both the leading exponent and the lattice")
    order = np.argsort(-s)
    s, v = s[order], v[order]
    if np.any(s <= 0.0) or np.any(v == 0.0):
        raise ValueError("samples must have s > 0 and nonzero values")
    notes: list[str] = []
    confident = True

    if lattice is not None:
        offsets = sorted(set(float(o) for o in lattice) | {0.0})
        room = max(1, s.size - 4)  # the leading offset stays
        if len(offsets) > room:
            offsets = offsets[:room]
            notes.append(f"lattice truncated to leave {s.size - room} degrees of freedom")
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
        slopes = np.diff(np.log(np.abs(v))) / np.diff(np.log(s))
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
        logs = np.log(s[live])  # the slope of a least-squares line in log-log
        coef, *_ = np.linalg.lstsq(np.column_stack([logs, np.ones_like(logs)]),
                                   np.log(np.abs(leftover[live])), rcond=None)
        residual_slope = float(coef[0])
    model = model_bracket * s**exponent
    rel = float(np.max(np.abs(v - model) / np.abs(v)))
    if not np.all(np.diff(np.abs(v)) < 0.0) and not np.all(np.diff(np.abs(v)) > 0.0):
        confident = False
        notes.append("samples are not monotone in s")
    return FitReport(exponent=float(exponent), leading=float(leading),
                     second_exponent=None if second_exponent is None else float(second_exponent),
                     second_coeff=None if second_coeff is None else float(second_coeff),
                     residual_slope=residual_slope, rel_residual=rel,
                     confident=confident, notes=tuple(notes),
                     grid=tuple(float(x) for x in s))


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
