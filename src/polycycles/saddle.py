"""Saddle normalization and Dulac-map coefficients.

Every polycycle corner is brought to the standard local form

    u' = u P(u, v),   v' = v Q(u, v),   P(0,0) > 0 > Q(0,0),

where the v-axis is the stable separatrix (incoming connection) and the
u-axis the unstable one (outgoing connection).  The hyperbolicity ratio is
lam = -Q(0,0)/P(0,0).  A corner's sections are straight: the entry line
v = h_in, crossed at (s, h_in), and the exit line u = h_out, crossed at
(h_out, v), where each h is half the polycycle edge.  The corner transition
s -> v expands as

    D(s) = s^lam (D00 + second-order term + smaller),

and this module computes D00 together with the quantities S1, S2 that
determine the second-order coefficients D10 = lam*D00*S1 and
D01 = -D00^2*S2.  The ingredients are the transition factors

    L1(w) = exp int_0^w (P(0,y)/Q(0,y) + 1/lam) dy/y
    L2(w) = exp int_0^w (Q(x,0)/P(x,0) + lam) dx/x

(the integrands have removable singularities at 0, resolved by series),
the derived functions M1 = L1 * d(P/Q)/du (0,v) and M2 = L2 * d(Q/P)/dv
(u,0), and their incomplete Mellin transforms M1^ (order 1/lam) and M2^
(order lam):

    D00 = (h_in / L1(h_in)^lam) * (L2(h_out) / h_out^lam)
    S1  = -M1^(h_in) / L1(h_in),    S2 = -M2^(h_out) / L2(h_out).

Truncated Taylor series are plain 1-d coefficient arrays (see the series
module).

P and Q are coefficient arrays c[i, j] of u^i v^j, like the model's field
(see the expressions module).  The chart comes from a Taylor shift of each
model component to the corner: x' shifted has a vanishing first row
exactly when the line x = corner is invariant, and what is left once that
row is sliced off is P or Q, up to a transpose and the signs of the axes.
The formulas above read only P(0,v), Q(u,0), the first-order rows across
each axis and P(0,0), Q(0,0), all of them slices of the arrays.

Both integrals (log L and the Mellin tail) use one nested Chebyshev rule on
numpy arrays, weighted by modified moments and checked by doubling the node
count; see _fixed_rule.

Every function here is holomorphic in the field's coefficients, so a
complex step in a parameter carries through to exact derivatives (see
cyclicity.gradient).  Every branch (sign checks, case tags, Taylor splits,
pole guards, convergence tests) is taken on real parts, so a complex
evaluation follows the same path as the real one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import DegeneracyError, ModelError, NumericError, PoleError, UnsupportedGeometryError
from .series import DEFAULT_ORDER, coeff_array, horner, scalar, series_div, series_exp

# case-tag dead band around lam = 1 and pole dead band for Mellin orders
AT_ONE_BAND = 1e-9
MELLIN_POLE_BAND = 1e-6


# ---------------------------------------------------------------------------
# Local chart


@dataclass(frozen=True)
class LocalChart:
    """A saddle in the standard frame, with the affine map that produced it.

    ``linear`` is a signed permutation matrix and ``corner`` the saddle
    location in model coordinates: local = linear @ (model - corner).
    The local field is u' = u*p_poly(u,v), v' = v*q_poly(u,v); p_poly and
    q_poly are coefficient arrays, entry [i, j] multiplying u^i v^j.
    """

    p_poly: np.ndarray
    q_poly: np.ndarray
    lam: float | complex
    corner: tuple[float, float]
    linear: tuple[tuple[float, float], tuple[float, float]]
    n1: int = 0
    n2: int = 0

    def to_model(self, point_local) -> np.ndarray:
        a = np.asarray(self.linear, dtype=float)
        # signed permutation: inverse is the transpose
        return np.asarray(self.corner, dtype=float) + a.T @ np.asarray(point_local, dtype=float)

    def check_footprint(self, extent: float, samples: int = 33) -> None:
        """Sampled hypotheses P(x,0) > 0 and Q(0,y) < 0 up to ``extent``."""
        ts = np.linspace(0.0, extent, samples)
        p_axis = horner(self.p_poly[:, 0], ts).real  # P(x, 0)
        q_axis = horner(self.q_poly[0, :], ts).real  # Q(0, y)
        bad = (p_axis <= 0.0) | (q_axis >= 0.0)
        if not bad.any():
            return
        i = int(np.argmax(bad))  # the first failing sample; P is checked before Q
        if p_axis[i] <= 0.0:
            raise UnsupportedGeometryError(
                f"P(x,0) not positive at x={ts[i]:.4g}; section footprint too large")
        raise UnsupportedGeometryError(
            f"Q(0,y) not negative at y={ts[i]:.4g}; section footprint too large")


_AXES = {(1, 0): ("x", 1.0), (-1, 0): ("x", -1.0), (0, 1): ("y", 1.0), (0, -1): ("y", -1.0)}


def _axis_of(direction) -> tuple[str, float]:
    dx, dy = float(direction[0]), float(direction[1])
    key = (int(round(dx)), int(round(dy)))
    if key not in _AXES or abs(dx - key[0]) > 1e-12 or abs(dy - key[1]) > 1e-12:
        raise UnsupportedGeometryError(
            f"separatrix direction {tuple(direction)} is not axis-parallel")
    return _AXES[key]


@lru_cache(maxsize=32)
def _shift_matrix(t: float, n: int) -> np.ndarray:
    """M[i, k] = C(i, k) t^(i-k), the coefficients of (t + X)^i, for i, k < n."""
    return np.array([[math.comb(i, k) * t ** (i - k) if k <= i else 0.0 for k in range(n)]
                     for i in range(n)])


def _taylor_shift(c: np.ndarray, a: float, b: float) -> np.ndarray:
    """Coefficients of c(a + X, b + Y) in X, Y, at least 2 x 2."""
    n, m = max(2, c.shape[0]), max(2, c.shape[1])
    padded = np.zeros((n, m), dtype=c.dtype)
    padded[:c.shape[0], :c.shape[1]] = c
    return _shift_matrix(a, n).T @ padded @ _shift_matrix(b, m)


def normalize_saddle(field_x: np.ndarray, field_y: np.ndarray,
                     corner, incoming, outgoing,
                     footprint: float = 0.55) -> LocalChart:
    """Build the LocalChart of a saddle with axis-parallel separatrices.

    ``incoming`` points from the corner toward the previous corner (along
    the stable separatrix), ``outgoing`` toward the next corner (unstable).
    Raises UnsupportedGeometryError when the invariant lines are missing or
    not axis-parallel, DegeneracyError when an eigenvalue vanishes.
    """
    a, b = float(corner[0]), float(corner[1])
    in_axis, in_sign = _axis_of(incoming)
    out_axis, out_sign = _axis_of(outgoing)
    if in_axis == out_axis:
        raise UnsupportedGeometryError("incoming and outgoing separatrices lie on the same axis")

    # in X = x - a, Y = y - b: x' = X f1(X, Y) exactly when its X^0 row
    # vanishes, and y' = Y g1(X, Y) when its Y^0 column does
    fx, fy = _taylor_shift(field_x, a, b), _taylor_shift(field_y, a, b)
    for line, rest, field in ((f"x={a:g}", fx[0, :], field_x), (f"y={b:g}", fy[:, 0], field_y)):
        remainder = np.max(np.abs(rest))
        if remainder > 1e-9 * max(1.0, np.max(np.abs(field))):
            raise UnsupportedGeometryError(
                f"line {line} is not invariant: remainder magnitude {remainder:.3e}")
    f1, g1 = fx[1:, :], fy[:, 1:]

    eig_x, eig_y = f1[0, 0], g1[0, 0]
    if abs(eig_x.real) <= 1e-12 or abs(eig_y.real) <= 1e-12:
        raise DegeneracyError(f"corner ({a:g},{b:g}) is not hyperbolic: "
                              f"eigenvalues ({eig_x:.3e}, {eig_y:.3e})")
    if eig_x.real * eig_y.real > 0.0:
        raise DegeneracyError(f"corner ({a:g},{b:g}) is not a saddle: "
                              f"eigenvalues ({eig_x:.3e}, {eig_y:.3e})")

    stable_eig = eig_x if in_axis == "x" else eig_y
    if stable_eig.real >= 0.0:
        raise UnsupportedGeometryError(
            f"incoming separatrix at ({a:g},{b:g}) lies on the unstable axis; "
            "the traversal opposes the flow (check the polycycle orientation)")

    # local = linear @ (model - corner); row 0 is the outgoing (u) axis
    row_u = (out_sign, 0.0) if out_axis == "x" else (0.0, out_sign)
    row_v = (in_sign, 0.0) if in_axis == "x" else (0.0, in_sign)
    linear = (row_u, row_v)

    # (X, Y) = (out_sign u, in_sign v), or (in_sign v, out_sign u): P and Q
    # are f1 and g1, transposed when u runs along y, times the axis signs
    unsigned = (f1, g1) if out_axis == "x" else (g1.T, f1.T)
    p_loc, q_loc = (c * np.outer(out_sign ** np.arange(c.shape[0]),
                                 in_sign ** np.arange(c.shape[1])) for c in unsigned)

    p0, q0 = p_loc[0, 0], q_loc[0, 0]
    if not (p0.real > 0.0 and q0.real < 0.0):
        raise UnsupportedGeometryError(
            f"normalized corner ({a:g},{b:g}) violates P(0,0)>0>Q(0,0): "
            f"P={p0:.3e}, Q={q0:.3e}")

    chart = LocalChart(p_poly=p_loc, q_poly=q_loc, lam=scalar(-q0 / p0),
                       corner=(a, b), linear=linear)
    chart.check_footprint(footprint)
    return chart


# ---------------------------------------------------------------------------
# Fixed-rule quadrature
#
# Both integrals below, log L over [0, w] and the Mellin tail over [0, x],
# take the form int_0^1 t^beta g(t) dt with g smooth: beta = 0 for log L and
# beta = k - alpha - 1 for the tail.  One product rule serves both (Piessens
# and Branders 1973; QUADPACK's DQMOMO).  g is interpolated on the n + 1
# Chebyshev-Lobatto points x_j = cos(j pi/n), mapped to t = (1 + x)/2, and its
# Chebyshev coefficients are weighted by the modified moments of (1 + x)^beta.
# The nodes do not depend on beta, which may be complex, and the n-point set
# is every other point of the 2n-point set.
#
# A rule at n is checked against the rule at 2n: n doubles from
# QUAD_MIN_NODES until the two agree to QUAD_RTOL relative (QUAD_ATOL
# absolute, for values near 0), tested on real parts.  When 2n reaches
# QUAD_MAX_NODES the 2n value stands unless the two still differ by more
# than 1e-6*max(1, |value|).  The first check evaluates g once on the 2n + 1
# points; each doubling evaluates only the new midpoints.

QUAD_ATOL, QUAD_RTOL = 1e-12, 1e-10
QUAD_MIN_NODES, QUAD_MAX_NODES = 32, 1024


@lru_cache(maxsize=8)
def _chebyshev(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n + 1 Lobatto points on [0, 1] and the matrix that takes values
    there to Chebyshev coefficients."""
    j = np.arange(n + 1)
    cos = np.cos(np.pi * (np.outer(j, j) % (2 * n)) / n)  # T_k(x_j), k and j exact
    half = np.ones(n + 1)
    half[[0, n]] = 0.5
    return 0.5 * (1.0 + cos[1]), (2.0 / n) * half[:, None] * cos * half


def _moments(beta, count: int) -> np.ndarray:
    """M_k = int_{-1}^{1} (1 + x)^beta T_k(x) dx for k < count, by the forward
    recurrence M_k = -(2^(beta+1) + k(k-beta-2) M_{k-1}) / ((k-1)(k+beta+1))."""
    two = 2.0 ** (beta + 1.0)
    m = [two / (beta + 1.0)]
    m.append(m[0] * beta / (beta + 2.0))
    for k in range(2, count):
        m.append(-(two + k * (k - beta - 2.0) * m[-1]) / ((k - 1) * (k + beta + 1.0)))
    return np.array(m[:count])


def _fixed_rule(g: Callable[[np.ndarray], np.ndarray], beta, scale, what: str) -> np.ndarray:
    """scale * int_0^1 t^beta g(t) dt elementwise, at the 2n-point rule for the
    least n whose n-point value agrees with it.

    ``g`` takes an array of nodes and returns values with the nodes on the
    last axis.  The n-point weights are the first n + 1 moments times the
    values-to-coefficients matrix.
    """
    n = 2 * QUAD_MIN_NODES
    scale = scale / 2.0 ** (beta + 1.0)  # t^beta dt on [0, 1] is 2^-(beta+1) (1+x)^beta dx
    moments = _moments(beta, n + 1)
    values = g(_chebyshev(n)[0])
    coarse = scale * (values[..., ::2] @ (moments[:n // 2 + 1] @ _chebyshev(n // 2)[1]))
    while True:
        fine = scale * (values @ (moments @ _chebyshev(n)[1]))
        err = np.abs((fine - coarse).real)
        tol = np.maximum(QUAD_ATOL, QUAD_RTOL * np.abs(fine.real))
        if n >= QUAD_MAX_NODES or np.all(err <= tol):
            break
        n, coarse = 2 * n, fine
        mid = g(_chebyshev(n)[0][1::2])
        merged = np.empty(values.shape[:-1] + (n + 1,), dtype=np.result_type(values, mid))
        merged[..., ::2], merged[..., 1::2] = values, mid
        values, moments = merged, _moments(beta, n + 1)
    if not np.all(np.isfinite(fine) & (err <= 1e-6 * np.maximum(1.0, np.abs(fine.real)))):
        raise NumericError(f"{what} did not converge (err={np.max(err):.2e})")
    return fine


# ---------------------------------------------------------------------------
# Transition factors L1, L2 and the germs fed to the Mellin transform


_SERIES_SWITCH = 1e-3  # below this, transition integrands are evaluated by series
# Below _MELLIN_SWITCH * max(1, x) the Mellin tail h = (f - T_{k-1}f)/s^k is
# evaluated by series.  Above it, the difference cancels to about eps*|f|/s^k,
# and that rounding error weighs as s^(-alpha) in the tail integral: at
# alpha = 6.6 a switch at 1e-3 left a 1e-6 relative error, at 0.02 1e-13.
_MELLIN_SWITCH = 0.02


@dataclass(frozen=True)
class _Transition:
    """L(w) = exp int_0^w (num/den + shift) dt/t, with its Taylor series."""

    num: np.ndarray
    den: np.ndarray
    shift: float
    small: np.ndarray   # series of the integrand, used for |t| < _SERIES_SWITCH
    series: np.ndarray  # series of L itself

    def integrand(self, t: np.ndarray) -> np.ndarray:
        out = np.empty(t.shape, dtype=self.small.dtype)
        small = np.abs(t) < _SERIES_SWITCH
        out[small] = horner(self.small, t[small])
        big = ~small
        tb = t[big]
        out[big] = (horner(self.num, tb) / horner(self.den, tb) + self.shift) / tb
        return out

    def value(self, w):
        """L at a float or at every entry of an array of w."""
        w = np.asarray(w, dtype=float)
        val = np.exp(_fixed_rule(lambda t: self.integrand(np.multiply.outer(w, t)), 0.0, w,
                                 "transition integral"))
        return scalar(val) if val.ndim == 0 else val


def _transition_data(chart: LocalChart, which: int, order: int = DEFAULT_ORDER) -> _Transition:
    """Build the integrand data and series of L_which for the chart."""
    if which == 1:
        num = chart.p_poly[0, :]   # P(0, v)
        den = chart.q_poly[0, :]   # Q(0, v)
        shiftc = 1.0 / chart.lam
    elif which == 2:
        num = chart.q_poly[:, 0]   # Q(u, 0)
        den = chart.p_poly[:, 0]   # P(u, 0)
        shiftc = chart.lam
    else:
        raise ValueError("which must be 1 or 2")

    # num, den and lam share the chart's dtype, so the shift adds in place
    shifted = series_div(num, den, order)
    shifted[0] += shiftc
    if abs(shifted[0].real) > 1e-9:
        raise NumericError(
            f"transition L{which}: constant term {shifted[0]:.3e} fails to cancel; "
            "chart inconsistent with its hyperbolicity ratio")
    small = shifted[1:]  # (ratio + c)/t as a series, of order - 1
    log_l = np.concatenate(([0.0], small / np.arange(1, order + 1)))
    return _Transition(num=num, den=den, shift=shiftc, small=small, series=series_exp(log_l))


def _germ_order(alpha: float) -> int:
    """Series order of the transition and M germ fed to mellin_hat at alpha.

    Reaching eight orders past the Taylor split k = ceil(alpha) + 2 keeps
    the series tail accurate up to the Mellin switch; at alpha = 14.3 a
    fixed order 16 left no term past the split and a 1e-6 error.
    """
    return max(DEFAULT_ORDER, math.ceil(alpha.real) + 10)


def _m_germ(chart: LocalChart, which: int, trans: _Transition,
            ) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """M1 = L1 * d(P/Q)/du at (0,v);  M2 = L2 * d(Q/P)/dv at (u,0): a callable
    on arrays and its Taylor series, to the order of L."""
    order = trans.series.size - 1
    p, q = chart.p_poly, chart.q_poly
    # trans.num/trans.den are the ratio restricted to the axis; d_num/d_den
    # their partials across it: P_x, Q_x at u = 0, or Q_y, P_y at v = 0
    if which == 1:
        d_num, d_den = P.polyder(p, axis=0)[0, :], P.polyder(q, axis=0)[0, :]
    else:
        d_num, d_den = P.polyder(q, axis=1)[:, 0], P.polyder(p, axis=1)[:, 0]
    num = P.polysub(P.polymul(d_num, trans.den), P.polymul(trans.num, d_den))
    den = P.polymul(trans.den, trans.den)

    m_series = np.convolve(trans.series, series_div(num, den, order))[:order + 1]

    def fun(w: np.ndarray) -> np.ndarray:
        return trans.value(w) * horner(num, w) / horner(den, w)

    return fun, m_series


# ---------------------------------------------------------------------------
# Incomplete Mellin transform


def _check_pole(alpha: float) -> None:
    nearest = round(alpha.real)
    if nearest >= 0 and abs(alpha.real - nearest) <= MELLIN_POLE_BAND:
        raise PoleError(f"Mellin order alpha={alpha!r} is within {MELLIN_POLE_BAND:g} "
                        f"of the pole at {int(nearest)}")


def mellin_hat(f: Callable[[np.ndarray], np.ndarray], series, alpha: float,
               x: float) -> float:
    """Incomplete Mellin transform: the smooth solution of x g' - alpha g = f.

    ``f`` takes and returns numpy arrays; ``series`` holds its Taylor
    coefficients at 0.  Evaluated as the Taylor head
    sum_{i<k} c_i x^i/(i - alpha) plus
    |x|^alpha int_0^x (f - T_{k-1}f)(s) |s|^{-alpha} ds/s with k the Taylor
    order chosen above alpha + 1.  The tail integrand is s^beta h(s) with
    beta = k - alpha - 1 > -1 and h = (f - T_{k-1}f)/s^k smooth, so it is
    integrated by the product rule with weight s^beta.
    """
    _check_pole(alpha)
    if x <= 0.0:
        raise ValueError("mellin_hat expects x > 0")
    k = max(0, math.ceil(alpha.real) + 2)
    coeffs = coeff_array(series)
    if k > coeffs.size:
        raise ValueError(f"germ series order {coeffs.size - 1} too low for alpha={alpha:g}")
    head = sum(coeffs[i] * x**i / (i - alpha) for i in range(k))
    taylor, beta = coeffs[:k], k - alpha - 1.0

    switch = min(_MELLIN_SWITCH * max(1.0, x), 0.5 * x)

    def h(s: np.ndarray) -> np.ndarray:
        out = np.empty(s.shape, dtype=coeffs.dtype)
        small = s < switch
        out[small] = horner(coeffs[k:], s[small])  # the series tail
        big = ~small
        sb = s[big]
        out[big] = (f(sb) - horner(taylor, sb)) / sb**k
        return out

    val = _fixed_rule(lambda t: h(x * t), beta, x**(beta + 1.0), "Mellin tail quadrature")
    return scalar(head + x**alpha * val)


# ---------------------------------------------------------------------------
# Dulac expansion


@dataclass(frozen=True)
class DulacExpansion:
    """Two-term asymptotic data of a Dulac-type map s^ratio(leading + ...).

    For a saddle corner, ``ratio`` is the hyperbolicity ratio and the next
    term sits at exponent ratio (below-one), at exponent 1 (above-one), or
    is unavailable at resonance (at-one corners carry leading data only).
    Composite maps reuse this container with their own next-term exponent;
    ``comp`` holds a compensator form when two exponents collide.
    """

    ratio: float
    leading: float
    case: str  # below-one | above-one | at-one
    next_exponent: float | None = None
    next_coeff: float | None = None
    comp: object | None = None  # CompensatorTerm of the calculus module
    ell: tuple[float, float] = (0.0, 1.0)
    s1: float | None = None
    s2: float | None = None
    notes: tuple[str, ...] = ()


def classify_ratio(lam: float, band: float = AT_ONE_BAND) -> str:
    if abs(lam.real - 1.0) <= band:
        return "at-one"
    return "below-one" if lam.real < 1.0 else "above-one"


def dulac_coefficients(chart: LocalChart, h_in: float, h_out: float) -> DulacExpansion:
    """Compute the Dulac expansion of a corner from (s, h_in) to (h_out, v).

    The case-required second-order coefficient is always computed (its
    Mellin order cannot hit a pole away from lam = 1); the other S value
    is set to None when its pole guard trips.  At-one corners return
    leading data only, flagged in ``notes``.
    """
    if not (0.0 < h_in < math.inf and 0.0 < h_out < math.inf):
        raise ModelError(f"section half-lengths must be positive and finite, "
                         f"got h_in={h_in!r}, h_out={h_out!r}")
    lam = chart.lam
    chart.check_footprint(max(h_in, h_out) * 1.05)

    t1 = _transition_data(chart, 1, _germ_order(1.0 / lam))
    t2 = _transition_data(chart, 2, _germ_order(lam))
    l1 = t1.value(h_in)
    l2 = t2.value(h_out)
    d00 = (h_in / l1**lam) * (l2 / h_out**lam)

    case = classify_ratio(lam)
    if case == "at-one":
        return DulacExpansion(
            ratio=lam, leading=d00, case=case, ell=(1.0, 2.0),
            notes=("at-one corner: second-order coefficients are resonant "
                   "(Mellin pole at alpha=1); leading term only",))

    def s1_value() -> float:
        return -(1.0 / l1) * mellin_hat(*_m_germ(chart, 1, t1), 1.0 / lam, h_in)

    def s2_value() -> float:
        return -(1.0 / l2) * mellin_hat(*_m_germ(chart, 2, t2), lam, h_out)

    notes: list[str] = []
    if case == "below-one":
        s2 = s2_value()  # alpha = lam in (0,1): pole-free
        try:
            s1 = s1_value()
        except PoleError as exc:
            s1, msg = None, str(exc)
            notes.append(f"S1 unavailable: {msg}")
        d01 = -(d00**2) * s2
        return DulacExpansion(ratio=lam, leading=d00, case=case,
                              next_exponent=lam, next_coeff=d01,
                              ell=(lam.real, min(2.0 * lam.real, 1.0)),
                              s1=s1, s2=s2, notes=tuple(notes))

    s1 = s1_value()  # alpha = 1/lam in (0,1): pole-free
    try:
        s2 = s2_value()
    except PoleError as exc:
        s2 = None
        notes.append(f"S2 unavailable: {exc}")
    d10 = lam * d00 * s1
    return DulacExpansion(ratio=lam, leading=d00, case=case,
                          next_exponent=1.0, next_coeff=d10,
                          ell=(1.0, min(lam.real, 2.0)),
                          s1=s1, s2=s2, notes=tuple(notes))
