"""Saddle normalization and Dulac-map coefficients.

Every polycycle corner is brought to the standard local form

    u' = u P(u, v),   v' = v Q(u, v),   P(0,0) > 0 > Q(0,0),

where the v-axis is the stable separatrix (incoming connection) and the
u-axis the unstable one (outgoing connection).  A chart is P and Q alone;
lam = -Q(0,0)/P(0,0) is read off them.  A corner's sections are straight:
the entry line v = h_in, crossed at (s, h_in), and the exit line u = h_out,
crossed at (h_out, v), each h half the polycycle edge and each footprint
checked to 5% past it.  The corner transition s -> v expands as

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

The second-axis quantities are the first-axis ones on the chart mirrored
u <-> v, (P, Q, 1/lam, h_in) -> (Q^T, P^T, lam, h_out): one routine gives
L (_transition_data) and one S (_s_value) on either axis.

Truncated Taylor series are plain 1-d coefficient arrays (see the series
module).

P and Q are coefficient arrays c[i, j] of u^i v^j, like the model's field
(see the expressions module).  The chart comes from a Taylor shift of each
model component to the corner: x' shifted has a vanishing first row
exactly when the line x = corner is invariant, and what is left once that
row is sliced off is P or Q, up to a transpose and the signs of the axes.
The formulas above read only P(0,v), Q(u,0), the first-order rows across
each axis and P(0,0), Q(0,0), all of them slices of the arrays.

Both integrals are sampled on the Chebyshev-Lobatto points of [0, h], h the
section half-length, and checked by doubling the node count.  The cumulative
rule gives log L at every node from one sample of its integrand, so D00 and
the Mellin tail over the same [0, h] read L from one grid; the tail itself
takes the product rule weighted by modified moments.  See "Chebyshev rules".

Every function here is holomorphic in the field's coefficients, so a
complex step in a parameter carries through to exact derivatives (see
cyclicity.gradient).  Every branch (sign checks, case tags, Taylor splits,
pole guards, convergence tests) is taken on real parts, so a complex
evaluation follows the same path as the real one, and the rules' matrix
products and the integrands' quotients are taken by parts (_real_matmul,
_divide), so that its real part repeats the real arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DegeneracyError, ModelError, NumericError, PoleError, UnsupportedGeometryError
from .series import DEFAULT_ORDER, coeff_array, horner, padded, scalar, series_div, series_exp

# case-tag dead band around lam = 1 and pole dead band for Mellin orders
AT_ONE_BAND = 1e-9
MELLIN_POLE_BAND = 1e-6
# points at which a chart's footprint is checked along each axis
FOOTPRINT_SAMPLES = 33


# ---------------------------------------------------------------------------
# Local chart


@dataclass(frozen=True)
class LocalChart:
    """A saddle in the standard frame, u' = u*p_poly(u,v), v' = v*q_poly(u,v),
    entry [i, j] of each array multiplying u^i v^j.  Where its axes lie in
    the model is the corner list's to say (pipeline._geometry)."""

    p_poly: np.ndarray
    q_poly: np.ndarray

    @property
    def lam(self) -> float | complex:
        """The hyperbolicity ratio -Q(0,0)/P(0,0)."""
        return scalar(_divide(-self.q_poly[0, 0], self.p_poly[0, 0]))

    def check_footprint(self, x_extent: float, y_extent: float) -> None:
        """Sampled hypotheses P(x,0) > 0 on [0, x_extent] and Q(0,y) < 0 on
        [0, y_extent]."""
        xs, ys = (np.linspace(0.0, e, FOOTPRINT_SAMPLES) for e in (x_extent, y_extent))
        p_axis = horner(self.p_poly[:, 0], xs).real  # P(x, 0)
        q_axis = horner(self.q_poly[0, :], ys).real  # Q(0, y)
        bad = (p_axis <= 0.0) | (q_axis >= 0.0)
        if not bad.any():
            return
        i = int(np.argmax(bad))  # the first failing sample; P is checked before Q
        if p_axis[i] <= 0.0:
            raise UnsupportedGeometryError(
                f"P(x,0) not positive at x={xs[i]:.4g}; section footprint too large")
        raise UnsupportedGeometryError(
            f"Q(0,y) not negative at y={ys[i]:.4g}; section footprint too large")


_AXES = {(1, 0): ("x", 1.0), (-1, 0): ("x", -1.0), (0, 1): ("y", 1.0), (0, -1): ("y", -1.0)}


def _axis_of(direction) -> tuple[str, float]:
    dx, dy = float(direction[0]), float(direction[1])
    key = (int(round(dx)), int(round(dy)))
    if key not in _AXES or abs(dx - key[0]) > 1e-12 or abs(dy - key[1]) > 1e-12:
        raise UnsupportedGeometryError(
            f"separatrix direction ({dx}, {dy}) is not axis-parallel")
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
                     corner, incoming, outgoing) -> LocalChart:
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

    return LocalChart(p_poly=p_loc, q_poly=q_loc)


# ---------------------------------------------------------------------------
# Chebyshev rules
#
# Both integrals below are sampled on the n + 1 Chebyshev-Lobatto points
# x_j = cos(j pi/n), mapped to t = (1 + x)/2 on [0, 1]; the n-point set is
# every other point of the 2n-point set.
#
# log L is an indefinite integral.  The cumulative rule integrates the
# Chebyshev interpolant of its integrand term by term from t = 0 (Clenshaw
# and Curtis 1960; Greengard 1991), one cached matrix per n, and so gives
# log L at every node from one sample.  A transition factor is sampled once
# on [0, h]: D00 reads L(h) at t = 1, and the Mellin tail over the same
# [0, h] reads L at its own nodes, a stride of the grid.  A tail that
# doubles past the grid's n gets L on its own finer grid.
#
# The Mellin tail is int_0^1 t^beta g(t) dt with g smooth and
# beta = k - alpha - 1 > -1, possibly complex.  The product rule weights
# g's Chebyshev coefficients by the modified moments of (1 + x)^beta
# (Piessens and Branders 1973; QUADPACK's DQMOMO); its nodes do not depend
# on beta.
#
# Each rule at n is checked against the rule at 2n on the nodes they share:
# n doubles from QUAD_MIN_NODES until the two agree to QUAD_RTOL relative
# (QUAD_ATOL absolute, for values near 0), tested on real parts.  When 2n
# reaches QUAD_MAX_NODES the 2n values stand unless the two still differ by
# more than 1e-6*max(1, |value|).  Each check samples once on the 2n + 1
# points, and the n-point rule reads every other one of them.

QUAD_ATOL, QUAD_RTOL = 1e-12, 1e-10
QUAD_MIN_NODES, QUAD_MAX_NODES = 32, 1024

# A Sampler gives a function of t in [0, 1] at the Lobatto points _chebyshev(n)[0].
Sampler = Callable[[int], np.ndarray]


@lru_cache(maxsize=8)
def _chebyshev(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n + 1 Lobatto points on [0, 1] and the matrix that takes values
    there to Chebyshev coefficients."""
    j = np.arange(n + 1)
    cos = np.cos(np.pi * (np.outer(j, j) % (2 * n)) / n)  # T_k(x_j), k and j exact
    half = np.ones(n + 1)
    half[[0, n]] = 0.5
    return 0.5 * (1.0 + cos[1]), (2.0 / n) * half[:, None] * cos * half


@lru_cache(maxsize=8)
def _cumulative(n: int) -> np.ndarray:
    """The matrix that takes values at the n + 1 Lobatto points on [0, 1] to
    the integral of their Chebyshev interpolant from 0 to each point."""
    # int T_0 = T_1, int T_1 = T_2/4 and int T_k = T_{k+1}/(2(k+1)) -
    # T_{k-1}/(2(k-1)), each up to a constant: anti takes coefficients a_k
    # to those of the antiderivative in T_0..T_{n+1}
    anti = np.zeros((n + 2, n + 1))
    anti[1, 0] = 1.0
    k = np.arange(1, n + 1)
    anti[k + 1, k] = 1.0 / (2.0 * (k + 1))
    k = np.arange(2, n + 1)
    anti[k - 1, k] -= 1.0 / (2.0 * (k - 1))
    j = np.arange(n + 1)
    at_nodes = np.cos(np.pi * (np.outer(j, np.arange(n + 2)) % (2 * n)) / n)
    # less the value at the last node, t = 0; dt = dx/2
    return 0.5 * ((at_nodes - at_nodes[n]) @ anti) @ _chebyshev(n)[1]


def _real_matmul(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for a real matrix m.  A complex v is multiplied by parts, so the
    real part of a complex step is the real product bit for bit."""
    if np.iscomplexobj(v):
        return m @ v.real + 1j * (m @ v.imag)
    return m @ v


def _divide(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b elementwise, with the real part of a complex step equal to the
    real quotient bit for bit.

    numpy divides complex numbers by a reciprocal, one ulp off the real
    quotient in about a quarter of cases.  Here a real b divides each part,
    and a complex b takes Smith's form with true divisions, as CPython
    does: exact for Re b != 0, and accurate while |Im b| <= |Re b|, as for
    a complex step.
    """
    if np.iscomplexobj(b):
        ratio = b.imag / b.real
        den = b.real + b.imag * ratio
        return (a.real + a.imag * ratio) / den + 1j * ((a.imag - a.real * ratio) / den)
    if np.iscomplexobj(a):
        return a.real / b + 1j * (a.imag / b)
    return a / b


def _moments(beta, count: int) -> np.ndarray:
    """M_k = int_{-1}^{1} (1 + x)^beta T_k(x) dx for k < count, by the forward
    recurrence M_k = -(2^(beta+1) + k(k-beta-2) M_{k-1}) / ((k-1)(k+beta+1))."""
    two = 2.0 ** (beta + 1.0)
    m = [two / (beta + 1.0)]
    m.append(m[0] * beta / (beta + 2.0))
    for k in range(2, count):
        m.append(-(two + k * (k - beta - 2.0) * m[-1]) / ((k - 1) * (k + beta + 1.0)))
    return np.array(m[:count])


def _doubling(sample: Sampler, rule: Callable[[np.ndarray], np.ndarray],
              what: str) -> np.ndarray:
    """The 2n-point result of ``rule`` for the least n whose n-point result
    agrees with it.

    ``rule`` takes the values at n + 1 Lobatto points and returns the
    integral at the nodes it reports: every node, or only t = 1, the first.
    Either way every other entry of the 2n-point result is a node of the
    n-point rule.
    """
    n = 2 * QUAD_MIN_NODES
    values = sample(n)
    coarse = rule(values[::2])
    while True:
        fine = rule(values)
        shared = fine[::2]
        err = np.abs((shared - coarse).real)
        tol = np.maximum(QUAD_ATOL, QUAD_RTOL * np.abs(shared.real))
        if n >= QUAD_MAX_NODES or np.all(err <= tol):
            break
        n, coarse = 2 * n, fine
        values = sample(n)
    if not (np.all(np.isfinite(fine))
            and np.all(err <= 1e-6 * np.maximum(1.0, np.abs(shared.real)))):
        raise NumericError(f"{what} did not converge (err={np.max(err):.2e})")
    return fine


def _fixed_rule(sample: Sampler, beta, scale, what: str):
    """scale * int_0^1 t^beta g(t) dt, g given by ``sample``, by the product
    rule: the first n + 1 moments times g's Chebyshev coefficients."""
    scale = scale / 2.0 ** (beta + 1.0)  # t^beta dt on [0, 1] is 2^-(beta+1) (1+x)^beta dx
    moments = _moments(beta, 2 * QUAD_MIN_NODES + 1)

    def rule(values: np.ndarray) -> np.ndarray:
        nonlocal moments
        n = values.size - 1
        if moments.size <= n:
            moments = _moments(beta, n + 1)
        # one row of moments: the integral at t = 1 only
        return scale * (moments[None, :n + 1] @ _real_matmul(_chebyshev(n)[1], values))

    return _doubling(sample, rule, what)[0]


# ---------------------------------------------------------------------------
# Transition factors L1, L2 and the germs fed to the Mellin transform


_SERIES_SWITCH = 1e-3  # below this, transition integrands are evaluated by series
# Below _MELLIN_SWITCH * max(1, x) the Mellin tail h = (f - T_{k-1}f)/s^k is
# evaluated by series.  Above it, the difference cancels to about eps*|f|/s^k,
# and that rounding error weighs as s^(-alpha) in the tail integral: at
# alpha = 6.6 a switch at 1e-3 left a 1e-6 relative error, at 0.02 1e-13.
_MELLIN_SWITCH = 0.02


class _Transition:
    """L(t) = exp int_0^t (num/den + alpha) ds/s on the Lobatto points of
    [0, w], with the Taylor series of L at 0.

    The integrand is sampled once, and the cumulative rule gives log L at
    every node.  ``at(n)`` hands a Mellin tail over [0, w] L at its own
    nodes: a stride of the grid up to the grid's node count, and past it
    L from a fresh sample at n, which is not kept.
    """

    def __init__(self, num: np.ndarray, den: np.ndarray, alpha, small: np.ndarray,
                 series: np.ndarray, w: float):
        self.num, self.den, self.alpha = num, den, alpha
        self.small = small    # series of the integrand, used for |t| < _SERIES_SWITCH
        self.series = series  # series of L itself
        self.w = w
        self._l = np.exp(_doubling(self._sample, self._log_l, "transition integral"))

    def integrand(self, t: np.ndarray) -> np.ndarray:
        out = np.empty(t.shape, dtype=self.small.dtype)
        small = np.abs(t) < _SERIES_SWITCH
        out[small] = horner(self.small, t[small])
        big = ~small
        tb = t[big]
        out[big] = _divide(_divide(horner(self.num, tb), horner(self.den, tb)) + self.alpha, tb)
        return out

    def _sample(self, n: int) -> np.ndarray:
        return self.integrand(self.w * _chebyshev(n)[0])

    def _log_l(self, values: np.ndarray) -> np.ndarray:
        return self.w * _real_matmul(_cumulative(values.size - 1), values)

    def at(self, n: int) -> np.ndarray:
        """L at the n + 1 Lobatto points of [0, w], from t = 1 down to 0."""
        grid = self._l.size - 1
        if n <= grid:
            return self._l[::grid // n]
        return np.exp(self._log_l(self._sample(n)))

    @property
    def end(self):
        """L(w)."""
        return scalar(self._l[0])


def _transition_data(p: np.ndarray, q: np.ndarray, alpha, w: float) -> _Transition:
    """L on [0, w] along the axis of q's first row, log L the integral of
    (p(0, t)/q(0, t) + alpha)/t, with its series to _germ_order(alpha).

    L1 is (P, Q, 1/lam, h_in); L2 is the same on the chart mirrored u <-> v,
    (Q.T, P.T, lam, h_out).
    """
    num, den = p[0, :], q[0, :]
    order = _germ_order(alpha)
    # the ratio's constant term is -alpha: the rest over t is the integrand's
    # series, of order - 1
    small = series_div(num, den, order)[1:]
    log_l = np.concatenate(([0.0], small / np.arange(1, order + 1)))
    return _Transition(num, den, alpha, small, series_exp(log_l), w)


def _germ_order(alpha: float) -> int:
    """Series order of the transition and M germ fed to mellin_hat at alpha.

    Reaching eight orders past the Taylor split k = ceil(alpha) + 2 keeps
    the series tail accurate up to the Mellin switch; at alpha = 14.3 a
    fixed order 16 left no term past the split and a 1e-6 error.
    """
    return max(DEFAULT_ORDER, math.ceil(alpha.real) + 10)


def _first_order(c: np.ndarray) -> np.ndarray:
    """Row 1 of c, the first-order coefficients in its row variable; zeros
    when c has one row."""
    return c[1] if c.shape[0] > 1 else np.zeros_like(c[0])


def _s_value(p: np.ndarray, q: np.ndarray, trans: _Transition):
    """S = -M^(w)/L(w) for the transition L of (p, q) on [0, w], where
    M = L * d(p/q) across the axis, transformed at Mellin order alpha:
    S1 from (P, Q) and L1, S2 from (Q.T, P.T) and L2."""
    order = trans.series.size - 1
    # trans.num/trans.den are the ratio restricted to the axis; the first
    # rows of p and q their partials across it
    a, b = np.convolve(_first_order(p), trans.den), np.convolve(trans.num, _first_order(q))
    top = max(a.size, b.size) - 1
    num = padded(a, top) - padded(b, top)
    den = np.convolve(trans.den, trans.den)

    m_series = np.convolve(trans.series, series_div(num, den, order))[:order + 1]

    def m_germ(n: int) -> np.ndarray:
        w = trans.w * _chebyshev(n)[0]
        return trans.at(n) * _divide(horner(num, w), horner(den, w))

    return -(1.0 / trans.end) * mellin_hat(m_germ, m_series, trans.alpha, trans.w)


# ---------------------------------------------------------------------------
# Incomplete Mellin transform


def _check_pole(alpha: float) -> None:
    nearest = round(alpha.real)
    if nearest >= 0 and abs(alpha.real - nearest) <= MELLIN_POLE_BAND:
        raise PoleError(f"Mellin order alpha={alpha!r} is within {MELLIN_POLE_BAND:g} "
                        f"of the pole at {int(nearest)}")


def mellin_hat(f: Sampler, series, alpha: float, x: float) -> float:
    """Incomplete Mellin transform: the smooth solution of x g' - alpha g = f.

    ``f`` is a Sampler of f(x*t), f on the Lobatto points of [0, x];
    ``series`` holds its Taylor coefficients at 0.  Evaluated as the Taylor
    head sum_{i<k} c_i x^i/(i - alpha) plus
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

    def h(n: int) -> np.ndarray:
        s = x * _chebyshev(n)[0]
        fs = f(n)
        out = np.empty(s.shape, dtype=coeffs.dtype)
        small = s < switch
        out[small] = horner(coeffs[k:], s[small])  # the series tail
        big = ~small
        sb = s[big]
        out[big] = _divide(fs[big] - horner(taylor, sb), sb**k)
        return out

    val = _fixed_rule(h, beta, x**(beta + 1.0), "Mellin tail quadrature")
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
    next_exponent: float | None = None
    next_coeff: float | None = None
    comp: object | None = None  # CompensatorTerm of the calculus module
    ell: tuple[float, float] = (0.0, 1.0)
    s1: float | None = None
    s2: float | None = None
    notes: tuple[str, ...] = ()

    @property
    def case(self) -> str:
        """below-one, above-one or at-one, from the ratio."""
        return classify_ratio(self.ratio)


def classify_ratio(lam: float) -> str:
    if abs(lam.real - 1.0) <= AT_ONE_BAND:
        return "at-one"
    return "below-one" if lam.real < 1.0 else "above-one"


def dulac_coefficients(chart: LocalChart, h_in: float, h_out: float) -> DulacExpansion:
    """Compute the Dulac expansion of a corner from (s, h_in) to (h_out, v).

    S1 and S2 come from one routine, S2 on the mirrored chart.  The S the
    case needs (S2 below one, S1 above one) has its Mellin order in (0, 1),
    away from every pole; the other S is set to None, with a note, when
    its pole guard trips.  At-one corners return leading data only,
    flagged in ``notes``.
    """
    if not (0.0 < h_in < math.inf and 0.0 < h_out < math.inf):
        raise ModelError(f"section half-lengths must be positive and finite, "
                         f"got h_in={h_in!r}, h_out={h_out!r}")
    lam = chart.lam
    chart.check_footprint(1.05 * h_out, 1.05 * h_in)

    p, q = chart.p_poly, chart.q_poly
    axes = ((p, q, _transition_data(p, q, 1.0 / lam, h_in)),
            (q.T, p.T, _transition_data(q.T, p.T, lam, h_out)))
    l1, l2 = axes[0][2].end, axes[1][2].end
    d00 = (h_in / l1**lam) * (l2 / h_out**lam)

    case = classify_ratio(lam)
    if case == "at-one":
        return DulacExpansion(
            ratio=lam, leading=d00, ell=(1.0, 2.0),
            notes=("at-one corner: second-order coefficients are resonant "
                   "(Mellin pole at alpha=1); leading term only",))

    needed = 2 if case == "below-one" else 1
    s_values: list = []
    notes: list[str] = []
    for i, (pi, qi, trans) in enumerate(axes, 1):
        try:
            s_values.append(_s_value(pi, qi, trans))
        except PoleError as exc:
            if i == needed:
                raise
            s_values.append(None)
            notes.append(f"S{i} unavailable: {exc}")
    s1, s2 = s_values
    if case == "below-one":
        exponent, coeff, ell = lam, -(d00**2) * s2, (lam.real, min(2.0 * lam.real, 1.0))
    else:
        exponent, coeff, ell = 1.0, lam * d00 * s1, (1.0, min(lam.real, 2.0))
    return DulacExpansion(ratio=lam, leading=d00, next_exponent=exponent, next_coeff=coeff,
                          ell=ell, s1=s1, s2=s2, notes=tuple(notes))
