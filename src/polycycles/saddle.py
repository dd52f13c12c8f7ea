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
D01 = -D00^2*S2.  It returns a ``DulacExpansion`` of the calculus module,
whose one term is (1, D10) above one, (lam, D01) below one and none at
one.  The ingredients are the transition factors

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
L (_Transition) and one S (_s_values) on either axis.

P and Q are coefficient arrays c[i, j] of u^i v^j, like the model's field
(see the expressions module), and truncated Taylor series plain 1-d arrays
(see the series module).  Every chart comes from one affine substitution:
the field shifted to the corner, (X, Y) = u e_out + v e_in put in, e_out and
e_in the unit edge vectors, and (u', v') read off in the dual basis.  u' has
a vanishing first row exactly when the line along e_in is invariant, and P
is what is left once that row is sliced off; Q likewise.  The formulas
above read only P(0,v), Q(u,0), the first-order rows across each axis and
P(0,0), Q(0,0), all of them slices of the arrays.

Both integrals are sampled on the Chebyshev-Lobatto points of [0, h], h the
section half-length, and checked by doubling the node count.  The cumulative
rule gives log L at every node from one sample of its integrand, so D00 and
the Mellin tail over the same [0, h] read L from one grid; the tail itself
takes the product rule weighted by modified moments.  See "Chebyshev rules".

The rules run on a lane axis, a lane per chart and axis of a corner; what
would round differently over lanes (matrix products, series recurrences,
scalar powers) stays per lane.  A lane stops doubling and fails alone.
A batch computes each distinct input once, and a lane only what its
caller reads: lanes whose axis data are equal bit for bit share one
transition lane, mellin_hat builds the moments once per distinct (beta,
count), and the S a corner's case does not use is computed only when
asked for (dulac_coefficients' ``both_s``).  Nothing is kept past the
call.

Every function here is holomorphic in the field's coefficients, so a
complex step in a parameter carries through to exact derivatives (see
cyclicity.gradient).  Every branch (sign checks, case tags, Taylor splits,
pole guards, convergence tests) is taken on real parts, so a complex
evaluation follows the same path as the real one, and its ratio is the
real ratio exactly.  The rules' matrix products and the integrands'
quotients are taken by parts (_real_matmul, _divide) and repeat the real
arithmetic bit for bit; the powers, exponentials and series recurrences
run in complex arithmetic and do not.  Over 40 seeded points each of
four_saddle (within 2% of its defaults) and integrable_square, D00's real
part is within 3 ulps of the real evaluation's, and S1's and S2's within
7.7e-15 relative.  So the chain a document prints is evaluated on its own
lane, not read off the gradient's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .calculus import DulacExpansion, classify_ratio
from .errors import (DegeneracyError, ModelError, NumericError, PoleError, PolycycleError,
                     UnsupportedGeometryError)
from .series import DEFAULT_ORDER, horner, scalar, series_div, series_exp

# pole dead band for Mellin orders
MELLIN_POLE_BAND = 1e-6
# Largest Mellin order (lam or 1/lam) expanded, its germ series ceil(alpha) + 10
# long: on four_saddle 125 still converges, 151 does not
MELLIN_ORDER_MAX = 150
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


@lru_cache(maxsize=32)
def _chart_operator(e_out: tuple[float, float], e_in: tuple[float, float],
                    shapes: tuple[tuple[int, int], ...]) -> np.ndarray:
    """The array that takes X' and Y', of the given shapes, flattened and
    stacked, to u' and v', each n x n: (X, Y) = u e_out + v e_in substituted,
    and (u', v') read off in the dual basis."""
    (p, r), (q, s) = e_out, e_in
    n = max(map(sum, shapes)) - 1
    blocks = []
    for shape in shapes:
        sub = np.zeros((n, n) + shape)
        for i, j in np.ndindex(shape):  # X^i Y^j = (p u + q v)^i (r u + s v)^j
            k = np.arange(i + j + 1)
            sub[k, i + j - k, i, j] = np.convolve(*(
                [math.comb(e, t) * x ** t * y ** (e - t) for t in range(e + 1)]
                for e, x, y in ((i, p, q), (j, r, s))))
        blocks.append(sub.reshape(n * n, -1))
    return np.block([[s * blocks[0], -q * blocks[1]],
                     [-r * blocks[0], p * blocks[1]]]).reshape(2, n, n, -1) / (p * s - q * r)


def _trimmed(c: np.ndarray) -> np.ndarray:
    """c cut to its last nonzero row and column."""
    rows, cols = np.nonzero(c)
    return c[:rows.max(initial=0) + 1, :cols.max(initial=0) + 1]


def normalize_saddle(field_x: np.ndarray, field_y: np.ndarray,
                     corner, incoming, outgoing) -> LocalChart:
    """The LocalChart of the saddle at ``corner``: u runs along ``outgoing``,
    the unit edge vector toward the next corner, v along ``incoming``, the one
    toward the previous corner.  UnsupportedGeometryError when the two are
    parallel, a line along them is not invariant or the flow runs against the
    traversal; DegeneracyError when the corner is not a hyperbolic saddle."""
    a, b = float(corner[0]), float(corner[1])
    e_out, e_in = tuple(map(float, outgoing)), tuple(map(float, incoming))
    if abs(e_out[0] * e_in[1] - e_out[1] * e_in[0]) <= 1e-9:
        raise UnsupportedGeometryError(
            f"incoming and outgoing separatrices at ({a:g},{b:g}) are parallel")

    fx, fy = _taylor_shift(field_x, a, b), _taylor_shift(field_y, a, b)
    du, dv = _real_matmul(_chart_operator(e_out, e_in, (fx.shape, fy.shape)),
                          np.concatenate((fx.ravel(), fy.ravel())))
    # u' = u P exactly when its u^0 row vanishes, the line along incoming
    # being invariant, and v' = v Q when its v^0 column does
    scale = max(1.0, np.max(np.abs(field_x)), np.max(np.abs(field_y)))
    for rest, (dx, dy) in ((du[0, :], e_in), (dv[:, 0], e_out)):
        remainder = np.max(np.abs(rest))
        if remainder > 1e-9 * scale:
            raise UnsupportedGeometryError(
                f"line through ({a:g},{b:g}) along ({dx:g},{dy:g}) is not invariant: "
                f"remainder magnitude {remainder:.3e}")
    p_loc, q_loc = _trimmed(du[1:, :]), _trimmed(dv[:, 1:])

    p0, q0 = p_loc[0, 0], q_loc[0, 0]  # the eigenvalues along outgoing and incoming
    zero = min(abs(p0.real), abs(q0.real)) <= 1e-12
    if zero or p0.real * q0.real > 0.0:
        what = "hyperbolic" if zero else "a saddle"
        raise DegeneracyError(f"corner ({a:g},{b:g}) is not {what}: "
                              f"eigenvalues ({p0:.3e}, {q0:.3e})")
    if q0.real > 0.0:
        raise UnsupportedGeometryError(
            f"incoming separatrix at ({a:g},{b:g}) lies on the unstable axis; "
            "the traversal opposes the flow (check the polycycle orientation)")
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

# A Sampler gives a row per lane listed: a function of t at _chebyshev(n)[0].
Sampler = Callable[[int, Sequence[int]], np.ndarray]


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


def _key(value) -> tuple:
    """Equal only for inputs that compute alike bit for bit: an array's
    dtype, shape and bytes, a number's type and repr (0.5 and 0.5+0j, 0.0
    and -0.0 differ)."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return type(value), repr(value)


def _stacked(rows: Sequence[np.ndarray]) -> np.ndarray:
    """One coefficient array per lane, as columns; the zeros that fill the
    shorter ones at the top leave every Horner step as it was."""
    out = np.zeros((max((r.size for r in rows), default=0), len(rows)),
                   np.result_type(float, *{r.dtype for r in rows}))
    for i, row in enumerate(rows):
        out[:row.size, i] = row
    return out


def _horner_at(coeffs: np.ndarray, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """At each entry of t, the polynomial of the lane ``rows`` names there:
    laid flat, a Horner step is one call on arrays of one shape."""
    return horner(coeffs[:, 0] if coeffs.shape[1] == 1 else coeffs[:, rows], t)


def _moments(beta, count: int) -> np.ndarray:
    """M_k = int_{-1}^{1} (1 + x)^beta T_k(x) dx for k < count, by the forward
    recurrence M_k = -(2^(beta+1) + k(k-beta-2) M_{k-1}) / ((k-1)(k+beta+1))."""
    two = 2.0 ** (beta + 1.0)
    m = [two / (beta + 1.0)]
    m.append(m[0] * beta / (beta + 2.0))
    for k in range(2, count):
        m.append(-(two + k * (k - beta - 2.0) * m[-1]) / ((k - 1) * (k + beta + 1.0)))
    return np.array(m[:count])


def _doubling(sample: Sampler, rule: Callable[[np.ndarray, int], np.ndarray],
              lanes: Sequence[int], what: str) -> dict[int, np.ndarray | NumericError]:
    """Per lane, the 2n-point result of ``rule`` for the least n whose
    n-point result agrees with it, or the lane's NumericError.

    ``rule`` takes one lane's values at n + 1 Lobatto points and returns
    the integral at the nodes it reports: every node, or only t = 1, the
    first.  Either way every other entry of the 2n-point result is a node
    of the n-point rule.
    """
    out, n, lanes, coarse = {}, 2 * QUAD_MIN_NODES, list(lanes), None
    while lanes:
        values = sample(n, lanes)
        if coarse is None:
            coarse = np.array([rule(row[::2], i) for row, i in zip(values, lanes)])
        fine = np.array([rule(row, i) for row, i in zip(values, lanes)])
        shared = fine[:, ::2]
        err = np.abs((shared - coarse).real)
        done = (err <= np.maximum(QUAD_ATOL, QUAD_RTOL * np.abs(shared.real))).all(axis=1)
        done |= n >= QUAD_MAX_NODES
        good = (np.isfinite(fine).all(axis=1)
                & (err <= 1e-6 * np.maximum(1.0, np.abs(shared.real))).all(axis=1))
        for j in np.flatnonzero(done):
            out[lanes[j]] = fine[j] if good[j] else NumericError(
                f"{what} did not converge (err={np.max(err[j]):.2e})")
        n, lanes, coarse = 2 * n, [i for i, d in zip(lanes, done) if not d], fine[~done]
    return out


# ---------------------------------------------------------------------------
# Transition factors L1, L2 and the germs fed to the Mellin transform


_SERIES_SWITCH = 1e-3  # below this, transition integrands are evaluated by series
# Below _MELLIN_SWITCH * max(1, x) the Mellin tail h = (f - T_{k-1}f)/s^k is
# evaluated by series.  Above it, the difference cancels to about eps*|f|/s^k,
# and that rounding error weighs as s^(-alpha) in the tail integral: at
# alpha = 6.6 a switch at 1e-3 left a 1e-6 relative error, at 0.02 1e-13.
_MELLIN_SWITCH = 0.02


class _Transition:
    """Per lane (p, q, alpha, w), L(t) = exp int_0^t (p(0, s)/q(0, s) + alpha)
    ds/s on the Lobatto points of [0, w], and L's series to _germ_order(alpha):
    L1 is (P, Q, 1/lam, h_in), L2 (Q.T, P.T, lam, h_out), the chart mirrored.

    The integrand is sampled once, and the cumulative rule gives log L at
    every node.  ``at(n, lanes)`` hands a Mellin tail L at its own nodes: a
    stride of a lane's grid, or past the grid L from a fresh sample at n,
    not kept.  A lane whose rule does not converge has its error in ``failed``.
    """

    def __init__(self, p: Sequence[np.ndarray], q: Sequence[np.ndarray], alpha: Sequence,
                 w: Sequence[float]):
        num, den, small, self.series = [pi[0, :] for pi in p], [qi[0, :] for qi in q], [], []
        for ni, di, order in zip(num, den, map(_germ_order, alpha)):
            # the ratio's constant term is -alpha: the rest over t is the
            # integrand's series, of order - 1; series holds L's
            small.append(series_div(ni, di, order)[1:])
            log_l = np.concatenate(([0.0], small[-1] / np.arange(1, order + 1)))
            self.series.append(series_exp(log_l))
        self.ratio, self.small = _stacked(num + den), _stacked(small)  # num's lanes, then den's
        self.alpha, self._alpha = list(alpha), np.array(alpha)
        self.w, self._w = list(w), np.array(w)[:, None]
        grids = _doubling(self._sample, self._log_l, range(len(num)), "transition integral")
        self.failed = {i: g for i, g in grids.items() if isinstance(g, NumericError)}
        self._l = {i: np.exp(g) for i, g in grids.items() if i not in self.failed}

    def integrand(self, t: np.ndarray, lanes: Sequence[int]) -> np.ndarray:
        """The integrand at t, a row of nodes per lane listed."""
        rows = np.array(lanes).repeat(t.shape[1]).reshape(t.shape)
        out, small = np.empty(t.shape, self.small.dtype), np.abs(t) < _SERIES_SWITCH
        out[small] = _horner_at(self.small, rows[small], t[small])
        rb, tb = rows[~small], t[~small]
        ratio = _horner_at(self.ratio, np.concatenate((rb, rb + len(self.w))),
                           np.concatenate((tb, tb)))
        out[~small] = _divide(_divide(ratio[:tb.size], ratio[tb.size:]) + self._alpha[rb], tb)
        return out

    def _sample(self, n: int, lanes: Sequence[int]) -> np.ndarray:
        return self.integrand(self._w[lanes] * _chebyshev(n)[0], lanes)

    def _log_l(self, values: np.ndarray, lane: int) -> np.ndarray:
        return self.w[lane] * _real_matmul(_cumulative(values.size - 1), values)

    def at(self, n: int, lanes: Sequence[int]) -> np.ndarray:
        """L at the n + 1 Lobatto points of [0, w], t = 1 first, a row per lane."""
        fresh = [i for i in dict.fromkeys(lanes) if self._l[i].size <= n]
        rows = dict(zip(fresh, np.exp([self._log_l(v, i) for v, i in
                                       zip(self._sample(n, fresh), fresh)]))) if fresh else {}
        return np.array([rows[i] if i in rows else self._l[i][::(self._l[i].size - 1) // n]
                         for i in lanes])

    def end(self, lane: int):
        """The lane's L(w)."""
        return scalar(self._l[lane][0])


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


def _s_values(p: Sequence[np.ndarray], q: Sequence[np.ndarray], trans: _Transition,
              lanes: Sequence[int]) -> list[float | complex | PolycycleError]:
    """S = -M^(w)/L(w), or the error, per lane (p, q, transition lane): L
    the transition of (p, q) on [0, w], M = L * d(p/q) across the axis
    transformed at Mellin order alpha.  S1 from (P, Q) and L1, S2 from
    (Q.T, P.T) and L2."""
    nums, dens, m_series = [], [], []
    for pi, qi, series in zip(p, q, (trans.series[t] for t in lanes)):
        # row 0 of p and q is the ratio on the axis, row 1 its partial across
        # it; both products are as long as p's and q's rows together
        nums.append(np.convolve(_first_order(pi), qi[0]) - np.convolve(pi[0], _first_order(qi)))
        dens.append(np.convolve(qi[0], qi[0]))
        m_series.append(np.convolve(series, series_div(nums[-1], dens[-1], series.size - 1))
                        [:series.size])
    ratio, count = _stacked(nums + dens), len(lanes)  # num's lanes, then den's

    def m_germ(n: int, ks: Sequence[int]) -> np.ndarray:
        own = [lanes[k] for k in ks]
        w = (trans._w[own] * _chebyshev(n)[0]).ravel()
        rows = np.array(ks).repeat(n + 1)
        values = _horner_at(ratio, np.concatenate((rows, rows + count)), np.concatenate((w, w)))
        return trans.at(n, own) * _divide(values[:w.size], values[w.size:]).reshape(len(ks), -1)

    values = mellin_hat(m_germ, m_series, [trans.alpha[t] for t in lanes],
                        [trans.w[t] for t in lanes])
    return [v if isinstance(v, PolycycleError) else -(1.0 / trans.end(t)) * v
            for v, t in zip(values, lanes)]


# ---------------------------------------------------------------------------
# Incomplete Mellin transform


def mellin_hat(f: Sampler, series: Sequence, alpha: Sequence, x: Sequence[float]) -> list:
    """Incomplete Mellin transform: the smooth solution of x g' - alpha g = f,
    per lane (f, alpha, x).

    ``f`` is a Sampler of f(x*t), f on the Lobatto points of [0, x];
    ``series`` holds each lane's Taylor coefficients of f at 0, an array.
    Evaluated as the Taylor head sum_{i<k} c_i x^i/(i - alpha) plus
    |x|^alpha int_0^x (f - T_{k-1}f)(s) |s|^{-alpha} ds/s with k the Taylor
    order chosen above alpha + 1.  The tail integrand is s^beta h(s) with
    beta = k - alpha - 1 > -1 and h = (f - T_{k-1}f)/s^k smooth, so it is
    integrated by the product rule with weight s^beta.  Returns each lane's
    value, or the PoleError or NumericError that stopped it.
    """
    if not all(xi > 0.0 for xi in x):
        raise ValueError("mellin_hat expects x > 0")
    k = [max(0, math.ceil(a.real) + 2) for a in alpha]
    out: list = []
    for a, c, ki, nearest in zip(alpha, series, k, (round(a.real) for a in alpha)):
        if nearest >= 0 and abs(a.real - nearest) <= MELLIN_POLE_BAND:
            out.append(PoleError(f"Mellin order alpha={a!r} is within {MELLIN_POLE_BAND:g} "
                                 f"of the pole at {int(nearest)}"))
        elif ki > c.size:
            raise ValueError(f"germ series order {c.size - 1} too low for alpha={a:g}")
        else:
            out.append(None)
    live = [i for i, error in enumerate(out) if error is None]
    taylor = _stacked([c[:ki] for c, ki in zip(series, k)])
    tail = _stacked([c[ki:] for c, ki in zip(series, k)])
    beta = [ki - a - 1.0 for ki, a in zip(k, alpha)]
    powers, xs = np.array(k), np.array(x)[:, None]
    switch = np.array([min(_MELLIN_SWITCH * max(1.0, xi), 0.5 * xi) for xi in x])[:, None]

    def h(n: int, lanes: Sequence[int]) -> np.ndarray:
        s, fs = xs[lanes] * _chebyshev(n)[0], f(n, lanes)
        rows = np.array(lanes).repeat(n + 1).reshape(s.shape)
        values = np.empty(s.shape, dtype=taylor.dtype)
        small = s < switch[lanes]
        values[small] = _horner_at(tail, rows[small], s[small])  # the series tail
        rb, sb = rows[~small], s[~small]
        values[~small] = _divide(fs[~small] - _horner_at(taylor, rb, sb), sb**powers[rb])
        return values

    # the product rule: the first n + 1 moments times h's Chebyshev
    # coefficients; t^beta dt on [0, 1] is 2^-(beta+1) (1+x)^beta dx
    scale = {i: x[i]**(beta[i] + 1.0) / 2.0 ** (beta[i] + 1.0) for i in live}
    # one array per distinct (beta, count); the rule at n reads n + 1 of them
    moments: dict = {}
    exact = {i: _key(beta[i]) for i in live}

    def rule(values: np.ndarray, i: int) -> np.ndarray:
        n = values.size - 1
        key = (exact[i], max(2 * QUAD_MIN_NODES, n) + 1)
        if key not in moments:
            moments[key] = _moments(beta[i], key[1])
        # one row of moments: the integral at t = 1 only
        return scale[i] * (moments[key][None, :n + 1] @ _real_matmul(_chebyshev(n)[1], values))

    for i, val in _doubling(h, rule, live, "Mellin tail quadrature").items():
        head = sum(series[i][j] * x[i]**j / (j - alpha[i]) for j in range(k[i]))
        out[i] = val if isinstance(val, NumericError) else scalar(head + x[i]**alpha[i] * val[0])
    return out


# ---------------------------------------------------------------------------
# Dulac coefficients


def dulac_coefficients(charts: Sequence[LocalChart], h_in: float, h_out: float,
                       *, both_s: bool = False) -> list[DulacExpansion | PolycycleError]:
    """The Dulac expansions of one corner from (s, h_in) to (h_out, v), for a
    batch of its charts: per chart, the expansion or the error that stopped it.

    S1 and S2 come from one routine, S2 on the mirrored chart.  The S the
    case needs (S2 below one, S1 above one) has its Mellin order in (0, 1),
    away from every pole.  The other S only ``both_s`` asks for; it is set
    to None, with a note, when it fails (a pole guard, a tail that does not
    converge), and None without one when it is not asked for.  At-one
    corners return leading data only, flagged in ``notes``.  A Mellin order
    past MELLIN_ORDER_MAX fails before any series is built.

    Lanes whose axis data (row 0 of P and Q, Mellin order, section
    half-length) are equal bit for bit share one transition lane.
    """
    if not (0.0 < h_in < math.inf and 0.0 < h_out < math.inf):
        return [ModelError(f"section half-lengths must be positive and finite, "
                           f"got h_in={h_in!r}, h_out={h_out!r}")] * len(charts)
    out, lams = [None] * len(charts), [chart.lam for chart in charts]
    for i, (chart, lam) in enumerate(zip(charts, lams)):
        try:
            chart.check_footprint(1.05 * h_out, 1.05 * h_in)
            alpha = max(lam.real, 1.0 / lam.real)  # the larger Mellin order
            if alpha > MELLIN_ORDER_MAX:
                raise NumericError(f"Mellin order alpha={alpha:.6g} is past {MELLIN_ORDER_MAX:g}, "
                                   "the largest the germ series are built to")
        except PolycycleError as exc:
            out[i] = exc
    live = [i for i, error in enumerate(out) if error is None]
    # both axes as one batch: lane j is axis 1 of live chart j, lane m + j
    # its axis 2, the chart mirrored u <-> v; lane[j] is its transition lane
    m, lam = len(live), [lams[i] for i in live]
    p, q = [charts[i].p_poly for i in live], [charts[i].q_poly for i in live]
    p, q = p + [c.T for c in q], q + [c.T for c in p]
    alpha, w = [1.0 / x for x in lam] + lam, [h_in] * m + [h_out] * m
    distinct: dict = {}
    lane = [distinct.setdefault(tuple(map(_key, data)), len(distinct))
            for data in zip((c[0] for c in p), (c[0] for c in q), alpha, w)]
    first = [lane.index(t) for t in range(len(distinct))]
    trans = _Transition(*([seq[j] for j in first] for seq in (p, q, alpha, w)))
    leading, needed = {}, {}
    for j, i in enumerate(live):
        out[i] = trans.failed.get(lane[j]) or trans.failed.get(lane[m + j])
        if out[i] is not None:
            continue
        try:
            d00 = (h_in / trans.end(lane[j])**lam[j]) * (trans.end(lane[m + j]) / h_out**lam[j])
        except (OverflowError, ZeroDivisionError):  # a power past the float range
            d00 = math.nan
        if d00.real == 0.0 or not math.isfinite(d00.real):
            out[i] = NumericError(f"leading coefficient D00 at ratio {lam[j].real:.6g} is "
                                  f"{d00.real!r}, not a finite nonzero number")
        elif classify_ratio(lam[j]) == "at-one":
            out[i] = DulacExpansion(
                ratio=lam[j], leading=d00, ell=(1.0, 2.0),
                notes=("at-one corner: second-order coefficients are resonant "
                       "(Mellin pole at alpha=1); leading term only",))
        else:
            leading[j] = d00
            needed[j] = 2 if classify_ratio(lam[j]) == "below-one" else 1

    wanted = [(j, axis) for axis in (1, 2) for j in leading if both_s or axis == needed[j]]
    rows = [j if axis == 1 else m + j for j, axis in wanted]
    s_values = dict(zip(wanted, _s_values([p[r] for r in rows], [q[r] for r in rows], trans,
                                          [lane[r] for r in rows])))
    for j, d00 in leading.items():
        lj = lam[j]
        s = {axis: s_values[j, axis] for axis in (1, 2) if (j, axis) in s_values}
        if isinstance(s[needed[j]], PolycycleError):
            out[live[j]] = s[needed[j]]
            continue
        notes = tuple(f"S{axis} unavailable: {value}" for axis, value in s.items()
                      if isinstance(value, PolycycleError))
        s1, s2 = (None if isinstance(v, PolycycleError) else v for v in map(s.get, (1, 2)))
        if needed[j] == 2:
            exponent, coeff, ell = lj, -(d00**2) * s2, (lj.real, min(2.0 * lj.real, 1.0))
        else:
            exponent, coeff, ell = 1.0, lj * d00 * s1, (1.0, min(lj.real, 2.0))
        out[live[j]] = DulacExpansion(ratio=lj, leading=d00, terms=((exponent, coeff),),
                                      ell=ell, s1=s1, s2=s2, notes=notes)
    return out
