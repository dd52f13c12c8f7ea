"""Randomized cross-validation of the composition calculus.

The closed-form rules for composing and inverting two-term maps are
checked against an oracle that knows nothing about the coefficient
algebra: each trial draws exact maps s^ratio * (leading + c*s^offset),
as ``DulacExpansion``s whose remainder interval is empty, composes (or
inverts) them pointwise in high-precision arithmetic, and peels the
leading and second-order coefficients off the composite by finite
differencing at geometrically deep sample points.

Sampling depth and working precision are chosen per case so that every
contamination term (higher lattice orders, cancellation in the
differences) sits far below the comparison tolerances.  The depth puts
PEEL_BITS of damping on the first neglected lattice term; the precision
is twice the digits the differences then cancel, plus 10, and at least
40 (``_peel_dps``).  The inverse, resonant and below-above cases get 44
to 47 digits; the deepest above-above and above-below draws cancel about
68 digits and get up to 147, the case ORACLE_DPS's 140 was sized for.  The
draw is margin-enforced: exponent collisions either land exactly on a
resonance or stay separated by at least MIN_GAP, so no trial falls into
the dead band between the tie and generic branches of the composition
rule.

The oracle works on mpmath's raw values (``mpmath.libmp`` tuples) and
passes each operation its precision and round-to-nearest explicitly: the
set-up at ORACLE_DPS's bits, each peel at its own.  It neither reads nor
sets mpmath's global context, so a caller's ``mp.dps`` changes no result.
The operations are the ``libmp`` functions that mpmath's ``mpf`` operators
call, on the same values in the same order, so every oracle float is the
one the ``mpf`` objects give at these precisions; floats are read off with
``to_float(v, rnd=round_nearest)``, as ``float(mpf)`` does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable

from mpmath.libmp import (dps_to_prec, fone, from_float, from_int, from_man_exp, from_str,
                          mpf_abs, mpf_add, mpf_ceil, mpf_div, mpf_exp, mpf_gt, mpf_le,
                          mpf_ln2, mpf_log, mpf_lt, mpf_mul, mpf_mul_int, mpf_neg, mpf_pow,
                          mpf_rdiv_int, mpf_sub, round_nearest, to_float, to_int)

from .calculus import DulacExpansion, compose_pair, inverse_dulac
from .errors import NumericError

__all__ = [
    "COMPOSE_CASES",
    "INVERSE_CASES",
    "CaseReport",
    "CheckReport",
    "oracle_compose",
    "oracle_inverse",
    "run_compose_check",
]

# Exponent separation enforced by the generator (away from exact ties).
MIN_GAP = 0.25
# Bits of geometric damping applied to the first neglected lattice term.
PEEL_BITS = 56
# Precision of the set-up: lattice offsets, exponents and constants.  Each
# peel sets its own, _peel_dps: twice the digits its differences cancel,
# plus 10.  The deepest case cancels ~68 digits and gets 147, the margin
# this 140 leaves; most peels need only 45.
ORACLE_DPS = 140
_PREC = dps_to_prec(ORACLE_DPS)  # bits of the set-up arithmetic
_RND = round_nearest  # every operation rounds to nearest
# Lattice points closer than this are merged (_second_offset).
_MERGE_BELOW = from_str("1e-9", _PREC, _RND)
# Largest relative deviations of the leading and second coefficients that pass.
LEADING_TOL = 1e-10
SECOND_TOL = 1e-8

COMPOSE_CASES = (
    "above-above",
    "below-below",
    "below-above",
    "above-below",
    "resonant",
)
INVERSE_CASES = ("inverse-above", "inverse-below")

_ABOVE = (1.25, 2.5)
_BELOW = (0.4, 0.8)


def _exact(ratio: float, leading: float, offset: float, coeff: float) -> DulacExpansion:
    """The map s -> s**ratio * (leading + coeff * s**offset), s > 0.

    The map is exact, so the remainder interval is empty: anything past
    the explicit second term is genuinely absent.
    """
    return DulacExpansion(ratio=ratio, leading=leading, terms=((offset, coeff),),
                          ell=(offset, math.inf))


def _mp_terms(d: DulacExpansion) -> tuple[tuple, tuple, tuple, tuple]:
    """(ratio, leading, offset, coefficient) of ``d`` as exact raw mpfs."""
    ((offset, coeff),) = d.terms
    return from_float(d.ratio), from_float(d.leading), from_float(offset), from_float(coeff)


def _mp_map(d: DulacExpansion) -> Callable[[tuple, int], tuple[tuple, tuple]]:
    """(x, prec) -> (f(x), f'(x)) for the exact map f of ``d``, at prec bits.

    With f(x) = x**p * (a + c*x**w), f'(x) = x**p * (p*a + (p + w)*c*x**w) / x:
    one logarithm and two exponentials give both.
    """
    p, a, w, c = _mp_terms(d)
    pa, pw = mpf_mul(p, a, _PREC, _RND), mpf_add(p, w, _PREC, _RND)

    def value_and_slope(x: tuple, prec: int) -> tuple[tuple, tuple]:
        lx = mpf_log(x, prec, _RND)
        xp = mpf_exp(mpf_mul(p, lx, prec, _RND), prec, _RND)
        cxw = mpf_mul(c, mpf_exp(mpf_mul(w, lx, prec, _RND), prec, _RND), prec, _RND)
        value = mpf_mul(xp, mpf_add(a, cxw, prec, _RND), prec, _RND)
        slope = mpf_mul(xp, mpf_add(pa, mpf_mul(pw, cxw, prec, _RND), prec, _RND), prec, _RND)
        return value, mpf_div(slope, x, prec, _RND)

    return value_and_slope


# ---------------------------------------------------------------------------
# Coefficient peeling


def _second_offset(o1: tuple, o2: tuple) -> tuple[tuple, tuple]:
    """Smallest point lo of the lattice {i*o1 + j*o2 : i + j > 0} and the gap
    to the next distinct one, min(hi, 2*lo), or 2*lo when hi is within 1e-9.

    Points that close are merged; the generator only produces collisions
    that are exact up to representation error, so the merge cannot swallow
    a genuinely separate term.  Its offsets all exceed 0.1, clear of the
    merge width that lo itself must stand above.
    """
    lo, hi = (o1, o2) if mpf_le(o1, o2) else (o2, o1)
    if mpf_le(lo, _MERGE_BELOW):
        raise NumericError("offset lattice degenerate: no second point")
    gap = mpf_sub(hi, lo, _PREC, _RND)
    if mpf_gt(gap, _MERGE_BELOW) and mpf_lt(hi, mpf_mul_int(lo, 2, _PREC, _RND)):
        return lo, gap
    return lo, lo


def _peel_dps(off: float, k: int) -> int:
    """Working precision of a peel at depth 2**-k on the offset ``off``.

    The differences of three samples down to 2**-(k+2) cancel about
    off*(k+2)*log10(2) digits.  Twice that plus 10, and never below 40,
    leaves as many digits again, and 10 more, beyond the cancellation.
    """
    lost = off * (k + 2) * math.log10(2)
    return max(40, math.ceil(2 * lost + 10))


def _peel(bracket_at: Callable[[int], Callable[[tuple], tuple]], off: tuple,
          gap: tuple) -> tuple[float, float, float]:
    """Leading and second coefficients of bracket(x) = L + S*x**off + ...

    Three samples at x0, x0/2, x0/4 with x0 = 2**-k.  The depth k puts
    PEEL_BITS of damping on the first neglected term, so the finite
    differences isolate S (and through them L) to well below 1e-12
    relative, and the differenced slope recovers off itself as a
    consistency reading.  The samples and differences run at
    ``_peel_dps``, the precision this depth needs: ``bracket_at(dps)``
    returns the bracket that works at it.
    """
    k = to_int(mpf_ceil(mpf_rdiv_int(PEEL_BITS, gap, _PREC, _RND), _PREC, _RND))
    dps = _peel_dps(to_float(off, rnd=_RND), k)
    prec = dps_to_prec(dps)
    bracket = bracket_at(dps)
    b0, b1, b2 = (bracket(from_man_exp(1, -k - j)) for j in range(3))
    d1, d2 = mpf_sub(b1, b0, prec, _RND), mpf_sub(b2, b1, prec, _RND)
    if not d1[1] or not d2[1] or d1[0] != d2[0]:  # a zero mantissa, or the signs differ
        raise NumericError("peel differences degenerate or sign-flipping")
    ln2 = mpf_ln2(prec, _RND)
    log_ratio = mpf_log(mpf_div(d2, d1, prec, _RND), prec, _RND)
    off_est = mpf_div(mpf_neg(log_ratio, prec, _RND), ln2, prec, _RND)
    t = mpf_mul(off, ln2, prec, _RND)  # 2**-off = exp(-t), x0**off = exp(-k*t)
    x0_off = mpf_exp(mpf_mul_int(t, -k, prec, _RND), prec, _RND)
    shrink = mpf_sub(mpf_exp(mpf_neg(t, prec, _RND), prec, _RND), fone, prec, _RND)
    second = mpf_div(d1, mpf_mul(x0_off, shrink, prec, _RND), prec, _RND)
    lead = mpf_sub(b0, mpf_mul(second, x0_off, prec, _RND), prec, _RND)
    return to_float(lead, rnd=_RND), to_float(second, rnd=_RND), to_float(off_est, rnd=_RND)


def oracle_compose(m1: DulacExpansion, m2: DulacExpansion) -> tuple[float, float, float]:
    """(leading, second coefficient, second offset) of m2 after m1.

    Pointwise evaluation only; the lattice {i*offset1 + j*ratio1*offset2}
    fixes where to look, never what the coefficients are.  With
    y = f1(x) = x**p1 * g1 and g1 = a1 + c1*x**w1, the bracket
    f2(y) / x**(p1*p2) is g1**p2 * (a2 + c2*y**w2): two logarithms and
    three exponentials per sample.
    """
    p1, a1, w1, c1 = _mp_terms(m1)
    p2, a2, w2, c2 = _mp_terms(m2)

    def bracket_at(dps: int) -> Callable[[tuple], tuple]:
        prec = dps_to_prec(dps)

        def bracket(x: tuple) -> tuple:
            lx = mpf_log(x, prec, _RND)
            c1xw = mpf_mul(c1, mpf_exp(mpf_mul(w1, lx, prec, _RND), prec, _RND), prec, _RND)
            lg = mpf_log(mpf_add(a1, c1xw, prec, _RND), prec, _RND)
            ly = mpf_add(mpf_mul(p1, lx, prec, _RND), lg, prec, _RND)
            c2yw = mpf_mul(c2, mpf_exp(mpf_mul(w2, ly, prec, _RND), prec, _RND), prec, _RND)
            g1p = mpf_exp(mpf_mul(p2, lg, prec, _RND), prec, _RND)
            return mpf_mul(g1p, mpf_add(a2, c2yw, prec, _RND), prec, _RND)

        return bracket

    off, gap = _second_offset(w1, mpf_mul(p1, w2, _PREC, _RND))
    return _peel(bracket_at, off, gap)


def oracle_inverse(m: DulacExpansion) -> tuple[float, float, float]:
    """(leading, second coefficient, second offset) of the inverse map.

    The inverse is evaluated by Newton iteration on f(x) = u, seeded
    with the leading-order guess.  Convergence is quadratic, so once a
    relative step is below 10**((6 - dps)/2) the next one would be below
    10**(6 - dps): Newton stops there, without an evaluation that would
    only confirm it.
    """
    f = _mp_map(m)
    rho = mpf_rdiv_int(1, from_float(m.ratio), _PREC, _RND)
    seed = mpf_pow(from_float(m.leading), mpf_neg(rho, _PREC, _RND), _PREC, _RND)

    def bracket_at(dps: int) -> Callable[[tuple], tuple]:
        prec = dps_to_prec(dps)
        half = mpf_div(from_int(6 - dps), from_int(2), prec, _RND)
        tol = mpf_pow(from_int(10), half, prec, _RND)

        def bracket(u: tuple) -> tuple:
            u_rho = mpf_exp(mpf_mul(rho, mpf_log(u, prec, _RND), prec, _RND), prec, _RND)
            x = mpf_mul(seed, u_rho, prec, _RND)
            for _ in range(80):
                value, slope = f(x, prec)
                step = mpf_div(mpf_sub(value, u, prec, _RND), slope, prec, _RND)
                x = mpf_sub(x, step, prec, _RND)
                bound = mpf_mul(mpf_abs(x, prec, _RND), tol, prec, _RND)
                if mpf_le(mpf_abs(step, prec, _RND), bound):
                    return mpf_div(x, u_rho, prec, _RND)
            raise NumericError("inverse oracle: Newton failed to settle")

        return bracket

    off = mpf_mul(from_float(m.terms[0][0]), rho, _PREC, _RND)
    return _peel(bracket_at, off, off)


# ---------------------------------------------------------------------------
# Case generation


def _amplitude(rng: Random) -> tuple[float, float]:
    a = rng.uniform(0.5, 2.0)
    c = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.5) * a
    return a, c


def _tie_parts(m1: DulacExpansion, m2: DulacExpansion) -> tuple[float, float]:
    p1 = m2.ratio * m1.leading ** (m2.ratio - 1.0) * m2.leading * m1.terms[0][1]
    p2 = m1.leading ** (m2.ratio + m2.terms[0][0]) * m2.terms[0][1]
    return p1, p2


def _draw_compose(rng: Random, case: str) -> tuple[DulacExpansion, DulacExpansion]:
    for _ in range(200):
        a1, c1 = _amplitude(rng)
        a2, c2 = _amplitude(rng)
        if case == "above-above":
            n1, n2 = rng.uniform(*_ABOVE), rng.uniform(*_ABOVE)
            o1, o2 = 1.0, 1.0
            # candidate offsets 1 and n1 are separated since n1 >= 1.25
        elif case == "below-below":
            n1, n2 = rng.uniform(*_BELOW), rng.uniform(*_BELOW)
            o1, o2 = n1, n2
            if abs(o1 - n1 * o2) < MIN_GAP:
                continue
        elif case == "below-above":
            n1, n2 = rng.uniform(*_BELOW), rng.uniform(*_ABOVE)
            o1, o2 = n1, 1.0  # exact resonance: n1*o2 == o1
        elif case == "above-below":
            n1, n2 = rng.uniform(*_ABOVE), rng.uniform(*_BELOW)
            o1, o2 = 1.0, n2
            if abs(n1 * o2 - 1.0) < MIN_GAP:
                continue
        elif case == "resonant":
            n1 = rng.uniform(*_ABOVE) if rng.random() < 0.5 else rng.uniform(*_BELOW)
            n2 = rng.uniform(*_ABOVE) if rng.random() < 0.5 else rng.uniform(*_BELOW)
            o1 = rng.uniform(0.3, 1.5)
            o2 = o1 / n1
        else:
            raise ValueError(f"unknown compose case {case!r}")
        m1 = _exact(n1, a1, o1, c1)
        m2 = _exact(n2, a2, o2, c2)
        if case in ("below-above", "resonant"):
            p1, p2 = _tie_parts(m1, m2)
            if abs(p1 + p2) < 0.05 * (abs(p1) + abs(p2)):
                continue  # near-cancelling resonant sum, redraw
        return m1, m2
    raise NumericError(f"case {case!r}: no admissible draw in 200 attempts")


def _draw_inverse(rng: Random, case: str) -> DulacExpansion:
    a, c = _amplitude(rng)
    if case == "inverse-above":
        return _exact(rng.uniform(*_ABOVE), a, 1.0, c)
    if case == "inverse-below":
        n = rng.uniform(*_BELOW)
        return _exact(n, a, n, c)
    raise ValueError(f"unknown inverse case {case!r}")


# ---------------------------------------------------------------------------
# Driver


@dataclass(frozen=True)
class CaseReport:
    case: str
    trials: int
    max_leading_dev: float
    max_second_dev: float
    max_offset_dev: float


@dataclass(frozen=True)
class CheckReport:
    seed: int
    count: int
    bias: float
    cases: tuple[CaseReport, ...]

    @property
    def worst_leading(self) -> float:
        return _worst(c.max_leading_dev for c in self.cases)

    @property
    def worst_second(self) -> float:
        return _worst(c.max_second_dev for c in self.cases)

    def passed(self) -> bool:
        return self.worst_leading <= LEADING_TOL and self.worst_second <= SECOND_TOL


def _worst(devs: Iterable[float]) -> float:
    """The largest deviation; a NaN, which fails the check, outranks every number."""
    return max(devs, key=lambda v: (math.isnan(v), v), default=0.0)


def _deviations(formula: DulacExpansion, oracle: tuple[float, float, float],
                case: str, bias: float) -> tuple[float, float, float]:
    """Relative leading and second-coefficient deviations, and the offset's
    absolute deviation, of the closed form from the oracle."""
    lead_o, sec_o, off_o = oracle
    if formula.comp is not None:
        raise NumericError(f"case {case!r}: unexpected compensator term")
    ((off_f, sec_f),) = formula.terms
    lead_f, sec_f = formula.leading * (1.0 + bias), sec_f * (1.0 + bias)
    return (abs(lead_f - lead_o) / abs(lead_o), abs(sec_f - sec_o) / abs(sec_o),
            abs(off_f - off_o))


def run_compose_check(seed: int, count: int, bias: float = 0.0) -> CheckReport:
    """Compare closed-form composition against the pointwise oracle.

    Each case draws ``count`` trials from its own stream
    ``Random(f"{seed}:{case}")``, compose cases first.  ``bias`` is a test
    hook: a nonzero value perturbs the closed-form coefficients before
    comparison, so a healthy check must report deviations of that size.
    Production runs leave it at zero.
    """
    reports = []
    for case in COMPOSE_CASES + INVERSE_CASES:
        rng = Random(f"{seed}:{case}")
        devs = []
        for _ in range(count):
            if case in COMPOSE_CASES:
                m1, m2 = _draw_compose(rng, case)
                formula, oracle = compose_pair(m1, m2), oracle_compose(m1, m2)
            else:
                m = _draw_inverse(rng, case)
                formula, oracle = inverse_dulac(m), oracle_inverse(m)
            devs.append(_deviations(formula, oracle, case, bias))
        if devs:
            lead, second, offset = (_worst(col) for col in zip(*devs))
            reports.append(CaseReport(case=case, trials=count, max_leading_dev=lead,
                                      max_second_dev=second, max_offset_dev=offset))
    return CheckReport(seed=seed, count=count, bias=bias, cases=tuple(reports))
