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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable

import mpmath as mp

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


def _mp_terms(d: DulacExpansion) -> tuple[mp.mpf, mp.mpf, mp.mpf, mp.mpf]:
    """(ratio, leading, offset, coefficient) of ``d`` as exact mpfs."""
    ((offset, coeff),) = d.terms
    return mp.mpf(d.ratio), mp.mpf(d.leading), mp.mpf(offset), mp.mpf(coeff)


def _mp_map(d: DulacExpansion) -> Callable[[mp.mpf], tuple[mp.mpf, mp.mpf]]:
    """x -> (f(x), f'(x)) for the exact map f of ``d``, at the working precision.

    With f(x) = x**p * (a + c*x**w), f'(x) = x**p * (p*a + (p + w)*c*x**w) / x:
    one logarithm and two exponentials give both.
    """
    p, a, w, c = _mp_terms(d)
    pa, pw = p * a, p + w

    def value_and_slope(x: mp.mpf) -> tuple[mp.mpf, mp.mpf]:
        lx = mp.log(x)
        xp, cxw = mp.exp(p * lx), c * mp.exp(w * lx)
        return xp * (a + cxw), xp * (pa + pw * cxw) / x

    return value_and_slope


# ---------------------------------------------------------------------------
# Coefficient peeling


def _second_offset(o1: mp.mpf, o2: mp.mpf) -> tuple[mp.mpf, mp.mpf]:
    """Smallest point lo of the lattice {i*o1 + j*o2 : i + j > 0} and the gap
    to the next distinct one, min(hi, 2*lo), or 2*lo when hi is within 1e-9.

    Points that close are merged; the generator only produces collisions
    that are exact up to representation error, so the merge cannot swallow
    a genuinely separate term.  Its offsets all exceed 0.1, clear of the
    merge width that lo itself must stand above.
    """
    lo, hi = (o1, o2) if o1 <= o2 else (o2, o1)
    merge_below = mp.mpf("1e-9")  # parsed once, at the working precision
    if lo <= merge_below:
        raise NumericError("offset lattice degenerate: no second point")
    if hi - lo > merge_below and hi < 2 * lo:
        return lo, hi - lo
    return lo, lo


def _peel_dps(off: float, k: int) -> int:
    """Working precision of a peel at depth 2**-k on the offset ``off``.

    The differences of three samples down to 2**-(k+2) cancel about
    off*(k+2)*log10(2) digits.  Twice that plus 10, and never below 40,
    leaves as many digits again, and 10 more, beyond the cancellation.
    """
    lost = off * (k + 2) * math.log10(2)
    return max(40, math.ceil(2 * lost + 10))


def _peel(bracket: Callable[[mp.mpf], mp.mpf], off: mp.mpf,
          gap: mp.mpf) -> tuple[float, float, float]:
    """Leading and second coefficients of bracket(x) = L + S*x**off + ...

    Three samples at x0, x0/2, x0/4 with x0 = 2**-k.  The depth k puts
    PEEL_BITS of damping on the first neglected term, so the finite
    differences isolate S (and through them L) to well below 1e-12
    relative, and the differenced slope recovers off itself as a
    consistency reading.  The samples and differences run at
    ``_peel_dps``, the precision this depth needs.
    """
    k = int(mp.ceil(PEEL_BITS / gap))
    with mp.workdps(_peel_dps(float(off), k)):
        x0 = mp.mpf(2) ** (-k)
        b0 = bracket(x0)
        b1 = bracket(x0 / 2)
        b2 = bracket(x0 / 4)
        d1, d2 = b1 - b0, b2 - b1
        if d1 == 0 or d2 == 0 or mp.sign(d1) != mp.sign(d2):
            raise NumericError("peel differences degenerate or sign-flipping")
        off_est = -mp.log(d2 / d1) / mp.ln2
        t = off * mp.ln2  # 2**-off = exp(-t), x0**off = exp(-k*t)
        x0_off = mp.exp(-k * t)
        second = d1 / (x0_off * (mp.exp(-t) - 1))
        lead = b0 - second * x0_off
        return float(lead), float(second), float(off_est)


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

    def bracket(x: mp.mpf) -> mp.mpf:
        lx = mp.log(x)
        lg = mp.log(a1 + c1 * mp.exp(w1 * lx))
        return mp.exp(p2 * lg) * (a2 + c2 * mp.exp(w2 * (p1 * lx + lg)))

    off, gap = _second_offset(w1, p1 * w2)
    return _peel(bracket, off, gap)


def oracle_inverse(m: DulacExpansion) -> tuple[float, float, float]:
    """(leading, second coefficient, second offset) of the inverse map.

    The inverse is evaluated by Newton iteration on f(x) = u, seeded
    with the leading-order guess.  Convergence is quadratic, so once a
    relative step is below 10**((6 - dps)/2) the next one would be below
    10**(6 - dps): Newton stops there, without an evaluation that would
    only confirm it.
    """
    f = _mp_map(m)
    rho = 1 / mp.mpf(m.ratio)
    seed = mp.mpf(m.leading) ** (-rho)

    def bracket(u: mp.mpf) -> mp.mpf:
        tol = mp.mpf(10) ** (mp.mpf(6 - mp.mp.dps) / 2)  # dps: what the peel set
        u_rho = mp.exp(rho * mp.log(u))
        x = seed * u_rho
        for _ in range(80):
            value, slope = f(x)
            step = (value - u) / slope
            x -= step
            if abs(step) <= abs(x) * tol:
                return x / u_rho
        raise NumericError("inverse oracle: Newton failed to settle")

    off = mp.mpf(m.terms[0][0]) * rho
    return _peel(bracket, off, off)


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
    with mp.workdps(ORACLE_DPS):
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
