"""Randomized cross-validation of the composition calculus.

The closed-form rules for composing and inverting two-term maps are
checked against an oracle that knows nothing about the coefficient
algebra: each trial builds exact maps s^nu * (a + c*s^omega), composes
(or inverts) them pointwise in high-precision arithmetic, and peels the
leading and second-order coefficients off the composite by finite
differencing at geometrically deep sample points.

Sampling depth and working precision are chosen per case so that every
contamination term (higher lattice orders, cancellation in the
differences) sits far below the comparison tolerances.  The draw is
margin-enforced: exponent collisions either land exactly on a resonance
or stay separated by at least MIN_GAP, so no trial falls into the dead
band between the tie and generic branches of the composition rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterator

import mpmath as mp

from .calculus import compose_pair, inverse_dulac
from .errors import NumericError
from .saddle import DulacExpansion, classify_ratio

__all__ = [
    "COMPOSE_CASES",
    "INVERSE_CASES",
    "TwoTermMap",
    "TrialResult",
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
# Working precision. The deepest case cancels ~70 digits in the
# differences; 140 leaves the same margin again.
ORACLE_DPS = 140

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


@dataclass(frozen=True)
class TwoTermMap:
    """Exact map s -> s**power * (leading + coeff * s**offset), s > 0."""

    power: float
    leading: float
    offset: float
    coeff: float

    def expansion(self) -> DulacExpansion:
        """Package as expansion data for the closed-form calculus.

        The map is exact, so the remainder interval is empty: anything
        past the explicit second term is genuinely absent.
        """
        return DulacExpansion(
            ratio=self.power,
            leading=self.leading,
            case=classify_ratio(self.power),
            next_exponent=self.offset,
            next_coeff=self.coeff,
            ell=(self.offset, math.inf),
        )

    def mp_fun(self) -> Callable[[mp.mpf], mp.mpf]:
        p, a = mp.mpf(self.power), mp.mpf(self.leading)
        w, c = mp.mpf(self.offset), mp.mpf(self.coeff)
        return lambda x: x**p * (a + c * x**w)

    def mp_derivative(self) -> Callable[[mp.mpf], mp.mpf]:
        p, a = mp.mpf(self.power), mp.mpf(self.leading)
        w, c = mp.mpf(self.offset), mp.mpf(self.coeff)
        return lambda x: p * x ** (p - 1) * (a + c * x**w) + c * w * x ** (p + w - 1)


# ---------------------------------------------------------------------------
# Coefficient peeling


def _second_offset(points: list[mp.mpf]) -> tuple[mp.mpf, mp.mpf]:
    """Smallest lattice offset and the gap to the next distinct one.

    Points closer than 1e-9 are merged; the generator only produces
    collisions that are exact up to representation error, so the merge
    cannot swallow a genuinely separate term.
    """
    pts = sorted(points)
    merged = [pts[0]]
    for p in pts[1:]:
        if p - merged[-1] > mp.mpf("1e-9"):
            merged.append(p)
    if len(merged) < 2:
        raise NumericError("offset lattice degenerate: no second point")
    return merged[0], merged[1] - merged[0]


def _peel(bracket: Callable[[mp.mpf], mp.mpf], off: mp.mpf,
          gap: mp.mpf) -> tuple[float, float, float]:
    """Leading and second coefficients of bracket(x) = L + S*x**off + ...

    Three samples at x0, x0/2, x0/4 with x0 = 2**-k.  The depth k puts
    PEEL_BITS of damping on the first neglected term, so the finite
    differences isolate S (and through them L) to well below 1e-12
    relative, and the differenced slope recovers off itself as a
    consistency reading.
    """
    k = int(mp.ceil(PEEL_BITS / gap))
    x0 = mp.mpf(2) ** (-k)
    b0 = bracket(x0)
    b1 = bracket(x0 / 2)
    b2 = bracket(x0 / 4)
    d1, d2 = b1 - b0, b2 - b1
    if d1 == 0 or d2 == 0 or mp.sign(d1) != mp.sign(d2):
        raise NumericError("peel differences degenerate or sign-flipping")
    off_est = -mp.log(d2 / d1) / mp.log(2)
    q = mp.mpf(2) ** (-off)
    second = d1 / (x0**off * (q - 1))
    lead = b0 - second * x0**off
    return float(lead), float(second), float(off_est)


def oracle_compose(m1: TwoTermMap, m2: TwoTermMap) -> tuple[float, float, float]:
    """(leading, second coefficient, second offset) of m2 after m1.

    Pointwise evaluation only; the lattice {i*offset1 + j*power1*offset2}
    fixes where to look, never what the coefficients are.
    """
    f1, f2 = m1.mp_fun(), m2.mp_fun()
    total = mp.mpf(m1.power) * mp.mpf(m2.power)
    o1 = mp.mpf(m1.offset)
    o2 = mp.mpf(m1.power) * mp.mpf(m2.offset)
    points = [i * o1 + j * o2 for i in range(5) for j in range(5) if i + j > 0]
    off, gap = _second_offset(points)
    lead, second, off_est = _peel(lambda x: f2(f1(x)) / x**total, off, gap)
    return lead, second, off_est


def oracle_inverse(m: TwoTermMap) -> tuple[float, float, float]:
    """(leading, second coefficient, second offset) of the inverse map.

    The inverse is evaluated by Newton iteration on f(x) = u, seeded
    with the leading-order guess; quadratic convergence reaches working
    precision in a handful of steps.
    """
    f, fp = m.mp_fun(), m.mp_derivative()
    rho = 1 / mp.mpf(m.power)
    seed = mp.mpf(m.leading) ** (-rho)
    tol = mp.mpf(10) ** (6 - mp.mp.dps)

    def invert(u: mp.mpf) -> mp.mpf:
        x = seed * u**rho
        for _ in range(80):
            step = (f(x) - u) / fp(x)
            x -= step
            if abs(step) <= abs(x) * tol:
                return x
        raise NumericError("inverse oracle: Newton failed to settle")

    off = mp.mpf(m.offset) * rho
    lead, second, off_est = _peel(lambda u: invert(u) / u**rho, off, off)
    return lead, second, off_est


# ---------------------------------------------------------------------------
# Case generation


def _amplitude(rng: Random) -> tuple[float, float]:
    a = rng.uniform(0.5, 2.0)
    c = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.5) * a
    return a, c


def _tie_parts(m1: TwoTermMap, m2: TwoTermMap) -> tuple[float, float]:
    p1 = m2.power * m1.leading ** (m2.power - 1.0) * m2.leading * m1.coeff
    p2 = m1.leading ** (m2.power + m2.offset) * m2.coeff
    return p1, p2


def _draw_compose(rng: Random, case: str) -> tuple[TwoTermMap, TwoTermMap]:
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
        m1 = TwoTermMap(n1, a1, o1, c1)
        m2 = TwoTermMap(n2, a2, o2, c2)
        if case in ("below-above", "resonant"):
            p1, p2 = _tie_parts(m1, m2)
            if abs(p1 + p2) < 0.05 * (abs(p1) + abs(p2)):
                continue  # near-cancelling resonant sum, redraw
        return m1, m2
    raise NumericError(f"case {case!r}: no admissible draw in 200 attempts")


def _draw_inverse(rng: Random, case: str) -> TwoTermMap:
    a, c = _amplitude(rng)
    if case == "inverse-above":
        return TwoTermMap(rng.uniform(*_ABOVE), a, 1.0, c)
    if case == "inverse-below":
        n = rng.uniform(*_BELOW)
        return TwoTermMap(n, a, n, c)
    raise ValueError(f"unknown inverse case {case!r}")


# ---------------------------------------------------------------------------
# Driver


@dataclass(frozen=True)
class TrialResult:
    case: str
    leading_dev: float
    second_dev: float
    offset_dev: float


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
        return max((c.max_leading_dev for c in self.cases), default=0.0)

    @property
    def worst_second(self) -> float:
        return max((c.max_second_dev for c in self.cases), default=0.0)

    def passed(self, leading_tol: float = 1e-10, second_tol: float = 1e-8) -> bool:
        return self.worst_leading <= leading_tol and self.worst_second <= second_tol


def _compare(formula: DulacExpansion, oracle: tuple[float, float, float],
             case: str, bias: float) -> TrialResult:
    lead_o, sec_o, off_o = oracle
    if formula.comp is not None:
        raise NumericError(f"case {case!r}: unexpected compensator term")
    if formula.next_coeff is None:
        raise NumericError(f"case {case!r}: formula truncated to leading order")
    lead_f = formula.leading * (1.0 + bias)
    sec_f = formula.next_coeff * (1.0 + bias)
    return TrialResult(
        case=case,
        leading_dev=abs(lead_f - lead_o) / abs(lead_o),
        second_dev=abs(sec_f - sec_o) / abs(sec_o),
        offset_dev=abs(formula.next_exponent - off_o),
    )


def iter_trials(seed: int, count: int, bias: float = 0.0) -> Iterator[TrialResult]:
    """Yield one comparison per (case, trial) pair, compose cases first."""
    with mp.workdps(ORACLE_DPS):
        for case in COMPOSE_CASES:
            rng = Random(f"{seed}:{case}")
            for _ in range(count):
                m1, m2 = _draw_compose(rng, case)
                formula = compose_pair(m1.expansion(), m2.expansion())
                yield _compare(formula, oracle_compose(m1, m2), case, bias)
        for case in INVERSE_CASES:
            rng = Random(f"{seed}:{case}")
            for _ in range(count):
                m = _draw_inverse(rng, case)
                formula = inverse_dulac(m.expansion())
                yield _compare(formula, oracle_inverse(m), case, bias)


def run_compose_check(seed: int, count: int, bias: float = 0.0) -> CheckReport:
    """Compare closed-form composition against the pointwise oracle.

    ``bias`` is a test hook: a nonzero value perturbs the closed-form
    coefficients before comparison, so a healthy check must report
    deviations of that size.  Production runs leave it at zero.
    """
    buckets: dict[str, list[TrialResult]] = {}
    for trial in iter_trials(seed, count, bias):
        buckets.setdefault(trial.case, []).append(trial)
    reports = tuple(
        CaseReport(
            case=case,
            trials=len(trials),
            max_leading_dev=max(t.leading_dev for t in trials),
            max_second_dev=max(t.second_dev for t in trials),
            max_offset_dev=max(t.offset_dev for t in trials),
        )
        for case, trials in buckets.items()
    )
    return CheckReport(seed=seed, count=count, bias=bias, cases=reports)
