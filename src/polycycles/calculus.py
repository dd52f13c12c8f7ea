"""Algebra of Dulac-type expansions along a polycycle.

A corner map is s^ratio(leading + c s^omega + remainder); this module
composes such maps, inverts them, and assembles the two-term expansion of
the full return map and of the displacement function from per-corner data.
Only maps with a plain second term compose or invert: a factor truncated
to leading order, or one whose second term is a compensator, is refused.
When two second-order candidates meet, one rule (``_collide``) keeps the
bookkeeping: distinct exponents keep the smaller one, bit-equal exponents
add their coefficients (resonance), and exponents that agree only to
within a dead band are kept jointly through a compensator term, the
scale-correct stand-in for the logarithm that appears at the resonance
itself.  Ratios and coefficients may be complex (a complex step); every
comparison, and the remainder interval ``ell``, is taken on real parts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegeneracyError, UnsupportedGeometryError
from .saddle import DulacExpansion

EXPONENT_TIE_REL = 1e-15   # bit-equal collision threshold (resonant sum)
EXPONENT_DEAD_BAND = 1e-9  # near-collision threshold (compensator form)


def compensator(s: float, alpha: float) -> float:
    """omega(s; alpha) = (s^-alpha - 1)/alpha, continued by -ln s at alpha=0.

    Evaluated as expm1(-alpha ln s)/alpha, which is uniformly accurate for
    small alpha; requires s > 0.
    """
    if s <= 0.0:
        raise ValueError("compensator requires s > 0")
    ls = math.log(s)
    if alpha == 0.0:
        return -ls
    return math.expm1(-alpha * ls) / alpha


@dataclass(frozen=True)
class CompensatorTerm:
    """Joint second-order term (plain + wrapped*(1 + alpha*omega(s; alpha))) * s^exponent.

    Exactly equal to plain*s^exponent + wrapped*s^(exponent - alpha); used
    when those two exponents are too close to order reliably.
    """

    exponent: float
    alpha: float
    plain: float
    wrapped: float

    def coefficient(self, s: float) -> float:
        return self.plain + self.wrapped * (1.0 + self.alpha * compensator(s, self.alpha))

    def value(self, s: float) -> float:
        return self.coefficient(s) * s**self.exponent


# ---------------------------------------------------------------------------
# Iterated products over a corner chain (1-based corner indices)


def lambda_product(lams: Sequence[float], i: int, k: int) -> float:
    """Product of the hyperbolicity ratios with index i+1 through k."""
    if not 0 <= i <= k <= len(lams):
        raise ValueError(f"need 0 <= i <= k <= {len(lams)}, got i={i}, k={k}")
    out = 1.0
    for lam in lams[i:k]:
        out *= lam
    return out


def a_product(lams: Sequence[float], d00s: Sequence[float], j: int, k: int) -> float:
    """Leading coefficient of the chain D_k o ... o D_j: prod_i D00_i^(Lam_{i,k})."""
    if not 1 <= j <= k + 1 or k > len(lams):
        raise ValueError(f"need 1 <= j <= k+1 <= {len(lams) + 1}, got j={j}, k={k}")
    out = 1.0
    for i in range(j, k + 1):
        out *= d00s[i - 1] ** lambda_product(lams, i, k)
    return out


def a_star(lams: Sequence[float], d00s: Sequence[float], j: int, k: int) -> float:
    """Leading coefficient of the inverse chain (D_k o ... o D_j)^(-1)."""
    if not 1 <= j <= k + 1 or k > len(lams):
        raise ValueError(f"need 1 <= j <= k+1 <= {len(lams) + 1}, got j={j}, k={k}")
    out = 1.0
    for l in range(j, k + 1):
        out *= d00s[l - 1] ** (-1.0 / lambda_product(lams, j - 1, l))
    return out


# ---------------------------------------------------------------------------
# Composition and inversion


def _merge_ell(hi_candidates: Sequence[float], lo: float) -> tuple[float, float]:
    his = [h.real for h in hi_candidates if h is not None and math.isfinite(h.real)]
    hi = min(his) if his else lo.real
    return (lo.real, max(hi, lo.real))


def _collide(cand1: tuple, cand2: tuple,
             ) -> tuple[float, float | None, CompensatorTerm | None, float | None]:
    """Merge two second-order candidates (exponent, coefficient).

    Returns (exponent, coefficient, compensator, beaten).  Distinct
    exponents keep the smaller one and pass the larger back as ``beaten``,
    a remainder bound; bit-equal exponents add their coefficients; exponents
    inside the dead band give a compensator term and no plain coefficient.
    """
    (e_lo, c_lo), (e_hi, c_hi) = sorted([cand1, cand2], key=lambda t: t[0].real)
    gap = (e_hi - e_lo).real
    scale = max(1.0, abs(e_lo.real))
    if gap <= EXPONENT_TIE_REL * scale:
        return e_lo, c_lo + c_hi, None, None
    if gap <= EXPONENT_DEAD_BAND * scale:
        return e_lo, None, CompensatorTerm(exponent=e_lo, alpha=e_lo - e_hi,
                                           plain=c_lo, wrapped=c_hi), None
    return e_lo, c_lo, None, e_hi


def compose_pair(d1: DulacExpansion, d2: DulacExpansion) -> DulacExpansion:
    """Two-term expansion of d2 o d1.

    Second-order candidates arrive from each factor and meet by
    ``_collide``.  Both factors need a plain second term.  The remainder
    interval is combined conservatively by min/max rules.
    """
    if d1.next_coeff is None or d2.next_coeff is None:
        raise ValueError("compensator-form or truncated factors cannot be composed further; "
                         "assemble return maps from corner data instead")
    nu1, a1 = d1.ratio, d1.leading
    nu2, a2 = d2.ratio, d2.leading
    w1, c1 = d1.next_exponent, d1.next_coeff
    w2, c2 = d2.next_exponent, d2.next_coeff
    exponent, coeff, comp, beaten = _collide((w1, nu2 * a1 ** (nu2 - 1.0) * a2 * c1),
                                             (nu1 * w2, a1 ** (nu2 + w2) * c2))
    # remainder candidates beyond the kept second-order terms
    hi_bounds = [d1.ell[1], nu1 * d2.ell[1], 2.0 * w1, w1 + nu1 * w2, beaten]
    return DulacExpansion(ratio=nu1 * nu2, leading=a1**nu2 * a2,
                          next_exponent=exponent, next_coeff=coeff, comp=comp,
                          ell=_merge_ell(hi_bounds, exponent),
                          notes=tuple(dict.fromkeys(d1.notes + d2.notes)))


def compose_chain(ds: Sequence[DulacExpansion]) -> DulacExpansion:
    """Left-to-right fold of compose_pair over a corner chain."""
    if not ds:
        raise ValueError("empty chain")
    out = ds[0]
    for d in ds[1:]:
        out = compose_pair(out, d)
    return out


def inverse_dulac(d: DulacExpansion) -> DulacExpansion:
    """Two-term expansion of the inverse map.

    Ratio 1/ratio, leading^(-1/ratio); the second-order offset divides by
    the ratio and its coefficient picks up the standard chain-rule factor.
    The map needs a plain second term.
    """
    if d.next_coeff is None:
        raise ValueError("compensator-form or truncated expansions cannot be inverted")
    rho = 1.0 / d.ratio
    w = d.next_exponent * rho
    coeff = -rho * d.next_coeff * d.leading ** -(1.0 + rho + w)
    return DulacExpansion(ratio=rho, leading=d.leading ** (-rho),
                          next_exponent=w, next_coeff=coeff,
                          ell=(d.ell[0] * rho.real, d.ell[1] * rho.real), notes=d.notes)


# ---------------------------------------------------------------------------
# Return map of a corner chain


@dataclass(frozen=True)
class ReturnExpansion:
    """Two-term data of the full return map s^ratio(leading + second + ...).

    ``kind`` names the closed form that produced the second term: "A" for
    the resonant below-then-above collision, "B" for the expanding-block
    coefficient at offset 1, "C" for the contracting-block coefficient at
    offset ratio, "compensator" when B and C compete at ratio near 1, and
    "fold" when the pattern required the generic composition fallback.
    """

    pattern: str
    ratio: float
    leading: float
    kind: str | None = None
    second_exponent: float | None = None
    second_coeff: float | None = None
    comp: CompensatorTerm | None = None
    ell: tuple[float, float] = (0.0, 1.0)
    split: int | None = None
    second_scale: float = 1.0
    notes: tuple[str, ...] = ()

    def second_value(self, s: float) -> float:
        if self.comp is not None:
            return self.comp.value(s)
        if self.second_coeff is None:
            return 0.0
        return self.second_coeff * s**self.second_exponent

    def evaluate(self, s: float) -> float:
        return s**self.ratio * (self.leading + self.second_value(s))


def _pattern_of(cases: Sequence[str]) -> tuple[str, int | None]:
    """Classify the above/below arrangement; split is the block boundary."""
    if any(c == "at-one" for c in cases):
        return "degenerate", None
    marks = ["+" if c == "above-one" else "-" for c in cases]
    n = len(marks)
    if all(m == "+" for m in marks):
        return "above-block", n
    if all(m == "-" for m in marks):
        return "below-block", 0
    first_plus = marks.index("+")
    first_minus = marks.index("-")
    if first_minus == 0 and marks[first_plus:].count("-") == 0:
        return "below-then-above", first_plus
    if first_plus == 0 and marks[first_minus:].count("+") == 0:
        return "above-then-below", first_minus
    return "interleaved", None


def return_expansion(ds: Sequence[DulacExpansion]) -> ReturnExpansion:
    """Assemble the return-map expansion of a corner chain.

    Block patterns get their principal second-order coefficient in closed
    form from the corner data; an arrangement with several sign changes
    falls back to the composition fold.  Every pattern takes its remainder
    interval from the fold when the fold can be built.  A chain containing
    a resonant corner is truncated to leading order without one.
    """
    if not ds:
        raise ValueError("empty corner chain")
    n = len(ds)
    lams = [d.ratio for d in ds]
    d00s = [d.leading for d in ds]
    r = lambda_product(lams, 0, n)
    leading = a_product(lams, d00s, 1, n)
    pattern, split = _pattern_of([d.case for d in ds])
    notes: tuple[str, ...] = tuple(dict.fromkeys(sum((d.notes for d in ds), ())))
    fold = kind = exponent = coeff = comp = None
    scale, ell = 1.0, (0.0, min(lambda_product(lams, i, n).real for i in range(n + 1)))
    if pattern == "degenerate":
        notes = notes + ("resonant corner present: return map truncated to leading order",)
    else:
        try:
            fold = compose_chain(ds)
            ell = fold.ell
        except ValueError:
            pass

    if pattern == "above-block":
        kind, exponent, coeff, scale = "B", 1.0, r * leading * ds[0].s1, abs(r * leading)
    elif pattern == "below-block":
        kind, exponent, coeff, scale = "C", r, -(leading**2) * ds[-1].s2, leading**2
    elif pattern == "below-then-above":
        prefactor = lambda_product(lams, split, n) * a_product(lams, d00s, 1, split) * leading
        kind, exponent, scale = "A", lambda_product(lams, 0, split), abs(prefactor)
        coeff = prefactor * (ds[split].s1 - ds[split - 1].s2)
    elif pattern == "above-then-below":
        exponent, coeff, comp, beaten = _collide((1.0, r * leading * ds[0].s1),
                                                 (r, -(leading**2) * ds[-1].s2))
        if beaten is None:  # both terms kept: a tie, or a compensator in the dead band
            scale = max(abs(r * leading), abs(leading**2))
            # r may be 1 +- an ulp, so a tie is reported at exactly 1
            kind, exponent = ("A", 1.0) if comp is None else ("compensator", None)
        elif r.real > 1.0:
            kind, scale = "B", abs(r * leading)
        else:
            kind, scale = "C", leading**2
    elif pattern == "interleaved" and fold is None:
        ell = (0.0, 0.0)
        notes = notes + ("near-resonant internal collision: leading order only",)
    elif pattern == "interleaved":
        kind, exponent, coeff, comp = "fold", fold.next_exponent, fold.next_coeff, fold.comp
        notes = notes + ("interleaved pattern: second term from generic composition",)
    return ReturnExpansion(pattern=pattern, ratio=r, leading=leading, kind=kind,
                           second_exponent=exponent, second_coeff=coeff, comp=comp,
                           ell=ell, split=split, second_scale=scale, notes=notes)


# ---------------------------------------------------------------------------
# Displacement function of a two-block chain


@dataclass(frozen=True)
class DisplacementExpansion:
    """Two-term comparison of the expanding block against the inverted
    contracting block, on the section where the blocks meet.

    psi1 = alpha * A_{1,m} vanishes iff the block exponents balance;
    psi2 is the difference of the block leading coefficients; psi3 the
    difference of their second-order coefficients.  ``rotation`` records
    the cyclic shift applied so the expanding block leads.
    """

    rotation: int
    split: int
    alpha: float
    exponents: tuple[float, float]
    psi1: float
    psi2: float
    psi3: float | None
    scale: float = 1.0
    ell: tuple[float, float] = (0.0, 1.0)
    notes: tuple[str, ...] = ()


def displacement_expansion(ds: Sequence[DulacExpansion]) -> DisplacementExpansion:
    """Assemble the displacement data of a chain that splits, possibly after
    a cyclic rotation, into an expanding block followed by a contracting one.
    """
    if not ds:
        raise ValueError("empty corner chain")
    n = len(ds)
    cases = [d.case for d in ds]
    if any(c == "at-one" for c in cases):
        raise DegeneracyError("resonant corner: displacement expansion unavailable")

    rotation = None
    for k in range(n):
        rot = cases[k:] + cases[:k]
        pattern, split = _pattern_of(rot)
        if pattern in ("above-block", "above-then-below"):
            rotation, m = k, split
            break
        if pattern == "below-block":
            rotation, m = k, 0
            break
    if rotation is None:
        raise UnsupportedGeometryError(
            "no rotation arranges the corners as an expanding block followed "
            "by a contracting block")

    rds = list(ds[rotation:]) + list(ds[:rotation])
    lams = [d.ratio for d in rds]
    d00s = [d.leading for d in rds]
    lam_0m = lambda_product(lams, 0, m)
    lam_mn = lambda_product(lams, m, n)
    alpha = 1.0 / lam_mn - lam_0m
    a_1m = a_product(lams, d00s, 1, m)
    astar = a_star(lams, d00s, m + 1, n)
    psi1 = alpha * a_1m
    psi2 = a_1m - astar
    term1 = lam_0m * rds[0].s1 if m >= 1 else 0.0
    term2 = (1.0 / lam_mn) * rds[-1].s2 if m <= n - 1 else 0.0
    psi3 = astar * (term1 - term2)
    scale = max(abs(a_1m), abs(astar))
    r = lam_0m * lam_mn
    if abs(r.real - 1.0) <= EXPONENT_DEAD_BAND:
        his = [2.0]
        if m >= 1:
            his.append(lams[0].real)
        if m <= n - 1:
            his.append((1.0 / lams[-1]).real)
        ell = (1.0, min(his))
    else:
        e_in, e_out = lam_0m.real, (1.0 / lam_mn).real
        ell = (max(e_in, e_out), min(e_in, e_out) + 1.0)
    notes = ()
    if rotation:
        notes = (f"corner list rotated by {rotation} so the expanding block leads",)
    return DisplacementExpansion(rotation=rotation, split=m, alpha=alpha,
                                 exponents=(lam_0m, 1.0 / lam_mn),
                                 psi1=psi1, psi2=psi2, psi3=psi3,
                                 scale=scale, ell=ell, notes=notes)
