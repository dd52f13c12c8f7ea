"""Algebra of Dulac-type expansions along a polycycle.

A corner map is s^ratio(leading + c s^omega + remainder), held in a
``DulacExpansion``; the saddle module fills one per corner, and this
module composes such maps and inverts them.  The two-term expansions of
the full return map and of the displacement function are assembled by one
composition fold over the corners, for every arrangement of expanding and
contracting corners; the arrangement only labels the result.  A factor
truncated to leading order does not compose, and a compensator-form one
only as the first factor, when the second factor's term lands clearly
below it.  When two second-order candidates meet, one rule (``_collide``)
keeps the bookkeeping: distinct exponents keep the smaller one, bit-equal
exponents add their coefficients (resonance), and exponents that agree
only to within a dead band are kept jointly through a compensator term,
the scale-correct stand-in for the logarithm that appears at the
resonance itself.  Ratios and coefficients may be complex (a complex
step); every comparison, and the remainder interval ``ell``, is taken on
real parts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegeneracyError, NumericError, UnsupportedGeometryError

AT_ONE_BAND = 1e-9         # case-tag dead band around ratio 1
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
    comp: CompensatorTerm | None = None
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


# ---------------------------------------------------------------------------
# Composition and inversion


def _merge_ell(hi_candidates: Sequence[float], lo: float) -> tuple[float, float]:
    his = [h.real for h in hi_candidates if h is not None and math.isfinite(h.real)]
    hi = min(his) if his else lo.real
    return (lo.real, max(hi, lo.real))


def _clear_below(e_lo: float, e_hi: float) -> bool:
    """True when e_lo lies below e_hi by more than the dead band."""
    return (e_hi - e_lo).real > EXPONENT_DEAD_BAND * max(1.0, abs(e_lo.real))


def _collide(cand1: tuple, cand2: tuple,
             ) -> tuple[float, float | None, CompensatorTerm | None, float | None]:
    """Merge two second-order candidates (exponent, coefficient).

    Returns (exponent, coefficient, compensator, beaten).  Distinct
    exponents keep the smaller one and pass the larger back as ``beaten``,
    a remainder bound; bit-equal exponents add their coefficients; exponents
    inside the dead band give a compensator term and no plain coefficient.
    """
    (e_lo, c_lo), (e_hi, c_hi) = sorted([cand1, cand2], key=lambda t: t[0].real)
    if _clear_below(e_lo, e_hi):
        return e_lo, c_lo, None, e_hi
    if (e_hi - e_lo).real <= EXPONENT_TIE_REL * max(1.0, abs(e_lo.real)):
        return e_lo, c_lo + c_hi, None, None
    return e_lo, None, CompensatorTerm(exponent=e_lo, alpha=e_lo - e_hi,
                                       plain=c_lo, wrapped=c_hi), None


def compose_pair(d1: DulacExpansion, d2: DulacExpansion) -> DulacExpansion:
    """Two-term expansion of d2 o d1.

    Second-order candidates arrive from each factor and meet by
    ``_collide``.  Both factors need a plain second term, with one
    exception: a compensator-form d1 composes when d2's candidate lands
    below its exponent, outside the dead band, and the joint term is then
    the beaten remainder bound.  The remainder interval is combined
    conservatively by min/max rules.
    """
    nu1, a1 = d1.ratio, d1.leading
    nu2, a2 = d2.ratio, d2.leading
    w1, c1 = d1.next_exponent, d1.next_coeff
    w2, c2 = d2.next_exponent, d2.next_coeff
    if c2 is None or (c1 is None and (d1.comp is None or not _clear_below(nu1 * w2, w1))):
        raise ValueError("compensator-form or truncated factors cannot be composed further; "
                         "assemble return maps from corner data instead")
    cand2 = (nu1 * w2, a1 ** (nu2 + w2) * c2)
    if c1 is None:
        (exponent, coeff), comp, beaten = cand2, None, w1
    else:
        exponent, coeff, comp, beaten = _collide((w1, nu2 * a1 ** (nu2 - 1.0) * a2 * c1), cand2)
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
    the ratio and its coefficient picks up the standard chain-rule factor,
    formed as leading^(-1/ratio) times leading^-(1 + offset) so that it
    overflows only where it is itself beyond the float range.  The map
    needs a plain second term; a power beyond the float range raises
    NumericError.
    """
    if d.next_coeff is None:
        raise ValueError("compensator-form or truncated expansions cannot be inverted")
    rho = 1.0 / d.ratio
    w = d.next_exponent * rho
    try:
        leading = d.leading ** -rho
        coeff = -rho * d.next_coeff * d.leading ** -(1.0 + w) * leading
    except OverflowError as exc:
        raise NumericError(f"inverse map beyond the float range (ratio {d.ratio!r}, "
                           f"leading {d.leading!r})") from exc
    return DulacExpansion(ratio=rho, leading=leading,
                          next_exponent=w, next_coeff=coeff,
                          ell=(d.ell[0] * rho.real, d.ell[1] * rho.real), notes=d.notes)


# ---------------------------------------------------------------------------
# Return map of a corner chain


@dataclass(frozen=True)
class ReturnExpansion:
    """Two-term data of the full return map s^ratio(leading + second + ...).

    The numbers come from the composition fold.  ``kind`` labels the
    second term by the above/below pattern of the corners: "A" for the
    resonant collision (below-then-above, or an exact tie at exponent 1),
    "B" for the term at exponent 1 (expanding corners lead), "C" for the
    term at exponent ratio (contracting corners close), "compensator"
    when two terms share a dead band, and "fold" for an interleaved
    pattern.  ``second_scale`` is the magnitude of the prefactor of that
    term, the scale against which the verdict tests it for zero.
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

    The ratio, leading coefficient, second term and remainder interval all
    come from the composition fold; the pattern of the corners sets only
    ``kind`` and ``second_scale``.  When the fold cannot be built, because
    of a resonant corner or a near-resonant collision inside the chain,
    the map is truncated to leading order.
    """
    if not ds:
        raise ValueError("empty corner chain")
    pattern, split = _pattern_of([d.case for d in ds])
    notes = tuple(dict.fromkeys(sum((d.notes for d in ds), ())))
    try:
        fold = compose_chain(ds)
    except ValueError:
        r, leading = 1.0, 1.0
        for d in ds:
            r, leading = r * d.ratio, leading ** d.ratio * d.leading
        if pattern == "degenerate":
            lams = [d.ratio for d in ds]
            ell = (0.0, min(math.prod(lams[i:], start=1.0).real for i in range(len(ds) + 1)))
            note = "resonant corner present: return map truncated to leading order"
        else:
            ell, note = (0.0, 0.0), "near-resonant internal collision: leading order only"
        return ReturnExpansion(pattern=pattern, ratio=r, leading=leading, ell=ell,
                               split=split, notes=notes + (note,))

    r, leading, exponent = fold.ratio, fold.leading, fold.next_exponent
    b_scale, c_scale = abs(r * leading), leading**2
    if pattern == "interleaved":
        kind, scale = "fold", 1.0
        notes = notes + ("interleaved pattern: second term from generic composition",)
    elif fold.comp is not None:
        kind, exponent, scale = "compensator", None, max(b_scale, abs(c_scale))
    elif pattern == "below-then-above":  # scale Lambda_{split,n} A_{1,split} A
        prefix = compose_chain(ds[:split])
        kind, scale = "A", abs(math.prod(d.ratio for d in ds[split:]) * prefix.leading * leading)
    elif pattern == "above-then-below" and abs(r.real - 1.0) <= EXPONENT_TIE_REL:
        # both terms kept; r may be 1 +- an ulp, so the tie is reported at exactly 1
        kind, exponent, scale = "A", 1.0, max(b_scale, abs(c_scale))
    else:
        kind, scale = ("B", b_scale) if r.real > 1.0 else ("C", c_scale)
    return ReturnExpansion(pattern=pattern, ratio=r, leading=leading, kind=kind,
                           second_exponent=exponent, second_coeff=fold.next_coeff,
                           comp=fold.comp, ell=fold.ell, split=split,
                           second_scale=scale, notes=notes)


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
    notes: tuple[str, ...] = ()


_IDENTITY = DulacExpansion(ratio=1.0, leading=1.0, next_exponent=1.0, next_coeff=0.0)


def displacement_expansion(ds: Sequence[DulacExpansion]) -> DisplacementExpansion:
    """Assemble the displacement data of a chain that splits, possibly after
    a cyclic rotation, into an expanding block followed by a contracting one.

    Both blocks come from the composition fold: the expanding block as it
    is, the contracting one inverted; an empty block is the identity.
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
        if pattern in ("above-block", "above-then-below", "below-block"):
            rotation, m = k, split
            break
    if rotation is None:
        raise UnsupportedGeometryError(
            "no rotation arranges the corners as an expanding block followed "
            "by a contracting block")

    rds = list(ds[rotation:]) + list(ds[:rotation])
    try:
        grow = compose_chain(rds[:m]) if m else _IDENTITY
        back = inverse_dulac(compose_chain(rds[m:])) if m < n else _IDENTITY
    except ValueError as exc:
        raise DegeneracyError(f"near-resonant collision inside a block: {exc}") from exc
    alpha = back.ratio - grow.ratio
    notes = (f"corner list rotated by {rotation} so the expanding block leads",) if rotation else ()
    return DisplacementExpansion(
        rotation=rotation, split=m, alpha=alpha, exponents=(grow.ratio, back.ratio),
        psi1=alpha * grow.leading, psi2=grow.leading - back.leading,
        psi3=back.leading * grow.next_coeff / grow.leading - back.next_coeff,
        scale=max(abs(grow.leading), abs(back.leading)), notes=notes)
