"""Algebra of Dulac-type expansions along a polycycle.

A corner map is s^ratio(leading + c s^w + remainder), held in a
``DulacExpansion`` whose ``terms`` list the monomials (w, c); the saddle
module fills one per corner, and this module composes such maps and
inverts them.  The two-term expansions of the full return map and of the
displacement function are assembled by one composition fold over the
corners, for every arrangement of expanding and contracting corners; the
arrangement only labels the result.  When two candidate terms meet, one
rule (``_collide``) keeps the bookkeeping: distinct exponents keep the
smaller one, bit-equal exponents add their coefficients (resonance), and
exponents that agree only to within a dead band are kept jointly through
a compensator term, the scale-correct stand-in for the logarithm that
appears at the resonance itself.  One rule bounds the remainder: it
starts at the least exponent the composite holds no coefficient for.
Ratios and coefficients may be complex (a complex step); every
comparison, and the remainder interval ``ell``, is taken on real parts.
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
    """Asymptotic data s^ratio(leading + sum of c s^w over ``terms`` + ...).

    ``terms`` holds the monomials (w, c), ordered by real part; ``ell`` runs
    from the first exponent to the remainder's.  A saddle corner's one term
    sits at exponent ratio (below-one) or 1 (above-one); an at-one corner
    has none.  A composite whose two exponents meet in the dead band holds
    their joint term in ``comp``, at ``comp.exponent``, and no terms.
    """

    ratio: float
    leading: float
    terms: tuple[tuple[float, float], ...] = ()
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


def _clear_below(e_lo: float, e_hi: float) -> bool:
    """True when e_lo lies below e_hi by more than the dead band."""
    return (e_hi - e_lo).real > EXPONENT_DEAD_BAND * max(1.0, abs(e_lo.real))


def _collide(cands: Sequence[tuple]) -> tuple[tuple, CompensatorTerm | None, list]:
    """Merge second-order candidates (exponent, coefficient).

    Returns (terms, compensator, dropped).  The least exponent is kept; a
    bit-equal one adds its coefficient (resonance), one inside the dead
    band joins it in a compensator term and no plain term is kept, and one
    clearly above it is dropped, its exponent a remainder bound.
    """
    (e_lo, c_lo), *rest = sorted(cands, key=lambda t: t[0].real)
    comp, dropped = None, []
    for e, c in rest:
        if _clear_below(e_lo, e):
            dropped.append(e)
        elif (e - e_lo).real <= EXPONENT_TIE_REL * max(1.0, abs(e_lo.real)):
            c_lo += c
        else:
            comp = CompensatorTerm(exponent=e_lo, alpha=e_lo - e, plain=c_lo, wrapped=c)
    return ((), comp, dropped) if comp else (((e_lo, c_lo),), None, dropped)


def compose_pair(d1: DulacExpansion, d2: DulacExpansion) -> DulacExpansion:
    """Two-term expansion of d2 o d1.

    Each term of d1 is carried through d2's leading power, each of d2 lands
    at nu1 times its exponent, and the candidates meet by ``_collide``.
    Both factors need a term, except that a compensator-form d1 composes,
    and is dropped, when d2's term lands clearly below its exponent.  The
    remainder starts at the least exponent with no coefficient: a factor's
    remainder, a dropped exponent, or a sum of two the factors hold.
    """
    nu1, a1 = d1.ratio, d1.leading
    nu2, a2 = d2.ratio, d2.leading
    if not d2.terms or (not d1.terms and (d1.comp is None or not _clear_below(
            nu1 * d2.terms[0][0], d1.comp.exponent))):
        raise ValueError("compensator-form or truncated factors cannot be composed further; "
                         "assemble return maps from corner data instead")
    cands = [(u, nu2 * a1 ** (nu2 - 1.0) * a2 * c) for u, c in d1.terms]
    cands += [(nu1 * w, a1 ** (nu2 + w) * c) for w, c in d2.terms]
    terms, comp, dropped = _collide(cands)
    held1 = [u for u, _ in d1.terms] or [d1.comp.exponent]
    held2 = [e for e, _ in cands[len(d1.terms):]]
    # a compensator-form d1 is dropped, so its joint exponent bounds the remainder
    bounds = [d1.ell[1], nu1 * d2.ell[1], *dropped, *([] if d1.terms else held1)]
    bounds += [u + v for i, u in enumerate(held1) for v in held1[i:] + held2]
    lo = (terms[0][0] if terms else comp.exponent).real
    hi = min((h.real for h in bounds if math.isfinite(h.real)), default=lo)
    return DulacExpansion(ratio=nu1 * nu2, leading=a1**nu2 * a2, terms=terms, comp=comp,
                          ell=(lo, max(hi, lo)), notes=tuple(dict.fromkeys(d1.notes + d2.notes)))


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
    if not d.terms:
        raise ValueError("compensator-form or truncated expansions cannot be inverted")
    rho = 1.0 / d.ratio
    w = d.terms[0][0] * rho
    try:
        leading = d.leading ** -rho
        coeff = -rho * d.terms[0][1] * d.leading ** -(1.0 + w) * leading
    except OverflowError as exc:
        raise NumericError(f"inverse map beyond the float range (ratio {d.ratio!r}, "
                           f"leading {d.leading!r})") from exc
    return DulacExpansion(ratio=rho, leading=leading, terms=((w, coeff),),
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

    r, leading = fold.ratio, fold.leading
    exponent, coeff = fold.terms[0] if fold.terms else (fold.comp and fold.comp.exponent, None)
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
                           second_exponent=exponent, second_coeff=coeff,
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


_IDENTITY = DulacExpansion(ratio=1.0, leading=1.0, terms=((1.0, 0.0),))


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
        psi3=back.leading * grow.terms[0][1] / grow.leading - back.terms[0][1],
        scale=max(abs(grow.leading), abs(back.leading)), notes=notes)
