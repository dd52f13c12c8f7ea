"""Cyclicity verdicts from expansion coefficients and their parameter derivatives.

The bounds come in two families, read off one unfolding ladder climbed
twice, over (r - 1, A - 1, second return coefficient) and over (psi1,
psi2, psi3).  On rung k the upper bound k - 1 fires when quantity k is
nonzero at the studied parameter; the lower bound k fires when quantities
1..k vanish, their gradients are independent (a sufficient condition for
the required sign changes and transversality), and the return map is
certified different from the identity.  The final verdict is the max of
fired lower bounds against the min of fired upper bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .calculus import DisplacementExpansion, ReturnExpansion
from .errors import NumericError, PolycycleError
from .model import ZERO_TOL

COMPLEX_STEP = 1e-30


def gradient(fun: Callable[[list[dict[str, object]]], Sequence[Mapping[str, float | complex]]],
             point: Mapping[str, float]) -> dict[str, dict[str, float | None]]:
    """Complex-step derivatives of every quantity ``fun`` returns.

    ``fun`` maps a list of parameter points to the list of their dicts of
    quantities, and must be holomorphic in the parameters.  It is called
    once, on one batch: the point with x + i*COMPLEX_STEP in each parameter
    in turn (Squire and Trapp 1998).  The imaginary part over the step is
    the derivative to rounding, with no difference to cancel.
    Returns {quantity: {parameter: derivative}}; an entry whose value or
    derivative is not finite is None.
    """
    steps = [{**point, name: point[name] + COMPLEX_STEP * 1j} for name in point]
    out: dict[str, dict[str, float | None]] = {}
    for name, quantities in zip(point, fun(steps)):
        for quantity, value in quantities.items():
            d = float(value.imag) / COMPLEX_STEP
            finite = math.isfinite(value.real) and math.isfinite(d)
            out.setdefault(quantity, {})[name] = d if finite else None
    return out


def independence_rank(grads: Sequence[Mapping[str, float | None]]) -> int:
    """Numerical rank of a stack of gradients.

    Rows are scaled to unit max-entry before the SVD so that functionals of
    very different magnitudes are compared fairly; parameters with an
    unreliable (None) entry in any row are excluded.  Rank counts singular
    values above max_dim * eps * s_max * 1e3.
    """
    if not grads:
        return 0
    names = sorted(set().union(*grads))
    usable = [n for n in names if all(g.get(n) is not None for g in grads)]
    if not usable:
        return 0
    mat = np.array([[float(g.get(n, 0.0)) for n in usable] for g in grads])
    for i in range(mat.shape[0]):
        peak = np.max(np.abs(mat[i]))
        if peak > 0.0:
            mat[i] /= peak
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    thresh = max(mat.shape) * np.finfo(float).eps * sv[0] * 1e3
    return int(np.sum(sv > thresh))


def not_identity_probe(return_fun: Callable[[float], float], s_values: Sequence[float],
                       tol: float = 1e-10) -> bool | None:
    """Certify that the return map differs from the identity.

    Returns True when some |R(s) - s| exceeds 10x the integration
    tolerance (scaled by s), None when every probe is within tolerance
    (inconclusive: the map may be the identity), and skips probes that
    fail to evaluate.
    """
    evaluated = 0
    for s in s_values:
        try:
            rs = return_fun(float(s))
        except PolycycleError:
            continue
        evaluated += 1
        if abs(rs - s) > 10.0 * tol * max(1.0, abs(s)):
            return True
    if evaluated == 0:
        raise NumericError("identity probe: no return value could be evaluated")
    return None


# ---------------------------------------------------------------------------
# Verdict assembly


@dataclass(frozen=True)
class VerdictItem:
    label: str
    kind: str  # "upper" | "lower"
    bound: int
    fired: bool
    condition: str
    detail: str = ""


@dataclass(frozen=True)
class Verdict:
    lower: int
    upper: int | None
    items: tuple[VerdictItem, ...]
    consistent: bool
    notes: tuple[str, ...] = ()

    def summary(self) -> str:
        hi = "inf" if self.upper is None else str(self.upper)
        return f"cyclicity in [{self.lower}, {hi}]"


def _is_zero(value: float, tol: float, scale: float = 1.0) -> bool:
    return abs(value) <= tol * max(1.0, scale)


def _ladder(rungs: Sequence[tuple], grads: Mapping[str, Mapping[str, float | None]],
            nid: bool, zero_tol: float, first: str, suffix: str = "") -> list[VerdictItem]:
    """One unfolding ladder: per rung k = 1, 2, ..., upper bound k - 1 and
    lower bound k.

    Rung k is (zero, key, (label, condition, detail), (label, condition)):
    whether quantity k vanishes, its gradient's key, and the two items.
    The upper bound fires when quantity k is nonzero; the lower bound when
    quantities 1..k vanish, move independently (a gradient moves when some
    entry exceeds ``zero_tol``: at k = 1 it moves, above that the gradients
    that move have rank k, so that rounding noise, which the rank's
    unit-peak row scaling would count as independent, is left out) and
    ``nid`` holds.  A lower detail is ``first``, or the rank, plus ``suffix``.
    """
    def moving(row: Mapping[str, float | None] | None) -> bool:
        return any(v is not None and abs(v) > zero_tol for v in (row or {}).values())

    items: list[VerdictItem] = []
    rows: list = []
    all_zero = True
    for k, (zero, key, (up_label, up_condition, up_detail), (label, condition)) \
            in enumerate(rungs, 1):
        all_zero = all_zero and zero
        rows.append(grads.get(key))
        items.append(VerdictItem(up_label, "upper", k - 1, not zero, up_condition, up_detail))
        if k == 1:
            moves, detail = moving(rows[0]), first
        else:
            rank = independence_rank([row for row in rows if moving(row)]) if all(rows) else 0
            moves, detail = rank >= k, f"rank = {rank}"
        items.append(VerdictItem(label, "lower", k, all_zero and moves and nid,
                                 condition, detail + suffix))
    return items


def verdict(ret: ReturnExpansion,
            disp: DisplacementExpansion | None = None,
            grads: Mapping[str, Mapping[str, float | None]] | None = None,
            not_identity: bool | None = None,
            zero_tol: float = ZERO_TOL) -> Verdict:
    """Evaluate every applicable cyclicity criterion and combine the bounds.

    ``grads`` may carry gradient dicts under the keys "ratio" (graphic
    number), "leading", "second" (principal second coefficient), and
    "psi1"/"psi2"/"psi3"; missing entries simply keep the dependent
    criteria from firing.  Independence is certified through gradient
    rank, a sufficient condition, so a non-fired lower bound is not
    evidence of low cyclicity.  ``not_identity`` should be True only when
    the return map was certified different from the identity.  A quantity
    moves with the parameters when some gradient entry exceeds ``zero_tol``,
    the same zero test the coefficients get.
    """
    grads = grads or {}
    nid = not_identity is True
    notes: list[str] = []

    rungs = [
        (_is_zero(ret.ratio - 1.0, zero_tol), "ratio",
         ("return.a", "graphic number differs from 1", f"r = {ret.ratio!r}"),
         ("return.b", "graphic number equals 1, moves with the parameters (sufficient "
          "condition for a sign change), and the return map is not the identity")),
        (_is_zero(ret.leading - 1.0, zero_tol, abs(ret.leading)), "leading",
         ("return.c", "leading return coefficient differs from 1", f"A = {ret.leading!r}"),
         ("return.d", "graphic number and leading coefficient equal 1 with independent "
          "gradients (rank 2) and the return map is not the identity")),
    ]
    if ret.kind == "A" and ret.second_coeff is not None:
        rungs.append(
            (_is_zero(ret.second_coeff, zero_tol, ret.second_scale), "second",
             ("refined.a", "principal second-order return coefficient is nonzero",
              f"coefficient = {ret.second_coeff!r} (scale {ret.second_scale:.3g})"),
             ("refined.b", "r = 1, A = 1, second coefficient 0, rank-3 independent "
              "gradients, and the return map is not the identity")))
    items = _ladder(rungs, grads, nid, zero_tol,
                    f"r = {ret.ratio!r}", f", not_identity = {not_identity}")

    if disp is not None:
        rungs = [
            (_is_zero(disp.psi1, zero_tol, disp.scale), "psi1",
             ("displacement.a", "block exponents unbalanced (psi1 nonzero): no cycle survives",
              f"psi1 = {disp.psi1!r} (scale {disp.scale:.3g})"),
             ("displacement.b", "psi1 = 0, moves with the parameters, return map not the "
              "identity")),
            (_is_zero(disp.psi2, zero_tol, disp.scale), "psi2",
             ("displacement.c", "block leading coefficients differ (psi2 nonzero)",
              f"psi2 = {disp.psi2!r}"),
             ("displacement.d", "psi1 = psi2 = 0 with rank-2 independent gradients and the "
              "return map not the identity")),
        ]
        if disp.psi3 is not None:
            rungs.append(
                (_is_zero(disp.psi3, zero_tol, disp.scale), "psi3",
                 ("displacement.e", "second-order block coefficients differ (psi3 nonzero)",
                  f"psi3 = {disp.psi3!r}"),
                 ("displacement.f", "psi1 = psi2 = psi3 = 0 with rank-3 independent "
                  "gradients and the return map not the identity")))
        items += _ladder(rungs, grads, nid, zero_tol, f"psi1 = {disp.psi1!r}")

    lower = max([it.bound for it in items if it.kind == "lower" and it.fired], default=0)
    uppers = [it.bound for it in items if it.kind == "upper" and it.fired]
    upper = min(uppers) if uppers else None
    consistent = upper is None or lower <= upper
    if not consistent:
        notes.append("inconsistent bounds: lower exceeds upper; check tolerances")
    if not_identity is None:
        notes.append("identity probe inconclusive: lower-bound criteria that need "
                     "a non-identity return map did not fire")
    return Verdict(lower=lower, upper=upper, items=tuple(items),
                   consistent=consistent, notes=tuple(notes))
