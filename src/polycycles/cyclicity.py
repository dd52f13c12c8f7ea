"""Cyclicity verdicts from expansion coefficients and their parameter derivatives.

The bounds come in two families.  Upper bounds fire when a coefficient of
the return or displacement expansion is nonzero at the studied parameter.
Lower bounds fire when the relevant coefficients vanish, their gradients
are independent (a sufficient condition for the required sign changes and
transversality), and the return map is certified different from the
identity.  The final verdict is the max of fired lower bounds against the
min of fired upper bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .calculus import DisplacementExpansion, ReturnExpansion
from .errors import NumericError, PolycycleError

ZERO_TOL = 1e-9
COMPLEX_STEP = 1e-30


def gradient(fun: Callable[[Mapping[str, object]], Mapping[str, float | complex]],
             point: Mapping[str, float], names: Sequence[str] | None = None,
             ) -> dict[str, dict[str, float | None]]:
    """Complex-step derivatives of every quantity ``fun`` returns.

    ``fun`` maps a parameter point to a dict of quantities and must be
    holomorphic in the parameters.  It is evaluated once per parameter at
    x + i*COMPLEX_STEP (Squire and Trapp 1998): the imaginary part over the
    step is the derivative to rounding, with no difference to cancel.
    Returns {quantity: {parameter: derivative}}; an entry whose value or
    derivative is not finite is None.
    """
    if names is None:
        names = list(point.keys())
    out: dict[str, dict[str, float | None]] = {}
    for name in names:
        shifted = dict(point)
        shifted[name] = point[name] + COMPLEX_STEP * 1j
        for quantity, value in fun(shifted).items():
            d = float(value.imag) / COMPLEX_STEP
            finite = math.isfinite(value.real) and math.isfinite(d)
            out.setdefault(quantity, {})[name] = d if finite else None
    return out


def independence_rank(grads: Sequence[Mapping[str, float | None]],
                      names: Sequence[str] | None = None) -> int:
    """Numerical rank of a stack of gradients.

    Rows are scaled to unit max-entry before the SVD so that functionals of
    very different magnitudes are compared fairly; parameters with an
    unreliable (None) entry in any row are excluded.  Rank counts singular
    values above max_dim * eps * s_max * 1e3.
    """
    if not grads:
        return 0
    if names is None:
        keys = set()
        for g in grads:
            keys |= set(g.keys())
        names = sorted(keys)
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


def _is_zero(value: float | None, tol: float, scale: float = 1.0) -> bool:
    if value is None:
        return False
    return abs(value) <= tol * max(1.0, scale)


def _has_nonzero(grad: Mapping[str, float | None] | None, floor: float) -> bool:
    if grad is None:
        return False
    return any(v is not None and abs(v) > floor for v in grad.values())


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
    g_r = grads.get("ratio")
    g_a = grads.get("leading")
    g_s = grads.get("second")
    items: list[VerdictItem] = []
    notes: list[str] = []

    r_is_one = _is_zero(ret.ratio - 1.0, zero_tol)
    a_is_one = _is_zero(ret.leading - 1.0, zero_tol, abs(ret.leading))
    nid = not_identity is True

    items.append(VerdictItem(
        "return.a", "upper", 0, not r_is_one,
        "graphic number differs from 1",
        f"r = {ret.ratio!r}"))
    items.append(VerdictItem(
        "return.b", "lower", 1,
        r_is_one and _has_nonzero(g_r, zero_tol) and nid,
        "graphic number equals 1, moves with the parameters (sufficient condition "
        "for a sign change), and the return map is not the identity",
        f"r = {ret.ratio!r}, not_identity = {not_identity}"))
    items.append(VerdictItem(
        "return.c", "upper", 1, not a_is_one,
        "leading return coefficient differs from 1",
        f"A = {ret.leading!r}"))
    rank_ra = independence_rank([g_r, g_a]) if (g_r and g_a) else 0
    items.append(VerdictItem(
        "return.d", "lower", 2,
        r_is_one and a_is_one and rank_ra >= 2 and nid,
        "graphic number and leading coefficient equal 1 with independent "
        "gradients (rank 2) and the return map is not the identity",
        f"rank = {rank_ra}, not_identity = {not_identity}"))

    if ret.kind == "A" and ret.second_coeff is not None:
        second_zero = _is_zero(ret.second_coeff, zero_tol, ret.second_scale)
        items.append(VerdictItem(
            "refined.a", "upper", 2, not second_zero,
            "principal second-order return coefficient is nonzero",
            f"coefficient = {ret.second_coeff!r} (scale {ret.second_scale:.3g})"))
        rank_ras = independence_rank([g_r, g_a, g_s]) if (g_r and g_a and g_s) else 0
        items.append(VerdictItem(
            "refined.b", "lower", 3,
            r_is_one and a_is_one and second_zero and rank_ras >= 3 and nid,
            "r = 1, A = 1, second coefficient 0, rank-3 independent gradients, "
            "and the return map is not the identity",
            f"rank = {rank_ras}, not_identity = {not_identity}"))

    if disp is not None:
        g1 = grads.get("psi1")
        g2 = grads.get("psi2")
        g3 = grads.get("psi3")
        z1 = _is_zero(disp.psi1, zero_tol, disp.scale)
        z2 = _is_zero(disp.psi2, zero_tol, disp.scale)
        z3 = disp.psi3 is not None and _is_zero(disp.psi3, zero_tol, disp.scale)
        items.append(VerdictItem(
            "displacement.a", "upper", 0, not z1,
            "block exponents unbalanced (psi1 nonzero): no cycle survives",
            f"psi1 = {disp.psi1!r} (scale {disp.scale:.3g})"))
        items.append(VerdictItem(
            "displacement.b", "lower", 1,
            z1 and _has_nonzero(g1, zero_tol) and nid,
            "psi1 = 0, moves with the parameters, return map not the identity",
            f"psi1 = {disp.psi1!r}"))
        items.append(VerdictItem(
            "displacement.c", "upper", 1, not z2,
            "block leading coefficients differ (psi2 nonzero)",
            f"psi2 = {disp.psi2!r}"))
        rank12 = independence_rank([g1, g2]) if (g1 and g2) else 0
        items.append(VerdictItem(
            "displacement.d", "lower", 2,
            z1 and z2 and rank12 >= 2 and nid,
            "psi1 = psi2 = 0 with rank-2 independent gradients and the return "
            "map not the identity",
            f"rank = {rank12}"))
        if disp.psi3 is not None:
            items.append(VerdictItem(
                "displacement.e", "upper", 2, not z3,
                "second-order block coefficients differ (psi3 nonzero)",
                f"psi3 = {disp.psi3!r}"))
            rank123 = independence_rank([g1, g2, g3]) if (g1 and g2 and g3) else 0
            items.append(VerdictItem(
                "displacement.f", "lower", 3,
                z1 and z2 and z3 and rank123 >= 3 and nid,
                "psi1 = psi2 = psi3 = 0 with rank-3 independent gradients and "
                "the return map not the identity",
                f"rank = {rank123}"))

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
