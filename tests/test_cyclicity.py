"""Gradients, rank certification, and the verdict truth table."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycycles.calculus import DisplacementExpansion, ReturnExpansion
from polycycles.cyclicity import (
    ZERO_TOL,
    Verdict,
    VerdictItem,
    gradient,
    independence_rank,
    not_identity_probe,
    verdict,
)
from polycycles.errors import NumericError, OutOfBasinError


def lanes(fun):
    """A function of one point as one of a batch of points."""
    return lambda points: [fun(p) for p in points]


class TestGradient:
    def test_linear_exact(self):
        g = gradient(lanes(lambda p: {"f": 3.0 * p["x"] - 2.0 * p["y"]}), {"x": 1.0, "y": 2.0})
        assert g == {"f": {"x": 3.0, "y": -2.0}}

    def test_quadratic_central(self):
        # the complex step is exact on quadratics, as central differences were
        g = gradient(lanes(lambda p: {"f": p["x"] ** 2}), {"x": 2.0})
        assert g["f"]["x"] == 4.0

    def test_relative_step(self):
        # one fixed step serves every magnitude: nothing cancels
        g = gradient(lanes(lambda p: {"f": p["x"] ** 2}), {"x": 1e6})
        assert g["f"]["x"] == 2e6

    def test_constant(self):
        g = gradient(lanes(lambda p: {"f": 7.0}), {"a": 1.0, "b": -3.0})
        assert g == {"f": {"a": 0.0, "b": 0.0}}

    def test_non_finite_reported_as_none(self):
        g = gradient(lanes(lambda p: {"nan": float("nan"), "f": p["x"]}), {"x": 0.3})
        assert g == {"nan": {"x": None}, "f": {"x": 1.0}}

    def test_one_evaluation_per_parameter_for_all_quantities(self):
        calls = []

        def fun(points):
            calls.append([dict(p) for p in points])
            return [{"prod": p["x"] * p["y"], "exp": cmath.exp(p["x"]) / p["y"]} for p in points]

        g = gradient(fun, {"x": 0.5, "y": 4.0})
        assert len(calls) == 1 and len(calls[0]) == 2  # one batch, one point per parameter
        assert g["prod"] == {"x": 4.0, "y": 0.5}
        assert g["exp"]["x"] == pytest.approx(math.exp(0.5) / 4.0, rel=1e-15)
        assert g["exp"]["y"] == pytest.approx(-math.exp(0.5) / 16.0, rel=1e-15)

    def test_real_values_come_back_as_floats(self):
        g = gradient(lanes(lambda p: {"f": np.sin(p["x"])}), {"x": 0.3})
        assert type(g["f"]["x"]) is float
        assert g["f"]["x"] == pytest.approx(math.cos(0.3), rel=1e-15)


class TestIndependenceRank:
    def test_coordinates(self):
        assert independence_rank([{"x": 1.0, "y": 0.0}, {"x": 0.0, "y": 1.0}]) == 2

    def test_parallel_rows(self):
        assert independence_rank([{"x": 1.0, "y": 2.0}, {"x": 2.0, "y": 4.0}]) == 1

    def test_row_scaling_is_ignored(self):
        # functionals of vastly different magnitude still count separately
        assert independence_rank([{"x": 1e-8, "y": 0.0}, {"x": 0.0, "y": 1e8}]) == 2

    def test_dependent_triple(self):
        rows = [{"x": 1.0, "y": 0.0}, {"x": 0.0, "y": 1.0}, {"x": 1.0, "y": 1.0}]
        assert independence_rank(rows) == 2

    def test_none_excludes_parameter(self):
        rows = [{"x": 1.0, "y": None}, {"x": 1.0, "y": 3.0}]
        assert independence_rank(rows) == 1

    def test_degenerate_inputs(self):
        assert independence_rank([]) == 0
        assert independence_rank([{"x": None}, {"x": 1.0}]) == 0
        assert independence_rank([{"x": 0.0, "y": 0.0}]) == 0


class TestNotIdentityProbe:
    def test_certifies_departure(self):
        assert not_identity_probe(lambda s: 1.1 * s, [0.1, 0.2]) is True

    def test_identity_is_inconclusive(self):
        assert not_identity_probe(lambda s: s, [0.1, 0.2]) is None

    def test_threshold_scales_with_tol(self):
        assert not_identity_probe(lambda s: s + 5e-10, [1.0], tol=1e-10) is None
        assert not_identity_probe(lambda s: s + 2e-9, [1.0], tol=1e-10) is True

    def test_failing_probes_are_skipped(self):
        def ret(s):
            if s < 0.5:
                raise OutOfBasinError("left the basin")
            return 2.0 * s

        assert not_identity_probe(ret, [0.1, 0.6]) is True

    def test_all_probes_failing_raises(self):
        def ret(s):
            raise OutOfBasinError("left the basin")

        with pytest.raises(NumericError, match="no return value"):
            not_identity_probe(ret, [0.1, 0.2])

    def test_programming_errors_propagate(self):
        def ret(s):
            raise TypeError("bad callback")

        with pytest.raises(TypeError, match="bad callback"):
            not_identity_probe(ret, [0.1, 0.2])


def make_return(ratio, leading, kind=None, second=None, scale=1.0):
    return ReturnExpansion(pattern="above-then-below", ratio=ratio,
                           leading=leading, kind=kind, second_exponent=1.0,
                           second_coeff=second, second_scale=scale)


def make_disp(psi1, psi2, psi3, scale=1.0):
    return DisplacementExpansion(rotation=0, split=1, alpha=psi1,
                                 exponents=(1.5, 1.5), psi1=psi1, psi2=psi2,
                                 psi3=psi3, scale=scale)


UNIT_GRADS = {
    "ratio": {"a": 1.0, "b": 0.0, "c": 0.0},
    "leading": {"a": 0.0, "b": 1.0, "c": 0.0},
    "second": {"a": 0.0, "b": 0.0, "c": 1.0},
    "psi1": {"a": 1.0, "b": 0.0, "c": 0.0},
    "psi2": {"a": 0.0, "b": 1.0, "c": 0.0},
    "psi3": {"a": 0.0, "b": 0.0, "c": 1.0},
}


class TestVerdict:
    def test_hyperbolic_graphic_number(self):
        v = verdict(make_return(1.3, 2.0))
        assert (v.lower, v.upper) == (0, 0)
        assert v.consistent
        assert v.summary() == "cyclicity in [0, 0]"
        fired = {it.label for it in v.items if it.fired}
        assert fired == {"return.a", "return.c"}

    def test_leading_breaks_first_level(self):
        v = verdict(make_return(1.0, 1.5), grads=UNIT_GRADS, not_identity=True)
        assert (v.lower, v.upper) == (1, 1)
        assert {it.label for it in v.items if it.fired} == {"return.b", "return.c"}

    def test_second_coefficient_pins_two(self):
        ret = make_return(1.0, 1.0, kind="A", second=0.7)
        v = verdict(ret, grads=UNIT_GRADS, not_identity=True)
        assert (v.lower, v.upper) == (2, 2)
        fired = {it.label for it in v.items if it.fired}
        # lower bounds are cumulative: the level-1 criterion fires too
        assert fired == {"return.b", "return.d", "refined.a"}

    def test_all_coefficients_vanish(self):
        ret = make_return(1.0, 1.0, kind="A", second=0.0)
        v = verdict(ret, grads=UNIT_GRADS, not_identity=True)
        assert v.lower == 3 and v.upper is None
        assert v.summary() == "cyclicity in [3, inf]"
        assert any(it.label == "refined.b" and it.fired for it in v.items)

    def test_lower_bounds_need_identity_certificate(self):
        ret = make_return(1.0, 1.0, kind="A", second=0.0)
        v = verdict(ret, grads=UNIT_GRADS, not_identity=None)
        assert v.lower == 0
        assert any("identity probe inconclusive" in n for n in v.notes)

    def test_lower_bounds_need_gradients(self):
        v = verdict(make_return(1.0, 1.0), not_identity=True)
        assert v.lower == 0 and v.upper is None

    def test_zero_tol_override(self):
        v = verdict(make_return(1.0 + 1e-7, 2.0), zero_tol=1e-6,
                    grads=UNIT_GRADS, not_identity=True)
        assert not any(it.label == "return.a" and it.fired for it in v.items)
        assert any(it.label == "return.b" and it.fired for it in v.items)

    def test_gradient_entries_within_zero_tol_do_not_move(self):
        still = {"ratio": {"a": 1e-9, "b": -1e-9, "c": 0.0}}
        v = verdict(make_return(1.0, 1.5), grads=still, not_identity=True)
        assert not any(it.label == "return.b" and it.fired for it in v.items)

    def test_one_gradient_entry_above_zero_tol_moves(self):
        moving = {"ratio": {"a": 1e-9, "b": -2e-9, "c": 0.0}}
        v = verdict(make_return(1.0, 1.5), grads=moving, not_identity=True)
        assert any(it.label == "return.b" and it.fired for it in v.items)

    def test_second_scale_enters_zero_test(self):
        # coefficient 1e-5 counts as zero when the natural scale is 1e6
        ret = make_return(1.0, 1.0, kind="A", second=1e-5, scale=1e6)
        v = verdict(ret, grads=UNIT_GRADS, not_identity=True)
        assert not any(it.label == "refined.a" and it.fired for it in v.items)

    def test_displacement_upper_bounds(self):
        v = verdict(make_return(1.0, 1.0), disp=make_disp(0.5, 0.0, None))
        assert any(it.label == "displacement.a" and it.fired for it in v.items)
        assert v.upper == 0
        v = verdict(make_return(1.0, 1.0), disp=make_disp(0.0, 0.8, None))
        assert any(it.label == "displacement.c" and it.fired for it in v.items)
        assert v.upper == 1

    def test_psi3_items_only_when_available(self):
        labels = {it.label for it in
                  verdict(make_return(1.0, 1.0), disp=make_disp(0.0, 0.0, None)).items}
        assert "displacement.e" not in labels
        labels = {it.label for it in
                  verdict(make_return(1.0, 1.0), disp=make_disp(0.0, 0.0, 3.0)).items}
        assert "displacement.e" in labels

    def test_inconsistent_bounds_flagged(self):
        # return data says at least two cycles, displacement says at most one
        ret = make_return(1.0, 1.0)
        v = verdict(ret, disp=make_disp(0.0, 5.0, None),
                    grads=UNIT_GRADS, not_identity=True)
        assert v.lower == 2 and v.upper == 1
        assert not v.consistent
        assert any("inconsistent" in n for n in v.notes)

    def test_items_carry_conditions(self):
        v = verdict(make_return(1.3, 2.0))
        item = next(it for it in v.items if it.label == "return.a")
        assert item.kind == "upper" and item.bound == 0
        assert "graphic number" in item.condition
        assert "1.3" in item.detail


class TestVerdictOnFourSaddle:
    def test_frozen_game_verdict(self, game_chain):
        from polycycles.calculus import displacement_expansion, return_expansion
        from polycycles.cyclicity import ZERO_TOL

        ret = return_expansion(game_chain)
        disp = displacement_expansion(game_chain)
        v = verdict(ret, disp=disp, grads=UNIT_GRADS, not_identity=True)
        assert (v.lower, v.upper) == (2, 2)
        fired = {it.label for it in v.items if it.fired}
        assert fired == {"return.b", "return.d", "refined.a",
                         "displacement.b", "displacement.d", "displacement.e"}
        assert abs(ret.ratio - 1.0) <= ZERO_TOL


# ---------------------------------------------------------------------------
# The verdict against its criteria written out one by one


def _is_zero(value, tol, scale=1.0):
    if value is None:
        return False
    return abs(value) <= tol * max(1.0, scale)


def _has_nonzero(grad, floor):
    if grad is None:
        return False
    return any(v is not None and abs(v) > floor for v in grad.values())


def moving_rank(grads, zero_tol):
    """Rank of the gradients with some entry above zero_tol."""
    return independence_rank([g for g in grads if _has_nonzero(g, zero_tol)])


def reference_verdict(ret, disp=None, grads=None, not_identity=None, zero_tol=ZERO_TOL):
    """Each cyclicity criterion written out by hand, item by item."""
    grads = grads or {}
    g_r = grads.get("ratio")
    g_a = grads.get("leading")
    g_s = grads.get("second")
    items = []
    notes = []

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
    rank_ra = moving_rank([g_r, g_a], zero_tol) if (g_r and g_a) else 0
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
        rank_ras = moving_rank([g_r, g_a, g_s], zero_tol) if (g_r and g_a and g_s) else 0
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
        rank12 = moving_rank([g1, g2], zero_tol) if (g1 and g2) else 0
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
            rank123 = moving_rank([g1, g2, g3], zero_tol) if (g1 and g2 and g3) else 0
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


ZERO_TOLS = (ZERO_TOL, 1e-6)
SCALES = (1e-3, 1.0, 3.5, 1e6)


def near_zero(zero_tol, scale):
    """Exact zeros, values at and just past +-zero_tol * max(1, scale), and
    values far from zero; half of the draws test as zero."""
    edge = zero_tol * max(1.0, scale)
    return st.one_of(
        st.just(0.0), st.sampled_from([edge, -edge]),
        st.sampled_from([1.0000001 * edge, -1.0000001 * edge]),
        st.floats(-10.0, 10.0, allow_subnormal=False))


# entries above, at and below zero_tol, or unreliable
GRADIENT_ENTRIES = st.sampled_from([0.0, 1.0, -1.0, 2.0, 5e-10, 1e-9, 2e-9, 1e-7, None])
gradient_dicts = st.one_of(
    st.none(), st.just({}),
    st.fixed_dictionaries({}, optional={k: GRADIENT_ENTRIES for k in "abc"}),
    st.fixed_dictionaries({k: GRADIENT_ENTRIES for k in "abc"}),
    st.sampled_from([{"a": 1.0, "b": 0.0, "c": 0.0}, {"a": 0.0, "b": 1.0, "c": 0.0},
                     {"a": 0.0, "b": 0.0, "c": 1.0}, {"a": 1.0, "b": 1.0, "c": 0.0}]))
QUANTITIES = ("ratio", "leading", "second", "psi1", "psi2", "psi3")


@st.composite
def ladder(draw, zero_tol, scales):
    """One value per rung; the first ``depth`` of them exactly zero, so that
    the upper rungs are reached."""
    depth = draw(st.integers(0, len(scales)))
    return [0.0 if i < depth else draw(near_zero(zero_tol, scale))
            for i, scale in enumerate(scales)]


@st.composite
def verdict_inputs(draw):
    zero_tol = draw(st.sampled_from(ZERO_TOLS))
    scale = draw(st.sampled_from(SCALES))
    r1, a1, second = draw(ladder(zero_tol, (1.0, 1.0, scale)))
    ret = ReturnExpansion(
        pattern="below-then-above", ratio=1.0 + r1, leading=1.0 + a1,
        kind=draw(st.sampled_from(["A", "A", "B", "C", "compensator", "fold", None])),
        second_exponent=0.5, second_coeff=draw(st.sampled_from([second, second, None])),
        second_scale=scale)
    disp = None
    if draw(st.booleans()):
        scale = draw(st.sampled_from(SCALES))
        psi1, psi2, psi3 = draw(ladder(zero_tol, (scale, scale, scale)))
        disp = DisplacementExpansion(
            rotation=0, split=1, alpha=0.0, exponents=(1.5, 1.5), psi1=psi1, psi2=psi2,
            psi3=draw(st.sampled_from([psi3, psi3, None])), scale=scale)
    grads = draw(st.one_of(
        st.fixed_dictionaries({}, optional={k: gradient_dicts for k in QUANTITIES}),
        st.fixed_dictionaries({k: gradient_dicts for k in QUANTITIES}),
        st.just(UNIT_GRADS), st.none()))
    not_identity = draw(st.sampled_from([True, True, None, False]))
    return ret, disp, grads, not_identity, zero_tol


class TestVerdictAgainstReference:
    @given(verdict_inputs())
    @settings(max_examples=1000)
    def test_every_field_matches(self, inputs):
        got, want = verdict(*inputs), reference_verdict(*inputs)
        assert got.items == want.items
        for name in ("lower", "upper", "consistent", "notes"):
            assert getattr(got, name) == getattr(want, name)
