"""Gradients, rank certification, and the verdict truth table."""

import cmath
import math

import numpy as np
import pytest

from polycycles.calculus import DisplacementExpansion, ReturnExpansion
from polycycles.cyclicity import (
    Verdict,
    gradient,
    independence_rank,
    not_identity_probe,
    verdict,
)
from polycycles.errors import NumericError, OutOfBasinError


class TestGradient:
    def test_linear_exact(self):
        g = gradient(lambda p: {"f": 3.0 * p["x"] - 2.0 * p["y"]}, {"x": 1.0, "y": 2.0})
        assert g == {"f": {"x": 3.0, "y": -2.0}}

    def test_quadratic_central(self):
        # the complex step is exact on quadratics, as central differences were
        g = gradient(lambda p: {"f": p["x"] ** 2}, {"x": 2.0})
        assert g["f"]["x"] == 4.0

    def test_relative_step(self):
        # one fixed step serves every magnitude: nothing cancels
        g = gradient(lambda p: {"f": p["x"] ** 2}, {"x": 1e6})
        assert g["f"]["x"] == 2e6

    def test_constant(self):
        g = gradient(lambda p: {"f": 7.0}, {"a": 1.0, "b": -3.0})
        assert g == {"f": {"a": 0.0, "b": 0.0}}

    def test_names_subset(self):
        g = gradient(lambda p: {"f": p["x"] + p["y"]}, {"x": 0.0, "y": 0.0}, names=["x"])
        assert list(g["f"]) == ["x"]

    def test_non_finite_reported_as_none(self):
        g = gradient(lambda p: {"nan": float("nan"), "f": p["x"]}, {"x": 0.3})
        assert g == {"nan": {"x": None}, "f": {"x": 1.0}}

    def test_one_evaluation_per_parameter_for_all_quantities(self):
        calls = []

        def fun(p):
            calls.append(dict(p))
            return {"prod": p["x"] * p["y"], "exp": cmath.exp(p["x"]) / p["y"]}

        g = gradient(fun, {"x": 0.5, "y": 4.0})
        assert len(calls) == 2
        assert g["prod"] == {"x": 4.0, "y": 0.5}
        assert g["exp"]["x"] == pytest.approx(math.exp(0.5) / 4.0, rel=1e-15)
        assert g["exp"]["y"] == pytest.approx(-math.exp(0.5) / 16.0, rel=1e-15)

    def test_real_values_come_back_as_floats(self):
        g = gradient(lambda p: {"f": np.sin(p["x"])}, {"x": 0.3})
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

    def test_explicit_names(self):
        rows = [{"x": 1.0, "y": 0.0}, {"x": 1.0, "y": 1.0}]
        assert independence_rank(rows, names=["x"]) == 1


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
