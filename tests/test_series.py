"""Truncated power-series arithmetic used by the saddle normal form."""

import math

import numpy as np
import pytest

from polycycles.series import DEFAULT_ORDER, PowerSeries, horner, ps_div, ps_exp, ps_integrate


def geometric(order=DEFAULT_ORDER):
    # 1/(1-t) = 1 + t + t^2 + ...
    return PowerSeries([1.0] * order)


class TestArithmetic:
    def test_constructors(self):
        assert PowerSeries.constant(4.0).evaluate(0.3) == 4.0
        assert PowerSeries.from_polynomial([0.0, 1.0]).evaluate(0.3) == 0.3
        assert PowerSeries.from_polynomial([1.0, 2.0, 3.0], order=1).order == 1

    def test_mul_against_closed_form(self):
        g = geometric()
        sq = g * g  # 1/(1-t)^2 = sum (k+1) t^k
        assert [sq.coeffs[k] for k in range(6)] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_add_sub_neg(self):
        f = PowerSeries([1.0, 2.0, 3.0])
        g = PowerSeries([0.5, -2.0, 1.0])
        assert (f + g).coeffs[1] == 0.0
        assert (f - g).coeffs[0] == 0.5
        assert (-f).coeffs[2] == -3.0

    def test_evaluate_matches_horner(self):
        f = PowerSeries([2.0, -1.0, 0.5, 0.25])
        t = 0.37
        expected = 2.0 - t + 0.5 * t**2 + 0.25 * t**3
        assert f.evaluate(t) == pytest.approx(expected, rel=1e-15)

    def test_horner_is_the_plain_loop(self):
        # bit-identical to acc = acc * t + c from the top coefficient down
        coeffs = [0.3, -1.7, 2.9, 1e-3, -4.1]
        t = 0.613
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * t + c
        assert horner(coeffs, t) == acc
        assert horner([], t) == 0.0

    def test_horner_on_an_array(self):
        # elementwise the same operations as the scalar loop, so bit-identical
        coeffs = [0.3, -1.7, 2.9, 1e-3, -4.1]
        t = np.array([0.0, 0.613, -2.5, 1e-3])
        values = horner(coeffs, t)
        assert isinstance(values, np.ndarray) and values.shape == t.shape
        assert values.tolist() == [horner(coeffs, float(v)) for v in t]
        assert horner([], t).tolist() == [0.0] * 4


class TestFunctions:
    def test_div(self):
        one = PowerSeries.constant(1.0)
        inv = ps_div(one, PowerSeries([1.0, -1.0]))  # 1/(1-t)
        assert all(c == pytest.approx(1.0) for c in inv.coeffs)

    def test_exp_matches_scalar(self):
        # exp(t) truncation: coefficients 1/k!
        e = ps_exp(PowerSeries.from_polynomial([0.0, 1.0]))
        for k in range(8):
            assert e.coeffs[k] == pytest.approx(1.0 / math.factorial(k), rel=1e-14)

    def test_integrate_gains_order(self):
        f = PowerSeries([1.0, 2.0, 3.0])
        F = ps_integrate(f)
        assert F.order == f.order + 1
        assert [F.coeffs[k] for k in range(4)] == [0.0, 1.0, 1.0, 1.0]

