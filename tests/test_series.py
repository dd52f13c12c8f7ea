"""Truncated power-series arithmetic used by the saddle normal form."""

import math

import numpy as np
import pytest

from polycycles.series import horner, series_div, series_exp


def pad(c, order):
    """c_0..c_order of the coefficients c, cut off or filled with zeros of
    their own type."""
    c = np.asarray(c)
    out = np.zeros(order + 1, dtype=np.result_type(float, c))
    out[:min(c.size, order + 1)] = c[:order + 1]
    return out


def div_loop(f, g, order):
    """The quotient's recurrence on Python scalars, over every term of g,
    zeros included, on operands padded here."""
    f, g = pad(f, order).tolist(), pad(g, order).tolist()
    q = []
    for n in range(order + 1):
        acc = f[n]
        for i in range(1, n + 1):
            acc -= g[i] * q[n - i]
        q.append(acc / g[0])
    return q


class TestArithmetic:
    def test_horner_is_the_plain_loop(self):
        # bit-identical to acc = acc * t + c from the top coefficient down
        coeffs = [0.3, -1.7, 2.9, 1e-3, -4.1]
        t = 0.613
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * t + c
        assert horner(coeffs, np.array([t])).tolist() == [acc]
        assert horner([], np.array([t])).tolist() == [0.0]

    def test_horner_on_an_array(self):
        # elementwise the same operations as the scalar loop, so bit-identical
        coeffs = [0.3, -1.7, 2.9, 1e-3, -4.1]
        t = np.array([0.0, 0.613, -2.5, 1e-3])
        values = horner(coeffs, t)
        assert isinstance(values, np.ndarray) and values.shape == t.shape
        loop = []
        for v in t.tolist():
            acc = 0.0
            for c in reversed(coeffs):
                acc = acc * v + c
            loop.append(acc)
        assert values.tolist() == loop
        assert horner([], t).tolist() == [0.0] * 4


class TestFunctions:
    def test_div(self):
        inv = series_div([1.0], [1.0, -1.0], 12)  # 1/(1-t)
        assert inv.shape == (13,)
        assert all(c == pytest.approx(1.0) for c in inv)
        # (1 + 2t)/(1 + t) = 1 + t - t^2 + t^3 - ...
        np.testing.assert_allclose(series_div([1.0, 2.0], [1.0, 1.0], 4),
                                   [1.0, 1.0, -1.0, 1.0, -1.0], rtol=1e-15)
        with pytest.raises(ZeroDivisionError):
            series_div([1.0], [0.0, 1.0], 3)

    @pytest.mark.parametrize("order", [0, 2, 4, 9])
    def test_div_reads_operands_past_and_short_of_the_order(self, order):
        # f and g as arrays and as lists, shorter and longer than order + 1
        f, g = [0.5, -1.25, 2.0, 0.0, 3.5], [2.0, 0.0, -0.75]
        for ff, gg in ((f, g), (g[::-1], f[:2]), (np.array(f), np.array(g))):
            q = series_div(ff, gg, order)
            assert q.dtype == np.float64 and q.shape == (order + 1,)
            assert q.tolist() == div_loop(ff, gg, order)

    def test_div_mixes_real_and_complex_operands(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            order = int(rng.integers(0, 20))
            f, g = rng.normal(size=rng.integers(1, 8)), rng.normal(size=rng.integers(1, 8))
            g[1:][rng.random(g.size - 1) < 0.4] = 0.0
            if rng.random() < 0.7:
                f = f + 1j * rng.normal(size=f.size)
            if rng.random() < 0.7:
                g = g + 1j * 1e-3 * rng.normal(size=g.size)
            q = series_div(f, g, order)
            assert q.dtype == np.result_type(f, g)
            assert q.tolist() == div_loop(f, g, order)

    def test_exp_matches_scalar(self):
        # exp(t) truncation: coefficients 1/k!
        e = series_exp(pad([0.0, 1.0], 8))
        for k in range(9):
            assert e[k] == pytest.approx(1.0 / math.factorial(k), rel=1e-14)

    def test_complex_coefficients_stay_complex(self):
        # a complex step must reach every coefficient, not be cast away
        h = 1e-20
        q = series_div(np.array([1.0, 2.0 + 1j * h]), np.array([1.0, 1.0]), 4)
        assert q.dtype == np.complex128
        np.testing.assert_allclose(q.imag / h, [0.0, 1.0, -1.0, 1.0, -1.0], rtol=1e-15)
        e = series_exp(np.array([0.0, 1.0 + 1j * h, 0.0, 0.0, 0.0]))
        assert e.dtype == np.complex128
        # d/da of a^k / k! is a^(k-1) / (k-1)! at a = 1
        np.testing.assert_allclose(e.imag / h, [0.0, 1.0, 1.0, 0.5, 1.0 / 6.0], rtol=1e-14)

    def test_recurrences_are_the_numpy_scalar_loops(self):
        # bit-identical on real coefficients to the loops over scalars that
        # visit every denominator term, zeros included
        def exp_loop(f):
            e = np.zeros(f.size)
            e[0] = np.exp(f[0])
            for m in range(1, f.size):
                acc = 0.0
                for k in range(1, m + 1):
                    acc += k * f[k] * e[m - k]
                e[m] = acc / m
            return e

        rng = np.random.default_rng(11)
        for _ in range(200):
            order = int(rng.integers(0, 24))
            f, g = rng.normal(size=rng.integers(1, 8)), rng.normal(size=rng.integers(1, 8))
            f[rng.random(f.size) < 0.3] = 0.0
            g[1:][rng.random(g.size - 1) < 0.4] = 0.0
            assert series_div(f, g, order).tolist() == div_loop(f, g, order)
            e = 0.5 * rng.normal(size=order + 1)
            assert series_exp(e).tolist() == exp_loop(e).tolist()
