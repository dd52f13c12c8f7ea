"""Truncated power-series arithmetic used by the saddle normal form."""

import math

import numpy as np
import pytest

from polycycles.series import horner, padded, series_div, series_exp


class TestArithmetic:
    def test_padded(self):
        np.testing.assert_array_equal(padded([0.0, 1.0], 3), [0.0, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(padded([1.0, 2.0, 3.0], 1), [1.0, 2.0])
        assert padded([1.0, 2.0], 2).dtype == np.float64
        assert padded([1.0, 2.0j], 2).dtype == np.complex128

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
        inv = series_div([1.0], [1.0, -1.0], 12)  # 1/(1-t)
        assert inv.shape == (13,)
        assert all(c == pytest.approx(1.0) for c in inv)
        # (1 + 2t)/(1 + t) = 1 + t - t^2 + t^3 - ...
        np.testing.assert_allclose(series_div([1.0, 2.0], [1.0, 1.0], 4),
                                   [1.0, 1.0, -1.0, 1.0, -1.0], rtol=1e-15)
        with pytest.raises(ZeroDivisionError):
            series_div([1.0], [0.0, 1.0], 3)

    def test_exp_matches_scalar(self):
        # exp(t) truncation: coefficients 1/k!
        e = series_exp(padded([0.0, 1.0], 8))
        for k in range(9):
            assert e[k] == pytest.approx(1.0 / math.factorial(k), rel=1e-14)

    def test_complex_coefficients_stay_complex(self):
        # a complex step must reach every coefficient, not be cast away
        h = 1e-20
        q = series_div([1.0, 2.0 + 1j * h], [1.0, 1.0], 4)
        assert q.dtype == np.complex128
        np.testing.assert_allclose(q.imag / h, [0.0, 1.0, -1.0, 1.0, -1.0], rtol=1e-15)
        e = series_exp(padded([0.0, 1.0 + 1j * h], 4))
        assert e.dtype == np.complex128
        # d/da of a^k / k! is a^(k-1) / (k-1)! at a = 1
        np.testing.assert_allclose(e.imag / h, [0.0, 1.0, 1.0, 0.5, 1.0 / 6.0], rtol=1e-14)
