"""Expression grammar, polynomial instantiation, and error reporting."""

import random
from fractions import Fraction

import numpy as np
import pytest

from polycycles.errors import ExpressionError
from polycycles.expressions import instantiate, parse_expression
from polycycles.flow import field_callable


def expand(source, binding=None, params=()):
    return instantiate(parse_expression(source, params=params), binding or {})


def dense(entries, shape):
    """The coefficient array with the given {(i, j): c} entries."""
    out = np.zeros(shape)
    for key, c in entries.items():
        out[key] = c
    return out


class TestGrammar:
    def test_product_expansion(self):
        p = expand("x*(x - 1)*(y - a)", {"a": Fraction(2, 5)}, params=("a",))
        np.testing.assert_array_equal(
            p, dense({(2, 1): 1.0, (2, 0): -0.4, (1, 1): -1.0, (1, 0): 0.4}, (3, 2)))

    def test_precedence_and_power(self):
        p = expand("1 + 2*x^2*y - x*y")
        np.testing.assert_array_equal(p, dense({(0, 0): 1.0, (2, 1): 2.0, (1, 1): -1.0}, (3, 2)))

    def test_unary_minus(self):
        p = expand("-x^2 - -y")
        np.testing.assert_array_equal(p, dense({(2, 0): -1.0, (0, 1): 1.0}, (3, 2)))

    def test_rational_literal(self):
        p = expand("8/27*x")
        assert p[1, 0] == pytest.approx(8 / 27, rel=0, abs=0)

    def test_evaluate(self):
        p = expand("x*(x - 1)*(y - 2)")
        assert field_callable(p, -p)(3.0, 5.0) == pytest.approx((3 * 2 * 3, -3 * 2 * 3))
        assert np.polynomial.polynomial.polyval2d(3.0, 5.0, p) == pytest.approx(3 * 2 * 3)

    def test_complex_value_gives_a_complex_array(self):
        p = expand("a*x + y", {"a": complex(0.5, 1e-20)}, params=("a",))
        assert p.dtype == complex
        np.testing.assert_array_equal(p, [[0.0, 1.0], [complex(0.5, 1e-20), 0.0]])

    def test_numpy_complex_value(self):
        # np.complex128 is a complex whose real part is an np.float64
        p = expand("a*x + y", {"a": np.float64(0.5) + 1e-20j}, params=("a",))
        np.testing.assert_array_equal(p, [[0.0, 1.0], [complex(0.5, 1e-20), 0.0]])

    def test_complex_step_real_parts_equal_the_float_binding(self, game_mf):
        # four_saddle at 200 float points, one complex step per parameter:
        # the real parts repeat the float binding bit for bit
        rng = random.Random(5)
        for _ in range(200):
            point = {name: rng.uniform(0.3, 3.0) for name in game_mf.param_names}
            for expr in (game_mf.expr_x, game_mf.expr_y):
                plain = instantiate(expr, point)
                for name in game_mf.param_names:
                    stepped = instantiate(expr, {**point, name: complex(point[name], 1e-20)})
                    np.testing.assert_array_equal(stepped.real, plain)


class TestErrors:
    def test_syntax_error_carries_position(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("x + * y")
        assert err.value.line == 1
        assert err.value.col == 5

    def test_undeclared_identifier(self):
        with pytest.raises(ExpressionError, match="undeclared identifier 'b'"):
            parse_expression("x + b", params=("a",))

    def test_param_shadows_variable(self):
        with pytest.raises(ExpressionError, match="shadows"):
            parse_expression("x", params=("y",))

    def test_non_integer_exponent(self):
        with pytest.raises(ExpressionError, match="unsigned integer"):
            parse_expression("x^(1/2)")

    def test_trailing_input(self):
        with pytest.raises(ExpressionError, match="trailing"):
            parse_expression("x + 1 y")

    def test_bare_decimal_point(self):
        with pytest.raises(ExpressionError, match="decimal point"):
            parse_expression("1. + x")


class TestCoefficientArray:
    def test_constant_and_variable(self):
        np.testing.assert_array_equal(expand("3.5"), [[3.5]])
        np.testing.assert_array_equal(expand("x"), [[0.0], [1.0]])
        np.testing.assert_array_equal(expand("y"), [[0.0, 1.0]])
        assert expand("0").shape == (1, 1) and expand("0")[0, 0] == 0.0

    def test_zero_terms_dropped(self):
        np.testing.assert_array_equal(expand("x - x + y"), [[0.0, 1.0]])
