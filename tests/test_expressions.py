"""Expression grammar, polynomial instantiation, and error reporting."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        # a newline starts the next line's column count
        for text, line, col in (("x + * y", 1, 5), ("x +\n  * y", 2, 3)):
            with pytest.raises(ExpressionError) as err:
                parse_expression(text)
            assert (err.value.line, err.value.col) == (line, col)
            assert str(err.value) == f"unexpected token '*' (line {line}, column {col})"

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


# text over this alphabet either parses or raises ExpressionError; the two
# non-ASCII characters are a digit that is not a decimal (superscript two)
# and a decimal digit that is not ASCII (Arabic-Indic three)
FUZZ_ALPHABET = "0123456789.xya_+-*/^() \t$\u00b2\u0663"


@settings(max_examples=300, deadline=None)
@given(st.text(FUZZ_ALPHABET, max_size=24))
def test_any_text_parses_or_raises_an_expression_error(source):
    try:
        parse_expression(source, params=("a",))
    except ExpressionError:
        pass


# grammar-built sources whose precedence Python shares once ^ reads as **;
# a power's base is a leaf or one binary operation, so degrees stay small
LEAVES = st.one_of(st.sampled_from(["x", "y", "a"]), st.integers(0, 99).map(str),
                   st.tuples(st.integers(0, 9), st.integers(0, 99)).map("{0[0]}.{0[1]:02d}".format))
BINARY = st.sampled_from([" + ", " - ", "*"])
POWERS = st.tuples(st.one_of(LEAVES, st.tuples(LEAVES, BINARY, LEAVES).map("".join)),
                   st.integers(0, 3)).map("({0[0]})^{0[1]}".format)


def _compound(children):
    return st.one_of(
        st.tuples(children, BINARY, children).map("".join),
        st.tuples(children, st.sampled_from(["7", "a", "(a + 2)"])).map("{0[0]}/{0[1]}".format),
        children.map("-{}".format),
        children.map("({})".format),
        POWERS)


SOURCES = st.recursive(st.one_of(LEAVES, POWERS), _compound, max_leaves=10)
POINTS = [(Fraction(1, 3), Fraction(-2, 5)), (Fraction(2), Fraction(1, 7)),
          (Fraction(-3, 2), Fraction(5, 4))]


@settings(max_examples=100, deadline=None)
@given(SOURCES)
def test_instantiation_matches_exact_python_arithmetic(source):
    a = Fraction(3, 7)
    p = instantiate(parse_expression(source, params=("a",)), {"a": a})
    # every literal, exponents included, becomes a Fraction
    python = re.sub(r"\d+(?:\.\d+)?", lambda m: f"Fraction('{m.group()}')",
                    source.replace("^", "**"))
    for x, y in POINTS:
        exact = eval(python, {"Fraction": Fraction, "x": x, "y": y, "a": a})
        terms = [Fraction(c) * x**i * y**j for (i, j), c in np.ndenumerate(p)]
        # each coefficient is rounded once to float64, by at most half an ulp
        assert abs(sum(terms) - exact) <= Fraction(1, 2**52) * sum(map(abs, terms))


class TestCoefficientArray:
    def test_constant_and_variable(self):
        np.testing.assert_array_equal(expand("3.5"), [[3.5]])
        np.testing.assert_array_equal(expand("x"), [[0.0], [1.0]])
        np.testing.assert_array_equal(expand("y"), [[0.0, 1.0]])
        assert expand("0").shape == (1, 1) and expand("0")[0, 0] == 0.0

    def test_zero_terms_dropped(self):
        np.testing.assert_array_equal(expand("x - x + y"), [[0.0, 1.0]])

    def test_constant_powers(self):
        # one Fraction power each; the float range, not the bits, ends 10^309
        np.testing.assert_array_equal(expand("10^308"), [[1e308]])
        np.testing.assert_array_equal(expand("(-1/2)^3 + 0^0*x"), [[-0.125], [1.0]])
        np.testing.assert_array_equal(expand("1^65536 - 0^65536"), [[1.0]])
        for past_float in ("10^309", "2^32768"):  # 2^32768 is on the bit bound
            with pytest.raises(ExpressionError, match="out of the float range"):
                expand(past_float)

    @pytest.mark.parametrize("source", ["2^32769", "1^65537", "0^65537", "(1/3)^32769",
                                        "(a + 1)^40000"])
    def test_constant_power_bit_bound(self, source):
        # n times the base's bit length (at least 1) passes MAX_POWER_BITS
        with pytest.raises(ExpressionError, match="of a constant passes 65536 bits"):
            expand(source, {"a": 1.0}, ("a",))

    def test_a_3000_term_sum(self):
        # one stack loop, where a recursive evaluator ran out of stack
        source = " + ".join(f"x^{k % 3}*y" for k in range(3000))
        np.testing.assert_array_equal(expand(source), [[0.0, 1000.0]] * 3)
