"""Parametric polynomial expressions and concrete bivariate polynomials.

Expression sources follow a small arithmetic grammar:

    expr   := term {("+" | "-") term}
    term   := factor {("*" | "/") factor}
    factor := base ["^" unsigned-int] | "-" factor
    base   := number | ident | "(" expr ")"
    number := unsigned-int ["." digits]

Identifiers are either declared parameter names or the reserved field
variables (``x`` and ``y`` by default).  Literals are kept as exact
rationals; they are converted to float64 exactly once, when an expression
is instantiated at a concrete parameter point (complex where a parameter
value is complex).  Division is permitted only when the divisor
instantiates to a nonzero constant, and exponents are literal unsigned
integers, so every well-formed expression instantiates to a polynomial.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .errors import ExpressionError
from .series import scalar

# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


Node = Union[Num, Var, Neg, BinOp, Pow]


@dataclass(frozen=True)
class Expression:
    """A parsed expression together with its declared symbol context."""

    root: Node
    params: tuple[str, ...]
    variables: tuple[str, ...]

    def __str__(self) -> str:
        return format_expression(self)


# ---------------------------------------------------------------------------
# Tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM, IDENT, OP, END
    text: str
    value: Fraction | None
    line: int
    col: int


_OPS = set("+-*/^()")


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c in _OPS:
            tokens.append(_Token("OP", c, None, line, col))
            i += 1
            col += 1
            continue
        if c.isdigit():
            start, startcol = i, col
            while i < n and source[i].isdigit():
                i += 1
                col += 1
            if i < n and source[i] == ".":
                i += 1
                col += 1
                if i >= n or not source[i].isdigit():
                    raise ExpressionError("digits required after decimal point", line, col)
                while i < n and source[i].isdigit():
                    i += 1
                    col += 1
            text = source[start:i]
            tokens.append(_Token("NUM", text, Fraction(text), line, startcol))
            continue
        if c.isalpha() or c == "_":
            start, startcol = i, col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
                col += 1
            tokens.append(_Token("IDENT", source[start:i], None, line, startcol))
            continue
        raise ExpressionError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("END", "", None, line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[_Token], symbols: set[str]):
        self.tokens = tokens
        self.pos = 0
        self.symbols = symbols

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != op:
            raise ExpressionError(f"expected {op!r}", tok.line, tok.col)
        return self.advance()

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            return Neg(self.parse_factor())
        base = self.parse_base()
        if self.peek().kind == "OP" and self.peek().text == "^":
            self.advance()
            etok = self.peek()
            if etok.kind != "NUM" or "." in etok.text:
                raise ExpressionError("exponent must be an unsigned integer", etok.line, etok.col)
            self.advance()
            return Pow(base, int(etok.value))
        return base

    def parse_base(self) -> Node:
        tok = self.advance()
        if tok.kind == "NUM":
            return Num(tok.value)
        if tok.kind == "IDENT":
            if tok.text not in self.symbols:
                raise ExpressionError(f"undeclared identifier {tok.text!r}", tok.line, tok.col)
            return Var(tok.text)
        if tok.kind == "OP" and tok.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected token {tok.text!r}" if tok.text else "unexpected end of input",
                              tok.line, tok.col)


def parse_expression(source: str, params: tuple[str, ...] | list[str] = (),
          variables: tuple[str, ...] = ("x", "y")) -> Expression:
    """Parse ``source`` into an :class:`Expression`.

    Raises :class:`ExpressionError` with 1-based line/column on syntax
    errors and on identifiers that are neither declared parameters nor
    reserved variables.
    """
    params = tuple(params)
    clash = set(params) & set(variables)
    if clash:
        raise ExpressionError(f"parameter name {sorted(clash)[0]!r} shadows a reserved variable")
    parser = _Parser(_tokenize(source), set(params) | set(variables))
    root = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "END":
        raise ExpressionError(f"unexpected trailing input {tail.text!r}", tail.line, tail.col)
    return Expression(root, params, tuple(variables))


# ---------------------------------------------------------------------------
# Printer


def _fraction_source(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    # literals always have 2^a * 5^b denominators, so the exact decimal exists
    d = f.denominator
    a = b = 0
    while d % 2 == 0:
        d //= 2
        a += 1
    while d % 5 == 0:
        d //= 5
        b += 1
    if d != 1:
        raise ValueError(f"fraction {f} has no exact decimal form")
    k = max(a, b)
    scaled = f.numerator * 10**k // f.denominator
    s = str(abs(scaled)).rjust(k + 1, "0")
    out = s[:-k] + "." + s[-k:]
    return ("-" if scaled < 0 else "") + out


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 2, "pow": 3, "atom": 4}


def _format(node: Node) -> tuple[str, int]:
    """Return (source, precedence of the outermost construct)."""
    if isinstance(node, Num):
        return _fraction_source(node.value), _PREC["atom"]
    if isinstance(node, Var):
        return node.name, _PREC["atom"]
    if isinstance(node, Neg):
        s, p = _format(node.arg)
        if p < _PREC["neg"]:
            s = f"({s})"
        return f"-{s}", _PREC["neg"]
    if isinstance(node, Pow):
        s, p = _format(node.base)
        if p < _PREC["atom"]:  # any compound base needs parens under ^
            s = f"({s})"
        return f"{s}^{node.exponent}", _PREC["pow"]
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        ls, lp = _format(node.left)
        rs, rp = _format(node.right)
        if lp < prec:
            ls = f"({ls})"
        # - and / are left associative: right operand needs parens at equal level
        if rp < prec or (rp == prec and node.op in "-/"):
            rs = f"({rs})"
        # guard things like a - -b rendering as "a --b"
        if node.op in "+-" and rs.startswith("-"):
            rs = f"({rs})"
        return f"{ls} {node.op} {rs}", prec
    raise TypeError(f"unknown node {node!r}")


def format_expression(expr: Expression) -> str:
    """Render with minimal parentheses; reparsing gives a structurally
    equal tree."""
    return _format(expr.root)[0]


# ---------------------------------------------------------------------------
# Concrete polynomials


class BivariatePolynomial:
    """Polynomial in (x, y) with float (or complex) coefficients.

    Stored as a map from exponent pairs (i, j) to nonzero coefficients.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], float] | None = None):
        self.coeffs: dict[tuple[int, int], float] = {}
        if coeffs:
            for key, c in coeffs.items():
                if c != 0.0:
                    self.coeffs[(int(key[0]), int(key[1]))] = scalar(c)

    @classmethod
    def constant(cls, c: float) -> "BivariatePolynomial":
        return cls({(0, 0): c})

    @classmethod
    def variable(cls, name: str) -> "BivariatePolynomial":
        if name == "x":
            return cls({(1, 0): 1.0})
        if name == "y":
            return cls({(0, 1): 1.0})
        raise ValueError(f"unknown variable {name!r}")

    @property
    def total_degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(i + j for i, j in self.coeffs)

    def is_constant(self) -> bool:
        return all(key == (0, 0) for key in self.coeffs)

    def constant_value(self) -> float:
        return self.coeffs.get((0, 0), 0.0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "BivariatePolynomial(0)"
        parts = [f"{c:g}*x^{i}*y^{j}" for (i, j), c in sorted(self.coeffs.items())]
        return "BivariatePolynomial(" + " + ".join(parts) + ")"

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0.0) + c
        return BivariatePolynomial(out)

    def __sub__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return self + (-other)

    def __neg__(self) -> "BivariatePolynomial":
        return BivariatePolynomial({key: -c for key, c in self.coeffs.items()})

    def __mul__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        out: dict[tuple[int, int], float] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0.0) + c1 * c2
        return BivariatePolynomial(out)

    def scale(self, factor: float) -> "BivariatePolynomial":
        return BivariatePolynomial({key: factor * c for key, c in self.coeffs.items()})

    def __pow__(self, n: int) -> "BivariatePolynomial":
        if n < 0 or n != int(n):
            raise ValueError("polynomial power requires a nonnegative integer")
        result = BivariatePolynomial.constant(1.0)
        base = self
        n = int(n)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, x: float, y: float) -> float:
        return scalar(sum(c * x**i * y**j for (i, j), c in self.coeffs.items()))

    def partial(self, var: str) -> "BivariatePolynomial":
        out: dict[tuple[int, int], float] = {}
        for (i, j), c in self.coeffs.items():
            if var == "x" and i > 0:
                out[(i - 1, j)] = out.get((i - 1, j), 0.0) + i * c
            elif var == "y" and j > 0:
                out[(i, j - 1)] = out.get((i, j - 1), 0.0) + j * c
        if var not in ("x", "y"):
            raise ValueError(f"unknown variable {var!r}")
        return BivariatePolynomial(out)

    def compose_affine(self, x_of_uv: "BivariatePolynomial",
                       y_of_uv: "BivariatePolynomial") -> "BivariatePolynomial":
        """Substitute x := x_of_uv(u, v), y := y_of_uv(u, v).

        The result is a polynomial in the new variables (still labeled
        x, y positionally).
        """
        x_pows = _powers(x_of_uv, max((i for i, _ in self.coeffs), default=0))
        y_pows = _powers(y_of_uv, max((j for _, j in self.coeffs), default=0))
        out = BivariatePolynomial()
        for (i, j), c in self.coeffs.items():
            term = x_pows[i] * y_pows[j]
            out = out + term.scale(c)
        return out

    def divide_linear(self, var: str, root: float, rtol: float = 1e-9) -> "BivariatePolynomial":
        """Exact division by (var - root); raises if the remainder is not
        negligible relative to the largest coefficient."""
        if var == "y":
            flipped = BivariatePolynomial({(j, i): c for (i, j), c in self.coeffs.items()})
            q = flipped.divide_linear("x", root, rtol)
            return BivariatePolynomial({(j, i): c for (i, j), c in q.coeffs.items()})
        if var != "x":
            raise ValueError(f"unknown variable {var!r}")
        deg_x = max((i for i, _ in self.coeffs), default=0)
        # synthetic division, one y-power at a time
        quotient: dict[tuple[int, int], float] = {}
        remainder = 0.0
        js = sorted({j for _, j in self.coeffs})
        for j in js:
            col = [self.coeffs.get((i, j), 0.0) for i in range(deg_x + 1)]
            acc = 0.0
            for i in range(deg_x, 0, -1):
                acc = col[i] + root * acc
                if acc != 0.0:
                    quotient[(i - 1, j)] = acc
            rem = col[0] + root * acc
            remainder = max(remainder, abs(rem))
        scale = max((abs(c) for c in self.coeffs.values()), default=1.0)
        if remainder > rtol * max(scale, 1.0):
            raise ValueError(f"polynomial is not divisible by ({var} - {root}): "
                             f"remainder magnitude {remainder:.3e}")
        return BivariatePolynomial(quotient)

    def restrict(self, var: str, value: float = 0.0) -> list[float]:
        """Coefficient list of the univariate restriction.

        ``restrict('x', a)`` returns the coefficients of y in P(a, y);
        ``restrict('y', b)`` the coefficients of x in P(x, b).
        """
        if var == "x":
            deg = max((j for _, j in self.coeffs), default=0)
            out = [0.0] * (deg + 1)
            for (i, j), c in self.coeffs.items():
                out[j] += c * value**i
        elif var == "y":
            deg = max((i for i, _ in self.coeffs), default=0)
            out = [0.0] * (deg + 1)
            for (i, j), c in self.coeffs.items():
                out[i] += c * value**j
        else:
            raise ValueError(f"unknown variable {var!r}")
        while len(out) > 1 and out[-1] == 0.0:
            out.pop()
        return out


def _powers(base: BivariatePolynomial, degree: int) -> list[BivariatePolynomial]:
    """base**0 .. base**degree, each one product from the last."""
    pows = [BivariatePolynomial.constant(1.0)]
    for _ in range(degree):
        pows.append(pows[-1] * base)
    return pows


# ---------------------------------------------------------------------------
# Instantiation

Number = Union[int, float, Fraction, complex]


def _inst(node: Node, binding: Mapping[str, Number], variables: tuple[str, ...]) -> dict:
    """Evaluate to a coefficient dict over exact numbers where possible."""
    if isinstance(node, Num):
        return {(0, 0): node.value}
    if isinstance(node, Var):
        if node.name in variables:
            idx = variables.index(node.name)
            key = (1, 0) if idx == 0 else (0, 1)
            return {key: Fraction(1)}
        if node.name not in binding:
            raise ExpressionError(f"no value bound for parameter {node.name!r}")
        val = binding[node.name]
        return {(0, 0): val} if val != 0 else {}
    if isinstance(node, Neg):
        return {k: -c for k, c in _inst(node.arg, binding, variables).items()}
    if isinstance(node, Pow):
        base = _inst(node.base, binding, variables)
        out = {(0, 0): Fraction(1)}
        for _ in range(node.exponent):
            out = _poly_mul(out, base)
        return out
    if isinstance(node, BinOp):
        left = _inst(node.left, binding, variables)
        right = _inst(node.right, binding, variables)
        if node.op == "+":
            return _poly_add(left, right, 1)
        if node.op == "-":
            return _poly_add(left, right, -1)
        if node.op == "*":
            return _poly_mul(left, right)
        if node.op == "/":
            if any(k != (0, 0) for k in right):
                raise ExpressionError("division by a non-constant expression")
            divisor = right.get((0, 0), 0)
            if divisor == 0:
                raise ExpressionError("division by zero")
            return {k: c / divisor for k, c in left.items()}
    raise TypeError(f"unknown node {node!r}")


def _poly_add(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
        if out[k] == 0:
            del out[k]
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
            if out[k] == 0:
                del out[k]
    return out


def instantiate(expr: Expression, binding: Mapping[str, Number]) -> BivariatePolynomial:
    """Substitute parameter values and return the concrete polynomial.

    Arithmetic is carried out over exact rationals as long as the binding
    supplies exact values (int or Fraction); the single conversion to
    float64 happens here, at the end.  Coefficients that a complex value
    (a complex step) reaches stay complex.  Their real parts come from the
    exact path at the real parts of the values, read as a float value is
    read, so they equal the coefficients of that real binding bit for bit.
    """
    real = {k: Fraction(repr(v.real)) if isinstance(v, complex) else v
            for k, v in binding.items()}
    coeffs = {k: float(c) for k, c in _inst(expr.root, real, expr.variables).items()}
    if real != binding:
        for k, c in _inst(expr.root, binding, expr.variables).items():
            if isinstance(c, complex):
                coeffs[k] = complex(coeffs.get(k, 0.0), c.imag)
    return BivariatePolynomial(coeffs)
