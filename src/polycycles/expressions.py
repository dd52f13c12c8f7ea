"""Parametric polynomial expressions and their instantiation.

Expression sources follow a small arithmetic grammar:

    expr   := term {("+" | "-") term}
    term   := factor {("*" | "/") factor}
    factor := base ["^" unsigned-int] | "-" factor
    base   := number | ident | "(" expr ")"
    number := unsigned-int ["." digits]

Identifiers are either declared parameter names or the reserved field
variables ``x`` and ``y``.  Literals are kept as exact
rationals; they are converted to float64 exactly once, when an expression
is instantiated at a concrete parameter point (complex where a parameter
value is complex).  Division is permitted only when the divisor
instantiates to a nonzero constant, and exponents are literal unsigned
integers, so every well-formed expression instantiates to a polynomial.

A concrete polynomial is a dense 2-d coefficient array ``c`` with
``c[i, j]`` the coefficient of x^i y^j, float64, or complex128 when a
complex parameter value reaches it; ``flow.field_callable`` compiles a
pair of them into a right-hand side.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

import numpy as np

from .errors import ExpressionError

VARIABLES = ("x", "y")  # the reserved field variables, in coefficient-index order

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
    """A parsed expression together with its declared parameters."""

    root: Node
    params: tuple[str, ...]


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


def parse_expression(source: str, params: tuple[str, ...] | list[str] = ()) -> Expression:
    """Parse ``source`` into an :class:`Expression`.

    Raises :class:`ExpressionError` with 1-based line/column on syntax
    errors and on identifiers that are neither declared parameters nor
    reserved variables.
    """
    params = tuple(params)
    clash = set(params) & set(VARIABLES)
    if clash:
        raise ExpressionError(f"parameter name {sorted(clash)[0]!r} shadows a reserved variable")
    parser = _Parser(_tokenize(source), set(params) | set(VARIABLES))
    root = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "END":
        raise ExpressionError(f"unexpected trailing input {tail.text!r}", tail.line, tail.col)
    return Expression(root, params)


# ---------------------------------------------------------------------------
# Instantiation

Number = Union[int, float, Fraction, complex]


def _inst(node: Node, binding: Mapping[str, Number]) -> dict:
    """Evaluate to a coefficient dict over exact numbers where possible."""
    if isinstance(node, Num):
        return {(0, 0): node.value}
    if isinstance(node, Var):
        if node.name in VARIABLES:
            key = (1, 0) if node.name == VARIABLES[0] else (0, 1)
            return {key: Fraction(1)}
        if node.name not in binding:
            raise ExpressionError(f"no value bound for parameter {node.name!r}")
        val = binding[node.name]
        return {(0, 0): val} if val != 0 else {}
    if isinstance(node, Neg):
        return {k: -c for k, c in _inst(node.arg, binding).items()}
    if isinstance(node, Pow):
        base = _inst(node.base, binding)
        out = {(0, 0): Fraction(1)}
        for _ in range(node.exponent):
            out = _poly_mul(out, base)
        return out
    if isinstance(node, BinOp):
        left = _inst(node.left, binding)
        right = _inst(node.right, binding)
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


def instantiate(expr: Expression, binding: Mapping[str, Number]) -> np.ndarray:
    """Substitute parameter values and return the coefficient array c[i, j].

    Arithmetic is carried out over exact rationals: int and Fraction values
    are exact, and a float, or the real part of a complex value, is read as
    the rational its repr shows.  The single conversion to float64 happens
    here, at the end.  Coefficients that a complex value (a complex step)
    reaches stay complex, and so the array is complex.  Their real parts
    come from the exact path at the real parts of the values, so they equal
    the coefficients of that float binding bit for bit.  The array spans the
    highest powers of x and y with a nonzero coefficient, and is at least
    1 x 1.
    """
    real = {k: Fraction(repr(float(v.real))) if isinstance(v, (float, complex)) else v
            for k, v in binding.items()}
    coeffs = {}
    for (i, j), c in _inst(expr.root, real).items():
        try:
            coeffs[i, j] = float(c)
        except OverflowError as exc:
            raise ExpressionError(f"the coefficient of x^{i} y^{j} is out of the float "
                                  "range") from exc
    if any(isinstance(v, complex) for v in binding.values()):
        for k, c in _inst(expr.root, binding).items():
            if isinstance(c, complex):
                coeffs[k] = complex(coeffs.get(k, 0.0), c.imag)
    shape = (1 + max((i for i, _ in coeffs), default=0),
             1 + max((j for _, j in coeffs), default=0))
    out = np.zeros(shape, dtype=np.result_type(float, *coeffs.values()))
    for key, c in coeffs.items():
        out[key] = c
    return out
