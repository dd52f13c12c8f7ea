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

A source parses once into a postfix program: a tuple of instructions, in
the post-order of the expression's tree, that ``instantiate`` runs over
one stack.  ``("num", value)`` and ``("var", name)`` push an operand,
``("neg",)`` and ``("^", n)`` replace the top one, and ``("+",)``,
``("-",)``, ``("*",)`` and ``("/",)`` combine the top two.  Parentheses
and unary minus signs nest at most ``MAX_NESTING`` deep, and a power of a
non-constant base has total degree at most ``MAX_POWER_DEGREE``.  A
power of an exact constant is one ``Fraction`` power; the exponent times
the base's bit length (of its numerator or its denominator, whichever is
longer, and at least 1) is at most ``MAX_POWER_BITS``.

A concrete polynomial is a dense 2-d coefficient array ``c`` with
``c[i, j]`` the coefficient of x^i y^j, float64, or complex128 when a
complex parameter value reaches it; ``flow.field_callable`` compiles a
pair of them into a right-hand side.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Union

from .errors import ExpressionError

if TYPE_CHECKING:
    import numpy as np

VARIABLES = ("x", "y")  # the reserved field variables, in coefficient-index order
MAX_NESTING = 100  # the most parentheses and unary minus signs open at once
MAX_POWER_DEGREE = 100  # the highest total degree of a power of a non-constant base
MAX_POWER_BITS = 65536  # the most bits, n times the base's, in an exact constant power

Program = tuple[tuple, ...]
Number = Union[int, float, Fraction, complex]

# one token per match: whitespace, a number, a word, or any other character
_TOKEN = re.compile(r"\s+|\d+(?:\.\d*)?|\w+|.")
_OPS = ("+", "-", "*", "/", "^", "(", ")")


class _Parser:
    """Recursive descent that appends each node's instruction after the
    instructions of its operands.  A token is a (text, line, col) triple;
    the last one has the text "" and marks the end of input."""

    def __init__(self, source: str, symbols: set[str]):
        self.tokens: list[tuple[str, int, int]] = []
        line, start = 1, 0  # start is the index where the current line begins
        for m in _TOKEN.finditer(source):
            text, col = m.group(), m.start() - start + 1
            if text.isspace():
                if "\n" in text:
                    line += text.count("\n")
                    start = m.start() + text.rindex("\n") + 1
                continue
            first = text[0]
            if first.isdecimal() and text[-1] == ".":
                raise ExpressionError("digits required after decimal point", line,
                                      col + len(text))
            if not (text in _OPS or first.isdecimal() or first.isalpha() or first == "_"):
                raise ExpressionError(f"unexpected character {first!r}", line, col)
            self.tokens.append((text, line, col))
        self.tokens.append(("", line, len(source) - start + 1))
        self.pos = 0
        self.depth = 0
        self.symbols = symbols
        self.program: list[tuple] = []

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def advance(self) -> tuple[str, int, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def nest(self, line: int, col: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionError(f"expression nested more than {MAX_NESTING} deep", line, col)

    def parse_expr(self) -> None:
        self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.advance()[0]
            self.parse_term()
            self.program.append((op,))

    def parse_term(self) -> None:
        self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.advance()[0]
            self.parse_factor()
            self.program.append((op,))

    def parse_factor(self) -> None:
        if self.peek() == "-":
            self.nest(*self.advance()[1:])
            self.parse_factor()
            self.depth -= 1
            self.program.append(("neg",))
            return
        self.parse_base()
        if self.peek() == "^":
            self.advance()
            text, line, col = self.advance()
            if not text.isdecimal():
                raise ExpressionError("exponent must be an unsigned integer", line, col)
            self.program.append(("^", int(text)))

    def parse_base(self) -> None:
        text, line, col = self.advance()
        if text == "(":
            self.nest(line, col)
            self.parse_expr()
            text, line, col = self.advance()
            if text != ")":
                raise ExpressionError("expected ')'", line, col)
            self.depth -= 1
        elif text[:1].isdecimal():
            self.program.append(("num", Fraction(text)))
        elif text[:1].isalpha() or text[:1] == "_":
            if text not in self.symbols:
                raise ExpressionError(f"undeclared identifier {text!r}", line, col)
            self.program.append(("var", text))
        else:
            raise ExpressionError(f"unexpected token {text!r}" if text else
                                  "unexpected end of input", line, col)


def parse_expression(source: str, params: tuple[str, ...] | list[str] = ()) -> Program:
    """Parse ``source`` into its postfix program.

    Raises :class:`ExpressionError` with 1-based line/column on syntax
    errors, on nesting deeper than ``MAX_NESTING`` and on identifiers that
    are neither declared parameters nor reserved variables.
    """
    clash = set(params) & set(VARIABLES)
    if clash:
        raise ExpressionError(f"parameter name {sorted(clash)[0]!r} shadows a reserved variable")
    parser = _Parser(source, set(params) | set(VARIABLES))
    parser.parse_expr()
    text, line, col = parser.tokens[parser.pos]
    if text:
        raise ExpressionError(f"unexpected trailing input {text!r}", line, col)
    return tuple(parser.program)


def _subtrees(program: Program) -> tuple[dict[int, list[int]], list[tuple[str, ...]]]:
    """Where each instruction's subtree starts, and the parameters it reads:
    the ends of the subtrees starting at each position, outermost first,
    and per instruction its subtree's parameter names, sorted."""
    starts: dict[int, list[int]] = {}
    params: list[tuple[str, ...]] = []
    stack: list[tuple[int, frozenset]] = []  # (start, parameters) per operand
    for i, ins in enumerate(program):
        op = ins[0]
        if op in ("num", "var"):
            names = frozenset() if op == "num" or ins[1] in VARIABLES else frozenset(ins[1:])
            stack.append((i, names))
        elif op not in ("neg", "^"):
            (_, right), (first, left) = stack.pop(), stack.pop()
            stack.append((first, left | right))
        params.append(tuple(sorted(stack[-1][1])))
        starts.setdefault(stack[-1][0], []).insert(0, i)
    return starts, params


def _run(program: Program, binding: Mapping[str, Number], memo: dict) -> dict:
    """Run ``program`` over coefficient dicts, exact numbers where possible.

    A subtree whose parameters have values of equal type and repr in an
    earlier run with the same ``memo`` is not run again: its result is
    read back.  No instruction changes an operand in place, so results can
    be shared.  memo[None] holds ``_subtrees(program)``.
    """
    if None not in memo:
        memo[None] = _subtrees(program)
    starts, params = memo[None]
    values = {name: (type(v), repr(v)) for name, v in binding.items()}
    keys = {names: tuple(map(values.get, names)) for names in set(params)}
    stack: list[dict] = []
    at = 0
    while at < len(program):
        for end in starts.get(at, ()):
            done = memo.get((end, keys[params[end]]))
            if done is not None:
                stack.append(done)
                at = end + 1
                break
        else:
            _step(program[at], stack, binding)
            memo[at, keys[params[at]]] = stack[-1]
            at += 1
    return stack.pop()


def _step(ins: tuple, stack: list[dict], binding: Mapping[str, Number]) -> None:
    """Run one instruction on the stack."""
    op = ins[0]
    if op == "num":
        stack.append({(0, 0): ins[1]})
    elif op == "var":
        name = ins[1]
        if name in VARIABLES:
            stack.append({(1, 0) if name == VARIABLES[0] else (0, 1): Fraction(1)})
        elif name not in binding:
            raise ExpressionError(f"no value bound for parameter {name!r}")
        else:
            val = binding[name]
            stack.append({(0, 0): val} if val != 0 else {})
    elif op == "neg":
        stack.append({k: -c for k, c in stack.pop().items()})
    elif op == "^":
        base, n = stack.pop(), ins[1]
        degree = max((i + j for i, j in base), default=0)
        if degree * n > MAX_POWER_DEGREE:
            raise ExpressionError(f"power ^{n} of an expression of degree {degree} "
                                  f"passes degree {MAX_POWER_DEGREE}")
        stack.append(_power(base, n) if degree == 0 else _poly_pow(base, n))
    elif op == "/":
        right = stack.pop()
        if any(k != (0, 0) for k in right):
            raise ExpressionError("division by a non-constant expression")
        divisor = right.get((0, 0), 0)
        if divisor == 0:
            raise ExpressionError("division by zero")
        stack.append({k: c / divisor for k, c in stack.pop().items()})
    else:
        right, left = stack.pop(), stack.pop()
        stack.append(_poly_mul(left, right) if op == "*" else
                     _poly_add(left, right, 1 if op == "+" else -1))


def _power(base: dict, n: int) -> dict:
    """``base``, a constant, to the power n.  An exact constant takes one
    Fraction power, bounded by MAX_POWER_BITS; a float or complex one
    keeps the multiplication loop, whose rounding the printed results
    depend on.  The exact run comes first, so the loop sees only an n
    that passed the bound."""
    c = base.get((0, 0), 0)
    if not isinstance(c, (int, Fraction)):
        return _poly_pow(base, n)
    c = Fraction(c)
    if n * max(abs(c.numerator).bit_length(), c.denominator.bit_length(), 1) > MAX_POWER_BITS:
        raise ExpressionError(f"power ^{n} of a constant passes {MAX_POWER_BITS} bits")
    c **= n
    return {(0, 0): c} if c else {}


def _poly_pow(base: dict, n: int) -> dict:
    out = {(0, 0): Fraction(1)}
    for _ in range(n):
        out = _poly_mul(out, base)
    return out


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


def instantiate(expr: Program, binding: Mapping[str, Number],
                memo: dict | None = None) -> np.ndarray:
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

    ``memo``, a dict that the calls of one batch of bindings of ``expr``
    share, lets them share every subtree whose parameters have values of
    equal type and repr: a batch of complex steps at one point runs the
    exact program once, and each step only the subtrees that read its
    parameter.  The batch's caller drops it when the batch ends.
    """
    import numpy as np  # the first bind loads numpy, not start-up
    memo = {} if memo is None else memo
    real = {k: Fraction(repr(float(v.real))) if isinstance(v, (float, complex)) else v
            for k, v in binding.items()}
    coeffs = {}
    for (i, j), c in _run(expr, real, memo).items():
        try:
            coeffs[i, j] = float(c)
        except OverflowError as exc:
            raise ExpressionError(f"the coefficient of x^{i} y^{j} is out of the float "
                                  "range") from exc
    if any(isinstance(v, complex) for v in binding.values()):
        for k, c in _run(expr, binding, memo).items():
            if isinstance(c, complex):
                coeffs[k] = complex(coeffs.get(k, 0.0), c.imag)
    shape = (1 + max((i for i, _ in coeffs), default=0),
             1 + max((j for _, j in coeffs), default=0))
    out = np.zeros(shape, dtype=np.result_type(float, *coeffs.values()))
    for key, c in coeffs.items():
        out[key] = c
    return out
