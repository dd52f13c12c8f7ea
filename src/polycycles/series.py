"""Truncated univariate power series and the shared Horner evaluators.

A PowerSeries holds coefficients c_0..c_K of a formal series in one
variable.  Arithmetic truncates to the minimum order of the operands, so a
result is trusted exactly up to its stored order.  These series carry the
Taylor data of the transition factors entering the Dulac coefficient
formulas (exp-of-integral constructions and rational-function expansions).
Coefficients are float64, or complex128 when a parameter carries a complex
step (see cyclicity.gradient); everything here is holomorphic in them.
"""
from __future__ import annotations

import numpy as np

DEFAULT_ORDER = 16


def horner(coeffs, t):
    """sum_k coeffs[k] t^k from ascending coefficients, by Horner's rule.

    ``t`` is a float or a numpy array.  A float comes back as a Python
    float (complex with complex coefficients) from a plain loop, which is cheaper than a numpy call for the scalar section
    curves of the flow oracle; an array comes back as an array, one
    vectorised step per coefficient over all quadrature nodes at once.
    """
    acc = 0.0 * t
    for c in coeffs[::-1]:
        acc = acc * t + c
    return acc if isinstance(acc, np.ndarray) else scalar(acc)


def horner2(rows, x, y):
    """sum_ij rows[i][j] x^i y^j, by Horner's rule in x over Horner rows in y.

    The one evaluator of a bivariate coefficient array c[i, j].  Given
    ``c.tolist()`` and Python floats it runs on Python floats only, the
    cheapest form for the flow oracle's right-hand sides.
    """
    acc = 0.0
    for row in reversed(rows):
        rv = 0.0
        for c in reversed(row):
            rv = rv * y + c
        acc = acc * x + rv
    return acc


def scalar(x):
    """x as a Python float, or as a Python complex when it is complex."""
    return complex(x) if isinstance(x, complex) else float(x)


def coeff_array(coeffs) -> np.ndarray:
    """A 1-d float64 array, or complex128 when any coefficient is complex."""
    return np.atleast_1d(np.asarray(coeffs, dtype=complex if np.iscomplexobj(coeffs) else float))


class PowerSeries:
    """Coefficients c0..cK of a truncated formal power series."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = coeff_array(coeffs)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        self.coeffs = arr

    @classmethod
    def constant(cls, c: float, order: int = DEFAULT_ORDER) -> "PowerSeries":
        coeffs = np.zeros(order + 1, dtype=np.result_type(c, float))
        coeffs[0] = c
        return cls(coeffs)

    @classmethod
    def from_polynomial(cls, poly_coeffs, order: int = DEFAULT_ORDER) -> "PowerSeries":
        src = coeff_array(poly_coeffs)
        coeffs = np.zeros(order + 1, dtype=src.dtype)
        n = min(src.size, order + 1)
        coeffs[:n] = src[:n]
        return cls(coeffs)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __repr__(self) -> str:
        return f"PowerSeries({np.array2string(self.coeffs, precision=6)})"

    def truncate(self, order: int) -> "PowerSeries":
        if order >= self.order:
            return self
        return PowerSeries(self.coeffs[: order + 1].copy())

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        k = min(self.order, other.order)
        return PowerSeries(self.coeffs[: k + 1] + other.coeffs[: k + 1])

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        k = min(self.order, other.order)
        return PowerSeries(self.coeffs[: k + 1] - other.coeffs[: k + 1])

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(-self.coeffs)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        k = min(self.order, other.order)
        out = np.convolve(self.coeffs[: k + 1], other.coeffs[: k + 1])[: k + 1]
        return PowerSeries(out)

    def evaluate(self, t: float) -> float:
        return horner(self.coeffs, t)


def ps_div(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Series quotient f/g; g must have a nonzero constant term."""
    g0 = g.coeffs[0]
    if g0 == 0.0:
        raise ZeroDivisionError("series division requires a nonzero constant term")
    k = min(f.order, g.order)
    q = np.zeros(k + 1, dtype=np.result_type(f.coeffs, g.coeffs))
    for n in range(k + 1):
        acc = f.coeffs[n]
        for i in range(1, n + 1):
            acc -= g.coeffs[i] * q[n - i]
        q[n] = acc / g0
    return PowerSeries(q)


def ps_exp(f: PowerSeries) -> PowerSeries:
    """Series exponential, e_n = (1/n) sum_{k=1..n} k f_k e_{n-k}."""
    n = f.order
    e = np.zeros(n + 1, dtype=f.coeffs.dtype)
    e[0] = np.exp(f.coeffs[0])
    for m in range(1, n + 1):
        acc = 0.0
        for k in range(1, m + 1):
            acc += k * f.coeffs[k] * e[m - k]
        e[m] = acc / m
    return PowerSeries(e)


def ps_integrate(f: PowerSeries) -> PowerSeries:
    """Term-by-term antiderivative with zero constant term.

    The output order is one higher than the input's: integration gains
    one exact order.
    """
    out = np.zeros(f.order + 2, dtype=f.coeffs.dtype)
    out[1:] = f.coeffs / np.arange(1, f.order + 2)
    return PowerSeries(out)
