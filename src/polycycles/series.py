"""Truncated univariate power series and the shared Horner evaluator.

A PowerSeries holds coefficients c_0..c_K of a formal series in one
variable.  Arithmetic truncates to the minimum order of the operands, so a
result is trusted exactly up to its stored order.  These series carry the
Taylor data of the transition factors entering the Dulac coefficient
formulas (exp-of-integral constructions and rational-function expansions).
"""
from __future__ import annotations

import math

import numpy as np

DEFAULT_ORDER = 16


def horner(coeffs, t):
    """sum_k coeffs[k] t^k from ascending coefficients, by Horner's rule.

    ``t`` is a float or a numpy array.  A float comes back as a float from
    a plain loop, which is cheaper than a numpy call for the scalar section
    curves of the flow oracle; an array comes back as an array, one
    vectorised step per coefficient over all quadrature nodes at once.
    """
    acc = 0.0 * t
    for c in coeffs[::-1]:
        acc = acc * t + c
    return acc if isinstance(acc, np.ndarray) else float(acc)


class PowerSeries:
    """Coefficients c0..cK of a truncated formal power series."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        self.coeffs = arr

    @classmethod
    def constant(cls, c: float, order: int = DEFAULT_ORDER) -> "PowerSeries":
        coeffs = np.zeros(order + 1)
        coeffs[0] = c
        return cls(coeffs)

    @classmethod
    def from_polynomial(cls, poly_coeffs, order: int = DEFAULT_ORDER) -> "PowerSeries":
        coeffs = np.zeros(order + 1)
        src = np.asarray(poly_coeffs, dtype=float)
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
    q = np.zeros(k + 1)
    for n in range(k + 1):
        acc = f.coeffs[n]
        for i in range(1, n + 1):
            acc -= g.coeffs[i] * q[n - i]
        q[n] = acc / g0
    return PowerSeries(q)


def ps_exp(f: PowerSeries) -> PowerSeries:
    """Series exponential, e_n = (1/n) sum_{k=1..n} k f_k e_{n-k}."""
    n = f.order
    e = np.zeros(n + 1)
    e[0] = math.exp(f.coeffs[0])
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
    out = np.zeros(f.order + 2)
    out[1:] = f.coeffs / np.arange(1, f.order + 2)
    return PowerSeries(out)
