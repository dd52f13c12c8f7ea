"""Truncated univariate power series and their Horner evaluator.

A truncated series is a plain 1-d coefficient array c_0..c_K, the same
ascending layout ``horner`` evaluates; its order is its length minus one.
Sums, products (``np.convolve`` cut to the order) and antiderivatives are
one numpy call each at the call site; quotients and exponentials, which
need a recurrence, live here.  These series carry the Taylor data of the
transition factors entering the Dulac coefficient formulas.  Coefficients
are float64, or complex128 when a parameter carries a complex step (see
cyclicity.gradient); everything here is holomorphic in them.
"""
from __future__ import annotations

import numpy as np

DEFAULT_ORDER = 16


def horner(coeffs, t: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] t^k from ascending coefficients, by Horner's rule.

    ``t`` is a numpy array of nodes; each coefficient is one vectorised
    step over all of them at once.
    """
    acc = 0.0 * t
    for c in coeffs[::-1]:
        acc = acc * t + c
    return acc


def scalar(x):
    """x as a Python float, or as a Python complex when it is complex."""
    return complex(x) if isinstance(x, complex) else float(x)


def coeff_array(coeffs) -> np.ndarray:
    """A 1-d float64 array, or complex128 when any coefficient is complex."""
    return np.atleast_1d(np.asarray(coeffs, dtype=complex if np.iscomplexobj(coeffs) else float))


def padded(c, order: int) -> np.ndarray:
    """c_0..c_order of the coefficients c, cut off or filled with zeros."""
    src = coeff_array(c)
    out = np.zeros(order + 1, dtype=src.dtype)
    n = min(src.size, order + 1)
    out[:n] = src[:n]
    return out


def series_div(f, g, order: int) -> np.ndarray:
    """Series quotient f/g to ``order``; g must have a nonzero constant term."""
    f, g = padded(f, order), padded(g, order)
    g0 = g[0]
    if g0 == 0.0:
        raise ZeroDivisionError("series division requires a nonzero constant term")
    q = np.zeros(order + 1, dtype=np.result_type(f, g))
    for n in range(order + 1):
        acc = f[n]
        for i in range(1, n + 1):
            acc -= g[i] * q[n - i]
        q[n] = acc / g0
    return q


def series_exp(f: np.ndarray) -> np.ndarray:
    """Series exponential to the order of f, e_n = (1/n) sum_{k=1..n} k f_k e_{n-k}."""
    e = np.zeros(f.size, dtype=f.dtype)
    e[0] = np.exp(f[0])
    for m in range(1, f.size):
        acc = 0.0
        for k in range(1, m + 1):
            acc += k * f[k] * e[m - k]
        e[m] = acc / m
    return e
