"""Truncated univariate power series and their Horner evaluator.

A truncated series is a plain 1-d coefficient array c_0..c_K, the same
ascending layout ``horner`` evaluates; its order is its length minus one.
Sums, products (``np.convolve`` cut to the order) and antiderivatives are
one numpy call each at the call site; quotients and exponentials, which
need a recurrence, live here and read their operands where they are, an
operand shorter than the order as zeros past its end.  These series carry
the Taylor data of the transition factors entering the Dulac coefficient
formulas.  Coefficients are float64, or complex128 when a parameter
carries a complex step (see cyclicity.gradient); everything here is
holomorphic in them.
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


def series_div(f, g, order: int) -> np.ndarray:
    """Series quotient f/g to ``order``; g must have a nonzero constant term.

    f and g are read where they are, as zeros past their ends.  The
    recurrence runs on Python scalars, about three times cheaper than
    numpy's, and visits only g's nonzero terms.
    """
    f, g = np.asarray(f), np.asarray(g)
    dtype = np.result_type(float, f, g)
    fl, (g0, *gl) = f[:order + 1].tolist(), g[:order + 1].tolist()
    fl += [f.dtype.type().item()] * (order + 1 - len(fl))  # f's own zero: 0j stays complex
    if g0 == 0.0:
        raise ZeroDivisionError("series division requires a nonzero constant term")
    terms = [(i, gi) for i, gi in enumerate(gl, 1) if gi != 0.0]
    q: list = []
    for n in range(order + 1):
        acc = fl[n]
        for i, gi in terms:
            if i > n:
                break
            acc -= gi * q[n - i]
        q.append(acc / g0)
    return np.array(q, dtype=dtype)


def series_exp(f: np.ndarray) -> np.ndarray:
    """Series exponential to the order of f, e_n = (1/n) sum_{k=1..n} k f_k e_{n-k}.

    The recurrence runs on Python scalars, about three times cheaper than
    numpy's.
    """
    kf = [k * fk for k, fk in enumerate(f.tolist())]
    e = [np.exp(f[0]).item()]
    for m in range(1, f.size):
        acc = 0.0
        for k in range(1, m + 1):
            acc += kf[k] * e[m - k]
        e.append(acc / m)
    return np.array(e, dtype=f.dtype)
