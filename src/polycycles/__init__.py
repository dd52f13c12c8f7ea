"""Asymptotic expansions and cyclicity bounds for hyperbolic polycycles.

A parametric planar polynomial vector field with a polycycle of
hyperbolic saddles has a return map with a computable two-term
asymptotic expansion.  This package computes that expansion in closed
form (corner by corner, then composed), derives cyclicity verdicts from
explicit coefficient conditions, and cross-validates everything against
an independent integration oracle.
"""

__version__ = "0.1.0"

from .calculus import (CompensatorTerm, DisplacementExpansion, ReturnExpansion,
                       compensator, compose_chain,
                       compose_pair, displacement_expansion, inverse_dulac,
                       return_expansion)
from .cyclicity import (Verdict, VerdictItem, gradient, independence_rank,
                        not_identity_probe, verdict)
from .errors import (DegeneracyError, ExpressionError, ModelError, NumericError,
                     OutOfBasinError, PoleError, PolycycleError,
                     UnsupportedGeometryError, UsageError)
from .expressions import instantiate, parse_expression
from .flow import (CycleCount, CycleRecord, FitReport, LineSection, Trajectory,
                   count_limit_cycles, field_callable, fit_expansion, integrate,
                   numeric_dulac, numeric_return)
from .model import Model, ModelFile, bind, load_model, parse_model
from .pipeline import analyze, oracle_cycles, oracle_dulac, oracle_return, scan
from .saddle import (DulacExpansion, LocalChart, classify_ratio, dulac_coefficients,
                     normalize_saddle)

__all__ = [
    "__version__",
    "parse_expression", "instantiate",
    "LocalChart", "DulacExpansion", "normalize_saddle",
    "dulac_coefficients", "classify_ratio",
    "CompensatorTerm", "ReturnExpansion", "DisplacementExpansion",
    "compensator", "compose_pair", "compose_chain",
    "inverse_dulac", "return_expansion", "displacement_expansion",
    "Verdict", "VerdictItem", "gradient", "independence_rank",
    "not_identity_probe", "verdict",
    "Trajectory", "LineSection", "FitReport", "CycleRecord", "CycleCount",
    "integrate", "field_callable", "numeric_dulac", "numeric_return",
    "fit_expansion", "count_limit_cycles",
    "CheckReport", "run_compose_check",
    "ModelFile", "Model", "parse_model", "load_model", "bind",
    "analyze", "oracle_dulac", "oracle_return", "oracle_cycles", "scan",
    "PolycycleError", "ExpressionError", "ModelError", "DegeneracyError",
    "UnsupportedGeometryError", "UsageError", "NumericError", "PoleError",
    "OutOfBasinError",
]


def __getattr__(name: str):
    # composecheck needs mpmath, which nothing else loads: import it on first use
    if name in ("CheckReport", "run_compose_check"):
        from . import composecheck
        return getattr(composecheck, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
