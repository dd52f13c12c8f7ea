"""Asymptotic expansions and cyclicity bounds for hyperbolic polycycles.

A parametric planar polynomial vector field with a polycycle of
hyperbolic saddles has a return map with a computable two-term
asymptotic expansion.  This package computes that expansion in closed
form (corner by corner, then composed), derives cyclicity verdicts from
explicit coefficient conditions, and cross-validates everything against
an independent integration oracle.
"""

__version__ = "0.1.0"

import importlib

# The module each public name lives in.  A name is imported on first access
# (see __getattr__), so that `import polycycles` loads neither numpy, which
# the numeric layers need, nor mpmath, which composecheck alone needs.
_HOMES = {
    "calculus": ("CompensatorTerm", "DisplacementExpansion", "DulacExpansion",
                 "ReturnExpansion", "classify_ratio", "compensator", "compose_chain",
                 "compose_pair", "displacement_expansion", "inverse_dulac",
                 "return_expansion"),
    "composecheck": ("CheckReport", "run_compose_check"),
    "cyclicity": ("Verdict", "VerdictItem", "gradient", "independence_rank",
                  "not_identity_probe", "verdict"),
    "errors": ("DegeneracyError", "ExpressionError", "ModelError", "NumericError",
               "OutOfBasinError", "PoleError", "PolycycleError",
               "UnsupportedGeometryError", "UsageError"),
    "expressions": ("instantiate", "parse_expression"),
    "flow": ("CycleCount", "CycleRecord", "FitReport", "Trajectory", "count_limit_cycles",
             "field_callable", "fit_expansion", "integrate", "numeric_dulac",
             "numeric_return"),
    "model": ("LineSection", "Model", "ModelFile", "bind", "load_model", "parse_model"),
    "pipeline": ("analyze", "oracle_cycles", "oracle_dulac", "oracle_return", "scan"),
    "saddle": ("LocalChart", "dulac_coefficients", "normalize_saddle"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is not None:
        return getattr(importlib.import_module(f".{module}", __name__), name)
    if not name.startswith("_"):  # a submodule, such as polycycles.flow
        try:
            return importlib.import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
