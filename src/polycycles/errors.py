"""Exception hierarchy.

Model problems (bad files, degenerate or unsupported geometry) are kept
separate from numeric failures (integration blow-up, rejected fits), and
bad caller input separate from both, so the command line tool can map
them to distinct exit codes.
"""
from __future__ import annotations


class PolycycleError(Exception):
    """Base class for all errors raised by this package."""


class ExpressionError(PolycycleError):
    """Syntax or semantic error in an expression source string.

    Carries the 1-based line and column of the offending token, when
    there is one: errors found on binding values have no position.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message if line is None else f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ModelError(PolycycleError):
    """A model file or model definition is invalid."""


class UsageError(ModelError):
    """Caller input names an option, parameter or grid the model does not
    accept.  A ModelError subclass, so library callers that catch
    ModelError keep working; the command line maps it to its own exit code.
    """


class DegeneracyError(ModelError):
    """A polycycle corner fails the hyperbolicity requirements."""


class UnsupportedGeometryError(ModelError):
    """The polycycle geometry falls outside the supported class: corners
    whose edges are invariant lines, crossed the way the traversal runs, and
    sections that chain, as on a parallelogram."""


class NumericError(PolycycleError):
    """A numeric computation failed or left its validity domain."""


class PoleError(NumericError):
    """Mellin transform order too close to a nonnegative integer pole."""


class OutOfBasinError(NumericError):
    """A trajectory left the neighborhood where the return map is defined."""
