"""Error classes shared by every stage of the interpreter.

Each error carries an optional (line, column) location.  Errors raised
without one get the location of the innermost syntax node being evaluated
when they surfaced.  Recursion too deep for the Python stack, in evaluating
a top-level form or in printing its value, is an `EvalError` located there,
as is an integer too long to print.
"""

from __future__ import annotations


class TegiError(Exception):
    def __init__(self, message: str, location: tuple[int, int] | None = None):
        super().__init__(message)
        self.message = message
        self.location = location

    def __str__(self) -> str:
        if self.location is not None:
            line, col = self.location
            return f"line {line}, col {col}: {self.message}"
        return self.message


class LexError(TegiError):
    """Unterminated string or bracket, stray '|'."""


class ParseError(TegiError):
    """Malformed expression, unexpected token or closer of the wrong kind, a name
    bound twice in one form, or a define name's indices mixed, not symbols or repeated."""


class EvalError(TegiError):
    """Base class for runtime errors."""


class UnboundVariableError(EvalError):
    """Indexed reference whose signature (and plain name) is unbound."""


class ArityError(EvalError):
    """Function applied to the wrong number of arguments."""


class TegiTypeError(EvalError):
    """Value of the wrong kind (e.g. differentiating by a non-symbol)."""


class TegiArithmeticError(EvalError):
    """Division by zero, sqrt of a negative constant, and similar."""


class IndexArityError(EvalError):
    """More index marks than free axes."""


class IndexBoundsError(EvalError):
    """Literal index outside the axis dimension."""


class ShapeMismatchError(EvalError):
    """Repeated index over axes of different dimension, ragged literals."""


class IndexLabelError(EvalError):
    """Bad index label, or transpose order that is not a permutation."""


class CompletionMismatchError(EvalError):
    """Shared index completion over arguments of differing form degree."""


class FormDegreeError(EvalError):
    """Form operation outside its degree range (e.g. hodge with k > n)."""


class DomainError(EvalError):
    """Argument outside a builtin's domain (e.g. levi-civita with n < 1)."""


class DigitLimitError(EvalError):
    """An integer too long to print (more than `symexpr.MAX_DIGITS` digits)."""
