"""Exception hierarchy shared by the whole package.

The split mirrors the process exit codes of the command line tool:
bad input data (2), computations that refuse to resolve at the requested
tolerance (3), and violations of internal consistency checks that should
never happen on a healthy install (4).  ``is_number`` is the test the
public boundary applies to a numeric argument before a ValidationError.
"""

import numbers


class SpectralError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ValidationError(SpectralError):
    """Input data violates a documented precondition."""

    exit_code = 2


class ResolutionError(SpectralError):
    """A numerical computation did not resolve at the requested tolerance.

    Raised instead of silently returning garbage: callers may retry with
    more quadrature nodes, a looser tolerance, or perturbed input.
    """

    exit_code = 3


class InvariantError(SpectralError):
    """An internal cross-check failed; indicates a bug or broken install."""

    exit_code = 4


def is_number(x, kind=numbers.Real):
    """True when ``x`` is an instance of ``kind`` (a ``numbers`` ABC, which
    NumPy's scalar types join) and not a bool, which Python counts as 0 or 1."""
    return isinstance(x, kind) and not isinstance(x, bool)
