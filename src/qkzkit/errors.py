"""Exception hierarchy shared across the package."""

import numpy as np


class QkzError(Exception):
    """Base class for all package errors."""


class ConfigError(QkzError):
    """Invalid parameter combination (bad q, grading, chain, CLI flags)."""


class ScalarDomainError(QkzError):
    """Scalar evaluation outside its domain of validity."""


class DivergentBaseError(ScalarDomainError):
    """Infinite product or series called with |base| >= 1."""


class TruncationError(ScalarDomainError):
    """A product or series needs more explicit factors or terms than the package takes."""


class PoleError(ScalarDomainError):
    """Evaluation at (or too close to) a zero of a denominator factor."""


class DegeneratePointError(QkzError):
    """Intertwiner solve at a non-simple point of the spectral-parameter lattice."""


# what a computation far out on the q-disk raises: the package's errors and the
# arithmetic errors of numpy.  A solve stores one as the error of its requests
# (rsolve.solve_requests), and the CLI reports one as a numerical failure.
NUMERICAL_ERRORS = (QkzError, ArithmeticError, np.linalg.LinAlgError)


def copy_error(exc):
    """A copy of a stored error to raise, as copy.copy makes it: its type called
    on its args, with its attributes (its notes among them), and no traceback,
    so the stored error gathers none (whose frames would keep what they refer
    to alive)."""
    new = type(exc)(*exc.args)
    new.__dict__.update(exc.__dict__)
    return new
