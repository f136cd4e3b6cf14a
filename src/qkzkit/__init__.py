"""qkzkit: R-operators and qKZ reduction checks for the sl2 quantum loop algebra."""

from .context import QContext
from .errors import (ConfigError, DegeneratePointError, DivergentBaseError,
                     PoleError, QkzError, ScalarDomainError, TruncationError)
from .report import VerificationReport
from .reps import EvalRep, GradingChoice

__version__ = "0.1.0"

__all__ = [
    "QContext", "GradingChoice", "EvalRep",
    "VerificationReport", "QkzError", "ConfigError",
    "ScalarDomainError", "DivergentBaseError", "TruncationError", "PoleError",
    "DegeneratePointError", "__version__",
]
