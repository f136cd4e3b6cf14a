"""Verification report record shared by all check layers."""

import math
from typing import NamedTuple


def worst_of(residuals) -> float:
    """The largest of `residuals`, or NaN once any of them is NaN.

    Builtin max(x, nan) is x, so a NaN folded in after a finite residual
    would be dropped and its report would pass.
    """
    values = [float(r) for r in residuals]
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def fold(residual, tolerance, e2e_residual, e2e_tolerance) -> float:
    """One residual for two gates, on the scale of the first: within `tolerance`
    when each residual is within its own, and the larger one when they agree."""
    if tolerance == e2e_tolerance:
        return worst_of((residual, e2e_residual))
    return tolerance * worst_of((residual / tolerance, e2e_residual / e2e_tolerance))


class VerificationReport(NamedTuple):
    """Named check outcome; it passes when residual <= tolerance."""

    name: str
    params: dict
    residual: float
    tolerance: float
    extracted_scalars: list = None
    note: str = None

    @property
    def passed(self) -> bool:
        """residual <= tolerance, so a NaN residual fails."""
        return bool(self.residual <= self.tolerance)

    @classmethod
    def make(cls, name, params, residual, tolerance, extracted_scalars=None, note=None):
        return cls(name=name, params=dict(params), residual=float(residual),
                   tolerance=float(tolerance), extracted_scalars=extracted_scalars, note=note)

    def with_tolerance(self, tolerance):
        """This report gated at `tolerance` (the --tol override); an end-to-end gate
        (params operator_residual, e2e_residual, e2e_tolerance) is held to it too."""
        params, residual = self.params, self.residual
        if "e2e_tolerance" in params:
            params = dict(params, e2e_tolerance=tolerance)
            residual = fold(params["operator_residual"], tolerance,
                            params["e2e_residual"], tolerance)
        return self._replace(params=params, residual=residual, tolerance=tolerance)
