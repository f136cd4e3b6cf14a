"""Verification report record shared by all check layers."""

import time
from dataclasses import dataclass


@dataclass
class VerificationReport:
    """Named check outcome; passed is always residual <= tolerance."""

    name: str
    params: dict
    residual: float
    tolerance: float
    passed: bool
    wall_ms: float = 0.0
    extracted_scalars: list = None
    note: str = None

    @classmethod
    def make(cls, name, params, residual, tolerance, t0=None,
             extracted_scalars=None, note=None):
        wall = 0.0 if t0 is None else (time.perf_counter() - t0) * 1e3
        return cls(name=name, params=dict(params), residual=float(residual),
                   tolerance=float(tolerance), passed=bool(residual <= tolerance),
                   wall_ms=wall, extracted_scalars=extracted_scalars, note=note)
