"""Deformation-parameter context."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_MACH_EPS = float(np.finfo(float).eps)
_ROOT_UNITY_GUARD = 48


@dataclass(frozen=True)
class QContext:
    """Deformation parameter q plus the truncation length of every product.

    q must satisfy 0 < |q| < 1 (all infinite products and series converge
    inside the unit disk) and must not be numerically close to a root of
    unity: |q^k - 1| > 10*eps for 1 <= k <= 48.
    """

    q: complex
    trunc_terms: int = 256

    def __post_init__(self):
        q = complex(self.q)
        if not np.isfinite(q):  # NaN would pass the modulus test below
            raise ConfigError(f"q must be finite, got {q}")
        if q == 0:
            raise ConfigError("q must be nonzero")
        if abs(q) >= 1.0:
            raise ConfigError(f"|q| must be < 1, got |q| = {abs(q):.6g}")
        if self.trunc_terms < 1:
            raise ConfigError("trunc_terms must be positive")
        qk = 1.0 + 0.0j
        for k in range(1, _ROOT_UNITY_GUARD + 1):
            qk *= q
            if abs(qk - 1.0) <= 10.0 * _MACH_EPS:
                raise ConfigError(f"q is numerically a root of unity: |q^{k} - 1| <= 10*eps")
