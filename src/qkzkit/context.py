"""Deformation-parameter context."""

from collections import namedtuple

import numpy as np

from .errors import ConfigError

_MACH_EPS = float(np.finfo(float).eps)
_ROOT_UNITY_GUARD = 48


class QContext(namedtuple("QContext", "q")):
    """Deformation parameter q.

    q must satisfy 0 < |q| < 1 (all infinite products and series converge
    inside the unit disk) and must not be numerically close to a root of
    unity: |q^k - 1| > 10*eps for 1 <= k <= 48.
    """

    __slots__ = ()

    def __new__(cls, q):
        z = complex(q)
        if not np.isfinite(z):  # NaN would pass the modulus test below
            raise ConfigError(f"q must be finite, got {z}")
        if z == 0:
            raise ConfigError("q must be nonzero")
        if abs(z) >= 1.0:
            raise ConfigError(f"|q| must be < 1, got |q| = {abs(z):.6g}")
        qk = 1.0 + 0.0j
        for k in range(1, _ROOT_UNITY_GUARD + 1):
            qk *= z
            if abs(qk - 1.0) <= 10.0 * _MACH_EPS:
                raise ConfigError(f"q is numerically a root of unity: |q^{k} - 1| <= 10*eps")
        return tuple.__new__(cls, (q,))
