import numpy as np
import pytest

from qkzkit import rsolve
from qkzkit.context import QContext
from qkzkit.errors import DegeneratePointError
from qkzkit.reps import GradingChoice
from qkzkit.rsolve import RCache


@pytest.fixture(scope="session")
def ctx():
    return QContext(q=0.7)


@pytest.fixture(scope="session")
def ctx_complex():
    return QContext(q=0.6 + 0.09j)


@pytest.fixture(scope="session")
def grading():
    return GradingChoice(1, 1)


@pytest.fixture(scope="session")
def grading10():
    return GradingChoice(1, 0)


@pytest.fixture(scope="session")
def cache():
    return RCache()


def zeta_sample(rng, lo=0.5, hi=2.0):
    return (lo + (hi - lo) * rng.random()) * np.exp(2j * np.pi * rng.random())


def z_sample(rng, lo=0.1, hi=0.9):
    # branch-safe scalar samples: |arg z| < pi/2 keeps half-integer powers
    # of z and its shifts on the principal sheet for any admissible q
    return (lo + (hi - lo) * rng.random()) * np.exp(1j * np.pi * (rng.random() - 0.5))


# the error that plant_in_pair gives a module pair's requests, by site
PLANTED = {"image": (FloatingPointError, "the commutant data of ({}, {}) at m = {} are not finite"),
           "gap": (DegeneratePointError,
                   "nullspace gap 0 below threshold 1e+06 (highest-weight vectors)")}


def plant_in_pair(monkeypatch, site, kinds, m):
    """Break one module pair `kinds` of spin m inside the stacked template pass:
    site "image" puts inf into an image part of that pair; "gap" zeroes that
    pair's raising image E, so its highest-weight kernels fail the gap test.
    Returns the type and text of the error that the pair's requests get."""
    pair = rsolve.PAIRS.index(kinds)
    if site == "image":
        init = rsolve.CommutantTemplate.__init__

        def planted(t, spin, ctx):
            init(t, spin, ctx)
            if spin == m:
                t.images[2][pair, 0] = np.inf
        monkeypatch.setattr(rsolve.CommutantTemplate, "__init__", planted)
    else:
        basis = rsolve._commutant_basis

        def planted(in_ops, out_ops, spin, a, b):
            if spin == m:
                E, *rest = in_ops
                E = E.copy()
                E[pair] = 0
                in_ops = (E, *rest)
            return basis(in_ops, out_ops, spin, a, b)
        monkeypatch.setattr(rsolve, "_commutant_basis", planted)
    error, text = PLANTED[site]
    return error, text.format(*kinds, m)
