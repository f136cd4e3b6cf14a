"""R-operators from the intertwining equation, with normalization and caching.

Rcheck maps V1_{z1} x V2_{z2} -> V2_{z2} x V1_{z1} and intertwines the
coproduct actions.  It conserves the h1-weight, so it is found as the
one-dimensional nullspace of the e0/e1/f0/f1 commutant equations on its
weight-conserving entries only (6/19/44/85 unknowns for m = 1..4, against
(m+1)^4 for the full operator).  R = P * Rcheck.

Normalization modes:
  "hw":    R fixes the product of highest weight vectors.
  "kappa": the hw-normalized operator times kappa^{-1} for like pairs
           (V,V), (V*,V*) and times kappa for mixed pairs.

At zeta1/zeta2 = q^delta the kappa-normalized (V,V) family has a removable
pole that no nullspace solve reaches; rcheck_resonant gives its value in
closed form from the crossing relation.
"""

from dataclasses import dataclass, replace

import numpy as np

from .context import QContext
from .errors import ConfigError, DegeneratePointError
from .reps import (GENERATOR_TAGS, SiteModule, coproduct_image, make_site, operator_o,
                   operator_o_inverse)
from .scalars import kappa_sl2
from .tensorops import swap_outputs

GAP_THRESHOLD = 1e6
_HW_TOL = 1e-8
_SINGULAR_TOL = 1e-8
# h1-weight that each generator adds, on every module kind
_WEIGHT_SHIFT = {"e0": -2.0, "e1": 2.0, "f0": 2.0, "f1": -2.0}


@dataclass(frozen=True)
class RRequest:
    site1: SiteModule
    site2: SiteModule
    normalization: str
    ctx: QContext

    def __post_init__(self):
        if self.normalization not in ("hw", "kappa"):
            raise ConfigError("normalization must be 'hw' or 'kappa'")
        if self.site1.rep.m != self.site2.rep.m:
            raise ConfigError("both sites must carry the same spin family")
        if self.site1.rep.grading != self.site2.rep.grading:
            raise ConfigError("both sites must share the grading")

    def key(self):
        g = self.site1.rep.grading
        return (self.site1.kind, self.site2.kind, self.site1.rep.m, g.s0, g.s1,
                complex(self.site1.zeta), complex(self.site2.zeta),
                self.normalization, complex(self.ctx.q), self.ctx.trunc_terms)


@dataclass(frozen=True)
class RResult:
    R: np.ndarray
    Rcheck: np.ndarray
    nullspace_gap: float
    norm_scalar_applied: complex
    intertwine_residual: float
    cond_ratio: float  # sigma_min / sigma_max of Rcheck; 0 for a zero operator


class RCache:
    """Memoizes solves by request key."""

    def __init__(self):
        self._store = {}

    def get(self, key):
        return self._store.get(key)

    def put(self, key, value):
        self._store[key] = value

    def clear(self):
        self._store.clear()


def _raw_nullvector(req: RRequest):
    """Nullvector of the commutant system on the h1-weight sectors, with the spectral gap.

    Rcheck intertwines Delta(q^{h1}), so it only links equal h1-weights:
    the unknowns are the entries X[a, b] whose output a (in V2 x V1) and
    input b (in V1 x V2) carry the same weight.  On them the Cartan
    equations hold identically.  Each of e0/e1/f0/f1 adds a fixed
    h1-weight (-2, +2, +2, -2), and so do its coproduct images M on
    V1 x V2 and N on V2 x V1; so (X M - N X)[i, j] can only be nonzero
    where w_out(i) - w_in(j) is that shift.  Only those rows are
    assembled, in row-major (i, j) order, and rows that still vanish are
    dropped.  The coefficient of X[a, b] in row (i, j) is
    delta_ia M[b, j] - N[i, a] delta_bj, scattered by index arrays.

    Each row of K is divided by its norm first: zeta^{+-s} and the
    q-numbers spread the rows over many orders of magnitude, and without
    the scaling the gap would be set by rounding.  The nullvector comes
    from the normal equations; the two smallest singular values are
    re-estimated as ||K v|| because squaring pushes them below the
    eigensolver's noise floor, where a two-dimensional nullspace would
    still show a gap of about 1e7.
    """
    s1, s2 = req.site1, req.site2
    D = s1.rep.dim * s2.rep.dim
    if D == 1:
        return np.ones((1, 1), dtype=complex), np.inf, []
    K, (a, b), pairs = _commutant_rows(s1, s2)
    rows = np.linalg.norm(K, axis=1)
    K = K[rows > 0]
    K /= rows[rows > 0, None]  # unit rows; the nullspace is unchanged
    _, V = np.linalg.eigh(K.conj().T @ K)
    sigma_min, sigma_2 = np.linalg.norm(K @ V[:, :2], axis=0)
    gap = float(sigma_2 / max(sigma_min, 1e-300))
    X = np.zeros((D, D), dtype=complex)
    X[a, b] = V[:, 0]
    return X, gap, pairs


def _commutant_rows(s1: SiteModule, s2: SiteModule):
    """Unscaled rows of K by weight shift, the unknowns' (a, b) and the
    (M, N) coproduct image pairs of all six generators."""
    w1, w2 = s1.rep.weights.real, s2.rep.weights.real
    w_in, w_out = np.add.outer(w1, w2).reshape(-1), np.add.outer(w2, w1).reshape(-1)
    shift = w_out[:, None] - w_in[None, :]
    a, b = np.nonzero(shift == 0)
    by_shift = {}  # rows (i, j) and the (row, unknown) positions of both terms
    for d in set(_WEIGHT_SHIFT.values()):
        i, j = np.nonzero(shift == d)
        by_shift[d] = i, j, np.nonzero(i[:, None] == a), np.nonzero(j[:, None] == b)
    pairs = [(coproduct_image(tag, s1, s2), coproduct_image(tag, s2, s1))
             for tag in GENERATOR_TAGS]
    K = np.zeros((sum(len(by_shift[d][0]) for d in _WEIGHT_SHIFT.values()), len(a)),
                 dtype=complex)
    start = 0
    for tag, (M, N) in zip(GENERATOR_TAGS, pairs):
        if tag in _WEIGHT_SHIFT:
            i, j, (r, k), (r2, k2) = by_shift[_WEIGHT_SHIFT[tag]]
            K[start + r, k] = M[b[k], j[r]]
            K[start + r2, k2] -= N[i[r2], a[k2]]
            start += len(i)
    return K, (a, b), pairs


def _intertwine_residual(Rc, pairs) -> float:
    worst = 0.0
    nr = np.linalg.norm(Rc)
    if nr == 0:
        return np.inf
    for M, N in pairs:
        nm = np.linalg.norm(M)
        if nm == 0:
            continue
        worst = max(worst, float(np.linalg.norm(Rc @ M - N @ Rc) / (nr * nm)))
    return worst


def normalize_hw(Rc_raw: np.ndarray, req: RRequest) -> tuple:
    """Scale so R fixes hw x hw; returns (Rcheck, scalar divided out).

    hw x hw is alone in its weight sector, so R maps it onto its own line;
    raises DegeneratePointError when that component vanishes.
    """
    d1, d2 = req.site1.rep.dim, req.site2.rep.dim
    idx = req.site1.hw_index * d2 + req.site2.hw_index
    c = swap_outputs(Rc_raw, d2, d1)[idx, idx]
    if abs(c) < _HW_TOL * np.linalg.norm(Rc_raw):
        raise DegeneratePointError(
            "highest-weight component vanishes (non-simple spectral point)")
    return Rc_raw / c, c


def _kappa_scalar(req: RRequest) -> complex:
    g = req.site1.rep.grading
    z = (req.site1.zeta / req.site2.zeta) ** g.s
    k = kappa_sl2(req.site1.rep.m, z, req.ctx)
    if req.site1.kind == req.site2.kind:
        if k == 0:
            raise DegeneratePointError("kappa vanishes: pole of the kappa-normalized like pair")
        return 1.0 / k
    return k


def apply_kappa(res: RResult, req: RRequest) -> RResult:
    """Rescale an hw-normalized result by the unitarizing factor.

    Like pairs are divided by kappa, mixed pairs multiplied by it (the
    dual-pair normalization factors are the inverses of the like-pair one).
    """
    k = _kappa_scalar(req)
    return replace(res, R=res.R * k, Rcheck=res.Rcheck * k,
                   norm_scalar_applied=res.norm_scalar_applied * k,
                   cond_ratio=res.cond_ratio if k != 0 else 0.0)


def _solve(req: RRequest) -> RResult:
    Rc_raw, gap, pairs = _raw_nullvector(req)
    if gap < GAP_THRESHOLD:
        raise DegeneratePointError(f"nullspace gap {gap:.3g} below threshold {GAP_THRESHOLD:.1g}")
    Rc, scale = normalize_hw(Rc_raw, req)
    applied = 1.0 / scale
    if req.normalization == "kappa":
        k = _kappa_scalar(req)
        Rc = Rc * k
        applied = applied * k
    sv = np.linalg.svd(Rc, compute_uv=False)
    d1, d2 = req.site1.rep.dim, req.site2.rep.dim
    return RResult(
        R=swap_outputs(Rc, d2, d1),
        Rcheck=Rc,
        nullspace_gap=gap,
        norm_scalar_applied=complex(applied),
        intertwine_residual=_intertwine_residual(Rc, pairs),
        cond_ratio=float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0,
    )


def solve_intertwiner(req: RRequest, cache: RCache = None, check_invertible=True) -> RResult:
    """Solve, normalize and validate the R-operator for a site pair.

    Degenerate spectral points are reported through DegeneratePointError:
    either the nullspace gap collapses, the hw normalization fails, or
    the normalized operator is numerically singular.  The invertibility
    check applies to cached results as well.
    """
    key = req.key()
    res = cache.get(key) if cache is not None else None
    if res is None:
        res = _solve(req)
        if cache is not None:
            cache.put(key, res)
    if check_invertible and res.cond_ratio <= _SINGULAR_TOL:  # rank drop on the resonance lattice
        raise DegeneratePointError(
            f"normalized R is numerically singular (cond ratio {res.cond_ratio:.3g})")
    return res


def make_request(kind1, zeta1, kind2, zeta2, m, grading, ctx, normalization="hw") -> RRequest:
    return RRequest(make_site(kind1, m, grading, ctx, zeta1),
                    make_site(kind2, m, grading, ctx, zeta2), normalization, ctx)


def r_matrix(kind1, zeta1, kind2, zeta2, m, grading, ctx,
             normalization="hw", cache=None, check_invertible=True) -> RResult:
    req = make_request(kind1, zeta1, kind2, zeta2, m, grading, ctx, normalization)
    return solve_intertwiner(req, cache=cache, check_invertible=check_invertible)


def rcheck_resonant(m, grading, ctx) -> np.ndarray:
    """Kappa-normalized Rcheck_{V|V}(q^delta zeta | zeta), the removable resonance.

    Crossing relation (iii) of idsuite.check_crossing at z1 = z2, where
    R(zeta|zeta) = P, gives R = (-1)^m (O^-1 x 1) P^t1 (O x 1) with
    P^t1 = |Omega><Omega|, Omega = sum_i e_i x e_i.  Rcheck = P R is rank
    one and does not depend on zeta.
    """
    d = m + 1
    eye = np.eye(d)
    omega = eye.reshape(-1)
    R = (-1) ** m * np.kron(operator_o_inverse(m, grading, ctx), eye) \
        @ np.outer(omega, omega) @ np.kron(operator_o(m, grading, ctx), eye)
    return swap_outputs(R, d, d)
