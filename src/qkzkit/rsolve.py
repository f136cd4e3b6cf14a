"""R-operators from the intertwining equation, with normalization and caching.

Rcheck maps V1_{z1} x V2_{z2} -> V2_{z2} x V1_{z1} and intertwines the
coproduct actions.  It conserves the h1-weight, so it is found as the
one-dimensional nullspace of the e0/e1/f0/f1 commutant equations on its
weight-conserving entries only (6/19/44/85 unknowns for m = 1..4, against
(m+1)^4 for the full operator).  R = P * Rcheck.

Everything in that system that does not depend on zeta (the two modules,
their hw indices, the unknowns, and the nonzero entries of K and of the
coproduct images, split by zeta power) is a CommutantTemplate, built once
per module pair; a solve only forms K and the images at its zeta pair.
A request (RRequest) holds plain values and builds no module, so a
cache hit costs its key, the lookup and, in kappa mode, one scalar scan.

Normalization modes:
  "hw":    R fixes the product of highest weight vectors.
  "kappa": the hw-normalized operator times kappa^{-1} for like pairs
           (V,V), (V*,V*) and times kappa for mixed pairs.
Each zeta pair is solved once, hw-normalized; a kappa request rescales
that solve.

At zeta1/zeta2 = q^delta the kappa-normalized (V,V) family has a removable
pole that no nullspace solve reaches; rcheck_resonant gives its value in
closed form from the crossing relation.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .context import QContext
from .errors import ConfigError, DegeneratePointError
from .reps import (GENERATOR_TAGS, GradingChoice, coproduct_parts, eval_module, operator_o,
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
    """One R request: plain values only; the modules are built with the template."""

    kind1: str
    zeta1: complex
    kind2: str
    zeta2: complex
    m: int
    grading: GradingChoice
    normalization: str
    ctx: QContext

    def __post_init__(self):
        if self.normalization not in ("hw", "kappa"):
            raise ConfigError("normalization must be 'hw' or 'kappa'")
        for zeta in (self.zeta1, self.zeta2):
            if zeta == 0 or not (math.isfinite(zeta.real) and math.isfinite(zeta.imag)):
                raise ConfigError(f"spectral parameter must be finite and nonzero, got {zeta}")

    def module_key(self):
        """Key of the module pair (kinds, m, grading, q): one CommutantTemplate each."""
        return (self.kind1, self.kind2, self.m, self.grading.s0, self.grading.s1,
                complex(self.ctx.q))

    def key(self):
        """Key of the hw solve at this zeta pair, which serves both normalizations."""
        return self.module_key() + (complex(self.zeta1), complex(self.zeta2),
                                    self.ctx.trunc_terms)


@dataclass(frozen=True)
class RResult:
    R: np.ndarray
    Rcheck: np.ndarray
    nullspace_gap: float
    norm_scalar_applied: complex
    intertwine_residual: float
    cond_ratio: float  # sigma_min / sigma_max of Rcheck; 0 for a zero operator


class CommutantTemplate:
    """The zeta-independent part of the commutant system of one module pair.

    Every coproduct image is zeta1^p A + zeta2^p B (reps.coproduct_parts;
    p = 0 and B = 0 for the Cartans), so each entry of K and of the twelve
    images M, N of the six generators is zeta1^p v1 + zeta2^p v2 with
    fixed v1, v2 and p.  The template holds the unknowns (a, b) and, for K
    and for the stacked images, only the entries where v1 or v2 is
    nonzero: their flat positions, the generator that sets p, and v1, v2.
    Rows of K that are zero for every zeta are left out.  A solve forms K
    and the images by one scatter each.  The template keeps the two modules
    and their hw indices.
    """

    def __init__(self, rep1, rep2):
        self.rep1, self.rep2 = rep1, rep2
        self.hw1, self.hw2 = rep1.hw_index, rep2.hw_index
        w1, w2 = rep1.weights.real, rep2.weights.real
        w_in, w_out = np.add.outer(w1, w2).reshape(-1), np.add.outer(w2, w1).reshape(-1)
        shift = w_out[:, None] - w_in[None, :]
        a, b = np.nonzero(shift == 0)
        self.a, self.b, self.dim = a, b, len(w_in)
        # zeta1 and zeta2 parts of M on V1 x V2 and N on V2 x V1, generator by generator
        one, two, self.exps = [], [], []
        for tag in GENERATOR_TAGS:
            p, A12, B12 = coproduct_parts(tag, rep1, rep2)
            _, A21, B21 = coproduct_parts(tag, rep2, rep1)
            if B12 is None:
                zero = np.zeros_like(A12)
                one += [A12, A21]
                two += [zero, zero]
            else:  # N = zeta2^p A21 + zeta1^p B21
                one += [A12, B21]
                two += [B12, A21]
            self.exps.append(p)
        one, two = np.array(one), np.array(two)
        at = np.flatnonzero((one != 0) | (two != 0))
        self.images = at, at // (2 * self.dim**2), one.reshape(-1)[at], two.reshape(-1)[at]
        # row (i, j) of X M - N X has coefficient M[b, j] at a = i and
        # -N[i, a] at b = j, never both
        rows, cols, gens, v1, v2 = [], [], [], [], []
        start = 0
        for g, tag in enumerate(GENERATOR_TAGS):
            if tag not in _WEIGHT_SHIFT:
                continue
            i, j = np.nonzero(shift == _WEIGHT_SHIFT[tag])
            r, k = np.nonzero(i[:, None] == a)
            r2, k2 = np.nonzero(j[:, None] == b)
            rows += [start + r, start + r2]
            cols += [k, k2]
            gens.append(np.full(len(r) + len(r2), g))
            v1 += [one[2 * g][b[k], j[r]], -one[2 * g + 1][i[r2], a[k2]]]
            v2 += [two[2 * g][b[k], j[r]], -two[2 * g + 1][i[r2], a[k2]]]
            start += len(i)
        v1, v2 = np.concatenate(v1), np.concatenate(v2)
        keep = (v1 != 0) | (v2 != 0)
        used, rows = np.unique(np.concatenate(rows)[keep], return_inverse=True)  # order kept
        self.n_rows = len(used)
        self.entries = (rows * len(a) + np.concatenate(cols)[keep], np.concatenate(gens)[keep],
                        v1[keep], v2[keep])

    def _scatter(self, shape, terms, z1, z2) -> np.ndarray:
        at, gen, v1, v2 = terms
        z1p = np.array([complex(z1) ** p for p in self.exps])
        z2p = np.array([complex(z2) ** p for p in self.exps])
        out = np.zeros(shape, dtype=complex)
        out.reshape(-1)[at] = z1p[gen] * v1 + z2p[gen] * v2
        return out

    def commutant_rows(self, z1, z2) -> np.ndarray:
        """Unscaled rows of K at (zeta1, zeta2)."""
        return self._scatter((self.n_rows, len(self.a)), self.entries, z1, z2)

    def pairs(self, z1, z2) -> tuple:
        """The coproduct images of all six generators, stacked: M on V1 x V2 and
        N on V2 x V1, each of shape (6, D, D)."""
        MN = self._scatter((2 * len(self.exps), self.dim, self.dim), self.images, z1, z2)
        return MN[0::2], MN[1::2]


class RCache:
    """Memoizes hw-normalized solves by request key, and keeps one
    CommutantTemplate per module pair.

    A kappa request reads the hw entry of its zeta pair and rescales it, so
    each zeta pair is solved once; get/put count solves only.
    """

    def __init__(self):
        self._store = {}
        self._templates = {}

    def get(self, key):
        return self._store.get(key)

    def put(self, key, value):
        self._store[key] = value

    def template(self, req: RRequest) -> CommutantTemplate:
        """The commutant template of the request's module pair, built on first use."""
        key = req.module_key()
        if key not in self._templates:
            self._templates[key] = _build_template(req)
        return self._templates[key]

    def clear(self):
        self._store.clear()
        self._templates.clear()


def _build_template(req: RRequest) -> CommutantTemplate:
    return CommutantTemplate(eval_module(req.kind1, req.m, req.grading, req.ctx),
                             eval_module(req.kind2, req.m, req.grading, req.ctx))


def _raw_nullvector(req: RRequest, template: CommutantTemplate):
    """Nullvector of the commutant system on the h1-weight sectors, with the spectral gap.

    Rcheck intertwines Delta(q^{h1}), so it only links equal h1-weights:
    the unknowns are the entries X[a, b] whose output a (in V2 x V1) and
    input b (in V1 x V2) carry the same weight.  On them the Cartan
    equations hold identically.  Each of e0/e1/f0/f1 adds a fixed
    h1-weight (-2, +2, +2, -2), and so do its coproduct images M on
    V1 x V2 and N on V2 x V1; so (X M - N X)[i, j] can only be nonzero
    where w_out(i) - w_in(j) is that shift.  Only those rows enter, in
    row-major (i, j) order, and rows that still vanish are dropped.  The
    coefficient of X[a, b] in row (i, j) is delta_ia M[b, j] - N[i, a] delta_bj.
    The module pair's template holds these entries split by zeta power, so
    here K is one scatter.

    Each row of K is divided by its norm first: zeta^{+-s} and the
    q-numbers spread the rows over many orders of magnitude, and without
    the scaling the gap would be set by rounding.  The nullvector comes
    from the normal equations; the two smallest singular values are
    re-estimated as ||K v|| because squaring pushes them below the
    eigensolver's noise floor, where a two-dimensional nullspace would
    still show a gap of about 1e7.  Spectral parameters so large or small
    that K overflows raise ConfigError.
    """
    D = template.dim
    if D == 1:
        return np.ones((1, 1), dtype=complex), np.inf
    K = template.commutant_rows(req.zeta1, req.zeta2)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.linalg.norm(K, axis=1)
    if not np.isfinite(rows).all():
        raise ConfigError("spectral parameters out of range: the commutant matrix overflows")
    K = K[rows > 0]
    K /= rows[rows > 0, None]  # unit rows; the nullspace is unchanged
    _, V = np.linalg.eigh(K.conj().T @ K)
    sigma_min, sigma_2 = np.linalg.norm(K @ V[:, :2], axis=0)
    gap = float(sigma_2 / max(sigma_min, 1e-300))
    X = np.zeros((D, D), dtype=complex)
    X[template.a, template.b] = V[:, 0]
    return X, gap


def _intertwine_residual(Rc, M, N) -> float:
    """max over generators of ||Rc M - N Rc|| / (||Rc|| ||M||), M and N stacked
    (6, D, D); generators with M = 0 are skipped."""
    nr = np.linalg.norm(Rc)
    if nr == 0:
        return np.inf
    nm = np.linalg.norm(M, axis=(1, 2))
    live = nm != 0
    res = np.linalg.norm(Rc @ M - N @ Rc, axis=(1, 2))
    return float((res[live] / (nr * nm[live])).max(initial=0.0))


def normalize_hw(Rc_raw: np.ndarray, template: CommutantTemplate) -> tuple:
    """Scale so R fixes hw x hw; returns (Rcheck, scalar divided out).

    hw x hw is alone in its weight sector, so R maps it onto its own line;
    raises DegeneratePointError when that component vanishes.  R = P Rcheck,
    so the entry is Rcheck[hw2 x hw1, hw1 x hw2].
    """
    d1, d2 = template.rep1.dim, template.rep2.dim
    c = Rc_raw[template.hw2 * d1 + template.hw1, template.hw1 * d2 + template.hw2]
    if abs(c) < _HW_TOL * np.linalg.norm(Rc_raw):
        raise DegeneratePointError(
            "highest-weight component vanishes (non-simple spectral point)")
    return Rc_raw / c, c


def _kappa_scalar(req: RRequest) -> complex:
    z = (req.zeta1 / req.zeta2) ** req.grading.s
    k = kappa_sl2(req.m, z, req.ctx)
    if req.kind1 == req.kind2:
        if k == 0:
            raise DegeneratePointError("kappa vanishes: pole of the kappa-normalized like pair")
        return 1.0 / k
    return k


def apply_kappa(res: RResult, req: RRequest) -> RResult:
    """Rescale an hw-normalized result by the unitarizing factor.

    Like pairs are divided by kappa, mixed pairs multiplied by it (the
    dual-pair normalization factors are the inverses of the like-pair one).
    The nullspace gap, the residual and the condition ratio do not depend
    on the scale; at kappa = 0 the operator is zero, with residual inf and
    condition ratio 0.
    """
    k = _kappa_scalar(req)
    return replace(res, R=res.R * k, Rcheck=res.Rcheck * k,
                   norm_scalar_applied=res.norm_scalar_applied * k,
                   intertwine_residual=res.intertwine_residual if k != 0 else np.inf,
                   cond_ratio=res.cond_ratio if k != 0 else 0.0)


def _solve(req: RRequest, template: CommutantTemplate) -> RResult:
    """The hw-normalized result at the request's zeta pair."""
    Rc_raw, gap = _raw_nullvector(req, template)
    if gap < GAP_THRESHOLD:
        raise DegeneratePointError(f"nullspace gap {gap:.3g} below threshold {GAP_THRESHOLD:.1g}")
    Rc, scale = normalize_hw(Rc_raw, template)
    sv = np.linalg.svd(Rc, compute_uv=False)
    return RResult(
        R=swap_outputs(Rc, template.rep2.dim, template.rep1.dim),
        Rcheck=Rc,
        nullspace_gap=gap,
        norm_scalar_applied=complex(1.0 / scale),
        intertwine_residual=_intertwine_residual(Rc, *template.pairs(req.zeta1, req.zeta2)),
        cond_ratio=float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0,
    )


def solve_intertwiner(req: RRequest, cache: RCache = None, check_invertible=True) -> RResult:
    """Solve, normalize and validate the R-operator for a site pair.

    The hw-normalized solve is cached per zeta pair and serves both
    normalizations; a kappa request rescales it by apply_kappa.
    Degenerate spectral points are reported through DegeneratePointError:
    either the nullspace gap collapses, the hw normalization fails, kappa
    has a pole, or the normalized operator is numerically singular.  The
    invertibility check applies to cached results as well.
    """
    key = req.key()
    res = cache.get(key) if cache is not None else None
    if res is None:
        template = cache.template(req) if cache is not None else _build_template(req)
        res = _solve(req, template)
        if cache is not None:
            cache.put(key, res)
    if req.normalization == "kappa":
        res = apply_kappa(res, req)
    if check_invertible and res.cond_ratio <= _SINGULAR_TOL:  # rank drop on the resonance lattice
        raise DegeneratePointError(
            f"normalized R is numerically singular (cond ratio {res.cond_ratio:.3g})")
    return res


def make_request(kind1, zeta1, kind2, zeta2, m, grading, ctx, normalization="hw") -> RRequest:
    return RRequest(kind1, complex(zeta1), kind2, complex(zeta2), m, grading, normalization, ctx)


def r_matrix(kind1, zeta1, kind2, zeta2, m, grading, ctx,
             normalization="hw", cache=None, check_invertible=True) -> RResult:
    req = make_request(kind1, zeta1, kind2, zeta2, m, grading, ctx, normalization)
    return solve_intertwiner(req, cache=cache, check_invertible=check_invertible)


def rcheck_resonant(m, grading, ctx) -> np.ndarray:
    """Kappa-normalized Rcheck_{V|V}(q^delta zeta | zeta), the removable resonance.

    Crossing relation (iii) of idsuite.check_crossing at z1 = z2, where
    R(zeta|zeta) = P, gives R = (-1)^m (O^-1 x 1) |Omega><Omega| (O x 1),
    Omega = sum_i e_i x e_i, the outer product (-1)^m vec(O^-1) vec(O^t)^t
    (row-major vec).  Rcheck = P R is rank one and does not depend on zeta.
    """
    d = m + 1
    R = (-1) ** m * np.outer(operator_o_inverse(m, grading, ctx).reshape(-1),
                             operator_o(m, grading, ctx).T.reshape(-1))
    return swap_outputs(R, d, d)
