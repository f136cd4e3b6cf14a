"""R-operators from the intertwining equation, with normalization and caching.

Rcheck maps V1_{z1} x V2_{z2} -> V2_{z2} x V1_{z1} and intertwines the
coproduct actions.  It conserves the h1-weight, so it lives on the
weight-conserving entries only (6/19/44/85 unknowns for m = 1..4, against
(m+1)^4 for the full operator).  R = P * Rcheck.

A diagonal gauge zeta^{c h1/2} on each site moves grading (s0, s1) to a
homogeneous one, (s, 0) or (0, s), where one e/f pair carries no zeta.
The commutant of that pair is the same for every zeta pair, and V x V is
multiplicity-free under the U_q(sl2) it generates, so the commutant has
an m+1 column basis B, built once from highest-weight vectors: Rcheck is
sum_j c_j B_j, one coefficient per component.  The other pair's lowering
generator links neighbouring components only (the tensor product graph
method: Jimbo, Commun. Math. Phys. 102 (1986) 537; Delius, Gould and
Zhang, Nucl. Phys. B 432 (1994) 377), so c_{j+1} / c_j = beta_j / alpha_j
with alpha_j and beta_j of the form zeta1^p a + zeta2^p b, a and b
numbers of the template.  Each c_j is a product of ratios with full
relative accuracy, and c_0 = 1 fixes hw x hw.  A ratio whose two terms
cancel marks a degenerate point.  The intertwining residual still checks
the full Rcheck against all six generators at the request's grading.

Everything that does not depend on zeta (the two modules, their hw
indices, the unknowns, the entries of the coproduct images split by zeta
power, and per homogeneous frame B and the ratio numbers a, b) is a
CommutantTemplate, built once per (kinds, m, q) and shared by every
grading; kappa and the gauge depend on the grading, so solves are keyed
by it.  A request (RRequest) holds plain values and builds no module, so
a cache hit costs its key and the lookup.

solve_intertwiner takes a sequence of requests and returns their results
in order; r_matrix is the call for one request.  The misses of a call
are solved as stacks, one per module pair and grading: the ratios, their
products and the gauge scatter, then the intertwining residual.  A call
raises the error of its first failing request, the one that request
raises alone.

Normalization modes:
  "hw":    R fixes the product of highest weight vectors.
  "kappa": the hw-normalized operator times kappa^{-1} for like pairs
           (V,V), (V*,V*) and times kappa for mixed pairs.
Each zeta pair is solved once, hw-normalized; a kappa request rescales
that solve, with the kappa scalar scanned once per zeta pair.

At zeta1/zeta2 = q^delta the kappa-normalized (V,V) family has a removable
pole that no nullspace solve reaches; rcheck_resonant gives its value in
closed form from the crossing relation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .context import QContext
from .errors import ConfigError, DegeneratePointError, QkzError
from .reps import (GENERATOR_TAGS, GradingChoice, coproduct_parts, eval_module, operator_o,
                   operator_o_inverse)
from .scalars import kappa_sl2
from .tensorops import swap_outputs

GAP_THRESHOLD = 1e6
# |alpha| / (|zeta1^p a| + |zeta2^p b|) below this cancels (the same for beta)
_CANCEL_TOL = 1e-8
# frame -> ((raising, lowering) image of its zeta-free pair, lowering row generator),
# as GENERATOR_TAGS indices: frame 1 is e1/f1 zeta-free and rows e0; frame 0 is
# e0/f0 zeta-free (f0 raises) and rows f1
_FRAMES = {1: ((1, 3), 0), 0: ((2, 0), 3)}


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
        """Key of the module pair (kinds, m, q): one CommutantTemplate for every grading."""
        return self.kind1, self.kind2, self.m, complex(self.ctx.q)

    def key(self):
        """Key of the solve at this grading and zeta pair, which serves both
        normalizations (kappa and the gauge depend on the grading)."""
        return self.module_key() + (self.grading.s0, self.grading.s1, complex(self.zeta1),
                                    complex(self.zeta2), self.ctx.trunc_terms)


@dataclass(frozen=True)
class RResult:
    R: np.ndarray
    Rcheck: np.ndarray
    # smallest |alpha_j| or |beta_j| relative to its two terms; 1 at m = 0, 0 at kappa = 0
    margin: float
    norm_scalar_applied: complex
    intertwine_residual: float


def _powers(bases, exps, errors) -> list:
    """bases[i][b] ** p for each p in exps[i]: one (B, len(exps[i])) array per base,
    for stacks bases[i] of B complex numbers.

    A request b with a power that overflows (or that underflows to 0 under
    a negative power) gets a ConfigError in errors[b] that names its first
    such base, unless it already has an error, and all its powers read 0.
    """
    width = max(len(e) for e in exps)
    table = np.array([[*e, *[0] * (width - len(e))] for e in exps], dtype=float)
    with np.errstate(all="ignore"):
        out = np.array(bases)[:, :, None] ** table[:, None, :]
    if not np.isfinite(out).all():
        bad = ~np.isfinite(out).all(axis=2)
        for b, i in zip(*np.nonzero(bad.T)):
            z = complex(bases[i][b])
            errors[b] = errors[b] or ConfigError(
                f"spectral parameters out of range: a power of {z:.3g} overflows")
        out[:, bad.any(axis=0)] = 0
    return [out[i, :, :len(e)] for i, e in enumerate(exps)]


def _chain_kernels(A):
    """Kernel vectors of a stack of j x (j+1) matrices whose row r is nonzero only at
    columns r, r+1.

    x_0 = 1 and x_{r+1} = -x_r A[r, r] / A[r, r+1], so every entry is a
    product and keeps its relative accuracy however small it is.  A kernel
    that is not one-dimensional (a vanishing A[r, r+1], or the gap
    sigma_j / (|A x|_max / |x|_max) below GAP_THRESHOLD; the residual also
    catches an A of another shape) raises DegeneratePointError.
    """
    n, j = A.shape[:2]
    x = np.ones((n, j + 1), dtype=complex)
    if j == 0:
        return x
    r = np.arange(j)
    diagonal, pivots = A[:, r, r], A[:, r, r + 1]
    gap = 0.0
    if pivots.all():
        for k in r:
            x[:, k + 1] = -x[:, k] * diagonal[:, k] / pivots[:, k]
        sigma_j = np.linalg.svd(A, compute_uv=False)[:, -1]
        residual = np.abs((A @ x[:, :, None])[:, :, 0]).max(axis=1) / np.abs(x).max(axis=1)
        with np.errstate(over="ignore"):
            gap = (sigma_j / np.maximum(residual, 1e-300)).min()
    if not gap >= GAP_THRESHOLD:
        raise DegeneratePointError(f"nullspace gap {gap:.3g} below threshold "
                                   f"{GAP_THRESHOLD:.1g} (highest-weight vectors)")
    return x


def _sector(w, first, weight):
    """Basis indices of a weight sector, by the first factor's weight, descending.

    first is monotonic in the flat index (row-major over the two factors),
    so the sector's indices come in that order or reversed.
    """
    idx = np.flatnonzero(w == weight)
    return idx if len(idx) < 2 or first[idx[0]] > first[idx[-1]] else idx[::-1]


def _commutant_basis(in_ops, out_ops, m, a, b) -> tuple:
    """Basis B (unknowns x (m+1)) of the maps V1 x V2 -> V2 x V1 that commute
    with a zeta-free e/f pair, one column per component, and the
    highest-weight vectors with their dual rows.

    in_ops and out_ops are (E, F, w, first) on V1 x V2 and on V2 x V1: the
    image E that raises the h1-weight by 2 and the image F that lowers it
    (Delta(e1), Delta(f1) in frame 1; Delta(f0), Delta(e0) in frame 0), the
    h1-weights and the weight of the first tensor factor.  Ordered by the
    first factor's weight, the weight-sector blocks of E and of F^t are
    two-diagonal (_chain_kernels).  Column j maps F^k v_j to F^k v'_j and
    kills the other components: v_j and v'_j are the highest-weight vectors
    of weight 2m-2j (the kernels of E on that sector), lowered without
    rescaling.  Its dual rows y_j E^k / <y_j E^k, F^k v_j>, y_j the left
    kernel of F on that sector, take the place of S^-1 for the matrix S of
    lowered vectors, so on the sector of weight 2m-2j-2k the column is
    (F^k v'_j)[a] y_jk[b]: one product per entry and no inverse, so every
    entry keeps its relative accuracy through the gauge.  Column 0 is 1 at
    hw x hw, alone in its sector.

    Also returns (v, v', y, y') at k = 0, column j of each for component j:
    y_j and y'_j the dual rows on V1 x V2 and on V2 x V1, scaled so that
    y_j v_j = y'_j v'_j = 1.
    """
    (E, F, w, first), (E2, F2, w2, first2) = in_ops, out_ops
    v, v2, y, y2 = np.zeros((4, len(w), m + 1), dtype=complex)  # column j: component j
    for j in range(m + 1):
        s_in, up_in = _sector(w, first, 2 * (m - j)), _sector(w, first, 2 * (m - j) + 2)
        s_out, up_out = _sector(w2, first2, 2 * (m - j)), _sector(w2, first2, 2 * (m - j) + 2)
        v[s_in, j], v2[s_out, j], y[s_in, j], y2[s_out, j] = _chain_kernels(
            np.stack([E[up_in[:, None], s_in], E2[up_out[:, None], s_out],
                      F[s_in[:, None], up_in].T, F2[s_out[:, None], up_out].T]))
    top = v, v2, y / (y * v).sum(axis=0), y2 / (y2 * v2).sum(axis=0)
    # lower all components at once; component j ends after 2(m-j) steps, where
    # the lowered vectors vanish up to rounding
    lowered, dual = [], []
    for k in range(2 * m + 1):
        lowered.append(v2[a])
        with np.errstate(divide="ignore", invalid="ignore"):
            dual.append(np.where(k <= 2 * (m - np.arange(m + 1)), y[b] / (y * v).sum(axis=0), 0))
        v, v2, y = F @ v, F2 @ v2, E.T @ y
    return np.einsum("kuj,kuj->uj", lowered, dual), top


class _Frame:
    """The solve data of one homogeneous grading of a module pair.

    Frame 1 is grading (s, 0), where e1 and f1 carry no zeta; frame 0 is
    (0, s), where e0 and f0 carry none.  A frame holds `basis`, B: the m+1
    columns of the commutant of its zeta-free pair (_commutant_basis), and
    `ratios` (2 x 2 x m), the numbers ((a_j, b_j), (a'_j, b'_j)) of its
    component ratios.  Its lowering row generator (e0 at grade s in frame
    1, f1 at grade -s in frame 0) has images M on V1 x V2 and N on V2 x V1.
    Apply X M = N X to v_j and pair with y'_{j+1}: M v_j has weight
    2m-2j-2, and y_{j+1}, y'_{j+1} kill the lowered vectors of components
    <= j, so for Rcheck = sum_j c_j B_j only two terms survive,
    c_{j+1} alpha_j = c_j beta_j with
        alpha_j = y_{j+1} M v_j   = zeta1^p a_j  + zeta2^p b_j,
        beta_j  = y'_{j+1} N v'_j = zeta1^p a'_j + zeta2^p b'_j.
    """

    def __init__(self, t, frame: int):
        parts = t.dense_parts()
        (raise_, lower), g = _FRAMES[frame]
        # zeta-free pair: the sum of the two parts; M on V1 x V2 at 2g, N on V2 x V1 at 2g + 1
        E, E2, F, F2 = parts[:, [2 * raise_, 2 * raise_ + 1, 2 * lower, 2 * lower + 1]].sum(0)
        w1, w2, m = t.rep1.weights.real, t.rep2.weights.real, t.rep1.m
        self.basis, (v, v2, y, y2) = _commutant_basis(
            (E, F, t.w_in, np.repeat(w1, t.rep2.dim)),
            (E2, F2, t.w_out, np.repeat(w2, t.rep1.dim)), m, t.a, t.b)
        # zeta1 and zeta2 parts of M and N: (2, D, D) each
        M, N = parts[:, 2 * g], parts[:, 2 * g + 1]
        self.ratios = np.stack((np.einsum("uj,puv,vj->pj", y[:, 1:], M, v[:, :-1]),
                                np.einsum("uj,puv,vj->pj", y2[:, 1:], N, v2[:, :-1])))


class CommutantTemplate:
    """The zeta-independent part of the commutant system of one module pair.

    Every coproduct image is zeta1^p A + zeta2^p B (reps.coproduct_parts;
    p = 0 and B = 0 for the Cartans), and only p depends on the grading, so
    one template serves every grading of (kinds, m, q).  It holds the two
    modules, the unknowns (a, b) with the gauge exponent of each plus m
    (half the h1-weight of the V1 factor of the output a minus that of the
    input b), the entries of the zeta parts of the twelve images M, N of
    the six generators, and the solve data of each homogeneous frame
    (_Frame: B and its ratio numbers), built on first use.
    """

    def __init__(self, rep1, rep2):
        self.rep1, self.rep2 = rep1, rep2
        w1, w2 = rep1.weights.real, rep2.weights.real
        self.w_in = np.add.outer(w1, w2).reshape(-1)
        self.w_out = np.add.outer(w2, w1).reshape(-1)
        a, b = np.nonzero(self.w_out[:, None] == self.w_in[None, :])
        self.a, self.b, self.dim = a, b, len(self.w_in)
        self.gauge = np.rint((w1[a % rep1.dim] - w1[b // rep2.dim]) / 2 + rep1.m).astype(int)
        # zeta1 and zeta2 parts of M on V1 x V2 and N on V2 x V1, generator by generator
        one, two = [], []
        for tag in GENERATOR_TAGS:
            _, A12, B12 = coproduct_parts(tag, rep1, rep2)
            _, A21, B21 = coproduct_parts(tag, rep2, rep1)
            if B12 is None:
                zero = np.zeros_like(A12)
                one += [A12, A21]
                two += [zero, zero]
            else:  # N = zeta2^p A21 + zeta1^p B21
                one += [A12, B21]
                two += [B12, A21]
        one, two = np.array(one), np.array(two)
        at = np.flatnonzero((one != 0) | (two != 0))
        self.images = at, at // (2 * self.dim**2), one.reshape(-1)[at], two.reshape(-1)[at]
        self._frames = {}

    def dense_parts(self) -> np.ndarray:
        """The zeta1 and zeta2 parts of the images, (2, 12, D, D): M, N per generator."""
        at, _, v1, v2 = self.images
        parts = np.zeros((2, 2 * len(GENERATOR_TAGS) * self.dim**2), dtype=complex)
        parts[0, at], parts[1, at] = v1, v2
        return parts.reshape(2, 2 * len(GENERATOR_TAGS), self.dim, self.dim)

    def frame(self, frame: int) -> _Frame:
        """Frame 1 (e1, f1 zeta-free) or 0 (e0, f0 zeta-free), built on first use."""
        if frame not in self._frames:
            self._frames[frame] = _Frame(self, frame)
        return self._frames[frame]

    def pairs(self, z1p, z2p) -> tuple:
        """The coproduct images of all six generators for a stack of zeta pairs,
        from zeta1^p and zeta2^p (B, 6) at each generator's grade p (GENERATOR_TAGS
        order): M on V1 x V2 and N on V2 x V1, each of shape (B, 6, D, D)."""
        at, gen, v1, v2 = self.images
        MN = np.zeros((len(z1p), 2 * len(GENERATOR_TAGS), self.dim, self.dim), dtype=complex)
        MN.reshape(len(z1p), -1)[:, at] = z1p[:, gen] * v1 + z2p[:, gen] * v2
        return MN[:, 0::2], MN[:, 1::2]


class RCache:
    """Memoizes solves by request key, and keeps one CommutantTemplate per
    module pair.

    The entry of a zeta pair holds its hw-normalized result and, once a
    kappa request has asked for it, its kappa scalar, so each zeta pair is
    solved and kappa-scanned once; get/put count solves only.
    """

    def __init__(self):
        self._store = {}
        self._templates = {}

    def get(self, key):
        """The entry {"hw": RResult, "kappa": scalar once scanned} of a zeta pair, or None."""
        return self._store.get(key)

    def put(self, key, value):
        """Store the hw-normalized result of a zeta pair; returns its new entry."""
        entry = self._store[key] = {"hw": value}
        return entry

    def template(self, req: RRequest) -> CommutantTemplate:
        """The commutant template of the request's module pair, built on first use."""
        key = req.module_key()
        if key not in self._templates:
            grading = GradingChoice(1, 0)  # the module matrices do not depend on it
            self._templates[key] = CommutantTemplate(
                eval_module(req.kind1, req.m, grading, req.ctx),
                eval_module(req.kind2, req.m, grading, req.ctx))
        return self._templates[key]

    def clear(self):
        self._store.clear()
        self._templates.clear()


def _raw_nullvector(reqs, template: CommutantTemplate) -> tuple:
    """The hw-normalized nullvectors of the commutant systems, with the
    relative size of each component ratio's terms, for a stack of requests
    at one module pair and grading.

    Rcheck intertwines Delta(q^{h1}), so it only links equal h1-weights:
    the unknowns are the entries X[a, b] whose output a (in V2 x V1) and
    input b (in V1 x V2) carry the same weight, and on them the Cartan
    equations hold identically.

    A diagonal gauge G = zeta^{c h1 / 2} on each site takes grading (s0, s1)
    to a homogeneous one: to (s, 0) with c = s1 (frame 1), or to (0, s)
    with c = -s0 (frame 0); the frame with the smaller |c| is used.  Rcheck
    at (s0, s1) is Rcheck in the frame with entry [a, b] times
    (zeta1/zeta2)^{c k}, k = (w1(a) - w1(b))/2 an integer in [-m, m], w1
    the h1-weight of the V1 factor; the 2m+1 powers are formed once per
    request.  In the frame, Rcheck = sum_j c_j B_j with the coefficients
    of normalize_hw, from the ratios beta_j / alpha_j of the frame's
    numbers (_Frame) at p = s in frame 1 and p = -s in frame 0.

    Returns (X, rel, errors, grades): X (B, D, D); rel (B, 2, m), the
    moduli |alpha_j| and |beta_j| over the sums of the moduli of their two
    terms, read as 0 or NaN where they cancel or vanish; errors[b] the
    ConfigError of request b or None, for a zeta power that overflows; and
    zeta1^p, zeta2^p (B, 6) at the grade p of each generator, which the
    intertwining residual reads.
    """
    B, D = len(reqs), template.dim
    errors = [None] * B
    g, m = reqs[0].grading, reqs[0].m
    z1 = np.array([req.zeta1 for req in reqs])
    z2 = np.array([req.zeta2 for req in reqs])
    if g.s1 <= g.s0:  # gauge to (s, 0)
        frame, c, p = 1, g.s1, g.s
    else:  # gauge to (0, s)
        frame, c, p = 0, -g.s0, -g.s
    grades = (g.s0, g.s1, -g.s0, -g.s1, 0, 0)  # of e0, e1, f0, f1, qh0, qh1 (GENERATOR_TAGS)
    gauge, p1, p2 = _powers((z1 / z2, z1, z2), ([c * k for k in range(-m, m + 1)],
                                                 (p, *grades), (p, *grades)), errors)
    if D == 1:
        return np.ones((B, 1, 1), dtype=complex), np.ones((B, 2, 0)), errors, (p1[:, 1:], p2[:, 1:])
    fr = template.frame(frame)
    with np.errstate(all="ignore"):
        # (B, 2, 2, m): the terms ((zeta1^p a, zeta2^p b), (zeta1^p a', zeta2^p b'))
        terms = fr.ratios * np.stack((p1[:, 0], p2[:, 0]), axis=1)[:, None, :, None]
        alpha_beta = terms.sum(axis=2)
        rel = np.abs(alpha_beta) / np.abs(terms).sum(axis=2)
        coef = normalize_hw(alpha_beta[:, 1] / alpha_beta[:, 0])
        X = np.zeros((B, D, D), dtype=complex)
        # an elementwise sum (not a matrix product), so a request's bits do not depend on B
        X[:, template.a, template.b] = \
            gauge[:, template.gauge] * np.einsum("uj,bj->bu", fr.basis, coef)
    return X, rel, errors, (p1[:, 1:], p2[:, 1:])


def _norms(A) -> np.ndarray:
    """Frobenius norms of a stack of complex matrices over its last two axes
    (each row contiguous), summed in place over the float view: no
    temporary of A's size."""
    v = A.view(float)
    return np.sqrt(np.einsum("...ij,...ij->...", v, v))


# complex entries of the image stack that the intertwining residual forms at once
_IMAGE_ENTRIES = 1 << 12


def _intertwine_residuals(Rc, z1p, z2p, template) -> np.ndarray:
    """max over generators of ||Rc M - N Rc|| / (||Rc|| ||M||) for each operator
    of the stack Rc (B, D, D), from zeta1^p and zeta2^p (B, 6) at the grades.

    The images of all six generators are formed for blocks of requests
    that keep them within _IMAGE_ENTRIES entries (one request at least), so
    the temporaries do not grow with B; generators with M = 0 are skipped,
    a zero Rc reads inf, and an image that overflows reads inf or NaN.
    """
    B, D = Rc.shape[:2]
    rows = max(1, _IMAGE_ENTRIES // (len(GENERATOR_TAGS) * D * D))
    worst = np.empty(B)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for r in range(0, B, rows):
            block = Rc[r:r + rows, None]
            M, N = template.pairs(z1p[r:r + rows], z2p[r:r + rows])
            nr, nm = _norms(block), _norms(M)
            res = _norms(block @ M - N @ block)
            worst[r:r + rows] = np.where(nm != 0, res / (nr * nm), 0.0).max(axis=1)
            worst[r:r + rows][nr[:, 0] == 0] = np.inf
    return worst


def normalize_hw(ratios) -> np.ndarray:
    """The coefficients (B, m+1) of the hw-normalized Rcheck on the frame's
    basis columns, from the component ratios c_{j+1} / c_j (B, m).

    Column 0 is 1 at hw x hw and its gauge power there is 1, so c_0 = 1
    makes R fix hw x hw; every other c_j is a product of ratios, so the
    normalization divides by no computed small number.
    R = P Rcheck, so the entry is Rcheck[hw2 x hw1, hw1 x hw2].
    """
    return np.cumprod(np.concatenate((np.ones((len(ratios), 1)), ratios), axis=1), axis=1)


def _kappa_scalar(req: RRequest) -> complex:
    errors = [None]
    z = _powers(([req.zeta1 / req.zeta2],), ((req.grading.s,),), errors)[0][0, 0]
    if errors[0] is not None:
        raise errors[0]
    k = kappa_sl2(req.m, complex(z), req.ctx)
    if req.kind1 == req.kind2:
        if k == 0:
            raise DegeneratePointError("kappa vanishes: pole of the kappa-normalized like pair")
        return 1.0 / k
    return k


def apply_kappa(res: RResult, req: RRequest, k: complex = None) -> RResult:
    """Rescale an hw-normalized result by the unitarizing factor k, scanned
    from the request unless given.

    Like pairs are divided by kappa, mixed pairs multiplied by it (the
    dual-pair normalization factors are the inverses of the like-pair one).
    The margin and the residual do not depend on the scale; at kappa = 0
    the operator is zero, with residual inf and margin 0.
    """
    if k is None:
        k = _kappa_scalar(req)
    return RResult(R=res.R * k, Rcheck=res.Rcheck * k,
                   margin=res.margin if k != 0 else 0.0,
                   norm_scalar_applied=res.norm_scalar_applied * k,
                   intertwine_residual=res.intertwine_residual if k != 0 else np.inf)


def _solve(reqs, template: CommutantTemplate) -> list:
    """The hw-normalized results of a stack of requests at one module pair and
    grading: per request an RResult, or the error it raises alone.

    A ratio index j where alpha_j and beta_j both cancel leaves c_{j+1} free
    (a wider nullspace); alpha_j alone makes the hw component vanish; beta_j
    alone makes R singular, which solve_intertwiner reports.  An operator
    or generator image that overflows, so that the intertwining residual is
    not finite, is a ConfigError.
    """
    X, rel, errors, (z1p, z2p) = _raw_nullvector(reqs, template)
    cancel = ~(rel >= _CANCEL_TOL)  # NaN cancels
    for k in range(len(reqs)):
        both = np.flatnonzero(cancel[k].all(axis=0))
        if len(both):
            errors[k] = errors[k] or DegeneratePointError(
                f"nullspace gap: component ratio {both[0]} is 0/0 "
                f"(terms cancel below {_CANCEL_TOL:.1g})")
        elif cancel[k, 0].any():
            errors[k] = errors[k] or DegeneratePointError(
                "highest-weight component vanishes (non-simple spectral point)")
    failed = [k for k, e in enumerate(errors) if e is not None]
    X[failed], z1p[failed], z2p[failed] = 0, 0, 0  # not checked: their images may overflow
    residual = _intertwine_residuals(X, z1p, z2p, template)
    for k in np.flatnonzero(~np.isfinite(residual)):
        errors[k] = errors[k] or ConfigError(
            "spectral parameters out of range: the operator or a generator image overflows")
    margin = rel.min(axis=(1, 2), initial=1.0)
    d1, d2 = template.rep1.dim, template.rep2.dim
    return [errors[k] or RResult(
        R=swap_outputs(X[k], d2, d1),
        Rcheck=X[k],
        margin=float(margin[k]),
        norm_scalar_applied=1.0,
        intertwine_residual=float(residual[k]),
    ) for k in range(len(reqs))]


def solve_intertwiner(reqs, cache: RCache = None, check_invertible=True) -> list:
    """Solve, normalize and validate the R-operators of a sequence of requests;
    returns their results in order.

    Each request takes one RCache.get: the first request of each key
    before the solve, a repeated key once its first request is stored, so
    hits and misses are those of the requests passed one by one.  The
    misses are solved once per key, one stack per module pair and grading
    (_solve).  The hw-normalized solve is cached per zeta pair and serves
    both normalizations; a kappa request rescales it by apply_kappa, with
    the kappa scalar scanned once per zeta pair and kept in the pair's
    entry.  Degenerate spectral points are reported through
    DegeneratePointError: the two terms of a component ratio cancel in its
    numerator and denominator ("nullspace gap") or in its denominator alone
    ("highest-weight component vanishes"), or kappa has a pole; with
    check_invertible also in its numerator alone, or kappa vanishes (the
    normalized operator is numerically singular).  The invertibility check
    applies to cached results as well.  The call raises the error of its first failing
    request, the one that request raises alone; the requests before it are
    stored, those after it are not.  Without a cache the call goes through
    a fresh RCache, so nothing carries over between uncached calls.
    """
    if cache is None:
        cache = RCache()
    keys = [req.key() for req in reqs]
    first = {}  # key -> index of its first request
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    entries = {key: cache.get(key) for key in first}
    groups = {}
    for key, i in first.items():
        if entries[key] is None:
            groups.setdefault((reqs[i].module_key(), reqs[i].grading), []).append(i)
    solved = {}
    for idx in groups.values():
        stack = [reqs[i] for i in idx]
        try:
            results = _solve(stack, cache.template(stack[0]))
        except QkzError as exc:  # the module pair or its frame fails every request
            results = [exc] * len(stack)
        solved.update(zip((keys[i] for i in idx), results))
    out = []
    for i, (req, key) in enumerate(zip(reqs, keys)):
        if first[key] != i:
            entry = cache.get(key)
        elif entries[key] is None:
            if isinstance(solved[key], QkzError):
                raise solved[key]
            entry = cache.put(key, solved[key])
        else:
            entry = entries[key]
        res = entry["hw"]
        if req.normalization == "kappa":
            if "kappa" not in entry:  # the first kappa request at this zeta pair
                entry["kappa"] = _kappa_scalar(req)
            res = apply_kappa(res, req, entry["kappa"])
        # a stored result's alpha_j do not cancel, so a small margin is a beta_j or kappa = 0
        if check_invertible and res.margin < _CANCEL_TOL:
            raise DegeneratePointError(
                f"normalized R is numerically singular (margin {res.margin:.3g})")
        out.append(res)
    return out


def make_request(kind1, zeta1, kind2, zeta2, m, grading, ctx, normalization="hw") -> RRequest:
    return RRequest(kind1, complex(zeta1), kind2, complex(zeta2), m, grading, normalization, ctx)


def r_matrix(kind1, zeta1, kind2, zeta2, m, grading, ctx,
             normalization="hw", cache=None, check_invertible=True) -> RResult:
    """The result of one request (solve_intertwiner of a single request)."""
    req = make_request(kind1, zeta1, kind2, zeta2, m, grading, ctx, normalization)
    return solve_intertwiner([req], cache=cache, check_invertible=check_invertible)[0]


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
