"""R-operators from the intertwining equation, with normalization.

Rcheck maps V1_{z1} x V2_{z2} -> V2_{z2} x V1_{z1} and intertwines the
coproduct actions.  It conserves the h1-weight, so it lives on the
weight-conserving entries only (6/19/44/85 unknowns for m = 1..4, against
(m+1)^4 for the full operator).  A solve stores those entries alone
(44 of 256 at m = 3, 1469 of 28561 at m = 12); RResult forms the dense
Rcheck, and R = P * Rcheck, on each read.

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
the full Rcheck against the four e/f generators at the request's grading.

Everything that does not depend on zeta (the modules V and V*, and for
the four module pairs (V,V), (V,V*), (V*,V) and (V*,V*) of a spin the
unknowns, the entries of the coproduct images split by zeta power, and
per homogeneous frame B and the ratio numbers a, b) is a
CommutantTemplate, built once per spin (m, q) and shared by every
grading and module pair: its per-pair data lie on a leading pair axis
(PAIRS), and a frame is built for all four pairs in one stacked pass.
Kappa and the gauge depend on the grading, so solves are keyed by it.  A
request (RRequest) and a result (RResult) are tuples of plain values, made
at the cost of a tuple, and a request builds no module.  RCache keeps the
templates, and only them, across solve_requests calls; a solved result
lives in the call that solved it.

solve_requests returns each request's result or the error that it raises
alone, and raises nothing, also far out on the q-disk.  Isolation stays
per module pair: the stacked pass runs with numpy's floating-point errors
off, and a pair whose data are not finite (a FloatingPointError) or
whose highest-weight kernels fail the gap test (a DegeneratePointError)
fails its own requests alone; a template build, a stack or a kappa call
that raises an arithmetic error fails the requests of its spin, its
stack or its call.  The read rule read_result raises a copy of a stored
error or refuses a singular operator.  solve_intertwiner is the rule over
one solve_requests call, and r_matrix its call for one request (which
builds the template of its whole spin).  The distinct module and zeta
pairs of a call are solved as stacks, one per spin, q and grading, which
covers every module pair of that spin (a reduction check reads all four):
each request reads its own pair's slice of the template by index, for
the ratios, their products and the gauged entries, then the intertwining
residual, which forms the dense operators block by block.  At the suite's
sizes a call costs mostly its fixed part (2 cores, one BLAS thread, the
template built: about 0.27 ms for one kappa request at m = 3, 0.13 ms of
it the stack and 0.09 ms the kappa call, against about 0.04 ms for each
further request of the same stack, of any module pair; 0.35 ms for 12
kappa requests at m = 1), so a `suite` run makes one solve_requests call
(`qkz.solve_records`) for the records of all its check groups, which read
their factors through its factor reader (`suite --m 3`: 3 templates, 3
stacks and one kappa call, the lattice probes of degenerate_detection
among them).  A stack forms each
request's Rcheck elementwise, its basis columns summed in a fixed order,
and a kappa call is elementwise numpy arithmetic, so each of its rows
keeps the bits of a one-row call: a result does not depend on the call
that solved it.

Normalization modes:
  "hw":    R fixes the product of highest weight vectors.
  "kappa": the hw-normalized operator times kappa^{-1} for like pairs
           (V,V), (V*,V*) and times kappa for mixed pairs.
Each zeta pair of a call is solved once, hw-normalized; a kappa request
reads that solve times its kappa scalar, and the product is formed on
each read.  The zeta pairs of one call that need a kappa scalar share one
kappa_sl2 call per (s, m, q).

At zeta1/zeta2 = q^delta the kappa-normalized (V,V) family has a removable
pole that no nullspace solve reaches; rcheck_resonant gives its value in
closed form from the crossing relation.
"""

import cmath
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import (NUMERICAL_ERRORS, ConfigError, DegeneratePointError, ScalarDomainError,
                     copy_error)
from .reps import (GradingChoice, coproduct_parts, eval_module, operator_o,
                   operator_o_inverse)
from .scalars import kappa_sl2
from .tensorops import _squares, swap_outputs

GAP_THRESHOLD = 1e6
# |alpha| / (|zeta1^p a| + |zeta2^p b|) below this cancels (the same for beta)
_CANCEL_TOL = 1e-8
_EF_TAGS = ("e0", "e1", "f0", "f1")  # the Cartan equations hold on the unknowns
# frame -> ((raising, lowering) image of its zeta-free pair, lowering row generator),
# as _EF_TAGS indices: frame 1 is e1/f1 zeta-free and rows e0; frame 0 is
# e0/f0 zeta-free (f0 raises) and rows f1
_FRAMES = {1: ((1, 3), 0), 0: ((2, 0), 3)}
# the module pairs (V1, V2) of a spin, in the order of a template's pair axis
PAIRS = (("V", "V"), ("V", "V*"), ("V*", "V"), ("V*", "V*"))


class RRequest(namedtuple("RRequest", "kind1 zeta1 kind2 zeta2 m grading normalization ctx")):
    """One R request: plain values only (a tuple, checked once when made); the
    modules are built with the template of its spin."""

    __slots__ = ()

    def __new__(cls, kind1, zeta1, kind2, zeta2, m, grading, normalization, ctx):
        if normalization not in ("hw", "kappa"):
            raise ConfigError("normalization must be 'hw' or 'kappa'")
        if (kind1, kind2) not in PAIRS:
            raise ConfigError("site kind must be 'V' or 'V*'")
        for zeta in (zeta1, zeta2):
            if zeta == 0 or not cmath.isfinite(zeta):
                raise ConfigError(f"spectral parameter must be finite and nonzero, got {zeta}")
        return tuple.__new__(cls, (kind1, zeta1, kind2, zeta2, m, grading, normalization, ctx))

    @property
    def pair(self) -> int:
        """The index of the request's module pair on its template's pair axis (PAIRS)."""
        return PAIRS.index((self.kind1, self.kind2))


class RResult(NamedTuple):
    """A solved operator, stored compactly (a tuple, so it is made at the
    cost of one): `entries` holds Rcheck at the weight-conserving places
    (template.a[pair], template.b[pair]) of its module pair, and a kappa
    request's result carries its kappa scalar in `scale` (None for hw).
    Rcheck and R = P * Rcheck are formed dense on each read."""

    entries: np.ndarray
    template: "CommutantTemplate"
    pair: int
    # smallest |alpha_j| or |beta_j| relative to its two terms; 1 at m = 0, 0 at kappa = 0
    margin: float
    intertwine_residual: float
    scale: complex = None

    @property
    def Rcheck(self) -> np.ndarray:
        """The dense Rcheck, times the kappa scalar of a kappa request."""
        t = self.template
        X = np.zeros((t.dim, t.dim), dtype=complex)
        X[t.a[self.pair], t.b[self.pair]] = self.entries
        return X if self.scale is None else X * self.scale

    @property
    def R(self) -> np.ndarray:
        """R = P Rcheck (both sites are spin m)."""
        d = self.template.m + 1
        return swap_outputs(self.Rcheck, d, d)


def _powers(bases, table, errors) -> np.ndarray:
    """bases[i, b] ** table[i, k]: an (n, B, K) array for n stacks bases[i] of
    B complex numbers and n rows of K float exponents.

    A request b with a power that overflows (or that underflows to 0 under
    a negative power) gets a ConfigError in errors[b] that names its first
    such base, unless it already has an error, and all its powers read 0.
    Run with numpy's floating-point errors off.
    """
    out = bases[:, :, None] ** table[:, None, :]
    if not np.isfinite(out).all():
        bad = ~np.isfinite(out).all(axis=2)
        for b, i in zip(*np.nonzero(bad.T)):
            errors[b] = errors[b] or ConfigError(
                f"spectral parameters out of range: a power of {bases[i, b]:.3g} overflows")
        out[:, bad.any(axis=0)] = 0
    return out


def _chain_kernels(A) -> tuple:
    """Kernel vectors of the matrices A[i, p] (j x (j+1), row r nonzero only at
    columns r, r+1) and the gap of each pair p of the stack, over its
    matrices A[:, p].

    x_0 = 1 and x_{r+1} = -x_r A[r, r] / A[r, r+1], so every entry is a
    product and keeps its relative accuracy however small it is.  A pair's
    gap is min sigma_j / (|A x|_max / |x|_max) over its matrices, 0 where
    one of its A[r, r+1] vanishes and NaN where its data (an A, an x or a
    residual) are not finite; a kernel is one-dimensional where the gap
    reaches GAP_THRESHOLD (the residual also catches an A of another
    shape).  The pairs are independent: a matrix that is not finite is
    masked before the SVD, and nothing reduces across pairs.  Run with
    numpy's floating-point errors off.
    """
    x = np.ones(A.shape[:2] + A.shape[3:], dtype=complex)
    j = A.shape[2]
    if j == 0:
        return x, np.full(A.shape[1], np.inf)
    r = np.arange(j)
    diagonal, pivots = A[..., r, r], A[..., r, r + 1]
    for k in r:
        x[..., k + 1] = -x[..., k] * diagonal[..., k] / pivots[..., k]
    finite = np.isfinite(A).all(axis=(2, 3))
    sigma_j = np.linalg.svd(np.where(finite[..., None, None], A, 0), compute_uv=False)[..., -1]
    residual = np.abs((A @ x[..., None])[..., 0]).max(axis=-1) / np.abs(x).max(axis=-1)
    nonzero = pivots.all(axis=(0, 2))
    gap = np.where(nonzero, (sigma_j / np.maximum(residual, 1e-300)).min(axis=0), 0.0)
    failed = ~finite.all(axis=0) | nonzero & ~(np.isfinite(x).all(axis=(0, 2))
                                               & np.isfinite(residual).all(axis=0))
    return x, np.where(failed, np.nan, gap)


def _commutant_basis(in_ops, out_ops, m, a, b) -> tuple:
    """Basis B (pairs x unknowns x (m+1)) of the maps V1 x V2 -> V2 x V1 that
    commute with a zeta-free e/f pair, one column per component, and the
    highest-weight vectors with their dual rows, for the module pairs of a
    spin at once (the leading axis).

    in_ops and out_ops are (E, F, order) on V1 x V2 and on V2 x V1: the
    image E that raises the h1-weight by 2 and the image F that lowers it
    (Delta(e1), Delta(f1) in frame 1; Delta(f0), Delta(e0) in frame 0),
    and the basis indices by h1-weight, then by the weight of the first
    tensor factor, both descending, so the sector of weight 2m-2j is the
    slice j(j+1)/2 ... (j+1)(j+2)/2.  In that order the weight-sector
    blocks of E and of F^t are two-diagonal (_chain_kernels), one call per
    sector for all pairs.  Column j maps F^k v_j to F^k v'_j and kills the
    other components: v_j and v'_j are the highest-weight vectors of weight
    2m-2j (the kernels of E on that sector), lowered without rescaling.
    Its dual rows y_j E^k / <y_j E^k, F^k v_j>, y_j the left kernel of F on
    that sector, take the place of S^-1 for the matrix S of lowered
    vectors, so on the sector of weight 2m-2j-2k the column is
    (F^k v'_j)[a] y_jk[b]: one product per entry and no inverse, so every
    entry keeps its relative accuracy through the gauge.  Column 0 is 1 at
    hw x hw, alone in its sector.

    Also returns (v, v', y, y') at k = 0, column j of each for component j:
    y_j and y'_j the dual rows on V1 x V2 and on V2 x V1, scaled so that
    y_j v_j = y'_j v'_j = 1; and each pair's gap, that of its first sector
    whose kernels fail (_chain_kernels), else the last one.  The kernels and
    the lowering are stacked numpy calls whose slice per pair has the bits
    of that pair alone; the columns are summed over k pair by pair, so the
    temporaries of that sum (K x unknowns x (m+1) each) are one pair's.  Run
    with numpy's floating-point errors off.
    """
    (E, F, order), (E2, F2, order2) = in_ops, out_ops
    P, D = order.shape
    # the four kernels of each sector, pair by pair: of E and of F^t, on each side
    ops = np.concatenate((E, E2, F.swapaxes(1, 2), F2.swapaxes(1, 2)))
    rows, orders = np.arange(4 * P)[:, None], np.concatenate((order, order2) * 2)
    vectors = np.zeros((4 * P, D, m + 1), dtype=complex)
    gap = np.full(P, np.inf)
    for j in range(m + 1):
        lo = j * (j + 1) // 2
        up, sector = orders[:, lo - j:lo], orders[:, lo:lo + j + 1]
        x, g = _chain_kernels(ops[rows[:, :, None], up[:, :, None], sector[:, None, :]]
                              .reshape(4, P, j, j + 1))
        vectors[rows, sector, j] = x.reshape(4 * P, j + 1)
        gap = np.where(gap >= GAP_THRESHOLD, g, gap)  # a pair keeps its first failing gap
    v, v2, y, y2 = vectors.reshape(4, P, D, m + 1)
    top = v, v2, y / (y * v).sum(axis=1)[:, None], y2 / (y2 * v2).sum(axis=1)[:, None]
    # lower all components at once, steps k = 0 .. 2m; component j ends after
    # 2(m-j) steps, where the lowered vectors vanish up to rounding
    lowered, dual = np.empty((2, 2 * m + 1) + v.shape, dtype=complex)
    Et = E.swapaxes(1, 2)
    for k in range(2 * m + 1):
        lowered[k], dual[k] = v2, y / (y * v).sum(axis=1)[:, None]
        if k < 2 * m:
            v, v2, y = F @ v, F2 @ v2, Et @ y
    live = np.arange(2 * m + 1)[:, None, None] <= 2 * (m - np.arange(m + 1))
    return np.array([np.einsum("kuj,kuj->uj", lowered[:, p, a[p]],
                               np.where(live, dual[:, p, b[p]], 0)) for p in range(P)]), top, gap


class _Frame(NamedTuple):
    """The solve data of one homogeneous grading of a spin, for its four
    module pairs (PAIRS) on the leading axis.

    Frame 1 is grading (s, 0), where e1 and f1 carry no zeta; frame 0 is
    (0, s), where e0 and f0 carry none.  A frame holds `basis`, B ((m+1) x
    pairs x unknowns): the columns of the commutant of its zeta-free pair
    (_commutant_basis), column by column, `ratios` (pairs x 2 x 2 x m), the numbers
    ((a_j, b_j), (a'_j, b'_j)) of its component ratios, and `errors`, the
    error of each pair's requests or None.  Its lowering row generator (e0
    at grade s in frame 1, f1 at grade -s in frame 0) has images M on
    V1 x V2 and N on V2 x V1.  Apply X M = N X to v_j and pair with
    y'_{j+1}: M v_j has weight 2m-2j-2, and y_{j+1}, y'_{j+1} kill the
    lowered vectors of components <= j, so for Rcheck = sum_j c_j B_j only
    two terms survive, c_{j+1} alpha_j = c_j beta_j with
        alpha_j = y_{j+1} M v_j   = zeta1^p a_j  + zeta2^p b_j,
        beta_j  = y'_{j+1} N v'_j = zeta1^p a'_j + zeta2^p b'_j.
    """

    basis: np.ndarray
    ratios: np.ndarray
    errors: tuple


class CommutantTemplate:
    """The zeta-independent part of the commutant systems of one spin (m, q):
    its four module pairs (PAIRS), stacked on a leading pair axis.

    Every e/f coproduct image is zeta1^p A + zeta2^p B (reps.coproduct_parts),
    and only p depends on the grading, so one template serves every grading
    and module pair of (m, q).  It builds V and V* once and holds, per
    pair, the unknowns (a, b) with the gauge exponent of each plus m (half
    the h1-weight of the V1 factor of the output a minus that of the input
    b), the entries of the zeta parts of the eight images M, N of the four
    e/f generators (_EF_TAGS) at the places where some pair's image is
    nonzero, and the solve data of each homogeneous frame (_Frame: B and
    its ratio numbers), built on first use for all four pairs in one pass.

    The build runs with numpy's floating-point errors off, and isolation
    stays per module pair: a pair whose images, kernels, basis or ratio
    numbers are not finite gets a FloatingPointError for its requests, one
    whose highest-weight kernels fail the gap test a DegeneratePointError
    (_Frame.errors), whatever the other pairs of its spin hold.
    """

    def __init__(self, m, ctx):
        grading = GradingChoice(1, 0)  # the module matrices do not depend on it
        with np.errstate(all="ignore"):
            reps = {kind: eval_module(kind, m, grading, ctx) for kind in ("V", "V*")}
            # (A, B) of each generator on V1 x V2, for every ordered pair
            A, B = np.moveaxis(np.array([coproduct_parts(reps[k1], reps[k2])
                                         for k1, k2 in PAIRS]), 1, 0)
        swap = [PAIRS.index(pair[::-1]) for pair in PAIRS]  # V2 x V1 of each pair
        # zeta1 and zeta2 parts of M on V1 x V2, the four generators' images side by
        # side (D, 4, D), then of N on V2 x V1, stacked (4, D, D): N = zeta2^p A21 + zeta1^p B21
        one, two = (np.concatenate((X.swapaxes(1, 2).reshape(len(PAIRS), -1),
                                    Y[swap].reshape(len(PAIRS), -1)), axis=1)
                    for X, Y in ((A, B), (B, A)))
        self.m, d = m, m + 1
        self.dim = D = d * d
        at = np.flatnonzero(((one != 0) | (two != 0)).any(axis=0))
        # the places, as (image M or N, entry); for the zeta1 and then the zeta2 part
        # at each, the column of its zeta power in (zeta1^p, zeta2^p) (B, 8); and the
        # parts (P, 2 x places)
        gen = np.concatenate((np.tile(np.arange(4).repeat(D), D), np.arange(4).repeat(D * D)))[at]
        self.images = (np.divmod(at, len(_EF_TAGS) * D * D), np.concatenate((gen, gen + 4)),
                       np.hstack((one[:, at], two[:, at])))
        # h1-weights of the two factors of each pair, and the unknowns: the
        # entries whose output (in V2 x V1) and input (in V1 x V2) weigh the same
        w1, w2 = np.array([(reps[k1].weights.real, reps[k2].weights.real)
                           for k1, k2 in PAIRS]).swapaxes(0, 1)
        self.orders = _weight_order(w1, w2), _weight_order(w2, w1)  # of V1 x V2, V2 x V1
        w_in = (w1[:, :, None] + w2[:, None, :]).reshape(len(PAIRS), -1)
        w_out = (w2[:, :, None] + w1[:, None, :]).reshape(len(PAIRS), -1)
        _, a, b = np.nonzero(w_out[:, :, None] == w_in[:, None, :])
        self.a, self.b = a.reshape(len(PAIRS), -1), b.reshape(len(PAIRS), -1)
        self.gauge = np.rint((np.take_along_axis(w1, self.a % d, 1)
                              - np.take_along_axis(w1, self.b // d, 1)) / 2 + m).astype(int)
        self._frames = {}

    def frame(self, frame: int) -> _Frame:
        """Frame 1 (e1, f1 zeta-free) or 0 (e0, f0 zeta-free), built on first use."""
        if frame not in self._frames:
            self._frames[frame] = self._build_frame(frame)
        return self._frames[frame]

    def _build_frame(self, frame: int) -> _Frame:
        """The frame's basis, ratio numbers and per-pair errors, for all four
        pairs in one pass; see CommutantTemplate for the errors."""
        P, m = len(PAIRS), self.m
        (raise_, lower), g = _FRAMES[frame]
        unit = np.tile([[1.0], [0.0]], (P, len(_EF_TAGS)))  # zeta1, then zeta2 part of each pair
        with np.errstate(all="ignore"):
            # M on V1 x V2 and N on V2 x V1, (P, 2 parts, 4 generators, D, D) each
            M, N = (np.ascontiguousarray(X).reshape((P, 2) + X.shape[1:]) for X in
                    self.generator_images(unit, 1 - unit, np.arange(P).repeat(2)))
            images = np.isfinite(M).all(axis=(1, 2, 3, 4)) & np.isfinite(N).all(axis=(1, 2, 3, 4))
            # zeta-free pair: the sum of the two parts, its raising and lowering image per side
            EF, EF2 = (X[:, :, [raise_, lower]].sum(1) for X in (M, N))
            M, N = M[:, :, g].copy(), N[:, :, g].copy()  # (P, 2, D, D), not all eight images
            images &= np.isfinite(EF).all(axis=(1, 2, 3)) & np.isfinite(EF2).all(axis=(1, 2, 3))
            (E, F), (E2, F2) = EF.swapaxes(0, 1), EF2.swapaxes(0, 1)
            basis, (v, v2, y, y2), gap = _commutant_basis(
                (E, F, self.orders[0]), (E2, F2, self.orders[1]), m, self.a, self.b)
            ratios = np.stack((np.einsum("puj,pquv,pvj->pqj", y[..., 1:], M, v[..., :-1]),
                               np.einsum("puj,pquv,pvj->pqj", y2[..., 1:], N, v2[..., :-1])),
                              axis=1)
        solved = np.isfinite(basis).all(axis=(1, 2)) & np.isfinite(ratios).all(axis=(1, 2, 3))
        errors = []
        for (k1, k2), fine, kernels, out in zip(PAIRS, images, gap, solved):
            if not fine or np.isnan(kernels) or (kernels >= GAP_THRESHOLD and not out):
                errors.append(FloatingPointError(
                    f"the commutant data of ({k1}, {k2}) at m = {m} are not finite"))
            elif not kernels >= GAP_THRESHOLD:
                errors.append(DegeneratePointError(
                    f"nullspace gap {kernels:.3g} below threshold {GAP_THRESHOLD:.1g} "
                    "(highest-weight vectors)"))
            else:
                errors.append(None)
        return _Frame(np.ascontiguousarray(np.moveaxis(basis, 2, 0)), ratios, tuple(errors))

    def generator_images(self, z1p, z2p, pair) -> tuple:
        """The coproduct images of the four e/f generators for a stack of zeta
        pairs of the module pairs `pair` (B,), from zeta1^p and zeta2^p (B, 4)
        at each generator's grade p (_EF_TAGS order): M on V1 x V2 and N on
        V2 x V1, each of shape (B, 4, D, D); M is a view of the four images
        side by side, (B, D, 4, D) and contiguous, and N is contiguous.  A
        place where the request's pair has no image reads 0, as the zeta
        powers are finite.  The one reader of the stored parts: the frame
        build reads them at unit weights."""
        (image, entry), gen, parts = self.images
        B, D = len(z1p), self.dim
        MN = np.zeros((2, B, len(_EF_TAGS) * D * D), dtype=complex)
        terms = np.concatenate((z1p, z2p), axis=1)[:, gen] * parts[pair]
        MN[image, :, entry] = (terms[:, :len(entry)] + terms[:, len(entry):]).T
        return MN[0].reshape(B, D, -1, D).swapaxes(1, 2), MN[1].reshape(B, -1, D, D)


def _weight_order(w1, w2) -> np.ndarray:
    """The basis indices of V1 x V2 (row-major) of each pair, by h1-weight, then by
    the first factor's weight, both descending; w1 and w2 (P, d) the factors' weights."""
    first = np.repeat(w1, w2.shape[1], axis=1)
    return np.lexsort((-first, -(first + np.tile(w2, w1.shape[1]))), axis=-1)


class RCache:
    """One CommutantTemplate per spin (m, q), built on first use and shared
    by every solve_requests call on this cache.  It holds no solved result:
    a result lives in the call that solved it."""

    def __init__(self):
        self._templates = {}

    def template(self, req: RRequest) -> CommutantTemplate:
        """The commutant template of the request's spin, built on first use."""
        key = req.m, complex(req.ctx.q)
        if key not in self._templates:
            self._templates[key] = CommutantTemplate(req.m, req.ctx)
        return self._templates[key]


def _frame_of(g) -> tuple:
    """(frame, c, p) of grading g: its homogeneous frame, the gauge exponent c
    that takes g there and the grade p of the frame's lowering row generator
    (_raw_nullvector)."""
    return (1, g.s1, g.s) if g.s1 <= g.s0 else (0, -g.s0, -g.s)


def _raw_nullvector(reqs, template, pair) -> tuple:
    """The hw-normalized nullvectors of the commutant systems, with the
    relative size of each component ratio's terms, for a stack of requests
    at one spin, q and grading, whose template is `template`; request b
    is of the module pair pair[b] (PAIRS), whose frame data are finite.

    Rcheck intertwines Delta(q^{h1}), so it only links equal h1-weights:
    the unknowns are the entries X[a, b] whose output a (in V2 x V1) and
    input b (in V1 x V2) carry the same weight, and on them the Cartan
    equations hold identically (so the intertwining residual leaves them out).

    A diagonal gauge G = zeta^{c h1 / 2} on each site takes grading (s0, s1)
    to a homogeneous one: to (s, 0) with c = s1 (frame 1), or to (0, s)
    with c = -s0 (frame 0); the frame with the smaller |c| is used.  Rcheck
    at (s0, s1) is Rcheck in the frame with entry [a, b] times
    (zeta1/zeta2)^{c k}, k = (w1(a) - w1(b))/2 an integer in [-m, m], w1
    the h1-weight of the V1 factor; the 2m+1 powers are formed once per
    request.  In the frame, Rcheck = sum_j c_j B_j with the coefficients
    of normalize_hw, from the ratios beta_j / alpha_j of the frame's
    numbers (_Frame) at p = s in frame 1 and p = -s in frame 0.  Each
    request reads its own pair's ratios, basis and gauge exponents,
    gathered by index, and every step is elementwise per request.

    Returns (entries, rel, errors, grades): entries (B, U), Rcheck at the
    unknowns of each request's pair (the dense Rcheck is formed only
    per block, by the intertwining residual); rel (B, 2, m), the
    moduli |alpha_j| and |beta_j| over the sums of the moduli of their two
    terms, read as 0 or NaN where they cancel or vanish; errors[b] the
    ConfigError of request b or None, for a zeta power that overflows; and
    zeta1^p, zeta2^p (B, 4) at the grade p of each e/f generator, which the
    intertwining residual reads.  Run with numpy's floating-point errors off,
    as _solve runs it.
    """
    B, D = len(reqs), template.dim
    errors = [None] * B
    g, m = reqs[0].grading, reqs[0].m
    z1 = np.array([req.zeta1 for req in reqs])
    z2 = np.array([req.zeta2 for req in reqs])
    frame, c, p = _frame_of(g)
    # rows: the gauge powers c k, k = -m .. m, of zeta1/zeta2, then p and the
    # grades of e0, e1, f0, f1 (_EF_TAGS) of zeta1 and of zeta2
    table = np.zeros((3, max(2 * m + 1, 5)))
    table[0, :2 * m + 1] = np.arange(-m, m + 1) * c
    table[1:, :5] = p, g.s0, g.s1, -g.s0, -g.s1
    powers = _powers(np.array((z1 / z2, z1, z2)), table, errors)
    gauge, grades = powers[0], (powers[1, :, 1:5], powers[2, :, 1:5])
    if D == 1:
        return np.ones((B, 1), dtype=complex), np.ones((B, 2, 0)), errors, grades
    fr = template.frame(frame)
    # (B, 2, 2, m): the terms ((zeta1^p a, zeta2^p b), (zeta1^p a', zeta2^p b'))
    terms = fr.ratios[pair] * powers[1:, :, 0].T[:, None, :, None]
    alpha_beta = terms.sum(axis=2)
    rel = np.abs(alpha_beta) / np.abs(terms).sum(axis=2)
    coef = normalize_hw(alpha_beta[:, 1] / alpha_beta[:, 0])
    # sum_j c_j B_j column by column in a fixed order, in real arithmetic as
    # np.einsum forms it at small sizes, so a request's bits do not depend on
    # the stack (np.einsum changes its order with the stack at m = 12)
    re = im = 0.0
    for basis_j, cr, ci in zip(fr.basis, coef.real.T[:, :, None], coef.imag.T[:, :, None]):
        column = basis_j[pair]
        br, bi = column.real, column.imag
        re = re + (br * cr - bi * ci)
        im = im + (br * ci + bi * cr)
    rcheck = np.empty(re.shape, dtype=complex)
    rcheck.real, rcheck.imag = re, im
    entries = gauge[np.arange(B)[:, None], template.gauge[pair]]
    entries *= rcheck
    return entries, rel, errors, grades


# complex entries of the image stack that the intertwining residual forms at once
_IMAGE_ENTRIES = 1 << 12


def _intertwine_residuals(entries, z1p, z2p, template, pair) -> np.ndarray:
    """max over generators of ||Rc M - N Rc|| / (||Rc|| ||M||) for each operator
    Rc of a stack, from its entries (B, U) at the unknowns of its module
    pair pair[b] of `template` and zeta1^p and zeta2^p (B, 4) at the grades.

    The dense operators and the images of the four e/f generators are
    formed for blocks of requests that keep the images within
    _IMAGE_ENTRIES entries (one request at least), so the temporaries do
    not grow with B.  Each request takes two products: Rc times its four
    M side by side, and its four N stacked times Rc (generator_images lays
    both out so).  Generators with M = 0 are skipped, a zero Rc reads inf,
    and an image that overflows reads inf or NaN.  Run with numpy's
    floating-point errors off, as _solve runs it.
    """
    B, D = len(entries), template.dim
    rows = max(1, _IMAGE_ENTRIES // (len(_EF_TAGS) * D * D))
    worst = np.empty(B)
    for r in range(0, B, rows):
        at = slice(r, r + rows)
        p = pair[at]
        n = len(p)
        Rc = np.zeros((n, D, D), dtype=complex)
        Rc[np.arange(n)[:, None], template.a[p], template.b[p]] = entries[at]
        M, N = template.generator_images(z1p[at], z2p[at], p)
        side = M.swapaxes(1, 2)  # (n, D, 4, D), contiguous
        # Rc M_g - N_g Rc, (n, 4, D, D), in the buffer of the N_g Rc product
        diff = (N.reshape(n, -1, D) @ Rc).reshape(M.shape)
        np.subtract((Rc @ side.reshape(n, D, -1)).reshape(side.shape).swapaxes(1, 2), diff,
                    out=diff)
        # ||M_g||^2 from the rows of the images side by side, which are views
        nm2 = _squares(side.reshape(-1, D)).reshape(n, D, -1).sum(axis=1)
        nr2, d2 = _squares(Rc), _squares(diff.reshape(n * len(_EF_TAGS), -1)).reshape(n, -1)
        ratio2 = np.where(nm2 != 0, d2 / nm2, 0.0)
        block = worst[at]
        block[:] = np.sqrt(ratio2.max(axis=1) / nr2)
        block[nr2 == 0] = np.inf
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


def _kappa_scalars(reqs) -> list:
    """The scalar that apply_kappa takes for each kappa request, 1/kappa for a
    like pair and kappa for a mixed pair, or the error that request raises
    alone; one kappa_sl2 call for the requests of each (s, m, q).  A
    call that raises (NUMERICAL_ERRORS) fails every request of its group, a
    kappa that is not finite its own request, and so does a kappa of 0 for
    a like pair."""
    out = [None] * len(reqs)
    groups = {}  # (s, m, q) -> the places of its requests
    for i, req in enumerate(reqs):
        key = req.grading.s0 + req.grading.s1, req.m, req.ctx.q
        groups.setdefault(key, []).append(i)
    for (s, m, _), idx in groups.items():
        ctx, errors = reqs[idx[0]].ctx, [None] * len(idx)
        try:
            with np.errstate(all="ignore"):
                z = _powers(np.array([[reqs[i].zeta1 / reqs[i].zeta2 for i in idx]]),
                            np.full((1, 1), float(s)), errors)
            kappas = kappa_sl2(m, z[0, :, 0], ctx, errors)
        except NUMERICAL_ERRORS as exc:
            kappas, errors = np.full(len(idx), np.nan), [exc.with_traceback(None)] * len(idx)
        like = [reqs[i].kind1 == reqs[i].kind2 for i in idx]
        with np.errstate(all="ignore"):  # a failed row may be 0 or not finite
            scales = np.where(like, 1.0 / kappas, kappas).tolist()
        for i, k, scale, err, inverted in zip(idx, kappas.tolist(), scales, errors, like):
            if err is None and not cmath.isfinite(k):
                err = ScalarDomainError("kappa is not finite: z^(m/2) times its ratio overflows")
            if err is None and k == 0 and inverted:
                err = DegeneratePointError(
                    "kappa vanishes: pole of the kappa-normalized like pair")
            out[i] = err or scale
    return out


def apply_kappa(res: RResult, k: complex) -> RResult:
    """An hw-normalized result rescaled by the unitarizing factor k of its
    request (_kappa_scalars); the entries are shared, and Rcheck is
    multiplied by k on each read.

    Like pairs are divided by kappa, mixed pairs multiplied by it (the
    dual-pair normalization factors are the inverses of the like-pair one).
    The margin and the residual do not depend on the scale; at kappa = 0
    the operator is zero, with residual inf and margin 0.
    """
    return RResult(res.entries, res.template, res.pair, res.margin if k != 0 else 0.0,
                   res.intertwine_residual if k != 0 else np.inf, k)


def _solve(reqs, template, pair) -> list:
    """The hw-normalized results of a stack of requests at one spin, q and
    grading, whose template is `template`: per request an RResult, or the
    error it raises alone.  Request b is of the module pair pair[b]
    (PAIRS), whose frame data are finite (_raw_nullvector).

    A ratio index j where alpha_j and beta_j both cancel leaves c_{j+1} free
    (a wider nullspace); alpha_j alone makes the hw component vanish; beta_j
    alone makes R singular, which read_result refuses.  When the
    intertwining residual is not finite, a generator image that overflows
    is a ConfigError, and so is an operator that overflows in the residual's
    products; an operator that is not finite itself, built from finite
    images, is a degenerate point that the cancellation test missed (an
    alpha_j that is exactly 0 passes it at _CANCEL_TOL = 0).  The flags are
    formed for the whole stack; only a failing request takes a loop step,
    and only such a request's images are formed again, to test them.
    """
    with np.errstate(all="ignore"):
        entries, rel, errors, (z1p, z2p) = _raw_nullvector(reqs, template, pair)
        margins = rel.min(axis=(1, 2), initial=1.0).tolist()  # NaN where one is NaN
        for k in [k for k, margin in enumerate(margins) if not margin >= _CANCEL_TOL
                  and not rel[k, 0].min(initial=1.0) >= _CANCEL_TOL]:  # some alpha_j cancels
            both = np.flatnonzero(~(rel[k] >= _CANCEL_TOL).any(axis=0))
            errors[k] = errors[k] or DegeneratePointError(
                f"nullspace gap: component ratio {both[0]} is 0/0 "
                f"(terms cancel below {_CANCEL_TOL:.1g})" if len(both) else
                "highest-weight component vanishes (non-simple spectral point)")
        failed = [k for k, e in enumerate(errors) if e is not None]
        if failed:  # not checked: their images may overflow
            entries[failed], z1p[failed], z2p[failed] = 0, 0, 0
        residual = _intertwine_residuals(entries, z1p, z2p, template, pair).tolist()
        for k in [k for k, resid in enumerate(residual)
                  if errors[k] is None and not cmath.isfinite(resid)]:
            M, N = template.generator_images(z1p[k:k + 1], z2p[k:k + 1], pair[k:k + 1])
            if np.isfinite(M).all() and np.isfinite(N).all() and not np.isfinite(entries[k]).all():
                errors[k] = DegeneratePointError(
                    "R is not finite: a component ratio diverges (non-simple spectral point)")
            else:
                errors[k] = ConfigError("spectral parameters out of range: the operator or a "
                                        "generator image overflows")
    return [err or RResult(row, template, p, margin, resid) for err, row, p, margin, resid
            in zip(errors, entries, pair.tolist(), margins, residual)]


def solve_requests(reqs, cache: RCache = None) -> list:
    """The result of each request of a sequence, in order: its RResult, or the
    error that it raises alone (read_result raises it); the call itself
    raises nothing.

    Each distinct module pair and zeta pair is solved once, hw-normalized,
    in one stack per spin, q and grading (_solve), which covers every module
    pair of that spin and reads the spin's one template, and serves both
    normalizations: a kappa request reads it through apply_kappa.  The
    kappa requests whose solve succeeded share one kappa_sl2 call per
    (s, m, q) (_kappa_scalars).  Errors are isolated as far as the
    work is shared: a module pair whose template data are not finite or
    fail the gap test (_Frame.errors) fails that pair's requests alone, and
    of NUMERICAL_ERRORS, a template build that raises one fails its whole
    spin's requests, a stack that raises one the requests of its spin, q
    and grading, and a kappa call its own.  The results live in the call;
    the cache (a fresh RCache by default) only shares the templates.
    """
    if cache is None:
        cache = RCache()
    stacks = {}  # (m, q, s0, s1) -> {(kind1, zeta1, kind2, zeta2): the places of its requests}
    for i, req in enumerate(reqs):
        key = req.m, req.ctx.q, req.grading.s0, req.grading.s1
        stacks.setdefault(key, {}).setdefault(req[:4], []).append(i)
    out, scan = [None] * len(reqs), []  # scan: the kappa requests that solved
    for solves in stacks.values():
        stack = [reqs[places[0]] for places in solves.values()]
        pair = [req.pair for req in stack]
        try:
            template = cache.template(stack[0])
            errors = template.frame(_frame_of(stack[0].grading)[0]).errors
        except NUMERICAL_ERRORS as exc:
            errors = [exc.with_traceback(None)] * len(PAIRS)
        results = [errors[p] for p in pair]  # None until its stack is solved
        live = [b for b, err in enumerate(results) if err is None]
        if live:
            try:
                solved = _solve([stack[b] for b in live], template,
                                np.array([pair[b] for b in live]))
            except NUMERICAL_ERRORS as exc:
                solved = [exc.with_traceback(None)] * len(live)
            for b, res in zip(live, solved):
                results[b] = res
        for places, res in zip(solves.values(), results):
            for i in places:
                out[i] = res
                if reqs[i].normalization == "kappa" and isinstance(res, RResult):
                    scan.append(i)
    for i, k in zip(scan, _kappa_scalars([reqs[i] for i in scan])):
        out[i] = k if isinstance(k, Exception) else apply_kappa(out[i], k)
    return out


def read_result(res, check_invertible=True) -> RResult:
    """A result of solve_requests as its request reads it: a copy of a stored
    error is raised, so the stored one gathers no traceback (whose frames
    would keep the run's results alive), and with check_invertible a
    singular operator is refused."""
    if not isinstance(res, RResult):
        raise copy_error(res)
    # a solved result's alpha_j do not cancel, so a small margin is a beta_j or kappa = 0
    if check_invertible and res.margin < _CANCEL_TOL:
        raise DegeneratePointError(
            f"normalized R is numerically singular (margin {res.margin:.3g})")
    return res


def solve_intertwiner(reqs, cache: RCache = None, check_invertible=True) -> list:
    """The R-operators of a sequence of requests, in order: read_result of each
    result of one solve_requests call.  The call raises the error of its
    first failing request, the one that request raises alone.

    Degenerate spectral points raise DegeneratePointError: the two terms of
    a component ratio cancel in its numerator and denominator ("nullspace
    gap") or in its denominator alone ("highest-weight component
    vanishes"), or kappa has a pole; with check_invertible also in its
    numerator alone, or kappa vanishes (numerically singular), on every
    read of a result.
    """
    return [read_result(res, check_invertible) for res in solve_requests(reqs, cache)]


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
