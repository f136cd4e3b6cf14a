"""Evaluation representations of U_q(L(sl2)) and the distinguished operators.

The spin-m module has dimension m+1; basis vectors are ordered by
decreasing h1-weight, so index 0 is the highest weight vector of the
plain module and index m that of the antipode dual.
"""

from collections import namedtuple

import numpy as np

from .context import QContext
from .errors import ConfigError
from .report import worst_of
from .scalars import q_number
from .tensorops import kron, relative_residuals

GENERATOR_TAGS = ("e0", "e1", "f0", "f1", "qh0", "qh1")


class GradingChoice(namedtuple("GradingChoice", "s0 s1")):
    """Integer grades (s0, s1) of the raising generators; s = s0 + s1 >= 1."""

    __slots__ = ()

    def __new__(cls, s0, s1):
        if s0 < 0 or s1 < 0 or s0 + s1 < 1:
            raise ConfigError("grades must be nonnegative with s0 + s1 >= 1")
        return tuple.__new__(cls, (s0, s1))

    @property
    def s(self) -> int:
        return self.s0 + self.s1


def _h1_weights(kind: str, m: int) -> np.ndarray:
    """h1-weights of the spin-m basis: (m, m-2, ..., -m) on V, negated on V*."""
    w = np.arange(m, -m - 1, -2, dtype=float)
    return -w if kind == "V*" else w


def _q_diag(ctx: QContext, exponents: np.ndarray) -> np.ndarray:
    """diag(q^exponents), the one formula of every Cartan image and site twist."""
    return np.diag(complex(ctx.q) ** exponents)


def twist(kind: str, nu: complex, m: int, ctx: QContext) -> np.ndarray:
    """Site twist phi(q^{nu h1}) = diag(q^{nu w}) on the module kind, w its h1-weights.

    X is the twist at nu = 2 s1/s - 1, A_alpha at nu = alpha, X A_alpha at
    their sum.  An entry that overflows, vanishes or is not a number is a
    ConfigError.
    """
    with np.errstate(all="ignore"):
        T = _q_diag(ctx, nu * _h1_weights(kind, m))
    diag = T.diagonal()
    if not (np.isfinite(diag).all() and diag.all()):
        raise ConfigError(f"site twist q^({nu:.6g} h1) at m = {m} is not finite and invertible")
    return T


class EvalRep:
    """Generator matrices of a spin-m evaluation module or an iterated dual.

    The spectral parameter enters only through zeta^{±s_i}; the
    zeta-independent matrices are stored, the weights follow from the kind.
    """

    def __init__(self, m, grading, ctx, mats, dual_level=0):
        self.m = m
        self.grading = grading
        self.ctx = ctx
        self.dual_level = dual_level
        self._w = _h1_weights(self.kind, m)
        self._mats = {k: np.asarray(v, dtype=complex) for k, v in mats.items()}

    @property
    def dim(self) -> int:
        return self.m + 1

    @property
    def kind(self) -> str:
        return "V" if self.dual_level % 2 == 0 else "V*"

    @property
    def weights(self) -> np.ndarray:
        """h1-weights of the basis vectors (a read-only view)."""
        w = self._w.view()
        w.flags.writeable = False
        return w

    @property
    def tags(self) -> tuple:
        """Tags of the generators with a nonzero image: all six, the Cartans alone at m = 0."""
        return GENERATOR_TAGS if self.m else GENERATOR_TAGS[4:]

    def qh1(self, nu=1.0) -> np.ndarray:
        return _q_diag(self.ctx, nu * self._w)

    def qh0(self, nu=1.0) -> np.ndarray:
        return _q_diag(self.ctx, -nu * self._w)

    def gen(self, tag: str, zeta: complex, nu=1.0) -> np.ndarray:
        """Generator matrix at spectral parameter zeta (Cartans take nu)."""
        if tag == "qh1":
            return self.qh1(nu)
        if tag == "qh0":
            return self.qh0(nu)
        return complex(zeta) ** self.exponent(tag) * self._mats[tag]

    def regraded(self, grading: GradingChoice) -> "EvalRep":
        """This module under another grading: the same matrices, so only the
        zeta exponents of gen change."""
        return EvalRep(self.m, grading, self.ctx, self._mats, self.dual_level)

    def exponent(self, tag: str) -> int:
        """Power p of zeta in the e/f generator: gen(tag, zeta) = zeta^p gen(tag, 1)."""
        g = self.grading
        exps = {"e0": g.s0, "e1": g.s1, "f0": -g.s0, "f1": -g.s1}
        try:
            return exps[tag]
        except KeyError:
            raise ConfigError(f"unknown generator tag {tag!r}") from None


def build_eval_rep(m: int, grading: GradingChoice, ctx: QContext) -> EvalRep:
    """Spin-m evaluation representation.

    e1 = zeta^{s1} sum_i [i][m-i+1] E_{i,i+1},  f1 = zeta^{-s1} sum_i E_{i+1,i},
    e0 = zeta^{s0} sum_i E_{i+1,i},             f0 = zeta^{-s0} sum_i [i][m-i+1] E_{i,i+1},
    q^{nu h1} = diag(q^{nu(m-2i+2)}).
    """
    if m < 0:
        raise ConfigError("m must be nonnegative")
    d = m + 1
    raising = np.zeros((d, d), dtype=complex)
    lowering = np.zeros((d, d), dtype=complex)
    for i in range(1, m + 1):  # 1-based summation index of the matrix family
        coeff = q_number(i, ctx) * q_number(m - i + 1, ctx)
        raising[i - 1, i] = coeff
        lowering[i, i - 1] = 1.0
    mats = {"e1": raising, "f1": lowering, "e0": lowering, "f0": raising}
    return EvalRep(m, grading, ctx, mats)


def antipode_dual(rep: EvalRep) -> EvalRep:
    """Dual representation a -> rep(S(a))^t with S(e_i) = -q^{-h_i} e_i,
    S(f_i) = -f_i q^{h_i}, S(q^x) = q^{-x}."""
    qh = {0: rep.qh0, 1: rep.qh1}
    mats = {}
    for i in (0, 1):
        mats[f"e{i}"] = -(qh[i](-1.0) @ rep._mats[f"e{i}"]).T
        mats[f"f{i}"] = -(rep._mats[f"f{i}"] @ qh[i](1.0)).T
    return EvalRep(rep.m, rep.grading, rep.ctx, mats, rep.dual_level + 1)


def eval_module(kind, m, grading, ctx) -> EvalRep:
    """The spin-m module of a site kind: V, or its antipode dual V*."""
    if kind not in ("V", "V*"):
        raise ConfigError("site kind must be 'V' or 'V*'")
    rep = build_eval_rep(m, grading, ctx)
    return antipode_dual(rep) if kind == "V*" else rep


def coproduct_parts(rep1: EvalRep, rep2: EvalRep) -> tuple:
    """Zeta-independent parts (A, B) of (phi1 x phi2)(Delta(a)) for the four
    e/f generators a (GENERATOR_TAGS[:4]), stacked on a leading axis: the
    image of generator k at (zeta1, zeta2) is zeta1^p A[k] + zeta2^p B[k],
    p = rep1.exponent of its tag.

    Delta(e_i) = e_i x 1 + q^{h_i} x e_i,  Delta(f_i) = f_i x q^{-h_i} + 1 x f_i.
    """
    ef, one1, one2 = GENERATOR_TAGS[:4], np.eye(rep1.dim), np.eye(rep2.dim)
    A = kron(np.array([rep1._mats[tag] for tag in ef]),
             np.array([one2, one2, rep2.qh0(-1.0), rep2.qh1(-1.0)]))
    B = kron(np.array([rep1.qh0(), rep1.qh1(), one1, one1]),
             np.array([rep2._mats[tag] for tag in ef]))
    return A, B


def antipode_image(rep: EvalRep, tag: str, zeta: complex) -> np.ndarray:
    """rep(S(a)) for a generator a."""
    if tag.startswith("qh"):
        return rep.gen(tag, zeta, -1.0)
    i = int(tag[1])
    if tag.startswith("e"):
        return -rep.gen(f"qh{i}", zeta, -1.0) @ rep.gen(tag, zeta)
    return -rep.gen(tag, zeta) @ rep.gen(f"qh{i}", zeta, 1.0)


def hopf_antipode_residuals(reps, zeta: complex) -> list:
    """Residual of m (S x id) Delta(a) = eps(a) 1 over the tags of each module
    of `reps` (modules of one spin), as floats.

    Validates that the coproduct convention matches the antipode used for
    dual modules: S(g) g against the identity for a Cartan g, and the two
    terms that must cancel for e_i and f_i (eps = 0), S(e_i) against
    -S(q^{h_i}) e_i and S(f_i) q^{-h_i} against -f_i.  Each product is one
    stacked matmul over the modules, which calls the same BLAS routine on
    each module's slice, and the residuals of every module and tag are one
    tensorops.relative_residuals call (the real identity is stacked as
    complex; its squares, 0 and 1, sum exactly at any stride), folded
    module by module, so each module's residual has the bits of its own
    evaluation.  A convention check, not a module check: antipode_image
    writes S(e_i) and S(f_i) from the same e and f matrices, so the terms
    cancel for any e and f, and only a defect in S itself fails it.
    """
    refs, others = [], []
    for tag in reps[0].tags:
        S = np.array([antipode_image(r, tag, zeta) for r in reps])
        a = np.array([r.gen(tag, zeta) for r in reps])
        if tag.startswith("qh"):
            refs.append(np.broadcast_to(np.eye(len(a[0])), a.shape))
            others.append(S @ a)
        elif tag.startswith("e"):
            refs.append(S)
            others.append(-np.array([antipode_image(r, f"qh{tag[1]}", zeta) for r in reps]) @ a)
        else:
            refs.append(S @ np.array([r.gen(f"qh{tag[1]}", zeta, -1.0) for r in reps]))
            others.append(-a)
    tags = len(refs)
    resids = relative_residuals(np.stack(refs, axis=1).reshape(-1, *a.shape[1:]),
                                np.stack(others, axis=1).reshape(-1, *a.shape[1:]))
    return [worst_of(resids[k * tags:(k + 1) * tags]) for k in range(len(reps))]


# --- distinguished operators --------------------------------------------------

def sl2_constants(grading: GradingChoice) -> dict:
    """epsilon, delta and omega = epsilon + delta for the sl2 family."""
    s = grading.s
    eps = 4.0 / s  # (theta|theta) * dual Coxeter number = 2 * 2 for sl2
    delta = -2.0 / s
    return {"epsilon": eps, "delta": delta, "omega": eps + delta}


def operator_x(m: int, grading: GradingChoice, ctx: QContext, kind="V") -> np.ndarray:
    """phi(q^x) with x = (2 s1/s - 1) h1 (the sl2 double-dual twist).

    For the dual module the image is phi*(q^x) = (X^-1)^t.
    """
    return twist(kind, 2.0 * grading.s1 / grading.s - 1.0, m, ctx)


def operator_o(m: int, grading: GradingChoice, ctx: QContext) -> np.ndarray:
    """Antidiagonal self-duality intertwiner:

    O = sum_{i=1}^{m+1} (-1)^{m-i+1} q^{(m-i+1)(2 - 2 s0/s - i)} E_{m-i+2, i}.
    """
    q = complex(ctx.q)
    d = m + 1
    O = np.zeros((d, d), dtype=complex)
    for i in range(1, d + 1):
        O[m - i + 1, i - 1] = (-1.0) ** (m - i + 1) * q ** ((m - i + 1) * (2.0 - 2.0 * grading.s0 / grading.s - i))
    return O


def operator_o_inverse(m: int, grading: GradingChoice, ctx: QContext) -> np.ndarray:
    """Closed-form inverse of the antidiagonal O (no linear solve)."""
    O = operator_o(m, grading, ctx)
    d = m + 1
    inv = np.zeros((d, d), dtype=complex)
    for i in range(d):
        inv[i, d - 1 - i] = 1.0 / O[d - 1 - i, i]
    return inv


def operator_xtilde(m: int, grading: GradingChoice, ctx: QContext) -> np.ndarray:
    """Xtilde = O^t X."""
    return operator_o(m, grading, ctx).T @ operator_x(m, grading, ctx)
