"""Reduction of the qKZ system to the density-operator difference equation.

Two constructions are covered: a chain of 2n like modules with mirrored
arguments (w1..wn, q^w wn .. q^w w1) and shift p = q^{2w} ("self-dual"),
and a chain of n modules plus n duals with the q^eps mirror and p = q^eps
("general").  `rhs_operator` builds either composite from one block
B_mover(a | b) per moving site; in written order (leftmost applied last)
they are B_V(z_n | p z_n) and B_{V*}(p z_n | p^2 z_n) B_V(z_n | p z_n).
The composite is a factor string in the step format of `qkz` (R factors,
the mover's twist and the swap P^{(n,n+1)}, in application order) and,
like the one-step qKZ operators, is applied by `qkz.apply_factors` to the
same seeded complex Gaussian probe block (`qkz.probe_block`); the two
results are compared, and no composite is formed as a D x D matrix.  The
first probe column goes through the contraction map, which realizes the
implication concretely.
"""

import time
from dataclasses import dataclass
from math import prod

import numpy as np

from .context import QContext
from .errors import ConfigError
from .qkz import (ChainSpec, DeltaAssignment, apply_factors, lambda_op,
                  lambda_product_regularized, lambda_rewritten, probe_block, probe_vector,
                  rcheck_factors)
from .report import VerificationReport, worst_of
from .reps import GradingChoice, operator_x, operator_xtilde, sl2_constants
from .tensorops import embed_pair, embedded_matmul, relative_residual, site_matmul

__all__ = [
    "ReductionCase", "mirrored_args", "chain_for", "rhs_operator", "psi_extract",
    "psi_inject", "theorem_check_selfdual", "theorem_check_general",
    "insertion_invariance_check", "check_rpr", "scaling_covariance_residual",
]


@dataclass(frozen=True)
class ReductionCase:
    """Parameters of one reduction construction."""

    mode: str
    n: int
    m: int
    grading: GradingChoice
    ctx: QContext
    alpha: complex = 0.0
    normalization: str = "kappa"

    def __post_init__(self):
        if self.mode not in ("self_dual", "general"):
            raise ConfigError("mode must be 'self_dual' or 'general'")
        if self.n < 1 or self.m < 1:
            raise ConfigError("n and m must be positive")

    @property
    def shift(self) -> float:
        c = sl2_constants(self.grading)
        return c["omega"] if self.mode == "self_dual" else c["epsilon"]

    @property
    def p(self) -> complex:
        base = complex(self.ctx.q) ** self.shift
        return base**2 if self.mode == "self_dual" else base

    @property
    def kinds(self) -> tuple:
        if self.mode == "self_dual":
            return ("V",) * (2 * self.n)
        return ("V",) * self.n + ("V*",) * self.n

    @property
    def dims(self) -> tuple:
        return (self.m + 1,) * (2 * self.n)

    def delta_assignment(self, kind: str) -> DeltaAssignment:
        if self.mode == "self_dual":
            return DeltaAssignment("self_dual_pair", alpha=self.alpha, n=self.n)
        src = "general_v" if kind == "V" else "general_vstar"
        return DeltaAssignment(src, alpha=self.alpha)

    def contraction_matrix(self) -> np.ndarray:
        if self.mode == "self_dual":
            return operator_xtilde(self.m, self.grading, self.ctx)
        return operator_x(self.m, self.grading, self.ctx)


def mirrored_args(case: ReductionCase, zetas) -> list:
    """(z1 .. zn, q^shift zn, .., q^shift z1)."""
    if len(zetas) != case.n:
        raise ConfigError("expected n spectral parameters")
    w = complex(case.ctx.q) ** case.shift
    return list(zetas) + [w * zetas[case.n - 1 - r] for r in range(case.n)]


def chain_for(case: ReductionCase, etas) -> ChainSpec:
    deltas = tuple(case.delta_assignment(k) for k in case.kinds)
    return ChainSpec(case.m, case.grading, case.ctx, case.kinds, tuple(etas),
                     case.p, deltas, case.normalization)


def rhs_operator(case: ReductionCase, zetas, cache=None, insertion=None,
                 block=None) -> np.ndarray:
    """Reduction composite applied to `block` (default: the identity, giving
    its dense matrix); written order, leftmost applied last:

      self-dual (p = q^{2w}):  B_V(z_n | p z_n)
      general   (p = q^e):     B_{V*}(p z_n | p^2 z_n) [insertion] B_V(z_n | p z_n)

    one block per moving site.  With (eta_1 .. eta_2n) = mirrored_args,
    B(a | b) = R^{(n+2,n+1)}(eta_{n+2}|b) .. R^{(2n,n+1)}(eta_2n|b) P^{(n,n+1)}
               Delta^{(n)} R^{(1,n)}(eta_1|a) .. R^{(n-1,n)}(eta_{n-1}|a),
    each R between the kinds of its two sites, Delta the chain's twist of
    the mover's site.  insertion=(u, v) puts the unitarity pair
    Rcheck_{V|V*}(u|v) Rcheck_{V*|V}(v|u) on slots (n, n+1) between the
    general blocks; with a self-dual case it is a ConfigError.  The whole
    factor string is requested in one call, and a singular factor stays in
    the product (qkz.apply_factors with check_invertible=False).
    """
    if insertion is not None and case.mode == "self_dual":
        raise ConfigError("the unitarity insertion needs a general case")
    n = case.n
    chain = chain_for(case, mirrored_args(case, zetas))
    kinds, etas = chain.kinds, chain.etas
    swap = list(range(2 * n))
    swap[n - 1], swap[n] = swap[n], swap[n - 1]
    steps = []
    for k, site in enumerate((n - 1,) if case.mode == "self_dual" else (n - 1, n)):
        if k == 1 and insertion is not None:
            u, v = insertion
            steps += [("Rcheck", (n - 1, n), ("V*", v, "V", u)),
                      ("Rcheck", (n - 1, n), ("V", u, "V*", v))]
        mover, a, b = kinds[site], etas[site], case.p * etas[site]
        steps += [("R", (j, n - 1), (kinds[j], etas[j], mover, a)) for j in range(n - 2, -1, -1)]
        steps += [("delta", n - 1, site), ("perm", swap, None)]
        steps += [("R", (j, n), (kinds[j], etas[j], mover, b)) for j in range(2 * n - 1, n, -1)]
    return apply_factors(chain, steps, cache, block, check_invertible=False)


def psi_extract(case: ReductionCase, phi) -> np.ndarray:
    """Contract the trailing n slots with the case's twist matrix, mirrored.

    Psi^{i1..in}_{j1..jn} = sum_k Phi^{i1..in k_n..k_1} C_{k_n j_n} .. C_{k_1 j_1};
    slot n+r carries k_{n+1-r}, so the contracted axes are reversed before
    flattening into the column index.
    """
    n, d = case.n, case.m + 1
    Ct = case.contraction_matrix().T
    T = np.asarray(phi, dtype=complex).reshape(-1, 1)
    for r in range(n):
        T = site_matmul(Ct, n + r, case.dims, T)
    T = T.reshape([d] * (2 * n)).transpose(list(range(n)) + list(range(2 * n - 1, n - 1, -1)))
    return T.reshape(d**n, d**n)


def psi_inject(case: ReductionCase, psi) -> np.ndarray:
    """Inverse of psi_extract (the contraction matrix is invertible)."""
    n, d = case.n, case.m + 1
    Cinv_t = np.linalg.inv(case.contraction_matrix()).T
    T = np.asarray(psi, dtype=complex).reshape([d] * (2 * n))
    T = T.transpose(list(range(n)) + list(range(2 * n - 1, n - 1, -1))).reshape(-1, 1)
    for r in range(n):
        T = site_matmul(Cinv_t, n + r, case.dims, T)
    return T.reshape(-1)


def _combined_report(name, params, resid_op, resid_e2e, t0):
    """Operator residual against 1e-9, end-to-end residual against 1e-8."""
    params = dict(params)
    params["operator_residual"] = float(resid_op)
    params["e2e_residual"] = float(resid_e2e)
    params["e2e_tolerance"] = 1e-8
    folded = 1e-9 * worst_of((resid_op / 1e-9, resid_e2e / 1e-8))
    return VerificationReport.make(name, params, folded, 1e-9, t0)


def theorem_check_selfdual(case: ReductionCase, zetas, seed=0, cache=None) -> VerificationReport:
    """Operator identity Rcheck(res) rhs = Lambda_n at the mirrored tuple,
    plus the random-tensor implication through psi_extract.

    The like-kind factor at ratio q^-w = q^delta sits on the removable
    resonance of the kappa-normalized family and takes its closed crossing
    form (rsolve.rcheck_resonant).  The same factor also leads Lambda_n, so
    this identity does not test its value.
    Both sides, and both forms of the one-step operator, are applied to the
    same probe block drawn from `seed`; its first column is the random
    tensor of the implication.  The identity and the implication are
    checked against the rewritten (plain-R) form, whose einsum-applied
    factors share no code with the composite's factor application; the
    factor-list form (`qkz.lambda_op`) goes through the same
    `qkz.apply_factors` as the composite and the lead factor, and can agree
    with them bit for bit.  `forms_residual` compares the two forms.
    """
    if case.mode != "self_dual":
        raise ConfigError("theorem_check_selfdual needs a self_dual case")
    t0 = time.perf_counter()
    n, dims = case.n, case.dims
    w = complex(case.ctx.q) ** case.shift
    X = probe_block(prod(dims), seed)
    rhs = rhs_operator(case, zetas, cache, block=X)
    chain = chain_for(case, mirrored_args(case, zetas))
    lead = ("Rcheck", (n - 1, n), ("V", w * zetas[n - 1], "V", case.p * zetas[n - 1]))
    lhs = apply_factors(chain, [lead], cache, rhs)
    lam = lambda_rewritten(chain, n - 1, cache, X)
    lam_check_form = lambda_op(chain, n - 1, cache, X)
    forms_resid = relative_residual(lam, lam_check_form)
    resid_op = relative_residual(lam, lhs)
    psi_lam = psi_extract(case, lam[:, 0])
    resid_e2e = relative_residual(psi_lam, psi_extract(case, lhs[:, 0]))
    return _combined_report(
        "theorem_selfdual", {"n": n, "m": case.m, "seed": seed,
                             "forms_residual": forms_resid},
        worst_of((resid_op, forms_resid)), resid_e2e, t0)


def theorem_check_general(case: ReductionCase, zetas, seed=0, cache=None) -> VerificationReport:
    """Operator identity rhs = Lambda_{n+1}(shifted tuple) Lambda_n(tuple),
    with the singular junction pair cancelled by unitarity, plus the
    random-tensor implication through psi_extract.

    Both sides are applied to the same probe block drawn from `seed`; its
    first column is the random tensor of the implication.  At every n this
    is a factorization (bookkeeping) identity, not an independent check:
    after the junction cancellation both sides ask for the same factors at
    the same zeta pairs (the mirrored argument is p (p z_n) on both, so the
    cache solves each once) and apply them in the same order, so the
    residual reads exactly 0 (P Delta* P Delta at n = 1).  It catches a
    wrong argument or factor order, not a wrong factor value.
    """
    if case.mode != "general":
        raise ConfigError("theorem_check_general needs a general case")
    t0 = time.perf_counter()
    n = case.n
    e = complex(case.ctx.q) ** case.shift
    X = probe_block(prod(case.dims), seed)
    rhs = rhs_operator(case, zetas, cache, block=X)
    eta_shift = list(zetas[:n - 1]) + [e * zetas[n - 1], e * zetas[n - 1]] + \
        [e * z for z in reversed(zetas[:n - 1])]
    chain_b = chain_for(case, mirrored_args(case, zetas))
    chain_a = chain_for(case, eta_shift)
    prod_ops = lambda_product_regularized(chain_a, n, chain_b, n - 1, cache, X)
    psi_lam = psi_extract(case, prod_ops[:, 0])
    resid_e2e = relative_residual(psi_lam, psi_extract(case, rhs[:, 0]))
    return _combined_report(
        "theorem_general", {"n": n, "m": case.m, "seed": seed},
        relative_residual(rhs, prod_ops), resid_e2e, t0)


def insertion_invariance_check(case: ReductionCase, zetas, u, v, cache=None) -> VerificationReport:
    """The general composite is unchanged by inserting the unitarity pair at
    the block boundary (arguments (u, v) kept off the singular diagonal);
    both are applied to the same probe block."""
    t0 = time.perf_counter()
    X = probe_block(prod(case.dims))
    base = rhs_operator(case, zetas, cache, block=X)
    ins = rhs_operator(case, zetas, cache, insertion=(u, v), block=X)
    return VerificationReport.make(
        "insertion_invariance", {"n": case.n, "m": case.m},
        relative_residual(base, ins), 1e-10, t0)


def check_rpr(case: ReductionCase, i: int, zetas, seed=0, cache=None) -> VerificationReport:
    """Exchange relation for the extracted density operator.

    A front-pair swap factor and its mirrored partner are applied to a
    random tensor; the extracted matrices then satisfy
    Rcheck^{(i,i+1)} Psi = Psi' Rcheck^{(i,i+1)}.
    """
    t0 = time.perf_counter()
    n, d = case.n, case.m + 1
    if not 1 <= i <= n - 1:
        raise ConfigError("adjacent index i must satisfy 1 <= i <= n-1")
    w = complex(case.ctx.q) ** case.shift
    dims = case.dims
    D = prod(dims)
    phi0 = probe_vector(D, seed)
    mk = "V" if case.mode == "self_dual" else "V*"

    front, mirror = rcheck_factors(
        case, [("V", zetas[i - 1], "V", zetas[i]), (mk, w * zetas[i], mk, w * zetas[i - 1])],
        cache, check_invertible=False)
    phi1 = embedded_matmul(front, i - 1, i, dims, phi0.reshape(D, 1))
    phi1 = embedded_matmul(mirror, 2 * n - i - 1, 2 * n - i, dims, phi1).reshape(D)
    psi0 = psi_extract(case, phi0)
    psi1 = psi_extract(case, phi1)
    small = embed_pair(front, i - 1, i, (d,) * n)
    return VerificationReport.make(
        "rpr", {"mode": case.mode, "n": n, "m": case.m, "i": i, "seed": seed},
        relative_residual(small @ psi0, psi1 @ small), 1e-9, t0)


def scaling_covariance_residual(case: ReductionCase, zetas, nu, cache=None) -> float:
    """Composite operators depend only on ratios: rescaling all arguments
    by nu leaves the reduction composite unchanged (compared on one probe block)."""
    X = probe_block(prod(case.dims))
    return relative_residual(rhs_operator(case, list(zetas), cache, block=X),
                             rhs_operator(case, [nu * z for z in zetas], cache, block=X))
