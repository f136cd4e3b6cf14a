"""Reduction of the qKZ system to the density-operator difference equation.

Two constructions are covered: a chain of 2n like modules with mirrored
arguments (w1..wn, q^w wn .. q^w w1) and shift p = q^{2w} ("self-dual"),
and a chain of n modules plus n duals with the q^eps mirror and p = q^eps
("general").  `rhs_operator` builds either composite from one block
B_mover(a | b) per moving site; in written order (leftmost applied last)
they are B_V(z_n | p z_n) and B_{V*}(p z_n | p^2 z_n) B_V(z_n | p z_n).
The composite and the one-step qKZ operators are applied, factor by
factor, to the same seeded complex Gaussian probe block
(`qkz.probe_block`), and the two results are compared; no composite is
formed as a D x D matrix.  The first probe column goes through the
contraction map, which realizes the implication concretely.
"""

import time
from dataclasses import dataclass
from math import prod

import numpy as np

from .context import QContext
from .errors import ConfigError
from .qkz import (ChainSpec, DeltaAssignment, lambda_factor_specs,
                  lambda_product_regularized, lambda_rewritten, materialize_factors,
                  probe_block, rcheck_factor)
from .report import VerificationReport, worst_of
from .reps import GradingChoice, operator_x, operator_xtilde, sl2_constants
from .rsolve import r_matrix
from .tensorops import embed_pair, embedded_matmul, permuted_matmul, site_matmul

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


def _factor(case, k1, z1, k2, z2, cache):
    """R-operator of one composite factor; singular factors stay in the product."""
    return r_matrix(k1, z1, k2, z2, case.m, case.grading, case.ctx,
                    normalization=case.normalization, cache=cache, check_invertible=False)


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
    general blocks; with a self-dual case it is a ConfigError.
    """
    if insertion is not None and case.mode == "self_dual":
        raise ConfigError("the unitarity insertion needs a general case")
    n, dims = case.n, case.dims
    chain = chain_for(case, mirrored_args(case, zetas))
    kinds, etas = chain.kinds, chain.etas
    swap = list(range(2 * n))
    swap[n - 1], swap[n] = swap[n], swap[n - 1]
    M = np.eye(prod(dims), dtype=complex) if block is None else block
    for k, site in enumerate((n - 1,) if case.mode == "self_dual" else (n - 1, n)):
        if k == 1 and insertion is not None:
            u, v = insertion
            M = embedded_matmul(_factor(case, "V*", v, "V", u, cache).Rcheck, n - 1, n, dims, M)
            M = embedded_matmul(_factor(case, "V", u, "V*", v, cache).Rcheck, n - 1, n, dims, M)
        # b = p^{k+1} z_n from z_n, not p * a: the rounding sets the R cache keys
        mover, a, b = kinds[site], etas[site], case.p ** (k + 1) * zetas[n - 1]
        for j in range(n - 2, -1, -1):
            M = embedded_matmul(_factor(case, kinds[j], etas[j], mover, a, cache).R,
                                j, n - 1, dims, M)
        M = site_matmul(chain.delta_matrix(site), n - 1, dims, M)
        M = permuted_matmul(swap, dims, M)
        for j in range(2 * n - 1, n, -1):
            M = embedded_matmul(_factor(case, kinds[j], etas[j], mover, b, cache).R,
                                j, n, dims, M)
    return M


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


def _combined_report(name, params, resid_op, tol_op, resid_e2e, tol_e2e, t0):
    params = dict(params)
    params["operator_residual"] = float(resid_op)
    params["e2e_residual"] = float(resid_e2e)
    params["e2e_tolerance"] = float(tol_e2e)
    folded = tol_op * worst_of((resid_op / tol_op, resid_e2e / tol_e2e))
    return VerificationReport.make(name, params, folded, tol_op, t0)


def theorem_check_selfdual(case: ReductionCase, zetas, seed=0, tol_op=1e-9,
                           tol_e2e=1e-8, cache=None) -> VerificationReport:
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
    factor-list form goes through the same helpers as the composite side
    and can agree with it bit for bit.  `forms_residual` compares the two
    forms.
    """
    if case.mode != "self_dual":
        raise ConfigError("theorem_check_selfdual needs a self_dual case")
    t0 = time.perf_counter()
    n, dims = case.n, case.dims
    w = complex(case.ctx.q) ** case.shift
    X = probe_block(prod(dims), seed)
    rhs = rhs_operator(case, zetas, cache, block=X)
    chain = chain_for(case, mirrored_args(case, zetas))
    resonant = rcheck_factor(chain, "V", w * zetas[n - 1], "V", case.p * zetas[n - 1], cache)
    lhs = embedded_matmul(resonant, n - 1, n, dims, rhs)
    lam = lambda_rewritten(chain, n - 1, cache, X)
    lam_check_form = materialize_factors(chain, lambda_factor_specs(chain, n - 1), cache, X)
    forms_resid = float(np.linalg.norm(lam - lam_check_form) / max(np.linalg.norm(lam), 1e-300))
    resid_op = float(np.linalg.norm(lhs - lam) / max(np.linalg.norm(lam), 1e-300))
    psi_lam = psi_extract(case, lam[:, 0])
    psi_red = psi_extract(case, lhs[:, 0])
    resid_e2e = float(np.linalg.norm(psi_lam - psi_red) / max(np.linalg.norm(psi_lam), 1e-300))
    return _combined_report(
        "theorem_selfdual", {"n": n, "m": case.m, "seed": seed,
                             "forms_residual": forms_resid},
        worst_of((resid_op, forms_resid)), tol_op, resid_e2e, tol_e2e, t0)


def theorem_check_general(case: ReductionCase, zetas, seed=0, tol_op=1e-9,
                          tol_e2e=1e-8, cache=None) -> VerificationReport:
    """Operator identity rhs = Lambda_{n+1}(shifted tuple) Lambda_n(tuple),
    with the singular junction pair cancelled by unitarity, plus the
    random-tensor implication through psi_extract.

    Both sides are applied to the same probe block drawn from `seed`; its
    first column is the random tensor of the implication.  At n = 1 the
    junction cancellation leaves both sides the same factor string
    P Delta* P Delta on the same block, so the residual reads exactly 0:
    there the identity is bookkeeping, not an independent check.
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
    resid_op = float(np.linalg.norm(prod_ops - rhs) / max(np.linalg.norm(rhs), 1e-300))
    psi_lam = psi_extract(case, prod_ops[:, 0])
    psi_red = psi_extract(case, rhs[:, 0])
    resid_e2e = float(np.linalg.norm(psi_lam - psi_red) / max(np.linalg.norm(psi_lam), 1e-300))
    return _combined_report(
        "theorem_general", {"n": n, "m": case.m, "seed": seed},
        resid_op, tol_op, resid_e2e, tol_e2e, t0)


def insertion_invariance_check(case: ReductionCase, zetas, u, v, tol=1e-10,
                               cache=None) -> VerificationReport:
    """The general composite is unchanged by inserting the unitarity pair at
    the block boundary (arguments (u, v) kept off the singular diagonal);
    both are applied to the same probe block."""
    t0 = time.perf_counter()
    X = probe_block(prod(case.dims))
    base = rhs_operator(case, zetas, cache, block=X)
    ins = rhs_operator(case, zetas, cache, insertion=(u, v), block=X)
    resid = float(np.linalg.norm(base - ins) / max(np.linalg.norm(base), 1e-300))
    return VerificationReport.make(
        "insertion_invariance", {"n": case.n, "m": case.m}, resid, tol, t0)


def check_rpr(case: ReductionCase, i: int, zetas, seed=0, tol=1e-9,
              cache=None) -> VerificationReport:
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
    rng = np.random.default_rng(seed)
    phi0 = rng.standard_normal(D) + 1j * rng.standard_normal(D)
    mk = "V" if case.mode == "self_dual" else "V*"

    front = _factor(case, "V", zetas[i - 1], "V", zetas[i], cache).Rcheck
    mirror = _factor(case, mk, w * zetas[i], mk, w * zetas[i - 1], cache).Rcheck
    phi1 = embedded_matmul(front, i - 1, i, dims, phi0.reshape(D, 1))
    phi1 = embedded_matmul(mirror, 2 * n - i - 1, 2 * n - i, dims, phi1).reshape(D)
    psi0 = psi_extract(case, phi0)
    psi1 = psi_extract(case, phi1)
    small = embed_pair(front, i - 1, i, (d,) * n)
    lhs = small @ psi0
    rhs = psi1 @ small
    resid = float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1e-300))
    return VerificationReport.make(
        "rpr", {"mode": case.mode, "n": n, "m": case.m, "i": i, "seed": seed},
        resid, tol, t0)


def scaling_covariance_residual(case: ReductionCase, zetas, nu, cache=None) -> float:
    """Composite operators depend only on ratios: rescaling all arguments
    by nu leaves the reduction composite unchanged (compared on one probe block)."""
    X = probe_block(prod(case.dims))
    a = rhs_operator(case, list(zetas), cache, block=X)
    b = rhs_operator(case, [nu * z for z in zetas], cache, block=X)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(a), 1e-300))
