"""Reduction of the qKZ system to the density-operator difference equation.

Two constructions are covered: a chain of 2n like modules with mirrored
arguments (w1..wn, q^w wn .. q^w w1) and shift p = q^{2w} ("self-dual"),
and a chain of n modules plus n duals with the q^eps mirror and p = q^eps
("general").  `rhs_steps` builds either composite from one block
B_mover(a | b) per moving site; in written order (leftmost applied last)
they are B_V(z_n | p z_n) and B_{V*}(p z_n | p^2 z_n) B_V(z_n | p z_n).
The composite is a factor string in the step format of `qkz` (R factors,
the mover's twist and the swap P^{(n,n+1)}, in application order).  Each
check is a record (`qkz.StringCheck`) whose sides are the composite and
the one-step operators, applied to the same seeded complex Gaussian
probe block (`qkz.probe_block`), so no composite is formed as a D x D
matrix; the first probe column goes through the contraction map
(`psi_extract`), which realizes the implication concretely.  `check_rpr`
declares its two factors and applies them as a two-step factor string.
"""

from collections import namedtuple
from functools import partial
from math import prod

import numpy as np

from .errors import ConfigError
from .qkz import (ChainSpec, DeltaAssignment, FactorCheck, Side, StringCheck, apply_factors,
                  lambda_factor_specs, regularized_product, rewritten_factors, solving_check)
from .report import VerificationReport
from .reps import operator_x, operator_xtilde, sl2_constants
from .tensorops import embed_pair, relative_residual, site_matmul

__all__ = [
    "ReductionCase", "mirrored_args", "chain_for", "rhs_steps", "psi_extract",
    "theorem_check_selfdual", "theorem_check_general", "insertion_invariance_check",
    "check_rpr", "scaling_covariance", "scaling_covariance_residual",
]


class ReductionCase(namedtuple("ReductionCase", "mode n m grading ctx alpha")):
    """Parameters of one reduction construction; its factors are always
    kappa-normalized (the resonant lead factor has no hw-normalized value)."""

    __slots__ = ()
    normalization = "kappa"  # a read-only class constant, not a field

    def __new__(cls, mode, n, m, grading, ctx, alpha=0.0):
        if mode not in ("self_dual", "general"):
            raise ConfigError("mode must be 'self_dual' or 'general'")
        if n < 1 or m < 1:
            raise ConfigError("n and m must be positive")
        return tuple.__new__(cls, (mode, n, m, grading, ctx, alpha))

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


def rhs_steps(case: ReductionCase, zetas, insertion=None) -> list:
    """Factor string of the reduction composite, in application order, for the
    chain chain_for(case, mirrored_args(case, zetas)); written order, leftmost
    applied last:

      self-dual (p = q^{2w}):  B_V(z_n | p z_n)
      general   (p = q^e):     B_{V*}(p z_n | p^2 z_n) [insertion] B_V(z_n | p z_n)

    one block per moving site.  With (eta_1 .. eta_2n) = mirrored_args,
    B(a | b) = R^{(n+2,n+1)}(eta_{n+2}|b) .. R^{(2n,n+1)}(eta_2n|b) P^{(n,n+1)}
               Delta^{(n)} R^{(1,n)}(eta_1|a) .. R^{(n-1,n)}(eta_{n-1}|a),
    each R between the kinds of its two sites, Delta the chain's twist of
    the mover's site.  insertion=(u, v) puts the unitarity pair
    Rcheck_{V|V*}(u|v) Rcheck_{V*|V}(v|u) on slots (n, n+1) between the
    general blocks; with a self-dual case it is a ConfigError.  The checks
    apply it with singular factors kept in the product (`_composite`).
    """
    if insertion is not None and case.mode == "self_dual":
        raise ConfigError("the unitarity insertion needs a general case")
    n = case.n
    etas = mirrored_args(case, zetas)
    kinds = case.kinds
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
    return steps


def _composite(steps) -> Side:
    """A side that applies a composite string, its singular factors kept."""
    return Side((tuple(steps),), check_invertible=False)


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


@solving_check
def theorem_check_selfdual(case: ReductionCase, zetas, seed=0) -> StringCheck:
    """Operator identity Rcheck(res) rhs = Lambda_n at the mirrored tuple,
    plus the random-tensor implication through psi_extract.

    The like-kind factor at ratio q^-w = q^delta sits on the removable
    resonance of the kappa-normalized family and takes its closed crossing
    form (rsolve.rcheck_resonant).  The same factor also leads Lambda_n, so
    this identity does not test its value; at n = 1 it is every side's one
    factor, so the record solves nothing and no solved-factor defect reaches it.
    Sides, applied to the probe block drawn from `seed` (its first column is
    the random tensor of the implication): 0, the composite and then the
    lead factor; 1, the rewritten (plain-R) form of Lambda_n through the
    einsum route, whose tensor contractions share no code with the
    composite's factor application; 2, the factor-list form through `qkz.apply_factors`, as
    the composite and lead factor are, so it can agree with them bit for
    bit.  The identity and the implication are checked against side 1, and
    `forms_residual` compares the two forms.
    """
    if case.mode != "self_dual":
        raise ConfigError("theorem_check_selfdual needs a self_dual case")
    n, w = case.n, complex(case.ctx.q) ** case.shift
    chain = chain_for(case, mirrored_args(case, zetas))
    lead = ("Rcheck", (n - 1, n), ("V", w * zetas[n - 1], "V", case.p * zetas[n - 1]))
    sides = (_composite(rhs_steps(case, zetas) + [lead]),
             Side((tuple(rewritten_factors(chain, n - 1)),), "einsum"),
             Side((tuple(lambda_factor_specs(chain, n - 1)),)))
    return StringCheck("theorem_selfdual", {"n": n, "m": case.m, "seed": seed}, 1e-9, chain,
                       sides, ((1, 0), (1, 2)), seed, extract=partial(psi_extract, case),
                       pair_params={"forms_residual": 1})


@solving_check
def theorem_check_general(case: ReductionCase, zetas, seed=0) -> StringCheck:
    """Operator identity rhs = Lambda_{n+1}(shifted tuple) Lambda_n(tuple),
    with the singular junction pair cancelled by unitarity, plus the
    random-tensor implication through psi_extract.

    Both sides are applied to the same probe block drawn from `seed`; its
    first column is the random tensor of the implication.  At every n this
    is a factorization (bookkeeping) identity, not an independent check:
    after the junction cancellation both sides ask for the same factors at
    the same zeta pairs (the mirrored argument is p (p z_n) on both, so the
    record's one solve requests each once) and apply them in the same
    order, so the residual reads exactly 0.  It catches a wrong argument or
    factor order, not a wrong factor value.  At n = 1 both sides are P
    Delta* P Delta, so the record solves nothing and no solved-factor
    defect reaches it.
    """
    if case.mode != "general":
        raise ConfigError("theorem_check_general needs a general case")
    n = case.n
    e = complex(case.ctx.q) ** case.shift
    chain = chain_for(case, mirrored_args(case, zetas))
    shifted = chain_for(case, list(zetas[:n - 1]) + [e * zetas[n - 1], e * zetas[n - 1]]
                        + [e * z for z in reversed(zetas[:n - 1])])
    sides = (_composite(rhs_steps(case, zetas)),
             Side((tuple(regularized_product(shifted, n, chain, n - 1)),)))
    return StringCheck("theorem_general", {"n": n, "m": case.m, "seed": seed}, 1e-9, chain,
                       sides, seed=seed, extract=partial(psi_extract, case))


@solving_check
def insertion_invariance_check(case: ReductionCase, zetas, u, v) -> StringCheck:
    """The general composite is unchanged by inserting the unitarity pair at
    the block boundary (arguments (u, v) kept off the singular diagonal);
    both are applied to the same probe block."""
    return StringCheck("insertion_invariance", {"n": case.n, "m": case.m}, 1e-10,
                       chain_for(case, mirrored_args(case, zetas)),
                       (_composite(rhs_steps(case, zetas)),
                        _composite(rhs_steps(case, zetas, insertion=(u, v)))))


@solving_check
def check_rpr(case: ReductionCase, i: int, zetas, seed=0) -> FactorCheck:
    """Exchange relation for the extracted density operator.

    A front-pair swap factor and its mirrored partner are applied to a
    random tensor; the extracted matrices then satisfy
    Rcheck^{(i,i+1)} Psi = Psi' Rcheck^{(i,i+1)}.
    """
    if not 1 <= i <= case.n - 1:
        raise ConfigError("adjacent index i must satisfy 1 <= i <= n-1")
    n, d = case.n, case.m + 1
    w = complex(case.ctx.q) ** case.shift
    mk = "V" if case.mode == "self_dual" else "V*"
    factors = [("V", zetas[i - 1], "V", zetas[i]), (mk, w * zetas[i], mk, w * zetas[i - 1])]
    steps = (("Rcheck", (i - 1, i), factors[0]), ("Rcheck", (2 * n - i - 1, 2 * n - i), factors[1]))

    def measure(read, probe):
        phi0 = probe(prod(case.dims), seed, 1)
        phi1, = apply_factors(case, (steps,), read, phi0, check_invertible=False)
        psi0 = psi_extract(case, phi0)
        psi1 = psi_extract(case, phi1)
        small = embed_pair(read(case, factors[0]), i - 1, i, (d,) * n)
        return VerificationReport.make(
            "rpr", {"mode": case.mode, "n": n, "m": case.m, "i": i, "seed": seed},
            relative_residual(small @ psi0, psi1 @ small), 1e-9)
    return FactorCheck(((case, factors),), measure)


@solving_check
def scaling_covariance(case: ReductionCase, zetas, nu) -> StringCheck:
    """Composite operators depend only on ratios: rescaling all arguments
    by nu leaves the reduction composite unchanged (compared on one probe block)."""
    return StringCheck("scaling_covariance", {"mode": case.mode, "n": case.n, "m": case.m},
                       1e-10, chain_for(case, mirrored_args(case, zetas)),
                       (_composite(rhs_steps(case, list(zetas))),
                        _composite(rhs_steps(case, [nu * z for z in zetas]))))


def scaling_covariance_residual(case: ReductionCase, zetas, nu, cache=None) -> float:
    """The residual of scaling_covariance."""
    return scaling_covariance(case, zetas, nu, cache=cache).residual
