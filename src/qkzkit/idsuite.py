"""Algebraic identity checks: Yang-Baxter, unitarity, crossing, duals, invariances.

Every check returns a VerificationReport; residuals are relative
Frobenius norms.  Crossing relations are verified as proportionalities
against independently solved R-operators, with the proportionality
scalars extracted and reported.
"""

import time
from math import prod

import numpy as np

from .report import VerificationReport, worst_of
from .reps import (GENERATOR_TAGS, antipode_dual, build_eval_rep, operator_o,
                   operator_o_inverse, operator_x, operator_xtilde, sl2_constants, twist)
from .rsolve import r_matrix
from .qkz import ChainSpec, DeltaAssignment, permutation_of_word, probe_block, transport_phi
from .tensorops import commutant_residual, embedded_matmul, partial_transpose, scalar_ratio

__all__ = [
    "VerificationReport", "check_ybe", "check_unitarity",
    "check_initial_condition", "check_crossing", "check_double_dual",
    "check_self_dual", "check_invariance_x", "check_invariance_a",
    "check_invariance_xtilde", "check_braid_welldefined", "random_zeta",
]


def random_zeta(rng, lo=0.5, hi=2.0):
    """Spectral-parameter sample with modulus in [lo, hi], uniform argument."""
    return (lo + (hi - lo) * rng.random()) * np.exp(2j * np.pi * rng.random())


def _near_shift_lattice(z, q, kmax, margin):
    for k in range(-kmax, kmax + 1):
        point = q ** (2 * k)
        if abs(z - point) < margin * max(abs(point), 1e-6):
            return True
    return False


def draw_generic_zetas(rng, count, m, grading, ctx, lo=0.5, hi=2.0, margin=1e-3):
    """Spectral parameters whose pairwise ratios avoid the degenerate loci.

    Samples are redrawn while any ratio^s falls within `margin` of the
    q^{2k} lattice (which carries both the non-simple points and the
    zeros/poles of the unitarizing factor).
    """
    q = complex(ctx.q)
    kmax = m + 3
    for _ in range(1000):
        zetas = [random_zeta(rng, lo, hi) for _ in range(count)]
        ok = True
        for i in range(count):
            for j in range(count):
                if i == j:
                    continue
                z = (zetas[i] / zetas[j]) ** grading.s
                if _near_shift_lattice(z, q, kmax, margin):
                    ok = False
        if ok:
            return zetas
    raise RuntimeError("could not draw generic spectral parameters")


def check_ybe(m, kinds, zetas, grading, ctx, normalization="hw", tol=1e-9,
              cache=None) -> VerificationReport:
    """R12 R13 R23 = R23 R13 R12 on the triple product, both sides applied
    factor by factor to the seeded probe block of qkz.probe_block."""
    t0 = time.perf_counter()
    dims = (m + 1,) * 3
    pairs = ((0, 1), (0, 2), (1, 2))
    R = {(a, b): r_matrix(kinds[a], zetas[a], kinds[b], zetas[b], m, grading, ctx,
                          normalization=normalization, cache=cache, check_invertible=False).R
         for a, b in pairs}
    left = right = probe_block(prod(dims))
    for a, b in reversed(pairs):
        left = embedded_matmul(R[a, b], a, b, dims, left)
    for a, b in pairs:
        right = embedded_matmul(R[a, b], a, b, dims, right)
    resid = float(np.linalg.norm(left - right) / np.linalg.norm(left))
    return VerificationReport.make(
        "ybe", {"m": m, "kinds": list(kinds), "norm": normalization}, resid, tol, t0)


def check_unitarity(m, kinds, zetas, grading, ctx, normalization="hw", tol=1e-10,
                    cache=None) -> VerificationReport:
    """Rcheck_12(z1|z2) Rcheck_21(z2|z1) = id."""
    t0 = time.perf_counter()
    r12 = r_matrix(kinds[0], zetas[0], kinds[1], zetas[1], m, grading, ctx,
                   normalization=normalization, cache=cache, check_invertible=False)
    r21 = r_matrix(kinds[1], zetas[1], kinds[0], zetas[0], m, grading, ctx,
                   normalization=normalization, cache=cache, check_invertible=False)
    d = (m + 1) ** 2
    resid = float(np.linalg.norm(r12.Rcheck @ r21.Rcheck - np.eye(d)) / np.sqrt(d))
    return VerificationReport.make(
        "unitarity", {"m": m, "kinds": list(kinds), "norm": normalization}, resid, tol, t0)


def check_initial_condition(m, kind, zeta, grading, ctx, normalization="hw",
                            tol=1e-12, cache=None) -> VerificationReport:
    """Rcheck(z|z) = id for a like-kind pair."""
    t0 = time.perf_counter()
    res = r_matrix(kind, zeta, kind, zeta, m, grading, ctx,
                   normalization=normalization, cache=cache)
    d = (m + 1) ** 2
    resid = float(np.linalg.norm(res.Rcheck - np.eye(d)) / np.sqrt(d))
    return VerificationReport.make(
        "initial_condition", {"m": m, "kind": kind, "norm": normalization}, resid, tol, t0)


def check_crossing(m, zetas, grading, ctx, tol=1e-9, cache=None) -> VerificationReport:
    """Crossing relations as proportionalities, with scalar extraction.

    Verified forms (d = m + 1 per site, pair (z1, z2)):
      (i)  partial-transpose: R_{V*|V}(z1|z2) prop ((R_{V|V}(z1|z2))^-1)^t1
                              R_{V|V*}(z1|z2) prop ((R_{V|V}(z1|z2))^t2)^-1
      (ii) dual-shift:        R_{V*|V}(z1|z2) = (O x 1) R_{V|V}(q^d z1|z2) (O x 1)^-1
                              R_{V|V*}(z1|z2) = (1 x O) R_{V|V}(z1|q^d z2) (1 x O)^-1
      (iii) closed kappa-normalized double-shift relations whose scalars are
            the difference-equation constant (-1)^m:
            (O x 1) Rk(q^d z1|z2) (O x 1)^-1 = D1 ((Rk(z1|z2))^-1)^t1
            (1 x O) Rk(z1|q^d z2) (1 x O)^-1 = D2 ((Rk(z1|z2))^t2)^-1

    extracted_scalars = [lam_t1, lam_t2, s_shift1, s_shift2, D1, D2].
    Proportionality failure is the reported residual; the scalars are
    reported for comparison, not gated here.
    """
    t0 = time.perf_counter()
    z1, z2 = zetas
    d = m + 1
    dd = (d, d)
    delta = sl2_constants(grading)["delta"]
    qd = complex(ctx.q) ** delta
    O = operator_o(m, grading, ctx)
    Oinv = operator_o_inverse(m, grading, ctx)

    def R(k1, w1, k2, w2, norm="hw"):
        return r_matrix(k1, w1, k2, w2, m, grading, ctx, normalization=norm,
                        cache=cache, check_invertible=False).R

    r_vv = R("V", z1, "V", z2)
    r_sv = R("V*", z1, "V", z2)
    r_vs = R("V", z1, "V*", z2)
    lam_t1, res_t1 = scalar_ratio(r_sv, partial_transpose(np.linalg.inv(r_vv), "first", dd))
    lam_t2, res_t2 = scalar_ratio(r_vs, np.linalg.inv(partial_transpose(r_vv, "second", dd)))
    sh1 = np.kron(O, np.eye(d)) @ R("V", qd * z1, "V", z2) @ np.kron(Oinv, np.eye(d))
    sh2 = np.kron(np.eye(d), O) @ R("V", z1, "V", qd * z2) @ np.kron(np.eye(d), Oinv)
    s1, res_s1 = scalar_ratio(r_sv, sh1)
    s2, res_s2 = scalar_ratio(r_vs, sh2)
    rk = R("V", z1, "V", z2, "kappa")
    rk_sh1 = np.kron(O, np.eye(d)) @ R("V", qd * z1, "V", z2, "kappa") @ np.kron(Oinv, np.eye(d))
    rk_sh2 = np.kron(np.eye(d), O) @ R("V", z1, "V", qd * z2, "kappa") @ np.kron(np.eye(d), Oinv)
    D1, res_d1 = scalar_ratio(rk_sh1, partial_transpose(np.linalg.inv(rk), "first", dd))
    D2, res_d2 = scalar_ratio(rk_sh2, np.linalg.inv(partial_transpose(rk, "second", dd)))
    resid = worst_of((res_t1, res_t2, res_s1, res_s2, res_d1, res_d2))
    return VerificationReport.make(
        "crossing", {"m": m}, resid, tol, t0,
        extracted_scalars=[lam_t1, lam_t2, s1, s2, D1, D2])


def _conjugation_residual(lhs_rep, lhs_zeta, rhs_rep, rhs_zeta, C) -> float:
    Cinv = np.linalg.inv(C)
    worst = 0.0
    for tag in GENERATOR_TAGS:
        L = lhs_rep.gen(tag, lhs_zeta)
        Rm = C @ rhs_rep.gen(tag, rhs_zeta) @ Cinv
        scale = max(float(np.abs(L).max()), 1.0)
        worst = worst_of((worst, np.abs(L - Rm).max() / scale))
    return worst


def check_double_dual(m, grading, ctx, zeta, tol=1e-12) -> VerificationReport:
    """Double dual equals the q^-eps shifted module conjugated by X."""
    t0 = time.perf_counter()
    rep = build_eval_rep(m, grading, ctx)
    ddual = antipode_dual(antipode_dual(rep))
    eps = sl2_constants(grading)["epsilon"]
    X = operator_x(m, grading, ctx)
    resid = _conjugation_residual(ddual, zeta, rep, complex(ctx.q) ** (-eps) * zeta, X)
    return VerificationReport.make(
        "double_dual", {"m": m, "s0": grading.s0, "s1": grading.s1}, resid, tol, t0)


def check_self_dual(m, grading, ctx, zeta, tol=1e-12) -> VerificationReport:
    """Dual equals the q^delta shifted module conjugated by O."""
    t0 = time.perf_counter()
    rep = build_eval_rep(m, grading, ctx)
    dual = antipode_dual(rep)
    delta = sl2_constants(grading)["delta"]
    O = operator_o(m, grading, ctx)
    resid = _conjugation_residual(dual, zeta, rep, complex(ctx.q) ** delta * zeta, O)
    return VerificationReport.make(
        "self_dual", {"m": m, "s0": grading.s0, "s1": grading.s1}, resid, tol, t0)


def _pair_commutant_residual(m, kinds, zetas, grading, ctx, normalization, cache, C1, C2):
    res = r_matrix(kinds[0], zetas[0], kinds[1], zetas[1], m, grading, ctx,
                   normalization=normalization, cache=cache, check_invertible=False)
    return commutant_residual(C1, C2, res.R)


def check_invariance_x(m, kinds, zetas, grading, ctx, normalization="hw",
                       tol=1e-11, cache=None) -> VerificationReport:
    """[(X x X), R] = 0 with the kind-appropriate X on each slot."""
    t0 = time.perf_counter()
    ops = [operator_x(m, grading, ctx, kind=k) for k in kinds]
    resid = _pair_commutant_residual(m, kinds, zetas, grading, ctx, normalization,
                                     cache, ops[0], ops[1])
    return VerificationReport.make(
        "invariance_x", {"m": m, "kinds": list(kinds), "s0": grading.s0,
                         "s1": grading.s1}, resid, tol, t0)


def check_invariance_a(alpha, m, kinds, zetas, grading, ctx, normalization="hw",
                       tol=1e-11, cache=None) -> VerificationReport:
    """[(A^alpha x A^alpha), R] = 0 with the kind-appropriate twist images."""
    t0 = time.perf_counter()
    ops = [twist(k, alpha, m, ctx) for k in kinds]
    resid = _pair_commutant_residual(m, kinds, zetas, grading, ctx, normalization,
                                     cache, ops[0], ops[1])
    return VerificationReport.make(
        "invariance_a", {"m": m, "kinds": list(kinds),
                         "alpha": [alpha.real, alpha.imag] if isinstance(alpha, complex) else alpha},
        resid, tol, t0)


def check_invariance_xtilde(m, grading, ctx, zetas, normalization="kappa",
                            tol=1e-11, cache=None) -> VerificationReport:
    """Transpose-twisted invariance (Xt x Xt) R = R^t (Xt x Xt).

    This is the form valid for every grading and spin; it follows from the
    two closed dual-shift crossing relations.  For m = 1 with the balanced
    grading R is symmetric in this basis and the relation reduces to a
    plain commutator.
    """
    t0 = time.perf_counter()
    xt = operator_xtilde(m, grading, ctx)
    XX = np.kron(xt, xt)
    res = r_matrix("V", zetas[0], "V", zetas[1], m, grading, ctx,
                   normalization=normalization, cache=cache, check_invertible=False)
    R = res.R
    resid = float(np.linalg.norm(XX @ R - R.T @ XX) / np.linalg.norm(R.T @ XX))
    return VerificationReport.make(
        "invariance_xtilde", {"m": m, "norm": normalization}, resid, tol, t0)


def check_braid_welldefined(word1, word2, m, kinds, etas, grading, ctx,
                            normalization="kappa", seed=0, tol=1e-10,
                            cache=None) -> VerificationReport:
    """Transport along two words of the same permutation acts identically."""
    t0 = time.perf_counter()
    N = len(kinds)
    if permutation_of_word(N, word1) != permutation_of_word(N, word2):
        raise ValueError("words realize different permutations")
    chain = ChainSpec(m, grading, ctx, tuple(kinds), tuple(etas), p=1.0,
                      deltas=tuple(DeltaAssignment("general_v") for _ in range(N)),
                      normalization=normalization)
    rng = np.random.default_rng(seed)
    D = (m + 1) ** N
    phi = rng.standard_normal(D) + 1j * rng.standard_normal(D)
    out1, ord1 = transport_phi(chain, phi, word1, cache)
    out2, ord2 = transport_phi(chain, phi, word2, cache)
    assert ord1 == ord2
    resid = float(np.linalg.norm(out1 - out2) / max(np.linalg.norm(out1), 1e-300))
    return VerificationReport.make(
        "braid_welldefined", {"m": m, "N": N, "word1": list(word1),
                              "word2": list(word2)}, resid, tol, t0)
