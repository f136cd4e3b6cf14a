"""Algebraic identity checks: Yang-Baxter, unitarity, crossing, duals, invariances.

Every check returns a VerificationReport; residuals are relative
Frobenius norms (tensorops.relative_residual).  Crossing relations are
verified as proportionalities against independently solved R-operators,
with the proportionality scalars extracted and reported.
"""

import time
from math import prod

import numpy as np

from .report import VerificationReport, worst_of
from .reps import (GENERATOR_TAGS, antipode_dual, build_eval_rep, operator_o,
                   operator_o_inverse, operator_x, operator_xtilde, sl2_constants, twist)
from .rsolve import make_request, r_matrix, solve_intertwiner
from .qkz import ChainSpec, DeltaAssignment, probe_block, probe_vector, transport_phi
from .tensorops import (commutant_residual, embedded_matmul, partial_transpose,
                        relative_residual, scalar_ratio)

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


_YBE_PAIRS = ((0, 1), (0, 2), (1, 2))


def _ybe_residual(R, dims, block) -> float:
    """||(R12 R13 R23 - R23 R13 R12) X|| / ||R12 R13 R23 X|| for the factors
    R[a, b] of one sample, each side applied factor by factor to the block X."""
    left = right = block
    for a, b in reversed(_YBE_PAIRS):
        left = embedded_matmul(R[a, b], a, b, dims, left)
    for a, b in _YBE_PAIRS:
        right = embedded_matmul(R[a, b], a, b, dims, right)
    return relative_residual(left, right)


def check_ybe(m, kinds, samples, grading, ctx, normalization="hw",
              cache=None) -> VerificationReport:
    """R12 R13 R23 = R23 R13 R12 on the triple product at each sample of three
    spectral parameters, both sides applied factor by factor to the seeded
    probe block of qkz.probe_block; the residual is the worst over the
    samples.  The factors of every sample are requested in one call."""
    t0 = time.perf_counter()
    dims = (m + 1,) * 3
    reqs = [make_request(kinds[a], zetas[a], kinds[b], zetas[b], m, grading, ctx, normalization)
            for zetas in samples for a, b in _YBE_PAIRS]
    R = [res.R for res in solve_intertwiner(reqs, cache, check_invertible=False)]
    block = probe_block(prod(dims))
    resid = worst_of(_ybe_residual(dict(zip(_YBE_PAIRS, R[3 * k:3 * k + 3])), dims, block)
                     for k in range(len(samples)))
    return VerificationReport.make(
        "ybe", {"m": m, "kinds": list(kinds), "norm": normalization}, resid, 1e-9, t0)


def check_unitarity(m, kinds, zetas, grading, ctx, normalization="hw",
                    cache=None) -> VerificationReport:
    """Rcheck_12(z1|z2) Rcheck_21(z2|z1) = id; the pair is requested in one call."""
    t0 = time.perf_counter()
    r12, r21 = solve_intertwiner(
        [make_request(kinds[0], zetas[0], kinds[1], zetas[1], m, grading, ctx, normalization),
         make_request(kinds[1], zetas[1], kinds[0], zetas[0], m, grading, ctx, normalization)],
        cache, check_invertible=False)
    resid = relative_residual(np.eye((m + 1) ** 2), r12.Rcheck @ r21.Rcheck)
    return VerificationReport.make(
        "unitarity", {"m": m, "kinds": list(kinds), "norm": normalization}, resid, 1e-10, t0)


def check_initial_condition(m, kind, zeta, grading, ctx, normalization="hw",
                            cache=None) -> VerificationReport:
    """Rcheck(z|z) = id for a like-kind pair.

    At zeta1 = zeta2 each component ratio beta_j / alpha_j of the solve is
    exactly 1 (rsolve._Frame: for a like pair a'_j = b_j and b'_j = a_j, so
    alpha_j and beta_j are the same two terms summed in the other order).
    Rcheck is then the plain sum of the basis columns, the component
    projectors, and the residual is their rounding (and in kappa mode that
    of the kappa scalar): 0 in some m = 1 reports, near 1e-16 to 1e-15 up
    to m = 4.  A defect in a ratio number breaks the exact 1 and fails the
    check.
    """
    t0 = time.perf_counter()
    res = r_matrix(kind, zeta, kind, zeta, m, grading, ctx,
                   normalization=normalization, cache=cache)
    resid = relative_residual(np.eye((m + 1) ** 2), res.Rcheck)
    return VerificationReport.make(
        "initial_condition", {"m": m, "kind": kind, "norm": normalization}, resid, 1e-12, t0)


def _crossing_sample(R, twists, dd) -> tuple:
    """The six proportionalities of check_crossing at one sample: (scalars, worst
    residual), from its eight R-operators R = (R_VV, R_V*V, R_VV*, R_VV(q^d z1|z2),
    R_VV(z1|q^d z2), then the last three kappa-normalized) and the twists
    (O x 1, O^-1 x 1, 1 x O, 1 x O^-1)."""
    r_vv, r_sv, r_vs, r_sh1, r_sh2, rk, rk_sh1, rk_sh2 = R
    o1, o1_inv, o2, o2_inv = twists
    lam_t1, res_t1 = scalar_ratio(r_sv, partial_transpose(np.linalg.inv(r_vv), "first", dd))
    lam_t2, res_t2 = scalar_ratio(r_vs, np.linalg.inv(partial_transpose(r_vv, "second", dd)))
    s1, res_s1 = scalar_ratio(r_sv, o1 @ r_sh1 @ o1_inv)
    s2, res_s2 = scalar_ratio(r_vs, o2 @ r_sh2 @ o2_inv)
    D1, res_d1 = scalar_ratio(o1 @ rk_sh1 @ o1_inv,
                              partial_transpose(np.linalg.inv(rk), "first", dd))
    D2, res_d2 = scalar_ratio(o2 @ rk_sh2 @ o2_inv,
                              np.linalg.inv(partial_transpose(rk, "second", dd)))
    return ([lam_t1, lam_t2, s1, s2, D1, D2],
            worst_of((res_t1, res_t2, res_s1, res_s2, res_d1, res_d2)))


def check_crossing(m, samples, grading, ctx, cache=None) -> VerificationReport:
    """Crossing relations as proportionalities, with scalar extraction, at each
    sample of two spectral parameters.

    Verified forms (d = m + 1 per site, pair (z1, z2)):
      (i)  partial-transpose: R_{V*|V}(z1|z2) prop ((R_{V|V}(z1|z2))^-1)^t1
                              R_{V|V*}(z1|z2) prop ((R_{V|V}(z1|z2))^t2)^-1
      (ii) dual-shift:        R_{V*|V}(z1|z2) = (O x 1) R_{V|V}(q^d z1|z2) (O x 1)^-1
                              R_{V|V*}(z1|z2) = (1 x O) R_{V|V}(z1|q^d z2) (1 x O)^-1
      (iii) closed kappa-normalized double-shift relations whose scalars are
            the difference-equation constant (-1)^m:
            (O x 1) Rk(q^d z1|z2) (O x 1)^-1 = D1 ((Rk(z1|z2))^-1)^t1
            (1 x O) Rk(z1|q^d z2) (1 x O)^-1 = D2 ((Rk(z1|z2))^t2)^-1

    extracted_scalars = [lam_t1, lam_t2, s_shift1, s_shift2, D1, D2] of the
    last sample; scalar_spread is the largest distance of s_shift1,
    s_shift2, D1 or D2 from its mean over the samples.  The worst
    proportionality failure is the reported residual; the scalars are
    reported for comparison, not gated here.  The R-operators of every
    sample are requested in one call, and O, O^-1 and their Kronecker
    twists are built once.
    """
    t0 = time.perf_counter()
    d = m + 1
    qd = complex(ctx.q) ** sl2_constants(grading)["delta"]
    O, Oinv, one = operator_o(m, grading, ctx), operator_o_inverse(m, grading, ctx), np.eye(d)
    twists = (np.kron(O, one), np.kron(Oinv, one), np.kron(one, O), np.kron(one, Oinv))
    pairs = [("V", 1, "V", 1, "hw"), ("V*", 1, "V", 1, "hw"), ("V", 1, "V*", 1, "hw"),
             ("V", qd, "V", 1, "hw"), ("V", 1, "V", qd, "hw"), ("V", 1, "V", 1, "kappa"),
             ("V", qd, "V", 1, "kappa"), ("V", 1, "V", qd, "kappa")]  # kinds, zeta factors, norm
    reqs = [make_request(k1, w1 * z1, k2, w2 * z2, m, grading, ctx, norm)
            for z1, z2 in samples for k1, w1, k2, w2, norm in pairs]
    R = [res.R for res in solve_intertwiner(reqs, cache, check_invertible=False)]
    n = len(pairs)
    scal, resids = zip(*(_crossing_sample(R[n * k:n * k + n], twists, (d, d))
                         for k in range(len(samples))))
    spread = worst_of(
        np.abs(np.array([s[i] for s in scal]) - np.mean([s[i] for s in scal])).max()
        for i in (2, 3, 4, 5))
    return VerificationReport.make(
        "crossing", {"m": m, "scalar_spread": spread}, worst_of(resids), 1e-9, t0,
        extracted_scalars=list(scal[-1]))


def _conjugation_residual(lhs_rep, lhs_zeta, rhs_rep, rhs_zeta, C) -> float:
    Cinv = np.linalg.inv(C)
    worst = 0.0
    for tag in GENERATOR_TAGS:
        L = lhs_rep.gen(tag, lhs_zeta)
        Rm = C @ rhs_rep.gen(tag, rhs_zeta) @ Cinv
        scale = max(float(np.abs(L).max()), 1.0)
        worst = worst_of((worst, np.abs(L - Rm).max() / scale))
    return worst


def check_double_dual(m, grading, ctx, zeta) -> VerificationReport:
    """Double dual equals the q^-eps shifted module conjugated by X."""
    t0 = time.perf_counter()
    rep = build_eval_rep(m, grading, ctx)
    ddual = antipode_dual(antipode_dual(rep))
    eps = sl2_constants(grading)["epsilon"]
    X = operator_x(m, grading, ctx)
    resid = _conjugation_residual(ddual, zeta, rep, complex(ctx.q) ** (-eps) * zeta, X)
    return VerificationReport.make(
        "double_dual", {"m": m, "s0": grading.s0, "s1": grading.s1}, resid, 1e-12, t0)


def check_self_dual(m, grading, ctx, zeta) -> VerificationReport:
    """Dual equals the q^delta shifted module conjugated by O."""
    t0 = time.perf_counter()
    rep = build_eval_rep(m, grading, ctx)
    dual = antipode_dual(rep)
    delta = sl2_constants(grading)["delta"]
    O = operator_o(m, grading, ctx)
    resid = _conjugation_residual(dual, zeta, rep, complex(ctx.q) ** delta * zeta, O)
    return VerificationReport.make(
        "self_dual", {"m": m, "s0": grading.s0, "s1": grading.s1}, resid, 1e-12, t0)


def _pair_commutant_residual(m, kinds, zetas, grading, ctx, normalization, cache, C1, C2):
    res = r_matrix(kinds[0], zetas[0], kinds[1], zetas[1], m, grading, ctx,
                   normalization=normalization, cache=cache, check_invertible=False)
    return commutant_residual(C1, C2, res.R)


def check_invariance_x(m, kinds, zetas, grading, ctx, normalization="hw",
                       cache=None) -> VerificationReport:
    """[(X x X), R] = 0 with the kind-appropriate X on each slot."""
    t0 = time.perf_counter()
    ops = [operator_x(m, grading, ctx, kind=k) for k in kinds]
    resid = _pair_commutant_residual(m, kinds, zetas, grading, ctx, normalization,
                                     cache, ops[0], ops[1])
    return VerificationReport.make(
        "invariance_x", {"m": m, "kinds": list(kinds), "s0": grading.s0,
                         "s1": grading.s1}, resid, 1e-11, t0)


def check_invariance_a(alpha, m, kinds, zetas, grading, ctx, normalization="hw",
                       cache=None) -> VerificationReport:
    """[(A^alpha x A^alpha), R] = 0 with the kind-appropriate twist images."""
    t0 = time.perf_counter()
    ops = [twist(k, alpha, m, ctx) for k in kinds]
    resid = _pair_commutant_residual(m, kinds, zetas, grading, ctx, normalization,
                                     cache, ops[0], ops[1])
    return VerificationReport.make(
        "invariance_a", {"m": m, "kinds": list(kinds),
                         "alpha": [alpha.real, alpha.imag] if isinstance(alpha, complex) else alpha},
        resid, 1e-11, t0)


def check_invariance_xtilde(m, grading, ctx, zetas, normalization="kappa",
                            cache=None) -> VerificationReport:
    """Transpose-twisted invariance (Xt x Xt) R = R^t (Xt x Xt).

    This is the form valid for every grading and spin; it follows from the
    two closed dual-shift crossing relations.  For m = 1 with the balanced
    grading R is symmetric in this basis and the relation reduces to a
    plain commutator.
    """
    t0 = time.perf_counter()
    xt = operator_xtilde(m, grading, ctx)
    XX = np.kron(xt, xt)
    R = r_matrix("V", zetas[0], "V", zetas[1], m, grading, ctx,
                 normalization=normalization, cache=cache, check_invertible=False).R
    return VerificationReport.make(
        "invariance_xtilde", {"m": m, "norm": normalization},
        relative_residual(R.T @ XX, XX @ R), 1e-11, t0)


def check_braid_welldefined(word1, word2, m, kinds, etas, grading, ctx, normalization="kappa",
                            seed=0, cache=None) -> VerificationReport:
    """Transport along two words of the same permutation acts identically;
    words of different permutations raise ValueError."""
    t0 = time.perf_counter()
    N = len(kinds)
    chain = ChainSpec(m, grading, ctx, tuple(kinds), tuple(etas), p=1.0,
                      deltas=tuple(DeltaAssignment("general_v") for _ in range(N)),
                      normalization=normalization)
    phi = probe_vector((m + 1) ** N, seed)
    out1, ord1 = transport_phi(chain, phi, word1, cache)
    out2, ord2 = transport_phi(chain, phi, word2, cache)
    if ord1 != ord2:
        raise ValueError("words realize different permutations")
    return VerificationReport.make(
        "braid_welldefined", {"m": m, "N": N, "word1": list(word1), "word2": list(word2)},
        relative_residual(out1, out2), 1e-10, t0)
