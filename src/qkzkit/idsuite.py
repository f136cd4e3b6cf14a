"""Algebraic identity checks: Yang-Baxter, unitarity, crossing, duals, invariances.

Every check returns a VerificationReport; residuals are relative
Frobenius norms (tensorops.relative_residual).  A check with several
residuals (the tags of every conjugation of a spin, the six fits of every crossing
sample) takes them in one stacked call, tensorops.relative_residuals or
scalar_ratios, and folds them with worst_of.  Crossing relations are
verified as proportionalities against independently solved R-operators,
with the proportionality scalars extracted and reported.  Each check that
solves R-operators is a record (`qkz.StringCheck` or `qkz.FactorCheck`)
built from its factor data by the function that `qkz.solving_check`
makes the check: YBE, unitarity, the initial condition and braid
well-definedness compare factor strings, and crossing and the
invariances declare the factors that their own arithmetic reads.
"""

import numpy as np

from .report import VerificationReport, worst_of
from .reps import (antipode_dual, build_eval_rep, operator_o, operator_o_inverse,
                   operator_x, operator_xtilde, sl2_constants, twist)
from .qkz import (ChainSpec, DeltaAssignment, FactorCheck, Side, Sites, StringCheck,
                  pair_commutator, solving_check, transport_steps)
from .tensorops import (kron, partial_transpose, relative_residual, relative_residuals,
                        scalar_ratios, swap_outputs)

__all__ = [
    "VerificationReport", "check_ybe", "check_unitarity",
    "check_initial_condition", "check_crossing", "check_dualities",
    "check_invariance_x", "check_invariance_a",
    "check_invariance_xtilde", "check_braid_welldefined", "random_zeta",
]


ZETA_MODULUS = (0.5, 2.0)  # modulus range of a spectral-parameter sample
LATTICE_MARGIN = 1e-3  # closest relative approach of a generic ratio^s to the q^{2k} lattice


def random_zeta(rng, size=None):
    """Spectral-parameter sample with modulus in ZETA_MODULUS, uniform argument;
    given a size, an array of that many, all from one rng.random call (the
    modulus draw and then the argument draw of each sample in turn, the
    stream of one-sample calls)."""
    lo, hi = ZETA_MODULUS
    u = rng.random(2 if size is None else 2 * size)
    zetas = (lo + (hi - lo) * u[0::2]) * np.exp(2j * np.pi * u[1::2])
    return zetas[0] if size is None else zetas


def draw_generic_sets(rng, sets, count, m, grading, ctx) -> list:
    """The first `sets` attempts of the stream whose pairwise ratios avoid the
    degenerate loci, each a list of `count` spectral parameters.

    An attempt is `count` samples of random_zeta; it misses while any
    ratio^s falls within LATTICE_MARGIN of the q^{2k} lattice (which carries
    both the non-simple points and the zeros/poles of the unitarizing
    factor), and 1000 misses in a row raise RuntimeError.  The stream rule:
    the sets are those of `sets` draw_generic_zetas calls in turn, and the
    generator is left where they leave it.  The lattice is built once; the
    attempts still needed come from one random_zeta call, no more than the
    misses still allowed, so no attempt is drawn that the calls in turn
    would not draw, and every ratio of them is tested in one array
    comparison.  Each test is elementwise, so it has the bits of the
    attempt's own.  Only rng.random is read.
    """
    if count < 2:  # no ratio to test, and no power of q to form
        return [list(row) for row in random_zeta(rng, sets * count).reshape(sets, count)]
    q = complex(ctx.q)
    points = np.array([q ** (2 * k) for k in range(-m - 3, m + 4)])
    near = LATTICE_MARGIN * np.maximum(np.abs(points), 1e-6)
    pairs = ~np.eye(count, dtype=bool)
    found, misses = [], 0
    while len(found) < sets:
        zetas = random_zeta(rng, min(sets - len(found), 1000 - misses) * count).reshape(-1, count)
        ratios = (zetas[:, :, None] / zetas[:, None, :])[:, pairs] ** grading.s
        generic = np.flatnonzero(~(np.abs(ratios[..., None] - points) < near).any(axis=(1, 2)))
        found += [list(zetas[i]) for i in generic]
        misses = len(zetas) - 1 - generic[-1] if len(generic) else misses + len(zetas)
        if misses == 1000:
            raise RuntimeError("could not draw generic spectral parameters")
    return found


def draw_generic_zetas(rng, count, m, grading, ctx) -> list:
    """Spectral parameters whose pairwise ratios avoid the degenerate loci:
    the one set of draw_generic_sets."""
    return draw_generic_sets(rng, 1, count, m, grading, ctx)[0]


@solving_check
def check_ybe(m, kinds, samples, grading, ctx, normalization="hw") -> StringCheck:
    """R12 R13 R23 = R23 R13 R12 on the triple product at each sample of three
    spectral parameters, both sides applied factor by factor to the seeded
    probe block of qkz.probe_block; the residual is the worst over the
    samples.  Each side is the stack of its strings at all samples (qkz.Side),
    so a step is one stacked product for every sample, and the residual of
    sample s compares slice s of the two stacks; each slice has the bits of
    its sample applied alone (tensorops.string_matmul).  The R23 R13 R12
    side comes first, so each sample's factors are requested in the order
    R12, R13, R23."""
    strings = [tuple(("R", (a, b), (kinds[a], zetas[a], kinds[b], zetas[b]))
                     for a, b in ((0, 1), (0, 2), (1, 2))) for zetas in samples]
    sides = (Side(tuple(strings), check_invertible=False),
             Side(tuple(steps[::-1] for steps in strings), check_invertible=False))
    return StringCheck("ybe", {"m": m, "kinds": list(kinds), "norm": normalization}, 1e-9,
                       Sites(m, grading, ctx, normalization, 3), sides, ((1, 0),))


@solving_check
def check_unitarity(m, kinds, zetas, grading, ctx, normalization="hw") -> StringCheck:
    """Rcheck_12(z1|z2) Rcheck_21(z2|z1) = id, the product formed densely."""
    steps = tuple(("Rcheck", (0, 1), (kinds[a], zetas[a], kinds[b], zetas[b]))
                  for a, b in ((1, 0), (0, 1)))
    return StringCheck("unitarity", {"m": m, "kinds": list(kinds), "norm": normalization}, 1e-10,
                       Sites(m, grading, ctx, normalization),
                       (Side(((),), "dense", False), Side((steps,), "dense", False)))


@solving_check
def check_initial_condition(m, kind, zeta, grading, ctx, normalization="hw") -> StringCheck:
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
    steps = (("Rcheck", (0, 1), (kind, zeta, kind, zeta)),)
    return StringCheck("initial_condition", {"m": m, "kind": kind, "norm": normalization},
                       1e-12, Sites(m, grading, ctx, normalization),
                       (Side(((),), "dense"), Side((steps,), "dense")))


@solving_check
def check_crossing(m, samples, grading, ctx) -> FactorCheck:
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
    reported for comparison, not gated here.  Each sample declares its five
    hw-normalized and three kappa-normalized factors, and O, O^-1 and their
    Kronecker twists are built once.  The eight R of all S samples form one
    (S, 8, D, D) stack, and its inverses, partial transposes and
    O-conjugations are stacked calls; numpy's stacked matmul and inv call
    the same BLAS or LAPACK routine per slice, so every matrix has the bits
    of its one-sample call.  The six fits of every sample are one
    tensorops.scalar_ratios call on the (6 S, D, D) stacks, sample by
    sample.  A singular
    inverse of any sample raises, as the first singular one of the samples
    in turn did.
    """
    qd = complex(ctx.q) ** sl2_constants(grading)["delta"]
    hw, kappa = Sites(m, grading, ctx, "hw"), Sites(m, grading, ctx, "kappa")
    factors = []
    for z1, z2 in samples:
        factors += [(hw, [("V", z1, "V", z2), ("V*", z1, "V", z2), ("V", z1, "V*", z2),
                          ("V", qd * z1, "V", z2), ("V", z1, "V", qd * z2)]),
                    (kappa, [("V", z1, "V", z2), ("V", qd * z1, "V", z2),
                             ("V", z1, "V", qd * z2)])]

    def measure(read, probe):
        d, dd = m + 1, (m + 1, m + 1)
        O, Oinv, one = operator_o(m, grading, ctx), operator_o_inverse(m, grading, ctx), np.eye(d)
        # R[:, k]: R_VV, R_V*V, R_VV*, R_VV(q^d z1|z2), R_VV(z1|q^d z2), then the
        # last three kappa-normalized; conjugated by O x 1, 1 x O, O x 1, 1 x O
        R = np.array([swap_outputs(read(sites, info), d, d)
                      for sites, infos in factors for info in infos]).reshape(-1, 8, d * d, d * d)
        lead = R[:, [0, 5]]  # R_VV and Rk
        inv = np.linalg.inv(np.concatenate((lead, partial_transpose(lead, "second", dd)), axis=1))
        inv_t1 = partial_transpose(inv[:, :2], "first", dd)
        conj = (np.array([kron(O, one), kron(one, O)] * 2) @ R[:, [3, 4, 6, 7]]
                @ np.array([kron(Oinv, one), kron(one, Oinv)] * 2))
        # the six (A, B) pairs of each sample, sample by sample, fitted A ~ lambda B
        A = np.stack((R[:, 1], R[:, 2], R[:, 1], R[:, 2], conj[:, 2], conj[:, 3]), axis=1)
        B = np.stack((inv_t1[:, 0], inv[:, 2], conj[:, 0], conj[:, 1], inv_t1[:, 1], inv[:, 3]),
                     axis=1)
        scal, resids = scalar_ratios(A.reshape(-1, *A.shape[2:]), B.reshape(-1, *B.shape[2:]))
        scal = np.array(scal).reshape(-1, 6).T.copy()  # scal[i]: fit i of every sample
        spread = worst_of(np.abs(scal[i] - np.mean(scal[i])).max() for i in (2, 3, 4, 5))
        return VerificationReport.make(
            "crossing", {"m": m, "scalar_spread": spread}, worst_of(resids), 1e-9,
            extracted_scalars=scal[:, -1].tolist())
    return FactorCheck(tuple(factors), measure)


def check_dualities(spins, gradings, zetas, ctx) -> list:
    """The double_dual and self_dual reports of each spin at each grading;
    zetas[i][j] is the (double, self) pair of spectral parameters of
    gradings[i] and spins[j].

    The double dual equals the q^-eps shifted module conjugated by X, and
    the dual equals the q^delta shifted module conjugated by O: L = C R C^-1
    at every tag of the module.  Each spin's V, V* and V** are built once,
    since only their zeta exponents depend on the grading
    (EvalRep.regraded).  The checks are built grading by grading and spin by
    spin, so a build error comes in the order of the checks; then each
    spin is one stacked pass: its C are one np.linalg.inv call, its
    C R C^-1 at every check and tag one stacked product, and their
    residuals one relative_residuals call, folded check by check.  numpy's
    stacked inv and matmul call the same LAPACK or BLAS routine on each
    slice, so every residual has the bits of its check taken alone; the
    scalar factors (the q^-eps and q^delta shifts, the zeta powers of
    EvalRep.gen) stay Python complex powers.
    """
    q = complex(ctx.q)
    modules, stacks = {}, {m: ([], [], [], []) for m in spins}  # per spin: lhs, rhs, C, params
    for g, row in zip(gradings, zetas):
        c = sl2_constants(g)
        for m, (z_double, z_self) in zip(spins, row):
            if m not in modules:
                rep = build_eval_rep(m, g, ctx)
                dual = antipode_dual(rep)
                modules[m] = (rep, dual, antipode_dual(dual))
            V, dual, ddual = (r.regraded(g) for r in modules[m])
            lhs, rhs, C, params = stacks[m]
            for name, L, zeta, shift, conj in (
                    ("double_dual", ddual, z_double, -c["epsilon"], operator_x),
                    ("self_dual", dual, z_self, c["delta"], operator_o)):
                C.append(conj(m, g, ctx))
                shifted = q ** shift * zeta
                lhs += [L.gen(tag, zeta) for tag in L.tags]
                rhs.append([V.gen(tag, shifted) for tag in L.tags])
                params.append((name, {"m": m, "s0": g.s0, "s1": g.s1}))
    reports = []
    for m, (lhs, rhs, C, params) in stacks.items():
        C = np.array(C)
        other = C[:, None] @ np.array(rhs) @ np.linalg.inv(C)[:, None]
        resids = relative_residuals(np.array(lhs), other.reshape(len(lhs), m + 1, m + 1))
        tags = len(lhs) // len(C)
        reports += [VerificationReport.make(name, par, worst_of(resids[k * tags:(k + 1) * tags]),
                                            1e-12) for k, (name, par) in enumerate(params)]
    return reports


@solving_check
def check_invariance_x(m, kinds, zetas, grading, ctx) -> FactorCheck:
    """[(X x X), R] = 0 with the kind-appropriate X on each slot (hw-normalized R)."""
    return pair_commutator(
        "invariance_x", {"m": m, "kinds": list(kinds), "s0": grading.s0, "s1": grading.s1},
        Sites(m, grading, ctx), (kinds[0], zetas[0], kinds[1], zetas[1]),
        lambda: [operator_x(m, grading, ctx, kind=k) for k in kinds])


@solving_check
def check_invariance_a(alpha, m, kinds, zetas, grading, ctx) -> FactorCheck:
    """[(A^alpha x A^alpha), R] = 0 with the kind-appropriate twist images
    (hw-normalized R)."""
    value = [alpha.real, alpha.imag] if isinstance(alpha, complex) else alpha
    return pair_commutator(
        "invariance_a", {"m": m, "kinds": list(kinds), "alpha": value},
        Sites(m, grading, ctx), (kinds[0], zetas[0], kinds[1], zetas[1]),
        lambda: [twist(k, alpha, m, ctx) for k in kinds])


@solving_check
def check_invariance_xtilde(m, grading, ctx, zetas, normalization="kappa") -> FactorCheck:
    """Transpose-twisted invariance (Xt x Xt) R = R^t (Xt x Xt) for the (V,V) pair.

    This is the form valid for every grading and spin; it follows from the
    two closed dual-shift crossing relations.  For m = 1 with the balanced
    grading R is symmetric in this basis and the relation reduces to a
    plain commutator.
    """
    def measure(read, probe):
        xt = operator_xtilde(m, grading, ctx)
        XX = kron(xt, xt)
        R = swap_outputs(read(sites, info), m + 1, m + 1)
        return VerificationReport.make("invariance_xtilde", {"m": m, "norm": normalization},
                                       relative_residual(R.T @ XX, XX @ R), 1e-11)
    sites, info = Sites(m, grading, ctx, normalization), ("V", zetas[0], "V", zetas[1])
    return FactorCheck(((sites, [info]),), measure)


@solving_check
def check_braid_welldefined(word1, word2, m, kinds, etas, grading, ctx, normalization="kappa",
                            seed=0) -> StringCheck:
    """Transport along two words of the same permutation acts identically on
    the seeded probe vector; words of different permutations raise ValueError."""
    chain = ChainSpec(m, grading, ctx, tuple(kinds), tuple(etas), p=1.0,
                      deltas=tuple(DeltaAssignment("general_v") for _ in kinds),
                      normalization=normalization)
    (steps1, ord1), (steps2, ord2) = transport_steps(chain, word1), transport_steps(chain, word2)
    if ord1 != ord2:
        raise ValueError("words realize different permutations")
    params = {"m": m, "N": len(kinds), "word1": list(word1), "word2": list(word2)}
    return StringCheck("braid_welldefined", params, 1e-10, chain,
                       (Side((steps1,)), Side((steps2,))), seed=seed, columns=1)
