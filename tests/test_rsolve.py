import hashlib
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import plant_in_pair, zeta_sample
from factor_ops import read_factors
from qkzkit import reps, rsolve
from qkzkit.context import QContext
from qkzkit.errors import (ConfigError, DegeneratePointError, QkzError, ScalarDomainError,
                           TruncationError, copy_error)
from qkzkit.reduction import ReductionCase, chain_for, mirrored_args
from qkzkit.reps import (GENERATOR_TAGS, GradingChoice, coproduct_parts,
                         eval_module, operator_o, operator_o_inverse, sl2_constants)
from qkzkit.rsolve import (_CANCEL_TOL, RCache, _kappa_scalars, apply_kappa, make_request,
                           r_matrix, rcheck_resonant, solve_intertwiner)
from qkzkit.scalars import kappa_sl2, kappa_sl2_even_rational, raise_first
from qkzkit.tensorops import permutation_op, relative_residual

ALL_PAIRS = [("V", "V"), ("V*", "V"), ("V", "V*"), ("V*", "V*")]


def _site(kind, m, grading, ctx, zeta):
    """One chain site: its module and spectral parameter."""
    return eval_module(kind, m, grading, ctx), zeta


def _kron_coproduct(tag, s1, s2):
    """Delta(e_i) = e_i x 1 + q^{h_i} x e_i, Delta(f_i) = f_i x q^{-h_i} + 1 x f_i,
    Delta(q^{h_i}) = q^{h_i} x q^{h_i}, by np.kron of the generators at each
    site's own zeta."""
    (r1, z1), (r2, z2), i = s1, s2, tag[-1]
    if tag.startswith("qh"):
        return np.kron(r1.gen(tag, z1), r2.gen(tag, z2))
    if tag[0] == "e":
        return np.kron(r1.gen(tag, z1), np.eye(r2.dim)) + \
            np.kron(r1.gen(f"qh{i}", z1), r2.gen(tag, z2))
    return np.kron(r1.gen(tag, z1), r2.gen(f"qh{i}", z2, -1.0)) + \
        np.kron(np.eye(r1.dim), r2.gen(tag, z2))


def _commutant_oracle(s1, s2):
    """Nullvector of X M - N X = 0 over all six generators, built by naive loops."""
    D = s1[0].dim * s2[0].dim
    rows = []
    for tag in GENERATOR_TAGS:
        M = _kron_coproduct(tag, s1, s2)
        N = _kron_coproduct(tag, s2, s1)
        K = np.zeros((D * D, D * D), dtype=complex)
        for r in range(D):          # row index of X
            for c in range(D):      # column index of X
                # coefficient of X[a, b] in (X M - N X)[r, c]
                for a in range(D):
                    for b in range(D):
                        coeff = 0.0
                        if a == r:
                            coeff += M[b, c]
                        if b == c:
                            coeff -= N[r, a]
                        K[r * D + c, a * D + b] += coeff
        rows.append(K)
    _, svals, vh = np.linalg.svd(np.vstack(rows))
    assert svals[-2] / svals[-1] > 1e10
    return vh[-1].conj().reshape(D, D)


def _full_assembly_rows(s1, s2, tags=("e0", "e1", "f0", "f1")):
    """Nonzero rows of the commutant system on the weight-sector unknowns, assembled
    over all D^2 entries (i, j) of each equation of tags against np.eye(D)."""
    D = s1[0].dim * s2[0].dim
    w1, w2 = s1[0].weights.real, s2[0].weights.real
    a, b = np.nonzero(np.add.outer(w2, w1).reshape(-1, 1) == np.add.outer(w1, w2).reshape(1, -1))
    eye = np.eye(D)
    blocks = []
    for tag in tags:
        M = _kron_coproduct(tag, s1, s2)
        N = _kron_coproduct(tag, s2, s1)
        blocks.append((np.einsum("ki,kj->ijk", eye[a], M[b])
                       - np.einsum("ik,kj->ijk", N[:, a], eye[b])).reshape(D * D, -1))
    K = np.vstack(blocks)
    return K[np.linalg.norm(K, axis=1) > 0]


def _count_calls(monkeypatch, owner, name):
    """The argument tuples of every call of owner.name from here on."""
    calls = []
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kw: calls.append(args) or fn(*args, **kw))
    return calls


def _count_solves(monkeypatch):
    """The calls that reach _raw_nullvector from here on."""
    return _count_calls(monkeypatch, rsolve, "_raw_nullvector")


class TestSolveBasics:
    def test_equal_arguments_give_identity(self, ctx, grading, cache):
        res = r_matrix("V", 1.1 + 0.3j, "V", 1.1 + 0.3j, 1, grading, ctx, cache=cache)
        assert np.abs(res.Rcheck - np.eye(4)).max() < 1e-13

    def test_gap_is_large_generic(self, ctx, grading, cache):
        rng = np.random.default_rng(0)
        for m in (1, 2, 3):
            res = r_matrix("V", zeta_sample(rng), "V", zeta_sample(rng), m,
                           grading, ctx, cache=cache)
            assert res.margin >= _CANCEL_TOL

    def test_intertwine_residual(self, ctx, grading, cache):
        rng = np.random.default_rng(1)
        for kinds in ALL_PAIRS:
            res = r_matrix(kinds[0], zeta_sample(rng), kinds[1], zeta_sample(rng),
                           2, grading, ctx, cache=cache)
            assert res.intertwine_residual < 1e-11

    @pytest.mark.parametrize("q, g", [(0.7, (1, 1)), (0.3, (2, 1)), (0.5 + 0.5j, (0, 1))])
    def test_cartan_rows_hold_identically(self, q, g):
        # the intertwining residual checks the e/f generators only: on the
        # weight-conserving entries Rcheck Delta(q^{h_i}) = Delta(q^{h_i}) Rcheck
        # up to rounding, so those rows could never fail
        ctx, grading = QContext(q), GradingChoice(*g)
        rng = np.random.default_rng(5)
        for m in (1, 2, 3):
            for k1, k2 in ALL_PAIRS:
                r1, r2 = (eval_module(k, m, grading, ctx) for k in (k1, k2))
                Rc = r_matrix(k1, zeta_sample(rng), k2, zeta_sample(rng), m, grading, ctx,
                              check_invertible=False).Rcheck
                for tag in ("qh0", "qh1"):
                    M = np.kron(r1.gen(tag, 1.0), r2.gen(tag, 1.0))
                    N = np.kron(r2.gen(tag, 1.0), r1.gen(tag, 1.0))
                    assert relative_residual(Rc @ M, N @ Rc) < 1e-15

    def test_brute_force_commutant_oracle(self, grading):
        # independent assembly by naive loops: all (m+1)^4 entries of Rcheck
        # are unknowns and all six generators give equations at the grading's
        # own zeta powers, no weight or gauge assumed
        z1, z2 = 1.37 + 0.21j, 0.77 - 0.43j
        for g in (grading, GradingChoice(1, 0), GradingChoice(0, 1), GradingChoice(2, 1)):
            for q in (0.7, 0.6 + 0.09j, 0.5 + 0.5j):
                ctx = QContext(q)
                for m in (1, 2):
                    for kinds in ALL_PAIRS:
                        oracle = _commutant_oracle(_site(kinds[0], m, g, ctx, z1),
                                                   _site(kinds[1], m, g, ctx, z2))
                        res = r_matrix(kinds[0], z1, kinds[1], z2, m, g, ctx)
                        lam = np.vdot(oracle, res.Rcheck) / np.vdot(oracle, oracle)
                        assert np.abs(res.Rcheck - lam * oracle).max() <= \
                            1e-11 * np.abs(res.Rcheck).max(), (g, q, m, kinds)

    @pytest.mark.parametrize("g", [(1, 1), (1, 0), (2, 1), (0, 1)])
    def test_rows_by_weight_shift_match_the_full_assembly(self, g):
        # what a solve reads of each frame, its basis and the ratio numbers
        # of its lowering row generator (e0 at grade s in frame 1, f1 at
        # grade -s in frame 0), solves every e/f row of the D^2-row assembly
        # from np.kron coproducts at the frame's grading, (s, 0) or (0, s)
        z1, z2 = 1.37 + 0.21j, 0.77 - 0.43j
        s = sum(g)
        for q, m, kinds in itertools.product((0.7, 0.6 + 0.09j, 0.3, 0.5 + 0.5j), (1, 2, 3, 4),
                                             ALL_PAIRS):
            ctx = QContext(q)
            pair = rsolve.PAIRS.index(kinds)
            for frame, homogeneous, p in ((1, (s, 0), s), (0, (0, s), -s)):
                s1 = _site(kinds[0], m, GradingChoice(*homogeneous), ctx, z1)
                s2 = _site(kinds[1], m, GradingChoice(*homogeneous), ctx, z2)
                fr = rsolve.CommutantTemplate(m, ctx).frame(frame)
                full = _full_assembly_rows(s1, s2)
                (a, b), (a2, b2) = fr.ratios[pair]
                c = rsolve.normalize_hw(((z1**p * a2 + z2**p * b2) / (z1**p * a + z2**p * b))[None])
                x = c[0] @ fr.basis[:, pair]
                assert np.abs(full @ x).max() <= 1e-13 * (np.abs(full) @ np.abs(x)).max(), \
                    (q, m, kinds, frame)

    def test_unknowns_are_the_weight_sectors(self, ctx, grading):
        # one unknown per weight-conserving entry of Rcheck, the same number for
        # each of the four module pairs of a spin, and a commutant basis of m+1
        # columns: the solve's matrix is rows x (m+1)
        sizes, widths = [], []
        for m in (1, 2, 3, 4):
            cache = RCache()
            r_matrix("V", 1.3 + 0.2j, "V*", 0.8 - 0.1j, m, grading, ctx, cache=cache)
            t = cache.template(make_request("V", 1.0, "V*", 1.0, m, grading, ctx))
            sizes.append(t.a.shape)
            for frame in (t.frame(1), t.frame(0)):
                widths.append({frame.basis.shape[0], frame.ratios.shape[3] + 1})
        assert sizes == [(4, 6), (4, 19), (4, 44), (4, 85)]
        assert widths == [{2}, {2}, {3}, {3}, {4}, {4}, {5}, {5}]

    def test_depends_only_on_ratio(self, ctx, grading10, cache):
        rng = np.random.default_rng(2)
        z1, z2 = zeta_sample(rng), zeta_sample(rng)
        nu = zeta_sample(rng)
        for kinds in ALL_PAIRS:
            a = r_matrix(kinds[0], z1, kinds[1], z2, 1, grading10, ctx, cache=cache)
            b = r_matrix(kinds[0], nu * z1, kinds[1], nu * z2, 1, grading10, ctx)
            assert np.abs(a.R - b.R).max() < 1e-10


class TestNormalization:
    def test_unitarity_both_modes_all_pairs(self, ctx, grading, cache):
        rng = np.random.default_rng(3)
        for norm in ("hw", "kappa"):
            for kinds in ALL_PAIRS:
                z1, z2 = zeta_sample(rng), zeta_sample(rng)
                a = r_matrix(kinds[0], z1, kinds[1], z2, 2, grading, ctx,
                             normalization=norm, cache=cache)
                b = r_matrix(kinds[1], z2, kinds[0], z1, 2, grading, ctx,
                             normalization=norm, cache=cache)
                assert np.abs(a.Rcheck @ b.Rcheck - np.eye(9)).max() < 1e-10

    def test_unitarity_twenty_points(self, ctx, grading, cache):
        rng = np.random.default_rng(42)
        for _ in range(20):
            z1, z2 = zeta_sample(rng), zeta_sample(rng)
            for norm in ("hw", "kappa"):
                for kinds in ALL_PAIRS:
                    a = r_matrix(kinds[0], z1, kinds[1], z2, 1, grading, ctx,
                                 normalization=norm, cache=cache)
                    b = r_matrix(kinds[1], z2, kinds[0], z1, 1, grading, ctx,
                                 normalization=norm, cache=cache)
                    assert np.abs(a.Rcheck @ b.Rcheck - np.eye(4)).max() < 1e-10

    def test_apply_kappa_matches_kappa_mode(self, ctx, grading, cache):
        rng = np.random.default_rng(44)
        for kinds in (("V", "V"), ("V*", "V")):
            z1, z2 = zeta_sample(rng), zeta_sample(rng)
            hw_req = make_request(kinds[0], z1, kinds[1], z2, 2, grading, ctx, "hw")
            kp_req = make_request(kinds[0], z1, kinds[1], z2, 2, grading, ctx, "kappa")
            rescaled = apply_kappa(solve_intertwiner([hw_req])[0], _kappa_scalars([kp_req])[0])
            direct = solve_intertwiner([kp_req])[0]
            assert np.abs(rescaled.R - direct.R).max() < 1e-13

    def test_kappa_preserves_initial_condition(self, ctx, grading, cache):
        z = 0.9 - 0.2j
        res = r_matrix("V", z, "V", z, 2, grading, ctx, normalization="kappa",
                       cache=cache)
        assert np.abs(res.Rcheck - np.eye(9)).max() < 1e-11

    def test_kappa_entries_rational_for_even_m(self, ctx, grading, cache):
        # kappa-normalized entries relate to the hw ones by the rational kappa
        rng = np.random.default_rng(4)
        z1, z2 = zeta_sample(rng), zeta_sample(rng)
        z = (z1 / z2) ** grading.s
        hw = r_matrix("V", z1, "V", z2, 2, grading, ctx, normalization="hw")
        kp = r_matrix("V", z1, "V", z2, 2, grading, ctx, normalization="kappa")
        rational = kappa_sl2_even_rational(1, z, ctx)
        assert np.abs(kp.R * rational - hw.R).max() < 1e-10
        assert np.abs(kp.Rcheck * kappa_sl2(2, z, ctx) - hw.Rcheck).max() < 1e-10


class TestDegenerateDetection:
    def test_detection_on_scanned_locus_m1(self, ctx, grading):
        # z = zeta12^s on the non-simple lattice q^{+-2}; both points must fire
        q = complex(ctx.q)
        for ratio in (q ** (2.0 / grading.s), q ** (-2.0 / grading.s)):
            with pytest.raises(DegeneratePointError):
                r_matrix("V", ratio, "V", 1.0, 1, grading, ctx)

    def test_mixed_pair_fires_at_equal_arguments(self, ctx, grading):
        with pytest.raises(DegeneratePointError):
            r_matrix("V*", 1.3, "V", 1.3, 1, grading, ctx)

    @pytest.mark.parametrize("m, power", [(1, 2), (2, 2), (1, 6)])
    def test_zero_operator_is_singular(self, ctx, grading, m, power):
        # kappa vanishes for the mixed pair at z = q^power, so R is all zero
        ratio = complex(ctx.q) ** (power / grading.s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegeneratePointError):
                r_matrix("V", ratio, "V*", 1.0, m, grading, ctx, normalization="kappa")
            res = r_matrix("V", ratio, "V*", 1.0, m, grading, ctx, normalization="kappa",
                           check_invertible=False)
        assert np.abs(res.R).max() == 0.0
        assert res.margin == 0.0 and res.intertwine_residual == np.inf

    def test_kappa_zero_like_pair_is_degenerate(self):
        # kappa(q^2) is exactly 0 at m = 1: a pole of the like pair, not a division error
        with pytest.raises(DegeneratePointError):
            r_matrix("V", 0.7, "V", 1.0, 1, GradingChoice(1, 1), QContext(0.7), "kappa")

    @pytest.mark.parametrize("dead", [("e0", "f0"), ("e1", "f1")])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_widened_nullspace_fires_the_gap(self, ctx, grading, monkeypatch, dead, m):
        # without one e/f pair the remaining U_q(sl2) has an (m+1)-dimensional
        # commutant; the gap check must see it at every m
        raw = coproduct_parts

        def mutated(rep1, rep2):
            A, B = raw(rep1, rep2)
            keep = np.array([tag not in dead for tag in GENERATOR_TAGS[:4]])[:, None, None]
            return A * keep, B * keep
        monkeypatch.setattr(rsolve, "coproduct_parts", mutated)
        with pytest.raises(DegeneratePointError, match="nullspace gap"):
            r_matrix("V", 1.3 + 0.2j, "V", 0.8 - 0.1j, m, grading, ctx)

    def test_near_lattice_is_fine(self, ctx, grading):
        q = complex(ctx.q)
        ratio = q ** (-2.0 / grading.s) * 1.01
        res = r_matrix("V", ratio, "V", 1.0, 1, grading, ctx)
        assert res.margin >= _CANCEL_TOL

    @pytest.mark.parametrize("z", [complex(0.3) ** 8, 0.3**8, 0.3**8 * (1 + 1e-15)],
                             ids=["complex", "real", "perturbed"])
    def test_badly_scaled_regular_point_has_a_clean_gap(self, z):
        # zeta^{+-s} and the q-numbers spread the commutant rows over many orders
        # of magnitude here; a normwise solve's gap was rounding noise
        res = r_matrix("V", z, "V", 1.0, 3, GradingChoice(1, 0), QContext(0.3))
        assert res.margin > 0.5

    @pytest.mark.parametrize("kind", ["V", "V*"])
    def test_small_q_shell_is_regular(self, kind):
        # regular points, each solved with the invertibility check:
        # - a like pair at (zeta1/zeta2)^s = q^{+-2(m+1)}, q = 0.3, off the resonance lattice
        # - a mixed pair at (zeta1/zeta2)^s = q^{-+10}, m = 3, q = 0.3, off its lattice
        # - a like pair where R's components spread over many orders of
        #   magnitude: (V, V) at q = 0.7, grading (1, 1), m = 8..12, and
        #   (V*, V*) at m = 4, q = 0.3
        # A normwise nullvector loses the small components' relative digits
        # at the last two kinds of point, and its fixed thresholds called them
        # non-simple or singular.
        ctx = QContext(0.3)
        points = []
        for s0, s1 in ((1, 1), (1, 0), (2, 1), (0, 1)):
            g = GradingChoice(s0, s1)
            for m in (1, 2, 3):
                for sign in (1, -1):
                    zeta = complex(0.3) ** (sign * 2 * (m + 1) / g.s)
                    points.append((kind, zeta, kind, 1.0, m, g, ctx))
        other, sign = ("V*", -1) if kind == "V" else ("V", 1)
        for g in (GradingChoice(1, 0), GradingChoice(0, 1)):
            points.append((kind, 0.3 ** (10 * sign), other, 1.0, 3, g, ctx))
        if kind == "V":
            points += [("V", r * np.exp(0.7j), "V", 1.0, m, GradingChoice(1, 1), QContext(0.7))
                       for m, r in ((8, 6), (10, 3), (12, 1.5), (12, 3), (12, 6))]
        else:
            points += [("V*", r * np.exp(0.3j), "V*", 1.0, 4, GradingChoice(*g), ctx)
                       for g, r in (((1, 0), 111), ((0, 1), 111), ((2, 1), 9))]
        for args in points:
            res = r_matrix(*args)
            assert res.margin > 0.1 and res.intertwine_residual <= 1e-8, args

    @pytest.mark.parametrize("q", [0.7, 0.6 + 0.09j, 0.5 + 0.5j, 0.3])
    def test_resonance_lattice_sweep(self, q):
        # (zeta1/zeta2)^s = q^{2k}, 1 <= |k| <= m+1, for every grading, kind
        # pair and m = 1..3.  With t = k, shifted by +1 for (V, V*) and by -1
        # for (V*, V): t in [-m, -1] makes the hw component vanish, t in
        # [1, m] makes R singular, and every other point is regular.  A
        # normwise SVD solve with fixed thresholds gave these same outcomes
        # at every point of this grid.
        ctx = QContext(q)
        for (s0, s1), kinds, m in itertools.product(((1, 1), (1, 0), (2, 1), (0, 1)),
                                                    ALL_PAIRS, (1, 2, 3)):
            g = GradingChoice(s0, s1)
            shift = {("V", "V*"): 1, ("V*", "V"): -1}.get(kinds, 0)
            for k in [k for k in range(-m - 1, m + 2) if k]:
                args = (kinds[0], complex(q) ** (2 * k / g.s), kinds[1], 1.0, m, g, ctx)
                t = k + shift
                if 1 <= abs(t) <= m:
                    match = "highest-weight component vanishes" if t < 0 else "numerically singular"
                    with pytest.raises(DegeneratePointError, match=match):
                        r_matrix(*args)
                else:
                    assert r_matrix(*args).margin > 0.3, args

    @pytest.mark.parametrize("s0, s1", [(2, 1), (1, 2), (0, 1)])
    @pytest.mark.parametrize("zeta", [1e308, 1e160, 1e-160, 5e-324])
    def test_extreme_spectral_parameter_is_a_clean_error(self, ctx, s0, s1, zeta):
        # zeta^s, the gauge powers and the row norms overflow before the
        # grading's own powers do; each overflow is a package error, never a
        # Python OverflowError, ZeroDivisionError or numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for norm in ("hw", "kappa"):
                try:
                    r_matrix("V", zeta, "V*", 1.0, 2, GradingChoice(s0, s1), ctx, norm)
                except QkzError:
                    pass


class TestContinuation:
    def test_matches_closed_form_m1(self, ctx, grading):
        # kappa-normalized value at the removable like-kind resonance;
        # the limit scalar is h0 = q (q^6; q^4)/(q^2; q^4)
        q = complex(ctx.q)
        x0 = q ** (-1.0)
        got = rcheck_resonant(1, grading, ctx)
        num = den = 1.0
        for k in range(ctx.trunc_terms):
            num *= 1 - q ** (6 + 4 * k)
            den *= 1 - q ** (2 + 4 * k)
        h0 = q * num / den
        want = np.zeros((4, 4), complex)
        want[1, 1] = want[2, 2] = x0 * (1 - q**2) * h0
        want[1, 2] = want[2, 1] = q * (1 - q ** (-2)) * h0
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("q", [0.7, 0.6 + 0.09j])
    @pytest.mark.parametrize("s0, s1", [(1, 1), (1, 0), (2, 1)])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_is_the_limit_of_the_solved_family(self, q, s0, s1, m, monkeypatch):
        # the solver approaches the resonance q^delta zeta along (1 + h); the
        # closed form is its limit, and a negated or O-transposed form is not
        ctx, grading = QContext(q), GradingChoice(s0, s1)
        zeta = 1.3
        qd = complex(q) ** sl2_constants(grading)["delta"]
        closed = rcheck_resonant(m, grading, ctx)
        with monkeypatch.context() as mp:
            mp.setattr(rsolve, "operator_o", lambda *a: operator_o(*a).T)
            mp.setattr(rsolve, "operator_o_inverse", lambda *a: operator_o_inverse(*a).T)
            transposed = rcheck_resonant(m, grading, ctx)

        def dist(near, form):
            return np.linalg.norm(near - form) / np.linalg.norm(form)

        for h in (1e-2, 1e-3, 1e-4):
            near = r_matrix("V", qd * (1 + h) * zeta, "V", zeta, m, grading, ctx,
                            normalization="kappa", check_invertible=False).Rcheck
            assert dist(near, closed) <= 20 * h
        # at the smallest h the bound is tight enough to reject a wrong form
        assert dist(near, -closed) > 20 * h
        if s0 == s1:
            # O^t = (-1)^m O when s0 = s1, so transposing O changes nothing to detect
            assert np.abs(transposed - closed).max() < 1e-14
        else:
            assert dist(near, transposed) > 20 * h

    def test_regular_close_to_the_resonance(self):
        # hw x hw is alone in its weight sector, so the hw normalization holds
        # arbitrarily close to the resonance and the family reaches its limit
        ctx, grading, m = QContext(0.6 + 0.09j), GradingChoice(1, 0), 3
        zeta = 1.1 - 0.4j
        qd = complex(ctx.q) ** sl2_constants(grading)["delta"]
        closed = rcheck_resonant(m, grading, ctx)
        for h in (1e-4, 1e-5, 1e-6):
            near = r_matrix("V", qd * (1 + h) * zeta, "V", zeta, m, grading, ctx,
                            normalization="kappa", check_invertible=False).Rcheck
            assert np.linalg.norm(near - closed) <= 20 * h * np.linalg.norm(closed)

    def test_non_removable_point_rejected(self, ctx, grading):
        # the mixed pair at equal arguments stays a genuine pole in kappa mode
        chain = chain_for(ReductionCase("self_dual", 1, 1, grading, ctx), [1.0, 1.0])
        with pytest.raises(DegeneratePointError):
            read_factors(chain, [("V*", 1.0, "V", 1.0)])

    def test_resonance_runs_no_solve(self, ctx, grading, monkeypatch):
        # the factor the self-dual theorem needs comes from the closed form
        solves = _count_solves(monkeypatch)
        case = ReductionCase("self_dual", 1, 2, grading, ctx)
        z = 1.3 + 0.2j
        chain = chain_for(case, mirrored_args(case, [z]))
        w = complex(ctx.q) ** case.shift
        got, = read_factors(chain, [("V", w * z, "V", case.p * z)], RCache())
        assert solves == []
        assert np.abs(got - rcheck_resonant(2, grading, ctx)).max() == 0.0


class TestOneStoredOperator:
    """A result stores Rcheck's weight-conserving entries alone; Rcheck and
    R = P Rcheck are formed on each read."""

    def test_entries_are_the_only_array_field(self):
        arrays = [name for name, kind in rsolve.RResult.__annotations__.items()
                  if kind is np.ndarray]
        assert arrays == ["entries"]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("norm", ["hw", "kappa"])
    def test_r_is_p_rcheck(self, ctx, grading, m, norm):
        d = m + 1
        P = permutation_op([1, 0], (d, d))
        reqs = [make_request(k1, 1.2 + 0.3j, k2, 0.8 - 0.2j, m, grading, ctx, norm)
                for k1, k2 in ALL_PAIRS]
        for res in solve_intertwiner(reqs):
            assert [name for name in res._fields
                    if isinstance(getattr(res, name), np.ndarray)] == ["entries"]
            assert np.array_equal(res.R, P @ res.Rcheck)

    def test_one_calls_results_hold_the_entries_of_each_solve(self, ctx, grading):
        # the results of one call of N hw solves at m = 4 hold N U complex entries
        # (U = 85 weight-conserving unknowns), well under the N D^2 (D^2 = 625) of
        # dense operators
        m, N = 4, 16
        D = (m + 1) ** 2
        cache = RCache()
        solve_intertwiner([make_request("V", 1.1, "V*", 0.9, m, grading, ctx)], cache)  # template
        reqs = [make_request("V", (1.0 + 0.05 * k) * np.exp(0.3j * k), "V*", 0.9, m,
                             grading, ctx) for k in range(N)]
        U = cache.template(reqs[0]).a.shape[1]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            results = solve_intertwiner(reqs, cache)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(results) == N and U == 85
        assert N * U * 16 <= retained < 0.25 * N * D * D * 16


class TestCache:
    """The cache shares templates across calls; a call's results live in the call."""

    @pytest.mark.parametrize("order", [("hw", "kappa"), ("kappa", "hw")])
    def test_one_solve_per_zeta_pair(self, ctx, grading, monkeypatch, order):
        # the hw and kappa requests of one zeta pair in one call share its solve
        solves = _count_solves(monkeypatch)
        reqs = [make_request("V", 1.2 + 0.1j, "V", 0.8, 2, grading, ctx, norm) for norm in order]
        res = dict(zip(order, solve_intertwiner(reqs, RCache())))
        assert len(solves) == 1 and len(solves[0][0]) == 1
        k = 1.0 / kappa_sl2(2, ((1.2 + 0.1j) / 0.8) ** grading.s, ctx)
        assert np.array_equal(res["kappa"].Rcheck, res["hw"].Rcheck * k)

    def test_kappa_requests_of_a_call_scan_kappa_once(self, ctx, grading, monkeypatch):
        # repeated kappa requests of one zeta pair in one call rescale its one
        # solve by one kappa scalar, from one Pochhammer scan
        scans = _count_calls(monkeypatch, rsolve, "kappa_sl2")
        solves = _count_solves(monkeypatch)
        reqs = [make_request("V", 1.2 + 0.1j, "V*", 0.8, 2, grading, ctx, norm)
                for norm in ("hw", "kappa", "kappa", "hw", "kappa")]
        res = solve_intertwiner(reqs, RCache())
        assert len(scans) == len(solves) == 1
        assert np.array_equal(res[1].Rcheck, res[4].Rcheck)

    def test_second_call_solves_again_on_the_shared_templates(self, ctx, grading, monkeypatch):
        # the cache holds no result: the same requests on the same cache are solved
        # again, one stack per spin, from the templates of the first call
        rng = np.random.default_rng(29)
        reqs = [make_request(k1, zeta_sample(rng), k2, zeta_sample(rng), m, grading, ctx, norm)
                for k1, k2 in ALL_PAIRS for m in (1, 2) for norm in ("hw", "kappa")]
        cache = RCache()
        first = solve_intertwiner(reqs, cache)
        built = []
        raw = rsolve.CommutantTemplate
        monkeypatch.setattr(rsolve, "CommutantTemplate",
                            lambda *spin: built.append(spin) or raw(*spin))
        stacks = _count_calls(monkeypatch, rsolve, "_solve")
        second = solve_intertwiner(reqs, cache)
        assert built == [] and sorted(stack[0].m for stack, _, _ in stacks) == [1, 2]
        for a, b in zip(first, second):
            assert np.array_equal(a.Rcheck, b.Rcheck)

    def test_second_zeta_pair_builds_no_template(self, ctx, grading, monkeypatch):
        # one template per spin (m, q) serves all four module pairs: a second
        # pair of the spin builds nothing, a second spin builds one
        cache = RCache()
        r_matrix("V*", 1.2 + 0.1j, "V", 0.8, 2, grading, ctx, cache=cache)
        built = []
        raw = rsolve.CommutantTemplate
        monkeypatch.setattr(rsolve, "CommutantTemplate",
                            lambda *spin: built.append(spin) or raw(*spin))
        r_matrix("V*", 0.9 - 0.3j, "V", 1.4, 2, grading, ctx, cache=cache)
        r_matrix("V", 0.9 - 0.3j, "V", 1.4, 2, grading, ctx, cache=cache)
        assert built == []
        r_matrix("V", 0.9 - 0.3j, "V", 1.4, 3, grading, ctx, cache=cache)
        assert [m for m, _ in built] == [3]

    def test_one_pair_builds_its_whole_spin_once(self, ctx, grading, monkeypatch):
        # a call that requests only (V*, V) at m = 2 builds the template of the
        # spin, the data of all four module pairs in one pass, and a second call
        # on the same cache builds nothing
        cache = RCache()
        templates = _count_calls(monkeypatch, rsolve, "CommutantTemplate")
        frames = _count_calls(monkeypatch, rsolve, "_commutant_basis")
        solve_intertwiner([make_request("V*", 1.2 + 0.1j, "V", 0.8, 2, grading, ctx)], cache)
        assert [m for m, _ in templates] == [2] and len(frames) == 1
        t = cache.template(make_request("V", 1.0, "V", 1.0, 2, grading, ctx))
        frame = t.frame(rsolve._frame_of(grading)[0])
        assert frame.basis.shape[1] == len(frame.errors) == len(rsolve.PAIRS) == 4
        assert frame.errors == (None,) * 4
        solve_intertwiner([make_request("V*", 0.7, "V", 1.3, 2, grading, ctx)], cache)
        assert len(templates) == len(frames) == 1

    def test_second_grading_builds_no_template(self, ctx, grading, monkeypatch):
        # the template is keyed by the spin (m, q); only the zeta powers and the
        # gauge depend on the grading, and the solves stay apart
        cache = RCache()
        a = r_matrix("V*", 1.2 + 0.1j, "V", 0.8, 2, grading, ctx, cache=cache)
        built = []
        raw = rsolve.CommutantTemplate
        monkeypatch.setattr(rsolve, "CommutantTemplate",
                            lambda *spin: built.append(spin) or raw(*spin))
        solves = _count_solves(monkeypatch)
        for g in ((1, 0), (0, 1), (2, 1)):
            b = r_matrix("V*", 1.2 + 0.1j, "V", 0.8, 2, GradingChoice(*g), ctx, cache=cache)
            assert np.abs(b.Rcheck - a.Rcheck).max() > 1e-3, g
        assert built == [] and len(solves) == 3

    @pytest.mark.parametrize("norm", ["hw", "kappa"])
    def test_request_path_builds_each_module_once(self, ctx, grading, monkeypatch, norm):
        # the modules are built with the spin's template only, V and V* once
        # each (a V* is the antipode dual of a V), also for a (V, V) request,
        # and every request passes solve_intertwiner once
        cache = RCache()
        built = _count_calls(monkeypatch, reps, "build_eval_rep")
        duals = _count_calls(monkeypatch, reps, "antipode_dual")
        requests = _count_calls(monkeypatch, rsolve, "solve_intertwiner")
        args = ("V", 1.2 + 0.1j, "V", 0.8, 2, grading, ctx)
        r_matrix(*args, normalization=norm, cache=cache)
        assert (len(built), len(duals)) == (2, 1)
        for _ in range(3):
            r_matrix(*args, normalization=norm, cache=cache)
        r_matrix("V", 0.9 - 0.3j, "V*", 1.4, 2, grading, ctx, normalization=norm, cache=cache)
        assert (len(built), len(duals)) == (2, 1)
        assert len(requests) == 5

    @pytest.mark.parametrize("checked_first", [True, False])
    def test_every_read_keeps_invertibility_check(self, ctx, grading, checked_first):
        # hw-normalized like pair on the resonance lattice: solvable, but singular;
        # each read of its one result refuses it again
        req = make_request("V", complex(ctx.q) ** (2.0 / grading.s), "V", 1.0, 1, grading, ctx)
        res, = rsolve.solve_requests([req])
        if checked_first:
            with pytest.raises(DegeneratePointError):
                rsolve.read_result(res)
        assert rsolve.read_result(res, check_invertible=False).margin < 1e-8
        with pytest.raises(DegeneratePointError):
            rsolve.read_result(res)

    def test_a_stored_error_is_raised_as_a_fresh_copy(self, ctx, grading):
        # hw-normalized like pair at q^-2/s: the solve stores its error; each read
        # raises a copy, so the stored error gathers no traceback (whose frames
        # would keep the caller's results alive)
        req = make_request("V", complex(ctx.q) ** (-2.0 / grading.s), "V", 1.0, 1, grading, ctx)
        stored, = rsolve.solve_requests([req])
        assert isinstance(stored, DegeneratePointError) and stored.__traceback__ is None
        raised = []
        for _ in range(2):
            with pytest.raises(DegeneratePointError) as info:
                rsolve.read_result(stored)
            raised.append(info.value)
        assert raised[0] is not raised[1] and stored not in raised
        assert {(type(e), str(e)) for e in raised} == {(type(stored), str(stored))}
        assert stored.__traceback__ is None

    def test_a_copied_error_keeps_type_args_and_notes(self, ctx, grading):
        # copy_error does what copy.copy did: the type called on the args, the
        # attributes (notes among them) kept, no traceback; a stored error read
        # twice, by read_result and by scalars.raise_first, gathers none
        stored = TruncationError("tail bound 3e-12 above 1e-16", 256)
        stored.add_note("row 2")
        stored.source = "kappa"
        made = copy_error(stored)
        assert made is not stored and type(made) is TruncationError
        assert made.args == stored.args and made.__notes__ == ["row 2"]
        assert made.source == "kappa" and made.__traceback__ is None
        for read in (lambda: rsolve.read_result(stored),
                     lambda: raise_first([None, stored])):
            raised = []
            for _ in range(2):
                with pytest.raises(TruncationError) as info:
                    read()
                raised.append(info.value)
            assert raised[0] is not raised[1] and stored not in raised
            assert all(e.args == stored.args and e.__notes__ == ["row 2"] for e in raised)
            assert stored.__traceback__ is None

    def test_uncached_requests_share_nothing(self, ctx, grading, monkeypatch):
        solves = _count_solves(monkeypatch)
        for _ in range(2):
            r_matrix("V", 1.2 + 0.1j, "V*", 0.8, 2, grading, ctx)
        assert len(solves) == 2

    def test_eviction_never_changes_results(self, ctx, grading):
        # a call on a fresh cache solves the request again, bit for bit
        req = make_request("V", 0.9, "V", 1.4, 1, grading, ctx, "hw")
        a = solve_intertwiner([req], cache=RCache())[0]
        b = solve_intertwiner([req], cache=RCache())[0]
        assert np.abs(a.R - b.R).max() == 0.0


class TestStackedSolve:
    """One solve_intertwiner call of many requests against the same requests one by one."""

    @pytest.mark.parametrize("q", [0.7, 0.6 + 0.09j, 0.3, 0.5 + 0.5j])
    @pytest.mark.parametrize("g", [(1, 1), (1, 0), (2, 1), (0, 1)])
    def test_stacked_matches_single(self, q, g, monkeypatch):
        # every module pair and m = 1..4 in one call, hw and kappa, with
        # repeated keys: one stack per spin holds all four module pairs and reads
        # the spin's one template, and each result has the bits of the request's
        # result alone
        from qkzkit.idsuite import draw_generic_zetas
        ctx, grading = QContext(q), GradingChoice(*g)
        rng = np.random.default_rng([91, *g])
        reqs = []
        for m in (1, 2, 3, 4):
            for kinds in ALL_PAIRS:
                for _ in range(2):
                    z1, z2 = draw_generic_zetas(rng, 2, m, grading, ctx)
                    reqs += [make_request(kinds[0], z1, kinds[1], z2, m, grading, ctx, norm)
                             for norm in ("hw", "kappa", "hw")]
        reqs += reqs[::7]
        solves = _count_calls(monkeypatch, rsolve, "_solve")
        stacked = solve_intertwiner(reqs, RCache(), check_invertible=False)
        assert [(stack[0].m, template.m, sorted(set(pair.tolist())))
                for stack, template, pair in solves] == [(m, m, [0, 1, 2, 3]) for m in (1, 2, 3, 4)]
        cache = RCache()
        single = [solve_intertwiner([req], cache, check_invertible=False)[0] for req in reqs]
        for req, a, b in zip(reqs, stacked, single):
            assert np.array_equal(a.Rcheck, b.Rcheck), req
            assert a.margin == b.margin and a.intertwine_residual == b.intertwine_residual, req

    @pytest.mark.parametrize("site", ["_solve", "kappa_sl2", "template"])
    def test_an_arithmetic_error_fails_only_its_requests(self, ctx, grading, site, monkeypatch):
        # a stack, a kappa scan or a template build that raises (here the ones at
        # m = 2) stores its error for each of its requests, and the call raises
        # nothing
        rng = np.random.default_rng(23)
        reqs = [make_request(k1, zeta_sample(rng), k2, zeta_sample(rng), m, grading, ctx, "kappa")
                for k1, k2 in ALL_PAIRS for m in (1, 2)]
        owner, name, fails = {
            "_solve": (rsolve, "_solve", lambda reqs, *args: reqs[0].m == 2),
            "kappa_sl2": (rsolve, "kappa_sl2", lambda m, *args: m == 2),
            "template": (RCache, "template", lambda cache, req: req.m == 2),
        }[site]
        original = getattr(owner, name)

        def planted(*args):
            if fails(*args):
                raise FloatingPointError("overflow encountered in matmul")
            return original(*args)
        monkeypatch.setattr(owner, name, planted)
        for req, res in zip(reqs, rsolve.solve_requests(reqs, RCache())):
            assert isinstance(res, FloatingPointError) == (req.m == 2), req
            if req.m == 2:
                with pytest.raises(FloatingPointError):
                    rsolve.read_result(res)

    @pytest.mark.parametrize("site", ["image", "gap"])
    def test_a_failing_pair_fails_only_its_requests(self, ctx, grading, site, monkeypatch):
        # a non-finite image part or a failing gap of one module pair, (V*, V) at
        # m = 2, inside the template's stacked pass, fails that pair's requests
        # alone, though one pass builds and one stack solves all pairs of a spin;
        # every other request keeps the bits it has on a clean cache
        rng = np.random.default_rng(23)
        reqs = [make_request(k1, zeta_sample(rng), k2, zeta_sample(rng), m, grading, ctx, "kappa")
                for k1, k2 in ALL_PAIRS for m in (1, 2)]
        clean = rsolve.solve_requests(reqs, RCache())
        error, text = plant_in_pair(monkeypatch, site, ("V*", "V"), 2)
        for req, res, ref in zip(reqs, rsolve.solve_requests(reqs, RCache()), clean):
            if req.m == 2 and (req.kind1, req.kind2) == ("V*", "V"):
                assert type(res) is error and str(res) == text, req
                with pytest.raises(error):
                    rsolve.read_result(res)
            else:
                assert np.array_equal(res.Rcheck, ref.Rcheck), req

    def test_stacked_matches_single_at_m12(self, ctx, grading):
        # one stack of 16 zeta pairs of each module pair at m = 12: the basis columns
        # are summed in a fixed order, so each result still has the bits of its
        # request solved alone
        from qkzkit.idsuite import draw_generic_zetas
        rng = np.random.default_rng(94)
        reqs = []
        for kinds in ALL_PAIRS:
            for _ in range(16):
                z1, z2 = draw_generic_zetas(rng, 2, 12, grading, ctx)
                reqs += [make_request(kinds[0], z1, kinds[1], z2, 12, grading, ctx, norm)
                         for norm in ("hw", "kappa")]
        stacked = solve_intertwiner(reqs, RCache(), check_invertible=False)
        cache = RCache()
        for req, a in zip(reqs, stacked):
            b = solve_intertwiner([req], cache, check_invertible=False)[0]
            assert np.array_equal(a.Rcheck, b.Rcheck), req
            assert a.margin == b.margin and a.intertwine_residual == b.intertwine_residual, req

    @pytest.mark.parametrize("bad", ["lattice", "hw", "overflow", "singular", "kappa_scan"])
    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_first_failing_request_raises_its_own_error(self, ctx, grading, bad, k):
        # the degenerate-detection lattice point, a vanishing hw component, an
        # overflowing zeta, a singular kappa operator and a kappa scan cut short
        # by its truncation, each at place k among good requests of all module
        # pairs: the call raises that request's error alone, and a later
        # failing request does not mask it
        g, q = grading, complex(ctx.q)
        failing = {
            "lattice": make_request("V", q ** (2.0 / g.s), "V", 1.0, 1, g, ctx, "hw"),
            "hw": make_request("V*", 1.3, "V", 1.3, 1, g, ctx, "hw"),
            "overflow": make_request("V", 1e160, "V*", 1.0, 2, g, ctx, "kappa"),
            "singular": make_request("V", q ** (2.0 / g.s), "V*", 1.0, 1, g, ctx, "kappa"),
            "kappa_scan": make_request("V", 1.3, "V*", 0.9, 1, g, QContext(q, trunc_terms=8),
                                       "kappa"),
        }
        with pytest.raises(QkzError) as alone:
            solve_intertwiner([failing[bad]])
        rng = np.random.default_rng(17)
        good = [make_request(kinds[0], zeta_sample(rng), kinds[1], zeta_sample(rng), m, g, ctx,
                             "kappa") for kinds in ALL_PAIRS for m in (1, 2)]
        later = next(req for name, req in failing.items() if name != bad)
        reqs = good[:k] + [failing[bad]] + good[k:] + [later]
        with pytest.raises(type(alone.value)) as err:
            solve_intertwiner(reqs, RCache())
        assert str(err.value) == str(alone.value)

    def test_norm_scalar_is_the_one_applied(self, ctx, grading):
        # a kappa request's Rcheck is the raw nullvector of its zeta pair (the hw
        # solve) times the request's kappa scalar, and an hw request's is that nullvector
        rng = np.random.default_rng(19)
        reqs = [make_request(kinds[0], zeta_sample(rng), kinds[1], zeta_sample(rng), 2, grading,
                             ctx, norm) for kinds in ALL_PAIRS for norm in ("hw", "kappa")]
        cache = RCache()
        for req, res in zip(reqs, solve_intertwiner(reqs, cache)):
            t = cache.template(req)
            raw = rsolve._raw_nullvector([req], t, np.array([req.pair]))[0][0]  # at the unknowns
            k = rsolve._kappa_scalars([req])[0] if req.normalization == "kappa" else 1.0
            at = t.a[req.pair], t.b[req.pair]
            assert np.abs(raw * k - res.Rcheck[at]).max() <= 1e-12 * np.abs(res.Rcheck).max()

    def test_ybe_samples_make_one_solve(self, ctx, grading, monkeypatch):
        from qkzkit.idsuite import check_ybe, draw_generic_zetas
        rng = np.random.default_rng(18)
        samples = [tuple(draw_generic_zetas(rng, 3, 1, grading, ctx)) for _ in range(12)]
        solves = _count_solves(monkeypatch)
        rep = check_ybe(1, ("V", "V", "V"), samples, grading, ctx, normalization="kappa",
                        cache=RCache())
        assert rep.passed and len(solves) == 1 and len(solves[0][0]) == 36


class TestResidualCanFail:
    """The intertwining residual reads the stored entries, so a wrong one shows."""

    @pytest.mark.parametrize("kinds", ALL_PAIRS)
    def test_a_changed_entry_lifts_the_residual(self, ctx, grading, kinds, monkeypatch):
        # each stored entry of a solved m = 3 Rcheck in turn, moved by 1e-6 of the
        # largest: the residual, below 1e-12 at the solve, rises above 1e-8
        req = make_request(kinds[0], 1.3 + 0.4j, kinds[1], 0.8 - 0.2j, 3, grading, ctx, "kappa")
        clean, = rsolve.solve_requests([req])
        assert clean.intertwine_residual < 1e-12
        raw = rsolve._raw_nullvector
        for k in range(clean.entries.size):
            def changed(reqs, template, pair, k=k):
                entries, *rest = raw(reqs, template, pair)
                entries[:, k] += 1e-6 * np.abs(entries).max()
                return (entries, *rest)
            monkeypatch.setattr(rsolve, "_raw_nullvector", changed)
            res, = rsolve.solve_requests([req])
            assert res.intertwine_residual > 1e-8, k

    def test_an_overflowing_image_is_a_configuration_error(self, ctx):
        # zeta1 = 1e308 at grading (1, 0): the solve's powers are finite, its
        # generator images are not
        req = make_request("V", 1e308, "V*", 1.0, 2, GradingChoice(1, 0), ctx, "hw")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res, = rsolve.solve_requests([req])
        assert type(res) is ConfigError
        assert str(res) == ("spectral parameters out of range: the operator or a generator "
                            "image overflows")


class TestKappaThatIsNotFinite:
    """A kappa that is not finite fails its request; the call raises nothing."""

    def test_products_that_underflow(self):
        # q = 0.999 with 8000 factors: kappa's four products underflow and its
        # ratio reads 0/0, also with numpy's floating-point errors raised
        ctx = QContext(0.999, trunc_terms=8000)
        req = make_request("V", 1.3, "V", 0.9, 1, GradingChoice(1, 1), ctx, "kappa")
        with np.errstate(all="raise"):
            res, = rsolve.solve_requests([req])
        assert type(res) is ScalarDomainError and "ratio is not finite" in str(res)

    @pytest.mark.parametrize("value", [np.inf, complex(np.nan, np.nan)])
    def test_a_kappa_that_is_not_finite(self, ctx, grading, value, monkeypatch):
        # the guard of _kappa_scalars, for a kappa_sl2 row that is not finite and
        # has no error: its request alone fails, for a like and a mixed pair
        scan = rsolve.kappa_sl2
        monkeypatch.setattr(rsolve, "kappa_sl2",
                            lambda *args: np.where([True, False], value, scan(*args)))
        reqs = [make_request(k1, 1.3, k2, 0.9 - 0.2j, 1, grading, ctx, "kappa")
                for k1, k2 in (("V", "V"), ("V", "V*"))]
        with np.errstate(all="raise"):
            bad, good = rsolve.solve_requests([reqs[0], reqs[1]])
            mixed, _ = rsolve.solve_requests([reqs[1], reqs[0]])
        assert type(bad) is type(mixed) is ScalarDomainError
        assert isinstance(good, rsolve.RResult)


# every module pair, gradings (1,1), (1,0), (0,1), (2,1), m = 1..4 and both
# normalizations at each q, three zeta pairs each, then the degenerate and
# overflowing points of the tests above
PIN_GRADINGS = ((1, 1), (1, 0), (0, 1), (2, 1))


def _pin_requests(q):
    ctx, rng = QContext(q), np.random.default_rng(36)
    reqs = [make_request(k1, zeta_sample(rng), k2, zeta_sample(rng), m, GradingChoice(*g), ctx,
                         norm)
            for g in PIN_GRADINGS for m in (1, 2, 3, 4) for k1, k2 in ALL_PAIRS
            for norm in ("hw", "kappa") for _ in range(3)]
    for s0, s1 in PIN_GRADINGS:
        g = GradingChoice(s0, s1)
        lattice, q = complex(q) ** (2.0 / g.s), complex(q)
        for norm in ("hw", "kappa"):
            reqs += [make_request("V", lattice, "V", 1.0, 1, g, ctx, norm),
                     make_request("V", 1.0 / lattice, "V", 1.0, 1, g, ctx, norm),
                     make_request("V*", 1.3, "V", 1.3, 1, g, ctx, norm),
                     make_request("V", lattice, "V*", 1.0, 2, g, ctx, norm),
                     make_request("V", q, "V", 1.0, 1, g, ctx, norm),
                     make_request("V", 1.3, "V*", 0.9, 1, g, QContext(q, trunc_terms=8), norm)]
            reqs += [make_request("V", zeta, "V*", 1.0, 2, g, ctx, norm)
                     for zeta in (1e308, 1e160, 1e-160, 5e-324)]
    return reqs


def _pin_fields(res) -> bytes:
    """The bits of a result but its residual: entries, scale, margin and pair,
    or the type and text of its error."""
    if not isinstance(res, rsolve.RResult):
        return f"{type(res).__name__}: {res}".encode()
    scale = b"-" if res.scale is None else np.complex128(res.scale).tobytes()
    return b"|".join((np.ascontiguousarray(res.entries, dtype=complex).tobytes(), scale,
                      float(res.margin).hex().encode(), str(res.pair).encode()))


class TestPinnedBits:
    """The bits of solve_requests over a fixed grid, pinned by a digest."""

    DIGEST = "db079c4eddafc6d9c9367229d4448a268dac6567e89a107f01fc6d2d9773ec59"

    def test_grid_digest(self):
        digest = hashlib.sha256()
        for q in (0.7, 0.5 + 0.5j):
            reqs = _pin_requests(q)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                results = rsolve.solve_requests(reqs, RCache())
            for res in results:
                digest.update(_pin_fields(res))
                digest.update(b"\n")
        assert digest.hexdigest() == self.DIGEST

    def test_alone_equals_inside_a_mixed_stack(self):
        # 32 requests of both q, every module pair, gradings, spins, both
        # normalizations and a failing point of each kind: each has the bits,
        # its residual included, that it has when solved alone
        rng = np.random.default_rng(37)
        pool = _pin_requests(0.7) + _pin_requests(0.5 + 0.5j)
        reqs = [pool[i] for i in rng.choice(len(pool), 32, replace=False)]
        reqs[::8] = [pool[i] for i in (385, 397, 399, 420)]  # degenerate and overflowing
        cache = RCache()
        for req, res in zip(reqs, rsolve.solve_requests(reqs, RCache())):
            alone, = rsolve.solve_requests([req], cache)
            assert _pin_fields(res) == _pin_fields(alone), req
            if isinstance(res, rsolve.RResult):
                assert res.intertwine_residual == alone.intertwine_residual, req
