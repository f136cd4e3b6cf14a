import itertools
import warnings

import numpy as np
import pytest

from conftest import zeta_sample
from qkzkit import reps, rsolve
from qkzkit.context import QContext
from qkzkit.errors import DegeneratePointError
from qkzkit.qkz import rcheck_factor
from qkzkit.reduction import ReductionCase, chain_for, mirrored_args
from qkzkit.reps import (GENERATOR_TAGS, GradingChoice, coproduct_parts,
                         eval_module, operator_o, operator_o_inverse, sl2_constants)
from qkzkit.rsolve import (GAP_THRESHOLD, RCache, apply_kappa, make_request,
                           r_matrix, rcheck_resonant, solve_intertwiner)
from qkzkit.scalars import kappa_sl2, kappa_sl2_even_rational

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


def _full_assembly_rows(s1, s2):
    """Nonzero rows of the commutant system on the weight-sector unknowns, assembled
    over all D^2 entries (i, j) of each e0/e1/f0/f1 equation against np.eye(D)."""
    D = s1[0].dim * s2[0].dim
    w1, w2 = s1[0].weights.real, s2[0].weights.real
    a, b = np.nonzero(np.add.outer(w2, w1).reshape(-1, 1) == np.add.outer(w1, w2).reshape(1, -1))
    eye = np.eye(D)
    blocks = []
    for tag in ("e0", "e1", "f0", "f1"):
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
            assert res.nullspace_gap > GAP_THRESHOLD

    def test_intertwine_residual(self, ctx, grading, cache):
        rng = np.random.default_rng(1)
        for kinds in ALL_PAIRS:
            res = r_matrix(kinds[0], zeta_sample(rng), kinds[1], zeta_sample(rng),
                           2, grading, ctx, cache=cache)
            assert res.intertwine_residual < 1e-11

    def test_brute_force_commutant_oracle(self, grading):
        # independent assembly by naive loops: all (m+1)^4 entries of Rcheck
        # are unknowns and all six generators give equations, no weight assumed
        z1, z2 = 1.37 + 0.21j, 0.77 - 0.43j
        for q in (0.7, 0.6 + 0.09j, 0.5 + 0.5j):
            ctx = QContext(q)
            for m in (1, 2):
                for kinds in ALL_PAIRS:
                    oracle = _commutant_oracle(_site(kinds[0], m, grading, ctx, z1),
                                               _site(kinds[1], m, grading, ctx, z2))
                    res = r_matrix(kinds[0], z1, kinds[1], z2, m, grading, ctx)
                    lam = np.vdot(oracle, res.Rcheck) / np.vdot(oracle, oracle)
                    assert np.abs(res.Rcheck - lam * oracle).max() <= \
                        1e-11 * np.abs(res.Rcheck).max(), (q, m, kinds)

    @pytest.mark.parametrize("g", [(1, 1), (1, 0), (2, 1), (0, 1)])
    def test_rows_by_weight_shift_match_the_full_assembly(self, g):
        # the template's rows at a zeta pair: same rows, same order and zero
        # pattern as the D^2-row assembly from np.kron coproducts, before
        # scaling; entries within 2 ulp
        for q, m, kinds in itertools.product((0.7, 0.6 + 0.09j, 0.3, 0.5 + 0.5j), (1, 2, 3, 4),
                                             ALL_PAIRS):
            ctx = QContext(q)
            s1 = _site(kinds[0], m, GradingChoice(*g), ctx, 1.37 + 0.21j)
            s2 = _site(kinds[1], m, GradingChoice(*g), ctx, 0.77 - 0.43j)
            K = rsolve.CommutantTemplate(s1[0], s2[0]).commutant_rows(s1[1], s2[1])
            K = K[np.linalg.norm(K, axis=1) > 0]
            full = _full_assembly_rows(s1, s2)
            assert K.shape == full.shape and np.array_equal(K != 0, full != 0), (q, m, kinds)
            assert np.all(np.abs(K - full) <= 2 * np.finfo(float).eps * np.abs(full)), \
                (q, m, kinds)

    def test_unknowns_are_the_weight_sectors(self, ctx, grading, monkeypatch):
        # the normal matrix has one row per weight-conserving entry of Rcheck
        sizes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda A: sizes.append(A.shape[0]) or eigh(A))
        for m in (1, 2, 3, 4):
            r_matrix("V", 1.3 + 0.2j, "V*", 0.8 - 0.1j, m, grading, ctx)
        assert sizes == [6, 19, 44, 85]

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
            rescaled = apply_kappa(solve_intertwiner(hw_req), hw_req)
            direct = solve_intertwiner(kp_req)
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
        assert kp.norm_scalar_applied == pytest.approx(
            hw.norm_scalar_applied / kappa_sl2(2, z, ctx), rel=1e-10)


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
        assert res.cond_ratio == 0.0 and res.intertwine_residual == np.inf

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

        def mutated(tag, rep1, rep2, nu=1.0):
            p, A, B = raw(tag, rep1, rep2, nu)
            return (p, 0.0 * A, 0.0 * B) if tag in dead else (p, A, B)
        monkeypatch.setattr(rsolve, "coproduct_parts", mutated)
        with pytest.raises(DegeneratePointError, match="nullspace gap"):
            r_matrix("V", 1.3 + 0.2j, "V", 0.8 - 0.1j, m, grading, ctx)

    def test_near_lattice_is_fine(self, ctx, grading):
        q = complex(ctx.q)
        ratio = q ** (-2.0 / grading.s) * 1.01
        res = r_matrix("V", ratio, "V", 1.0, 1, grading, ctx)
        assert res.nullspace_gap > GAP_THRESHOLD

    @pytest.mark.parametrize("z", [complex(0.3) ** 8, 0.3**8, 0.3**8 * (1 + 1e-15)],
                             ids=["complex", "real", "perturbed"])
    def test_badly_scaled_regular_point_has_a_clean_gap(self, z):
        # zeta^{+-s} and the q-numbers spread the commutant rows over many orders
        # of magnitude here; without equilibration the gap was rounding noise
        res = r_matrix("V", z, "V", 1.0, 3, GradingChoice(1, 0), QContext(0.3))
        assert res.nullspace_gap > 1e10

    @pytest.mark.parametrize("kind", ["V", "V*"])
    def test_small_q_shell_is_regular(self, kind):
        # (zeta1/zeta2)^s = q^{+-2(m+1)} at q = 0.3 is off the resonance lattice
        ctx = QContext(0.3)
        for s0, s1 in ((1, 1), (1, 0), (2, 1), (0, 1)):
            g = GradingChoice(s0, s1)
            for m in (1, 2, 3):
                for sign in (1, -1):
                    zeta = complex(0.3) ** (sign * 2 * (m + 1) / g.s)
                    res = r_matrix(kind, zeta, kind, 1.0, m, g, ctx, check_invertible=False)
                    assert res.nullspace_gap > 1e9


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
            rcheck_factor(chain, "V*", 1.0, "V", 1.0)

    def test_resonance_runs_no_solve(self, ctx, grading, monkeypatch):
        # the factor the self-dual theorem needs comes from the closed form
        solves = _count_solves(monkeypatch)
        case = ReductionCase("self_dual", 1, 2, grading, ctx)
        z = 1.3 + 0.2j
        chain = chain_for(case, mirrored_args(case, [z]))
        w = complex(ctx.q) ** case.shift
        got = rcheck_factor(chain, "V", w * z, "V", case.p * z, cache=RCache())
        assert solves == []
        assert np.abs(got - rcheck_resonant(2, grading, ctx)).max() == 0.0


class TestCache:
    def test_hit_is_bit_identical(self, ctx, grading, monkeypatch):
        # a repeated kappa request rescales the stored hw solve: no second solve
        cache = RCache()
        req = make_request("V", 1.2 + 0.1j, "V*", 0.8, 2, grading, ctx, "kappa")
        a = solve_intertwiner(req, cache=cache)
        solves = _count_solves(monkeypatch)
        b = solve_intertwiner(req, cache=cache)
        assert solves == []
        for field in ("R", "Rcheck"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a.norm_scalar_applied == b.norm_scalar_applied

    @pytest.mark.parametrize("order", [("hw", "kappa"), ("kappa", "hw")])
    def test_one_solve_per_zeta_pair(self, ctx, grading, monkeypatch, order):
        cache = RCache()
        solves = _count_solves(monkeypatch)
        res = {norm: r_matrix("V", 1.2 + 0.1j, "V", 0.8, 2, grading, ctx,
                              normalization=norm, cache=cache) for norm in order}
        assert len(solves) == 1
        k = 1.0 / kappa_sl2(2, ((1.2 + 0.1j) / 0.8) ** grading.s, ctx)
        assert np.array_equal(res["kappa"].Rcheck, res["hw"].Rcheck * k)
        assert res["kappa"].norm_scalar_applied == res["hw"].norm_scalar_applied * k

    def test_second_zeta_pair_builds_no_template(self, ctx, grading, monkeypatch):
        cache = RCache()
        r_matrix("V*", 1.2 + 0.1j, "V", 0.8, 2, grading, ctx, cache=cache)
        built = []
        raw = rsolve.CommutantTemplate
        monkeypatch.setattr(rsolve, "CommutantTemplate",
                            lambda *reps: built.append(reps) or raw(*reps))
        r_matrix("V*", 0.9 - 0.3j, "V", 1.4, 2, grading, ctx, cache=cache)
        assert built == []
        r_matrix("V", 0.9 - 0.3j, "V", 1.4, 2, grading, ctx, cache=cache)
        assert len(built) == 1

    @pytest.mark.parametrize("norm", ["hw", "kappa"])
    def test_request_path_builds_each_module_once(self, ctx, grading, monkeypatch, norm):
        # the modules are built with the template only, and every request
        # passes solve_intertwiner and RCache.get once
        cache = RCache()
        built = _count_calls(monkeypatch, reps, "build_eval_rep")
        duals = _count_calls(monkeypatch, reps, "antipode_dual")
        requests = _count_calls(monkeypatch, rsolve, "solve_intertwiner")
        gets = _count_calls(monkeypatch, RCache, "get")
        args = ("V", 1.2 + 0.1j, "V*", 0.8, 2, grading, ctx)
        r_matrix(*args, normalization=norm, cache=cache)
        assert (len(built), len(duals)) == (2, 1)
        for _ in range(3):
            r_matrix(*args, normalization=norm, cache=cache)
        r_matrix("V", 0.9 - 0.3j, "V*", 1.4, 2, grading, ctx, normalization=norm, cache=cache)
        assert (len(built), len(duals)) == (2, 1)
        assert len(requests) == len(gets) == 5

    @pytest.mark.parametrize("checked_first", [True, False])
    def test_hit_keeps_invertibility_check(self, ctx, grading, checked_first):
        # hw-normalized like pair on the resonance lattice: solvable, but singular
        args = ("V", complex(ctx.q) ** (2.0 / grading.s), "V", 1.0, 1, grading, ctx, "hw")
        cache = RCache()
        if checked_first:
            with pytest.raises(DegeneratePointError):
                r_matrix(*args, cache=cache)
        assert r_matrix(*args, cache=cache, check_invertible=False).cond_ratio < 1e-8
        with pytest.raises(DegeneratePointError):
            r_matrix(*args, cache=cache)

    def test_eviction_never_changes_results(self, ctx, grading):
        cache = RCache()
        req = make_request("V", 0.9, "V", 1.4, 1, grading, ctx, "hw")
        a = solve_intertwiner(req, cache=cache)
        cache.clear()
        b = solve_intertwiner(req, cache=cache)
        assert np.abs(a.R - b.R).max() == 0.0
