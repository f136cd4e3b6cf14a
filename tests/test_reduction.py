import numpy as np
import pytest

from conftest import zeta_sample
from qkzkit.errors import ConfigError
from qkzkit.qkz import lambda_op
from qkzkit.reduction import (ReductionCase, chain_for, check_rpr,
                              insertion_invariance_check, mirrored_args,
                              psi_extract, psi_inject, rhs_operator,
                              scaling_covariance_residual, theorem_check_general,
                              theorem_check_selfdual)
from qkzkit.reps import operator_xtilde
from qkzkit.rsolve import r_matrix, rcheck_resonant
from qkzkit.tensorops import embed_pair, permutation_op


def case_sd(n, m, grading, ctx, alpha=0.0):
    return ReductionCase("self_dual", n, m, grading, ctx, alpha=alpha)


def case_gen(n, m, grading, ctx, alpha=0.0):
    return ReductionCase("general", n, m, grading, ctx, alpha=alpha)


class TestMirroredArgs:
    def test_pattern(self, ctx, grading):
        case = case_sd(2, 1, grading, ctx)
        q = complex(ctx.q)
        w = q ** case.shift
        args = mirrored_args(case, [2.0, 3.0])
        assert args == [2.0, 3.0, w * 3.0, w * 2.0]

    def test_shift_values(self, ctx, grading):
        assert case_sd(1, 1, grading, ctx).shift == pytest.approx(1.0)
        assert case_gen(1, 1, grading, ctx).shift == pytest.approx(2.0)
        assert case_sd(1, 1, grading, ctx).p == pytest.approx(complex(ctx.q) ** 2)
        assert case_gen(1, 1, grading, ctx).p == pytest.approx(complex(ctx.q) ** 2)


class TestRhsSelfDual:
    def test_n1_degenerates_to_p_delta(self, ctx, grading, cache):
        case = case_sd(1, 1, grading, ctx)
        got = rhs_operator(case, [1.3 + 0.2j], cache)
        chain = chain_for(case, mirrored_args(case, [1.3 + 0.2j]))
        P = permutation_op([1, 0], (2, 2))
        want = P @ np.kron(chain.delta_matrix(0), np.eye(2))
        assert np.abs(got - want).max() < 1e-13

    def test_n2_m1_flat_assembly_oracle(self, ctx, grading, cache):
        # independent 16x16 assembly with explicit kron-embeddings
        case = case_sd(2, 1, grading, ctx)
        rng = np.random.default_rng(70)
        zetas = [zeta_sample(rng), zeta_sample(rng)]
        got = rhs_operator(case, zetas, cache)
        q = complex(ctx.q)
        w = q ** case.shift
        dims = (2, 2, 2, 2)

        def R(z1, z2):
            return r_matrix("V", z1, "V", z2, 1, grading, ctx,
                            normalization="kappa", cache=cache).R

        chain = chain_for(case, mirrored_args(case, zetas))
        D2 = chain.delta_matrix(1)
        swap = permutation_op([0, 2, 1, 3], dims)
        want = embed_pair(R(w * zetas[0], case.p * zetas[1]), 3, 2, dims)
        want = want @ swap
        want = want @ np.kron(np.kron(np.eye(2), D2), np.eye(4))
        want = want @ embed_pair(R(zetas[0], zetas[1]), 0, 1, dims)
        assert np.abs(got - want).max() < 1e-11

    def test_insertion_needs_a_general_case(self, ctx, grading, cache):
        # the self-dual composite has one block, so there is no boundary
        case = case_sd(2, 1, grading, ctx)
        with pytest.raises(ConfigError):
            rhs_operator(case, [1.3 + 0.2j, 0.8 - 0.1j], cache, insertion=(1.1, 0.9))


class TestTheoremSelfDual:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2)])
    def test_operator_identity_and_e2e(self, n, m, ctx, grading, cache):
        case = case_sd(n, m, grading, ctx)
        rng = np.random.default_rng(100 * n + m)
        zetas = [zeta_sample(rng) for _ in range(n)]
        rep = theorem_check_selfdual(case, zetas, seed=3, cache=cache)
        assert rep.passed, rep.params
        assert rep.params["operator_residual"] < 1e-9
        assert rep.params["e2e_residual"] < 1e-8

    def test_lprp_equivalence(self, ctx, grading, cache):
        # composing with the resonant factor converts the rhs composite into
        # the one-step operator: check the Rcheck-composed form separately
        case = case_sd(2, 1, grading, ctx)
        rng = np.random.default_rng(71)
        zetas = [zeta_sample(rng) for _ in range(2)]
        rc = rcheck_resonant(1, grading, ctx)
        rhs = rhs_operator(case, zetas, cache)
        lhs = embed_pair(rc, 1, 2, case.dims) @ rhs
        chain = chain_for(case, mirrored_args(case, zetas))
        lam = lambda_op(chain, 1, cache)
        assert np.abs(lhs - lam).max() < 1e-10 * np.abs(lam).max()

    def test_alpha_twist(self, ctx, grading10, cache):
        case = case_sd(2, 1, grading10, ctx, alpha=0.23 - 0.11j)
        rng = np.random.default_rng(72)
        zetas = [zeta_sample(rng) for _ in range(2)]
        rep = theorem_check_selfdual(case, zetas, seed=4, cache=cache)
        assert rep.passed, rep.params

    def test_hw_mode_is_singular_at_resonance(self, ctx, grading):
        # the construction requires the unitarized family: with plain hw
        # normalization the coincident-ratio factor is a genuine pole
        from qkzkit.errors import DegeneratePointError
        case = ReductionCase("self_dual", 2, 1, grading, ctx, normalization="hw")
        with pytest.raises(DegeneratePointError):
            theorem_check_selfdual(case, [1.2 + 0.3j, 0.8 - 0.2j], seed=1)


class TestRhsGeneral:
    def test_n1_two_block_product(self, ctx, grading, cache):
        case = case_gen(1, 1, grading, ctx)
        z = 1.2 - 0.3j
        got = rhs_operator(case, [z], cache)
        chain = chain_for(case, mirrored_args(case, [z]))
        P = permutation_op([1, 0], (2, 2))
        from qkzkit.qkz import build_delta
        dv = build_delta(case.delta_assignment("V"), 1, grading, ctx)
        dvs = build_delta(case.delta_assignment("V*"), 1, grading, ctx)
        want = P @ np.kron(dvs, np.eye(2)) @ P @ np.kron(dv, np.eye(2))
        assert np.abs(got - want).max() < 1e-13

    def test_insertion_invariance(self, ctx, grading, cache):
        rng = np.random.default_rng(73)
        case = case_gen(2, 1, grading, ctx)
        zetas = [zeta_sample(rng) for _ in range(2)]
        rep = insertion_invariance_check(case, zetas, zeta_sample(rng),
                                         zeta_sample(rng), cache=cache)
        assert rep.passed, rep.residual


class TestTheoremGeneral:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2)])
    def test_operator_identity_and_e2e(self, n, m, ctx, grading, cache):
        case = case_gen(n, m, grading, ctx)
        rng = np.random.default_rng(200 * n + m)
        zetas = [zeta_sample(rng) for _ in range(n)]
        rep = theorem_check_general(case, zetas, seed=5, cache=cache)
        assert rep.passed, rep.params
        assert rep.params["operator_residual"] < 1e-9

    def test_principal_grading(self, ctx, grading10, cache):
        case = case_gen(2, 1, grading10, ctx, alpha=0.19)
        rng = np.random.default_rng(74)
        zetas = [zeta_sample(rng) for _ in range(2)]
        rep = theorem_check_general(case, zetas, seed=6, cache=cache)
        assert rep.passed, rep.params


class TestPsiExtract:
    def test_n1_identity_contraction_mirrors(self, ctx, grading10):
        # with C = X (invertible diagonal) at n=1, psi is the reshaped tensor
        case = case_gen(1, 1, grading10, ctx)
        rng = np.random.default_rng(75)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = psi_extract(case, phi)
        C = case.contraction_matrix()
        want = phi.reshape(2, 2) @ C
        assert np.abs(psi - want).max() < 1e-14

    def test_quadruple_loop_oracle(self, ctx, grading):
        case = case_sd(2, 1, grading, ctx)
        rng = np.random.default_rng(76)
        phi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        C = case.contraction_matrix()
        T = phi.reshape(2, 2, 2, 2)
        want = np.zeros((4, 4), complex)
        for i1 in range(2):
            for i2 in range(2):
                for j1 in range(2):
                    for j2 in range(2):
                        acc = 0.0
                        for k1 in range(2):
                            for k2 in range(2):
                                acc += T[i1, i2, k2, k1] * C[k2, j2] * C[k1, j1]
                        want[i1 * 2 + i2, j1 * 2 + j2] = acc
        assert np.abs(psi_extract(case, phi) - want).max() < 1e-14

    def test_m1_sign_structure(self, ctx, grading):
        # Xtilde for m=1 is the antisymmetric unit, flipping and signing columns
        case = case_sd(1, 1, grading, ctx)
        xt = operator_xtilde(1, grading, ctx)
        assert np.abs(xt - np.array([[0, -1], [1, 0]])).max() < 1e-15
        phi = np.arange(4, dtype=complex)
        psi = psi_extract(case, phi)
        want = phi.reshape(2, 2) @ xt
        assert np.abs(psi - want).max() < 1e-14

    def test_inject_roundtrip(self, ctx, grading):
        for case in (case_sd(2, 1, grading, ctx), case_gen(2, 2, grading, ctx)):
            rng = np.random.default_rng(77)
            D = (case.m + 1) ** (2 * case.n)
            phi = rng.standard_normal(D) + 1j * rng.standard_normal(D)
            back = psi_inject(case, psi_extract(case, phi))
            assert np.abs(back - phi).max() < 1e-13


class TestExchange:
    @pytest.mark.parametrize("mode", ["self_dual", "general"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_rpr(self, mode, m, ctx, grading, cache):
        case = ReductionCase(mode, 2, m, grading, ctx)
        rng = np.random.default_rng(78)
        zetas = [zeta_sample(rng) for _ in range(2)]
        rep = check_rpr(case, 1, zetas, seed=8, cache=cache)
        assert rep.passed, rep.residual

    def test_equal_arguments_trivial(self, ctx, grading, cache):
        # zeta_i = zeta_{i+1}: the swap factor is the identity
        case = case_sd(2, 1, grading, ctx)
        rep = check_rpr(case, 1, [1.4 + 0.2j, 1.4 + 0.2j], seed=9, cache=cache)
        assert rep.passed
        assert rep.residual < 1e-12


class TestScalingCovariance:
    @pytest.mark.parametrize("mode", ["self_dual", "general"])
    def test_ratio_dependence(self, mode, ctx, grading, cache):
        case = ReductionCase(mode, 2, 1, grading, ctx)
        rng = np.random.default_rng(79)
        zetas = [zeta_sample(rng) for _ in range(2)]
        nu = 1.3 * np.exp(0.7j)
        assert scaling_covariance_residual(case, zetas, nu, cache) < 1e-10


class TestComplexDeformation:
    @pytest.mark.parametrize("mode", ["self_dual", "general"])
    def test_theorems_at_complex_q(self, mode, ctx_complex, grading):
        from qkzkit.rsolve import RCache
        cache = RCache()
        case = ReductionCase(mode, 2, 1, grading, ctx_complex)
        rng = np.random.default_rng(80)
        zetas = [zeta_sample(rng) for _ in range(2)]
        fn = theorem_check_selfdual if mode == "self_dual" else theorem_check_general
        rep = fn(case, zetas, seed=10, cache=cache)
        assert rep.passed, rep.params
