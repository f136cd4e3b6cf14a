import math

import numpy as np
import pytest

from qkzkit.errors import ConfigError
from qkzkit.tensorops import (compose_permutations, cyclic_left_shift, embed_pair,
                              embedded_matmul, partial_transpose, permutation_op,
                              permuted_matmul, relative_residual, scalar_ratio, site_matmul,
                              swap_outputs)

rng = np.random.default_rng(20)


def rand_c(*shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestEmbedPair:
    def test_identity(self):
        dims = (2, 3, 2)
        out = embed_pair(np.eye(6), 0, 1, dims)
        assert np.abs(out - np.eye(12)).max() == 0.0

    def test_adjacent_swap_equals_permutation(self):
        dims = (2, 2, 2)
        P = np.zeros((4, 4))
        for a in range(2):
            for b in range(2):
                P[b * 2 + a, a * 2 + b] = 1.0
        lhs = embed_pair(P, 0, 1, dims)
        rhs = permutation_op([1, 0, 2], dims)
        assert np.abs(lhs - rhs).max() == 0.0

    def test_reversed_pair_brute_force(self):
        # op attached to sites (2, 0): compare against explicit index loops
        dims = (2, 2, 2)
        A = rand_c(4, 4)
        got = embed_pair(A, 2, 0, dims)
        want = np.zeros((8, 8), complex)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    for a2 in range(2):
                        for b2 in range(2):
                            for c2 in range(2):
                                if b == b2:
                                    want[(a * 2 + b) * 2 + c, (a2 * 2 + b2) * 2 + c2] = \
                                        A[c * 2 + a, c2 * 2 + a2]
        assert np.abs(got - want).max() < 1e-15

    def test_conjugation_by_permutation(self):
        # embed at (2, 0) equals permutation-conjugated embed at (0, 2)
        dims = (2, 2, 2)
        A = rand_c(4, 4)
        sigma = [2, 1, 0]
        P = permutation_op(sigma, dims)
        lhs = embed_pair(A, 2, 0, dims)
        rhs = P @ embed_pair(A, 0, 2, dims) @ np.linalg.inv(P)
        assert np.abs(lhs - rhs).max() < 1e-14

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            embed_pair(np.eye(5), 0, 1, (2, 2))


class TestPermutationOp:
    def test_identity(self):
        assert np.abs(permutation_op([0, 1], (2, 3)) - np.eye(6)).max() == 0.0

    def test_action_on_product_vector(self):
        dims = (2, 2, 2)
        vs = [rand_c(2) for _ in range(3)]
        sigma = [1, 2, 0]  # object i -> position sigma[i]
        P = permutation_op(sigma, dims)
        got = P @ np.kron(np.kron(vs[0], vs[1]), vs[2])
        want = np.kron(np.kron(vs[2], vs[0]), vs[1])
        assert np.abs(got - want).max() < 1e-14

    def test_homomorphism(self):
        dims = (2,) * 4
        rng2 = np.random.default_rng(3)
        for _ in range(3):
            s1 = list(rng2.permutation(4))
            s2 = list(rng2.permutation(4))
            P1 = permutation_op(s1, dims)
            P2 = permutation_op(s2, dims)
            P12 = permutation_op(compose_permutations(s1, s2), dims)
            assert np.abs(P1 @ P2 - P12).max() == 0.0

    def test_cyclic_factorization(self):
        # P_lambda = P^{(N-1,N)} ... P^{(1,2)} for N = 4
        dims = (2,) * 4
        lam = permutation_op(cyclic_left_shift(4), dims)
        prod = np.eye(16)
        for k in (2, 1, 0):
            sig = list(range(4))
            sig[k], sig[k + 1] = sig[k + 1], sig[k]
            prod = prod @ permutation_op(sig, dims)
        # written order: adjacent swaps from (N-1,N) down to (1,2)
        assert np.abs(lam - prod).max() == 0.0

    def test_pdpr_relation(self):
        dims = (2,) * 4
        A = rand_c(4, 4)
        sigma = [2, 0, 3, 1]
        P = permutation_op(sigma, dims)
        for (i, j) in ((0, 2), (3, 1)):
            lhs = P @ embed_pair(A, i, j, dims)
            rhs = embed_pair(A, sigma[i], sigma[j], dims) @ P
            assert np.abs(lhs - rhs).max() == 0.0


class TestPartialTranspose:
    def test_factorized(self):
        A, B = rand_c(2, 2), rand_c(2, 2)
        M = np.kron(A, B)
        assert np.abs(partial_transpose(M, "first", (2, 2)) - np.kron(A.T, B)).max() < 1e-15
        assert np.abs(partial_transpose(M, "second", (2, 2)) - np.kron(A, B.T)).max() < 1e-15

    def test_involution_and_full(self):
        M = rand_c(6, 6)
        t1 = partial_transpose(M, "first", (2, 3))
        assert np.abs(partial_transpose(t1, "first", (2, 3)) - M).max() == 0.0
        both = partial_transpose(t1, "second", (2, 3))
        assert np.abs(both - M.T).max() == 0.0


class TestScalarRatio:
    def test_proportional(self):
        B = rand_c(4, 4)
        lam, resid = scalar_ratio(3.0 * B, B)
        assert lam == pytest.approx(3.0)
        assert resid < 1e-15

    def test_orthogonal(self):
        A = np.diag([1.0, 0.0]).astype(complex)
        B = np.diag([0.0, 1.0]).astype(complex)
        lam, resid = scalar_ratio(A, B)
        assert lam == pytest.approx(0.0)
        assert resid == pytest.approx(1.0)

    def test_zero_b_rejected(self):
        with pytest.raises(ConfigError):
            scalar_ratio(rand_c(2, 2), np.zeros((2, 2)))

    @pytest.mark.filterwarnings("error")
    def test_zero_a_reads_inf(self):
        lam, resid = scalar_ratio(np.zeros((2, 2)), rand_c(2, 2))
        assert lam == 0 and resid == math.inf


@pytest.mark.filterwarnings("error")
class TestRelativeResidual:
    def test_zero_reference_reads_inf(self):
        assert relative_residual(np.zeros((3, 3)), rand_c(3, 3)) == math.inf
        assert relative_residual(np.zeros(4, complex), np.zeros(4)) == math.inf

    def test_nan_stays_nan(self):
        A = rand_c(3, 3)
        B = A.copy()
        B[1, 2] = np.nan
        assert math.isnan(relative_residual(A, B))
        assert math.isnan(relative_residual(B, A))
        assert math.isnan(relative_residual(np.full(2, np.nan), np.zeros(2)))

    @pytest.mark.parametrize("shape", [(4, 4), (16, 8), (729,)])
    def test_matches_the_inline_forms(self, shape):
        A = rand_c(*shape)
        for B in (rand_c(*shape), A + 1e-12 * rand_c(*shape)):
            got = relative_residual(A, B)
            assert got == float(np.linalg.norm(A - B) / max(np.linalg.norm(A), 1e-300))
            assert got == float(np.linalg.norm(B - A) / np.linalg.norm(A))

    @pytest.mark.parametrize("d", [4, 9, 16, 25, 81])
    def test_matches_the_identity_form(self, d):
        # ||I||_F is sqrt(d) exactly
        X = np.eye(d) + 1e-13 * rand_c(d, d)
        assert relative_residual(np.eye(d), X) == float(
            np.linalg.norm(X - np.eye(d)) / np.sqrt(d))


class TestFastApply:
    def test_embedded_matmul_matches_dense(self):
        dims = (2, 3, 2)
        M = rand_c(12, 12)
        A = rand_c(4, 4)
        got = embedded_matmul(A, 2, 0, dims, M)
        want = embed_pair(A, 2, 0, dims) @ M
        assert np.abs(got - want).max() < 1e-13

    def test_permuted_matmul_matches_dense(self):
        dims = (2, 2, 3)
        M = rand_c(12, 12)
        sigma = [2, 0, 1]
        got = permuted_matmul(sigma, dims, M)
        want = permutation_op(sigma, dims) @ M
        assert np.abs(got - want).max() == 0.0

    @pytest.mark.parametrize("cols", [12, 1])
    def test_site_matmul_matches_kron(self, cols):
        dims = (2, 3, 2)
        M = rand_c(12, cols)
        for slot, d in enumerate(dims):
            A = rand_c(d, d)
            dense = np.kron(np.kron(np.eye(int(np.prod(dims[:slot]))), A),
                            np.eye(int(np.prod(dims[slot + 1:]))))
            got = site_matmul(A, slot, dims, M)
            assert got.shape == (12, cols)
            assert np.abs(got - dense @ M).max() < 1e-13

    def test_swap_outputs_is_exact_permutation(self):
        op = rand_c(6, 6)
        want = permutation_op([1, 0], (2, 3)) @ op
        assert np.array_equal(swap_outputs(op, 2, 3), want)
