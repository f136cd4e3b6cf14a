import math

import numpy as np
import pytest

from qkzkit.errors import ConfigError
from qkzkit.tensorops import (cyclic_left_shift, embed_pair, embedded_matmul, kron,
                              partial_transpose, permutation_op, permuted_matmul,
                              relative_residual, scalar_ratio, site_matmul, string_matmul,
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


class TestKron:
    def test_kron_helper_is_np_kron(self):
        rng4 = np.random.default_rng(4)
        A = rng4.standard_normal((2, 3)) + 1j * rng4.standard_normal((2, 3))
        B = rng4.standard_normal((4, 1)) - 1j * rng4.standard_normal((4, 1))
        for X, Y in [(A, B), (B, A), (A, np.eye(3)), (np.eye(2), A), (A.real, B)]:
            assert np.array_equal(kron(X, Y), np.kron(X, Y))

    def test_stacked_kron_is_np_kron_per_matrix(self):
        # leading axes broadcast: a stack against a stack, and against one matrix
        A, B, C = rand_c(5, 2, 3), rand_c(5, 3, 2), rand_c(1, 2, 2)
        got = kron(A, B)
        assert got.shape == (5, 6, 6)
        assert all(np.array_equal(got[k], np.kron(A[k], B[k])) for k in range(5))
        assert all(np.array_equal(kron(C, A)[k], np.kron(C[0], A[k])) for k in range(5))
        assert all(np.array_equal(kron(A, np.eye(2))[k], np.kron(A[k], np.eye(2)))
                   for k in range(5))


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
            # "apply s2, then s1" moves object i to s1[s2[i]]
            P12 = permutation_op([s1[s2[i]] for i in range(4)], dims)
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

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_stack_is_each_matrix_transposed(self, which):
        # a leading axis (or two) of matrices: each is moved as it is alone
        for stack in (rand_c(5, 6, 6), rand_c(3, 2, 6, 6)):
            got = partial_transpose(stack, which, (2, 3))
            assert got.shape == stack.shape and got.flags.c_contiguous
            for idx in np.ndindex(stack.shape[:-2]):
                assert np.array_equal(got[idx], partial_transpose(stack[idx], which, (2, 3)))

    def test_stack_of_wrong_shape_is_refused(self):
        with pytest.raises(ConfigError):
            partial_transpose(rand_c(4, 6, 5), "first", (2, 3))


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


def norm_cases():
    """0-d, 1-d and 2-d, real and complex, strided, with a zero reference, inf,
    NaN, an overflowing and an underflowing norm, and an integer array; drawn
    from their own generator, so the draws of the other tests stay as they are."""
    draw = np.random.default_rng(37).standard_normal

    def _c(*shape):
        return draw(shape) + 1j * draw(shape)

    return [
        (2.5, 2.5 + 1e-9), (np.float64(-3.0), np.float64(1.0)), (1 + 2j, 1 - 2j),
        (np.array(0.5 - 1j), np.array(0.5)),
        (_c(7).real, _c(7).real), (_c(7), _c(7)), (_c(9), _c(9).real),
        (_c(16, 8).real, _c(16, 8).real), (_c(16, 8), _c(16, 8)),
        (_c(8, 16).T, _c(16, 8)), (_c(6, 5)[::2, 1:], _c(3, 4)),
        (np.zeros(5), _c(5).real), (np.zeros((3, 3), complex), _c(3, 3)),
        (np.array([1.0, np.inf]), np.ones(2)), (np.array([1.0, 2.0]), np.array([np.inf, 0.0])),
        (np.array([1 + 1j, complex(np.inf, 0)]), np.zeros(2)),
        (np.array([np.nan, 1.0]), np.ones(2)), (np.ones(2), np.array([1.0, np.nan])),
        (_c(3, 3), np.full((3, 3), complex(np.nan, 0))),
        (1e155 * _c(16, 8), 1e155 * _c(16, 8)), (np.full(4, 1e200), np.zeros(4)),
        (np.full((2, 2), 1e-170), np.zeros((2, 2))), (np.arange(6).reshape(2, 3), np.ones((2, 3))),
    ]


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

    @pytest.mark.parametrize("defect", [1e-3, 1e-8])
    def test_overflowing_reference_reads_inf(self, defect):
        # ||ref|| overflows once entries reach about 1e154; dividing by it made
        # every finite difference read 0.  Scaled down, the defect is seen
        block = rand_c(16, 8)
        other = block + defect * np.linalg.norm(block) / np.sqrt(block.size) * rand_c(16, 8)
        assert defect / 3 < relative_residual(block, other) < 3 * defect
        assert relative_residual(1e155 * block, 1e155 * other) == math.inf

    @pytest.mark.parametrize("shape", [(4, 4), (16, 8), (729,)])
    def test_matches_the_inline_forms(self, shape):
        A = rand_c(*shape)
        for B in (rand_c(*shape), A + 1e-12 * rand_c(*shape)):
            got = relative_residual(A, B)
            assert got == float(np.linalg.norm(A - B) / max(np.linalg.norm(A), 1e-300))
            assert got == float(np.linalg.norm(B - A) / np.linalg.norm(A))

    @pytest.mark.parametrize("ref, other", norm_cases())
    def test_keeps_the_bits_of_the_norm_form(self, ref, other):
        # the Frobenius steps of np.linalg.norm, inlined, give its result bit for bit
        with np.errstate(all="ignore"):
            den = np.linalg.norm(ref)
            want = (math.inf if den == 0 or np.isinf(den)
                    else float(np.linalg.norm(ref - other) / den))
        assert np.float64(relative_residual(ref, other)).tobytes() == np.float64(want).tobytes()

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

    @pytest.mark.parametrize("i, j", [(i, j) for i in range(4) for j in range(4) if i != j])
    def test_every_site_pair_matches_the_kron_form(self, i, j):
        # a product operator A x B on (i, j) is A at slot i and B at slot j
        dims = (2, 3, 2, 3)
        A, B = rand_c(dims[i], dims[i]), rand_c(dims[j], dims[j])
        dense = np.ones((1, 1))
        for k, d in enumerate(dims):
            dense = np.kron(dense, A if k == i else B if k == j else np.eye(d))
        M = rand_c(36, 5)
        assert np.abs(embed_pair(np.kron(A, B), i, j, dims) - dense).max() < 1e-14
        assert np.abs(embedded_matmul(np.kron(A, B), i, j, dims, M) - dense @ M).max() < 1e-13

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

    @pytest.mark.parametrize("cols", [1, 8])
    def test_every_pair_and_slot_match_the_dense_embedding(self, cols):
        # five sites: adjacent, far and reversed pairs, and each slot with a complex
        # and a real matrix (the site twists can be real)
        dims = (3,) * 5
        M = rand_c(243, cols)
        for i in range(5):
            for j in range(5):
                if i != j:
                    op = rand_c(9, 9)
                    want = embed_pair(op, i, j, dims) @ M
                    got = embedded_matmul(op, i, j, dims, M)
                    assert relative_residual(want, got) < 1e-14, (i, j)
            for A in (rand_c(3, 3), rand_c(3, 3).real):
                dense = np.kron(np.kron(np.eye(3 ** i), A), np.eye(3 ** (4 - i)))
                assert relative_residual(dense @ M, site_matmul(A, i, dims, M)) < 1e-14, i

    def test_swap_outputs_is_exact_permutation(self):
        op = rand_c(6, 6)
        want = permutation_op([1, 0], (2, 3)) @ op
        assert np.array_equal(swap_outputs(op, 2, 3), want)


def transposition(i, j, N):
    sigma = list(range(N))
    sigma[i], sigma[j] = j, i
    return sigma


def random_string(d, N, length, seed):
    """A random factor string on N sites of dimension d, as (tag, op, where)
    steps: one-site matrices, two-site factors on ordered pairs (i > j and
    non-adjacent pairs among them), R = P Rcheck factors and permutations."""
    g = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(N) for j in range(N) if i != j]
    steps = []
    for _ in range(length):
        tag = ("site", "pair", "R", "perm")[g.integers(4)]
        shape = (d, d) if tag == "site" else (d * d, d * d)
        op = g.standard_normal(shape) + 1j * g.standard_normal(shape)
        where = (int(g.integers(N)),) if tag == "site" else \
            [int(k) for k in g.permutation(N)] if tag == "perm" else pairs[g.integers(len(pairs))]
        steps.append((tag, None if tag == "perm" else op, where))
    return steps


def kernel_steps(steps, N, relabel=transposition):
    """The string_matmul steps of a random string: an R factor is its Rcheck
    followed by the relabel of its two sites."""
    out = []
    for tag, op, where in steps:
        out.append((op, where))
        if tag == "R":
            out.append((None, relabel(*where, N)))
    return out


def dense_string(steps, d, N):
    """The string's matrix as a product of embed_pair and permutation_op."""
    dims = (d,) * N
    A = np.eye(d ** N, dtype=complex)
    for tag, op, where in steps:
        if tag == "perm":
            A = permutation_op(where, dims) @ A
        elif tag == "site":  # op x 1 on the site and the next one
            A = embed_pair(kron(op, np.eye(d)), where[0], (where[0] + 1) % N, dims) @ A
        else:
            A = embed_pair(swap_outputs(op, d, d) if tag == "R" else op, *where, dims) @ A
    return A


def one_step_at_a_time(steps, d, N, M):
    """The string applied by the one-step calls, each restoring the block: an
    R factor as embedded_matmul of swap_outputs(Rcheck)."""
    dims = (d,) * N
    for tag, op, where in steps:
        if tag == "perm":
            M = permuted_matmul(where, dims, M)
        elif tag == "site":
            M = site_matmul(op, where[0], dims, M)
        else:
            M = embedded_matmul(swap_outputs(op, d, d) if tag == "R" else op, *where, dims, M)
    return M


# (d, N): D = 4, 8, 27, 81, 32; the first two with D < 8, so a probe block has D columns
SHAPES = [(2, 2), (2, 3), (3, 3), (3, 4), (2, 5)]


class TestStringMatmul:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("d, N", SHAPES)
    def test_random_string_matches_its_dense_product(self, d, N, seed):
        steps = random_string(d, N, 12, seed)
        D = d ** N
        dense = dense_string(steps, d, N)
        for M in (np.eye(D, dtype=complex), rand_c(D, min(8, D)), rand_c(D, 1)):
            got = string_matmul(kernel_steps(steps, N), (d,) * N, M)
            assert got.shape == M.shape
            assert relative_residual(dense @ M, got) < 1e-13
            assert np.array_equal(got, one_step_at_a_time(steps, d, N, M))

    @pytest.mark.parametrize("d, N", SHAPES)
    def test_every_step_kind_occurs(self, d, N):
        # the random strings above reach all four kinds of step
        tags = {tag for seed in range(4) for tag, _, _ in random_string(d, N, 12, seed)}
        assert tags == {"site", "pair", "R", "perm"}

    @pytest.mark.parametrize("d, N", SHAPES)
    def test_permutation_only_string_is_exact(self, d, N):
        g = np.random.default_rng(N)
        steps = [("perm", None, [int(k) for k in g.permutation(N)]) for _ in range(4)]
        M = rand_c(d ** N, 3)
        got = string_matmul(kernel_steps(steps, N), (d,) * N, M)
        assert np.array_equal(got, dense_string(steps, d, N) @ M)
        assert np.array_equal(got, one_step_at_a_time(steps, d, N, M))

    def test_empty_string_is_the_block(self):
        M = rand_c(8, 2)
        assert np.array_equal(string_matmul([], (2, 2, 2), M), M)

    @pytest.mark.parametrize("d, N", [(2, 3), (3, 4), (2, 5)])
    def test_wrong_relabel_after_an_R_step_fails(self, d, N):
        # trading the wrong two axes after an R step (the mover's partner one
        # site on) must break both comparisons
        def wrong(i, j, N):
            return transposition(i, next(k for k in range(N) if k not in (i, j)), N)
        Rc = rand_c(d * d, d * d)
        steps = [("pair", rand_c(d * d, d * d), (0, 1)), ("R", Rc, (N - 1, 1)),
                 ("site", rand_c(d, d), (1,))]
        M = rand_c(d ** N, 4)
        good = string_matmul(kernel_steps(steps, N), (d,) * N, M)
        bad = string_matmul(kernel_steps(steps, N, wrong), (d,) * N, M)
        want = dense_string(steps, d, N) @ M
        assert relative_residual(want, good) < 1e-13
        assert relative_residual(want, bad) > 1e-2
        assert not np.array_equal(bad, one_step_at_a_time(steps, d, N, M))

    def test_sites_keep_their_dimensions(self):
        # a permutation moves a site's space with it: P (A x B) = (B x A) P
        A, B = rand_c(2, 2), rand_c(3, 3)
        M = rand_c(6, 6)
        moved = string_matmul([(A, (0,)), (B, (1,)), (None, [1, 0])], (2, 3), M)
        assert np.abs(moved - permutation_op([1, 0], (2, 3)) @ np.kron(A, B) @ M).max() < 1e-13

    def test_steps_are_built_as_they_are_applied(self):
        # a generator of steps: a failing step raises before any later step is built
        built = []

        def steps():
            for k in range(3):
                built.append(k)
                if k == 1:
                    raise KeyError("unsolved factor")
                yield rand_c(4, 4), (0, 1)
        with pytest.raises(KeyError):
            string_matmul(steps(), (2, 2), rand_c(4, 1))
        assert built == [0, 1]

    def test_a_stack_of_one_is_the_call_on_its_block(self):
        d, N = 3, 3
        steps = kernel_steps(random_string(d, N, 8, 5), N)
        M = rand_c(d ** N, 4)
        got = string_matmul([(None if op is None else op[None], where) for op, where in steps],
                            (d,) * N, M[None])
        assert got.shape == (1, d ** N, 4)
        assert np.array_equal(got[0], string_matmul(steps, (d,) * N, M))

    def test_overflow_reads_inf_without_warning(self):
        got = string_matmul([(np.full((4, 4), 1e300), (1, 0))], (2, 2), np.full((4, 1), 1e300))
        assert np.isinf(got).all()


def stacked_strings(d, N, length, S, seed):
    """S random strings with one step pattern (that of random_string): the same
    tags, sites and permutations, each factor drawn anew for every string."""
    pattern = random_string(d, N, length, seed)
    return [[(tag, None if op is None else rand_c(*op.shape), where)
             for tag, op, where in pattern] for _ in range(S)]


def stack_steps(strings, N, shared=()):
    """The string_matmul steps of a stack of strings: each factor the (S, a, a)
    stack of its strings' factors, or the first string's matrix for every
    slice at the step numbers in `shared`."""
    steps = []
    for k, column in enumerate(zip(*strings)):
        tag, op, where = column[0]
        if op is not None:
            op = op if k in shared else np.stack([step[1] for step in column])
        steps += kernel_steps([(tag, op, where)], N)
    return steps


class TestStackedStringMatmul:
    """A stack of S strings with one step pattern applied in one call equals
    each string applied alone to its block, bit for bit."""

    @pytest.mark.parametrize("S", [1, 2, 12])
    @pytest.mark.parametrize("d, N", [(2, 4), (3, 3), (4, 3)])
    @pytest.mark.parametrize("k", [1, 8])
    def test_each_slice_is_its_string_alone(self, S, d, N, k):
        strings = stacked_strings(d, N, 10, S, 10 * d + N)
        assert {tag for tag, _, _ in strings[0]} >= {"R", "perm"}
        dims = (d,) * N
        M = rand_c(S, d ** N, k)
        got = string_matmul(stack_steps(strings, N), dims, M)
        assert got.shape == M.shape
        for s in range(S):
            assert np.array_equal(got[s], string_matmul(kernel_steps(strings[s], N), dims, M[s]))

    @pytest.mark.parametrize("S", [2, 12])
    @pytest.mark.parametrize("d, N", [(2, 4), (3, 3)])
    def test_shared_block_and_shared_ops(self, S, d, N):
        # every slice reads one block (a broadcast view, as qkz.apply_factors
        # passes it), and the first two factors are one matrix for every slice
        strings = stacked_strings(d, N, 10, S, 7)
        first_two = [k for k, (_, op, _) in enumerate(strings[0]) if op is not None][:2]
        for string in strings[1:]:
            for k in first_two:
                string[k] = strings[0][k]
        dims, X = (d,) * N, rand_c(d ** N, 8)
        got = string_matmul(stack_steps(strings, N, first_two), dims,
                            np.broadcast_to(X, (S, *X.shape)))
        for s in range(S):
            assert np.array_equal(got[s], string_matmul(kernel_steps(strings[s], N), dims, X))

    def test_a_slice_sees_only_its_own_factors(self):
        # a wrong factor in one slice moves that slice alone
        d, N, S = 2, 4, 3
        strings = stacked_strings(d, N, 8, S, 3)
        M = rand_c(S, d ** N, 2)
        good = string_matmul(stack_steps(strings, N), (d,) * N, M)
        k = next(k for k, (_, op, _) in enumerate(strings[1]) if op is not None)
        tag, op, where = strings[1][k]
        strings[1][k] = (tag, op * (1 + 1e-6), where)
        bad = string_matmul(stack_steps(strings, N), (d,) * N, M)
        assert np.array_equal(bad[0], good[0]) and np.array_equal(bad[2], good[2])
        assert relative_residual(good[1], bad[1]) > 1e-8
