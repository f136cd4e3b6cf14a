"""Probe-block evaluation of the composite operators, and the failability of
the checks that compare them on a probe block."""

import dataclasses
from math import prod

import numpy as np
import pytest

from conftest import zeta_sample
from qkzkit import qkz
from qkzkit.qkz import (ChainSpec, DeltaAssignment, apply_factors, check_qkz_compatibility,
                        lambda_factor_specs, lambda_forms_residual, lambda_op,
                        lambda_product_regularized, lambda_rewritten, probe_block,
                        probe_vector, transport_phi)
from qkzkit.reduction import (ReductionCase, chain_for, insertion_invariance_check,
                              mirrored_args, rhs_operator, scaling_covariance_residual,
                              theorem_check_general, theorem_check_selfdual)
from qkzkit.rsolve import r_matrix
from qkzkit.tensorops import embed_pair, permutation_op

BLOCK_TOL = 1e-13
EPS = 1e-6  # relative size of a planted defect


def mixed_chain(ctx, grading, kinds, m, rng):
    etas = tuple(zeta_sample(rng) for _ in kinds)
    deltas = tuple(DeltaAssignment("general_v" if k == "V" else "general_vstar", alpha=0.17)
                   for k in kinds)
    return ChainSpec(m, grading, ctx, tuple(kinds), etas, 1.19 - 0.27j, deltas, "kappa")


def random_block(D, rng, cols=5):
    return rng.standard_normal((D, cols)) + 1j * rng.standard_normal((D, cols))


def assert_block_equal(got, dense, B):
    want = dense @ B
    assert np.linalg.norm(got - want) <= BLOCK_TOL * np.linalg.norm(want)


def mirrored_product_chains(case, zetas):
    """(chain_a, chain_b) of theorem_check_general's Lambda product."""
    n = case.n
    e = complex(case.ctx.q) ** case.shift
    eta_shift = list(zetas[:n - 1]) + [e * zetas[n - 1], e * zetas[n - 1]] + \
        [e * z for z in reversed(zetas[:n - 1])]
    return chain_for(case, eta_shift), chain_for(case, mirrored_args(case, zetas))


class TestProbeBlock:
    def test_first_column_is_the_single_probe_vector(self):
        D = 16
        rng = np.random.default_rng(5)
        phi0 = rng.standard_normal(D) + 1j * rng.standard_normal(D)
        X = probe_block(D, 5)
        assert X.shape == (D, qkz.PROBE_COLUMNS)
        assert np.array_equal(X[:, 0], phi0)

    def test_columns_capped_at_dimension(self):
        assert probe_block(4).shape == (4, 4)

    @pytest.mark.parametrize("D, seed", [(2, 0), (16, 5), (729, 7), (1024, 42)])
    def test_probe_vector_is_the_first_column(self, D, seed):
        assert np.array_equal(probe_vector(D, seed), probe_block(D, seed)[:, 0])


class TestBlockEquivalence:
    """Each operator applied to a block equals its dense matrix times the block."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("kinds", [("V", "V*"), ("V", "V*", "V", "V*")])
    def test_one_step_operator_forms(self, kinds, m, ctx, grading, cache):
        rng = np.random.default_rng([90, len(kinds), m])
        chain = mixed_chain(ctx, grading, kinds, m, rng)
        B = random_block(prod(chain.dims), rng)
        for i in range(chain.N):
            steps = lambda_factor_specs(chain, i)
            assert_block_equal(apply_factors(chain, steps, cache, B),
                               apply_factors(chain, steps, cache), B)
            assert_block_equal(lambda_rewritten(chain, i, cache, B),
                               lambda_rewritten(chain, i, cache), B)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [1, 2])
    def test_rhs_selfdual(self, n, m, ctx, grading, cache):
        rng = np.random.default_rng([91, n, m])
        case = ReductionCase("self_dual", n, m, grading, ctx, alpha=0.13)
        zetas = [zeta_sample(rng) for _ in range(n)]
        B = random_block(prod(case.dims), rng)
        assert_block_equal(rhs_operator(case, zetas, cache, block=B),
                           rhs_operator(case, zetas, cache), B)

    @pytest.mark.parametrize("inserted", [False, True])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [1, 2])
    def test_rhs_general(self, n, m, inserted, ctx, grading, cache):
        rng = np.random.default_rng([92, n, m])
        case = ReductionCase("general", n, m, grading, ctx, alpha=0.13)
        zetas = [zeta_sample(rng) for _ in range(n)]
        insertion = (zeta_sample(rng), zeta_sample(rng)) if inserted else None
        B = random_block(prod(case.dims), rng)
        assert_block_equal(rhs_operator(case, zetas, cache, insertion, B),
                           rhs_operator(case, zetas, cache, insertion), B)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [1, 2])
    def test_regularized_product_at_mirrored_args(self, n, m, ctx, grading, cache):
        rng = np.random.default_rng([93, n, m])
        case = ReductionCase("general", n, m, grading, ctx)
        chain_a, chain_b = mirrored_product_chains(case, [zeta_sample(rng) for _ in range(n)])
        B = random_block(prod(case.dims), rng)
        assert_block_equal(lambda_product_regularized(chain_a, n, chain_b, n - 1, cache, B),
                           lambda_product_regularized(chain_a, n, chain_b, n - 1, cache), B)

    @pytest.mark.parametrize("m", [1, 2])
    def test_regularized_product_at_generic_args(self, m, ctx, grading, cache):
        rng = np.random.default_rng([94, m])
        chain = mixed_chain(ctx, grading, ("V", "V*"), m, rng)
        B = random_block(prod(chain.dims), rng)
        assert_block_equal(lambda_product_regularized(chain, 1, chain, 0, cache, B),
                           lambda_op(chain, 1, cache) @ lambda_op(chain, 0, cache), B)


class TestApplyFactors:
    """A string of all four step kinds against the dense product of its factors."""

    @staticmethod
    def string(chain):
        kinds, etas, p = chain.kinds, chain.etas, chain.p
        return [("R", (0, 2), (kinds[0], etas[0], kinds[2], etas[2])),
                ("delta", 2, 1),  # the twist of site 1 at slot 2
                ("perm", [2, 0, 3, 1], None),
                ("Rcheck", (3, 1), (kinds[3], etas[3], kinds[1], p * etas[1]))]

    def dense(self, chain, cache):
        d, dims = chain.m + 1, chain.dims
        (_, _, f0), _, (_, sigma, _), (_, _, f3) = self.string(chain)
        kw = dict(normalization=chain.normalization, cache=cache)
        R = r_matrix(*f0, chain.m, chain.grading, chain.ctx, **kw).R
        Rcheck = r_matrix(*f3, chain.m, chain.grading, chain.ctx, **kw).Rcheck
        twist = np.kron(np.eye(d**2), np.kron(chain.delta_matrix(1), np.eye(d)))
        return (embed_pair(Rcheck, 3, 1, dims) @ permutation_op(sigma, dims) @ twist
                @ embed_pair(R, 0, 2, dims))

    @pytest.mark.parametrize("norm", ["hw", "kappa"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_dense_product(self, m, norm, ctx, grading, cache):
        rng = np.random.default_rng([89, m])
        chain = dataclasses.replace(
            mixed_chain(ctx, grading, ("V", "V*", "V", "V*"), m, rng), normalization=norm)
        want = self.dense(chain, cache)
        got = apply_factors(chain, self.string(chain), cache)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        # the R step and the twist at slot 2 share site 2 and do not commute
        steps = self.string(chain)
        steps[0], steps[1] = steps[1], steps[0]
        swapped = apply_factors(chain, steps, cache)
        assert np.linalg.norm(swapped - want) > 1e-3 * np.linalg.norm(want)


class TestOneSolvePerString:
    """Each factor string requests all of its factors in one solve_intertwiner call."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        original = qkz.solve_intertwiner
        monkeypatch.setattr(qkz, "solve_intertwiner",
                            lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
        return calls

    @pytest.mark.parametrize("i", range(4))
    def test_lambda_op(self, i, solves, ctx, grading, cache):
        chain = mixed_chain(ctx, grading, ("V", "V*", "V", "V*"), 1, np.random.default_rng(88))
        lambda_op(chain, i, cache)
        assert len(solves) == 1

    @pytest.mark.parametrize("mode,inserted", [("self_dual", False), ("general", False),
                                               ("general", True)])
    def test_rhs_operator(self, mode, inserted, solves, ctx, grading, cache):
        case = ReductionCase(mode, 2, 1, grading, ctx)
        rhs_operator(case, zetas_for(2, 87), cache,
                     insertion=(1.1 + 0.4j, 0.7 - 0.9j) if inserted else None)
        assert len(solves) == 1

    def test_transport_phi(self, solves, ctx, grading, cache):
        chain = mixed_chain(ctx, grading, ("V", "V*", "V", "V*"), 1, np.random.default_rng(86))
        transport_phi(chain, probe_block(16)[:, 0], [0, 2, 1, 0], cache)
        assert len(solves) == 1

    def test_regularized_product_has_one_call_per_chain(self, solves, ctx, grading, cache):
        chain = mixed_chain(ctx, grading, ("V", "V*"), 1, np.random.default_rng(85))
        lambda_product_regularized(chain, 1, chain, 0, cache)
        assert len(solves) == 2
        case = ReductionCase("general", 2, 1, grading, ctx)
        chain_a, chain_b = mirrored_product_chains(case, zetas_for(2, 84))
        lambda_product_regularized(chain_a, 2, chain_b, 1, cache)
        assert len(solves) == 4


# --- failability: a 1e-6 defect in one factor on one side must fail the check ---

def perturbed(A):
    rng = np.random.default_rng(7)
    E = rng.standard_normal(A.shape) + 1j * rng.standard_normal(A.shape)
    return A + EPS * np.linalg.norm(A) / np.linalg.norm(E) * E


def plant_defect(monkeypatch, module, name, pick):
    """Perturb the factors that module.name returns for which pick(call, args, k)
    holds: call counts the calls from 1 (a call that returns no factor
    too), args are the call's arguments and k the factor's place in the
    call's list of results (0 when the call returns one factor)."""
    original = getattr(module, name)
    calls = []

    def defective(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(args)
        many = isinstance(out, list)
        items = [perturbed(x) if pick(len(calls), args, k) else x
                 for k, x in enumerate(out if many else [out])]
        return items if many else items[0]
    monkeypatch.setattr(module, name, defective)


def nth_call(c):
    """The first factor of call c."""
    return lambda call, args, k: (call, k) == (c, 0)


def zetas_for(n, seed):
    rng = np.random.default_rng(seed)
    return [zeta_sample(rng) for _ in range(n)]


class TestFailability:
    """Each probe check passes as is and fails under one planted defect (n <= 2, m = 1).

    Every factor is requested through qkz.rcheck_factors; theorem_selfdual
    calls it for the composite (call 1, no factor at n = 1), the resonant
    lead factor (2), the rewritten form of Lambda_n (3) and its factor-list
    form (4); theorem_general for the composite (1), then Lambda_n (2) and
    Lambda_{n+1} (3) of the product."""

    @pytest.mark.parametrize("n,call", [
        pytest.param(1, 2, id="lead-n1"),          # the resonant factor of the left side
        pytest.param(2, 2, id="lead-n2"),
        pytest.param(2, 1, id="composite"),        # one R factor of the composite
        pytest.param(2, 3, id="lambda-rewritten"),  # one factor of the one-step operator
        pytest.param(2, 4, id="lambda-factor-list"),
    ])
    def test_theorem_selfdual(self, n, call, monkeypatch, ctx, grading, cache):
        case = ReductionCase("self_dual", n, 1, grading, ctx)
        zetas = zetas_for(n, 95)
        assert theorem_check_selfdual(case, zetas, seed=3, cache=cache).passed
        plant_defect(monkeypatch, qkz, "rcheck_factors", nth_call(call))
        assert not theorem_check_selfdual(case, zetas, seed=3, cache=cache).passed

    @pytest.mark.parametrize("call", [pytest.param(1, id="composite"),
                                      pytest.param(2, id="lambda")])
    def test_theorem_general(self, call, monkeypatch, ctx, grading, cache):
        case = ReductionCase("general", 2, 1, grading, ctx)
        zetas = zetas_for(2, 96)
        assert theorem_check_general(case, zetas, seed=3, cache=cache).passed
        plant_defect(monkeypatch, qkz, "rcheck_factors", nth_call(call))
        assert not theorem_check_general(case, zetas, seed=3, cache=cache).passed

    @pytest.mark.parametrize("mode", ["self_dual", "general"])
    def test_scaling_covariance(self, mode, monkeypatch, ctx, grading, cache):
        case = ReductionCase(mode, 2, 1, grading, ctx)
        zetas, nu = zetas_for(2, 97), 1.3 * np.exp(0.4j)
        assert scaling_covariance_residual(case, zetas, nu, cache) <= 1e-10
        plant_defect(monkeypatch, qkz, "rcheck_factors", nth_call(1))
        assert scaling_covariance_residual(case, zetas, nu, cache) > 1e-10

    def test_insertion_invariance(self, monkeypatch, ctx, grading, cache):
        case = ReductionCase("general", 2, 1, grading, ctx)
        zetas = zetas_for(2, 98)
        u, v = 1.1 + 0.4j, 0.7 - 0.9j
        assert insertion_invariance_check(case, zetas, u, v, cache=cache).passed
        plant_defect(monkeypatch, qkz, "rcheck_factors",
                     lambda call, args, k: tuple(args[1][k]) == ("V*", v, "V", u))
        assert not insertion_invariance_check(case, zetas, u, v, cache=cache).passed

    def test_qkz_compatibility(self, monkeypatch, ctx, grading, cache):
        chain = mixed_chain(ctx, grading, ("V", "V*"), 1, np.random.default_rng(99))
        assert check_qkz_compatibility(chain, 0, 1, cache=cache).passed
        p, (eta0, eta1) = chain.p, chain.etas
        # the one factor of Lambda_0 on the chain with eta_1 -> p eta_1
        plant_defect(monkeypatch, qkz, "rcheck_factors",
                     lambda call, args, k: np.isclose(args[1][k][1], p * eta1)
                     and np.isclose(args[1][k][3], p * eta0))
        assert not check_qkz_compatibility(chain, 0, 1, cache=cache).passed

    def test_lambda_forms(self, monkeypatch, ctx, grading, cache):
        chain = mixed_chain(ctx, grading, ("V", "V*", "V", "V*"), 1, np.random.default_rng(100))
        assert lambda_forms_residual(chain, 1, cache) <= 1e-10
        plant_defect(monkeypatch, qkz, "swap_outputs", nth_call(1))
        assert lambda_forms_residual(chain, 1, cache) > 1e-10
