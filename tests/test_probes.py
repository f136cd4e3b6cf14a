"""Probe-block evaluation of the composite operators, and the failability of
the checks that compare them on a probe block."""

import dataclasses
from math import isqrt, prod

import numpy as np
import pytest

from conftest import zeta_sample
from qkzkit import qkz, reduction
from qkzkit.qkz import (ChainSpec, DeltaAssignment, check_qkz_compatibility,
                        lambda_factor_specs, lambda_forms_residual, lambda_op,
                        lambda_product_regularized, lambda_rewritten,
                        materialize_factors, probe_block)
from qkzkit.reduction import (ReductionCase, chain_for, insertion_invariance_check,
                              mirrored_args, rhs_operator, scaling_covariance_residual,
                              theorem_check_general, theorem_check_selfdual)
from qkzkit.tensorops import swap_outputs

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


class TestBlockEquivalence:
    """Each operator applied to a block equals its dense matrix times the block."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("kinds", [("V", "V*"), ("V", "V*", "V", "V*")])
    def test_one_step_operator_forms(self, kinds, m, ctx, grading, cache):
        rng = np.random.default_rng([90, len(kinds), m])
        chain = mixed_chain(ctx, grading, kinds, m, rng)
        B = random_block(prod(chain.dims), rng)
        for i in range(chain.N):
            specs = lambda_factor_specs(chain, i)
            assert_block_equal(materialize_factors(chain, specs, cache, B),
                               materialize_factors(chain, specs, cache), B)
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


# --- failability: a 1e-6 defect in one factor on one side must fail the check ---

def perturbed(A):
    rng = np.random.default_rng(7)
    E = rng.standard_normal(A.shape) + 1j * rng.standard_normal(A.shape)
    return A + EPS * np.linalg.norm(A) / np.linalg.norm(E) * E


def plant_defect(monkeypatch, module, name, pick):
    """Perturb the results of module.name on the calls for which pick(*args) holds.

    R-operator results get a perturbed R and the matching Rcheck = P R.
    """
    original = getattr(module, name)

    def defective(*args, **kwargs):
        out = original(*args, **kwargs)
        if not pick(*args):
            return out
        if isinstance(out, np.ndarray):
            return perturbed(out)
        R = perturbed(out.R)
        d = isqrt(R.shape[0])
        return dataclasses.replace(out, R=R, Rcheck=swap_outputs(R, d, d))
    monkeypatch.setattr(module, name, defective)


def first_call():
    seen = []

    def pick(*args):
        seen.append(args)
        return len(seen) == 1
    return pick


def zetas_for(n, seed):
    rng = np.random.default_rng(seed)
    return [zeta_sample(rng) for _ in range(n)]


class TestFailability:
    """Each probe check passes as is and fails under one planted defect (n <= 2, m = 1)."""

    @pytest.mark.parametrize("n,module,name", [
        (1, reduction, "rcheck_factor"),   # the resonant factor of the left side
        (2, reduction, "rcheck_factor"),
        (2, reduction, "_factor"),         # one R factor of the composite
        (2, qkz, "rcheck_factor"),         # one factor of the one-step operator
    ])
    def test_theorem_selfdual(self, n, module, name, monkeypatch, ctx, grading, cache):
        case = ReductionCase("self_dual", n, 1, grading, ctx)
        zetas = zetas_for(n, 95)
        assert theorem_check_selfdual(case, zetas, seed=3, cache=cache).passed
        plant_defect(monkeypatch, module, name, first_call())
        assert not theorem_check_selfdual(case, zetas, seed=3, cache=cache).passed

    @pytest.mark.parametrize("module,name", [(reduction, "_factor"), (qkz, "rcheck_factor")])
    def test_theorem_general(self, module, name, monkeypatch, ctx, grading, cache):
        case = ReductionCase("general", 2, 1, grading, ctx)
        zetas = zetas_for(2, 96)
        assert theorem_check_general(case, zetas, seed=3, cache=cache).passed
        plant_defect(monkeypatch, module, name, first_call())
        assert not theorem_check_general(case, zetas, seed=3, cache=cache).passed

    @pytest.mark.parametrize("mode", ["self_dual", "general"])
    def test_scaling_covariance(self, mode, monkeypatch, ctx, grading, cache):
        case = ReductionCase(mode, 2, 1, grading, ctx)
        zetas, nu = zetas_for(2, 97), 1.3 * np.exp(0.4j)
        assert scaling_covariance_residual(case, zetas, nu, cache) <= 1e-10
        plant_defect(monkeypatch, reduction, "_factor", first_call())
        assert scaling_covariance_residual(case, zetas, nu, cache) > 1e-10

    def test_insertion_invariance(self, monkeypatch, ctx, grading, cache):
        case = ReductionCase("general", 2, 1, grading, ctx)
        zetas = zetas_for(2, 98)
        u, v = 1.1 + 0.4j, 0.7 - 0.9j
        assert insertion_invariance_check(case, zetas, u, v, cache=cache).passed
        plant_defect(monkeypatch, reduction, "_factor",
                     lambda case, k1, z1, k2, z2, cache: (k1, z1, k2, z2) == ("V*", v, "V", u))
        assert not insertion_invariance_check(case, zetas, u, v, cache=cache).passed

    def test_qkz_compatibility(self, monkeypatch, ctx, grading, cache):
        chain = mixed_chain(ctx, grading, ("V", "V*"), 1, np.random.default_rng(99))
        assert check_qkz_compatibility(chain, 0, 1, cache=cache).passed
        p, (eta0, eta1) = chain.p, chain.etas
        # the one factor of Lambda_0 on the chain with eta_1 -> p eta_1
        plant_defect(monkeypatch, qkz, "rcheck_factor",
                     lambda chain, k1, z1, k2, z2, cache=None:
                     np.isclose(z1, p * eta1) and np.isclose(z2, p * eta0))
        assert not check_qkz_compatibility(chain, 0, 1, cache=cache).passed

    def test_lambda_forms(self, monkeypatch, ctx, grading, cache):
        chain = mixed_chain(ctx, grading, ("V", "V*", "V", "V*"), 1, np.random.default_rng(100))
        assert lambda_forms_residual(chain, 1, cache) <= 1e-10
        plant_defect(monkeypatch, qkz, "swap_outputs", first_call())
        assert lambda_forms_residual(chain, 1, cache) > 1e-10
