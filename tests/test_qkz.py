import os
import warnings

import numpy as np
import pytest

from conftest import zeta_sample
from factor_ops import (applied, lambda_forms_residual, lambda_op, lambda_product_regularized,
                        read_factors, transport_phi)
from qkzkit.context import QContext
from qkzkit.errors import ConfigError
from qkzkit.qkz import (ChainSpec, DeltaAssignment, FactorCheck, Side, _two_site, build_delta,
                        check_ddr, check_qkz_compatibility, lambda_factor_specs, probe_block,
                        probe_blocks, rewritten_factors, run_records)
from qkzkit.reps import GradingChoice, operator_o, operator_x
from qkzkit.rsolve import r_matrix
from qkzkit.tensorops import cyclic_left_shift, permutation_op


def general_chain(ctx, grading, kinds, rng, p=None, norm="kappa", alpha=0.0):
    N = len(kinds)
    etas = tuple(zeta_sample(rng) for _ in range(N))
    deltas = tuple(DeltaAssignment("general_v" if k == "V" else "general_vstar",
                                   alpha=alpha) for k in kinds)
    return ChainSpec(1, grading, ctx, tuple(kinds), etas,
                     p if p is not None else 1.23 - 0.31j, deltas, norm)


class TestBuildDelta:
    def test_self_dual_m1_hand_value(self, ctx, grading):
        # (Xtilde^-1)^t Xtilde = -id at m=1; with d = -1 and n = 2 the map is +id
        mat = build_delta(DeltaAssignment("self_dual_pair", n=2), 1, grading, ctx)
        assert np.abs(mat - np.eye(2) * ((-1.0) ** 1) ** (2 - 1) * (-1.0)).max() < 1e-14

    def test_general_alpha_zero_is_x(self, ctx, grading10):
        mat = build_delta(DeltaAssignment("general_v"), 2, grading10, ctx)
        assert np.abs(mat - operator_x(2, grading10, ctx)).max() < 1e-14
        mats = build_delta(DeltaAssignment("general_vstar"), 2, grading10, ctx)
        assert np.abs(mats - operator_x(2, grading10, ctx, kind="V*")).max() < 1e-14

    def test_balanced_grading_gives_identity(self, ctx, grading):
        mat = build_delta(DeltaAssignment("general_v"), 1, grading, ctx)
        assert np.abs(mat - np.eye(2)).max() < 1e-15

    def test_matches_inverse_formula(self):
        # the sources as products of X, Xtilde = O^t X and A_alpha, with the
        # inverses taken numerically and the weights written out by hand
        def inverse_formula(assign, m, g, ctx):
            q = complex(ctx.q)
            w = np.array([m - 2.0 * i for i in range(m + 1)])
            X = np.diag(q ** ((2.0 * g.s1 / g.s - 1.0) * w))
            if assign.source == "self_dual_pair":
                xt = operator_o(m, g, ctx).T @ X
                return ((-1.0) ** m) ** (assign.n - 1) * (np.linalg.inv(xt).T @ xt) \
                    @ np.diag(q ** (assign.alpha * w))
            if assign.source == "general_v":
                return X @ np.diag(q ** (assign.alpha * w))
            return np.linalg.inv(X).T @ np.diag(q ** (-assign.alpha * w))

        for q in (0.7, 0.6 + 0.09j, 0.3):
            ctx = QContext(q)
            for g in (GradingChoice(1, 1), GradingChoice(1, 0), GradingChoice(2, 1),
                      GradingChoice(0, 1)):
                for m in (1, 2, 3, 4):
                    for alpha in (0.0, 0.37 - 0.21j):
                        for assign in (DeltaAssignment("self_dual_pair", alpha, n=1),
                                       DeltaAssignment("self_dual_pair", alpha, n=2),
                                       DeltaAssignment("general_v", alpha),
                                       DeltaAssignment("general_vstar", alpha)):
                            want = inverse_formula(assign, m, g, ctx)
                            got = build_delta(assign, m, g, ctx)
                            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("alpha", [1000.0, float("nan")])
    @pytest.mark.parametrize("source", ["self_dual_pair", "general_v", "general_vstar"])
    def test_unrepresentable_twist_is_a_config_error(self, ctx, grading, source, alpha):
        # q^{-2000} overflows at m = 2: the twist is refused before any warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="site twist"):
                build_delta(DeltaAssignment(source, alpha), 2, grading, ctx)


class TestLambdaOp:
    def test_two_forms_agree_n4(self, ctx, grading, cache):
        rng = np.random.default_rng(50)
        chain = general_chain(ctx, grading, ("V", "V*", "V", "V*"), rng)
        for i in range(4):
            assert lambda_forms_residual(chain, i, cache) < 1e-10

    def test_n2_hand_assembly(self, ctx, grading, cache):
        # Lambda_1 at N=2: Rcheck^{(1,2)}(eta2|p eta1) P_lambda Delta^{(1)}(eta1)
        rng = np.random.default_rng(51)
        chain = general_chain(ctx, grading, ("V", "V"), rng)
        lam = lambda_op(chain, 0, cache)
        rc = r_matrix("V", chain.etas[1], "V", chain.p * chain.etas[0], 1,
                      grading, ctx, normalization="kappa", cache=cache).Rcheck
        P = permutation_op(cyclic_left_shift(2), chain.dims)
        D1 = np.kron(chain.delta_matrix(0), np.eye(2))
        assert np.abs(lam - rc @ P @ D1).max() < 1e-12

    def test_factor_specs_structure(self, ctx, grading):
        rng = np.random.default_rng(52)
        chain = general_chain(ctx, grading, ("V", "V*", "V", "V*"), rng)
        steps = lambda_factor_specs(chain, 2)
        tags = [s[0] for s in steps]
        # application order: the written order reversed
        assert tags == ["Rcheck", "Rcheck", "delta", "perm", "Rcheck"]
        # moving site kind appears as the second member of each Rcheck pair
        for tag, slots, info in steps:
            if tag == "Rcheck":
                assert info[2] == "V"

    def test_index_out_of_range(self, ctx, grading):
        rng = np.random.default_rng(53)
        chain = general_chain(ctx, grading, ("V", "V"), rng)
        with pytest.raises(ConfigError):
            lambda_factor_specs(chain, 5)


class TestDenseRoute:
    def test_dense_side_is_the_string_on_the_identity(self, ctx, grading):
        # an R step, a twist (alpha != 0), an Rcheck step and a permutation, in
        # application order: a dense side applies them as apply_factors does,
        # not as the Rcheck product of its two-site factors in written order
        z1, z2 = 1.3 + 0.2j, 0.8 - 0.1j
        deltas = (DeltaAssignment("general_v", alpha=0.3),) * 2
        chain = ChainSpec(1, grading, ctx, ("V", "V"), (z1, z2), 1.1, deltas, "hw")
        infos = [("V", z1, "V", z2), ("V", z2, "V", z1)]
        steps = [("R", (0, 1), infos[0]), ("delta", 0, 0), ("Rcheck", (0, 1), infos[1]),
                 ("perm", [1, 0], None)]
        dense = applied(chain, steps, route="dense")
        assert np.array_equal(dense, applied(chain, steps))
        rc1, rc2 = read_factors(chain, infos)
        P = permutation_op([1, 0], chain.dims)
        want = P @ rc2 @ np.kron(chain.delta_matrix(0), np.eye(2)) @ P @ rc1
        assert np.abs(dense - want).max() < 1e-12
        assert np.abs(dense - rc2 @ rc1).max() > 0.1  # not the Rcheck product alone


class TestDdr:
    def test_trivial_balanced_alpha_zero(self, ctx, grading, cache):
        rng = np.random.default_rng(54)
        chain = general_chain(ctx, grading, ("V", "V*"), rng)
        rep = check_ddr(chain, 0, 1, cache=cache)
        assert rep.passed

    def test_general_deltas(self, ctx, grading10, cache):
        rng = np.random.default_rng(55)
        for kinds, (j, k) in ((("V", "V*", "V", "V*"), (0, 1)),
                              (("V", "V*", "V", "V*"), (1, 2)),
                              (("V", "V", "V", "V"), (0, 2))):
            chain = general_chain(ctx, grading10, kinds, rng, alpha=0.3 - 0.1j)
            rep = check_ddr(chain, j, k, cache=cache)
            assert rep.passed, rep.residual

    def test_self_dual_delta(self, ctx, grading10, cache):
        rng = np.random.default_rng(56)
        N = 4
        etas = tuple(zeta_sample(rng) for _ in range(N))
        deltas = (DeltaAssignment("self_dual_pair", alpha=0.2, n=2),) * N
        chain = ChainSpec(2, grading10, ctx, ("V",) * N, etas, 1.1, deltas, "kappa")
        rep = check_ddr(chain, 1, 3, cache=cache)
        assert rep.passed, rep.residual


    def test_overflowing_twists_fail(self, ctx, grading, cache):
        # m = 2, alpha = 300: the twist pair has entries near 1e186 and the
        # norms overflow; the check fails with an infinite residual
        deltas = (DeltaAssignment("general_v", alpha=300),) * 2
        chain = ChainSpec(2, grading, ctx, ("V", "V"), (1.2 + 0.3j, 0.7 - 0.4j), 1.1,
                          deltas, "kappa")
        rep = check_ddr(chain, 0, 1, cache=cache)
        assert not rep.passed and rep.residual == np.inf


class TestCompatibility:
    def test_n2(self, ctx, grading, cache):
        rng = np.random.default_rng(57)
        chain = general_chain(ctx, grading, ("V", "V*"), rng)
        rep = check_qkz_compatibility(chain, 0, 1, cache=cache)
        assert rep.passed, rep.residual

    def test_n4_mixed(self, ctx, grading, cache):
        rng = np.random.default_rng(58)
        chain = general_chain(ctx, grading, ("V", "V*", "V", "V*"), rng)
        rep = check_qkz_compatibility(chain, 1, 2, cache=cache)
        assert rep.passed, rep.residual

    def test_degenerate_sanity_p_one(self, ctx, grading, cache):
        # p = 1 with identity twists: Lambda_i Lambda_j still compatible
        rng = np.random.default_rng(59)
        chain = general_chain(ctx, grading, ("V", "V"), rng, p=1.0)
        rep = check_qkz_compatibility(chain, 0, 1, cache=cache)
        assert rep.passed


class TestTransport:
    def test_identity_word(self, ctx, grading, cache):
        rng = np.random.default_rng(60)
        chain = general_chain(ctx, grading, ("V", "V*"), rng)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        out, order = transport_phi(chain, phi, [], cache)
        assert order == [0, 1]
        assert np.abs(out.reshape(-1) - phi).max() == 0.0

    def test_double_swap_is_identity(self, ctx, grading, cache):
        rng = np.random.default_rng(61)
        chain = general_chain(ctx, grading, ("V", "V*", "V", "V*"), rng)
        phi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        out, order = transport_phi(chain, phi, [2, 2], cache)
        assert order == [0, 1, 2, 3]
        assert np.abs(out.reshape(-1) - phi).max() < 1e-12

    def test_exchange_relation(self, ctx, grading, cache):
        # applying one more swap factor advances the transport by one step
        rng = np.random.default_rng(62)
        chain = general_chain(ctx, grading, ("V", "V*", "V", "V*"), rng)
        phi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        word = [0, 2]
        out1, order1 = transport_phi(chain, phi, word, cache)
        out2, order2 = transport_phi(chain, phi, word + [1], cache)
        from qkzkit.tensorops import embedded_matmul
        a, b = order1[1], order1[2]
        rc, = read_factors(chain, [(chain.kinds[a], chain.etas[a],
                                    chain.kinds[b], chain.etas[b])], cache)
        stepped = embedded_matmul(rc, 1, 2, chain.dims, out1.reshape(-1, 1)).reshape(-1)
        assert order2 == [order1[k] for k in (0, 2, 1, 3)]
        assert np.abs(stepped - out2.reshape(-1)).max() < 1e-12


class TestRegularizedProduct:
    def test_cancellation_matches_explicit_product_at_generic_args(self, ctx, grading, cache):
        # when the junction factors are regular the cancellation must be a no-op
        rng = np.random.default_rng(63)
        chain = general_chain(ctx, grading, ("V", "V*"), rng)
        a = lambda_product_regularized(chain, 1, chain, 0, cache)
        b = lambda_op(chain, 1, cache) @ lambda_op(chain, 0, cache)
        assert np.abs(a - b).max() < 1e-11


class TestStackedSides:
    """A side that stacks strings of one step pattern gives, slice by slice,
    the bits of each string applied alone, on every route."""

    @pytest.mark.parametrize("route, form", [("apply_factors", lambda_factor_specs),
                                             ("dense", lambda_factor_specs),
                                             ("einsum", rewritten_factors)])
    def test_each_slice_is_its_string_alone(self, route, form, ctx, grading):
        # one-step operators of three chains that differ in their etas only: the
        # same tags, sites, twist and permutation, other factors
        rng = np.random.default_rng(41)
        chains = [general_chain(ctx, grading, ("V", "V*", "V", "V*"), rng) for _ in range(3)]
        X = probe_block(16, 3)
        for i in (0, 2):
            strings = tuple(tuple(form(chain, i)) for chain in chains)
            side = Side(strings, route)
            infos = [info for steps in strings for info in _two_site(steps)]
            stack, = run_records([FactorCheck(((chains[0], infos),),
                                              lambda read, probe: side.apply(chains[0], read, X))])
            assert stack.shape == ((3, 16, 16) if route == "dense" else (3, 16, 8))
            for chain, got in zip(chains, stack):
                alone = applied(chain, form(chain, i), block=None if route == "dense" else X,
                                route=route)
                assert np.array_equal(got, alone)

    def test_strings_of_two_patterns_are_refused(self, ctx, grading):
        chain = general_chain(ctx, grading, ("V", "V*", "V", "V*"), np.random.default_rng(42))
        with pytest.raises(ConfigError, match="step pattern"):
            Side((tuple(lambda_factor_specs(chain, 0)), tuple(lambda_factor_specs(chain, 1))))


class TestProbeBlocks:
    def test_each_block_is_drawn_once_and_read_only(self):
        probe = probe_blocks()
        X = probe(16, 3)
        assert np.array_equal(X, probe_block(16, 3)) and not X.flags.writeable
        assert probe(16, 3) is X
        assert probe(4, 3, 100) is probe(4, 3, 4)  # a block is at most D wide
        one = probe(16, 3, 1)
        assert one is not X and np.array_equal(one, X[:, :1])
        assert probe(16, 4) is not X
        assert probe_blocks()(16, 3) is not X  # a new run draws its own
        with pytest.raises(ValueError):
            X[0, 0] = 0

    def test_a_suite_run_draws_each_block_once(self, monkeypatch):
        # 29 string records and rpr read 6 distinct blocks in `suite --m 1`
        from qkzkit import cli, qkz
        drawn = []
        monkeypatch.setattr(qkz, "probe_block",
                            lambda *args: drawn.append(args) or probe_block(*args))
        assert cli.main(["suite", "--m", "1", "--seed", "1", "--out", os.devnull]) == 0
        assert len(drawn) == len(set(drawn)) == 6
