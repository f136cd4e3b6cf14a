"""Probe-block evaluation of the composite operators, and the failability of
the checks that compare them on a probe block, of the braid check and of
the crossing check."""

import os
from math import prod

import numpy as np
import pytest

from conftest import zeta_sample
from factor_ops import (applied, lambda_forms_residual, lambda_op, lambda_product_regularized,
                        lambda_rewritten, rhs_operator, transport_phi)
from qkzkit import cli, idsuite, qkz
from qkzkit.cli import serialize_reports
from qkzkit.qkz import (ChainSpec, DeltaAssignment, check_qkz_compatibility,
                        lambda_factor_specs, probe_block)
from qkzkit.reps import GradingChoice
from qkzkit.reduction import (ReductionCase, chain_for, insertion_invariance_check,
                              mirrored_args, scaling_covariance_residual,
                              theorem_check_general, theorem_check_selfdual)
from qkzkit.rsolve import RCache, r_matrix
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
        assert probe_block(4, 0, 1).shape == (4, 1)

    @pytest.mark.parametrize("D", [1, 2, 4, 8, 16, 81, 256, 729, 1024, 4096])
    def test_one_draw_is_the_column_stacked_block(self, D):
        # the block drawn in one call is, bit for bit, the block stacked from
        # its first column and the other columns' real and imaginary draws, and
        # one column of it is that block's first column
        for seed in range(5):
            rng = np.random.default_rng(seed)
            first = rng.standard_normal(D) + 1j * rng.standard_normal(D)
            shape = (D, min(qkz.PROBE_COLUMNS, D) - 1)
            others = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            stacked = np.column_stack([first, others])
            for block in (probe_block(D, seed, 1), probe_block(D, seed)):
                cut = np.ascontiguousarray(stacked[:, :block.shape[1]])
                assert block.tobytes() == cut.tobytes()


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
            assert_block_equal(applied(chain, steps, cache, B),
                               applied(chain, steps, cache), B)
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
        chain = mixed_chain(ctx, grading, ("V", "V*", "V", "V*"), m, rng)._replace(
            normalization=norm)
        want = self.dense(chain, cache)
        got = applied(chain, self.string(chain), cache)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        # the R step and the twist at slot 2 share site 2 and do not commute
        steps = self.string(chain)
        steps[0], steps[1] = steps[1], steps[0]
        swapped = applied(chain, steps, cache)
        assert np.linalg.norm(swapped - want) > 1e-3 * np.linalg.norm(want)


class TestOneSolvePerString:
    """Each factor string, run as a record, has all of its factors solved in
    one solve_requests call."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        original = qkz.solve_requests
        monkeypatch.setattr(qkz, "solve_requests",
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

    def test_regularized_product_is_one_string(self, solves, ctx, grading, cache):
        chain = mixed_chain(ctx, grading, ("V", "V*"), 1, np.random.default_rng(85))
        lambda_product_regularized(chain, 1, chain, 0, cache)
        assert len(solves) == 1
        case = ReductionCase("general", 2, 1, grading, ctx)
        chain_a, chain_b = mirrored_product_chains(case, zetas_for(2, 84))
        lambda_product_regularized(chain_a, 2, chain_b, 1, cache)
        assert len(solves) == 2


# --- failability: a 1e-6 defect in one factor on one side must fail the check ---

def perturbed(A):
    rng = np.random.default_rng(7)
    E = rng.standard_normal(A.shape) + 1j * rng.standard_normal(A.shape)
    return A + EPS * np.linalg.norm(A) / np.linalg.norm(E) * E


def plant_first_call_defect(monkeypatch, module, name):
    """Perturb what module.name returns on its first call."""
    original, calls = getattr(module, name), []

    def defective(*args, **kwargs):
        calls.append(args)
        out = original(*args, **kwargs)
        return perturbed(out) if len(calls) == 1 else out
    monkeypatch.setattr(module, name, defective)


def plant_read_defect(monkeypatch, pick):
    """Perturb the factors that the reader of qkz.solve_records returns for
    which pick(read, info) holds: read counts the reads of that reader from
    1, and info is the factor read."""
    solve_records = qkz.solve_records

    def defective_solve(records, cache=None):
        factor, reads = solve_records(records, cache), []

        def defective(chain, info, check_invertible=True):
            Rc = factor(chain, info, check_invertible)
            reads.append(info)
            return perturbed(Rc) if pick(len(reads), info) else Rc
        return defective
    monkeypatch.setattr(qkz, "solve_records", defective_solve)


def side_starts(rec):
    """The read number (from 1) of the first factor of each side of a string
    record with no dense side: the sides are applied in turn, each reading
    the factors of its strings string by string, in application order."""
    starts, read = [], 1
    for side in rec.sides:
        starts.append(read)
        read += sum(tag in ("R", "Rcheck") for steps in side.strings for tag, _, _ in steps)
    return starts


def zetas_for(n, seed):
    rng = np.random.default_rng(seed)
    return [zeta_sample(rng) for _ in range(n)]


class TestFailability:
    """Each probe check passes as is and fails under one planted defect (n <= 2, m = 1).

    Every factor is read by name through the reader of qkz.solve_records,
    side after side, each side at its steps; a defect is planted on one
    read (its number from side_starts) or on every read of one factor.
    theorem_selfdual reads the composite followed by the resonant lead
    factor (side 0: the composite's two R factors at n = 2, none at n = 1,
    then the lead), the rewritten form of Lambda_n (1) and its factor-list
    form (2); both forms read the lead's factor too, so a defect on every
    read of it would not show.  theorem_general reads the composite (0),
    then the product Lambda_{n+1} Lambda_n (1)."""

    @pytest.mark.parametrize("n,side,place", [
        pytest.param(1, 0, 0, id="lead-n1"),       # the resonant factor of the composite side
        pytest.param(2, 0, 2, id="lead-n2"),
        pytest.param(2, 0, 0, id="composite"),     # one R factor of the composite
        pytest.param(2, 1, 0, id="lambda-rewritten"),  # one factor of the one-step operator
        pytest.param(2, 2, 0, id="lambda-factor-list"),
    ])
    def test_theorem_selfdual(self, n, side, place, monkeypatch, ctx, grading, cache):
        case = ReductionCase("self_dual", n, 1, grading, ctx)
        zetas = zetas_for(n, 95)
        assert theorem_check_selfdual(case, zetas, seed=3, cache=cache).passed
        read = side_starts(theorem_check_selfdual.record(case, zetas, seed=3))[side] + place
        plant_read_defect(monkeypatch, lambda k, info: k == read)
        assert not theorem_check_selfdual(case, zetas, seed=3, cache=cache).passed

    @pytest.mark.parametrize("side", [pytest.param(0, id="composite"),
                                      pytest.param(1, id="lambda")])
    def test_theorem_general(self, side, monkeypatch, ctx, grading, cache):
        case = ReductionCase("general", 2, 1, grading, ctx)
        zetas = zetas_for(2, 96)
        assert theorem_check_general(case, zetas, seed=3, cache=cache).passed
        read = side_starts(theorem_check_general.record(case, zetas, seed=3))[side]
        plant_read_defect(monkeypatch, lambda k, info: k == read)
        assert not theorem_check_general(case, zetas, seed=3, cache=cache).passed

    @pytest.mark.parametrize("mode", ["self_dual", "general"])
    def test_scaling_covariance(self, mode, monkeypatch, ctx, grading, cache):
        case = ReductionCase(mode, 2, 1, grading, ctx)
        zetas, nu = zetas_for(2, 97), 1.3 * np.exp(0.4j)
        assert scaling_covariance_residual(case, zetas, nu, cache) <= 1e-10
        plant_read_defect(monkeypatch, lambda k, info: k == 1)
        assert scaling_covariance_residual(case, zetas, nu, cache) > 1e-10

    def test_insertion_invariance(self, monkeypatch, ctx, grading, cache):
        case = ReductionCase("general", 2, 1, grading, ctx)
        zetas = zetas_for(2, 98)
        u, v = 1.1 + 0.4j, 0.7 - 0.9j
        assert insertion_invariance_check(case, zetas, u, v, cache=cache).passed
        plant_read_defect(monkeypatch, lambda k, info: tuple(info) == ("V*", v, "V", u))
        assert not insertion_invariance_check(case, zetas, u, v, cache=cache).passed

    def test_qkz_compatibility(self, monkeypatch, ctx, grading, cache):
        chain = mixed_chain(ctx, grading, ("V", "V*"), 1, np.random.default_rng(99))
        assert check_qkz_compatibility(chain, 0, 1, cache=cache).passed
        p, (eta0, eta1) = chain.p, chain.etas
        # the one factor of Lambda_0 on the chain with eta_1 -> p eta_1
        plant_read_defect(monkeypatch, lambda k, info: np.isclose(info[1], p * eta1)
                          and np.isclose(info[3], p * eta0))
        assert not check_qkz_compatibility(chain, 0, 1, cache=cache).passed

    def test_lambda_forms(self, monkeypatch, ctx, grading, cache):
        chain = mixed_chain(ctx, grading, ("V", "V*", "V", "V*"), 1, np.random.default_rng(100))
        assert lambda_forms_residual(chain, 1, cache) <= 1e-10
        plant_first_call_defect(monkeypatch, qkz, "swap_outputs")
        assert lambda_forms_residual(chain, 1, cache) > 1e-10


O_DEFECTS = {"transposed": lambda O: O.T,
             "rescaled": lambda O: O * np.linspace(1.0, 1.5, len(O))}  # unequal column factors


class TestIdentityFailability:
    """The braid and crossing checks pass as is and fail under planted defects (m <= 2).

    braid: a 1e-6 relative defect in the first factor that each side
    (the transport of each word) reads through the reader of
    qkz.solve_records.  crossing: O (idsuite.operator_o) replaced by its
    transpose, or its antidiagonal rescaled by unequal factors; the
    closed-form O^-1 stays as it is.  Two planted changes of O are no
    defects here, so no test asks them to fail: at grading (1, 1) O is
    symmetric, so its transpose is O itself, and -O only flips the sign of
    (O x 1) R (O x 1)^-1, which a proportionality absorbs into its scalar.
    """

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("words", cli._BRAID_WORDS, ids=str)
    def test_braid(self, words, m, monkeypatch, ctx, grading, cache):
        etas = idsuite.draw_generic_zetas(np.random.default_rng(11), 4, m, grading, ctx)

        def check():
            return idsuite.check_braid_welldefined(*words, m, ("V", "V*", "V", "V*"), etas,
                                                   grading, ctx, cache=cache)
        assert check().residual <= 1e-14
        starts = side_starts(idsuite.check_braid_welldefined.record(
            *words, m, ("V", "V*", "V", "V*"), etas, grading, ctx))
        plant_read_defect(monkeypatch, lambda k, info: k in starts)
        assert not check().passed

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("defect,s0,s1", [("transposed", 1, 0), ("transposed", 2, 1),
                                              ("rescaled", 1, 1), ("rescaled", 1, 0),
                                              ("rescaled", 2, 1)])
    def test_crossing(self, defect, s0, s1, m, monkeypatch, ctx, cache):
        g = GradingChoice(s0, s1)
        rng = np.random.default_rng(5)
        samples = [tuple(idsuite.draw_generic_zetas(rng, 2, m, g, ctx)) for _ in range(3)]
        assert idsuite.check_crossing(m, samples, g, ctx, cache=cache).residual <= 1e-14
        operator_o = idsuite.operator_o
        monkeypatch.setattr(idsuite, "operator_o",
                            lambda *args: O_DEFECTS[defect](operator_o(*args)))
        assert idsuite.check_crossing(m, samples, g, ctx, cache=cache).residual > 0.1


def one_sided_defect(rec):
    """The string record with the second spectral argument of the first solved
    two-site step of the first string of the reference side of its first pair
    scaled by 1 + EPS, or of the other side of the pair when the reference
    side solves nothing (it is the identity in unitarity and the initial
    condition); None when neither side solves a factor."""
    for k in rec.pairs[0]:
        strings = rec.sides[k].strings
        steps = list(strings[0])
        for j, (tag, where, info) in enumerate(steps):
            if tag in ("R", "Rcheck") and qkz._requests(rec.chain, [info])[0] is not None:
                k1, z1, k2, z2 = info
                steps[j] = (tag, where, (k1, z1, k2, z2 * (1 + EPS)))
                sides = list(rec.sides)
                sides[k] = rec.sides[k]._replace(strings=(tuple(steps), *strings[1:]))
                return rec._replace(sides=tuple(sides))
    return None


@pytest.fixture(scope="module")
def suite_run():
    """The records of `suite --m 2 --seed 7` and the factor reader of its one solve."""
    built, readers = [], []
    solve_records = qkz.solve_records

    def keep(records, cache=None):
        built.extend(records)
        readers.append(solve_records(records, cache))
        return readers[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qkz, "solve_records", keep)
        assert cli.main(["suite", "--m", "2", "--seed", "7", "--out", os.devnull]) == 0
    (factor,) = readers
    return built, factor


class TestReadsMatchDeclarations:
    """A record reads only the factors that it declares (`reads`): every
    record of `suite --m 2 --seed 7` reports the same on a reader solved
    from its own declarations alone as on the run's reader, and a read of
    an undeclared factor raises KeyError instead of reading another one."""

    def test_every_record_reports_the_same_alone(self, suite_run):
        records, factor = suite_run
        in_run = [rec.evaluate(factor) for rec in records]
        assert {type(rec) for rec in records} == {qkz.StringCheck, qkz.FactorCheck}
        assert "degenerate_detection" in {rep.name for rep in in_run}
        for rec, rep in zip(records, in_run):
            alone = rec.evaluate(qkz.solve_records([rec]))
            assert serialize_reports([alone], "json") == serialize_reports([rep], "json")

    def test_an_undeclared_read_raises(self, ctx, grading):
        hw, kappa = qkz.Sites(1, grading, ctx), qkz.Sites(1, grading, ctx, "kappa")
        declared = ("V", 1.2 + 0.1j, "V", 0.8)
        factor = qkz.solve_records([qkz.FactorCheck(((hw, [declared]),), None)])
        assert factor(hw, declared).shape == (4, 4)
        for sites, info in ((hw, ("V", 0.8, "V", 1.2 + 0.1j)), (kappa, declared)):
            with pytest.raises(KeyError):
                factor(sites, info)


class TestOneSidedDefect:
    """Every string record of `suite --m 2 --seed 7` fails when one spectral
    argument of one side is shifted (the records' own data, mutated; the
    runner derives the requests from the mutated strings)."""

    @pytest.fixture(scope="class")
    def records(self, suite_run):
        return [rec for rec in suite_run[0] if isinstance(rec, qkz.StringCheck)]

    def test_every_string_record_fails(self, records):
        assert len(records) == 29
        places = {id(rec): one_sided_defect(rec) for rec in records}
        # at n = 1 both theorem records solve no factor: the self-dual one reads
        # only the closed-form resonance, the general one is P Delta* P Delta
        assert sorted((rec.name, rec.params["n"]) for rec in records
                      if places[id(rec)] is None) == [("theorem_general", 1),
                                                      ("theorem_selfdual", 1)]
        for rec in records:
            mutated = places[id(rec)]
            if mutated is not None:
                assert qkz.run_records([rec], RCache())[0].passed, rec.name
                assert not qkz.run_records([mutated], RCache())[0].passed, rec.name
