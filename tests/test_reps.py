import numpy as np
import pytest

from conftest import zeta_sample
from qkzkit.context import QContext
from qkzkit.errors import ConfigError
from qkzkit.reps import (GradingChoice, antipode_dual, build_eval_rep,
                         coproduct_parts, eval_module, hopf_antipode_residuals,
                         operator_o, operator_o_inverse, operator_x,
                         operator_xtilde, sl2_constants, twist)
from qkzkit.tensorops import kron


def qn(nu, q):
    return (q**nu - q**(-nu)) / (q - 1 / q)


def reference_family(m, s0, s1, q, zeta, nu=1.0):
    """Reference matrix families of the spin-m module, assembled by naive loops."""
    d = m + 1
    out = {
        "qh0": np.diag([q ** (-nu * (m - 2 * i + 2)) for i in range(1, d + 1)]),
        "qh1": np.diag([q ** (nu * (m - 2 * i + 2)) for i in range(1, d + 1)]),
        "e0": zeta**s0 * sum(_unit(d, i + 1, i) for i in range(1, m + 1)),
        "e1": zeta**s1 * sum(qn(i, q) * qn(m - i + 1, q) * _unit(d, i, i + 1)
                             for i in range(1, m + 1)),
        "f0": zeta ** (-s0) * sum(qn(i, q) * qn(m - i + 1, q) * _unit(d, i, i + 1)
                                  for i in range(1, m + 1)),
        "f1": zeta ** (-s1) * sum(_unit(d, i + 1, i) for i in range(1, m + 1)),
    }
    return out


def reference_dual_family(m, s0, s1, q, zeta, nu=1.0):
    d = m + 1
    return {
        "qh0": np.diag([q ** (nu * (m - 2 * i + 2)) for i in range(1, d + 1)]),
        "qh1": np.diag([q ** (-nu * (m - 2 * i + 2)) for i in range(1, d + 1)]),
        "e0": -zeta**s0 * sum(q ** (m - 2 * i) * _unit(d, i, i + 1)
                              for i in range(1, m + 1)),
        "e1": -zeta**s1 * sum(q ** (-(m - 2 * i + 2)) * qn(i, q) * qn(m - i + 1, q)
                              * _unit(d, i + 1, i) for i in range(1, m + 1)),
        "f0": -zeta ** (-s0) * sum(q ** (-(m - 2 * i)) * qn(i, q) * qn(m - i + 1, q)
                                   * _unit(d, i + 1, i) for i in range(1, m + 1)),
        "f1": -zeta ** (-s1) * sum(q ** (m - 2 * i + 2) * _unit(d, i, i + 1)
                                   for i in range(1, m + 1)),
    }


def _unit(d, i, j):
    M = np.zeros((d, d), dtype=complex)
    M[i - 1, j - 1] = 1.0
    return M


def rep_matrix(rep, tag, zeta, nu=1.0):
    return rep.gen(tag, zeta, nu) if tag.startswith("qh") else rep.gen(tag, zeta)


class TestEvalRep:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_reference_family(self, m, ctx, grading):
        q = complex(ctx.q)
        zeta = 1.3 + 0.4j
        rep = build_eval_rep(m, grading, ctx)
        want = reference_family(m, grading.s0, grading.s1, q, zeta, nu=0.8)
        for tag, mat in want.items():
            got = rep_matrix(rep, tag, zeta, nu=0.8)
            assert np.abs(got - mat).max() < 1e-13 * max(1.0, np.abs(mat).max())

    def test_m1_specifics(self, ctx, grading):
        rep = build_eval_rep(1, grading, ctx)
        zeta = 0.9 - 0.3j
        # [1]_q [1]_q = 1, so e1 = zeta E_{12}
        want = np.zeros((2, 2), complex)
        want[0, 1] = zeta
        assert np.abs(rep.gen("e1", zeta) - want).max() < 1e-15
        q = complex(ctx.q)
        assert np.abs(rep.qh1(0.5) - np.diag([q**0.5, q**-0.5])).max() < 1e-15

    def test_m0_trivial(self, ctx, grading):
        rep = build_eval_rep(0, grading, ctx)
        assert rep.dim == 1
        assert abs(rep.gen("e1", 2.0)[0, 0]) == 0.0
        assert rep.qh1(1.0)[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_commutator_invariant(self, m, ctx_complex, grading):
        q = complex(ctx_complex.q)
        rep = build_eval_rep(m, grading, ctx_complex)
        zeta = zeta_sample(np.random.default_rng(m))
        for i, qh in ((1, rep.qh1), (0, rep.qh0)):
            e, f = rep.gen(f"e{i}", zeta), rep.gen(f"f{i}", zeta)
            target = (qh(1.0) - qh(-1.0)) / (q - 1 / q)
            assert np.abs(e @ f - f @ e - target).max() < 1e-12

    def test_weight_conjugation(self, ctx, grading):
        rep = build_eval_rep(2, grading, ctx)
        q = complex(ctx.q)
        nu = 0.63
        e1 = rep.gen("e1", 1.1)
        conj = rep.qh1(nu) @ e1 @ rep.qh1(-nu)
        assert np.abs(conj - q ** (2 * nu) * e1).max() < 1e-13

    def test_spectral_covariance(self, ctx, grading10):
        rep = build_eval_rep(2, grading10, ctx)
        zeta = 1.7 - 0.2j
        for tag, s_i in (("e0", grading10.s0), ("e1", grading10.s1)):
            assert np.abs(rep.gen(tag, zeta) - zeta**s_i * rep.gen(tag, 1.0)).max() < 1e-12
        for tag, s_i in (("f0", grading10.s0), ("f1", grading10.s1)):
            assert np.abs(rep.gen(tag, zeta) - zeta ** (-s_i) * rep.gen(tag, 1.0)).max() < 1e-12

    def test_hw_indices(self, ctx, grading):
        # the highest-weight vector is index 0 on V and index m on V*
        assert np.argmax(eval_module("V", 2, grading, ctx).weights) == 0
        assert np.argmax(eval_module("V*", 2, grading, ctx).weights) == 2


class TestAntipodeDual:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_reference_dual(self, m, ctx, grading):
        q = complex(ctx.q)
        zeta = 0.8 + 0.5j
        dual = antipode_dual(build_eval_rep(m, grading, ctx))
        want = reference_dual_family(m, grading.s0, grading.s1, q, zeta, nu=1.3)
        for tag, mat in want.items():
            got = rep_matrix(dual, tag, zeta, nu=1.3)
            assert np.abs(got - mat).max() < 1e-13 * max(1.0, np.abs(mat).max())

    def test_m1_example(self, ctx, grading):
        # phi*(e0) = -zeta q^-1 E_{12} at m=1, s0=s1=1
        q = complex(ctx.q)
        zeta = 1.2
        dual = antipode_dual(build_eval_rep(1, grading, ctx))
        want = np.zeros((2, 2), complex)
        want[0, 1] = -zeta / q
        assert np.abs(dual.gen("e0", zeta) - want).max() < 1e-15

    def test_hw_index(self, ctx, grading):
        rep = build_eval_rep(3, grading, ctx)
        assert np.argmax(rep.weights) == 0
        assert np.argmax(antipode_dual(rep).weights) == 3

    @pytest.mark.parametrize("m", [1, 2])
    def test_double_dual_is_shifted_conjugate(self, m, ctx, grading10):
        consts = sl2_constants(grading10)
        q = complex(ctx.q)
        rep = build_eval_rep(m, grading10, ctx)
        ddual = antipode_dual(antipode_dual(rep))
        X = operator_x(m, grading10, ctx)
        zeta = 1.4 - 0.6j
        shifted = q ** (-consts["epsilon"]) * zeta
        for tag in ("e0", "e1", "f0", "f1"):
            lhs = ddual.gen(tag, zeta)
            rhs = X @ rep.gen(tag, shifted) @ np.linalg.inv(X)
            assert np.abs(lhs - rhs).max() < 1e-12


class TestCoproduct:
    def test_grouplike_cartan(self, ctx, grading):
        # Delta(q^{h1}) = q^{h1} x q^{h1} is diagonal in the weight sums, so an
        # Rcheck on the weight-conserving entries meets it identically; the
        # solver's images (coproduct_parts) cover e_i and f_i only
        q = complex(ctx.q)
        rep = eval_module("V", 1, grading, ctx)
        got = kron(rep.qh1(), rep.qh1())
        assert np.abs(got - np.diag([q**2, 1, 1, q**-2])).max() < 1e-15
        A, B = coproduct_parts(rep, rep)
        assert A.shape == B.shape == (4, 4, 4)  # e0, e1, f0, f1: no Cartan image

    def test_e1_structure(self, ctx, grading):
        q = complex(ctx.q)
        rep = eval_module("V", 1, grading, ctx)
        E12 = _unit(2, 1, 2)
        want = np.kron(E12, np.eye(2)) + np.kron(np.diag([q, 1 / q]), E12)
        A, B = coproduct_parts(rep, rep)
        assert rep.exponent("e1") == grading.s1
        assert np.abs(A[1] + B[1] - want).max() < 1e-15

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("kinds", [("V", "V"), ("V", "V*"), ("V*", "V*")])
    def test_stacked_parts_are_the_generator_images(self, ctx_complex, grading, m, kinds):
        # zeta1^p A[k] + zeta2^p B[k] is the coproduct image of generator k,
        # each term one np.kron of module matrices
        rep1, rep2 = (eval_module(k, m, grading, ctx_complex) for k in kinds)
        z1, z2 = 1.3 + 0.2j, 0.8 - 0.1j
        A, B = coproduct_parts(rep1, rep2)
        for k, tag in enumerate(("e0", "e1", "f0", "f1")):
            qh = f"qh{tag[1]}"
            if tag[0] == "e":
                want = (np.kron(rep1.gen(tag, z1), np.eye(m + 1))
                        + np.kron(rep1.gen(qh, z1), rep2.gen(tag, z2)))
            else:
                want = (np.kron(rep1.gen(tag, z1), rep2.gen(qh, z2, -1.0))
                        + np.kron(np.eye(m + 1), rep2.gen(tag, z2)))
            p = rep1.exponent(tag)
            assert np.abs(z1**p * A[k] + z2**p * B[k] - want).max() < 1e-14

    @pytest.mark.parametrize("m", [1, 2])
    def test_hopf_axiom(self, m, ctx_complex, grading):
        rep = build_eval_rep(m, grading, ctx_complex)
        assert hopf_antipode_residuals((rep,), 1.3 + 0.2j)[0] < 1e-13
        assert hopf_antipode_residuals((antipode_dual(rep),), 0.7 - 0.4j)[0] < 1e-13

    @pytest.mark.parametrize("q", [0.7, 0.3, 0.5 + 0.5j, 1e-3])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_hopf_stack_has_the_bits_of_each_module_alone(self, q, m, grading10):
        # each module's residual in a stack of modules is its one-module residual
        rep = build_eval_rep(m, grading10, QContext(q))
        mods = (rep, antipode_dual(rep), antipode_dual(antipode_dual(rep)))
        stacked = hopf_antipode_residuals(mods, 1.1 - 0.7j)
        assert [x.hex() for x in stacked] == \
            [hopf_antipode_residuals((r,), 1.1 - 0.7j)[0].hex() for r in mods]


class TestDistinguishedOperators:
    def test_x_identity_for_balanced_grading(self, ctx, grading):
        for m in (1, 2, 3):
            assert np.abs(operator_x(m, grading, ctx) - np.eye(m + 1)).max() < 1e-15

    def test_x_principal_grading(self, ctx, grading10):
        # x = -h1, so X = diag(q^{-(m-2i+2)})
        q = complex(ctx.q)
        for m in (1, 2):
            want = np.diag([q ** (-(m - 2 * i + 2)) for i in range(1, m + 2)])
            assert np.abs(operator_x(m, grading10, ctx) - want).max() < 1e-14

    def test_o_m1(self, ctx, grading):
        want = np.array([[0, 1], [-1, 0]], dtype=complex)
        assert np.abs(operator_o(1, grading, ctx) - want).max() < 1e-15

    def test_o_inverse_closed_form(self, ctx, grading10):
        for m in (1, 2, 3):
            O = operator_o(m, grading10, ctx)
            assert np.abs(operator_o_inverse(m, grading10, ctx) @ O - np.eye(m + 1)).max() < 1e-13

    @pytest.mark.parametrize("grading_name", ["balanced", "principal"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_self_duality_conjugation(self, m, grading_name, ctx):
        g = GradingChoice(1, 1) if grading_name == "balanced" else GradingChoice(1, 0)
        q = complex(ctx.q)
        delta = sl2_constants(g)["delta"]
        rep = build_eval_rep(m, g, ctx)
        dual = antipode_dual(rep)
        O = operator_o(m, g, ctx)
        Oi = np.linalg.inv(O)
        zeta = 1.2 + 0.7j
        for tag in ("e0", "e1", "f0", "f1"):
            lhs = dual.gen(tag, zeta)
            rhs = O @ rep.gen(tag, q**delta * zeta) @ Oi
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_omega_consistency(self, grading):
        c = sl2_constants(grading)
        assert c["epsilon"] == pytest.approx(4.0 / grading.s)
        assert c["delta"] == pytest.approx(-2.0 / grading.s)
        assert c["omega"] == pytest.approx(2.0 / grading.s)

    def test_twist_operator(self, ctx, grading):
        q = complex(ctx.q)
        assert np.abs(twist("V", 0.0, 1, ctx) - np.eye(2)).max() < 1e-15
        assert np.abs(twist("V", 1.0, 1, ctx) - np.diag([q, 1 / q])).max() < 1e-15
        assert np.abs(twist("V*", 1.0, 1, ctx) - np.diag([1 / q, q])).max() < 1e-15
        # the Cartan images of both module kinds are the same twists
        for m in (1, 2, 3):
            for kind in ("V", "V*"):
                rep = eval_module(kind, m, grading, ctx)
                assert np.array_equal(rep.qh1(0.4 - 0.2j), twist(kind, 0.4 - 0.2j, m, ctx))
                assert np.array_equal(rep.qh0(0.4 - 0.2j), twist(kind, -0.4 + 0.2j, m, ctx))

    def test_xtilde_core_is_sign(self):
        # (Xtilde^-1)^t Xtilde = (-1)^m X, which lets qkz.build_delta take
        # the self-dual twist without an inverse; X = id for the balanced grading
        for q in (0.7, 0.6 + 0.09j, 0.3, 0.5 + 0.5j):
            ctx = QContext(q)
            for g in (GradingChoice(1, 1), GradingChoice(1, 0), GradingChoice(2, 1),
                      GradingChoice(0, 1)):
                for m in range(1, 6):
                    xt = operator_xtilde(m, g, ctx)
                    core = np.linalg.inv(xt).T @ xt
                    X = operator_x(m, g, ctx)
                    assert np.abs(core - (-1.0) ** m * X).max() <= 1e-13 * np.abs(X).max()

