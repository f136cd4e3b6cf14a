"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -v -s tests/test_acceptance.py` to see one line per
criterion; every tolerance is pinned here, not configured elsewhere.
"""

import numpy as np
import pytest

from conftest import z_sample, zeta_sample
from qkzkit import idsuite
from qkzkit.cli import main
from qkzkit.context import QContext
from qkzkit.errors import DegeneratePointError
from qkzkit.qkz import ChainSpec, DeltaAssignment, check_ddr, check_qkz_compatibility, \
    lambda_forms_residual
from qkzkit.reduction import (ReductionCase, check_rpr, insertion_invariance_check,
                              theorem_check_general, theorem_check_selfdual)
from qkzkit.reps import (GENERATOR_TAGS, GradingChoice, antipode_dual,
                         build_eval_rep, operator_o)
from qkzkit.rsolve import _CANCEL_TOL, RCache, r_matrix
from qkzkit.scalars import (kappa_difference_check_sl2, kappa_difference_check_sllpo,
                            kappa_sl2, kappa_sl2_even_rational, kappa_sllpo,
                            q_pochhammer, rho0_ratio_sl2, rho0_sl2)
from test_reps import reference_dual_family, reference_family, rep_matrix

CTX = QContext(q=0.7)
GRADINGS = (GradingChoice(1, 1), GradingChoice(1, 0))
CACHE = RCache()
ALL_PAIRS = [("V", "V"), ("V*", "V"), ("V", "V*"), ("V*", "V*")]


def announce(k, name, residual, tol):
    status = "PASS" if residual <= tol else "FAIL"
    print(f"[criterion {k:2d}] {status} {name}: residual {residual:.3e} <= {tol:.1e}")
    assert residual <= tol, f"criterion {k} ({name}): {residual:.3e} > {tol:.1e}"


def test_criterion_01_representation_fidelity():
    tol = 1e-12
    q = complex(CTX.q)
    worst = 0.0
    g = GradingChoice(1, 1)
    rng = np.random.default_rng(101)
    for m in (1, 2, 3):
        rep = build_eval_rep(m, g, CTX)
        dual = antipode_dual(rep)
        zeta = zeta_sample(rng)
        plain = reference_family(m, g.s0, g.s1, q, zeta, nu=1.0)
        dl = reference_dual_family(m, g.s0, g.s1, q, zeta, nu=1.0)
        for tag in GENERATOR_TAGS:
            scale = max(np.abs(plain[tag]).max(), 1.0)
            worst = max(worst, np.abs(rep_matrix(rep, tag, zeta) - plain[tag]).max() / scale)
            scale = max(np.abs(dl[tag]).max(), 1.0)
            worst = max(worst, np.abs(rep_matrix(dual, tag, zeta) - dl[tag]).max() / scale)
        for r in (rep, dual):
            e1, f1 = r.gen("e1", zeta), r.gen("f1", zeta)
            target = (r.qh1(1.0) - r.qh1(-1.0)) / (q - 1 / q)
            worst = max(worst, np.abs(e1 @ f1 - f1 @ e1 - target).max() / max(np.abs(target).max(), 1.0))
            nu = 0.8
            worst = max(worst, np.abs(r.qh1(nu) @ e1 @ r.qh1(-nu) - q ** (2 * nu) * e1).max())
    announce(1, "representation fidelity", worst, tol)


def test_criterion_02_almost_self_duality():
    tol = 1e-12
    q = complex(CTX.q)
    worst = 0.0
    rng = np.random.default_rng(102)
    g = GradingChoice(1, 1)
    delta = -2.0 / g.s
    for m in (1, 2, 3):
        rep = build_eval_rep(m, g, CTX)
        dual = antipode_dual(rep)
        O = operator_o(m, g, CTX)
        Oi = np.linalg.inv(O)
        for _ in range(5):
            zeta = zeta_sample(rng)
            for tag in GENERATOR_TAGS:
                lhs = rep_matrix(dual, tag, zeta)
                rhs = O @ rep_matrix(rep, tag, q**delta * zeta) @ Oi
                worst = max(worst, np.abs(lhs - rhs).max() / max(np.abs(lhs).max(), 1.0))
    announce(2, "almost self-duality (O conjugation)", worst, tol)


def test_criterion_03_double_dual():
    tol = 1e-12
    worst = 0.0
    for g in GRADINGS:
        for m in (1, 2, 3):
            rep = idsuite.check_double_dual(m, g, CTX, 1.2 + 0.5j)
            worst = max(worst, rep.residual)
    announce(3, "double dual (X conjugation, two gradings)", worst, tol)


def test_criterion_04_intertwiner_solver():
    g = GradingChoice(1, 1)
    rng = np.random.default_rng(104)
    min_margin = np.inf
    worst_resid = 0.0
    for m in (1, 2, 3):
        for kinds in ALL_PAIRS:
            res = r_matrix(kinds[0], zeta_sample(rng), kinds[1], zeta_sample(rng),
                           m, g, CTX, cache=CACHE)
            min_margin = min(min_margin, res.margin)
            worst_resid = max(worst_resid, res.intertwine_residual)
    q = complex(CTX.q)
    fired = 0
    locus = [q ** (2.0 / g.s), q ** (-2.0 / g.s)]
    for point in locus:
        try:
            r_matrix("V", point, "V", 1.0, 1, g, CTX)
        except DegeneratePointError:
            fired += 1
    print(f"[criterion  4] margin {min_margin:.3e} >= 1e-8; intertwine {worst_resid:.3e} <= 1e-11; "
          f"degenerate detection fired {fired}/{len(locus)}")
    assert min_margin >= _CANCEL_TOL
    assert worst_resid <= 1e-11
    assert fired == len(locus)
    announce(4, "intertwiner solver", worst_resid, 1e-11)


def test_criterion_05_unitarity_and_initial_condition():
    tol_unit, tol_init = 1e-10, 1e-12
    g = GradingChoice(1, 1)
    rng = np.random.default_rng(105)
    worst_unit = 0.0
    for norm in ("hw", "kappa"):
        for kinds in ALL_PAIRS:
            rep = idsuite.check_unitarity(1, kinds, (zeta_sample(rng), zeta_sample(rng)),
                                          g, CTX, normalization=norm, cache=CACHE)
            worst_unit = max(worst_unit, rep.residual)
    worst_init = 0.0
    for norm in ("hw", "kappa"):
        for kind in ("V", "V*"):
            rep = idsuite.check_initial_condition(1, kind, zeta_sample(rng), g, CTX,
                                                  normalization=norm, cache=CACHE)
            worst_init = max(worst_init, rep.residual)
    # Mixed pairs admit no finite intertwiner at coincident arguments (the
    # tensor product is never simple there); the initial condition applies to
    # the like-kind pairs and the solver reports the mixed point as degenerate.
    with pytest.raises(DegeneratePointError):
        r_matrix("V*", 1.0, "V", 1.0, 1, g, CTX)
    announce(5, "unitarity", worst_unit, tol_unit)
    announce(5, "initial condition (like-kind pairs)", worst_init, tol_init)


def test_criterion_06_yang_baxter():
    tol = 1e-9
    g = GradingChoice(1, 1)
    rng = np.random.default_rng(106)
    worst = 0.0
    triples = [(a, b, c) for a in ("V", "V*") for b in ("V", "V*") for c in ("V", "V*")]
    for m in (1, 2):
        for kinds in triples:
            for _ in range(20):
                zetas = tuple(zeta_sample(rng) for _ in range(3))
                rep = idsuite.check_ybe(m, kinds, [zetas], g, CTX,
                                        normalization="kappa", cache=CACHE)
                worst = max(worst, rep.residual)
    announce(6, "Yang-Baxter (20 triples x 8 kind-triples, m in {1,2})", worst, tol)


def test_criterion_07_scalar_identities():
    tol = 1e-10
    rng = np.random.default_rng(107)
    worst = 0.0
    q = complex(CTX.q)
    for m in (1, 2, 3, 4):
        worst = max(worst, abs(kappa_sl2(m, 1.0, CTX) - 1.0))
        for _ in range(5):
            z = z_sample(rng)
            worst = max(worst, abs(kappa_sl2(m, z, CTX) * kappa_sl2(m, 1 / z, CTX) - 1.0))
    for m in (1, 2, 3):
        for _ in range(5):
            worst = max(worst, kappa_difference_check_sl2(m, z_sample(rng), CTX))
    for l in (1, 2, 3):
        worst = max(worst, abs(kappa_sllpo(l, 1.0, CTX) - 1.0))
        for _ in range(5):
            worst = max(worst, kappa_difference_check_sllpo(l, z_sample(rng), CTX))
    for m in (1, 2, 3):
        for _ in range(5):
            z = z_sample(rng)
            two = 1.0 / (rho0_sl2(m, z / q**2, CTX) * rho0_sl2(m, z, CTX))
            worst = max(worst, abs(two - rho0_ratio_sl2(m, z, CTX)))
    for k in (1, 2):
        for _ in range(5):
            z = z_sample(rng)
            worst = max(worst, abs(kappa_sl2_even_rational(k, z, CTX) - kappa_sl2(2 * k, z, CTX)))
    from qkzkit.scalars import f_series, rho0_sllpo
    for l in (1, 2, 3):
        for _ in range(20):
            z = z_sample(rng) * abs(q) ** l
            series = q ** (-l / (l + 1)) * np.exp(f_series(l + 1, z / q**l, CTX).value
                                                  - f_series(l + 1, q**l * z, CTX).value)
            worst = max(worst, abs(series - rho0_sllpo(l, z, CTX)))
    # certified truncation: tail bound of the widest product used above
    tail = q_pochhammer(q ** (-4) * 0.9, q**4, CTX).tail_bound
    assert tail < 1e-12
    announce(7, "scalar identities (kappa, difference constants, ratios)", worst, tol)


def test_criterion_08_crossing():
    tol_prop, tol_scalar = 1e-9, 1e-8
    g = GradingChoice(1, 1)
    rng = np.random.default_rng(108)
    worst_prop = 0.0
    worst_scalar = 0.0
    for m in (1, 2):
        shift_scalars, closed = [], []
        for _ in range(10):
            rep = idsuite.check_crossing(m, [(zeta_sample(rng), zeta_sample(rng))],
                                         g, CTX, cache=CACHE)
            worst_prop = max(worst_prop, rep.residual)
            _, _, s1, s2, D1, D2 = rep.extracted_scalars
            shift_scalars.extend([s1, s2])
            closed.extend([D1, D2])
        arr = np.array(shift_scalars)
        worst_scalar = max(worst_scalar, float(np.abs(arr - arr.mean()).max()))
        worst_scalar = max(worst_scalar, float(np.abs(np.array(closed) - (-1.0) ** m).max()))
    announce(8, "crossing proportionality", worst_prop, tol_prop)
    announce(8, "crossing scalars (constancy; double-shift = (-1)^m)", worst_scalar, tol_scalar)


def test_criterion_09_invariances():
    tol = 1e-11
    rng = np.random.default_rng(109)
    worst = 0.0
    alpha = 0.37 - 0.19j
    for g in GRADINGS:
        for m in (1, 2):
            for kinds in (("V", "V"), ("V*", "V"), ("V", "V*")):
                zs = (zeta_sample(rng), zeta_sample(rng))
                worst = max(worst, idsuite.check_invariance_x(m, kinds, zs, g, CTX,
                                                              cache=CACHE).residual)
                worst = max(worst, idsuite.check_invariance_a(alpha, m, kinds, zs, g,
                                                              CTX, cache=CACHE).residual)
            worst = max(worst, idsuite.check_invariance_xtilde(
                m, g, CTX, (zeta_sample(rng), zeta_sample(rng)), cache=CACHE).residual)
    announce(9, "invariances (X, A-twist, Xtilde)", worst, tol)


def test_criterion_10_qkz_machinery():
    g = GradingChoice(1, 1)
    rng = np.random.default_rng(110)
    worst_forms = 0.0
    worst_ddr = 0.0
    worst_compat = 0.0

    def chain_of(kinds, deltas=None, m=1):
        etas = tuple(zeta_sample(rng) for _ in kinds)
        if deltas is None:
            deltas = tuple(DeltaAssignment("general_v" if k == "V" else "general_vstar",
                                           alpha=0.21 - 0.13j) for k in kinds)
        return ChainSpec(m, g, CTX, tuple(kinds), etas, 1.17 - 0.23j, deltas, "kappa")

    chain4 = chain_of(("V", "V*", "V", "V*"))
    for i in range(4):
        worst_forms = max(worst_forms, lambda_forms_residual(chain4, i, CACHE))
    sd = DeltaAssignment("self_dual_pair", alpha=0.21 - 0.13j, n=2)
    chain_sd = chain_of(("V",) * 4, deltas=(sd,) * 4, m=2)
    for (j, k) in ((0, 1), (1, 2), (0, 3)):
        worst_ddr = max(worst_ddr, check_ddr(chain4, j, k, cache=CACHE).residual)
        worst_ddr = max(worst_ddr, check_ddr(chain_sd, j, k, cache=CACHE).residual)
    chain2 = chain_of(("V", "V*"))
    worst_compat = max(worst_compat, check_qkz_compatibility(chain2, 0, 1, cache=CACHE).residual)
    worst_compat = max(worst_compat, check_qkz_compatibility(chain4, 1, 2, cache=CACHE).residual)
    announce(10, "one-step operator form agreement", worst_forms, 1e-10)
    announce(10, "twist-pair commutation (dz and dds deltas)", worst_ddr, 1e-11)
    announce(10, "qKZ compatibility (N in {2,4})", worst_compat, 1e-9)


def test_criterion_11_theorem_selfdual():
    tol_op, tol_e2e = 1e-9, 1e-8
    g = GradingChoice(1, 1)
    worst_op = 0.0
    worst_e2e = 0.0
    for n in (1, 2, 3):
        for m in (1, 2):
            case = ReductionCase("self_dual", n, m, g, CTX)
            for seed in range(10):
                rng = np.random.default_rng([111, n, m, seed])
                zetas = [zeta_sample(rng) for _ in range(n)]
                rep = theorem_check_selfdual(case, zetas, seed=seed, cache=CACHE)
                worst_op = max(worst_op, rep.params["operator_residual"])
                worst_e2e = max(worst_e2e, rep.params["e2e_residual"])
    announce(11, "self-dual reduction operator identity", worst_op, tol_op)
    announce(11, "self-dual reduction end-to-end", worst_e2e, tol_e2e)


def test_criterion_12_theorem_general():
    tol_op, tol_e2e = 1e-9, 1e-8
    g = GradingChoice(1, 1)
    worst_op = 0.0
    worst_e2e = 0.0
    worst_ins = 0.0
    for n in (1, 2):
        for m in (1, 2):
            case = ReductionCase("general", n, m, g, CTX)
            for seed in range(10):
                rng = np.random.default_rng([112, n, m, seed])
                zetas = [zeta_sample(rng) for _ in range(n)]
                rep = theorem_check_general(case, zetas, seed=seed, cache=CACHE)
                worst_op = max(worst_op, rep.params["operator_residual"])
                worst_e2e = max(worst_e2e, rep.params["e2e_residual"])
    rng = np.random.default_rng(112)
    case = ReductionCase("general", 2, 1, g, CTX)
    zetas = [zeta_sample(rng) for _ in range(2)]
    for _ in range(5):
        rep = insertion_invariance_check(case, zetas, zeta_sample(rng),
                                         zeta_sample(rng), cache=CACHE)
        worst_ins = max(worst_ins, rep.residual)
    announce(12, "general reduction operator identity", worst_op, tol_op)
    announce(12, "general reduction end-to-end", worst_e2e, tol_e2e)
    announce(12, "insertion-identity invariance", worst_ins, 1e-10)


def test_criterion_13_exchange_relations():
    tol = 1e-9
    g = GradingChoice(1, 1)
    worst = 0.0
    for mode in ("self_dual", "general"):
        for m in (1, 2):
            case = ReductionCase(mode, 2, m, g, CTX)
            rng = np.random.default_rng([113, m])
            zetas = [zeta_sample(rng) for _ in range(2)]
            for i in range(1, case.n):
                rep = check_rpr(case, i, zetas, seed=13, cache=CACHE)
                worst = max(worst, rep.residual)
    announce(13, "density-operator exchange relations", worst, tol)


def test_criterion_14_determinism(tmp_path):
    out1 = tmp_path / "suite1.json"
    out2 = tmp_path / "suite2.json"
    args = ["suite", "--seed", "42", "--samples", "2"]
    code1 = main(args + ["--out", str(out1)])
    code2 = main(args + ["--out", str(out2)])
    assert code1 == 0 and code2 == 0
    identical = out1.read_bytes() == out2.read_bytes()
    print(f"[criterion 14] {'PASS' if identical else 'FAIL'} "
          f"byte-identical suite reports ({out1.stat().st_size} bytes)")
    assert identical
