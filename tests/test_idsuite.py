import numpy as np
import pytest

from conftest import zeta_sample
from qkzkit import cli, idsuite, qkz, rsolve
from qkzkit.context import QContext
from qkzkit.report import VerificationReport, worst_of
from qkzkit.reps import GradingChoice, antipode_dual, antipode_image, build_eval_rep, sl2_constants
from qkzkit.reps import operator_o, operator_o_inverse, operator_x, operator_xtilde
from qkzkit.rsolve import RCache, r_matrix
from qkzkit.tensorops import (kron, partial_transpose, relative_residual, scalar_ratios,
                               swap_outputs)


class TestYangBaxter:
    @pytest.mark.parametrize("kinds", [("V", "V", "V"), ("V", "V*", "V")])
    def test_random_triples(self, kinds, ctx, grading, cache):
        rng = np.random.default_rng(30)
        for m in (1, 2):
            for _ in range(3):
                zetas = tuple(zeta_sample(rng) for _ in range(3))
                rep = idsuite.check_ybe(m, kinds, [zetas], grading, ctx,
                                        normalization="kappa", cache=cache)
                assert rep.passed, rep.residual

    def test_two_equal_arguments(self, ctx, grading, cache):
        z = 1.2 - 0.4j
        rep = idsuite.check_ybe(1, ("V", "V", "V"), [(z, z, 0.7 + 0.2j)], grading,
                                ctx, cache=cache)
        assert rep.passed

    def test_hw_mode(self, ctx, grading, cache):
        rng = np.random.default_rng(31)
        zetas = tuple(zeta_sample(rng) for _ in range(3))
        rep = idsuite.check_ybe(2, ("V*", "V", "V*"), [zetas], grading, ctx,
                                normalization="hw", cache=cache)
        assert rep.passed

    @pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
    @pytest.mark.parametrize("norm", ["hw", "kappa"])
    def test_perturbed_factor_fails(self, ctx, grading, pair, norm):
        # one factor off by 1e-6 relative in its weight-conserving entries, on
        # every read of it through the record's factor reader, must show on the
        # probe block
        m, kinds, zetas = 2, ("V", "V*", "V"), (1.2 + 0.3j, 0.8 - 0.2j, 1.1 + 0.5j)
        a, b = pair
        rec = idsuite.check_ybe.record(m, kinds, [zetas], grading, ctx, normalization=norm)
        factor = qkz.solve_records([rec])
        assert rec.evaluate(factor).passed
        target, reads = (kinds[a], zetas[a], kinds[b], zetas[b]), []

        def planted(chain, info, check_invertible=True):
            Rc = factor(chain, info, check_invertible)
            if info != target:
                return Rc
            reads.append(info)
            noise = np.random.default_rng(5).standard_normal(Rc.shape) * (Rc != 0)
            return Rc + 1e-6 * np.linalg.norm(Rc) * noise / np.linalg.norm(noise)
        assert not rec.evaluate(planted).passed
        assert len(reads) == 2


    def test_a_defect_in_one_sample_of_many_fails(self, ctx, grading):
        # the stacked sides compare each sample's slices: one factor of the last
        # of four samples off by 1e-6 fails the report
        rng = np.random.default_rng(37)
        samples = [tuple(idsuite.draw_generic_zetas(rng, 3, 2, grading, ctx)) for _ in range(4)]
        kinds = ("V", "V*", "V")
        rec = idsuite.check_ybe.record(2, kinds, samples, grading, ctx)
        factor = qkz.solve_records([rec])
        assert rec.evaluate(factor).passed
        z = samples[-1]
        target = (kinds[0], z[0], kinds[2], z[2])

        def planted(chain, info, check_invertible=True):
            Rc = factor(chain, info, check_invertible)
            return Rc * (1 + 1e-6 * np.arange(Rc.size).reshape(Rc.shape)) if info == target else Rc
        assert not rec.evaluate(planted).passed


def ybe_per_sample(m, kinds, samples, grading, ctx, normalization="hw"):
    """check_ybe's record built sample by sample: two one-string sides per
    sample and one pair of them, the reference of the stacked record."""
    sides = []
    for zetas in samples:
        steps = tuple(("R", (a, b), (kinds[a], zetas[a], kinds[b], zetas[b]))
                      for a, b in ((0, 1), (0, 2), (1, 2)))
        sides += [qkz.Side((steps,), check_invertible=False),
                  qkz.Side((steps[::-1],), check_invertible=False)]
    return qkz.StringCheck("ybe", {"m": m, "kinds": list(kinds), "norm": normalization}, 1e-9,
                           qkz.Sites(m, grading, ctx, normalization, 3), tuple(sides),
                           tuple((2 * k + 1, 2 * k) for k in range(len(samples))))


def crossing_one_sample(R, twists, dd):
    """The six proportionalities of one crossing sample, each matrix formed on
    its own: the reference of the stacked measure."""
    r_vv, r_sv, r_vs, r_sh1, r_sh2, rk, rk_sh1, rk_sh2 = R
    o1, o1_inv, o2, o2_inv = twists
    pairs = [(r_sv, partial_transpose(np.linalg.inv(r_vv), "first", dd)),
             (r_vs, np.linalg.inv(partial_transpose(r_vv, "second", dd))),
             (r_sv, o1 @ r_sh1 @ o1_inv),
             (r_vs, o2 @ r_sh2 @ o2_inv),
             (o1 @ rk_sh1 @ o1_inv, partial_transpose(np.linalg.inv(rk), "first", dd)),
             (o2 @ rk_sh2 @ o2_inv, np.linalg.inv(partial_transpose(rk, "second", dd)))]
    lams, resids = scalar_ratios(*map(np.array, zip(*pairs)))
    return lams, worst_of(resids)


def crossing_per_sample(m, samples, grading, ctx):
    """check_crossing's record with its measure taken sample by sample."""
    rec = idsuite.check_crossing.record(m, samples, grading, ctx)

    def measure(read, probe):
        d = m + 1
        O, Oinv, one = operator_o(m, grading, ctx), operator_o_inverse(m, grading, ctx), np.eye(d)
        twists = (kron(O, one), kron(Oinv, one), kron(one, O), kron(one, Oinv))
        R = [swap_outputs(read(sites, info), d, d)
             for sites, infos in rec.factors for info in infos]
        scal, resids = zip(*(crossing_one_sample(R[8 * k:8 * k + 8], twists, (d, d))
                             for k in range(len(samples))))
        spread = worst_of(
            np.abs(np.array([s[i] for s in scal]) - np.mean([s[i] for s in scal])).max()
            for i in (2, 3, 4, 5))
        return VerificationReport.make("crossing", {"m": m, "scalar_spread": spread},
                                       worst_of(resids), 1e-9, extracted_scalars=list(scal[-1]))
    return rec._replace(measure=measure)


class TestStackedSamples:
    """The YBE and crossing records evaluate all samples as stacks; their
    reports have the bits of the sample-by-sample evaluation."""

    @pytest.mark.parametrize("q", [0.7, 0.3, 0.5 + 0.5j])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_ybe_reports_the_bits_of_the_per_sample_record(self, q, m, grading):
        ctx, rng = QContext(q), np.random.default_rng(38)
        for kinds in (("V", "V", "V"), ("V*", "V", "V*")):
            for norm in ("hw", "kappa"):
                samples = [tuple(idsuite.draw_generic_zetas(rng, 3, m, grading, ctx))
                           for _ in range(12)]
                records = [idsuite.check_ybe.record(m, kinds, samples, grading, ctx, norm),
                           ybe_per_sample(m, kinds, samples, grading, ctx, norm)]
                stacked, alone = qkz.run_records(records)
                assert cli.serialize_reports([stacked], "json") == \
                    cli.serialize_reports([alone], "json")

    @pytest.mark.parametrize("q", [0.7, 0.3, 0.5 + 0.5j])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_crossing_reports_the_bits_of_the_per_sample_measure(self, q, m, grading, grading10):
        ctx, rng = QContext(q), np.random.default_rng(39)
        for g in (grading, grading10):
            for count in (1, 12):
                samples = [tuple(idsuite.draw_generic_zetas(rng, 2, m, g, ctx))
                           for _ in range(count)]
                stacked, alone = qkz.run_records([idsuite.check_crossing.record(m, samples, g, ctx),
                                                  crossing_per_sample(m, samples, g, ctx)])
                assert cli.serialize_reports([stacked], "json") == \
                    cli.serialize_reports([alone], "json")

    def test_a_singular_inverse_fails_as_in_the_per_sample_measure(self, ctx, grading):
        # R_VV of the second of three samples made singular: both evaluations
        # end in one failing crossing report with the same note
        rng = np.random.default_rng(40)
        samples = [tuple(idsuite.draw_generic_zetas(rng, 2, 1, grading, ctx)) for _ in range(3)]
        rec = idsuite.check_crossing.record(1, samples, grading, ctx)
        factor = qkz.solve_records([rec])
        target = ("V", samples[1][0], "V", samples[1][1])

        def singular(chain, info, check_invertible=True):
            Rc = factor(chain, info, check_invertible)
            if chain.normalization == "hw" and info == target:
                Rc = Rc.copy()
                Rc[:, 0] = 0.0
            return Rc
        reports = [cli._evaluate("crossing", [r], singular, qkz.probe_block)
                   for r in (rec, crossing_per_sample(1, samples, grading, ctx))]
        assert reports[0] == reports[1]
        (report,), _ = reports
        assert not report.passed and report.note == "LinAlgError: Singular matrix"


class TestUnitarityChecks:
    def test_all_pairs(self, ctx, grading, cache):
        rng = np.random.default_rng(32)
        for kinds in (("V", "V"), ("V*", "V"), ("V", "V*"), ("V*", "V*")):
            zs = (zeta_sample(rng), zeta_sample(rng))
            for norm in ("hw", "kappa"):
                rep = idsuite.check_unitarity(1, kinds, zs, grading, ctx,
                                              normalization=norm, cache=cache)
                assert rep.passed

    def test_initial_condition(self, ctx, grading, cache):
        for kind in ("V", "V*"):
            rep = idsuite.check_initial_condition(2, kind, 1.3 + 0.1j, grading,
                                                  ctx, normalization="kappa",
                                                  cache=cache)
            assert rep.passed

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_initial_condition_sees_a_perturbed_ratio(self, m, ctx, grading, monkeypatch):
        # at zeta1 = zeta2 every component ratio of a like pair is exactly 1;
        # one ratio number off by 1e-6 must fail the check in both modes
        raw = rsolve.CommutantTemplate._build_frame

        def perturbed(template, frame):
            built = raw(template, frame)
            built.ratios[:, 0, 0, 0] *= 1 + 1e-6  # a_0 of every module pair
            return built
        monkeypatch.setattr(rsolve.CommutantTemplate, "_build_frame", perturbed)
        for kind in ("V", "V*"):
            for norm in ("hw", "kappa"):
                rep = idsuite.check_initial_condition(m, kind, 1.3 + 0.1j, grading, ctx,
                                                      normalization=norm, cache=RCache())
                assert not rep.passed, (kind, norm, rep.residual)


class TestCrossing:
    @pytest.mark.parametrize("m", [1, 2])
    def test_proportionality_and_scalars(self, m, ctx, grading, cache):
        rng = np.random.default_rng(33)
        shift_scalars = []
        closed = []
        for _ in range(4):
            rep = idsuite.check_crossing(m, [(zeta_sample(rng), zeta_sample(rng))],
                                         grading, ctx, cache=cache)
            assert rep.passed, rep.residual
            lam_t1, lam_t2, s1, s2, D1, D2 = rep.extracted_scalars
            shift_scalars.extend([s1, s2])
            closed.extend([D1, D2])
        # dual-shift form has unit scalar for the hw family, constant in zeta
        assert np.abs(np.array(shift_scalars) - 1.0).max() < 1e-10
        # closed kappa-normalized scalars equal the difference-equation constant
        assert np.abs(np.array(closed) - (-1.0) ** m).max() < 1e-9

    def test_loop_product_is_one(self, ctx, grading, cache):
        rng = np.random.default_rng(34)
        rep = idsuite.check_crossing(1, [(zeta_sample(rng), zeta_sample(rng))],
                                     grading, ctx, cache=cache)
        _, _, _, _, D1, D2 = rep.extracted_scalars
        assert D1 * D2 == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("m", [1, 2])
    def test_unbalanced_grading(self, m, ctx, grading10, cache):
        # the closed double-shift scalars stay (-1)^m for s0 != s1
        rng = np.random.default_rng(35)
        rep = idsuite.check_crossing(m, [(zeta_sample(rng), zeta_sample(rng))],
                                     grading10, ctx, cache=cache)
        assert rep.passed, rep.residual
        _, _, s1, s2, D1, D2 = rep.extracted_scalars
        assert abs(s1 - 1.0) < 1e-10 and abs(s2 - 1.0) < 1e-10
        assert abs(D1 - (-1.0) ** m) < 1e-9 and abs(D2 - (-1.0) ** m) < 1e-9

    def test_generic_draw_avoids_lattice(self, ctx, grading):
        rng = np.random.default_rng(36)
        q = complex(ctx.q)
        zetas = idsuite.draw_generic_zetas(rng, 4, 2, grading, ctx)
        for i in range(4):
            for j in range(4):
                if i != j:
                    z = (zetas[i] / zetas[j]) ** grading.s
                    for k in range(-5, 6):
                        assert abs(z - q ** (2 * k)) > 1e-3 * max(abs(q ** (2 * k)), 1e-6)


def _one_by_one_zeta(rng):
    """random_zeta as one sample per call: the reference of the array draws."""
    lo, hi = idsuite.ZETA_MODULUS
    return (lo + (hi - lo) * rng.random()) * np.exp(2j * np.pi * rng.random())


def _one_by_one_generic(rng, count, m, grading, ctx):
    """draw_generic_zetas as a loop over samples, pairs and lattice points."""
    q, kmax = complex(ctx.q), m + 3
    for _ in range(1000):
        zetas = [_one_by_one_zeta(rng) for _ in range(count)]
        if not any(abs((zetas[i] / zetas[j]) ** grading.s - q ** (2 * k))
                   < idsuite.LATTICE_MARGIN * max(abs(q ** (2 * k)), 1e-6)
                   for i in range(count) for j in range(count) if i != j
                   for k in range(-kmax, kmax + 1)):
            return zetas
    raise RuntimeError("could not draw generic spectral parameters")


def _one_by_one_z(rng):
    """cli._zsample as one sample per call."""
    return (0.1 + 0.8 * rng.random()) * np.exp(1j * np.pi * (rng.random() - 0.5))


class _PlantedStream:
    """A generator whose first draws are `head`, then those of `rng`: a
    one-number call and an array call read the same stream."""

    def __init__(self, rng, head):
        self.rng, self.head = rng, list(head)

    def random(self, size=None):
        n = 1 if size is None else size
        take, self.head = self.head[:n], self.head[n:]
        values = np.concatenate((take, self.rng.random(n - len(take))))
        return float(values[0]) if size is None else values


def _bits(zetas):
    return [(float(z.real).hex(), float(z.imag).hex()) for z in zetas]


class TestSampleStreams:
    """The array draws against the one-sample-per-call loops they replaced."""

    @pytest.mark.parametrize("q", [0.7, 0.3, 0.5 + 0.5j, 0.95, 0.1])
    @pytest.mark.parametrize("g", [(1, 1), (1, 0), (2, 1)])
    def test_generic_draws_have_the_bits_of_the_loop(self, q, g):
        ctx, grading = QContext(q), GradingChoice(*g)
        for m in (1, 2, 3, 4):
            for count in range(2, 9):
                for seed in range(5):
                    want, got = np.random.default_rng(seed), np.random.default_rng(seed)
                    zetas = idsuite.draw_generic_zetas(got, count, m, grading, ctx)
                    assert _bits(zetas) == _bits(_one_by_one_generic(want, count, m, grading,
                                                                     ctx))
                    assert all(type(z) is np.complex128 for z in zetas)
                    # and both leave the stream at the same draw
                    assert got.random() == want.random()

    def test_a_rejected_draw_is_redrawn_as_in_the_loop(self, ctx, grading):
        # the first two samples coincide, so their ratio is 1 = q^0: the first
        # set is rejected and the next drawn from the stream that follows it
        for seed in range(5):
            head = np.random.default_rng([seed, 1]).random(2).tolist() * 2
            want = _PlantedStream(np.random.default_rng(seed), head)
            got = _PlantedStream(np.random.default_rng(seed), head)
            zetas = idsuite.draw_generic_zetas(got, 2, 1, grading, ctx)
            assert _bits(zetas) == _bits(_one_by_one_generic(want, 2, 1, grading, ctx))
            assert got.head == [] and zetas[0] != zetas[1]
            assert got.random() == want.random()

    @pytest.mark.parametrize("seed", range(20))
    def test_sample_sets_have_the_bits_of_one_sample_calls(self, seed):
        for size in (1, 2, 3, 8, 12, 48):
            want, got = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _bits(idsuite.random_zeta(got, size)) == _bits(
                [_one_by_one_zeta(want) for _ in range(size)])
            assert _bits([idsuite.random_zeta(got)]) == _bits([_one_by_one_zeta(want)])
            assert _bits(cli._zsample(got, size)) == _bits(
                [_one_by_one_z(want) for _ in range(size)])
            assert got.random() == want.random()


class _StuckStream:
    """A generator that counts its draws: the first `good` numbers are those
    of `rng`, every later one 0.25, so every later attempt draws equal
    samples (ratio 1 = q^0) and misses."""

    def __init__(self, rng, good):
        self.rng, self.good, self.drawn = rng, good, 0

    def random(self, size=None):
        n = 1 if size is None else size
        take = max(0, min(n, self.good - self.drawn))
        self.drawn += n
        values = np.concatenate((self.rng.random(take), np.full(n - take, 0.25)))
        return float(values[0]) if size is None else values


class TestSampleSets:
    """draw_generic_sets against draw_generic_zetas calls in turn, and the loop
    reference, with a wider lattice margin so that attempts miss."""

    @pytest.mark.parametrize("margin", [0.05, 0.2])
    @pytest.mark.parametrize("g", [(1, 1), (2, 1)])
    def test_sets_are_those_of_calls_in_turn(self, margin, g, monkeypatch):
        monkeypatch.setattr(idsuite, "LATTICE_MARGIN", margin)
        grading, redrawn = GradingChoice(*g), 0
        for ctx in (QContext(0.7), QContext(0.5 + 0.5j)):
            for sets in (1, 2, 12):
                for count in (1, 2, 3, 4):
                    for seed in range(5):
                        got, turn, loop = (np.random.default_rng([seed, count]) for _ in range(3))
                        found = idsuite.draw_generic_sets(got, sets, count, 3, grading, ctx)
                        in_turn = [idsuite.draw_generic_zetas(turn, count, 3, grading, ctx)
                                   for _ in range(sets)]
                        want = [_one_by_one_generic(loop, count, 3, grading, ctx)
                                for _ in range(sets)]
                        assert [_bits(z) for z in found] == [_bits(z) for z in in_turn] == \
                            [_bits(z) for z in want]
                        assert all(type(z) is np.complex128 for zetas in found for z in zetas)
                        # the generator is left at the same draw
                        drawn = got.random()
                        assert drawn == turn.random() == loop.random()
                        redrawn += drawn != np.random.default_rng([seed, count]).random(
                            2 * sets * count + 1)[-1]
        assert redrawn  # some attempts missed and were drawn again

    @pytest.mark.parametrize("margin", [1e-3, 0.2])
    @pytest.mark.parametrize("count", [2, 3, 4])
    @pytest.mark.parametrize("good", [0, 3, 9])
    def test_runtime_error_comes_at_the_same_attempt(self, margin, count, good, ctx, grading,
                                                     monkeypatch):
        # `good` attempts from the stream, then only misses: the 1000th miss in a
        # row raises after the same draw, in one call and in calls in turn; at
        # the wide margin some of the `good` attempts miss too, and a found set
        # starts the count of misses in a row again
        monkeypatch.setattr(idsuite, "LATTICE_MARGIN", margin)
        got, turn = (_StuckStream(np.random.default_rng(count), 2 * count * good)
                     for _ in range(2))
        with pytest.raises(RuntimeError, match="could not draw generic"):
            idsuite.draw_generic_sets(got, 12, count, 1, grading, ctx)
        with pytest.raises(RuntimeError, match="could not draw generic"):
            for _ in range(12):
                idsuite.draw_generic_zetas(turn, count, 1, grading, ctx)
        assert got.drawn == turn.drawn >= 2 * count * 1000


def _dual_pairs(z_double, z_self, gradings=2, spins=3):
    return [[(z_double, z_self)] * spins] * gradings


class TestConjugationChecks:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_double_and_self_dual(self, m, ctx, grading, grading10):
        reports = idsuite.check_dualities((m,), (grading, grading10),
                                          _dual_pairs(1.1 + 0.6j, 0.9 - 0.5j, spins=1), ctx)
        assert sorted((r.name, r.params["s1"]) for r in reports) == [
            ("double_dual", 0), ("double_dual", 1), ("self_dual", 0), ("self_dual", 1)]
        assert all(r.passed for r in reports), reports

    def test_m0_trivial(self, ctx, grading):
        # one-dimensional module: both conjugations are scalar identities
        reports = idsuite.check_dualities((0,), (grading,), [[(1.1, 1.1)]], ctx)
        assert len(reports) == 2 and all(r.passed for r in reports)

    def test_self_dual_m1_hand_product(self, ctx, grading):
        # O = E12 - E21 conjugation checked by explicit 2x2 products
        from qkzkit.reps import antipode_dual, build_eval_rep
        q = complex(ctx.q)
        rep = build_eval_rep(1, grading, ctx)
        dual = antipode_dual(rep)
        O = np.array([[0, 1], [-1, 0]], dtype=complex)
        z = 1.3
        lhs = dual.gen("e1", z)
        rhs = O @ rep.gen("e1", q ** (-1.0) * z) @ np.linalg.inv(O)
        assert np.abs(lhs - rhs).max() < 1e-14


def _one_conjugation(name, m, grading, ctx, zeta):
    """A double_dual or self_dual residual checked alone, as the one-check
    calls took it: its own modules, C^-1 and C R C^-1 at each tag."""
    rep = build_eval_rep(m, grading, ctx)
    dual = antipode_dual(rep)
    c = sl2_constants(grading)
    if name == "double_dual":
        lhs, shift, C = antipode_dual(dual), -c["epsilon"], operator_x(m, grading, ctx)
    else:
        lhs, shift, C = dual, c["delta"], operator_o(m, grading, ctx)
    shifted, Cinv = complex(ctx.q) ** shift * zeta, np.linalg.inv(C)
    return worst_of(relative_residual(lhs.gen(tag, zeta), C @ rep.gen(tag, shifted) @ Cinv)
                    for tag in lhs.tags)


def _one_hopf(rep, zeta):
    """The Hopf-axiom residual of one module, tag by tag."""
    out = []
    for tag in rep.tags:
        S = antipode_image(rep, tag, zeta)
        if tag.startswith("qh"):
            out.append(relative_residual(np.eye(rep.dim) + 0j, S @ rep.gen(tag, zeta)))
        elif tag.startswith("e"):
            out.append(relative_residual(
                S, -antipode_image(rep, f"qh{tag[1]}", zeta) @ rep.gen(tag, zeta)))
        else:
            out.append(relative_residual(S @ rep.gen(f"qh{tag[1]}", zeta, -1.0),
                                         -rep.gen(tag, zeta)))
    return worst_of(out)


def _reps_one_by_one(config, ctx, g):
    """The reps group module by module and identity by identity."""
    rng = cli._rng_for(config, "rep_invariants")
    q = complex(ctx.q)
    worst, worst_hopf = [], []
    for m in (1, 2, 3):
        rep = build_eval_rep(m, g, ctx)
        zeta = idsuite.random_zeta(rng)
        for r in (rep, antipode_dual(rep)):
            e1, f1, e0, f0 = (r.gen(tag, zeta) for tag in ("e1", "f1", "e0", "f0"))
            nu = 0.7 + 0.1 * rng.random()
            worst += [relative_residual(*pair) for pair in (
                ((r.qh1(1.0) - r.qh1(-1.0)) / (q - 1.0 / q), e1 @ f1 - f1 @ e1),
                ((r.qh0(1.0) - r.qh0(-1.0)) / (q - 1.0 / q), e0 @ f0 - f0 @ e0),
                (q ** (2 * nu) * e1, r.qh1(nu) @ e1 @ r.qh1(-nu)),
                (q ** (-2 * nu) * f1, r.qh1(nu) @ f1 @ r.qh1(-nu)),
                (zeta**g.s1 * r.gen("e1", 1.0), r.gen("e1", zeta)))]
            worst_hopf.append(_one_hopf(r, zeta))
    return {"rep_invariants": worst_of(worst), "rep_hopf_axiom": worst_of(worst_hopf)}


def _group_bits(reports):
    return sorted((r.name, sorted(r.params.items()), r.residual.hex()) for r in reports)


class TestModuleGroupsHaveTheBitsOfOneCheck:
    """The stacked dualities and reps groups against their checks taken one
    at a time, bit for bit."""

    @pytest.mark.parametrize("q", [0.7, 0.3, 0.5 + 0.5j, 1e-3])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_dualities(self, q, seed):
        config = cli.build_parser(["suite"]).parse_args(["suite", "--seed", str(seed)])
        ctx = QContext(q)
        rng = cli._rng_for(config, "dualities")
        want = [VerificationReport.make(name, {"m": m, "s0": g.s0, "s1": g.s1},
                                        _one_conjugation(name, m, g, ctx, idsuite.random_zeta(rng)),
                                        1e-12)
                for g in (GradingChoice(1, 1), GradingChoice(1, 0)) for m in (1, 2, 3)
                for name in ("double_dual", "self_dual")]
        got = cli._chk_dualities(config, ctx, GradingChoice(1, 1))
        assert len(got) == 12 and _group_bits(got) == _group_bits(want)

    @pytest.mark.parametrize("q", [0.7, 0.3, 0.5 + 0.5j, 1e-3])
    @pytest.mark.parametrize("g", [(1, 1), (1, 0), (0, 1), (2, 1)])
    def test_reps(self, q, g):
        config = cli.build_parser(["suite"]).parse_args(["suite", "--seed", "3"])
        ctx, grading = QContext(q), GradingChoice(*g)
        want = _reps_one_by_one(config, ctx, grading)
        got = cli._chk_rep_invariants(config, ctx, grading)
        assert sorted(r.name for r in got) == sorted(want)
        assert all(r.residual.hex() == want[r.name].hex() for r in got), (got, want)


class TestInvariances:
    def test_x_invariance(self, ctx, grading10, cache):
        rng = np.random.default_rng(35)
        for m in (1, 2):
            for kinds in (("V", "V"), ("V*", "V")):
                rep = idsuite.check_invariance_x(m, kinds,
                                                 (zeta_sample(rng), zeta_sample(rng)),
                                                 grading10, ctx, cache=cache)
                assert rep.passed, rep.residual

    def test_x_trivial_for_balanced_grading(self, ctx, grading):
        assert np.abs(operator_x(2, grading, ctx) - np.eye(3)).max() < 1e-15

    def test_a_invariance(self, ctx, grading, cache):
        rng = np.random.default_rng(36)
        for alpha in (0.0, 0.41 - 0.27j):
            for kinds in (("V", "V"), ("V*", "V")):
                rep = idsuite.check_invariance_a(alpha, 2, kinds,
                                                 (zeta_sample(rng), zeta_sample(rng)),
                                                 grading, ctx, cache=cache)
                assert rep.passed, rep.residual

    @pytest.mark.parametrize("kinds", [("V", "V"), ("V*", "V")])
    def test_a_invariance_sees_an_off_sector_entry(self, ctx, grading, kinds, monkeypatch):
        # R conserves the h1-weight, so it commutes exactly with the diagonal
        # twist; one entry linking two weights must break the check
        zetas = (1.2 + 0.3j, 0.8 - 0.2j)
        alpha = 0.41 - 0.27j
        assert idsuite.check_invariance_a(alpha, 2, kinds, zetas, grading, ctx).residual < 1e-15
        # a solve stores the weight-conserving entries alone, so the entry is planted
        # where the record reads its factor: in the reader of qkz.solve_records
        solve_records = qkz.solve_records

        def off_sector(records, cache=None):
            factor = solve_records(records, cache)

            def read(*args, **kwargs):
                Rcheck = factor(*args, **kwargs).copy()
                # basis vectors 0 and 1 differ in h1-weight by 2; row 0 is hw x hw, so
                # R = P Rcheck has the same entry
                Rcheck[0, 1] += 1e-6
                return Rcheck
            return read
        monkeypatch.setattr(qkz, "solve_records", off_sector)
        assert not idsuite.check_invariance_a(alpha, 2, kinds, zetas, grading, ctx,
                                              cache=RCache()).passed

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_xtilde_invariance(self, m, ctx, grading, cache):
        rng = np.random.default_rng(37)
        rep = idsuite.check_invariance_xtilde(m, grading, ctx,
                                              (zeta_sample(rng), zeta_sample(rng)),
                                              cache=cache)
        assert rep.passed, rep.residual

    def test_xtilde_m1_plain_commutator(self, ctx, grading, cache):
        # for m=1 Rcheck is symmetric, so the invariance is a plain commutator
        res = r_matrix("V", 1.4 + 0.2j, "V", 0.8 - 0.3j, 1, grading, ctx,
                       normalization="kappa", cache=cache)
        assert np.abs(res.Rcheck - res.Rcheck.T).max() < 1e-13
        xt = operator_xtilde(1, grading, ctx)
        XX = np.kron(xt, xt)
        assert np.abs(XX @ res.Rcheck - res.Rcheck @ XX).max() < 1e-13

    def test_equal_argument_case(self, ctx, grading, cache):
        # at zeta1 = zeta2 the operator is the identity and everything commutes
        rep = idsuite.check_invariance_xtilde(2, grading, ctx, (1.1, 1.1), cache=cache)
        assert rep.passed


class TestBraid:
    def test_braid_relation(self, ctx, grading, cache):
        rng = np.random.default_rng(38)
        etas = tuple(zeta_sample(rng) for _ in range(4))
        rep = idsuite.check_braid_welldefined([0, 1, 0], [1, 0, 1], 1,
                                              ("V", "V", "V", "V"), etas, grading,
                                              ctx, seed=5, cache=cache)
        assert rep.passed, rep.residual

    def test_unitarity_word(self, ctx, grading, cache):
        rng = np.random.default_rng(39)
        etas = tuple(zeta_sample(rng) for _ in range(4))
        rep = idsuite.check_braid_welldefined([1, 1], [], 1, ("V", "V*", "V", "V*"),
                                              etas, grading, ctx, seed=6, cache=cache)
        assert rep.passed

    def test_random_words_n4(self, ctx, grading, cache):
        rng = np.random.default_rng(40)
        etas = tuple(zeta_sample(rng) for _ in range(4))
        rep = idsuite.check_braid_welldefined([0, 2, 1, 0, 2], [2, 0, 1, 2, 0], 1,
                                              ("V", "V*", "V", "V*"), etas, grading,
                                              ctx, seed=7, cache=cache)
        assert rep.passed

    def test_mismatched_words_rejected(self, ctx, grading, cache):
        with pytest.raises(ValueError):
            idsuite.check_braid_welldefined([0], [1], 1, ("V", "V", "V", "V"),
                                            (1.0, 2.0, 3.0, 4.0), grading, ctx,
                                            cache=cache)


EPS = 1e-6  # relative size of a planted defect
ALL_PAIRS = [("V", "V"), ("V*", "V"), ("V", "V*"), ("V*", "V*")]


def _first_call(fn, defect):
    """fn with defect applied to the value of its first call only."""
    calls = []

    def planted(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append(None)
        return defect(out) if len(calls) == 1 else out
    return planted


def _diagonal_entry_scaled(M):
    M = M.copy()
    M[0, 0] *= 1 + EPS
    return M


def _entry_shifted(M):
    M = M.copy()
    M[0, 0] += EPS * np.abs(M).max()
    return M


class TestPlantedDefects:
    """unitarity, invariance_x, invariance_xtilde and ddr pass as is and fail
    under one planted defect of relative size 1e-6, at m = 1 and 2.

    The twist defects are planted on the first call of a check only, the
    operator of its first slot: the same diagonal entry scaled on both slots
    keeps X x X constant on each weight sector of V x V at m = 1, and R
    commutes with it."""

    @staticmethod
    def zetas(m, grading, ctx, seed):
        return tuple(idsuite.draw_generic_zetas(np.random.default_rng(seed), 2, m, grading, ctx))

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("norm", ["hw", "kappa"])
    @pytest.mark.parametrize("kinds", ALL_PAIRS)
    def test_unitarity_one_rcheck_scaled(self, kinds, norm, m, ctx, grading, monkeypatch):
        zetas = self.zetas(m, grading, ctx, 61)

        def check():
            return idsuite.check_unitarity(m, kinds, zetas, grading, ctx, normalization=norm,
                                           cache=RCache())
        assert check().passed
        solve = qkz.solve_requests
        monkeypatch.setattr(qkz, "solve_requests", lambda *args, **kwargs: [
            res._replace(entries=res.entries * (1 + EPS)) if k == 0 else res
            for k, res in enumerate(solve(*args, **kwargs))])
        assert not check().passed

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("balanced", [True, False])
    @pytest.mark.parametrize("kinds", [("V", "V"), ("V*", "V")])
    def test_invariance_x_one_diagonal_entry_scaled(self, kinds, balanced, m, ctx, grading,
                                                    grading10, monkeypatch):
        g = grading if balanced else grading10
        zetas = self.zetas(m, g, ctx, 62)

        def check():
            return idsuite.check_invariance_x(m, kinds, zetas, g, ctx, cache=RCache())
        assert check().passed
        monkeypatch.setattr(idsuite, "operator_x",
                            _first_call(idsuite.operator_x, _diagonal_entry_scaled))
        assert not check().passed

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("norm", ["hw", "kappa"])
    def test_invariance_xtilde_one_entry_shifted(self, norm, m, ctx, grading, monkeypatch):
        zetas = self.zetas(m, grading, ctx, 63)

        def check():
            return idsuite.check_invariance_xtilde(m, grading, ctx, zetas, normalization=norm,
                                                   cache=RCache())
        assert check().passed
        monkeypatch.setattr(idsuite, "operator_xtilde",
                            _first_call(idsuite.operator_xtilde, _entry_shifted))
        assert not check().passed

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("kinds, sources", [(("V", "V*"), ("general_v", "general_vstar")),
                                                (("V", "V"), ("self_dual_pair",) * 2)])
    def test_ddr_one_twist_entry_scaled(self, kinds, sources, m, ctx, grading, monkeypatch):
        # n only sets the sign of the self-dual twist
        deltas = tuple(qkz.DeltaAssignment(source, alpha=0.2, n=2) for source in sources)
        chain = qkz.ChainSpec(m, grading, ctx, kinds, self.zetas(m, grading, ctx, 64), 1.1,
                              deltas, "kappa")

        def check():
            return qkz.check_ddr(chain, 0, 1, cache=RCache())
        assert check().passed
        monkeypatch.setattr(qkz, "build_delta", _first_call(qkz.build_delta,
                                                            _diagonal_entry_scaled))
        assert not check().passed
