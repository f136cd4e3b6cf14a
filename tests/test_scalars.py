import cmath
import decimal
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import z_sample
from qkzkit import cli, scalars
from qkzkit.context import QContext
from qkzkit.errors import (ConfigError, DivergentBaseError, PoleError, ScalarDomainError,
                           TruncationError)
from qkzkit.scalars import (difference_patterns_sl2, difference_patterns_sllpo,
                            f_series, kappa_sl2, kappa_sl2_even_rational, kappa_sllpo,
                            q_number, q_pochhammer, rho0_ratio_sl2, rho0_sl2, rho0_sllpo)


class TestQNumber:
    def test_nu_one_is_one(self, ctx):
        assert q_number(1, ctx) == pytest.approx(1.0)

    def test_nu_zero_is_zero(self, ctx):
        assert abs(q_number(0, ctx)) < 1e-15

    def test_nu_two_at_half(self):
        # ((1/4) - 4) / ((1/2) - 2) = 5/2
        ctx = QContext(q=0.5)
        assert q_number(2, ctx) == pytest.approx(2.5)

    def test_antisymmetric(self, ctx_complex):
        assert q_number(-1.7, ctx_complex) == pytest.approx(-q_number(1.7, ctx_complex))


def _decimal_product(a: complex, p: complex) -> complex:
    """(a; p)_inf in 30-digit decimals, the factors up to where |a p^k| < 1e-25."""
    with decimal.localcontext() as dc:
        dc.prec = 30
        ar, ai, pr, pi = map(decimal.Decimal, (a.real, a.imag, p.real, p.imag))
        vr, vi = decimal.Decimal(1), decimal.Decimal(0)
        while ar * ar + ai * ai >= decimal.Decimal("1e-50"):
            vr, vi = vr * (1 - ar) + vi * ai, vi * (1 - ar) - vr * ai
            ar, ai = ar * pr - ai * pi, ar * pi + ai * pr
        return complex(vr, vi)


def _closed_form_size(a: complex, p: complex) -> float:
    """The error model of the closed form of (a; p)_inf, in units of eps
    (scalars module docstring): 1 for the exp, the |log| of each explicit
    factor 1 - a p^k (|a p^k| > 1/4), and |x| / (1 - |p|) for the log series
    at x = a p^K."""
    size, pk = 1.0, 1.0 + 0.0j
    while abs(a * pk) > scalars._RHO:
        size += abs(cmath.log(1.0 - a * pk))
        pk *= p
    return size + abs(a * pk) / (1.0 - abs(p))


class TestQPochhammer:
    def test_zero_argument(self):
        assert q_pochhammer(0.0, 0.3).value == pytest.approx(1.0)

    def test_unit_argument_vanishes(self):
        assert abs(q_pochhammer(1.0, 0.3).value) < 1e-15

    def test_against_direct_product(self):
        # brute-force 64-term partial product as the independent oracle
        a = p = 0.5
        direct = 1.0
        for k in range(64):
            direct *= 1.0 - a * p**k
        got = q_pochhammer(a, p)
        assert got.value == pytest.approx(direct, abs=1e-14)
        assert got.tail_bound < 1e-15

    def test_divergent_base(self):
        with pytest.raises(DivergentBaseError):
            q_pochhammer(0.5, 1.1)

    @pytest.mark.parametrize("q", [0.7, 0.6 + 0.09j, 0.5 + 0.5j, 0.95, 0.3, 0.3 + 0.6j])
    def test_closed_form_matches_the_full_product(self, q):
        # the oracle multiplies the factors in 30-digit decimals, so the gap is
        # the closed form's own rounding: within 2 eps times its error model
        # (measured at most 1.1 eps times it)
        rng = np.random.default_rng(11)
        eps = np.finfo(float).eps
        for power in (4, 6, 8):
            p = complex(q**power)
            for _ in range(50):
                a = complex(np.exp(rng.uniform(np.log(0.05), np.log(20.0))
                                   + 2j * np.pi * rng.random()))
                oracle = _decimal_product(a, p)
                got = q_pochhammer(a, p).value
                assert abs(got - oracle) <= 2 * eps * _closed_form_size(a, p) * abs(oracle), \
                    (q, power, a)

    def test_p_zero_is_one_factor(self):
        # p = q^4 underflows to 0 at |q| = 1e-200: (a; 0) = 1 - a
        assert q_pochhammer(3.0, 0.0).value == pytest.approx(-2.0, rel=1e-15)
        assert q_pochhammer(0.2, complex(1e-200) ** 4).value == pytest.approx(0.8, rel=1e-15)
        z = 1.3 - 0.4j
        for m in (1, 2, 3):
            q = 1e-60  # q^4 underflows to 0 in the products, not in q^2 z
            want = z ** (m / 2) * (1 - q**2 / z) / (1 - q**2 * z)
            assert kappa_sl2(m, z, QContext(q)) == pytest.approx(want, rel=1e-15)

    def test_too_many_explicit_factors_raise(self):
        # |a| = 20 at |p| = 0.9999 needs about 44000 explicit factors, |a| = 1e30
        # about 700000, more than _MAX_TERMS
        p = 0.9999
        with pytest.raises(TruncationError, match="Pochhammer factor needs more than 65536"):
            q_pochhammer(1e30, p)
        errors = [None, None]
        ratios = scalars._poch_ratio([(20.0, 1e30), (20.0, 20.0)], 1, p, "kappa denominator",
                                     errors)
        assert str(errors[0]) == "kappa denominator needs more than 65536 explicit factors"
        assert errors[1] is None and np.isnan(ratios[0]) and ratios[1] == 1.0

    def test_vanishing_factor_at_k3_is_a_pole(self, ctx):
        p = complex(ctx.q) ** 4
        errors = [None]
        scalars._poch_ratio([(p**-3,)], 0, p, "Pochhammer factor", errors)
        assert isinstance(errors[0], PoleError) and "closest" in str(errors[0])

    def test_arguments_that_are_not_finite_are_an_error(self):
        errors = [None, None, None]
        rows = [(1.0, np.inf), (complex(np.nan, 0.0), 0.5), (0.5, 0.3)]
        ratios = scalars._poch_ratio(rows, 1, 0.5, "kappa denominator", errors)
        assert [str(e) for e in errors[:2]] == ["kappa denominator argument is not finite",
                                                "Pochhammer factor argument is not finite"]
        assert errors[2] is None and np.isnan(ratios[:2]).all()

    def test_a_ratio_out_of_range_is_an_error(self):
        # (-1e300; 1/2) is about exp(1e5): finite logs, a ratio no float holds;
        # a numerator factor that is exactly 0 makes an exact 0
        with pytest.raises(ScalarDomainError, match="Pochhammer ratio is out of range"):
            q_pochhammer(-1e300, 0.5)
        assert q_pochhammer(4.0, 0.5).value == 0.0

    @pytest.mark.parametrize("q", [0.999, 0.9999])
    def test_many_factors_are_formed_in_blocks(self, q):
        # at q = 0.9999 an argument of about 1e3 takes some 20000 explicit
        # factors, in blocks of _BLOCK, so memory stays that of a block; their
        # logs sum to about 1e5 there, so kappa keeps about 1e-11
        zs = np.array([1e-3, 0.5 + 0.5j, 2.0])
        tracemalloc.start()
        try:
            got = kappa_sl2(2, zs, QContext(q))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = [kappa_sl2_even_rational(1, z, QContext(q)) for z in zs]
        assert np.abs(got / want - 1).max() < 1e-9
        assert peak < 8 * 16 * 4 * len(zs) * scalars._BLOCK, peak

    def test_products_that_underflow_meet_as_logs(self):
        # q = 0.999: kappa's products, multiplied out, underflow (0/0), and
        # their ratio from their logs is finite and keeps kappa(z) kappa(1/z) = 1
        ctx = QContext(0.999)
        with np.errstate(all="raise"):
            values = kappa_sl2(1, [1.3, 1 / 1.3], ctx)
        assert np.isfinite(values).all() and abs(values[0] * values[1] - 1.0) < 1e-12


def _log_product(a, p) -> complex:
    """log (a; p)_inf as the sum of the logs of its factors, until they fall
    below 1e-20; -inf for a factor that is 0."""
    total, pk = 0j, 1.0 + 0.0j
    while abs(a * pk) > 1e-20:
        if a * pk == 1.0:
            return complex(-math.inf, 0.0)
        total += cmath.log(1.0 - a * pk)
        pk *= p
    return total


def _separate_products_error(nums, dens, p, what):
    """(type, message) of the first error when each product is taken alone,
    numerators first: an argument that is not finite, more than 65536
    explicit factors (those with |a p^k| > 1/4), or, for a denominator, an
    explicit factor closer to 0 than 1e-9; then a ratio whose log is out of
    the floats' range, unless a numerator factor is 0.  None if it passes.  A pole's message reads
    its closest factor as `{closest}`, since the oracle's powers of p round
    apart from the package's."""
    for i, a in enumerate(nums + dens):
        name = what if i >= len(nums) else "Pochhammer factor"
        if not cmath.isfinite(a):
            return ScalarDomainError, f"{name} argument is not finite"
        pk, k, closest = 1.0 + 0.0j, 0, math.inf
        while abs(a * pk) > 0.25:
            if k == 65536:
                return TruncationError, f"{name} needs more than 65536 explicit factors"
            closest = min(closest, abs(1.0 - a * pk))
            pk, k = pk * p, k + 1
        if i >= len(nums) and closest < 1e-9:
            return PoleError, f"{what} has a vanishing factor (closest |1-a p^k| = {{closest}})"
    total = sum(map(lambda a: _log_product(a, p), nums)) - sum(
        map(lambda a: _log_product(a, p), dens))
    if not abs(total.real) <= 708 and total.real != -math.inf:  # a 0 factor: the ratio is 0
        return (ScalarDomainError,
                "Pochhammer ratio is out of range: exp of its log over- or underflows")
    return None


def _error_of(exc) -> tuple:
    """(type, message) of an error, a pole's closest factor read as `{closest}`."""
    return type(exc), re.sub(r"= [^)]*\)$", "= {closest})", str(exc))


class TestOneScanPerScalar:
    @pytest.mark.parametrize("q", [0.7, 0.6 + 0.09j, 0.5 + 0.5j, 0.95, 0.3, 0.3 + 0.6j])
    def test_matches_separate_pochhammer_products(self, q):
        # the ratio of one call against each product taken alone by
        # q_pochhammer: both read the same log of each product, then round its
        # exp apart, by about eps times its |log| (measured at most 2.3 eps
        # times 1 + the sum of them, at q = 0.3)
        ctx, qc = QContext(q), complex(q)
        p = qc**4
        rng = np.random.default_rng(21)
        eps = np.finfo(float).eps

        def P(a):
            return q_pochhammer(a, p).value
        for m in (1, 2, 3, 4):
            for _ in range(8):
                z = (0.5 + 1.5 * rng.random()) * np.exp(2j * np.pi * rng.random())
                kappa_args = (qc ** (2 * m + 2) * z, qc**2 / z, qc ** (2 * m + 2) / z, qc**2 * z)
                rho0_args = (qc**2 * z, qc**2 * z, qc ** (2 * m + 2) * z, qc ** (-2 * m + 2) * z)
                kappa = z ** (m / 2.0) * (P(kappa_args[0]) * P(kappa_args[1])) / \
                    (P(kappa_args[2]) * P(kappa_args[3]))
                rho0 = qc ** (-m * m / 2.0) * P(rho0_args[0]) ** 2 / \
                    (P(rho0_args[2]) * P(rho0_args[3]))
                for got, want, args in ((kappa_sl2(m, z, ctx), kappa, kappa_args),
                                        (rho0_sl2(m, z, ctx), rho0, rho0_args)):
                    size = 1.0 + sum(abs(cmath.log(P(a))) for a in args)
                    assert abs(got - want) <= 4 * eps * size * abs(want), (m, z)

    @pytest.mark.parametrize("q", [0.7, 0.6 + 0.09j, 0.95])
    def test_errors_name_the_first_failing_product(self, q):
        # same type, product and message as taking each product alone; the
        # poles of each m's denominators and arguments of about 1e9 among them
        qc = complex(q)
        for m in (1, 2, 4):
            for z in (0.43 - 0.2j, 1.7 + 0.4j, 1e-9, 1e-3 + 1e-3j, 1e3, *_poles(m, qc)):
                _assert_separate_products_error(m, z, qc, QContext(q))

    def test_a_denominator_fails_first(self):
        # at z = q^-2 only the kappa denominator (q^2 z; q^4) vanishes; at z = 1
        # the rho0 denominator (z; q^4) of m = 1 does
        ctx, q = QContext(0.7), complex(0.7)
        with pytest.raises(PoleError, match="kappa denominator has a vanishing factor"):
            kappa_sl2(4, q**-2, ctx)
        _assert_separate_products_error(4, q**-2, q, ctx)
        with pytest.raises(PoleError, match="rho0 denominator has a vanishing factor"):
            rho0_sl2(1, 1.0, ctx)
        _assert_separate_products_error(1, 1.0, q, ctx)


def _poles(m, q) -> tuple:
    """A z at a vanishing factor of each denominator of kappa_sl2 and rho0_sl2
    at spin m: (q^2 z; q^4), (q^(2m+2) / z; q^4), (q^(2m+2) z; q^4) and
    (q^(2-2m) z; q^4), each at its factor k = 1."""
    p = q**4
    return (q**-2 / p, q ** (2 * m + 2) * p, q ** (-2 * m - 2) / p, q ** (2 * m - 2) / p)


def _products(m, z, q) -> list:
    """(function, numerators, denominators, name of a denominator) of kappa_sl2
    and rho0_sl2 at spin m and z."""
    return [(kappa_sl2, (q ** (2 * m + 2) * z, q**2 / z), (q ** (2 * m + 2) / z, q**2 * z),
             "kappa denominator"),
            (rho0_sl2, (q**2 * z, q**2 * z), (q ** (2 * m + 2) * z, q ** (-2 * m + 2) * z),
             "rho0 denominator")]


def _assert_separate_products_error(m, z, qc, ctx):
    for fn, nums, dens, what in _products(m, z, qc):
        want = _separate_products_error(nums, dens, qc**4, what)
        if want is None:
            fn(m, z, ctx)
            continue
        with pytest.raises(want[0]) as exc:
            fn(m, z, ctx)
        assert _error_of(exc.value) == want, (fn.__name__, m, z)


def _loop_ratio(nums, dens, p):
    """One row's ratio factor by factor, in Python's complex arithmetic,
    stopping where top |p^k| < 2^-54 (1 - |p|), top the row's largest
    |argument|.  Returns the ratio and K, the factors of each product."""
    args = (*nums, *dens)
    top = max(map(abs, args))
    values = [1.0 + 0.0j] * len(args)
    pk, k = 1.0 + 0.0j, 0
    while top * abs(pk) >= 2.0**-54 * (1.0 - abs(p)):
        for i, a in enumerate(args):
            values[i] *= 1.0 - a * pk
        pk, k = pk * p, k + 1
    return math.prod(values[:len(nums)]) / math.prod(values[len(nums):]), k


def _loop_scalars(m, z, q):
    """kappa_sl2, rho0_sl2, kappa_sllpo and rho0_sllpo (l = m) and both sl2
    difference patterns at one z, each product from _loop_ratio; per name the
    value and K, the factors of the longest product that went into it."""
    p, Q = q**4, q ** (2 * (m + 1))

    def kappa_products(x):
        return _loop_ratio((q ** (2 * m + 2) * x, q**2 / x), (q ** (2 * m + 2) / x, q**2 * x), p)

    def rho0(x):
        ratio, k = _loop_ratio((q**2 * x, q**2 * x), (q ** (2 * m + 2) * x,
                                                      q ** (-2 * m + 2) * x), p)
        return q ** (-m * m / 2.0) * ratio, k
    zs = q ** (-2) * z
    (r0, kr0), (r1, kr1), (k1, kk1), (k0, kk0) = rho0(zs), rho0(z), kappa_products(z), \
        kappa_products(zs)
    k1, k0 = z ** (m / 2.0) * k1, z ** (m / 2.0) * q ** (-m) * k0
    kappa_ll, k_ll = _loop_ratio((q**2 / z, Q * z), (q**2 * z, Q / z), Q)
    rho0_ll, r_ll = _loop_ratio((q**2 * z, q ** (2 * m) * z), (z, Q * z), Q)
    longest = max(kr0, kr1, kk1, kk0)
    return {"kappa_sl2": (k1, kk1), "rho0_sl2": (r1, kr1),
            "kappa_sllpo": (z ** (m / (m + 1)) * kappa_ll, k_ll),
            "rho0_sllpo": (q ** (-m / (m + 1)) * rho0_ll, r_ll),
            "all_inverted": (1.0 / (r0 * r1 * k0 * k1), longest),
            "mixed": ((r1 / r0) * (k1 / k0), longest)}


def _bits(c):
    return float(c.real).hex(), float(c.imag).hex()


def _batch_scalars(m, zs, ctx):
    return {"kappa_sl2": kappa_sl2(m, zs, ctx), "rho0_sl2": rho0_sl2(m, zs, ctx),
            "kappa_sllpo": kappa_sllpo(m, zs, ctx), "rho0_sllpo": rho0_sllpo(m, zs, ctx),
            **difference_patterns_sl2(m, zs, ctx)}


def _sl2_scalars(m, zs, ctx):
    return {"kappa_sl2": kappa_sl2(m, zs, ctx), "rho0_sl2": rho0_sl2(m, zs, ctx),
            **difference_patterns_sl2(m, zs, ctx)}


def _raised(call):
    """(type, message) of the error that call() raises, or None."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - any error is compared
        return type(exc), str(exc)
    return None


class TestBatchedScan:
    """One scan for all rows of a call against each row scanned alone."""

    # q^4 is real at 0.5 + 0.5i; at 0.6 + 0.09i both parts of p^k are nonzero
    @pytest.mark.parametrize("q", [0.7, 0.3, 0.95, 0.5 + 0.5j, 0.6 + 0.09j])
    @pytest.mark.parametrize("n_rows", [1, 5, 37])
    def test_every_row_has_the_bits_of_a_one_z_call(self, q, n_rows):
        # a result does not depend on the rows it was scanned with
        ctx = QContext(q)
        rng = np.random.default_rng([23, n_rows])
        for m in (1, 2, 3, 4):
            zs = (0.1 + 1.9 * rng.random(n_rows)) * np.exp(2j * np.pi * rng.random(n_rows))
            got = _batch_scalars(m, zs, ctx)
            for r, z in enumerate(zs.tolist()):
                for name, value in _batch_scalars(m, z, ctx).items():
                    assert _bits(got[name][r]) == _bits(value), (name, m, z)
        # rows of every m in one call, m one per row
        ms = rng.integers(1, 5, n_rows)
        zs = (0.1 + 1.9 * rng.random(n_rows)) * np.exp(2j * np.pi * rng.random(n_rows))
        got = _sl2_scalars(ms, zs, ctx)
        for r, (m, z) in enumerate(zip(ms.tolist(), zs.tolist())):
            for name, value in _sl2_scalars(m, z, ctx).items():
                assert _bits(got[name][r]) == _bits(value), (name, m, z)

    @pytest.mark.parametrize("draw", [3, 8, 12, 15, 18, 20])
    @pytest.mark.parametrize("q", [0.7, 0.6 + 0.09j, 0.95, 0.99, 0.99j])
    def test_rows_of_several_m_fail_as_one_m_calls_in_turn(self, q, draw):
        # a row's error is that of its one-m call; a call without an error
        # list raises as the calls of each m would, m in order of first
        # appearance, and the difference patterns as theirs would; some rows
        # sit at a pole of their own m's denominators or of another m's, and
        # each draw places the m's, the arguments and the poles anew
        ctx = QContext(q)
        rng = np.random.default_rng([31, draw])
        for _ in range(4):
            ms = rng.permutation(np.repeat([3, 1, 4, 2], 3))
            zs = (0.1 + 1.9 * rng.random(12)) * np.exp(2j * np.pi * rng.random(12))
            for r in rng.choice(12, 4, replace=False):
                zs[r] = rng.choice(_poles(int(rng.integers(1, 5)), complex(q)))
            for fn in (kappa_sl2, rho0_sl2, difference_patterns_sl2):
                want = None
                for m in dict.fromkeys(ms.tolist()):
                    want = want or _raised(lambda: fn(m, zs[ms == m], ctx))
                assert _raised(lambda: fn(ms, zs, ctx)) == want, fn.__name__
            for fn in (kappa_sl2, rho0_sl2):
                errors = [None] * len(zs)
                fn(ms, zs, ctx, errors)
                assert [None if e is None else (type(e), str(e)) for e in errors] == [
                    _raised(lambda: fn(m, z, ctx)) for m, z in zip(ms.tolist(), zs.tolist())]

    def test_an_arithmetic_error_of_one_m_goes_to_its_rows(self):
        # at q = 1e-60, q^(2 - 2m) z overflows for m = 3 only: the rows of m = 3
        # get the error that the m = 3 call raises, the others a value
        ctx = QContext(1e-60)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            want = _raised(lambda: rho0_sl2(3, [1e119], ctx))
            errors = [None] * 3
            values = rho0_sl2([1, 3, 2], [1e119, 1e119, 1e119], ctx, errors)
            assert want is not None and want[0] is FloatingPointError
            assert (type(errors[1]), str(errors[1])) == want and np.isnan(values[1])
            assert errors[0] is None and errors[2] is None
            assert errors[1].__traceback__ is None
            assert _raised(lambda: rho0_sl2([1, 3, 2], [1e119] * 3, ctx)) == want

    @pytest.mark.parametrize("q", [0.7, 0.3, 0.95, 0.5 + 0.5j, 0.6 + 0.09j])
    @pytest.mark.parametrize("n_rows", [1, 5, 37])
    def test_every_row_agrees_with_the_loop(self, q, n_rows):
        # each row within 4 K eps of the per-row loop in Python's complex
        # arithmetic, K the factors of its longest product; measured worst:
        # 2.6 K eps (mixed, q = 0.3, K = 10), and the largest difference
        # 53 eps (q = 0.95, K about 200)
        ctx, qc = QContext(q), complex(q)
        eps = np.finfo(float).eps
        rng = np.random.default_rng([23, n_rows])
        for m in (1, 2, 3, 4):
            zs = (0.1 + 1.9 * rng.random(n_rows)) * np.exp(2j * np.pi * rng.random(n_rows))
            got = _batch_scalars(m, zs, ctx)
            for r, z in enumerate(zs.tolist()):
                for name, (want, K) in _loop_scalars(m, z, qc).items():
                    assert abs(got[name][r] - want) <= 4 * K * eps * abs(want), (name, m, z)

    @pytest.mark.parametrize("q", [0.7, 0.6 + 0.09j, 0.95, 0.99, 0.99j])
    def test_every_row_has_the_error_of_its_own_products(self, q):
        # rows that pass and rows at a pole in one call; kappa_sl2 records
        # each row's error in its list, and a call without a list raises the
        # error of its first failing row
        ctx, qc = QContext(q), complex(q)
        for m in (1, 2, 4):
            zs = [1.7 + 0.4j, 0.43 - 0.2j, *_poles(m, qc), 1e-9, 1e3, 1.1 - 0.3j]
            for i, (fn, _, _, what) in enumerate(_products(m, 1.0, qc)):
                wants = [_separate_products_error(*_products(m, z, qc)[i][1:3], qc**4, what)
                         for z in zs]
                assert any(wants)
                if fn is kappa_sl2:
                    errors = [None] * len(zs)
                    values = fn(m, zs, ctx, errors)
                    for z, value, err, want in zip(zs, values, errors, wants):
                        if want is None:  # and the value of the row alone
                            assert err is None and _bits(value) == _bits(fn(m, z, ctx))
                        else:
                            assert _error_of(err) == want and np.isnan(value)
                first = next(w for w in wants if w is not None)
                with pytest.raises(first[0]) as exc:
                    fn(m, zs, ctx)
                assert _error_of(exc.value) == first

    def test_an_error_list_keeps_each_rows_first_error(self):
        # a later call adds an error only to rows that have none yet
        ctx = QContext(0.7)
        errors = [None, ValueError("earlier"), None]
        kappa_sl2(1, [0.5, 0.0, 0.0], ctx, errors)
        assert errors[0] is None and str(errors[1]) == "earlier"
        assert str(errors[2]) == "kappa requires z != 0"


class TestFSeries:
    def test_zero_is_zero(self, ctx):
        assert abs(f_series(2, 0.0, ctx).value) < 1e-300

    def test_m1_is_minus_log(self, ctx):
        # [1]_{q^n} = 1 termwise, so F_1(z) = -log(1 - z)
        for z in (0.3, 0.5 - 0.2j):
            assert f_series(1, z, ctx).value == pytest.approx(-np.log(1 - z), abs=1e-12)

    def test_pochhammer_ratio_identity_l1(self, ctx):
        # exp(F_2(q^-1 z) - F_2(q z)) equals the Pochhammer form of rho0 at l=1
        rng = np.random.default_rng(5)
        q = complex(ctx.q)
        for _ in range(5):
            z = z_sample(rng) * abs(q)
            lhs = np.exp(f_series(2, z / q, ctx).value - f_series(2, q * z, ctx).value)
            rhs = rho0_sllpo(1, z, ctx) / q ** (-0.5)
            assert lhs == pytest.approx(rhs, rel=1e-11)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_finite_for_small_q(self, m):
        # negative powers of q^n overflowed here for large n
        for z in (0.5, -0.2 + 0.3j):
            got = f_series(m, z, QContext(0.3))
            assert np.isfinite(got.value) and np.isfinite(got.tail_bound)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_q_number_form(self, ctx, m):
        q = complex(ctx.q)
        for z in (0.5, -0.2 + 0.3j):
            want = 0.0
            for n in range(1, 257):
                qn = q**n
                want += z**n / (n * (qn**m - qn ** (-m)) / (qn - 1.0 / qn))
            assert f_series(m, z, ctx).value == pytest.approx(want, rel=1e-13)

    def test_divergence_guard(self, ctx):
        with pytest.raises(DivergentBaseError):
            f_series(2, 1.2, ctx)
        # the first divergent row names the call's error
        with pytest.raises(DivergentBaseError, match=r"got 1\.2$"):
            f_series(2, [0.5, 1.2, 3.0], ctx)

    @pytest.mark.parametrize("q", [0.7, 0.3, 0.95, 0.5 + 0.5j])
    def test_matches_the_exactly_summed_256_term_loop(self, q):
        # the loop's own running sum is up to about 7 eps off F_1(z) = -log(1 - z)
        # at |z| = 0.8, so the oracle sums its 256 terms exactly
        ctx, qc = QContext(q), complex(q)
        rng = np.random.default_rng(31)
        eps = np.finfo(float).eps
        for m in (1, 2, 3, 4):
            zs = 0.8 * np.sqrt(rng.random(25)) * np.exp(2j * np.pi * rng.random(25))
            for z, value in zip(zs.tolist(), f_series(m, zs, ctx).value):
                terms, zn = [], 1.0 + 0.0j
                for n in range(1, 257):
                    zn *= z
                    terms.append(zn * qc ** (n * (m - 1)) * (1.0 - qc ** (2 * n))
                                 / (n * (1.0 - qc ** (2 * n * m))))
                want = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
                assert abs(value - want) <= 4 * eps * abs(want), (m, z)

    def test_long_series_are_formed_in_blocks(self):
        # |zeta| = 0.999 takes about 37000 terms, _BLOCK of them at a time, so
        # memory stays that of a few blocks of every row
        rng = np.random.default_rng(37)
        zs = 0.999 * np.exp(2j * np.pi * rng.random(12))
        tracemalloc.start()
        try:
            got = f_series(1, zs, QContext(0.95))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.abs(got.value + np.log(1 - zs)).max() < 1e-12  # F_1(z) = -log(1 - z)
        assert peak < 8 * 16 * len(zs) * scalars._BLOCK, peak

    def test_too_many_terms_raise(self):
        # |zeta| = 0.99999 needs about 3.7e6 terms, more than _MAX_TERMS
        with pytest.raises(TruncationError, match=r"F_1 needs more than 65536 terms at "
                                                  r"\|zeta\| = 0\.99999$"):
            f_series(1, [0.5, 0.99999], QContext(0.95))


class TestRho0Sl2:
    def test_z_zero(self, ctx_complex):
        q = complex(ctx_complex.q)
        for m in (1, 2, 3):
            assert rho0_sl2(m, 0.0, ctx_complex) == pytest.approx(q ** (-m * m / 2))

    def test_ratio_cross_check(self, ctx_complex):
        rng = np.random.default_rng(6)
        q = complex(ctx_complex.q)
        for m in (1, 2, 3):
            for _ in range(4):
                z = z_sample(rng)
                two_calls = 1.0 / (rho0_sl2(m, z / q**2, ctx_complex) * rho0_sl2(m, z, ctx_complex))
                assert rho0_ratio_sl2(m, z, ctx_complex) == pytest.approx(two_calls, rel=1e-12)

    def test_pole_detected(self, ctx):
        # at m=2, z=q^2 the factor (1 - q^-2 z) of the denominator vanishes
        q = complex(ctx.q)
        with pytest.raises(PoleError):
            rho0_sl2(2, q**2, ctx)


class TestRho0RatioSl2:
    def test_m1_closed_form(self, ctx_complex):
        q = complex(ctx_complex.q)
        z = 0.4 + 0.2j
        expect = q * (1 - z / q**2) / (1 - z)
        assert rho0_ratio_sl2(1, z, ctx_complex) == pytest.approx(expect)

    def test_z_zero(self, ctx):
        q = complex(ctx.q)
        for m in (1, 2, 3):
            assert rho0_ratio_sl2(m, 0.0, ctx) == pytest.approx(q ** (m * m))


class TestKappaSl2:
    def test_at_one(self, ctx_complex):
        for m in (1, 2, 3, 4):
            assert kappa_sl2(m, 1.0, ctx_complex) == pytest.approx(1.0, abs=1e-12)

    def test_inversion_identity(self, ctx_complex):
        rng = np.random.default_rng(7)
        for m in (1, 2, 3, 4):
            for _ in range(4):
                z = z_sample(rng)
                product = kappa_sl2(m, z, ctx_complex) * kappa_sl2(m, 1.0 / z, ctx_complex)
                assert product == pytest.approx(1.0, abs=1e-11)

    def test_even_m_rational_form(self, ctx_complex):
        rng = np.random.default_rng(8)
        for k in (1, 2):
            for _ in range(4):
                z = z_sample(rng)
                assert kappa_sl2_even_rational(k, z, ctx_complex) == \
                    pytest.approx(kappa_sl2(2 * k, z, ctx_complex), rel=1e-11)

    def test_m2_closed_form(self, ctx):
        # z (1 - q^2/z) / (1 - q^2 z): the rational form at k=1
        q = complex(ctx.q)
        z = 0.37 - 0.22j
        expect = z * (1 - q**2 / z) / (1 - q**2 * z)
        assert kappa_sl2(2, z, ctx) == pytest.approx(expect, rel=1e-12)

    def test_products_of_huge_arguments_are_finite(self):
        # at z = 1e-9 and q = 0.95 the argument q^2/z is about 9e8: its products
        # take about 110 explicit factors, and kappa(z) kappa(1/z) = 1 holds
        ctx = QContext(0.95)
        values = kappa_sl2(1, [1e-9, 1e9], ctx)
        assert np.isfinite(values).all() and abs(values[0] * values[1] - 1.0) < 1e-12

    def test_a_failing_row_gets_its_own_error(self):
        ctx = QContext(0.95)
        errors = [None, None, None]
        zs = np.array([0.8, 0.95**-2, 1.2 - 0.1j])  # (q^2 z; q^4) vanishes at z = q^-2
        values = kappa_sl2(1, zs, ctx, errors)
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], PoleError) and "kappa denominator" in str(errors[1])
        assert np.isnan(values[1]) and np.isfinite(values[[0, 2]]).all()
        for k in (0, 2):  # the bits of a one-row call
            assert values[k] == kappa_sl2(1, zs[k:k + 1], ctx)[0]


def sl2_difference(m, z, ctx):
    """|all-inverted difference pattern - (-1)^m|: the scalar_difference_sl2 residual."""
    return abs(difference_patterns_sl2(m, z, ctx)["all_inverted"] - (-1) ** m)


def sllpo_difference(l, z, ctx):
    """|mixed difference pattern - 1|: the scalar_difference_sllpo residual."""
    return abs(difference_patterns_sllpo(l, z, ctx)["mixed"] - 1)


class TestDifferenceEquationSl2:
    def test_constant_matches_parity(self, ctx_complex):
        rng = np.random.default_rng(9)
        for m in (1, 2, 3):
            for _ in range(6):
                z = z_sample(rng)
                assert sl2_difference(m, z, ctx_complex) < 1e-10

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_difference_constant_across_the_branch_cut(self, m):
        # the shift z -> q^-2 z turns arg z by -2 arg q, past -pi for some z at this q
        ctx = QContext(0.3 + 0.6j)
        rng = np.random.default_rng(18)
        for _ in range(5):
            assert sl2_difference(m, z_sample(rng), ctx) < 1e-10

    def test_constant_independent_of_z(self, ctx):
        rng = np.random.default_rng(10)
        for m in (1, 2):
            vals = [difference_patterns_sl2(m, z_sample(rng), ctx)["all_inverted"]
                    for _ in range(10)]
            vals = np.array(vals)
            assert np.abs(vals - vals.mean()).max() < 1e-10

    def test_pattern_probe(self, ctx):
        # the all-inverted pattern is the one satisfied by the implemented
        # scalars; the mixed pattern is z-dependent for odd m
        rng = np.random.default_rng(11)
        a = difference_patterns_sl2(1, z_sample(rng), ctx)
        b = difference_patterns_sl2(1, z_sample(rng), ctx)
        assert a["all_inverted"] == pytest.approx(b["all_inverted"], abs=1e-11)
        assert abs(a["mixed"] - b["mixed"]) > 1e-3


class TestSllpoFamily:
    def test_ratio_formula_l1(self, ctx):
        # rho0(z / q^4) / rho0(z) at l = 1 is the finite product of the shift
        q = complex(ctx.q)
        rng = np.random.default_rng(12)
        for _ in range(4):
            z = z_sample(rng)
            expect = (1 - z / q**2) ** 2 / ((1 - z) * (1 - z / q**4))
            shifted = rho0_sllpo(1, z / q**4, ctx) / rho0_sllpo(1, z, ctx)
            assert shifted == pytest.approx(expect, rel=1e-10)

    def test_ratio_matches_pochhammer_shift(self, ctx):
        # rho0(q^-eps zeta1|zeta2) / rho0(zeta1|zeta2) is the finite product
        # (1 - q^-2 z)(1 - q^-2l z) / ((1 - z)(1 - q^-2(l+1) z))
        rng = np.random.default_rng(13)
        q = complex(ctx.q)
        for l in (1, 2):
            Q = q ** (2 * (l + 1))
            for _ in range(3):
                z = z_sample(rng)
                shifted = rho0_sllpo(l, z / Q, ctx) / rho0_sllpo(l, z, ctx)
                finite = (1 - z / q**2) * (1 - z / q ** (2 * l)) / ((1 - z) * (1 - z / Q))
                assert shifted == pytest.approx(finite, rel=1e-10)

    def test_kappa_identities(self, ctx):
        rng = np.random.default_rng(14)
        for l in (1, 2, 3):
            assert kappa_sllpo(l, 1.0, ctx) == pytest.approx(1.0, abs=1e-12)
            z = z_sample(rng)
            assert kappa_sllpo(l, z, ctx) * kappa_sllpo(l, 1 / z, ctx) == \
                pytest.approx(1.0, abs=1e-11)

    def test_difference_constant_is_one(self, ctx):
        rng = np.random.default_rng(15)
        for l in (1, 2, 3):
            for _ in range(5):
                assert sllpo_difference(l, z_sample(rng), ctx) < 1e-10

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_difference_constant_across_the_branch_cut(self, l):
        # the shift z -> q^{-2(l+1)} z turns arg z by more than pi at this q
        ctx = QContext(0.5 + 0.5j)
        rng = np.random.default_rng(17)
        for _ in range(5):
            assert sllpo_difference(l, z_sample(rng), ctx) < 1e-10

    def test_difference_spread(self, ctx):
        rng = np.random.default_rng(16)
        for l in (1, 2):
            vals = [difference_patterns_sllpo(l, z_sample(rng), ctx)["mixed"]
                    for _ in range(10)]
            vals = np.array(vals)
            assert np.abs(vals - vals.mean()).max() < 1e-10


class TestContextGuards:
    def test_q_outside_disk(self):
        with pytest.raises(ConfigError):
            QContext(q=1.3)

    def test_q_zero(self):
        with pytest.raises(ConfigError):
            QContext(q=0.0)

    def test_root_of_unity_proxy(self):
        q = 0.9999999999999999 * np.exp(2j * np.pi / 5)
        with pytest.raises(ConfigError):
            QContext(q=q)


class TestDiskEdge:
    @pytest.mark.parametrize("q, tol", [(0.7, 1e-13), (0.5 + 0.5j, 1e-13), (0.95, 1e-13),
                                        (0.98, 1e-13), (0.99, 1e-13), (-0.99, 1e-13),
                                        (0.99j, 1e-13), (0.999, 1e-12)])
    def test_even_kappa_matches_its_rational_form(self, q, tol):
        # kappa_sl2(2k) against the finite product kappa_sl2_even_rational(k) at
        # 30 z each; the gap grows with |log| of the products as |q| nears 1
        ctx, rng = QContext(q), np.random.default_rng(41)
        for k in (1, 2):
            zs = (0.3 + 2.0 * rng.random(30)) * np.exp(2j * np.pi * rng.random(30))
            want = np.array([kappa_sl2_even_rational(k, z, ctx) for z in zs])
            assert np.abs(kappa_sl2(2 * k, zs, ctx) / want - 1.0).max() <= tol, k


class TestPlantedTail:
    """The checks at the q-disk edge can fail: a log series scaled by 1 + 1e-6
    moves kappa and rho0 by about 1e-6 of their series, which at |q| = 0.99
    is far above the tolerances, and the identities that compare them with
    an independent form fail.  kappa(z) kappa(1/z) = 1, and with it
    unitarity, holds under any change of log (a; p) that is a function of a
    alone: the numerator arguments of kappa(1/z) are the denominator
    arguments of kappa(z), so the change cancels."""

    @pytest.mark.parametrize("q", ["0.99", "0,0.99"])
    def test_edge_checks_fail_on_a_planted_tail(self, q, monkeypatch, capsys):
        def run(group):
            code = cli.main(["verify", group, "--q", q, "--m", "2", "--seed", "7"])
            reports = json.loads(capsys.readouterr().out)
            return code, {r["name"] for r in reports if not r["passed"]}
        assert run("scalars") == (0, set()) and run("unitarity") == (0, set())
        tail = scalars._log_tail
        monkeypatch.setattr(scalars, "_log_tail", lambda *args: tail(*args) * (1.0 + 1e-6))
        assert run("scalars") == (1, {"scalar_kappa_even_rational", "scalar_rho0_ratio"})
        assert run("unitarity") == (0, set())
