import cmath
import math
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import z_sample
from qkzkit import scalars
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


class TestQPochhammer:
    def test_zero_argument(self, ctx):
        assert q_pochhammer(0.0, 0.3, ctx).value == pytest.approx(1.0)

    def test_unit_argument_vanishes(self, ctx):
        assert abs(q_pochhammer(1.0, 0.3, ctx).value) < 1e-15

    def test_against_direct_product(self, ctx):
        # brute-force 64-term partial product as the independent oracle
        a = p = 0.5
        direct = 1.0
        for k in range(64):
            direct *= 1.0 - a * p**k
        got = q_pochhammer(a, p, ctx)
        assert got.value == pytest.approx(direct, abs=1e-14)
        assert got.tail_bound < 1e-15

    def test_divergent_base(self, ctx):
        with pytest.raises(DivergentBaseError):
            q_pochhammer(0.5, 1.1, ctx)

    @pytest.mark.parametrize("q", [0.7, 0.6 + 0.09j, 0.5 + 0.5j, 0.95, 0.3, 0.3 + 0.6j])
    def test_stopped_scan_matches_the_full_product(self, q):
        # the scan stops at working precision (about 190 factors at q = 0.95,
        # p = q^4); the oracle multiplies all 256 factors
        ctx = QContext(q)
        rng = np.random.default_rng(11)
        for power in (4, 6, 8):
            p = q**power
            for _ in range(50):
                a = np.exp(rng.uniform(np.log(0.05), np.log(20.0)) + 2j * np.pi * rng.random())
                oracle, pk = 1.0 + 0.0j, 1.0 + 0.0j
                for _ in range(256):
                    oracle *= 1.0 - a * pk
                    pk *= p
                got = q_pochhammer(a, p, ctx).value
                assert abs(got - oracle) <= 2 * np.finfo(float).eps * abs(oracle), (q, power, a)

    def test_short_truncation_still_raises(self):
        # eight factors leave the tail bound 2 |a| |p|^8 / (1 - |p|)
        ctx = QContext(0.7, trunc_terms=8)
        a, p = 0.49, 0.7**4
        tail = 2.0 * a * p**8 / (1.0 - p)
        errors = [None]
        ratios, _ = scalars._poch_ratio([(a,)], 0, p, ctx, "kappa denominator", errors)
        assert isinstance(errors[0], TruncationError) and np.isnan(ratios[0])
        assert str(errors[0]) == f"tail bound {tail:.3g} exceeds 1e-10 for kappa denominator"

    def test_vanishing_factor_at_k3_is_a_pole(self, ctx):
        p = complex(ctx.q) ** 4
        errors = [None]
        scalars._poch_ratio([(p**-3,)], 0, p, ctx, "Pochhammer factor", errors)
        assert isinstance(errors[0], PoleError) and "closest" in str(errors[0])

    @pytest.mark.parametrize("q", [0.7, 0.95])
    def test_large_truncation_stops_at_working_precision(self, q):
        # trunc_terms is only an upper limit: allowed 10^7 factors, kappa
        # stops where it stops when allowed 256, with the same bits, the
        # same builtin calls and no memory that grows with trunc_terms
        z = 0.43 - 0.2j
        small, large = QContext(q, trunc_terms=256), QContext(q, trunc_terms=10**7)
        want, calls = _builtin_calls(lambda: kappa_sl2(2, z, small))
        tracemalloc.start()
        try:
            got, calls_large = _builtin_calls(lambda: kappa_sl2(2, z, large), limit=calls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want and calls_large == calls
        assert peak < 100_000, peak


    def test_products_that_underflow_are_an_error(self):
        # q = 0.999 with 8000 factors: the four kappa products are finite and
        # underflow, so their ratio reads 0/0; the row gets an error and NaN
        ctx = QContext(0.999, trunc_terms=8000)
        with np.errstate(all="raise"):
            with pytest.raises(ScalarDomainError, match="Pochhammer ratio is not finite"):
                kappa_sl2(1, 1.3, ctx)
            errors = [None, None]
            values = kappa_sl2(1, [1.3, 1.3], ctx, errors)
        assert all(type(e) is ScalarDomainError for e in errors) and np.isnan(values).all()


def _separate_scans_error(nums, dens, p, trunc, what):
    """(type, message) of the first error when each product is scanned alone,
    numerators first, each stopping at its own working precision; None if
    every product passes its tail bound and pole guard and is finite.  An
    overflow names the factors of the row, those of its largest argument."""
    scans = []
    for a in nums + dens:
        pk, head, closest, value = 1.0 + 0.0j, abs(a), float("inf"), 1.0 + 0.0j
        for k in range(trunc + 1):  # k: the factors taken
            if k == trunc or head < 2.0**-54 * (1.0 - abs(p)):
                break
            closest = min(closest, abs(1.0 - a * pk))
            value *= 1.0 - a * pk
            pk *= p
            head = abs(a) * abs(pk)
        scans.append((head, closest, value, k))
    for i, (head, closest, value, _) in enumerate(scans):
        name = what if i >= len(nums) else "Pochhammer factor"
        if head >= 0.5:
            return TruncationError, "trunc_terms too small for this Pochhammer argument"
        tail = 2.0 * head / (1.0 - abs(p))
        if tail > 1e-10:
            return TruncationError, f"tail bound {tail:.3g} exceeds 1e-10 for {name}"
        if i >= len(nums) and closest < 1e-9:
            return PoleError, f"{what} has a vanishing factor (closest |1-a p^k| = {closest:.3g})"
        if not cmath.isfinite(value):
            return (ScalarDomainError, f"{name} product overflows "
                    f"(not finite after {max(s[3] for s in scans)} factors)")
    return None


class TestOneScanPerScalar:
    @pytest.mark.parametrize("q", [0.7, 0.6 + 0.09j, 0.5 + 0.5j, 0.95, 0.3, 0.3 + 0.6j])
    def test_matches_separate_pochhammer_products(self, q):
        # the one shared scan against each product scanned alone by q_pochhammer
        ctx, qc = QContext(q), complex(q)
        p = qc**4
        rng = np.random.default_rng(21)

        def P(a):
            return q_pochhammer(a, p, ctx).value
        for m in (1, 2, 3, 4):
            for _ in range(8):
                z = (0.5 + 1.5 * rng.random()) * np.exp(2j * np.pi * rng.random())
                kappa = z ** (m / 2.0) * (P(qc ** (2 * m + 2) * z) * P(qc**2 / z)) / \
                    (P(qc ** (2 * m + 2) / z) * P(qc**2 * z))
                rho0 = qc ** (-m * m / 2.0) * P(qc**2 * z) ** 2 / \
                    (P(qc ** (2 * m + 2) * z) * P(qc ** (-2 * m + 2) * z))
                for got, want in ((kappa_sl2(m, z, ctx), kappa), (rho0_sl2(m, z, ctx), rho0)):
                    assert abs(got - want) <= 4 * np.finfo(float).eps * abs(want), (m, z)

    @pytest.mark.parametrize("trunc", [8, 1])
    @pytest.mark.parametrize("q", [0.7, 0.6 + 0.09j, 0.95])
    def test_errors_name_the_first_failing_product(self, trunc, q):
        # same type, product and printed tail as scanning each product alone;
        # a tiny z makes the second numerator fail first
        ctx, qc = QContext(q, trunc_terms=trunc), complex(q)
        for m in (1, 2, 4):
            for z in (0.43 - 0.2j, 1.7 + 0.4j, 1e-9, 1e-3 + 1e-3j, 1e3):
                _assert_separate_scans_error(m, z, qc, ctx)

    def test_a_denominator_fails_first(self):
        # at 20 factors and z = 1e3 only the kappa denominator (q^2 z; q^4) is
        # unresolved; at z = 1 the rho0 denominator (z; q^4) of m = 1 vanishes
        ctx = QContext(0.7, trunc_terms=20)
        with pytest.raises(TruncationError, match="for kappa denominator"):
            kappa_sl2(4, 1e3, ctx)
        _assert_separate_scans_error(4, 1e3, complex(0.7), ctx)
        with pytest.raises(PoleError, match="rho0 denominator has a vanishing factor"):
            rho0_sl2(1, 1.0, QContext(0.7))
        _assert_separate_scans_error(1, 1.0, complex(0.7), QContext(0.7))


def _assert_separate_scans_error(m, z, qc, ctx):
    p = qc**4
    cases = [(kappa_sl2, (qc ** (2 * m + 2) * z, qc**2 / z),
              (qc ** (2 * m + 2) / z, qc**2 * z), "kappa denominator"),
             (rho0_sl2, (qc**2 * z, qc**2 * z),
              (qc ** (2 * m + 2) * z, qc ** (-2 * m + 2) * z), "rho0 denominator")]
    for fn, nums, dens, what in cases:
        want = _separate_scans_error(nums, dens, p, ctx.trunc_terms, what)
        if want is None:
            fn(m, z, ctx)
            continue
        with pytest.raises(want[0]) as exc:
            fn(m, z, ctx)
        assert str(exc.value) == want[1], (fn.__name__, m, z)


def _builtin_calls(fn, limit=None):
    """fn() and the number of builtin calls it made; past `limit` calls it is
    stopped with an AssertionError."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "c_call":
            count += 1
            assert limit is None or count <= limit, f"more than {limit} builtin calls"
    sys.setprofile(hook)
    try:
        value = fn()
    finally:
        sys.setprofile(None)
    return value, count


def _loop_ratio(nums, dens, p, trunc):
    """The scan of one row factor by factor, with the batched scan's stop: the
    per-row loop that it replaced, in Python's complex arithmetic.  Returns
    the ratio and the number of factors of each product."""
    args = (*nums, *dens)
    top = max(map(abs, args))
    values = [1.0 + 0.0j] * len(args)
    pk, k = 1.0 + 0.0j, 0
    for k in range(trunc + 1):
        if k == trunc or top * abs(pk) < 2.0**-54 * (1.0 - abs(p)):
            break
        for i, a in enumerate(args):
            values[i] *= 1.0 - a * pk
        pk *= p
    return math.prod(values[:len(nums)]) / math.prod(values[len(nums):]), k


def _loop_scalars(m, z, q, trunc):
    """kappa_sl2, rho0_sl2, kappa_sllpo and rho0_sllpo (l = m) and both sl2
    difference patterns at one z, each product from _loop_ratio; per name the
    value and K, the factors of the longest product that went into it."""
    p, Q = q**4, q ** (2 * (m + 1))

    def kappa_products(x):
        return _loop_ratio((q ** (2 * m + 2) * x, q**2 / x), (q ** (2 * m + 2) / x, q**2 * x),
                           p, trunc)

    def rho0(x):
        ratio, k = _loop_ratio((q**2 * x, q**2 * x), (q ** (2 * m + 2) * x,
                                                      q ** (-2 * m + 2) * x), p, trunc)
        return q ** (-m * m / 2.0) * ratio, k
    zs = q ** (-2) * z
    (r0, kr0), (r1, kr1), (k1, kk1), (k0, kk0) = rho0(zs), rho0(z), kappa_products(z), \
        kappa_products(zs)
    k1, k0 = z ** (m / 2.0) * k1, z ** (m / 2.0) * q ** (-m) * k0
    kappa_ll, k_ll = _loop_ratio((q**2 / z, Q * z), (q**2 * z, Q / z), Q, trunc)
    rho0_ll, r_ll = _loop_ratio((q**2 * z, q ** (2 * m) * z), (z, Q * z), Q, trunc)
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

    @pytest.mark.parametrize("trunc", [3, 8, 12, 15, 18, 20])
    @pytest.mark.parametrize("q", [0.7, 0.6 + 0.09j, 0.95])
    def test_rows_of_several_m_fail_as_one_m_calls_in_turn(self, trunc, q):
        # a row's error is that of its one-m call; a call without an error
        # list raises as the calls of each m would, m in order of first
        # appearance, and the difference patterns as theirs would
        ctx = QContext(q, trunc_terms=trunc)
        rng = np.random.default_rng([31, trunc])
        for _ in range(4):
            ms = rng.permutation(np.repeat([3, 1, 4, 2], 3))
            zs = (0.1 + 1.9 * rng.random(12)) * np.exp(2j * np.pi * rng.random(12))
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
        # 0.53 K eps (kappa_sllpo, q = 0.3, K = 4), and the largest
        # difference 4.4e-15 = 20 eps (all_inverted, q = 0.95, K = 198)
        ctx, qc = QContext(q), complex(q)
        eps = np.finfo(float).eps
        rng = np.random.default_rng([23, n_rows])
        for m in (1, 2, 3, 4):
            zs = (0.1 + 1.9 * rng.random(n_rows)) * np.exp(2j * np.pi * rng.random(n_rows))
            got = _batch_scalars(m, zs, ctx)
            for r, z in enumerate(zs.tolist()):
                for name, (want, K) in _loop_scalars(m, z, qc, ctx.trunc_terms).items():
                    assert abs(got[name][r] - want) <= 4 * K * eps * abs(want), (name, m, z)

    @pytest.mark.parametrize("trunc", [8, 1, 20, 256])
    @pytest.mark.parametrize("q", [0.7, 0.6 + 0.09j, 0.95])
    def test_every_row_has_the_error_of_its_own_scan(self, trunc, q):
        # rows that pass and rows that fail (both in one call at 20 factors);
        # kappa_sl2 records each row's error in its list, and a call without
        # a list raises the error of its first failing row
        ctx, qc = QContext(q, trunc_terms=trunc), complex(q)
        p = qc**4
        zs = [1.7 + 0.4j, 0.43 - 0.2j, 1e-9, 1e-3 + 1e-3j, 1e3, 1.1 - 0.3j]
        for m in (1, 2, 4):
            cases = [(kappa_sl2, lambda z: ((qc ** (2 * m + 2) * z, qc**2 / z),
                                            (qc ** (2 * m + 2) / z, qc**2 * z)),
                      "kappa denominator"),
                     (rho0_sl2, lambda z: ((qc**2 * z, qc**2 * z),
                                           (qc ** (2 * m + 2) * z, qc ** (-2 * m + 2) * z)),
                      "rho0 denominator")]
            for fn, products, what in cases:
                wants = [_separate_scans_error(*products(z), p, trunc, what) for z in zs]
                if fn is kappa_sl2:
                    errors = [None] * len(zs)
                    values = fn(m, zs, ctx, errors)
                    for z, value, err, want in zip(zs, values, errors, wants):
                        if want is None:  # and the value of the row alone
                            assert err is None and _bits(value) == _bits(fn(m, z, ctx))
                        else:
                            assert (type(err), str(err)) == want and np.isnan(value)
                first = next((w for w in wants if w is not None), None)
                if first is None:
                    fn(m, zs, ctx)
                    continue
                with pytest.raises(first[0]) as exc:
                    fn(m, zs, ctx)
                assert str(exc.value) == first[1]

    def test_an_error_list_keeps_each_rows_first_error(self):
        # a later call adds an error only to rows that have none yet
        ctx = QContext(0.7)
        errors = [None, ValueError("earlier"), None]
        kappa_sl2(1, [0.5, 0.0, 0.0], ctx, errors)
        assert errors[0] is None and str(errors[1]) == "earlier"
        assert str(errors[2]) == "kappa requires z != 0"

    @pytest.mark.parametrize("q", [0.7, 0.95])
    def test_large_truncation_allocates_per_row_only(self, q):
        # allowed 10^7 factors, every row of a 12-row call stops where it stops
        # when allowed 256, with the same bits and no memory that grows with trunc_terms
        rng = np.random.default_rng(29)
        zs = (0.1 + 1.9 * rng.random(12)) * np.exp(2j * np.pi * rng.random(12))
        want = kappa_sl2(3, zs, QContext(q, trunc_terms=256))
        tracemalloc.start()
        try:
            got = kappa_sl2(3, zs, QContext(q, trunc_terms=10**7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [_bits(v) for v in got] == [_bits(v) for v in want]
        assert peak < 100_000 * len(zs), peak


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
            for n in range(1, ctx.trunc_terms + 1):
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

    def test_large_truncation_allocates_per_row_only(self):
        # allowed 10^7 terms, each row stops where it stops when allowed 256
        rng = np.random.default_rng(37)
        zs = 0.8 * np.sqrt(rng.random(12)) * np.exp(2j * np.pi * rng.random(12))
        want = f_series(1, zs, QContext(0.95, trunc_terms=256))
        tracemalloc.start()
        try:
            got = f_series(1, zs, QContext(0.95, trunc_terms=10**7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got.value, want.value) and np.array_equal(got.tail_bound,
                                                                        want.tail_bound)
        assert peak < 100_000 * len(zs), peak


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

    def test_overflowing_products_raise(self):
        # at z = 1e-9 and q = 0.95 the argument q^2/z is about 9e8: its 256
        # factors overflow while every truncation check passes (inf/inf = nan)
        with pytest.raises(ScalarDomainError, match="overflows"):
            kappa_sl2(1, 1e-9, QContext(0.95))

    def test_an_overflowing_row_gets_its_own_error(self):
        ctx = QContext(0.95)
        errors = [None, None, None]
        zs = np.array([0.8, 1e-9, 1.2 - 0.1j])
        values = kappa_sl2(1, zs, ctx, errors)
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], ScalarDomainError) and "overflows" in str(errors[1])
        assert np.isnan(values[1]) and np.isfinite(values[[0, 2]]).all()
        for k in (0, 2):  # the bits of a one-row scan
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
