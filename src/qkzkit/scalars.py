"""q-numbers, q-Pochhammer products and closed-form normalization scalars.

All infinite products and series are truncated at ctx.trunc_terms terms
or at working precision, whichever comes first, with a geometric tail
estimate; evaluation aborts rather than silently returning an
under-resolved value.

The normalization scalars take z, the combination zeta12^s of the two
spectral parameters, as a number or as a 1-D array of rows, and return a
number or an array to match; the sl2 ones take m as a number or one per
row.  All rows of one call share one scan over k (_poch_ratio): the 3-4
Pochhammer products of every row are formed and multiplied at once, each
row keeps its own stop and each product its own smallest factor and
checks.  Every step is elementwise numpy arithmetic, and the powers of q
are formed for each m as a one-m call forms them (_by_m), so each row has
the bits and the error of a one-z call.  A call raises a copy of the
error of its first failing row, taking the rows of each m in turn (in
order of first appearance), as one-m calls in that order would;
kappa_sl2 and rho0_sl2, given an `errors` list (one entry per row),
record each row's first error there instead.
"""

import math
from collections import namedtuple

import numpy as np

from .context import QContext
from .errors import (DivergentBaseError, PoleError, ScalarDomainError, TruncationError,
                     copy_error)

PochhammerResult = namedtuple("PochhammerResult", ["value", "tail_bound"])
SeriesResult = namedtuple("SeriesResult", ["value", "tail_bound"])

_POLE_TOL = 1e-9
_TAIL_TOL = 1e-10  # largest accepted truncation tail bound of a product
_NEGLIGIBLE = 2.0**-54  # a term below this, relative to the value, moves it by under half an ulp
_SERIES_BLOCK = 4096  # series terms formed at once, so a long series needs no more memory


def q_number(nu: complex, ctx: QContext) -> complex:
    """[nu]_q = (q^nu - q^-nu) / (q - q^-1)."""
    q = complex(ctx.q)
    den = q - 1.0 / q
    if abs(den) < 1e-300:
        raise ScalarDomainError("degenerate q: |q - 1/q| underflows")
    return (q**nu - q ** (-nu)) / den


def _rows(z) -> np.ndarray:
    """The rows of z, a number or a 1-D array, as a complex array."""
    return np.atleast_1d(np.asarray(z, dtype=complex))


def _finish(z, values, *segments, m=None):
    """values shaped like z (a number for a number, an array for an array),
    once raise_first(*segments, m=m) has raised."""
    raise_first(*segments, m=m)
    return complex(values[0]) if np.ndim(z) == 0 else values


def raise_first(*segments, m=None):
    """Raise a copy of the first error of the error lists `segments` (one
    entry per row each), list by list and row by row; given m (a number or
    one per row), the rows of each m in turn, in order of its first
    appearance.  The copy has no traceback, so a stored error never holds
    the frames (and what they refer to) of the call that raised it."""
    if not any(map(any, segments)):
        return
    if m is not None:
        segments = [[errs[r] for r in np.arange(len(errs))[rows]]
                    for _, rows in _m_groups(m) for errs in segments]
    raise copy_error(next(e for errs in segments for e in errs if e is not None))


def _m_groups(ms) -> list:
    """(mu, rows) for each distinct m of ms (a number, or one per row), in
    order of first appearance: mu a Python number, so its powers of q have
    the bits of a one-m call, and rows a mask, or a slice for one m."""
    ms = np.asarray(ms)
    distinct = dict.fromkeys(ms.ravel().tolist())
    return [(mu, slice(None) if len(distinct) == 1 else ms == mu) for mu in distinct]


def _by_m(ms, x, errors, shape, build) -> np.ndarray:
    """An array of `shape` whose rows with m = mu are build(mu, those rows
    of x), for each distinct mu (_m_groups).  An arithmetic error of one mu,
    which its one-m call would have raised, goes to errors of its rows
    (unless a row has one already), and those rows read NaN."""
    out = np.empty(shape, dtype=complex)
    for mu, rows in _m_groups(ms):
        try:
            out[rows] = build(mu, x[rows])
        except ArithmeticError as exc:
            out[rows] = complex(math.nan, math.nan)
            exc.with_traceback(None)
            for r in np.arange(len(x))[rows]:
                errors[r] = errors[r] or exc
    return out


def _scan_powers(p: complex, abs_p: float, reach: float, negligible: float, limit: int) -> tuple:
    """(p^k, |p^k|) for k = 0 .. K, K the first k with reach |p^k| < negligible
    or else limit: p^k a sequential product, as a loop forms it, and |p^k|
    abs() of it (np.hypot; np.abs rounds differently).  The powers are formed
    to a few past the estimate log(negligible / reach) / log |p|, then to
    limit if that falls short (reach = 0 stops at k = 0, |p| = 0 by k = 1)."""
    guess = 1
    if reach > 0.0 and abs_p > 0.0:
        guess = max(1, min(limit, int(math.log(negligible / reach) / math.log(abs_p)) + 3))
    for n in (guess, limit):
        powers = np.multiply.accumulate(np.concatenate(([1.0], np.full(n, p))))
        moduli = np.hypot(powers.real, powers.imag)
        below = reach * moduli < negligible
        below[-1] |= n == limit
        K = int(below.argmax())
        if below[K]:
            return powers[:K + 1], moduli[:K + 1]


def _poch_ratio(rows, n_num: int, p: complex, ctx: QContext, what, errors) -> tuple:
    """prod_i (a_i; p)_inf / prod_j (b_j; p)_inf for each row of arguments,
    the n_num numerators a_i first and then the denominators b_j; returns
    (ratios, tail bounds), one of each per row, the bound the largest of
    the row's products.

    One scan over k shares p^k (_scan_powers) between every product of
    every row.  A row stops after ctx.trunc_terms factors, or earlier at the
    first k with top |p^k| < 2^-54 (1 - |p|), top the row's largest
    |argument|: from there on every factor moves its product by less than
    half an ulp.  The scan is as long as the longest row with finite
    arguments, the factors 1 - a p^k past a row's own stop are left out of
    its product, and nothing grows with trunc_terms.  Then each product of a
    row is checked in turn, numerators first, as if scanned alone: too few
    factors if |a p^T| >= 0.5; unless `what` is None, a tail bound above
    _TAIL_TOL and, for a denominator, a factor closer to 0 than _POLE_TOL;
    and a product that is not finite (factors of huge arguments overflow
    it, so the ratio would read inf/inf) is a ScalarDomainError.  Errors
    name a denominator `what` and a numerator "Pochhammer factor"; each
    goes to errors[row] unless that row already has one.  A row whose
    products pass but whose ratio is not finite (they underflow, to 0/0 or
    x/0) gets a ScalarDomainError too, and a row with an error reads NaN.
    """
    abs_p = abs(p)
    if abs_p >= 1.0:
        raise DivergentBaseError(f"|p| must be < 1, got {abs_p:.6g}")
    a = np.asarray(rows, dtype=complex)  # (N, A)
    modulus = np.abs(a)
    top = modulus.max(axis=1, initial=0.0)
    negligible = _NEGLIGIBLE * (1.0 - abs_p)
    reach = float(top.max(initial=0.0, where=np.isfinite(top)))
    powers, moduli = _scan_powers(p, abs_p, reach, negligible, ctx.trunc_terms)
    K = len(powers) - 1
    stopped = top[:, None] * moduli < negligible  # (N, K + 1)
    stopped[:, K] = True  # a row with arguments that are not finite scans K factors
    stop = stopped.argmax(axis=1)
    scanned = np.arange(K) < stop[:, None, None]
    with np.errstate(all="ignore"):  # a huge argument overflows its product
        factors = 1.0 - a[:, :, None] * powers[:K]
        values = np.prod(factors, axis=2, where=scanned)
        # |log prod_{k>=T}| <= sum |a||p|^k / (1 - |a p^k|); geometric bound
        head = modulus * moduli[stop][:, None]
        tail = 2.0 * head / (1.0 - abs_p)
        ratios = values[:, :n_num].prod(axis=1) / values[:, n_num:].prod(axis=1)
    failing = (head >= 0.5) | ~np.isfinite(values)
    if what is not None:
        # a denominator with a factor closer to 0 than _POLE_TOL; past a row's stop
        # every factor is within 2^-54 of 1, so the test needs no mask
        near = np.fmin.reduce(np.abs(factors[:, n_num:]), axis=2, initial=np.inf) < _POLE_TOL
        failing |= tail > _TAIL_TOL
        failing[:, n_num:] |= near
    bad = failing.any(axis=1)
    for r in np.flatnonzero(bad | ~np.isfinite(ratios)):
        i = int(failing[r].argmax())
        is_den = i >= n_num
        name = what if is_den and what is not None else "Pochhammer factor"
        if not bad[r]:  # finite products whose ratio is not
            err = ScalarDomainError(f"Pochhammer ratio is not finite after {stop[r]} factors: "
                                    "its products underflow or their quotient overflows")
        elif head[r, i] >= 0.5:
            err = TruncationError("trunc_terms too small for this Pochhammer argument")
        elif what is not None and tail[r, i] > _TAIL_TOL:
            err = TruncationError(
                f"tail bound {tail[r, i]:.3g} exceeds {_TAIL_TOL:.0e} for {name}")
        elif what is not None and is_den and near[r, i - n_num]:
            closest = np.fmin.reduce(np.abs(factors[r, i, :stop[r]]), initial=np.inf)
            err = PoleError(f"{what} has a vanishing factor (closest |1-a p^k| = {closest:.3g})")
        else:
            err = ScalarDomainError(f"{name} product overflows (not finite after "
                                    f"{stop[r]} factors)")
        errors[r] = errors[r] or err
    failed = [r for r, err in enumerate(errors) if err is not None]
    if failed:
        ratios[failed] = complex(math.nan, math.nan)
    return ratios, tail.max(axis=1, initial=0.0)


def q_pochhammer(a: complex, p: complex, ctx: QContext) -> PochhammerResult:
    """(a; p)_infinity = prod_{k>=0} (1 - a p^k), truncated, with tail bound."""
    errors = [None]
    values, (tail,) = _poch_ratio([(a,)], 1, p, ctx, None, errors)
    return PochhammerResult(_finish(a, values, errors), float(tail))


def f_series(m: int, zeta, ctx: QContext) -> SeriesResult:
    """F_m(zeta) = sum_{n>=1} zeta^n / (n [m]_{q^n}), truncated, with tail bound,
    for zeta a number or a 1-D array (value and bound shaped like zeta).

    With 1/[m]_{q^n} = q^{n(m-1)} (1 - q^{2n}) / (1 - q^{2nm}) (no negative
    powers of q), |term_n| <= C rho^n / n for rho = |zeta| |q|^(m-1) and
    C = (1 + |q|^2) / (1 - |q|^{2m}), so the terms after the N-th sum to at
    most C rho^(N+1) / ((N+1)(1 - rho)), the tail bound.  A row keeps the
    terms up to the first N where C rho^(N+1) / (1 - rho) is below 2^-54
    |term_1|, and at most ctx.trunc_terms of them.  The terms of all rows
    are formed as arrays, _SERIES_BLOCK of them at a time, and each row is
    summed exactly (math.fsum of the real and imaginary parts).  A row with
    |zeta| >= 1 diverges (DivergentBaseError, for the first such row).
    """
    if m < 1:
        raise ScalarDomainError("m must be a positive integer")
    x = _rows(zeta)
    divergent = np.flatnonzero(~(np.abs(x) < 1.0))
    if divergent.size:
        raise DivergentBaseError(f"|zeta| must be < 1, got {abs(x[divergent[0]]):.6g}")
    q = complex(ctx.q)
    aq = abs(q)
    rho = np.abs(x) * aq ** (m - 1)
    C = (1.0 + aq**2) / (1.0 - aq ** (2 * m))
    first = np.abs(x * (q ** (m - 1) * (1.0 - q**2) / (1.0 - q ** (2 * m))))
    with np.errstate(divide="ignore", invalid="ignore"):
        need = np.log(_NEGLIGIBLE * first * (1.0 - rho) / C) / np.log(rho) - 1.0
    terms = np.where(np.isfinite(need) & (need > 1.0), np.ceil(need), 1.0)
    terms = np.minimum(terms, ctx.trunc_terms).astype(int)
    w, longest = (x * q ** (m - 1))[:, None], int(terms.max(initial=1))
    parts = [[] for _ in x]
    for start in range(0, longest, _SERIES_BLOCK):
        n = np.arange(start + 1, min(start + _SERIES_BLOCK, longest) + 1)
        block = np.where(n <= terms[:, None], w**n * (1.0 - (q**2) ** n)
                         / (n * (1.0 - (q ** (2 * m)) ** n)), 0.0)
        for part, row in zip(parts, block):
            part.append((math.fsum(row.real), math.fsum(row.imag)))
    values = np.array([complex(math.fsum(re for re, _ in part), math.fsum(im for _, im in part))
                       for part in parts])
    tails = C * rho ** (terms + 1) / ((terms + 1) * (1.0 - rho))
    return SeriesResult(_finish(zeta, values), float(tails[0]) if np.ndim(zeta) == 0 else tails)


# --- sl2 spin-m scalars ------------------------------------------------------

def rho0_sl2(m, z, ctx: QContext, errors=None):
    """Unit-highest-weight normalization scalar for a pair of spin-m modules:

    q^{-m^2/2} (q^2 z; q^4)^2 / ((q^{2m+2} z; q^4) (q^{-2m+2} z; q^4)).

    An `errors` list is taken as by kappa_sl2.
    """
    q = complex(ctx.q)
    x = _rows(z)
    own = [None] * len(x) if errors is None else errors

    def build(mu, xs):  # the scale, then the Pochhammer arguments
        return np.array((np.full(len(xs), q ** (-mu * mu / 2.0)), q**2 * xs, q**2 * xs,
                         q ** (2 * mu + 2) * xs, q ** (-2 * mu + 2) * xs)).T
    rows = _by_m(m, x, own, (len(x), 5), build)
    ratios, _ = _poch_ratio(rows[:, 1:], 2, q**4, ctx, "rho0 denominator", own)
    return _finish(z, rows[:, 0] * ratios, own if errors is None else (), m=m)


def rho0_ratio_sl2(m: int, z: complex, ctx: QContext) -> complex:
    """rho0(q^-2 z)^-1 rho0(z)^-1 as a finite product:

    q^{m^2} prod_{i=0}^{m-1} (1 - q^{-2m+2i} z) / (1 - q^{2m-2i-2} z).
    """
    q = complex(ctx.q)
    out = q ** (m * m)
    for i in range(m):
        den = 1.0 - q ** (2 * m - 2 * i - 2) * z
        if abs(den) < _POLE_TOL:
            raise PoleError("rho0 ratio denominator vanishes")
        out *= (1.0 - q ** (-2 * m + 2 * i) * z) / den
    return out


def _nonzero(zs, errors) -> np.ndarray:
    """zs with each 0 replaced by 1, its row given the error of kappa at 0."""
    zero = np.flatnonzero(zs == 0)
    for r in zero:
        errors[r] = errors[r] or ScalarDomainError("kappa requires z != 0")
    return np.where(zs == 0, 1.0, zs) if len(zero) else zs


def kappa_sl2(m, z, ctx: QContext, errors=None):
    """Unitarizing factor kappa for the spin-m pair (principal branch of z^{m/2}):

    z^{m/2} (q^{2m+2} z; q^4)/(q^{2m+2} z^-1; q^4) * (q^2 z^-1; q^4)/(q^2 z; q^4).

    Given an `errors` list (one entry per row), each row's first error goes
    there instead of being raised, unless the row already has one, and that
    row reads NaN.
    """
    x = _rows(z)
    own = [None] * len(x) if errors is None else errors
    values = (_by_m(m, x, own, x.shape, lambda mu, xs: xs ** (mu / 2.0))
              * _kappa_sl2_products(m, _nonzero(x, own), ctx, own))
    return _finish(z, values, own if errors is None else (), m=m)


def _kappa_sl2_products(ms, x, ctx: QContext, errors) -> np.ndarray:
    """kappa_sl2 without its z^{m/2} prefactor, one per row of x (ms a number or
    one per row)."""
    q = complex(ctx.q)

    def build(mu, xs):
        return np.array((q ** (2 * mu + 2) * xs, q**2 / xs, q ** (2 * mu + 2) / xs, q**2 * xs)).T
    return _poch_ratio(_by_m(ms, x, errors, (len(x), 4), build), 2, q**4, ctx,
                       "kappa denominator", errors)[0]


def kappa_sl2_even_rational(k: int, z: complex, ctx: QContext) -> complex:
    """Rational form of kappa for even spin m = 2k:

    z^k prod_{i=1}^{k} (1 - q^{4i-2} z^-1) / (1 - q^{4i-2} z).

    Agrees with kappa_sl2(2k, z); note the factor orientation, which is
    fixed by that agreement and by the difference equation below.
    """
    if z == 0:
        raise ScalarDomainError("kappa requires z != 0")
    q = complex(ctx.q)
    out = z**k
    for i in range(1, k + 1):
        den = 1.0 - q ** (4 * i - 2) * z
        if abs(den) < _POLE_TOL:
            raise PoleError("rational kappa denominator vanishes")
        out *= (1.0 - q ** (4 * i - 2) / z) / den
    return out


def difference_patterns_sl2(m, z, ctx: QContext) -> dict:
    """Evaluate both sign patterns of the spin-m normalization difference equation.

    'all_inverted':  [rho0(q^-2 z) rho0(z) kappa(q^-2 z) kappa(z)]^-1
    'mixed':         rho0(q^-2 z)^-1 rho0(z) kappa(q^-2 z)^-1 kappa(z)

    The first is constant in z and equals (-1)^m; the second is not
    constant for odd m.  Both are returned so the sign convention can be
    probed rather than assumed.  The prefactor z^{m/2} of kappa(q^-2 z) is
    continued from z, as z^{m/2} q^{-m}: its principal branch at the
    shifted point can lie across the cut.  One rho0_sl2 scan covers both
    rho0 factors.  For the rows of each m in turn, the call raises the
    first error of rho0(q^-2 z), rho0(z), kappa(z) and kappa(q^-2 z), in
    that order.
    """
    q = complex(ctx.q)
    x = _rows(z)
    ms, n, shifted = np.broadcast_to(m, x.shape), len(x), q ** (-2) * x
    rho0_errors, k1_errors, k0_errors = [None] * 2 * n, [None] * n, [None] * n
    r0, r1 = np.split(rho0_sl2(np.concatenate((ms, ms)), np.concatenate((shifted, x)), ctx,
                               rho0_errors), 2)
    k1 = kappa_sl2(ms, x, ctx, k1_errors)
    k0 = (_by_m(ms, x, k0_errors, (n,), lambda mu, xs: xs ** (mu / 2.0) * q ** (-mu))
          * _kappa_sl2_products(ms, shifted, ctx, k0_errors))
    raise_first(rho0_errors[:n], rho0_errors[n:], k1_errors, k0_errors, m=ms)
    return _patterns(z, r0, r1, k0, k1)


def _patterns(z, r0, r1, k0, k1) -> dict:
    """Both difference patterns from rho0 shifted, rho0, kappa shifted and kappa."""
    return {"mixed": _finish(z, (r1 / r0) * (k1 / k0)),
            "all_inverted": _finish(z, 1.0 / (r0 * r1 * k0 * k1))}


# --- sl(l+1) first-fundamental scalars ---------------------------------------

def rho0_sllpo(l: int, z, ctx: QContext):
    """Normalization scalar for a pair of first-fundamental sl(l+1) modules:

    q^{-l/(l+1)} (q^2 z; Q)/(z; Q) * (q^{2l} z; Q)/(Q z; Q),  Q = q^{2(l+1)}.

    Equal to q^{-l/(l+1)} exp(F_{l+1}(q^-l z) - F_{l+1}(q^l z)).
    """
    if l < 1:
        raise ScalarDomainError("l must be >= 1")
    q = complex(ctx.q)
    Q = q ** (2 * (l + 1))
    x = _rows(z)
    errors = [None] * len(x)
    ratios, _ = _poch_ratio(np.stack((q**2 * x, q ** (2 * l) * x, x, Q * x), axis=1),
                            2, Q, ctx, "rho0 denominator", errors)
    return _finish(z, q ** (-l / (l + 1)) * ratios, errors)


def kappa_sllpo(l: int, z, ctx: QContext):
    """Unitarizing factor for the fundamental pair (principal branch):

    z^{l/(l+1)} (q^2 z^-1; Q)/(q^2 z; Q) * (Q z; Q)/(Q z^-1; Q),  Q = q^{2(l+1)}.
    """
    x = _rows(z)
    errors = [None] * len(x)
    values = x ** (l / (l + 1)) * _kappa_sllpo_products(l, _nonzero(x, errors), ctx, errors)
    return _finish(z, values, errors)


def _kappa_sllpo_products(l: int, x, ctx: QContext, errors) -> np.ndarray:
    """kappa_sllpo without its z^{l/(l+1)} prefactor, one per row of x."""
    q = complex(ctx.q)
    Q = q ** (2 * (l + 1))
    rows = np.stack((q**2 / x, Q * x, q**2 * x, Q / x), axis=1)
    return _poch_ratio(rows, 2, Q, ctx, "kappa denominator", errors)[0]


def difference_patterns_sllpo(l: int, z, ctx: QContext) -> dict:
    """Both sign patterns of the fundamental-pair difference equation.

    'mixed':         rho0(Q^-1 z)^-1 rho0(z) kappa(Q^-1 z)^-1 kappa(z)
    'all_inverted':  [rho0(Q^-1 z) rho0(z) kappa(Q^-1 z) kappa(z)]^-1

    Here the mixed pattern is the constant one, equal to 1.  The prefactor
    z^{l/(l+1)} of kappa(Q^-1 z) is continued from z, as z^{l/(l+1)} q^{-2l}:
    its principal branch at the shifted point can lie across the cut.  One
    rho0_sllpo scan covers both rho0 factors.  The call raises the first
    error of rho0(Q^-1 z), rho0(z), kappa(z) and kappa(Q^-1 z), in that
    order.
    """
    q = complex(ctx.q)
    x = _rows(z)
    shifted, errors = x * q ** (-2 * (l + 1)), [None] * len(x)
    r0, r1 = np.split(rho0_sllpo(l, np.concatenate((shifted, x)), ctx), 2)
    k1 = kappa_sllpo(l, x, ctx)
    k0 = x ** (l / (l + 1)) * q ** (-2 * l) * _kappa_sllpo_products(l, shifted, ctx, errors)
    return _patterns(z, r0, r1, _finish(x, k0, errors), k1)
