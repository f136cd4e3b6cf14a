"""q-numbers, q-Pochhammer products and closed-form normalization scalars.

An infinite product (a; p)_inf, |p| < 1, is taken in closed form: for
|x| < 1, log (x; p)_inf = -sum_{j>=1} x^j / (j (1 - p^j)) (Gasper and
Rahman, Basic Hypergeometric Series, 2nd ed., 2004), whose terms fall at
least as |x|^j / (j (1 - |p|)).  A product takes the explicit factors
1 - a p^k while |a p^k| > _RHO = 1/4, K of them (so K follows from |a| and
|p|, and p = 0 takes at most one), and J terms of the series at x = a p^K,
with a remainder below 2^-54 (_log_series).  A ratio of products is exp of
the numerators' logs minus the denominators', so products that underflow
or overflow alone do not meet as 0/0, and only explicit factors can vanish
(past them |1 - a p^k| >= 3/4).  A log rounds by about the unit roundoff
times |x| / (1 - |p|) plus the |log| of its explicit factors, so a ratio's
relative error grows as |log| of its products, with |p| (kappa at even m
keeps about 3e-13 against its rational form at q = 0.999).

The normalization scalars take z, the combination zeta12^s of the two
spectral parameters, as a number or as a 1-D array of rows, and return a
number or an array to match; the sl2 ones take m as a number or one per
row.  All rows of one call share the powers of p (_poch_ratio): the 3-4
Pochhammer products of every row are formed at once, each product with
its own explicit factors and checks.  Every step is elementwise numpy
arithmetic or a sum of fixed length, and the powers of q are formed for
each m as a one-m call forms them (_by_m), so each row has the bits and
the error of a one-z call.  A call raises a copy of the error of its first
failing row, taking the rows of each m in turn (in order of first
appearance), as one-m calls in that order would; kappa_sl2 and rho0_sl2,
given an `errors` list (one entry per row), record each row's first error
there instead.
"""

import cmath
import math
from collections import namedtuple

import numpy as np

from .context import QContext
from .errors import (DivergentBaseError, PoleError, ScalarDomainError, TruncationError,
                     copy_error)

PochhammerResult = namedtuple("PochhammerResult", ["value", "tail_bound"])
SeriesResult = namedtuple("SeriesResult", ["value", "tail_bound"])

_POLE_TOL = 1e-9
_RHO = 0.25  # a product takes explicit factors while |a p^k| > _RHO, the log series after
_MAX_TERMS = 2**16  # the most explicit factors of a product, or terms of F_m
_LOG_RANGE = 708.0  # exp(x) is a normal float for |x| <= _LOG_RANGE
_NEGLIGIBLE = 2.0**-54  # a term below this, relative to the value, moves it by under half an ulp
_BLOCK = 4096  # factors or series terms formed at once, so a long product needs no more memory


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


def _log_series(abs_p: float) -> tuple:
    """(J, bound): the series terms J that |x| <= _RHO needs and the bound on the
    rest, _RHO^(J+1) / ((J+1) (1 - |p|^(J+1)) (1 - _RHO)) (|1 - p^j| >=
    1 - |p|^(J+1) for j > J), J the first with this below 2^-54."""
    J = math.ceil(math.log(_NEGLIGIBLE * (1.0 - _RHO) * (1.0 - abs_p)) / math.log(_RHO)) - 1
    return J, _RHO ** (J + 1) / ((J + 1) * (1.0 - abs_p ** (J + 1)) * (1.0 - _RHO))


def _log_tail(x, pj) -> np.ndarray:
    """log (x; p)_inf of each |x| <= _RHO by its J series terms, pj = p^1..p^J:
    x^j by doubling, x^(i+d) = x^i x^d, and summed in order of j."""
    J = len(pj)
    terms = np.empty((J, len(x)), dtype=complex)
    terms[0] = x
    done = 1
    while done < J:
        step = min(done, J - done)
        np.multiply(terms[:step], terms[done - 1], out=terms[done:done + step])
        done += step
    terms *= (-1.0 / (np.arange(1, J + 1) * (1.0 - pj)))[:, None]
    return np.add.reduce(terms, axis=0)


def _poch_ratio(rows, n_num: int, p: complex, what, errors) -> np.ndarray:
    """prod_i (a_i; p)_inf / prod_j (b_j; p)_inf for each row of arguments,
    the n_num numerators a_i first, as exp of their logs (module docstring).

    All arguments share the powers of p; the explicit factors are formed
    _BLOCK at a time, those past an argument's own K read as 1, and the
    logs are summed in a fixed order (numpy sums the leading axis of more
    than one column in order), so each row has the bits of a one-row call.
    Each product of a row is checked in turn, numerators first: an argument
    that is not finite is a ScalarDomainError, one that needs more than
    _MAX_TERMS factors a TruncationError, and unless `what` is None, a
    denominator factor closer to 0 than _POLE_TOL a PoleError naming `what`
    (a numerator is a "Pochhammer factor"); then a ratio out of the floats'
    range is a ScalarDomainError, unless a numerator factor is 0.  Each goes
    to errors[row] unless that row has one, and a row with one reads NaN.
    """
    abs_p = abs(p)
    if not abs_p < 1.0:
        raise DivergentBaseError(f"|p| must be < 1, got {abs_p:.6g}")
    a = np.asarray(rows, dtype=complex)  # (N, A)
    shape, a = a.shape, a.ravel()
    J = _log_series(abs_p)[0]
    # log |p|^-1, and at p = 0 a number so large that each |a| > _RHO takes one factor
    shrink = -math.log(abs_p) if abs_p > 0.0 else 1e300
    with np.errstate(all="ignore"):
        K = np.maximum(np.ceil(np.log(np.abs(a) * (1.0 / _RHO)) / shrink), 0.0)
        unusable = ~(K <= _MAX_TERMS)  # an argument that is not finite or needs too many
        K, a = np.where(unusable, 0, K).astype(int), np.where(unusable, 0.0, a)
        longest = int(K.max(initial=0))
        powers = p ** np.arange(max(longest, J) + 1)
        logs = _log_tail(a * powers[K], powers[1:J + 1])
        closest = np.zeros(len(a))  # least log |1 - a p^k| over the explicit factors, or 0
        for start in range(0, longest, _BLOCK):
            stop = min(start + _BLOCK, longest)
            factors = np.log(np.where(np.arange(start, stop)[:, None] < K,
                                      1.0 - powers[start:stop, None] * a, 1.0))
            logs += np.add.reduce(factors, axis=0)
            closest = np.fmin(closest, factors.real.min(axis=0))
        logs = logs.reshape(shape)
        logs[:, n_num:] *= -1.0
        total = np.add.reduce(logs, axis=1)
        ratios = np.exp(total)
    failing, closest = unusable.reshape(shape), closest.reshape(shape)
    if what is not None:
        failing[:, n_num:] |= closest[:, n_num:] < math.log(_POLE_TOL)
    in_range = abs(total.real) <= _LOG_RANGE
    if failing.any() or not in_range.all():  # some row fails
        for r in np.flatnonzero(failing.any(axis=1) | ~in_range):
            i = int(failing[r].argmax())
            name = what if i >= n_num and what is not None else "Pochhammer factor"
            if not failing[r, i]:
                if total[r].real == -math.inf:  # a numerator factor is 0: the ratio is 0
                    continue
                err = ScalarDomainError("Pochhammer ratio is out of range: exp of its log over- "
                                        "or underflows")
            elif not cmath.isfinite(rows[r][i]):
                err = ScalarDomainError(f"{name} argument is not finite")
            elif closest[r, i] < math.log(_POLE_TOL):  # only a denominator's is tested
                err = PoleError(f"{what} has a vanishing factor "
                                f"(closest |1-a p^k| = {math.exp(closest[r, i]):.3g})")
            else:
                err = TruncationError(f"{name} needs more than {_MAX_TERMS} explicit factors")
            errors[r] = errors[r] or err
    failed = [r for r, err in enumerate(errors) if err is not None]
    if failed:
        ratios[failed] = complex(math.nan, math.nan)
    return ratios


def q_pochhammer(a: complex, p: complex) -> PochhammerResult:
    """(a; p)_infinity = prod_{k>=0} (1 - a p^k), with the bound on the log
    series terms it leaves out (_log_series)."""
    errors = [None]
    values = _poch_ratio([(a,)], 1, p, None, errors)
    return PochhammerResult(_finish(a, values, errors), _log_series(abs(p))[1])


def f_series(m: int, zeta, ctx: QContext) -> SeriesResult:
    """F_m(zeta) = sum_{n>=1} zeta^n / (n [m]_{q^n}), with the bound on the terms
    it leaves out, for zeta a number or a 1-D array (value and bound shaped
    like zeta).

    With 1/[m]_{q^n} = q^{n(m-1)} (1 - q^{2n}) / (1 - q^{2nm}) (no negative
    powers of q), |term_n| <= C rho^n / n for rho = |zeta| |q|^(m-1) and
    C = (1 + |q|^2) / (1 - |q|^{2m}), so the terms after the N-th sum to at
    most C rho^(N+1) / ((N+1)(1 - rho)), the tail bound.  A row keeps the
    terms up to the first N where C rho^(N+1) / (1 - rho) is below 2^-54
    |term_1|; a row that needs more than _MAX_TERMS of them is a
    TruncationError.  The terms of all rows are formed as arrays, _BLOCK of
    them at a time, and each row is summed exactly (math.fsum of the real
    and imaginary parts).  A row with |zeta| >= 1 diverges
    (DivergentBaseError, for the first such row; TruncationError for the
    row that needs the most terms).
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
    if terms.max(initial=0.0) > _MAX_TERMS:
        raise TruncationError(f"F_{m} needs more than {_MAX_TERMS} terms at "
                              f"|zeta| = {abs(x[terms.argmax()]):.6g}")
    terms = terms.astype(int)
    w, longest = (x * q ** (m - 1))[:, None], int(terms.max(initial=1))
    parts = [[] for _ in x]
    for start in range(0, longest, _BLOCK):
        n = np.arange(start + 1, min(start + _BLOCK, longest) + 1)
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
    ratios = _poch_ratio(rows[:, 1:], 2, q**4, "rho0 denominator", own)
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
    return _poch_ratio(_by_m(ms, x, errors, (len(x), 4), build), 2, q**4,
                       "kappa denominator", errors)


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
    shifted point can lie across the cut.  One rho0_sl2 call covers both
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
    ratios = _poch_ratio(np.stack((q**2 * x, q ** (2 * l) * x, x, Q * x), axis=1),
                         2, Q, "rho0 denominator", errors)
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
    return _poch_ratio(rows, 2, Q, "kappa denominator", errors)


def difference_patterns_sllpo(l: int, z, ctx: QContext) -> dict:
    """Both sign patterns of the fundamental-pair difference equation.

    'mixed':         rho0(Q^-1 z)^-1 rho0(z) kappa(Q^-1 z)^-1 kappa(z)
    'all_inverted':  [rho0(Q^-1 z) rho0(z) kappa(Q^-1 z) kappa(z)]^-1

    Here the mixed pattern is the constant one, equal to 1.  The prefactor
    z^{l/(l+1)} of kappa(Q^-1 z) is continued from z, as z^{l/(l+1)} q^{-2l}:
    its principal branch at the shifted point can lie across the cut.  One
    rho0_sllpo call covers both rho0 factors.  The call raises the first
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
