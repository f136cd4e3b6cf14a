"""q-numbers, q-Pochhammer products and closed-form normalization scalars.

All infinite products are truncated at ctx.trunc_terms factors or at
working precision, whichever comes first, with a geometric tail
estimate; evaluation aborts rather than silently returning an
under-resolved value.  The 3-4 Pochhammer products of one scalar come
from one scan over k that shares p^k (_poch_ratio); each product keeps
its own running value, smallest factor and checks.  Arguments named
``z`` are the combination zeta12^s of the two spectral parameters.
"""

from collections import namedtuple
from math import prod

from .context import QContext
from .errors import DivergentBaseError, PoleError, ScalarDomainError, TruncationError

PochhammerResult = namedtuple("PochhammerResult", ["value", "tail_bound"])
SeriesResult = namedtuple("SeriesResult", ["value", "tail_bound"])

_POLE_TOL = 1e-9
_TAIL_TOL = 1e-10  # largest accepted truncation tail bound of a product


def q_number(nu: complex, ctx: QContext) -> complex:
    """[nu]_q = (q^nu - q^-nu) / (q - q^-1)."""
    q = complex(ctx.q)
    den = q - 1.0 / q
    if abs(den) < 1e-300:
        raise ScalarDomainError("degenerate q: |q - 1/q| underflows")
    return (q**nu - q ** (-nu)) / den


def _poch_ratio(nums, dens, p: complex, ctx: QContext, what):
    """prod_i (a_i; p)_inf / prod_j (b_j; p)_inf over nums a_i and dens b_j,
    with the largest tail bound of its products.

    One scan over k shares p^k between the products and multiplies each by
    its factor 1 - a p^k.  It stops after ctx.trunc_terms factors, or
    earlier once max |a p^k| / (1 - |p|) < 2^-54: from there on every
    factor moves its product by less than half an ulp.  Then each product
    is checked in turn, numerators first, as if scanned alone: too few
    factors if |a p^T| >= 0.5; unless `what` is None, a tail bound above
    _TAIL_TOL and, for a denominator, a factor closer to 0 than _POLE_TOL.
    Errors name a denominator `what` and a numerator "Pochhammer factor".
    """
    abs_p = abs(p)
    if abs_p >= 1.0:
        raise DivergentBaseError(f"|p| must be < 1, got {abs_p:.6g}")
    args = (*nums, *dens)
    top = max(map(abs, args))
    negligible = 2.0**-54 * (1.0 - abs_p)
    values = [1.0 + 0.0j] * len(args)
    closest = [float("inf")] * len(args)
    pk = 1.0 + 0.0j
    for _ in range(ctx.trunc_terms):
        if top * abs(pk) < negligible:
            break
        for i, a in enumerate(args):
            f = 1.0 - a * pk
            values[i] *= f
            if abs(f) < closest[i]:
                closest[i] = abs(f)
        pk *= p
    # |log prod_{k>=T}| <= sum |a||p|^k / (1 - |a p^k|); geometric bound
    for i, a in enumerate(args):
        head = abs(a) * abs(pk)
        if head >= 0.5:
            raise TruncationError("trunc_terms too small for this Pochhammer argument")
        if what is None:
            continue
        tail = 2.0 * head / (1.0 - abs_p)
        is_den = i >= len(nums)
        if tail > _TAIL_TOL:
            raise TruncationError(f"tail bound {tail:.3g} exceeds {_TAIL_TOL:.0e} for "
                                  f"{what if is_den else 'Pochhammer factor'}")
        if is_den and closest[i] < _POLE_TOL:
            raise PoleError(f"{what} has a vanishing factor (closest |1-a p^k| = {closest[i]:.3g})")
    ratio = prod(values[:len(nums)]) / prod(values[len(nums):])
    return ratio, 2.0 * top * abs(pk) / (1.0 - abs_p)


def q_pochhammer(a: complex, p: complex, ctx: QContext) -> PochhammerResult:
    """(a; p)_infinity = prod_{k>=0} (1 - a p^k), truncated, with tail bound."""
    return PochhammerResult(*_poch_ratio((a,), (), p, ctx, None))


def f_series(m: int, zeta_arg: complex, ctx: QContext) -> SeriesResult:
    """F_m(zeta) = sum_{n>=1} zeta^n / (n [m]_{q^n}), truncated, with tail bound."""
    if m < 1:
        raise ScalarDomainError("m must be a positive integer")
    if abs(zeta_arg) >= 1.0:
        raise DivergentBaseError(f"|zeta| must be < 1, got {abs(zeta_arg):.6g}")
    q = complex(ctx.q)
    total = 0.0 + 0.0j
    zn = 1.0 + 0.0j
    last = 0.0
    for n in range(1, ctx.trunc_terms + 1):
        zn *= zeta_arg
        # 1/[m]_{q^n} = q^{n(m-1)} (1 - q^{2n}) / (1 - q^{2nm}); no negative powers of q
        term = zn * q ** (n * (m - 1)) * (1.0 - q ** (2 * n)) / (n * (1.0 - q ** (2 * n * m)))
        total += term
        last = abs(term)
    r = abs(zeta_arg)
    tail = last * r / (1.0 - r)
    return SeriesResult(total, tail)


# --- sl2 spin-m scalars ------------------------------------------------------

def rho0_sl2(m: int, z: complex, ctx: QContext) -> complex:
    """Unit-highest-weight normalization scalar for a pair of spin-m modules.

    q^{-m^2/2} (q^2 z; q^4)^2 / ((q^{2m+2} z; q^4) (q^{-2m+2} z; q^4)).
    """
    q = complex(ctx.q)
    p = q**4
    a = q**2 * z
    ratio, _ = _poch_ratio((a, a), (q ** (2 * m + 2) * z, q ** (-2 * m + 2) * z), p, ctx,
                           "rho0 denominator")
    return q ** (-m * m / 2.0) * ratio


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


def kappa_sl2(m: int, z: complex, ctx: QContext) -> complex:
    """Unitarizing factor kappa for the spin-m pair (principal branch of z^{m/2}):

    z^{m/2} (q^{2m+2} z; q^4)/(q^{2m+2} z^-1; q^4) * (q^2 z^-1; q^4)/(q^2 z; q^4).
    """
    if z == 0:
        raise ScalarDomainError("kappa requires z != 0")
    return z ** (m / 2.0) * _kappa_sl2_products(m, z, ctx)


def _kappa_sl2_products(m: int, z: complex, ctx: QContext) -> complex:
    """kappa_sl2 without its z^{m/2} prefactor."""
    q = complex(ctx.q)
    p = q**4
    return _poch_ratio((q ** (2 * m + 2) * z, q**2 / z), (q ** (2 * m + 2) / z, q**2 * z), p,
                       ctx, "kappa denominator")[0]


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


def difference_patterns_sl2(m: int, z: complex, ctx: QContext) -> dict:
    """Evaluate both sign patterns of the spin-m normalization difference equation.

    'all_inverted':  [rho0(q^-2 z) rho0(z) kappa(q^-2 z) kappa(z)]^-1
    'mixed':         rho0(q^-2 z)^-1 rho0(z) kappa(q^-2 z)^-1 kappa(z)

    The first is constant in z and equals (-1)^m; the second is not
    constant for odd m.  Both are returned so the sign convention can be
    probed rather than assumed.  The prefactor z^{m/2} of kappa(q^-2 z) is
    continued from z, as z^{m/2} q^{-m}: its principal branch at the
    shifted point can lie across the cut.
    """
    q = complex(ctx.q)
    zs = q ** (-2) * z
    r0, r1 = rho0_sl2(m, zs, ctx), rho0_sl2(m, z, ctx)
    k1 = kappa_sl2(m, z, ctx)
    k0 = z ** (m / 2.0) * q ** (-m) * _kappa_sl2_products(m, zs, ctx)
    return {
        "all_inverted": 1.0 / (r0 * r1 * k0 * k1),
        "mixed": (r1 / r0) * (k1 / k0),
    }


# --- sl(l+1) first-fundamental scalars ---------------------------------------

def rho0_sllpo(l: int, z: complex, ctx: QContext) -> complex:
    """Normalization scalar for a pair of first-fundamental sl(l+1) modules:

    q^{-l/(l+1)} (q^2 z; Q)/(z; Q) * (q^{2l} z; Q)/(Q z; Q),  Q = q^{2(l+1)}.

    Equal to q^{-l/(l+1)} exp(F_{l+1}(q^-l z) - F_{l+1}(q^l z)).
    """
    if l < 1:
        raise ScalarDomainError("l must be >= 1")
    q = complex(ctx.q)
    Q = q ** (2 * (l + 1))
    ratio, _ = _poch_ratio((q**2 * z, q ** (2 * l) * z), (z, Q * z), Q, ctx, "rho0 denominator")
    return q ** (-l / (l + 1)) * ratio


def kappa_sllpo(l: int, z: complex, ctx: QContext) -> complex:
    """Unitarizing factor for the fundamental pair (principal branch):

    z^{l/(l+1)} (q^2 z^-1; Q)/(q^2 z; Q) * (Q z; Q)/(Q z^-1; Q),  Q = q^{2(l+1)}.
    """
    if z == 0:
        raise ScalarDomainError("kappa requires z != 0")
    return z ** (l / (l + 1)) * _kappa_sllpo_products(l, z, ctx)


def _kappa_sllpo_products(l: int, z: complex, ctx: QContext) -> complex:
    """kappa_sllpo without its z^{l/(l+1)} prefactor."""
    q = complex(ctx.q)
    Q = q ** (2 * (l + 1))
    return _poch_ratio((q**2 / z, Q * z), (q**2 * z, Q / z), Q, ctx, "kappa denominator")[0]


def difference_patterns_sllpo(l: int, z: complex, ctx: QContext) -> dict:
    """Both sign patterns of the fundamental-pair difference equation.

    'mixed':         rho0(Q^-1 z)^-1 rho0(z) kappa(Q^-1 z)^-1 kappa(z)
    'all_inverted':  [rho0(Q^-1 z) rho0(z) kappa(Q^-1 z) kappa(z)]^-1

    Here the mixed pattern is the constant one, equal to 1.  The prefactor
    z^{l/(l+1)} of kappa(Q^-1 z) is continued from z, as z^{l/(l+1)} q^{-2l}:
    its principal branch at the shifted point can lie across the cut.
    """
    q = complex(ctx.q)
    zs = z * q ** (-2 * (l + 1))
    r0, r1 = rho0_sllpo(l, zs, ctx), rho0_sllpo(l, z, ctx)
    k1 = kappa_sllpo(l, z, ctx)
    k0 = z ** (l / (l + 1)) * q ** (-2 * l) * _kappa_sllpo_products(l, zs, ctx)
    return {
        "mixed": (r1 / r0) * (k1 / k0),
        "all_inverted": 1.0 / (r0 * r1 * k0 * k1),
    }
