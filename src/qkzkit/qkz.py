"""qKZ operators: per-site twist maps, the one-step operators, consistency checks.

A chain is N sites, each a spin-m module V or its dual V*, with spectral
parameters eta_i and a multiplicative shift p.  The one-step operator for
site i is a product of two-site Rcheck factors, the cyclic left shift and
the site twist embedded at slot 0; it also has a rewritten form with R
factors only, and both must agree.

The one-step operators, the reduction composite (`reduction.rhs_operator`)
and exchange transport are factor strings: lists of steps in application
order, ("Rcheck" | "R", (i, j), (kind1, z1, kind2, z2)) for a two-site
factor on sites (i, j), ("delta", slot, site) for a site twist and
("perm", sigma, None) for a site permutation.  `apply_factors` applies a
string; `rcheck_factors` requests all of its two-site factors in one
solve_intertwiner call, the only one in this module and in `reduction`.
`factor_requests` is its request half: it gives the requests that a
string's factors make without solving them, so a check group can solve
the factors of all its checks in one call first (`cli`).  Each check that
solves R-operators has a requests function of the same arguments
(`ddr_requests`, `lambda_forms_requests`, `compatibility_requests`)
built from the same string builders as the check.

Every operator is applied to a start block of columns, the identity by
default (which gives the dense matrix).  The checks apply both sides of
an identity A = B to the same seeded complex Gaussian probe block X of
PROBE_COLUMNS columns (Freivalds' test): ||(A - B) X|| / ||A X|| estimates
the relative Frobenius residual without forming A or B.
"""

from dataclasses import dataclass
from math import prod

import numpy as np

from .context import QContext
from .errors import ConfigError
from .report import VerificationReport
from .reps import GradingChoice, sl2_constants, twist
from .rsolve import make_request, rcheck_resonant, solve_intertwiner
from .tensorops import (commutant_residual, cyclic_left_shift, embedded_matmul,
                        permuted_matmul, relative_residual, site_matmul, swap_outputs)

_ARG_TOL = 1e-12
PROBE_COLUMNS = 8


def _complex_gaussian(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def probe_vector(D: int, seed=0) -> np.ndarray:
    """Column 0 of probe_block(D, seed), drawn alone."""
    return _complex_gaussian(np.random.default_rng(seed), D)


def probe_block(D: int, seed=0) -> np.ndarray:
    """D x min(PROBE_COLUMNS, D) complex Gaussian block drawn from default_rng(seed).

    Column 0 is drawn first, as one standard_normal(D) real and one
    imaginary part, so it is probe_vector(D, seed), the single probe vector
    that a seeded check draws; the other columns follow.
    """
    rng = np.random.default_rng(seed)
    return np.column_stack([_complex_gaussian(rng, D),
                            _complex_gaussian(rng, (D, min(PROBE_COLUMNS, D) - 1))])


@dataclass(frozen=True)
class DeltaAssignment:
    """Recipe for a per-site twist map.

    sources (d = (-1)^m; (Xtilde^-1)^t Xtilde = (-1)^m X):
      self_dual_pair: d^{n-1} (Xtilde^-1)^t Xtilde A_alpha = (-1)^{mn} X A_alpha
      general_v:      X_V A_alpha
      general_vstar:  X_{V*} A_alpha^{V*}
    Each X A_alpha is one reps.twist, at nu = 2 s1/s - 1 + alpha.  A scalar
    phi(zeta) in front would multiply both sides of every checked identity
    alike, so it is left out.
    """

    source: str
    alpha: complex = 0.0
    n: int = 1

    def __post_init__(self):
        if self.source not in ("self_dual_pair", "general_v", "general_vstar"):
            raise ConfigError(f"unknown delta source {self.source!r}")


def build_delta(assign: DeltaAssignment, m: int, grading: GradingChoice,
                ctx: QContext) -> np.ndarray:
    """Twist matrix of the assignment (it does not depend on zeta)."""
    kind = "V*" if assign.source == "general_vstar" else "V"
    sign = (-1.0) ** (m * assign.n) if assign.source == "self_dual_pair" else 1.0
    return sign * twist(kind, 2.0 * grading.s1 / grading.s - 1.0 + assign.alpha, m, ctx)


@dataclass(frozen=True)
class ChainSpec:
    """An N-site qKZ configuration."""

    m: int
    grading: GradingChoice
    ctx: QContext
    kinds: tuple
    etas: tuple
    p: complex
    deltas: tuple
    normalization: str = "kappa"

    def __post_init__(self):
        N = len(self.kinds)
        if N < 2 or N % 2 != 0:
            raise ConfigError("chain length must be even and >= 2")
        if len(self.etas) != N or len(self.deltas) != N:
            raise ConfigError("kinds, etas and deltas must have equal length")
        if self.p == 0:
            raise ConfigError("shift p must be nonzero")
        for k in self.kinds:
            if k not in ("V", "V*"):
                raise ConfigError("site kinds must be 'V' or 'V*'")

    @property
    def N(self) -> int:
        return len(self.kinds)

    @property
    def dims(self) -> tuple:
        return (self.m + 1,) * self.N

    def delta_matrix(self, i: int) -> np.ndarray:
        return build_delta(self.deltas[i], self.m, self.grading, self.ctx)

    def with_eta(self, i: int, value: complex) -> "ChainSpec":
        etas = list(self.etas)
        etas[i] = value
        return ChainSpec(self.m, self.grading, self.ctx, self.kinds, tuple(etas),
                         self.p, self.deltas, self.normalization)


def _requests(chain, infos) -> list:
    """The request of each factor (kind1, z1, kind2, z2) in infos, or None for
    the removable (V,V) resonance z1 = q^delta z2 of the kappa-normalized
    family, which takes its closed form."""
    qd = complex(chain.ctx.q) ** sl2_constants(chain.grading)["delta"]
    return [None if (chain.normalization == "kappa" and k1 == k2 == "V"
                     and abs(z1 - qd * z2) <= _ARG_TOL * abs(z1))
            else make_request(k1, z1, k2, z2, chain.m, chain.grading, chain.ctx,
                              chain.normalization)
            for k1, z1, k2, z2 in infos]


def factor_requests(chain, infos) -> list:
    """The requests that rcheck_factors passes to solve_intertwiner for the
    factors in infos, in order: the resonant ones make none."""
    return [req for req in _requests(chain, infos) if req is not None]


def _two_site(*strings) -> list:
    """The two-site factors (kind1, z1, kind2, z2) of the factor strings, in order."""
    return [info for steps in strings for tag, _, info in steps if tag in ("R", "Rcheck")]


def string_requests(chain, *strings) -> list:
    """The requests of the two-site factors of the factor strings, in order."""
    return factor_requests(chain, _two_site(*strings))


def rcheck_factors(chain, infos, cache=None, check_invertible=True) -> list:
    """Rcheck of each chain factor (kind1, z1, kind2, z2) in infos, the solved
    ones requested in one solve_intertwiner call (those of factor_requests); the
    removable (V,V) resonance z1 = q^delta z2 of the kappa-normalized family
    takes its closed form and is not requested.  `chain` supplies m,
    grading, ctx and normalization (a ChainSpec or a reduction case).  With
    check_invertible=False a singular factor is returned, not refused."""
    reqs = _requests(chain, infos)
    wanted = [req for req in reqs if req is not None]
    solved = iter(solve_intertwiner(wanted, cache, check_invertible) if wanted else [])
    return [rcheck_resonant(chain.m, chain.grading, chain.ctx) if req is None
            else next(solved).Rcheck for req in reqs]


def apply_factors(chain: ChainSpec, steps, cache=None, block=None,
                  check_invertible=True) -> np.ndarray:
    """A factor string (steps in application order, see the module docstring)
    applied to `block`, the identity (dense matrix) by default.  A two-site
    factor has its first tensor factor on site i and R = P Rcheck; all of
    them are requested in one call (rcheck_factors)."""
    dims, d = chain.dims, chain.m + 1
    M = np.eye(prod(dims), dtype=complex) if block is None else block
    rchecks = iter(rcheck_factors(chain, _two_site(steps), cache, check_invertible))
    for tag, where, info in steps:
        if tag == "delta":
            M = site_matmul(chain.delta_matrix(info), where, dims, M)
        elif tag == "perm":
            M = permuted_matmul(where, dims, M)
        elif tag in ("R", "Rcheck"):
            Rc = next(rchecks)
            M = embedded_matmul(swap_outputs(Rc, d, d) if tag == "R" else Rc, *where, dims, M)
        else:
            raise ConfigError(f"unknown factor tag {tag!r}")
    return M


def lambda_factor_specs(chain: ChainSpec, i: int):
    """Factor string of the one-step operator at site i, in application order.

    Written order (leftmost applied last):
    Rcheck^{(i,i+1)}(eta_{i+1}|p eta_i) .. Rcheck^{(N-2,N-1)}(eta_{N-1}|p eta_i)
    P_lambda Delta_i^{(0)} Rcheck^{(0,1)}(eta_0|eta_i) .. Rcheck^{(i-1,i)}(eta_{i-1}|eta_i),
    each Rcheck between the kinds of its first site and of the mover i.
    """
    N = chain.N
    if not 0 <= i < N:
        raise ConfigError("site index out of range")
    kmov = chain.kinds[i]
    steps = [("Rcheck", (k, k + 1), (chain.kinds[k], chain.etas[k], kmov, chain.etas[i]))
             for k in range(i - 1, -1, -1)]
    steps += [("delta", 0, i), ("perm", cyclic_left_shift(N), None)]
    steps += [("Rcheck", (k, k + 1), (chain.kinds[k + 1], chain.etas[k + 1],
                                      kmov, chain.p * chain.etas[i]))
              for k in range(N - 2, i - 1, -1)]
    return steps


def _rewritten_factors(chain: ChainSpec, i: int) -> list:
    """The factors of lambda_rewritten in application order: R^{(k,i)}(eta_k|eta_i)
    for k = i-1 .. 0, the twist of site i, then R^{(k,i)}(eta_k|p eta_i)
    for k = N-1 .. i+1 (written order: the reverse)."""
    kinds, etas = chain.kinds, chain.etas
    return ([("R", (k, i), (kinds[k], etas[k], kinds[i], etas[i])) for k in range(i - 1, -1, -1)]
            + [("delta", (i,), None)]
            + [("R", (k, i), (kinds[k], etas[k], kinds[i], chain.p * etas[i]))
               for k in range(chain.N - 1, i, -1)])


def lambda_rewritten(chain: ChainSpec, i: int, cache=None, block=None) -> np.ndarray:
    """The same operator assembled from plain R factors and no permutation,
    applied to `block` (the identity by default).

    Every factor, an R factor on its two sites or the twist on its site,
    is contracted into the block reshaped to (d, ..., d, k) by one
    `np.einsum` (`_einsum_apply`), an evaluation route that shares no
    code with the `embedded_matmul`/`site_matmul` application of
    `apply_factors` and forms no D x D matrix.
    """
    dims = chain.dims
    d = chain.m + 1
    M = np.eye(prod(dims), dtype=complex) if block is None else block
    factors = _rewritten_factors(chain, i)
    rchecks = iter(rcheck_factors(chain, _two_site(factors), cache))
    for tag, where, info in factors:
        if tag == "delta":
            M = _einsum_apply(chain.delta_matrix(where[0]), where, dims, M)
        else:
            M = _einsum_apply(swap_outputs(next(rchecks), d, d), where, dims, M)
    return M


def _einsum_apply(op, sites, dims, M):
    """Left-multiply M by the matrix `op` acting on `sites` (first factor on
    sites[0]), through one einsum over the block reshaped to (dims..., k)."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    block = letters[:len(dims) + 1]
    fresh = letters[len(dims) + 1:len(dims) + 1 + len(sites)]
    out = list(block)
    for s, f in zip(sites, fresh):
        out[s] = f
    spec = f"{fresh}{''.join(block[s] for s in sites)},{block}->{''.join(out)}"
    T = op.reshape(tuple(dims[s] for s in sites) * 2)
    return np.einsum(spec, T, M.reshape(dims + (M.shape[1],))).reshape(M.shape)


def lambda_op(chain: ChainSpec, i: int, cache=None, block=None) -> np.ndarray:
    """One-step qKZ operator for site i applied to `block` (default: its dense matrix)."""
    return apply_factors(chain, lambda_factor_specs(chain, i), cache, block)


def lambda_forms_requests(chain: ChainSpec, i: int) -> list:
    """The requests of lambda_forms_residual: both forms of Lambda_i."""
    return string_requests(chain, lambda_factor_specs(chain, i), _rewritten_factors(chain, i))


def lambda_forms_residual(chain: ChainSpec, i: int, cache=None) -> float:
    """Relative residual between the two forms of Lambda_i on the probe block."""
    X = probe_block(prod(chain.dims))
    M = lambda_op(chain, i, cache, X)
    return relative_residual(M, lambda_rewritten(chain, i, cache, X))


def _cancels(step_a, step_b) -> bool:
    """Adjacent unitarity pair Rcheck_{A|B}(x|y) Rcheck_{B|A}(y|x) = id."""
    ta, sa, ia = step_a
    tb, sb, ib = step_b
    if ta != "Rcheck" or tb != "Rcheck" or sa != sb:
        return False
    k1a, z1a, k2a, z2a = ia
    k1b, z1b, k2b, z2b = ib
    same = (k1a == k2b and k2a == k1b
            and abs(z1a - z2b) <= _ARG_TOL * max(1.0, abs(z1a))
            and abs(z2a - z1b) <= _ARG_TOL * max(1.0, abs(z2a)))
    return same


def regularized_strings(chain_a: ChainSpec, i_a: int, chain_b: ChainSpec, i_b: int) -> tuple:
    """The factor strings (of Lambda_a, of Lambda_b) of lambda_product_regularized,
    the junction pair cancelled when it is one."""
    steps_a = lambda_factor_specs(chain_a, i_a)
    steps_b = lambda_factor_specs(chain_b, i_b)
    # application order steps_b + steps_a: the junction is b's last step and a's first
    if _cancels(steps_a[0], steps_b[-1]):
        return steps_a[1:], steps_b[:-1]
    return steps_a, steps_b


def lambda_product_regularized(chain_a: ChainSpec, i_a: int, chain_b: ChainSpec,
                               i_b: int, cache=None, block=None) -> np.ndarray:
    """Product Lambda_a(chain_a) Lambda_b(chain_b) with the adjacent
    mutually-inverse Rcheck pair at the junction cancelled exactly, applied
    to `block` (default: the dense product).

    At the mirrored argument tuples of the reduction construction the two
    junction factors are mixed-kind operators at coincident arguments;
    individually they are singular (one direction is a pole of the
    normalized family), while their product is the identity by the
    unitarity relation.  Cancelling the pair evaluates the product of the
    meromorphic factor strings at the removable point.
    """
    steps_a, steps_b = regularized_strings(chain_a, i_a, chain_b, i_b)
    return apply_factors(chain_a, steps_a, cache, apply_factors(chain_b, steps_b, cache, block))


def _ddr_factor(chain: ChainSpec, j: int, k: int) -> tuple:
    return chain.kinds[j], chain.etas[j], chain.kinds[k], chain.etas[k]


def ddr_requests(chain: ChainSpec, j: int, k: int) -> list:
    """The request of check_ddr: R between sites j and k."""
    return factor_requests(chain, [_ddr_factor(chain, j, k)])


def check_ddr(chain: ChainSpec, j: int, k: int, cache=None) -> VerificationReport:
    """Commutation of the twist pair with the two-site R operator."""
    dj = chain.delta_matrix(j)
    dk = chain.delta_matrix(k)
    Rc, = rcheck_factors(chain, [_ddr_factor(chain, j, k)], cache)
    d = chain.m + 1
    resid = commutant_residual(dj, dk, swap_outputs(Rc, d, d))
    return VerificationReport.make(
        "ddr", {"j": j, "k": k, "m": chain.m, "kinds": [chain.kinds[j], chain.kinds[k]],
                "source": [chain.deltas[j].source, chain.deltas[k].source]},
        resid, 1e-11)


def _compatibility_sides(chain: ChainSpec, i: int, j: int) -> list:
    """The one-step operators (chain, site) of each side of check_qkz_compatibility,
    in application order: Lj then Li on the chain with eta_j -> p eta_j, and
    Li then Lj on the chain with eta_i -> p eta_i."""
    return [[(chain, b), (chain.with_eta(b, chain.p * chain.etas[b]), a)]
            for a, b in ((i, j), (j, i))]


def compatibility_requests(chain: ChainSpec, i: int, j: int) -> list:
    """The requests of check_qkz_compatibility: its four one-step operators."""
    return string_requests(chain, *(lambda_factor_specs(c, site)
                                    for side in _compatibility_sides(chain, i, j)
                                    for c, site in side))


def check_qkz_compatibility(chain: ChainSpec, i: int, j: int, cache=None) -> VerificationReport:
    """Residual of Lambda_i(eta_j -> p eta_j) Lambda_j - Lambda_j(eta_i -> p eta_i) Lambda_i
    on the probe block X: Li_shift(Lj X) against Lj_shift(Li X)."""
    X = probe_block(prod(chain.dims))
    left, right = (lambda_op(c2, s2, cache, lambda_op(c1, s1, cache, X))
                   for (c1, s1), (c2, s2) in _compatibility_sides(chain, i, j))
    return VerificationReport.make(
        "qkz_compatibility", {"i": i, "j": j, "N": chain.N, "m": chain.m},
        relative_residual(left, right), 1e-9)


def transport_steps(chain: ChainSpec, word) -> tuple:
    """The factor string of transport_phi along the word, one Rcheck step per
    letter, and the order it ends in (order[k]: the original site now at k)."""
    order = list(range(chain.N))
    steps = []
    for k in word:
        if not 0 <= k < chain.N - 1:
            raise ConfigError("word entry out of range")
        a, b = order[k], order[k + 1]
        steps.append(("Rcheck", (k, k + 1),
                      (chain.kinds[a], chain.etas[a], chain.kinds[b], chain.etas[b])))
        order[k], order[k + 1] = order[k + 1], order[k]
    return steps, order


def transport_phi(chain: ChainSpec, tensor: np.ndarray, word, cache=None):
    """Apply the exchange recurrence along a word of adjacent transpositions,
    one Rcheck step per letter (apply_factors).

    Returns (tensor, order) where order[k] is the original site now at
    position k; the result is independent of the chosen word for a fixed
    final permutation.
    """
    steps, order = transport_steps(chain, word)
    vec = apply_factors(chain, steps, cache, np.asarray(tensor, dtype=complex).reshape(-1, 1))
    return vec.reshape(chain.dims), order
