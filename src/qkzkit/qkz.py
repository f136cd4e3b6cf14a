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

Every operator is applied to a start block of columns, the identity by
default (which gives the dense matrix).  The checks apply both sides of
an identity A = B to the same seeded complex Gaussian probe block X of
PROBE_COLUMNS columns (Freivalds' test): ||(A - B) X|| / ||A X|| estimates
the relative Frobenius residual without forming A or B.
"""

import time
from dataclasses import dataclass
from math import prod

import numpy as np

from .context import QContext
from .errors import ConfigError
from .report import VerificationReport
from .reps import GradingChoice, sl2_constants, twist
from .rsolve import make_request, r_matrix, rcheck_resonant, solve_intertwiner
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


def rcheck_factors(chain, infos, cache=None, check_invertible=True) -> list:
    """Rcheck of each chain factor (kind1, z1, kind2, z2) in infos, the solved
    ones requested in one solve_intertwiner call; the removable (V,V)
    resonance z1 = q^delta z2 of the kappa-normalized family takes its
    closed form and is not requested.  `chain` supplies m, grading, ctx and
    normalization (a ChainSpec or a reduction case).  With
    check_invertible=False a singular factor is returned, not refused."""
    qd = complex(chain.ctx.q) ** sl2_constants(chain.grading)["delta"]
    resonant = [chain.normalization == "kappa" and k1 == k2 == "V"
                and abs(z1 - qd * z2) <= _ARG_TOL * abs(z1) for k1, z1, k2, z2 in infos]
    reqs = [make_request(k1, z1, k2, z2, chain.m, chain.grading, chain.ctx, chain.normalization)
            for (k1, z1, k2, z2), r in zip(infos, resonant) if not r]
    solved = iter(solve_intertwiner(reqs, cache, check_invertible) if reqs else [])
    return [rcheck_resonant(chain.m, chain.grading, chain.ctx) if r else next(solved).Rcheck
            for r in resonant]


def apply_factors(chain: ChainSpec, steps, cache=None, block=None,
                  check_invertible=True) -> np.ndarray:
    """A factor string (steps in application order, see the module docstring)
    applied to `block`, the identity (dense matrix) by default.  A two-site
    factor has its first tensor factor on site i and R = P Rcheck; all of
    them are requested in one call (rcheck_factors)."""
    dims, d = chain.dims, chain.m + 1
    M = np.eye(prod(dims), dtype=complex) if block is None else block
    rchecks = iter(rcheck_factors(
        chain, [info for tag, _, info in steps if tag in ("R", "Rcheck")], cache,
        check_invertible))
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
    factors = []
    for k in range(i + 1, chain.N):
        factors.append(("R", (k, i), (chain.kinds[k], chain.etas[k],
                                      chain.kinds[i], chain.p * chain.etas[i])))
    factors.append(("delta", (i,), None))
    for k in range(0, i):
        factors.append(("R", (k, i), (chain.kinds[k], chain.etas[k],
                                      chain.kinds[i], chain.etas[i])))
    rchecks = iter(rcheck_factors(
        chain, [info for tag, _, info in reversed(factors) if tag == "R"], cache))
    for tag, where, info in reversed(factors):
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
    steps_a = lambda_factor_specs(chain_a, i_a)
    steps_b = lambda_factor_specs(chain_b, i_b)
    # application order steps_b + steps_a: the junction is b's last step and a's first
    if _cancels(steps_a[0], steps_b[-1]):
        steps_a, steps_b = steps_a[1:], steps_b[:-1]
    return apply_factors(chain_a, steps_a, cache, apply_factors(chain_b, steps_b, cache, block))


def check_ddr(chain: ChainSpec, j: int, k: int, cache=None) -> VerificationReport:
    """Commutation of the twist pair with the two-site R operator."""
    t0 = time.perf_counter()
    dj = chain.delta_matrix(j)
    dk = chain.delta_matrix(k)
    res = r_matrix(chain.kinds[j], chain.etas[j], chain.kinds[k], chain.etas[k],
                   chain.m, chain.grading, chain.ctx,
                   normalization=chain.normalization, cache=cache)
    resid = commutant_residual(dj, dk, res.R)
    return VerificationReport.make(
        "ddr", {"j": j, "k": k, "m": chain.m, "kinds": [chain.kinds[j], chain.kinds[k]],
                "source": [chain.deltas[j].source, chain.deltas[k].source]},
        resid, 1e-11, t0)


def check_qkz_compatibility(chain: ChainSpec, i: int, j: int, cache=None) -> VerificationReport:
    """Residual of Lambda_i(eta_j -> p eta_j) Lambda_j - Lambda_j(eta_i -> p eta_i) Lambda_i
    on the probe block X: Li_shift(Lj X) against Lj_shift(Li X)."""
    t0 = time.perf_counter()
    X = probe_block(prod(chain.dims))
    left = lambda_op(chain.with_eta(j, chain.p * chain.etas[j]), i, cache,
                     lambda_op(chain, j, cache, X))
    right = lambda_op(chain.with_eta(i, chain.p * chain.etas[i]), j, cache,
                      lambda_op(chain, i, cache, X))
    return VerificationReport.make(
        "qkz_compatibility", {"i": i, "j": j, "N": chain.N, "m": chain.m},
        relative_residual(left, right), 1e-9, t0)


def transport_phi(chain: ChainSpec, tensor: np.ndarray, word, cache=None):
    """Apply the exchange recurrence along a word of adjacent transpositions,
    one Rcheck step per letter (apply_factors).

    Returns (tensor, order) where order[k] is the original site now at
    position k; the result is independent of the chosen word for a fixed
    final permutation.
    """
    order = list(range(chain.N))
    steps = []
    for k in word:
        if not 0 <= k < chain.N - 1:
            raise ConfigError("word entry out of range")
        a, b = order[k], order[k + 1]
        steps.append(("Rcheck", (k, k + 1),
                      (chain.kinds[a], chain.etas[a], chain.kinds[b], chain.etas[b])))
        order[k], order[k + 1] = order[k + 1], order[k]
    vec = apply_factors(chain, steps, cache, np.asarray(tensor, dtype=complex).reshape(-1, 1))
    return vec.reshape(chain.dims), order
