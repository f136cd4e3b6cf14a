"""qKZ operators as factor strings, and the solving checks as records.

A chain is N sites, each a spin-m module V or its dual V*, with spectral
parameters eta_i and a multiplicative shift p.  The one-step operator for
site i is a product of two-site Rcheck factors, the cyclic left shift and
the site twist embedded at slot 0; it also has a rewritten form with R
factors only, and both must agree.

The one-step operators, the reduction composite (`reduction`) and
exchange transport are factor strings: lists of steps in application
order, ("Rcheck" | "R", (i, j), (kind1, z1, kind2, z2)) for a two-site
factor on sites (i, j), ("delta", slot, site) for the twist of `site` at
`slot` and ("perm", sigma, None) for a site permutation.

Every check that solves R-operators is a record built from data.  A
`StringCheck` names its sides, each a stack of factor strings with one step
pattern and the route that applies it (`apply_factors`; `einsum`, whose
tensor contractions share no code with it; or `dense`, `apply_factors` on
the identity block), and the pairs of sides that must agree, slice by
slice.  Most sides are a stack of one string; the YBE check stacks the
strings of all its samples, so each step of a side is one stacked product
for every sample.  numpy's stacked matmul calls the same gemm on each
slice as on one string's block, so slice s has the bits of string s
applied alone.  A `FactorCheck` declares the two-site factors that its own
arithmetic reads.  Either states once what
it reads (`reads`).  `solve_records`, the only solver
call of `qkz`, `reduction` and `idsuite`, requests each distinct factor of
those reads once, solves them for all its records in one call and returns
one factor reader; each record then reads every factor by name, (chain,
info), at the step that uses it (`evaluate`).  A `cli` suite run solves
the records of all its check groups in one solve_records call; the public
check function (`solving_check`) runs one record through `run_records`,
which is solve_records followed by the evaluation.

Each side is applied to the seeded complex Gaussian probe block X of
PROBE_COLUMNS columns (Freivalds' test): ||(A - B) X|| / ||A X||
estimates the relative Frobenius residual without forming A or B.  A run
(`run_records`, or a `cli` suite run) draws each block once
(`probe_blocks`) and its records read it, read-only.
"""

from collections import namedtuple
from functools import wraps
from math import prod
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .context import QContext
from .errors import ConfigError
from .report import VerificationReport, fold, worst_of
from .reps import GradingChoice, sl2_constants, twist
from .rsolve import make_request, rcheck_resonant, read_result, solve_requests
from .tensorops import (commutant_residual, cyclic_left_shift, relative_residual,
                        relative_residuals, string_matmul, swap_outputs)

_ARG_TOL = 1e-12
PROBE_COLUMNS = 8
E2E_TOLERANCE = 1e-8  # the end-to-end gate of a check with an extraction map


def probe_block(D: int, seed=0, columns=PROBE_COLUMNS) -> np.ndarray:
    """D x k complex Gaussian block, k = min(columns, D), drawn from
    default_rng(seed) in one standard_normal(2 D k) call.

    Column 0 is drawn first, its D real parts then its D imaginary parts, so
    the one-column block is the single probe vector that a seeded check reads,
    column 0 of every wider block; the real and then the imaginary parts of
    the other k - 1 columns follow, row by row.  A check draws only the
    columns that it reads.
    """
    k = min(columns, D)
    draw = np.random.default_rng(seed).standard_normal(2 * D * k)
    X = np.empty((D, k), dtype=complex)
    X.real[:, 0], X.imag[:, 0] = draw[:D], draw[D:2 * D]
    rest = draw[2 * D:].reshape(2, D, k - 1)
    X.real[:, 1:], X.imag[:, 1:] = rest
    return X


def probe_blocks():
    """The probe blocks of one record run: probe(D, seed, columns) is
    probe_block(D, seed, columns), drawn once per (D, seed, width) and kept
    read-only, so the records of the run that read one block share it.  The
    blocks live with the returned function, the run, and in no module cache."""
    kept = {}

    def probe(D, seed=0, columns=PROBE_COLUMNS):
        key = (D, seed, min(columns, D))
        if key not in kept:
            kept[key] = probe_block(D, seed, columns)
            kept[key].flags.writeable = False
        return kept[key]
    return probe


class DeltaAssignment(namedtuple("DeltaAssignment", "source alpha n")):
    """Recipe for a per-site twist map.

    sources (d = (-1)^m; (Xtilde^-1)^t Xtilde = (-1)^m X):
      self_dual_pair: d^{n-1} (Xtilde^-1)^t Xtilde A_alpha = (-1)^{mn} X A_alpha
      general_v:      X_V A_alpha
      general_vstar:  X_{V*} A_alpha^{V*}
    Each X A_alpha is one reps.twist, at nu = 2 s1/s - 1 + alpha.  A scalar
    phi(zeta) in front would multiply both sides of every checked identity
    alike, so it is left out.
    """

    __slots__ = ()

    def __new__(cls, source, alpha=0.0, n=1):
        if source not in ("self_dual_pair", "general_v", "general_vstar"):
            raise ConfigError(f"unknown delta source {source!r}")
        return tuple.__new__(cls, (source, alpha, n))


def build_delta(assign: DeltaAssignment, m: int, grading: GradingChoice,
                ctx: QContext) -> np.ndarray:
    """Twist matrix of the assignment (it does not depend on zeta)."""
    kind = "V*" if assign.source == "general_vstar" else "V"
    sign = (-1.0) ** (m * assign.n) if assign.source == "self_dual_pair" else 1.0
    return sign * twist(kind, 2.0 * grading.s1 / grading.s - 1.0 + assign.alpha, m, ctx)


class ChainSpec(namedtuple("ChainSpec", "m grading ctx kinds etas p deltas normalization")):
    """An N-site qKZ configuration."""

    __slots__ = ()

    def __new__(cls, m, grading, ctx, kinds, etas, p, deltas, normalization="kappa"):
        N = len(kinds)
        if N < 2 or N % 2 != 0:
            raise ConfigError("chain length must be even and >= 2")
        if len(etas) != N or len(deltas) != N:
            raise ConfigError("kinds, etas and deltas must have equal length")
        if p == 0:
            raise ConfigError("shift p must be nonzero")
        for k in kinds:
            if k not in ("V", "V*"):
                raise ConfigError("site kinds must be 'V' or 'V*'")
        return tuple.__new__(cls, (m, grading, ctx, kinds, etas, p, deltas, normalization))

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


class Sites(NamedTuple):
    """n sites of spin m and no twists, for the checks that need no qKZ chain: what
    the factor functions read of a ChainSpec (m, grading, ctx, normalization, dims)."""

    m: int
    grading: GradingChoice
    ctx: QContext
    normalization: str = "hw"
    n: int = 2

    @property
    def dims(self) -> tuple:
        return (self.m + 1,) * self.n


def _requests(chain, infos) -> list:
    """The request of each factor info = (kind1, z1, kind2, z2) of the chain,
    or None for the removable (V,V) resonance z1 = q^delta z2 of the
    kappa-normalized family, which takes its closed form; q^delta is formed
    once, at the first (V,V) factor."""
    kappa, qd, out = chain.normalization == "kappa", None, []
    for k1, z1, k2, z2 in infos:
        if kappa and k1 == k2 == "V":
            qd = qd or complex(chain.ctx.q) ** sl2_constants(chain.grading)["delta"]
            if abs(z1 - qd * z2) <= _ARG_TOL * abs(z1):
                out.append(None)
                continue
        out.append(make_request(k1, z1, k2, z2, chain.m, chain.grading, chain.ctx,
                                chain.normalization))
    return out


def _two_site(steps) -> list:
    """The two-site factors (kind1, z1, kind2, z2) of a factor string, in order."""
    return [info for tag, _, info in steps if tag in ("R", "Rcheck")]


def apply_factors(chain, strings, factor, block=None, check_invertible=True,
                  einsum=False) -> np.ndarray:
    """A stack of S factor strings with one step pattern (steps in application
    order, see the module docstring and Side) applied to `block`, the
    identity (dense matrices) by default: an (S, D, k) array whose slice s
    is string s applied, with the bits of string s applied alone.  A
    two-site factor has its first tensor factor on site i, and each is read
    by name from `factor`, the reader of solve_records (`_slot_steps`), so
    the first failing read is the one that the strings applied one at a
    time meet first.  One `string_matmul` pass applies the stack to the
    block: each two-site step is the (S, d^2, d^2) stack of its factors, an
    R step applies its Rcheck and trades the labels
    of its two sites (R = P Rcheck), and a permutation only relabels.  With
    einsum=True (the einsum route, which has no permutation step) each
    string is applied on its own, each factor read at its step and
    contracted into the block reshaped to (d, ..., d, k) by one `np.einsum`
    (`_einsum_apply`), which shares no tensor code with `string_matmul` and
    forms no D x D matrix."""
    M = np.eye(prod(chain.dims), dtype=complex) if block is None else block
    if einsum:
        outs = [_einsum_string(chain, steps, factor, check_invertible, M) for steps in strings]
        return np.stack(outs) if len(outs) > 1 else outs[0][None]
    # every slice reads the one block (np.broadcast_to costs more than the view of one)
    M = np.broadcast_to(M, (len(strings), *M.shape)) if len(strings) > 1 else M[None]
    return string_matmul(_slot_steps(chain, strings, factor, check_invertible), chain.dims, M)


def _slot_steps(chain, strings, factor, check_invertible):
    """The string_matmul steps of a stack of factor strings.  The factors are
    read string by string, each string in application order, before the
    first step, and each two-site step is the stack of its strings' factors."""
    stacks = iter(np.array(list(zip(*(
        [factor(chain, info, check_invertible) for info in _two_site(steps)]
        for steps in strings)))))
    for tag, where, info in strings[0]:
        if tag == "delta":
            yield chain.delta_matrix(info), (where,)
        elif tag == "perm":
            yield None, where
        elif tag in ("R", "Rcheck"):
            yield next(stacks), where
            if tag == "R":
                i, j = where
                swap = list(range(len(chain.dims)))
                swap[i], swap[j] = j, i
                yield None, swap
        else:
            raise ConfigError(f"unknown factor tag {tag!r}")


def _einsum_string(chain, steps, factor, check_invertible, M):
    """One factor string applied to M by the einsum route, each factor read at its step."""
    dims, d = chain.dims, chain.m + 1
    for tag, where, info in steps:
        if tag == "delta":
            M = _einsum_apply(chain.delta_matrix(info), (where,), dims, M)
        elif tag in ("R", "Rcheck"):
            Rc = factor(chain, info, check_invertible)
            M = _einsum_apply(swap_outputs(Rc, d, d) if tag == "R" else Rc, where, dims, M)
        else:
            raise ConfigError(f"unknown factor tag {tag!r}")
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


def _pattern(steps) -> list:
    """A factor string's step pattern: its steps without the two-site factors' infos."""
    return [(tag, where, None if tag in ("R", "Rcheck") else info) for tag, where, info in steps]


class Side(namedtuple("Side", "strings route check_invertible")):
    """One operator of a string check, or a stack of them: a tuple of factor
    strings (each a tuple of steps) with one step pattern (the same tags,
    sites, twists and permutations; only the two-site factors' infos differ),
    the route that applies them, and whether a singular solved factor is
    refused.  Most sides are a stack of one string."""

    __slots__ = ()

    def __new__(cls, strings, route="apply_factors", check_invertible=True):
        if route not in ("apply_factors", "einsum", "dense"):
            raise ConfigError(f"unknown route {route!r}")
        if not strings:
            raise ConfigError("a side stacks at least one factor string")
        if len(strings) > 1 and any(_pattern(steps) != _pattern(strings[0])
                                    for steps in strings[1:]):
            raise ConfigError("the strings of a side differ in their step pattern")
        return tuple.__new__(cls, (strings, route, check_invertible))

    def apply(self, chain, factor, block) -> np.ndarray:
        """This side applied to `block` by its route, its factors read from
        `factor` (the reader of solve_records): the (S, D, k) stack of
        apply_factors.  A dense side reads no probe: it is its strings
        applied to the identity, the operators' matrices."""
        return apply_factors(chain, self.strings, factor,
                             None if self.route == "dense" else block,
                             self.check_invertible, einsum=self.route == "einsum")


class StringCheck(NamedTuple):
    """A check that compares sides applied to one probe block.

    The sides are applied in order, each reading its factors by name, to
    probe_block(D, seed, columns), drawn only as wide as it is read
    (PROBE_COLUMNS by default; a dense side reads no probe) and taken from
    the run's blocks (`probe`, see probe_blocks).  A (reference, other) pair
    of sides of S strings each gives S residuals, slice by slice, and the
    residual is the worst of all pairs' residuals; `pair_params` reports
    single residuals (name -> index in that list, pair by pair and slice by
    slice: the pair index when each side is one string).  An `extract` map
    also compares extract(side 1 column 0) with extract(side 0 column 0) of
    the first slices (report.fold).
    """

    name: str
    params: dict
    tolerance: float
    chain: object
    sides: tuple
    pairs: tuple = ((0, 1),)
    seed: int = 0
    columns: int = PROBE_COLUMNS
    extract: object = None
    pair_params: dict = MappingProxyType({})

    def reads(self) -> list:
        """One (chain, infos) entry: the two-site factors of every string of every side."""
        return [(self.chain, [info for side in self.sides for steps in side.strings
                              for info in _two_site(steps)])]

    def evaluate(self, factor, probe=probe_block) -> VerificationReport:
        """The report, its factors read from `factor` (the reader of
        solve_records) and its probe block from `probe` (a fresh draw by
        default)."""
        X = probe(prod(self.chain.dims), self.seed, self.columns)
        ops = [side.apply(self.chain, factor, X) for side in self.sides]
        resids = [r for a, b in self.pairs for r in relative_residuals(ops[a], ops[b])]
        params = dict(self.params, **{name: resids[k] for name, k in self.pair_params.items()})
        resid = worst_of(resids)
        if self.extract is not None:  # both residuals reported, folded on the operator scale
            e2e = relative_residual(self.extract(ops[1][0][:, 0]), self.extract(ops[0][0][:, 0]))
            params.update(operator_residual=float(resid), e2e_residual=float(e2e),
                          e2e_tolerance=E2E_TOLERANCE)
            resid = fold(resid, self.tolerance, e2e, E2E_TOLERANCE)
        return VerificationReport.make(self.name, params, resid, self.tolerance)


class FactorCheck(NamedTuple):
    """A check that reads two-site factors directly: `factors` lists (chain,
    infos) entries, each info (kind1, z1, kind2, z2) in the chain's
    normalization, and measure(read, probe) makes the report, where
    read(chain, info[, check_invertible]) is the Rcheck of a declared factor
    (the reader of solve_records, refusing a singular one with
    check_invertible) and probe(D, seed, columns) a probe block of the run
    (see probe_blocks), for a measure that applies its factors to one."""

    factors: tuple
    measure: object
    check_invertible: bool = False

    def reads(self) -> tuple:
        """(chain, infos) of each entry: the factors that this record reads."""
        return self.factors

    def evaluate(self, factor, probe=probe_block) -> VerificationReport:
        """The report, its factors read from `factor` (the reader of
        solve_records) and a probe block from `probe` (a fresh draw by default)."""
        return self.measure(lambda chain, info, check_invertible=self.check_invertible:
                            factor(chain, info, check_invertible), probe)


def solve_records(records, cache=None):
    """The factor reader of check records: factor(chain, info,
    check_invertible=True) is the Rcheck of a factor info = (kind1, z1,
    kind2, z2) that a record declares (rec.reads()), in the chain's m,
    grading, ctx and normalization; `chain` is a ChainSpec, a reduction case
    or Sites.  A solved factor is read by rsolve.read_result, so with
    check_invertible=False a singular one is returned; the removable (V,V)
    resonance z1 = q^delta z2 of the kappa-normalized family is not requested
    and reads its closed form (rcheck_resonant).  An undeclared factor raises
    KeyError.

    One solve_requests call solves every factor of the records; the cache
    (a fresh one by default) shares only the commutant templates.  Each
    distinct factor at (m, grading, ctx, normalization) is requested once,
    keyed by its info under that tuple, and every read of it reads that
    request's result.  A failed request raises its error when a record reads
    it, and a result does not depend on the call that solved it, so each
    record reports what it reports alone.
    """
    reqs, at = [], {}  # (m, grading, ctx, normalization) -> {info: its index in reqs, or None}
    for rec in records:
        for chain, infos in rec.reads():
            known = at.setdefault((chain.m, chain.grading, chain.ctx, chain.normalization), {})
            new = list(dict.fromkeys(info for info in infos if info not in known))
            for info, req in zip(new, _requests(chain, new)):
                known[info] = None if req is None else len(reqs)
                reqs.extend(() if req is None else (req,))
    results = solve_requests(reqs, cache)

    def factor(chain, info, check_invertible=True) -> np.ndarray:
        k = at[chain.m, chain.grading, chain.ctx, chain.normalization][info]
        if k is None:
            return rcheck_resonant(chain.m, chain.grading, chain.ctx)
        return read_result(results[k], check_invertible).Rcheck
    return factor


def run_records(records, cache=None) -> list:
    """The reports of check records, in order: each evaluated on the factor
    reader of one solve_records call (its templates from the cache, a fresh
    one by default) and the run's probe blocks (probe_blocks)."""
    factor, probe = solve_records(records, cache), probe_blocks()
    return [rec.evaluate(factor, probe) for rec in records]


def solving_check(build):
    """The check of a record builder: it takes the builder's arguments and a
    keyword `cache`, and runs the record in one solve (run_records) whose
    commutant templates that cache shares; no solved result is kept across
    checks.  `check.record` is the builder, for a check group that runs many
    records."""
    @wraps(build)
    def check(*args, cache=None, **kwargs):
        return run_records([build(*args, **kwargs)], cache)[0]
    check.record = build
    return check


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


def rewritten_factors(chain: ChainSpec, i: int) -> list:
    """The same operator from plain R factors and no permutation, for the
    einsum route: R^{(k,i)}(eta_k|eta_i) for k = i-1 .. 0, the twist of
    site i, then R^{(k,i)}(eta_k|p eta_i) for k = N-1 .. i+1 (application
    order; written order is the reverse)."""
    kinds, etas = chain.kinds, chain.etas
    return ([("R", (k, i), (kinds[k], etas[k], kinds[i], etas[i])) for k in range(i - 1, -1, -1)]
            + [("delta", i, i)]
            + [("R", (k, i), (kinds[k], etas[k], kinds[i], chain.p * etas[i]))
               for k in range(chain.N - 1, i, -1)])


@solving_check
def lambda_forms(chain: ChainSpec, sites) -> StringCheck:
    """Both forms of Lambda_i at each site i of `sites` agree on the probe block:
    the factor list through apply_factors (reference) against the plain-R
    form through the einsum route."""
    sides = [side for i in sites
             for side in (Side((tuple(lambda_factor_specs(chain, i)),)),
                          Side((tuple(rewritten_factors(chain, i)),), "einsum"))]
    return StringCheck("lambda_forms", {"N": chain.N, "m": chain.m}, 1e-10, chain, tuple(sides),
                       tuple((2 * k, 2 * k + 1) for k in range(len(sides) // 2)))


def _cancels(step_a, step_b) -> bool:
    """Adjacent unitarity pair Rcheck_{A|B}(x|y) Rcheck_{B|A}(y|x) = id."""
    (ta, sa, ia), (tb, sb, ib) = step_a, step_b
    if ta != "Rcheck" or tb != "Rcheck" or sa != sb:
        return False
    (k1a, z1a, k2a, z2a), (k1b, z1b, k2b, z2b) = ia, ib
    return (k1a == k2b and k2a == k1b and abs(z1a - z2b) <= _ARG_TOL * max(1.0, abs(z1a))
            and abs(z2a - z1b) <= _ARG_TOL * max(1.0, abs(z2a)))


def regularized_product(chain_a: ChainSpec, i_a: int, chain_b: ChainSpec, i_b: int) -> list:
    """Factor string of Lambda_a(chain_a) Lambda_b(chain_b) (Lambda_b applied
    first), with the adjacent mutually-inverse Rcheck pair at the junction
    cancelled exactly when it is one.

    At the mirrored argument tuples of the reduction construction the two
    junction factors are mixed-kind operators at coincident arguments;
    individually they are singular (one direction is a pole of the
    normalized family), while their product is the identity by the
    unitarity relation.  Cancelling the pair evaluates the product of the
    meromorphic factor strings at the removable point.  Both chains must
    share m, grading, ctx, normalization and twists (apply_factors reads
    those of one chain).
    """
    steps_a = lambda_factor_specs(chain_a, i_a)
    steps_b = lambda_factor_specs(chain_b, i_b)
    # application order steps_b + steps_a: the junction is b's last step and a's first
    if _cancels(steps_a[0], steps_b[-1]):
        return steps_b[:-1] + steps_a[1:]
    return steps_b + steps_a


def pair_commutator(name, params, chain, info, operators, check_invertible=False) -> FactorCheck:
    """The record of [C1 x C2, R] = 0 for the R of the factor info of `chain`
    (a chain or Sites); operators() builds C1, C2 before the factor is read."""
    def measure(read, probe):
        C1, C2 = operators()
        return VerificationReport.make(name, params, commutant_residual(
            C1, C2, swap_outputs(read(chain, info), chain.m + 1, chain.m + 1)), 1e-11)
    return FactorCheck(((chain, [info]),), measure, check_invertible)


@solving_check
def check_ddr(chain: ChainSpec, j: int, k: int) -> FactorCheck:
    """Commutation of the twist pair with the two-site R operator between sites j and k."""
    return pair_commutator(
        "ddr", {"j": j, "k": k, "m": chain.m, "kinds": [chain.kinds[j], chain.kinds[k]],
                "source": [chain.deltas[j].source, chain.deltas[k].source]},
        chain, (chain.kinds[j], chain.etas[j], chain.kinds[k], chain.etas[k]),
        lambda: (chain.delta_matrix(j), chain.delta_matrix(k)), check_invertible=True)


@solving_check
def check_qkz_compatibility(chain: ChainSpec, i: int, j: int) -> StringCheck:
    """Lambda_i(eta_j -> p eta_j) Lambda_j = Lambda_j(eta_i -> p eta_i) Lambda_i
    on the probe block: Lj then Li on the chain with eta_j shifted (reference)
    against Li then Lj on the chain with eta_i shifted."""
    sides = tuple(Side((tuple(lambda_factor_specs(chain, b) + lambda_factor_specs(
                      chain.with_eta(b, chain.p * chain.etas[b]), a)),))
                  for a, b in ((i, j), (j, i)))
    return StringCheck("qkz_compatibility", {"i": i, "j": j, "N": chain.N, "m": chain.m},
                       1e-9, chain, sides)


def transport_steps(chain: ChainSpec, word) -> tuple:
    """The factor string of the exchange recurrence along a word of adjacent
    transpositions, one Rcheck step per letter, and the order it ends in
    (order[k]: the original site now at position k); the transported tensor
    does not depend on the word for a fixed final permutation."""
    order = list(range(chain.N))
    steps = []
    for k in word:
        if not 0 <= k < chain.N - 1:
            raise ConfigError("word entry out of range")
        a, b = order[k], order[k + 1]
        steps.append(("Rcheck", (k, k + 1),
                      (chain.kinds[a], chain.etas[a], chain.kinds[b], chain.etas[b])))
        order[k], order[k + 1] = order[k + 1], order[k]
    return tuple(steps), order
