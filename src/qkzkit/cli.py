"""Command-line front end: check-suite orchestration and reporting.

JSON output is deterministic for a fixed configuration and seed: reports
are sorted by name and parameters, floats are printed with 17 significant
digits, and each report's wall_ms is null.  `_run_groups` builds the run
context once and hands it to each group as `_chk_*(config, ctx, g)`.
A group that solves R-operators draws its inputs and returns one record
per check (`check.record`, see `qkz`; degenerate_detection a
`qkz.FactorCheck` of its lattice probes); the others return their
reports.  Then one `qkz.solve_records` call solves the factors of every
record of the run, and each group evaluates its records on the factor
reader that it returns and on the run's probe blocks (`qkz.probe_blocks`).
The scalar groups work on sample sets: each set comes from one rng.random
call (`_zsample`, `idsuite.random_zeta`), each scalar function is called
once per group and base with m one per row, and each m then raises its
first error in the order of the one-m calls (`scalars.raise_first`).
Text mode ends with one `time <group> <ms> ms` line per group (building
and evaluating), in run order, and one `time solve <ms> ms` line for the
run's solve.  Once the
context and grading are accepted, a package error (a ConfigError too) or
an arithmetic error inside a group, while it builds or evaluates, is that
group's failure: one failing report, the exception type in its note.  A
request that fails in the solve fails the groups that read it, with its
stored error (`rsolve.solve_requests`).

The parsed argparse namespace is the run configuration: each subcommand
parses only the options it reads, and `build_parser` holds every default;
`main` gives only the subcommand that it runs its arguments.
The report writer (`_to_json`) makes no numpy call per value.
"""

import argparse
import math
import sys
import time
import zlib
from _json import encode_basestring
from functools import partial

import numpy as np

from . import idsuite, qkz, reduction
from .context import QContext
from .errors import NUMERICAL_ERRORS, ConfigError, DegeneratePointError
from .report import VerificationReport, worst_of
from .reps import (GradingChoice, antipode_dual, build_eval_rep,
                   hopf_antipode_residual)
from .rsolve import r_matrix
from .scalars import (difference_patterns_sl2, difference_patterns_sllpo,
                      f_series, kappa_sl2, kappa_sl2_even_rational, kappa_sllpo,
                      raise_first, rho0_ratio_sl2, rho0_sl2, rho0_sllpo)
from .tensorops import relative_residuals

KIND_CODES = {"VV": ("V", "V"), "VsV": ("V*", "V"), "VVs": ("V", "V*"), "VsVs": ("V*", "V*")}
# the largest --m of suite, verify and rmat: a solve's arrays grow as (m+1)^4, and a spin
# template's image parts alone are 4 * 2 * 8 * (m+1)^4 complex numbers, kept within 256 MiB
MAX_M = math.floor((2**28 / (16 * 4 * 2 * 8)) ** 0.25) - 1


def _context(config) -> QContext:
    return QContext(q=config.q, trunc_terms=config.trunc)


def _grading(config) -> GradingChoice:
    return GradingChoice(config.s0, config.s1)


def parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]))
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}")


def _rng_for(config, name: str):
    return np.random.default_rng([config.seed, zlib.crc32(name.encode())])


def _zsample(rng, size):
    # |z| in [0.1, 0.9], |arg z| < pi/2: away from the Pochhammer lattices and
    # branch-safe for the half-integer powers when q is complex; `size`
    # samples from one rng.random call, modulus and argument of each in turn
    u = rng.random(2 * size)
    return (0.1 + 0.8 * u[0::2]) * np.exp(1j * np.pi * (u[1::2] - 0.5))


# --- suite checks --------------------------------------------------------------

def _chk_scalar_identities(config, ctx, g):
    # kappa_sl2 at 1, then at z and 1/z, and rho0_sl2 at q^-2 z and z, one
    # call each for every m; each m then raises its first error as its own
    # calls did, in their order, before its samples are measured
    rng = _rng_for(config, "scalar_identities")
    n, ms = config.samples, (1, 2, 3, 4)
    zs = _zsample(rng, 4 * n).reshape(4, n)
    one_errors, kappa_errors, rho0_errors = [None] * 4, [None] * 8 * n, [None] * 8 * n
    kappa_one = kappa_sl2(ms, np.ones(4), ctx, one_errors)
    kappa = kappa_sl2(np.repeat(ms, 2 * n), np.stack((zs, 1.0 / zs), axis=1).ravel(), ctx,
                      kappa_errors).reshape(4, 2 * n)
    raise_first(one_errors[:1], kappa_errors[:2 * n])  # before q^-2 z is formed
    rho0 = rho0_sl2(np.repeat(ms, 2 * n), np.stack((ctx.q ** -2 * zs, zs), axis=1).ravel(), ctx,
                    rho0_errors).reshape(4, 2 * n)
    # (reference, other) of each sample, then each identity's residuals in one call
    kappa_pairs, ratio_pairs, even_pairs = [], [], []
    for i, m in enumerate(ms):
        block = slice(2 * n * i, 2 * n * (i + 1))
        raise_first(one_errors[i:i + 1], kappa_errors[block], rho0_errors[block])
        kappa_pairs.append((1.0, kappa_one[i]))  # the same at every sample
        for z, k, k_inv, r_shifted, r in zip(zs[i], kappa[i, :n], kappa[i, n:],
                                             rho0[i, :n], rho0[i, n:]):
            kappa_pairs.append((1.0, k * k_inv))
            ratio_pairs.append((rho0_ratio_sl2(m, z, ctx), 1.0 / (r_shifted * r)))
            if m % 2 == 0:
                even_pairs.append((k, kappa_sl2_even_rational(m // 2, z, ctx)))
    return [VerificationReport.make(name, {"family": "sl2"}, _worst_residual(pairs), 1e-10)
            for name, pairs in (("scalar_kappa_identities", kappa_pairs),
                                ("scalar_rho0_ratio", ratio_pairs),
                                ("scalar_kappa_even_rational", even_pairs))]


def _worst_residual(pairs) -> float:
    """The worst relative residual of (reference, other) pairs of one shape,
    one tensorops.relative_residuals call; 0 for no pair."""
    if not pairs:
        return 0.0
    refs, others = zip(*pairs)
    return worst_of(relative_residuals(np.array(refs), np.array(others)))


def _chk_scalar_difference(config, ctx, g):
    # one difference_patterns_sl2 call for m = 1, 2, 3, then one
    # difference_patterns_sllpo call per l
    rng = _rng_for(config, "scalar_difference")
    zs = _zsample(rng, 6 * max(config.samples, 3)).reshape(6, -1)
    sl2 = difference_patterns_sl2(np.repeat((1, 2, 3), zs.shape[1]), zs[:3].ravel(),
                                  ctx)["all_inverted"].reshape(3, -1)
    out = []
    for r, vals in zip((1, 2, 3), sl2):
        out.append(_difference_report("scalar_difference_sl2", "m", r, (-1.0) ** r, vals))
    for l, z in zip((1, 2, 3), zs[3:]):
        vals = difference_patterns_sllpo(l, z, ctx)["mixed"]
        out.append(_difference_report("scalar_difference_sllpo", "l", l, 1.0, vals))
    return out


def _difference_report(name, rank, r, constant, vals):
    return VerificationReport.make(
        name, {rank: r, "constant": constant},
        worst_of(relative_residuals(np.full(len(vals), constant), vals)), 1e-10,
        extracted_scalars=[complex(np.mean(vals))])


def _chk_scalar_series(config, ctx, g):
    rng = _rng_for(config, "scalar_series")
    q = complex(ctx.q)
    pairs = []
    # keep |q^-l z| < 1 so the series converges
    for l, u in zip((1, 2, 3), rng.random(3 * config.samples).reshape(3, -1)):
        zs = (0.1 + 0.7 * u) * abs(q) ** l
        fa, fb = f_series(l + 1, q ** (-l) * zs, ctx).value, f_series(l + 1, q**l * zs, ctx).value
        pairs += [(r, q ** (-l / (l + 1)) * np.exp(a - b))
                  for a, b, r in zip(fa, fb, rho0_sllpo(l, zs, ctx))]
    return [VerificationReport.make("scalar_f_series_pochhammer", {"l": [1, 2, 3]},
                                    _worst_residual(pairs), 1e-10)]


def _chk_rep_invariants(config, ctx, g):
    rng = _rng_for(config, "rep_invariants")
    q = complex(ctx.q)
    worst = 0.0
    worst_hopf = 0.0
    for m in (1, 2, 3):
        rep = build_eval_rep(m, g, ctx)
        dual = antipode_dual(rep)
        zeta = idsuite.random_zeta(rng)
        pairs = []  # (reference, other) per identity, of the module and its dual
        for r in (rep, dual):
            e1, f1, e0, f0 = (r.gen(tag, zeta) for tag in ("e1", "f1", "e0", "f0"))
            nu = 0.7 + 0.1 * rng.random()
            pairs += (((r.qh1(1.0) - r.qh1(-1.0)) / (q - 1.0 / q), e1 @ f1 - f1 @ e1),
                      ((r.qh0(1.0) - r.qh0(-1.0)) / (q - 1.0 / q), e0 @ f0 - f0 @ e0),
                      (q ** (2 * nu) * e1, r.qh1(nu) @ e1 @ r.qh1(-nu)),
                      (q ** (-2 * nu) * f1, r.qh1(nu) @ f1 @ r.qh1(-nu)),
                      (zeta**g.s1 * r.gen("e1", 1.0), r.gen("e1", zeta)))
            worst_hopf = worst_of((worst_hopf, hopf_antipode_residual(r, zeta)))
        worst = worst_of((worst, _worst_residual(pairs)))
    return [
        VerificationReport.make("rep_invariants", {"m": [1, 2, 3]}, worst, 1e-12),
        VerificationReport.make("rep_hopf_axiom", {"m": [1, 2, 3]}, worst_hopf, 1e-12),
    ]


def _chk_dualities(config, ctx, g):
    rng = _rng_for(config, "dualities")
    out = []
    for grading in (GradingChoice(1, 1), GradingChoice(1, 0)):  # not the run's grading
        for m in (1, 2, 3):
            out.append(idsuite.check_double_dual(m, grading, ctx, idsuite.random_zeta(rng)))
            out.append(idsuite.check_self_dual(m, grading, ctx, idsuite.random_zeta(rng)))
    return out


def _chk_unitarity(config, ctx, g):
    rng = _rng_for(config, "unitarity")
    records = []
    for norm in ("hw", "kappa"):
        for kinds in KIND_CODES.values():
            zetas = idsuite.draw_generic_zetas(rng, 2, config.m, g, ctx)
            records.append(idsuite.check_unitarity.record(config.m, kinds, zetas, g, ctx, norm))
        for kind in ("V", "V*"):
            records.append(idsuite.check_initial_condition.record(
                config.m, kind, idsuite.random_zeta(rng), g, ctx, norm))
    return records


def _chk_degenerate_detection(config, ctx, g):
    # the hw (V,V) factor at m = 1 of each lattice point, read one by one: a
    # read that raises DegeneratePointError detects its point, and any other
    # error fails the group
    q = complex(ctx.q)
    sites = qkz.Sites(1, g, ctx)
    infos = [("V", point, "V", 1.0) for point in (q ** (2.0 / g.s), q ** (-2.0 / g.s))]

    def measure(read, probe):
        fired = 0
        for info in infos:
            try:
                read(sites, info)
            except DegeneratePointError:
                fired += 1
        return VerificationReport.make("degenerate_detection", {"m": 1, "scanned": len(infos)},
                                       float(len(infos) - fired), 0.0)
    return [qkz.FactorCheck(((sites, infos),), measure, check_invertible=True)]


def _chk_ybe(config, ctx, g):
    rng = _rng_for(config, "ybe")
    records = []
    for kinds in [("V", "V", "V"), ("V", "V*", "V"), ("V*", "V", "V*"), ("V*", "V*", "V*")]:
        samples = [tuple(idsuite.draw_generic_zetas(rng, 3, config.m, g, ctx))
                   for _ in range(config.samples)]
        records.append(idsuite.check_ybe.record(config.m, kinds, samples, g, ctx, config.norm))
    return records


def _chk_crossing(config, ctx, g):
    rng = _rng_for(config, "crossing")
    records = []
    for m in (1, 2):
        samples = [tuple(idsuite.draw_generic_zetas(rng, 2, m, g, ctx))
                   for _ in range(config.samples)]
        records.append(idsuite.check_crossing.record(m, samples, g, ctx))
    return records


def _chk_invariances(config, ctx, g):
    rng = _rng_for(config, "invariances")
    records = []
    alpha = config.alpha or (0.37 - 0.21j)
    for m in (1, 2):
        for kinds in (("V", "V"), ("V*", "V")):
            args = (m, kinds, tuple(idsuite.draw_generic_zetas(rng, 2, m, g, ctx)), g, ctx)
            records += [idsuite.check_invariance_x.record(*args),
                        idsuite.check_invariance_a.record(alpha, *args)]
        records.append(idsuite.check_invariance_xtilde.record(
            m, g, ctx, tuple(idsuite.draw_generic_zetas(rng, 2, m, g, ctx)), config.norm))
    return records


# word pairs that realize one permutation each: the braid relation, s0 s0 = 1, and a
# pair of five-letter words
_BRAID_WORDS = (([0, 1, 0], [1, 0, 1]), ([0, 0], []), ([0, 2, 1, 0, 2], [2, 0, 1, 2, 0]))


def _chk_braid(config, ctx, g):
    rng = _rng_for(config, "braid")
    etas = tuple(idsuite.draw_generic_zetas(rng, 4, config.m, g, ctx))
    return [idsuite.check_braid_welldefined.record(
        word1, word2, config.m, ("V", "V*", "V", "V*"), etas, g, ctx, config.norm,
        seed=config.seed)
        for word1, word2 in _BRAID_WORDS]


def _generic_chain(config, ctx, g, rng, kinds, deltas=None):
    N = len(kinds)
    etas = tuple(idsuite.draw_generic_zetas(rng, N, config.m, g, ctx))
    p = 1.1 + 0.3 * rng.random() + 0.2j * rng.random()
    if deltas is None:
        deltas = tuple(
            qkz.DeltaAssignment("general_v" if k == "V" else "general_vstar",
                                alpha=config.alpha)
            for k in kinds)
    return qkz.ChainSpec(config.m, g, ctx, tuple(kinds), etas, p, deltas,
                         normalization=config.norm)


def _chk_qkz(config, ctx, g):
    rng = _rng_for(config, "qkz")
    chain4 = _generic_chain(config, ctx, g, rng, ("V", "V*", "V", "V*"))
    sd = qkz.DeltaAssignment("self_dual_pair", alpha=config.alpha, n=2)  # chain_sd: 4 sites
    chain_sd = _generic_chain(config, ctx, g, rng, ("V",) * 4, deltas=(sd,) * 4)
    chain2 = _generic_chain(config, ctx, g, rng, ("V", "V*"))
    records = [qkz.lambda_forms.record(chain4, range(4))]
    records += [qkz.check_ddr.record(*args)
                for args in ((chain_sd, 0, 2), (chain4, 0, 1), (chain4, 1, 2))]
    records += [qkz.check_qkz_compatibility.record(*args)
                for args in ((chain2, 0, 1), (chain4, 1, 2))]
    return records


def _chk_theorems(config, ctx, g):
    rng = _rng_for(config, "theorems")
    records = []
    for n in sorted({1, min(config.n, 3)}):
        case = reduction.ReductionCase("self_dual", n, config.m, g, ctx, alpha=config.alpha)
        records.append(reduction.theorem_check_selfdual.record(
            case, idsuite.draw_generic_zetas(rng, n, config.m, g, ctx), seed=config.seed))
    for n in (1, 2):
        case = reduction.ReductionCase("general", n, config.m, g, ctx, alpha=config.alpha)
        records.append(reduction.theorem_check_general.record(
            case, idsuite.draw_generic_zetas(rng, n, config.m, g, ctx), seed=config.seed))
    case = reduction.ReductionCase("general", 2, config.m, g, ctx, alpha=config.alpha)
    zetas = idsuite.draw_generic_zetas(rng, 2, config.m, g, ctx)
    records.append(reduction.insertion_invariance_check.record(
        case, zetas, idsuite.random_zeta(rng), idsuite.random_zeta(rng)))
    for mode in ("self_dual", "general"):
        case = reduction.ReductionCase(mode, 2, config.m, g, ctx, alpha=config.alpha)
        zetas = idsuite.draw_generic_zetas(rng, 2, config.m, g, ctx)
        records += [reduction.check_rpr.record(case, 1, zetas, seed=config.seed),
                    reduction.scaling_covariance.record(case, zetas, 1.3 * np.exp(0.4j))]
    return records


CHECKS = {
    "scalars": _chk_scalar_identities,
    "difference": _chk_scalar_difference,
    "f_series": _chk_scalar_series,
    "reps": _chk_rep_invariants,
    "dualities": _chk_dualities,
    "unitarity": _chk_unitarity,
    "degenerate_detection": _chk_degenerate_detection,
    "ybe": _chk_ybe,
    "crossing": _chk_crossing,
    "invariances": _chk_invariances,
    "braid": _chk_braid,
    "qkz": _chk_qkz,
    "theorems": _chk_theorems,
}


# --- serialization --------------------------------------------------------------

def _to_json(obj) -> str:
    # strings first: every key is one
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(_to_json(k) + ":" + _to_json(obj[k]) for k in sorted(obj)) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(_to_json, obj)) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # JSON has no inf or nan; a group that raised reports an infinite residual
        x = float(obj)
        return format(x, ".17g") if math.isfinite(x) else "null"
    if isinstance(obj, (complex, np.complexfloating)):
        return _to_json([obj.real, obj.imag])
    raise ConfigError(f"cannot serialize {type(obj)!r}")


def report_payload(rep: VerificationReport) -> dict:
    payload = {
        "name": rep.name,
        "params": rep.params,
        "residual": rep.residual,
        "tolerance": rep.tolerance,
        "passed": rep.passed,
        "wall_ms": None,
    }
    if rep.extracted_scalars is not None:
        payload["extracted_scalars"] = [complex(s) for s in rep.extracted_scalars]
    if rep.note:
        payload["note"] = rep.note
    return payload


# params that carry a measured residual; they do not take part in the report order
_RESIDUAL_PARAMS = ("operator_residual", "e2e_residual", "forms_residual", "scalar_spread")


def _report_order(r):
    return r.name, _to_json({k: v for k, v in r.params.items() if k not in _RESIDUAL_PARAMS})


def serialize_reports(reports, fmt: str) -> str:
    ordered = sorted(reports, key=_report_order)
    if fmt == "json":
        return "[" + ",".join(_to_json(report_payload(r)) for r in ordered) + "]\n"
    lines = []
    for r in ordered:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name:28s} residual={r.residual:.3e} "
                     f"tol={r.tolerance:.1e} {_to_json(r.params)}")
    npass = sum(r.passed for r in ordered)
    lines.append(f"{npass}/{len(ordered)} checks passed")
    return "\n".join(lines) + "\n"


def _emit(text: str, config):
    if not config.out:
        sys.stdout.write(text)
        return
    try:
        with open(config.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write --out: {exc}") from None


# --- commands --------------------------------------------------------------------

def _in_scope(name, work) -> list:
    """work() in the error scope of check group `name`: an error of
    NUMERICAL_ERRORS (a ConfigError among them) becomes one failing report,
    the exception type in its note."""
    try:
        return work()
    except NUMERICAL_ERRORS as exc:
        return [VerificationReport.make(name, {"group": name}, float("inf"), 0.0,
                                        note=f"{type(exc).__name__}: {exc}")]


def _evaluate(name, built, factor, probe) -> list:
    """The reports of check group `name` from what it built, in its error
    scope: a report as it is, a record evaluated on the run's factor reader
    and probe blocks."""
    return _in_scope(name, lambda: [item if isinstance(item, VerificationReport)
                                    else item.evaluate(factor, probe) for item in built])


def _run_groups(names, config) -> int:
    """Run the named check groups on one run context, and write the reports;
    text mode ends with the time of each group (building and evaluating),
    in run order, and that of the run's solve.

    Each group builds its reports and records in its error scope, then one
    qkz.solve_records call solves the factors of every record, and each
    group evaluates its records in its error scope, on the run's probe
    blocks."""
    ctx, g = _context(config), _grading(config)  # q and grading fail before any group runs
    if not np.isfinite(config.alpha):
        raise ConfigError(f"--alpha must be finite, got {config.alpha}")
    if "theorems" in names and config.m < 1:
        raise ConfigError("--m must be at least 1 for the theorems group")
    built, clock = {}, {}
    for name in names:
        t0 = time.perf_counter()
        built[name] = _in_scope(name, partial(CHECKS[name], config, ctx, g))
        clock[name] = time.perf_counter() - t0
    t0 = time.perf_counter()
    factor = qkz.solve_records([item for items in built.values() for item in items
                                if not isinstance(item, VerificationReport)])
    solve_s = time.perf_counter() - t0
    reports, probe = [], qkz.probe_blocks()
    for name, items in built.items():
        t0 = time.perf_counter()
        reports.extend(_evaluate(name, items, factor, probe))
        clock[name] += time.perf_counter() - t0
    if config.tol is not None:
        reports = [r.with_tolerance(config.tol) for r in reports]
    text = serialize_reports(reports, config.fmt)
    if config.fmt == "text":
        text += "".join(f"time {name} {s * 1e3:.3f} ms\n"
                        for name, s in (*clock.items(), ("solve", solve_s)))
    _emit(text, config)
    return 0 if all(r.passed for r in reports) else 1


def cmd_suite(config) -> int:
    return _run_groups(sorted(CHECKS), config)


def cmd_verify(config) -> int:
    if config.check not in CHECKS:
        raise ConfigError(f"unknown check {config.check!r}; known: {', '.join(sorted(CHECKS))}")
    return _run_groups([config.check], config)


def cmd_rmat(config) -> int:
    k1, k2 = KIND_CODES[config.kinds]
    res = r_matrix(k1, config.zeta1, k2, config.zeta2, config.m, _grading(config),
                   _context(config), normalization=config.norm, check_invertible=False)
    d = config.m + 1
    payload = {
        "site_dims_out": [d, d],
        "site_dims_in": [d, d],
        # + 0.0 writes signed zeros as 0
        "data": [[float(v.real), float(v.imag)] for v in res.R.reshape(-1) + 0.0],
    }
    _emit(_to_json(payload) + "\n", config)
    return 0


def cmd_scalars(config) -> int:
    ctx = _context(config)
    rng = _rng_for(config, "scalars_table")
    zs = _zsample(rng, config.samples)
    columns = {
        "rho0_sl2": rho0_sl2(config.m, zs, ctx),
        "kappa_sl2": kappa_sl2(config.m, zs, ctx),
        "diff_const_sl2": difference_patterns_sl2(config.m, zs, ctx)["all_inverted"],
        "rho0_sllpo": rho0_sllpo(config.l, zs, ctx),
        "kappa_sllpo": kappa_sllpo(config.l, zs, ctx),
        "diff_const_sllpo": difference_patterns_sllpo(config.l, zs, ctx)["mixed"],
    }
    rows = [{"z": complex(z), **{name: complex(col[i]) for name, col in columns.items()}}
            for i, z in enumerate(zs)]
    rows.append({
        "z": 1.0 + 0.0j,
        "kappa_sl2": complex(kappa_sl2(config.m, 1.0, ctx)),
        "kappa_sllpo": complex(kappa_sllpo(config.l, 1.0, ctx)),
    })
    if config.fmt == "json":
        _emit(_to_json({"m": config.m, "l": config.l, "rows": rows}) + "\n", config)
    else:
        lines = [f"scalar table (m={config.m}, l={config.l})"]
        for row in rows:
            parts = [f"{k}={_to_json(v)}" for k, v in row.items()]
            lines.append("  " + "  ".join(parts))
        _emit("\n".join(lines) + "\n", config)
    return 0


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The CLI; its namespace is the run configuration, and it holds every default.

    Every subcommand is registered, but given argv whose first token names
    one, only that one gets its arguments (a run parses one command); with
    no argv, or a first token that names none (--help, an unknown command),
    every subcommand gets them.
    """
    parser = argparse.ArgumentParser(
        prog="qkzkit",
        description="Construct sl2 loop-algebra R-operators and verify their identities.")
    sub = parser.add_subparsers(dest="command", required=True)
    cplx = {"type": parse_complex, "metavar": "RE[,IM]"}
    options = {
        "--m": {"type": int, "default": 1, "help": f"spin label (at most {MAX_M} to solve R)"},
        "--l": {"type": int, "default": 1, "help": "rank for the sl(l+1) scalar family"},
        "--n": {"type": int, "default": 2,
                "help": "chain length of the second self-dual theorem (at most 3), its only "
                        "use; the other reduction checks run at n = 1 and 2"},
        "--q": {**cplx, "default": complex(0.7), "help": "deformation parameter"},
        "--s0": {"type": int, "default": 1, "help": "zeta power of e0"},
        "--s1": {"type": int, "default": 1, "help": "zeta power of e1"},
        "--alpha": {**cplx, "default": 0.0,
                    "help": "twist parameter; 0 lets invariances use 0.37-0.21i"},
        "--seed": {"type": int, "default": 42, "help": "seed of every sample (at least 0)"},
        "--tol": {"type": float, "help": "override every check tolerance"},
        "--trunc": {"type": int, "default": 256, "help": "factors per product or series"},
        "--samples": {"type": int, "default": 3, "help": "random samples per check or table"},
        "--norm": {"choices": ("hw", "kappa"), "default": "kappa", "help": "R normalization"},
        "--format": {"dest": "fmt", "choices": ("json", "text"), "default": "json",
                     "help": "report format"},
        "--out": {"help": "report file instead of standard output"},
        # accepted for old command lines (the benchmark's among them); the
        # suite always runs sequentially, so 1 is the only value
        "--jobs": {"type": int, "choices": (1,), "default": 1, "help": argparse.SUPPRESS},
        "--kinds": {"choices": sorted(KIND_CODES), "default": "VV",
                    "help": "module pair; s marks V*"},
        "--zeta1": {**cplx, "default": complex(1.0), "help": "spectral parameter of site 1"},
        "--zeta2": {**cplx, "default": complex(1.0), "help": "spectral parameter of site 2"},
        "check": {"help": "check group name"},
    }
    checks = ("--m", "--n", "--q", "--s0", "--s1", "--alpha", "--seed", "--tol", "--trunc",
              "--samples", "--norm", "--format", "--out")
    commands = (
        ("suite", "run the full check battery", (*checks, "--jobs")),
        ("verify", "run one named check group", ("check", *checks)),
        ("rmat", "dump an R-operator matrix", ("--m", "--q", "--s0", "--s1", "--trunc",
                                               "--norm", "--out", "--kinds", "--zeta1",
                                               "--zeta2")),
        ("scalars", "tabulate normalization scalars", ("--m", "--l", "--q", "--trunc", "--seed",
                                                       "--samples", "--format", "--out")),
    )
    chosen = {argv[0]} & {c for c, _, _ in commands} if argv else set()
    for command, help_text, names in commands:
        p = sub.add_parser(command, help=help_text,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        if command in chosen or not chosen:
            for name in names:
                p.add_argument(name, **options[name])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    config = build_parser(argv).parse_args(argv)
    handlers = {"suite": cmd_suite, "verify": cmd_verify, "rmat": cmd_rmat,
                "scalars": cmd_scalars}
    try:
        # checked before any work, so a value out of range fails at once
        for name, low in (("m", 0), ("n", 1), ("l", 1), ("samples", 1), ("seed", 0)):
            if getattr(config, name, low) < low:
                raise ConfigError(f"--{name} must be at least {low}")
        if config.command != "scalars" and config.m > MAX_M:
            raise ConfigError(f"--m must be at most {MAX_M}: a solve's arrays grow as (m+1)^4")
        if getattr(config, "tol", None) is not None and not 0 <= config.tol < np.inf:
            raise ConfigError("--tol must be finite and at least 0")
        # a floating-point exception that no step expects (far out on the
        # q-disk) raises, so it ends as a numerical failure, not a warning
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return handlers[config.command](config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
