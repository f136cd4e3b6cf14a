"""Command-line front end: check-suite orchestration and reporting.

JSON output is deterministic for a fixed configuration and seed: reports
are sorted by name and parameters, floats are printed with 17 significant
digits, and wall-clock timings are serialized as null (they are shown in
text mode only).

The parsed argparse namespace is the run configuration: each subcommand
parses only the options it reads, and `build_parser` holds every default.
"""

import argparse
import dataclasses
import sys
import time
import zlib

import numpy as np

from . import idsuite, qkz, reduction
from .context import QContext
from .errors import ConfigError, DegeneratePointError, QkzError
from .report import VerificationReport, worst_of
from .reps import (GradingChoice, antipode_dual, build_eval_rep,
                   hopf_antipode_residual)
from .rsolve import RCache, r_matrix
from .scalars import (difference_patterns_sl2, difference_patterns_sllpo,
                      f_series, kappa_sl2, kappa_sl2_even_rational, kappa_sllpo,
                      rho0_ratio_sl2, rho0_sl2, rho0_sllpo)

KIND_CODES = {"VV": ("V", "V"), "VsV": ("V*", "V"), "VVs": ("V", "V*"), "VsVs": ("V*", "V*")}


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
    return np.random.default_rng([config.seed & 0xFFFFFFFF, zlib.crc32(name.encode())])


def _zsample(rng):
    # |z| in [0.1, 0.9], |arg z| < pi/2: away from the Pochhammer lattices and
    # branch-safe for the half-integer powers when q is complex
    return (0.1 + 0.8 * rng.random()) * np.exp(1j * np.pi * (rng.random() - 0.5))


# --- suite checks --------------------------------------------------------------

def _chk_scalar_identities(config, cache):
    ctx = _context(config)
    rng = _rng_for(config, "scalar_identities")
    t0 = time.perf_counter()
    out = []
    worst_kappa = 0.0
    worst_ratio = 0.0
    worst_even = 0.0
    for m in (1, 2, 3, 4):
        kappa_one = abs(kappa_sl2(m, 1.0, ctx) - 1.0)  # the same at every sample
        for _ in range(config.samples):
            z = _zsample(rng)
            worst_kappa = worst_of((worst_kappa, kappa_one,
                                    abs(kappa_sl2(m, z, ctx) * kappa_sl2(m, 1.0 / z, ctx) - 1.0)))
            two_calls = 1.0 / (rho0_sl2(m, ctx.q ** (-2) * z, ctx) * rho0_sl2(m, z, ctx))
            worst_ratio = worst_of((worst_ratio, abs(two_calls - rho0_ratio_sl2(m, z, ctx))))
            if m % 2 == 0:
                worst_even = worst_of((worst_even, abs(
                    kappa_sl2_even_rational(m // 2, z, ctx) - kappa_sl2(m, z, ctx))))
    tol = 1e-10
    for name, worst in (("scalar_kappa_identities", worst_kappa), ("scalar_rho0_ratio", worst_ratio),
                        ("scalar_kappa_even_rational", worst_even)):
        out.append(VerificationReport.make(name, {"family": "sl2"}, worst, tol, t0))
    return out


def _chk_scalar_difference(config, cache):
    ctx = _context(config)
    rng = _rng_for(config, "scalar_difference")
    out = []
    for m in (1, 2, 3):
        t0 = time.perf_counter()
        vals = []
        for _ in range(max(config.samples, 3)):
            z = _zsample(rng)
            vals.append(difference_patterns_sl2(m, z, ctx)["all_inverted"])
        vals = np.array(vals)
        resid = worst_of((np.abs(vals - (-1.0) ** m).max(), np.abs(vals - vals.mean()).max()))
        out.append(VerificationReport.make(
            "scalar_difference_sl2", {"m": m, "constant": (-1.0) ** m}, resid, 1e-10, t0,
            extracted_scalars=[complex(vals.mean())]))
    for l in (1, 2, 3):
        t0 = time.perf_counter()
        vals = []
        for _ in range(max(config.samples, 3)):
            z = _zsample(rng)
            vals.append(difference_patterns_sllpo(l, z, ctx)["mixed"])
        vals = np.array(vals)
        resid = worst_of((np.abs(vals - 1.0).max(), np.abs(vals - vals.mean()).max()))
        out.append(VerificationReport.make(
            "scalar_difference_sllpo", {"l": l, "constant": 1.0}, resid, 1e-10, t0,
            extracted_scalars=[complex(vals.mean())]))
    return out


def _chk_scalar_series(config, cache):
    ctx = _context(config)
    rng = _rng_for(config, "scalar_series")
    t0 = time.perf_counter()
    worst = 0.0
    for l in (1, 2, 3):
        for _ in range(config.samples):
            q = complex(ctx.q)
            # keep |q^-l z| < 1 so the series converges
            z = (0.1 + 0.7 * rng.random()) * abs(q) ** l
            fa = f_series(l + 1, q ** (-l) * z, ctx).value
            fb = f_series(l + 1, q**l * z, ctx).value
            series_form = q ** (-l / (l + 1)) * np.exp(fa - fb)
            worst = worst_of((worst, abs(series_form - rho0_sllpo(l, z, ctx))))
    return [VerificationReport.make("scalar_f_series_pochhammer", {"l": [1, 2, 3]}, worst, 1e-10,
                                    t0)]


def _chk_rep_invariants(config, cache):
    ctx = _context(config)
    g = _grading(config)
    rng = _rng_for(config, "rep_invariants")
    t0 = time.perf_counter()
    q = complex(ctx.q)
    worst = 0.0
    worst_hopf = 0.0
    for m in (1, 2, 3):
        rep = build_eval_rep(m, g, ctx)
        dual = antipode_dual(rep)
        zeta = idsuite.random_zeta(rng)
        for r in (rep, dual):
            e1, f1 = r.gen("e1", zeta), r.gen("f1", zeta)
            e0, f0 = r.gen("e0", zeta), r.gen("f0", zeta)
            target1 = (r.qh1(1.0) - r.qh1(-1.0)) / (q - 1.0 / q)
            target0 = (r.qh0(1.0) - r.qh0(-1.0)) / (q - 1.0 / q)
            nu = 0.7 + 0.1 * rng.random()
            terms = (e1 @ f1 - f1 @ e1 - target1, e0 @ f0 - f0 @ e0 - target0,
                     r.qh1(nu) @ e1 @ r.qh1(-nu) - q ** (2 * nu) * e1,
                     r.qh1(nu) @ f1 @ r.qh1(-nu) - q ** (-2 * nu) * f1,
                     r.gen("e1", zeta) - zeta**g.s1 * r.gen("e1", 1.0))
            worst = worst_of([worst, *(np.abs(t).max() for t in terms)])
            worst_hopf = worst_of((worst_hopf, hopf_antipode_residual(r, zeta)))
    return [
        VerificationReport.make("rep_invariants", {"m": [1, 2, 3]}, worst, 1e-12, t0),
        VerificationReport.make("rep_hopf_axiom", {"m": [1, 2, 3]}, worst_hopf, 1e-12, t0),
    ]


def _chk_dualities(config, cache):
    ctx = _context(config)
    rng = _rng_for(config, "dualities")
    out = []
    for g in (GradingChoice(1, 1), GradingChoice(1, 0)):
        for m in (1, 2, 3):
            out.append(idsuite.check_double_dual(m, g, ctx, idsuite.random_zeta(rng)))
            out.append(idsuite.check_self_dual(m, g, ctx, idsuite.random_zeta(rng)))
    return out


def _chk_unitarity(config, cache):
    ctx = _context(config)
    g = _grading(config)
    rng = _rng_for(config, "unitarity")
    out = []
    for norm in ("hw", "kappa"):
        for kinds in KIND_CODES.values():
            zetas = idsuite.draw_generic_zetas(rng, 2, config.m, g, ctx)
            out.append(idsuite.check_unitarity(config.m, kinds, zetas, g, ctx,
                                               normalization=norm, cache=cache))
        for kind in ("V", "V*"):
            out.append(idsuite.check_initial_condition(config.m, kind,
                                                       idsuite.random_zeta(rng), g, ctx,
                                                       normalization=norm, cache=cache))
    return out


def _chk_degenerate_detection(config, cache):
    ctx = _context(config)
    g = _grading(config)
    q = complex(ctx.q)
    t0 = time.perf_counter()
    fired = 0
    lattice = [q ** (2.0 / g.s), q ** (-2.0 / g.s)]
    for point in lattice:
        try:
            r_matrix("V", point, "V", 1.0, 1, g, ctx, normalization="hw")
        except DegeneratePointError:
            fired += 1
    resid = float(len(lattice) - fired)
    return [VerificationReport.make("degenerate_detection",
                                    {"m": 1, "scanned": len(lattice)}, resid, 0.0, t0)]


def _chk_ybe(config, cache):
    ctx = _context(config)
    g = _grading(config)
    rng = _rng_for(config, "ybe")
    out = []
    for kinds in [("V", "V", "V"), ("V", "V*", "V"), ("V*", "V", "V*"), ("V*", "V*", "V*")]:
        samples = [tuple(idsuite.draw_generic_zetas(rng, 3, config.m, g, ctx))
                   for _ in range(config.samples)]
        out.append(idsuite.check_ybe(config.m, kinds, samples, g, ctx,
                                     normalization=config.norm, cache=cache))
    return out


def _chk_crossing(config, cache):
    ctx = _context(config)
    g = _grading(config)
    rng = _rng_for(config, "crossing")
    out = []
    for m in (1, 2):
        samples = [tuple(idsuite.draw_generic_zetas(rng, 2, m, g, ctx))
                   for _ in range(config.samples)]
        out.append(idsuite.check_crossing(m, samples, g, ctx, cache=cache))
    return out


def _chk_invariances(config, cache):
    ctx = _context(config)
    g = _grading(config)
    rng = _rng_for(config, "invariances")
    out = []
    alpha = config.alpha or (0.37 - 0.21j)
    for m in (1, 2):
        for kinds in (("V", "V"), ("V*", "V")):
            zetas = tuple(idsuite.draw_generic_zetas(rng, 2, m, g, ctx))
            out.append(idsuite.check_invariance_x(m, kinds, zetas, g, ctx, cache=cache))
            out.append(idsuite.check_invariance_a(alpha, m, kinds, zetas, g, ctx, cache=cache))
        out.append(idsuite.check_invariance_xtilde(
            m, g, ctx, tuple(idsuite.draw_generic_zetas(rng, 2, m, g, ctx)),
            normalization=config.norm, cache=cache))
    return out


def _chk_braid(config, cache):
    ctx = _context(config)
    g = _grading(config)
    rng = _rng_for(config, "braid")
    etas = tuple(idsuite.draw_generic_zetas(rng, 4, config.m, g, ctx))
    kinds = ("V", "V*", "V", "V*")
    out = [
        idsuite.check_braid_welldefined([0, 1, 0], [1, 0, 1], config.m, kinds, etas,
                                        g, ctx, normalization=config.norm,
                                        seed=config.seed, cache=cache),
        idsuite.check_braid_welldefined([0, 0], [], config.m, kinds, etas, g, ctx,
                                        normalization=config.norm, seed=config.seed,
                                        cache=cache),
        idsuite.check_braid_welldefined([0, 2, 1, 0, 2], [2, 0, 1, 2, 0], config.m,
                                        kinds, etas, g, ctx,
                                        normalization=config.norm, seed=config.seed,
                                        cache=cache),
    ]
    return out


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


def _chk_qkz(config, cache):
    ctx = _context(config)
    g = _grading(config)
    rng = _rng_for(config, "qkz")
    t0 = time.perf_counter()
    out = []
    chain4 = _generic_chain(config, ctx, g, rng, ("V", "V*", "V", "V*"))
    worst = worst_of(qkz.lambda_forms_residual(chain4, i, cache) for i in range(4))
    out.append(VerificationReport.make("lambda_forms", {"N": 4, "m": config.m}, worst, 1e-10, t0))
    sd = qkz.DeltaAssignment("self_dual_pair", alpha=config.alpha, n=config.n)
    chain_sd = _generic_chain(config, ctx, g, rng, ("V",) * 4, deltas=(sd,) * 4)
    out.append(qkz.check_ddr(chain_sd, 0, 2, cache=cache))
    out.append(qkz.check_ddr(chain4, 0, 1, cache=cache))
    out.append(qkz.check_ddr(chain4, 1, 2, cache=cache))
    chain2 = _generic_chain(config, ctx, g, rng, ("V", "V*"))
    out.append(qkz.check_qkz_compatibility(chain2, 0, 1, cache=cache))
    out.append(qkz.check_qkz_compatibility(chain4, 1, 2, cache=cache))
    return out


def _chk_theorems(config, cache):
    ctx = _context(config)
    g = _grading(config)
    rng = _rng_for(config, "theorems")
    out = []
    for n in sorted({1, min(config.n, 3)}):
        case = reduction.ReductionCase("self_dual", n, config.m, g, ctx,
                                       alpha=config.alpha)
        zetas = idsuite.draw_generic_zetas(rng, n, config.m, g, ctx)
        out.append(reduction.theorem_check_selfdual(case, zetas, seed=config.seed,
                                                    cache=cache))
    for n in (1, 2):
        case = reduction.ReductionCase("general", n, config.m, g, ctx,
                                       alpha=config.alpha)
        zetas = idsuite.draw_generic_zetas(rng, n, config.m, g, ctx)
        out.append(reduction.theorem_check_general(case, zetas, seed=config.seed,
                                                   cache=cache))
    case = reduction.ReductionCase("general", 2, config.m, g, ctx, alpha=config.alpha)
    zetas = idsuite.draw_generic_zetas(rng, 2, config.m, g, ctx)
    out.append(reduction.insertion_invariance_check(case, zetas, idsuite.random_zeta(rng),
                                                    idsuite.random_zeta(rng), cache=cache))
    for mode in ("self_dual", "general"):
        case = reduction.ReductionCase(mode, 2, config.m, g, ctx, alpha=config.alpha)
        zetas = idsuite.draw_generic_zetas(rng, 2, config.m, g, ctx)
        out.append(reduction.check_rpr(case, 1, zetas, seed=config.seed, cache=cache))
        t0 = time.perf_counter()
        resid = reduction.scaling_covariance_residual(case, zetas,
                                                      1.3 * np.exp(0.4j), cache)
        out.append(VerificationReport.make("scaling_covariance",
                                           {"mode": mode, "n": 2, "m": config.m},
                                           resid, 1e-10, t0))
    return out


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

def _json_escape(s: str) -> str:
    out = []
    for ch in s:
        if ch in ('"', "\\"):
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


def _to_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # JSON has no inf or nan; a group that raised reports an infinite residual
        return format(float(obj), ".17g") if np.isfinite(obj) else "null"
    if isinstance(obj, (complex, np.complexfloating)):
        return _to_json([obj.real, obj.imag])
    if isinstance(obj, str):
        return _json_escape(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_to_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        return "{" + ",".join(_json_escape(k) + ":" + _to_json(v) for k, v in items) + "}"
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
                     f"tol={r.tolerance:.1e} ({r.wall_ms:.1f} ms) {_to_json(r.params)}")
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

def _run_group(name, config, cache):
    """One check group; a numerical failure becomes one failing report."""
    t0 = time.perf_counter()
    try:
        return CHECKS[name](config, cache)
    except ConfigError:
        raise
    except QkzError as exc:
        return [VerificationReport.make(name, {"group": name}, float("inf"), 0.0, t0,
                                        note=f"{type(exc).__name__}: {exc}")]


def _run_groups(names, config) -> int:
    """Run the named check groups on one cache and write their reports."""
    _context(config)  # validate q, grading and m before running anything
    _grading(config)
    if "theorems" in names and config.m < 1:
        raise ConfigError("--m must be at least 1 for the theorems group")
    cache = RCache()
    reports = []
    for name in names:
        reports.extend(_run_group(name, config, cache))
    if config.tol is not None:
        reports = [dataclasses.replace(r, tolerance=config.tol, passed=r.residual <= config.tol)
                   for r in reports]
    _emit(serialize_reports(reports, config.fmt), config)
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
    rows = []
    for _ in range(config.samples):
        z = _zsample(rng)
        rows.append({
            "z": complex(z),
            "rho0_sl2": complex(rho0_sl2(config.m, z, ctx)),
            "kappa_sl2": complex(kappa_sl2(config.m, z, ctx)),
            "diff_const_sl2": complex(difference_patterns_sl2(config.m, z, ctx)["all_inverted"]),
            "rho0_sllpo": complex(rho0_sllpo(config.l, z, ctx)),
            "kappa_sllpo": complex(kappa_sllpo(config.l, z, ctx)),
            "diff_const_sllpo": complex(difference_patterns_sllpo(config.l, z, ctx)["mixed"]),
        })
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


def build_parser() -> argparse.ArgumentParser:
    """The CLI; its namespace is the run configuration, and it holds every default."""
    parser = argparse.ArgumentParser(
        prog="qkzkit",
        description="Construct sl2 loop-algebra R-operators and verify their identities.")
    sub = parser.add_subparsers(dest="command", required=True)
    cplx = {"type": parse_complex, "metavar": "RE[,IM]"}
    options = {
        "--m": {"type": int, "default": 1, "help": "spin label (module dimension m+1)"},
        "--l": {"type": int, "default": 1, "help": "rank for the sl(l+1) scalar family"},
        "--n": {"type": int, "default": 2, "help": "half chain length for reductions"},
        "--q": {**cplx, "default": complex(0.7), "help": "deformation parameter"},
        "--s0": {"type": int, "default": 1, "help": "zeta power of e0"},
        "--s1": {"type": int, "default": 1, "help": "zeta power of e1"},
        "--alpha": {**cplx, "default": 0.0,
                    "help": "twist parameter; 0 lets invariances use 0.37-0.21i"},
        "--seed": {"type": int, "default": 42, "help": "seed of every sample"},
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
    for command, help_text, names in commands:
        p = sub.add_parser(command, help=help_text,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        for name in names:
            p.add_argument(name, **options[name])
    return parser


def main(argv=None) -> int:
    config = build_parser().parse_args(argv)
    handlers = {"suite": cmd_suite, "verify": cmd_verify, "rmat": cmd_rmat,
                "scalars": cmd_scalars}
    try:
        # checked before any work, so a value out of range fails at once
        for name, low in (("m", 0), ("n", 1), ("l", 1), ("samples", 1)):
            if getattr(config, name, low) < low:
                raise ConfigError(f"--{name} must be at least {low}")
        return handlers[config.command](config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except QkzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
