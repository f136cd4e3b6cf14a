"""Command-line front end: check-suite orchestration and reporting.

JSON output is deterministic for a fixed configuration and seed: reports
are sorted by name and parameters, floats are printed with 17 significant
digits, and wall-clock timings are serialized as null (they are shown in
text mode only).
"""

import argparse
import sys
import time
import zlib
from dataclasses import dataclass, field

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


@dataclass
class RunConfig:
    command: str
    m: int = 1
    l: int = 1
    n: int = 2
    q: complex = 0.7
    s0: int = 1
    s1: int = 1
    alpha: list = field(default_factory=list)
    seed: int = 42
    tol: float = None
    trunc: int = 256
    samples: int = 3
    norm: str = "kappa"
    fmt: str = "json"
    out: str = None
    check: str = None
    kinds: str = "VV"
    zeta1: complex = 1.0
    zeta2: complex = 1.0

    def context(self) -> QContext:
        return QContext(q=self.q, trunc_terms=self.trunc)

    def grading(self) -> GradingChoice:
        return GradingChoice(self.s0, self.s1)

    def alpha1(self) -> complex:
        return self.alpha[0] if self.alpha else 0.0


def parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]))
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}")


def _rng_for(config: RunConfig, name: str):
    return np.random.default_rng([config.seed & 0xFFFFFFFF, zlib.crc32(name.encode())])


def _zeta(rng):
    return idsuite.random_zeta(rng)


def _zsample(rng):
    # |z| in [0.1, 0.9], |arg z| < pi/2: away from the Pochhammer lattices and
    # branch-safe for the half-integer powers when q is complex
    return (0.1 + 0.8 * rng.random()) * np.exp(1j * np.pi * (rng.random() - 0.5))


# --- suite checks --------------------------------------------------------------

def _chk_scalar_identities(config, cache):
    ctx = config.context()
    rng = _rng_for(config, "scalar_identities")
    t0 = time.perf_counter()
    out = []
    worst_kappa = 0.0
    worst_ratio = 0.0
    worst_even = 0.0
    for m in (1, 2, 3, 4):
        for _ in range(config.samples):
            z = _zsample(rng)
            worst_kappa = worst_of((worst_kappa, abs(kappa_sl2(m, 1.0, ctx) - 1.0),
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
    ctx = config.context()
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
    ctx = config.context()
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
    ctx = config.context()
    g = config.grading()
    rng = _rng_for(config, "rep_invariants")
    t0 = time.perf_counter()
    q = complex(ctx.q)
    worst = 0.0
    worst_hopf = 0.0
    for m in (1, 2, 3):
        rep = build_eval_rep(m, g, ctx)
        dual = antipode_dual(rep)
        zeta = _zeta(rng)
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
    ctx = config.context()
    rng = _rng_for(config, "dualities")
    out = []
    for g in (GradingChoice(1, 1), GradingChoice(1, 0)):
        for m in (1, 2, 3):
            out.append(idsuite.check_double_dual(m, g, ctx, _zeta(rng)))
            out.append(idsuite.check_self_dual(m, g, ctx, _zeta(rng)))
    return out


def _chk_unitarity(config, cache):
    ctx = config.context()
    g = config.grading()
    rng = _rng_for(config, "unitarity")
    out = []
    for norm in ("hw", "kappa"):
        for kinds in KIND_CODES.values():
            zetas = idsuite.draw_generic_zetas(rng, 2, config.m, g, ctx)
            out.append(idsuite.check_unitarity(config.m, kinds, zetas, g, ctx,
                                               normalization=norm, cache=cache))
        for kind in ("V", "V*"):
            out.append(idsuite.check_initial_condition(config.m, kind, _zeta(rng),
                                                       g, ctx, normalization=norm,
                                                       cache=cache))
    return out


def _chk_degenerate_detection(config, cache):
    ctx = config.context()
    g = config.grading()
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
    ctx = config.context()
    g = config.grading()
    rng = _rng_for(config, "ybe")
    out = []
    for kinds in [("V", "V", "V"), ("V", "V*", "V"), ("V*", "V", "V*"), ("V*", "V*", "V*")]:
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(config.samples):
            zetas = tuple(idsuite.draw_generic_zetas(rng, 3, config.m, g, ctx))
            rep = idsuite.check_ybe(config.m, kinds, zetas, g, ctx,
                                    normalization=config.norm, cache=cache)
            worst = worst_of((worst, rep.residual))
        out.append(VerificationReport.make(
            "ybe", {"m": config.m, "kinds": list(kinds), "norm": config.norm}, worst, 1e-9, t0))
    return out


def _chk_crossing(config, cache):
    ctx = config.context()
    g = config.grading()
    rng = _rng_for(config, "crossing")
    out = []
    for m in (1, 2):
        t0 = time.perf_counter()
        scal = []
        worst = 0.0
        for _ in range(config.samples):
            zetas = idsuite.draw_generic_zetas(rng, 2, m, g, ctx)
            rep = idsuite.check_crossing(m, tuple(zetas), g, ctx, cache=cache)
            worst = worst_of((worst, rep.residual))
            scal.append(rep.extracted_scalars)
        spread = float(max(
            np.abs(np.array([s[i] for s in scal]) - np.mean([s[i] for s in scal])).max()
            for i in (2, 3, 4, 5)))
        out.append(VerificationReport.make(
            "crossing", {"m": m, "scalar_spread": spread}, worst, 1e-9, t0,
            extracted_scalars=list(scal[-1])))
    return out


def _chk_invariances(config, cache):
    ctx = config.context()
    g = config.grading()
    rng = _rng_for(config, "invariances")
    out = []
    alpha = config.alpha1() or (0.37 - 0.21j)
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
    ctx = config.context()
    g = config.grading()
    rng = _rng_for(config, "braid")
    etas = tuple(idsuite.draw_generic_zetas(rng, 4, config.m, config.grading(), ctx))
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
                                alpha=config.alpha1())
            for k in kinds)
    return qkz.ChainSpec(config.m, g, ctx, tuple(kinds), etas, p, deltas,
                         normalization=config.norm)


def _chk_qkz(config, cache):
    ctx = config.context()
    g = config.grading()
    rng = _rng_for(config, "qkz")
    t0 = time.perf_counter()
    out = []
    chain4 = _generic_chain(config, ctx, g, rng, ("V", "V*", "V", "V*"))
    worst = worst_of(qkz.lambda_forms_residual(chain4, i, cache) for i in range(4))
    out.append(VerificationReport.make("lambda_forms", {"N": 4, "m": config.m}, worst, 1e-10, t0))
    sd = qkz.DeltaAssignment("self_dual_pair", alpha=config.alpha1(), n=config.n)
    chain_sd = _generic_chain(config, ctx, g, rng, ("V",) * 4, deltas=(sd,) * 4)
    out.append(qkz.check_ddr(chain_sd, 0, 2, cache=cache))
    out.append(qkz.check_ddr(chain4, 0, 1, cache=cache))
    out.append(qkz.check_ddr(chain4, 1, 2, cache=cache))
    chain2 = _generic_chain(config, ctx, g, rng, ("V", "V*"))
    out.append(qkz.check_qkz_compatibility(chain2, 0, 1, cache=cache))
    out.append(qkz.check_qkz_compatibility(chain4, 1, 2, cache=cache))
    return out


def _chk_theorems(config, cache):
    ctx = config.context()
    g = config.grading()
    rng = _rng_for(config, "theorems")
    out = []
    for n in sorted({1, min(config.n, 3)}):
        case = reduction.ReductionCase("self_dual", n, config.m, g, ctx,
                                       alpha=config.alpha1())
        zetas = idsuite.draw_generic_zetas(rng, n, config.m, g, ctx)
        out.append(reduction.theorem_check_selfdual(case, zetas, seed=config.seed,
                                                    cache=cache))
    for n in (1, 2):
        case = reduction.ReductionCase("general", n, config.m, g, ctx,
                                       alpha=config.alpha1())
        zetas = idsuite.draw_generic_zetas(rng, n, config.m, g, ctx)
        out.append(reduction.theorem_check_general(case, zetas, seed=config.seed,
                                                   cache=cache))
    case = reduction.ReductionCase("general", 2, config.m, g, ctx, alpha=config.alpha1())
    zetas = idsuite.draw_generic_zetas(rng, 2, config.m, g, ctx)
    out.append(reduction.insertion_invariance_check(case, zetas, _zeta(rng), _zeta(rng),
                                                    cache=cache))
    for mode in ("self_dual", "general"):
        case = reduction.ReductionCase(mode, 2, config.m, g, ctx, alpha=config.alpha1())
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


def _apply_tol_override(reports, tol):
    if tol is None:
        return reports
    out = []
    for r in reports:
        out.append(VerificationReport(
            name=r.name, params=r.params, residual=r.residual, tolerance=float(tol),
            passed=r.residual <= float(tol), wall_ms=r.wall_ms,
            extracted_scalars=r.extracted_scalars, note=r.note))
    return out


def _emit(text: str, config: RunConfig):
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def cmd_suite(config: RunConfig) -> int:
    """Run every check group, or the one that `verify` names, on one cache."""
    if config.check not in (None, *CHECKS):
        raise ConfigError(f"unknown check {config.check!r}; known: {', '.join(sorted(CHECKS))}")
    config.context()  # validate q and grading before running anything
    config.grading()
    cache = RCache()
    reports = []
    for name in sorted(CHECKS) if config.check is None else [config.check]:
        reports.extend(_run_group(name, config, cache))
    reports = _apply_tol_override(reports, config.tol)
    _emit(serialize_reports(reports, config.fmt), config)
    return 0 if all(r.passed for r in reports) else 1


def cmd_rmat(config: RunConfig) -> int:
    ctx = config.context()
    if config.kinds not in KIND_CODES:
        raise ConfigError(f"unknown kind pair {config.kinds!r}")
    k1, k2 = KIND_CODES[config.kinds]
    res = r_matrix(k1, config.zeta1, k2, config.zeta2, config.m, config.grading(),
                   ctx, normalization=config.norm, check_invertible=False)
    d = config.m + 1
    payload = {
        "site_dims_out": [d, d],
        "site_dims_in": [d, d],
        # + 0.0 writes signed zeros as 0
        "data": [[float(v.real), float(v.imag)] for v in res.R.reshape(-1) + 0.0],
    }
    _emit(_to_json(payload) + "\n", config)
    return 0


def cmd_scalars(config: RunConfig) -> int:
    ctx = config.context()
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
    parser = argparse.ArgumentParser(
        prog="qkzkit",
        description="Construct sl2 loop-algebra R-operators and verify their identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--m", type=int, default=1, help="spin label (module dimension m+1)")
        p.add_argument("--l", type=int, default=1, help="rank for the sl(l+1) scalar family")
        p.add_argument("--n", type=int, default=2, help="half chain length for reductions")
        p.add_argument("--q", type=parse_complex, default=complex(0.7), metavar="RE[,IM]")
        p.add_argument("--s0", type=int, default=1)
        p.add_argument("--s1", type=int, default=1)
        p.add_argument("--alpha", type=parse_complex, action="append", default=[],
                       metavar="RE[,IM]")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--tol", type=float, default=None,
                       help="override every check tolerance")
        p.add_argument("--trunc", type=int, default=256)
        p.add_argument("--samples", type=int, default=3)
        p.add_argument("--norm", choices=("hw", "kappa"), default="kappa")
        p.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None)
        # accepted for old command lines (the benchmark's among them); the
        # suite always runs sequentially, so 1 is the only value
        p.add_argument("--jobs", type=int, choices=(1,), default=1, help=argparse.SUPPRESS)

    add_common(sub.add_parser("suite", help="run the full check battery"))
    pv = sub.add_parser("verify", help="run one named check group")
    add_common(pv)
    pv.add_argument("check", help="check group name")
    pr = sub.add_parser("rmat", help="dump an R-operator matrix")
    add_common(pr)
    pr.add_argument("--kinds", choices=sorted(KIND_CODES), default="VV")
    pr.add_argument("--zeta1", type=parse_complex, default=complex(1.0), metavar="RE[,IM]")
    pr.add_argument("--zeta2", type=parse_complex, default=complex(1.0), metavar="RE[,IM]")
    ps = sub.add_parser("scalars", help="tabulate normalization scalars")
    add_common(ps)
    return parser


def config_from_args(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in ("m", "l", "n", "q", "s0", "s1", "alpha", "seed", "tol", "trunc",
                 "samples", "norm", "fmt", "out"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    for name in ("check", "kinds", "zeta1", "zeta2"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    handlers = {"suite": cmd_suite, "verify": cmd_suite, "rmat": cmd_rmat,
                "scalars": cmd_scalars}
    try:
        if config.samples < 1:
            raise ConfigError("--samples must be at least 1")
        return handlers[config.command](config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except QkzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
