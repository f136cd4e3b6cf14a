"""The benchmark's workloads: what each one asks of the program.

Every workload is single-process and sequential, at q = 0.7, grading
(1, 1) and the kappa normalization. Its inputs come from the workload
seed alone. The suite workloads go through the public CLI entry point
`qkzkit.cli.main`; `reduction_chains` calls the theorem-group library
functions directly, because the CLI caps the self-dual chain at n = 3.
"""

SUITE_COMMON = ["--q", "0.7", "--s0", "1", "--s1", "1", "--norm", "kappa", "--jobs", "1"]
SUITE_ARGS = {
    "suite_m3": ["--m", "3"],
    "suite_m1_wide": ["--m", "1", "--samples", "12"],
}
# (n, m) chains of dimension D = (m+1)^(2n) = 256, 1024, 729
CHAINS = ((4, 1), (5, 1), (3, 2))
WORKLOADS = (*SUITE_ARGS, "reduction_chains")


def suite_argv(workload, seed, out_path):
    return ["suite", *SUITE_ARGS[workload], *SUITE_COMMON, "--seed", str(seed),
            "--out", str(out_path)]


def chain_inputs(seed):
    """Spectral parameters for every reduction_chains call, drawn from the seed."""
    import numpy as np
    from qkzkit import GradingChoice, QContext, idsuite

    ctx, g = QContext(q=0.7), GradingChoice(1, 1)
    inputs = []
    for n, m in CHAINS:
        rng = np.random.default_rng([seed, n, m])

        def draw():
            return idsuite.draw_generic_zetas(rng, n, m, g, ctx)
        inputs.append({
            "n": n, "m": m, "ctx": ctx, "grading": g,
            "selfdual": draw(), "general": draw(),
            "insertion": (draw(), idsuite.random_zeta(rng), idsuite.random_zeta(rng)),
            "rpr": {"self_dual": draw(), "general": draw()},
            "scaling": {"self_dual": draw(), "general": draw()},
        })
    return inputs


def run_chains(inputs, seed):
    """The theorem-group checks on every chain; returns the reports."""
    import numpy as np
    from qkzkit import VerificationReport, reduction
    from qkzkit.rsolve import RCache

    cache = RCache()
    nu = 1.3 * np.exp(0.4j)
    reports = []
    for inp in inputs:
        n, m, g, ctx = inp["n"], inp["m"], inp["grading"], inp["ctx"]
        case = {mode: reduction.ReductionCase(mode, n, m, g, ctx)
                for mode in ("self_dual", "general")}
        reports.append(reduction.theorem_check_selfdual(
            case["self_dual"], inp["selfdual"], seed=seed, cache=cache))
        reports.append(reduction.theorem_check_general(
            case["general"], inp["general"], seed=seed, cache=cache))
        zetas, u, v = inp["insertion"]
        reports.append(reduction.insertion_invariance_check(
            case["general"], zetas, u, v, cache=cache))
        for mode in ("self_dual", "general"):
            reports.append(reduction.check_rpr(case[mode], 1, inp["rpr"][mode],
                                               seed=seed, cache=cache))
            resid = reduction.scaling_covariance_residual(case[mode], inp["scaling"][mode],
                                                          nu, cache)
            reports.append(VerificationReport.make(
                "scaling_covariance", {"mode": mode, "n": n, "m": m}, resid, 1e-10))
    return reports
