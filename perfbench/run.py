"""qkzkit benchmark: run one workload, check its reports, print its metrics.

    python3 perfbench/run.py --workload suite_m3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --write-reference --seed 0

Run from anywhere; the program is taken from `src/` next to this
directory. Each repetition runs in a fresh interpreter (child.py), so
no module-global state carries over between repetitions. BLAS is pinned
to one thread. With --trace 0 the end-to-end metrics of BENCHMARK.json
are reported, their timings scaled to a reference machine speed (see
REFERENCE_S); with --trace 1 untraced and traced repetitions alternate
and the per-layer metrics are reported, unscaled. The last line of
standard output is one JSON object: correct, attempted, failed and
metrics. Full records go to .perfbench/results/.
"""

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
from spans import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
CHILD = HERE / "child.py"
BLAS_THREADS = "1"      # at most nproc on every machine
SETUP_PROBES_PER_REP = 2  # import-only launches before each repetition
MIN_REPS = 3
RUN_BUDGET_S = 170.0    # a whole run must exit within 180 s
# The shared machine's speed drifts by up to 2x over minutes, for the workload
# and the import alike. Timings are therefore scaled to the speed at which
# child.reference_work takes REFERENCE_S, measured around the same launch.
REFERENCE_S = 0.08


def at_reference_speed(seconds, reference_s):
    return seconds * REFERENCE_S / reference_s


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Runner:
    """Launches repetitions of one workload and gates each one."""

    def __init__(self, workload, seed, deadline, reference=None):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.env = child_env()
        self.reference = reference
        self.work = OUT / "work"
        self.work.mkdir(parents=True, exist_ok=True)
        self.environment = None

    def launch(self, mode):
        """(child result or None, exit code, stderr, seconds from launch to import)."""
        t = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), mode, self.workload, str(self.seed), str(self.work)],
                env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - t))
        except subprocess.TimeoutExpired:
            return None, None, "timed out", None
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            return None, proc.returncode, proc.stderr, None
        return result, proc.returncode, proc.stderr, result["imported_at"] - t

    def setup_probe(self):
        """(seconds from launch to import, reference-work seconds right after)."""
        result, code, stderr, setup_s = self.launch("setup")
        if result is None or code != 0:
            raise SystemExit(f"cannot import the program:\n{stderr}")
        self.environment = result["environment"]
        return setup_s, result["reference_s"]

    def repetition(self, mode):
        t = time.monotonic()
        result, code, stderr, _ = self.launch(mode)
        elapsed = time.monotonic() - t
        report_text = None
        if result is not None:
            report = Path(result["report"])
            if report.is_file():
                report_text = report.read_text()
                report.unlink()
            spans = report.with_name(report.name.replace(".report.json", ".spans.jsonl"))
            if spans.is_file():
                spans.replace(OUT / "results" / f"{self.workload}-seed{self.seed}.spans.jsonl")
        verdict = gate.check_repetition(self.reference, self.seed, code, stderr, report_text)
        if verdict.problems and stderr.strip():
            verdict.problems.append("stderr: " + stderr.strip().splitlines()[-1])
        return {
            "mode": mode,
            "exit_code": code,
            "wall_s": result["wall_s"] if result else elapsed,
            "reference_s": result["reference_s"] if result else REFERENCE_S,
            "peak_rss_mb": result["peak_rss_mb"] if result else 0.0,
            "layers": result.get("layers") if result else None,
            "absent": result.get("absent", []) if result else [],
            "verdict": verdict,
        }


def measure_end_to_end(runner, seconds):
    probes, reps = [], []
    start = time.monotonic()
    while True:
        # probes spread over the run, so set-up time sees the same machine load as the workload
        probes += [runner.setup_probe() for _ in range(SETUP_PROBES_PER_REP)]
        reps.append(runner.repetition("run"))
        now = time.monotonic()
        per_rep = (now - start) / len(reps)
        if now + per_rep > runner.deadline:
            break
        if len(reps) >= MIN_REPS and now - start + per_rep > seconds:
            break
    samples = {
        "wall_s": [at_reference_speed(r["wall_s"], r["reference_s"]) for r in reps],
        "setup_s": [at_reference_speed(s, ref) for s, ref in probes],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "measured.wall_s": [r["wall_s"] for r in reps],
        "measured.setup_s": [s for s, _ in probes],
        "reference_s": [r["reference_s"] for r in reps] + [ref for _, ref in probes],
    }
    return reps, samples


def measure_layers(runner, seconds):
    runner.setup_probe()
    reps = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        reps.append(runner.repetition("run"))
        reps.append(runner.repetition("trace"))
        pair_s = time.monotonic() - t
        if time.monotonic() - start + pair_s > seconds or time.monotonic() + pair_s > runner.deadline:
            break
    samples = {"untraced.wall_s": [r["wall_s"] for r in reps[0::2]], "trace.overhead_s": [],
               "trace.accounted_frac": []}
    for plain, traced in zip(reps[0::2], reps[1::2]):
        if traced["layers"] is None:
            continue
        for name, value in traced["layers"].items():
            samples.setdefault(name, []).append(value)
        # each pair ran back to back, so its difference cancels most machine drift
        samples["trace.overhead_s"].append(traced["wall_s"] - plain["wall_s"])
        layers = traced["layers"]
        samples["trace.accounted_frac"].append(
            (sum(layers[f"{layer}.self_s"] for layer in LAYERS) + layers["unattributed_s"])
            / layers["trace.wall_s"])
    return reps, samples


def summarize(workload, seed, trace, seconds, deadline):
    runner = Runner(workload, seed, deadline, gate.load_reference(workload))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reps, samples = (measure_layers if trace else measure_end_to_end)(runner, seconds)
    verdicts = [r["verdict"] for r in reps]
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    healths = [gate.health(v.reports) for v in verdicts if v.reports]
    worst_margin = max((h[0] for h in healths), default=-math.inf)
    zero_residuals = max((h[1] for h in healths), default=0)
    if math.isfinite(worst_margin):
        samples["health.worst_log10_margin"] = [worst_margin]
    samples["health.zero_residuals"] = [zero_residuals]
    absent = sorted({a for r in reps for a in r["absent"]})
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for spec in wanted:
        values = samples.get(spec["name"])
        if not values:
            absent.append(spec["name"])
            values = [0]
        # counts stay whole numbers
        median = (statistics.median_low if all(isinstance(v, int) for v in values)
                  else statistics.median)
        metrics[spec["name"]] = {"value": median(values), "unit": spec["unit"],
                                 "samples": len(values)}
    problems = [p for v in verdicts for p in v.problems]
    record = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "environment": runner.environment, "repetitions": len(reps),
        "correct": not problems, "attempted": attempted, "failed": failed,
        "checks_failed_frac": failed / attempted if attempted else 1.0,
        "health": {"worst_log10_margin": worst_margin if math.isfinite(worst_margin) else None,
                   "zero_residuals": zero_residuals},
        "metrics": metrics, "absent": absent, "problems": problems,
        "samples": {k: v for k, v in samples.items() if not k.startswith("health.")},
    }
    (OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def print_summary(rec):
    env = rec["environment"] or {}
    print(f"{rec['workload']}: seed={rec['seed']} trace={rec['trace']} "
          f"repetitions={rec['repetitions']} nproc={env.get('nproc')} "
          f"python={env.get('python')} numpy={env.get('numpy')} blas={env.get('blas')} "
          f"blas_threads={env.get('blas_threads')}")
    for name, m in rec["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']} (median of {m['samples']})")
    if not rec["trace"]:
        smp = rec["samples"]
        print(f"  as measured, before scaling: wall_s {statistics.median(smp['measured.wall_s']):.6g} s, "
              f"setup_s {statistics.median(smp['measured.setup_s']):.6g} s; reference work "
              f"{statistics.median(smp['reference_s']):.6g} s (scaled to {REFERENCE_S} s)")
    print(f"  {'checks_failed_frac':34s} {rec['checks_failed_frac']:.6g} "
          f"({rec['failed']} of {rec['attempted']} checks)")
    h = rec["health"]
    print(f"  health (not gated): worst log10(residual/tolerance) = "
          f"{h['worst_log10_margin']}, exactly-zero residuals = {h['zero_residuals']}")
    if rec["absent"]:
        print(f"  absent (wrapped name gone, reported as 0): {', '.join(rec['absent'])}")
    if rec["trace"]:
        acc = rec["samples"]["trace.accounted_frac"]
        print(f"  accounting: (layer self times + unattributed_s) / trace.wall_s = "
              f"{min(acc, default=0):.6f} .. {max(acc, default=0):.6f} over {len(acc)} traced "
              f"repetitions; rsolve.cache_hit_ratio has base rsolve.requests")
    verdict = "correct" if rec["correct"] else "INCORRECT: " + "; ".join(rec["problems"][:5])
    print(f"  verdict: {verdict}")


def result_line(rec) -> dict:
    return {"correct": rec["correct"], "attempted": rec["attempted"], "failed": rec["failed"],
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in rec["metrics"].items()}}


def write_reference(seed):
    for workload in WORKLOADS:
        runner = Runner(workload, seed, time.monotonic() + RUN_BUDGET_S)
        result, code, stderr, _ = runner.launch("run")
        if result is None or code != 0:
            raise SystemExit(f"{workload}: exit {code}\n{stderr}")
        report = Path(result["report"])
        reports = json.loads(report.read_text())
        report.unlink()
        if not all(r["passed"] for r in reports):
            raise SystemExit(f"{workload}: a report failed; no reference written")
        gate.write_reference(workload, reports, seed)
        print(f"{workload}: {len(reports)} report identities written")


def nonnegative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=nonnegative, default=0)
    p.add_argument("--seconds", type=nonnegative, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="record the report identities of every workload at --seed")
    args = p.parse_args()
    if not (SRC / "qkzkit" / "__init__.py").is_file():
        print(f"qkzkit sources not found under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("qkzkit sources do not compile", file=sys.stderr)
        return 2
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    if args.write_reference:
        write_reference(args.seed)
        return 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        rec = summarize(name, args.seed, args.trace, args.seconds,
                        time.monotonic() + RUN_BUDGET_S)
        print_summary(rec)
        lines[name] = result_line(rec)
    sys.stdout.flush()
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
