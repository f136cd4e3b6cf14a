"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 child.py MODE WORKLOAD SEED WORKDIR

MODE is `setup` (import the program and stop), `run` (untraced) or
`trace` (with the per-layer tracer installed). The report goes to
WORKDIR; the last line of standard output is one JSON object with the
timings. The exit code is the program's own.
"""

import sys
import time

import numpy  # noqa: F401  (set-up time covers numpy and qkzkit)
import qkzkit.cli

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import SUITE_ARGS, chain_inputs, run_chains, suite_argv  # noqa: E402


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def reference_work() -> float:
    """Seconds taken by a fixed mix of interpreter and small-BLAS work.

    The same work at every commit, so it measures only how fast the shared
    machine runs at this moment; run.py scales timings by it.
    """
    rng = numpy.random.default_rng(12345)
    a = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
    t0 = time.perf_counter()
    acc, p = 1.0 + 0.0j, 1.0 + 0.0j
    for _ in range(100000):
        acc *= 1.0 - 0.3j * p
        p *= 0.9999
    for _ in range(20):
        numpy.linalg.eigh(a @ a.conj().T)
    return time.perf_counter() - t0


def main(mode, workload, seed, workdir) -> int:
    if mode == "setup":
        print(json.dumps({"imported_at": IMPORTED_AT, "reference_s": reference_work(),
                          "environment": environment()}))
        return 0
    run_id = f"{workload}-{seed}-{os.getpid()}"
    report_path = Path(workdir) / f"{run_id}.report.json"
    if workload in SUITE_ARGS:
        argv = suite_argv(workload, seed, report_path)
    else:
        inputs = chain_inputs(seed)
    tracer = Tracer(run_id) if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    reference_before = reference_work()
    cpu0, t0 = time.process_time(), time.perf_counter()
    if workload in SUITE_ARGS:
        code = qkzkit.cli.main(argv)
    else:
        reports = run_chains(inputs, seed)
        report_path.write_text(qkzkit.cli.serialize_reports(reports, "json"))
        code = 0 if all(r.passed for r in reports) else 1
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    result = {
        "imported_at": IMPORTED_AT,
        "reference_s": (reference_before + reference_work()) / 2,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "report": str(report_path),
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(Path(workdir) / f"{run_id}.spans.jsonl")
        result["layers"], result["absent"] = tracer.metrics(wall, cpu)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]))
