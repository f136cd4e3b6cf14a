"""Tests of the benchmark's correctness gate and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
from spans import Tracer  # noqa: E402

SEED = 7


def _report(name, params, residual=1e-14, tolerance=1e-10):
    return {"name": name, "params": params, "residual": residual, "tolerance": tolerance,
            "passed": residual <= tolerance, "wall_ms": None}


@pytest.fixture
def good():
    return [
        _report("ybe", {"m": 1, "kinds": ["V", "V", "V"], "norm": "kappa"}),
        _report("crossing", {"m": 2, "scalar_spread": 3e-15}),
        _report("theorem_selfdual", {"n": 2, "m": 1, "seed": SEED, "forms_residual": 0.0,
                                     "operator_residual": 0.0, "e2e_residual": 1e-16,
                                     "e2e_tolerance": 1e-8}, residual=0.0, tolerance=1e-9),
    ]


@pytest.fixture
def reference(good):
    return sorted(gate.identity(r, SEED) for r in good)


def _check(reference, reports, exit_code=0, stderr=""):
    return gate.check_repetition(reference, SEED, exit_code, stderr, json.dumps(reports))


def test_matching_reports_pass(reference, good):
    v = _check(reference, good)
    assert v.correct and v.attempted == 3 and v.failed == 0


def test_residual_values_are_not_part_of_identity(reference, good):
    moved = copy.deepcopy(good)
    moved[1]["params"]["scalar_spread"] = 4e-15
    moved[2]["params"]["operator_residual"] = 2e-16
    moved[2]["residual"] = 2e-16
    assert _check(reference, moved).correct


def test_identity_is_seed_relative(good):
    ref = sorted(gate.identity(r, SEED) for r in good)
    other = copy.deepcopy(good)
    other[2]["params"]["seed"] = SEED + 1
    assert gate.check_repetition(ref, SEED + 1, 0, "", json.dumps(other)).correct
    assert not gate.check_repetition(ref, SEED, 0, "", json.dumps(other)).correct


def test_failing_report_fires(reference, good):
    bad = copy.deepcopy(good)
    bad[0].update(residual=1e-3, passed=False)
    v = _check(reference, bad)
    assert not v.correct and v.failed == 1


def test_mutated_report_identity_fires(reference, good):
    bad = copy.deepcopy(good)
    bad[0]["params"]["m"] = 2
    v = _check(reference, bad)
    assert not v.correct and v.failed == 2  # one missing, one unexpected


def test_missing_report_fires(reference, good):
    v = _check(reference, good[:-1])
    assert not v.correct and v.failed == 1 and v.attempted == 3


@pytest.mark.parametrize("code", [1, 2])
def test_nonzero_exit_fails_every_check(reference, good, code):
    v = _check(reference, good, exit_code=code)
    assert not v.correct and v.failed == v.attempted == 3


def test_traceback_fails_every_check(reference, good):
    v = _check(reference, good, stderr="Traceback (most recent call last):\n  ...")
    assert not v.correct and v.failed == 3


def test_crash_without_report_fails_every_check(reference):
    v = gate.check_repetition(reference, SEED, None, "timed out", None)
    assert not v.correct and v.failed == 3


def test_health_counts_exact_zeros_and_worst_margin(good):
    worst, zeros = gate.health(good)
    assert zeros == 3  # residual, forms and operator residual of theorem_selfdual
    assert worst == pytest.approx(-4.0)


def test_tracer_rebinds_aliases_and_accounts_for_wall_time():
    qkzkit = pytest.importorskip("qkzkit")
    import qkzkit.cli  # noqa: F401  (loads every module)
    from qkzkit import GradingChoice, QContext, idsuite, qkz, reduction, rsolve

    originals = (rsolve.r_matrix, idsuite.r_matrix, qkz.r_matrix, reduction.r_matrix,
                 qkzkit.cli.r_matrix, dict(qkzkit.cli.CHECKS))
    tracer = Tracer("test")
    tracer.install()
    try:
        for mod in (idsuite, qkz, reduction, qkzkit.cli):
            assert mod.r_matrix is rsolve.r_matrix is not originals[0]
        assert qkz.embedded_matmul is reduction.embedded_matmul
        ctx, g = QContext(q=0.7), GradingChoice(1, 1)
        cache = rsolve.RCache()
        t0 = time.perf_counter()
        idsuite.check_unitarity(1, ("V", "V"), (1.3, 0.6j), g, ctx, cache=cache)
        idsuite.check_unitarity(1, ("V", "V"), (1.3, 0.6j), g, ctx, cache=cache)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert rsolve.r_matrix is originals[0] and idsuite.r_matrix is originals[1]
    assert qkzkit.cli.CHECKS == originals[5]
    metrics, absent = tracer.metrics(wall, 0.0)
    assert absent == []
    assert metrics["rsolve.solves"] == 2 and metrics["rsolve.cache_hits"] == 2
    assert metrics["rsolve.requests"] == 4
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in
                     ("cli", "idsuite", "qkz", "reduction", "rsolve", "tensorops", "reps", "scalars"))
    assert layer_self + metrics["unattributed_s"] == pytest.approx(wall)
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_missing_wrapped_name_is_reported_absent(monkeypatch):
    pytest.importorskip("qkzkit")
    import qkzkit.cli  # noqa: F401
    from qkzkit import qkz, rsolve

    monkeypatch.delattr(rsolve, "rcheck_continued")
    monkeypatch.delattr(qkz, "rcheck_continued")
    tracer = Tracer("test")
    tracer.install()
    tracer.uninstall()
    metrics, absent = tracer.metrics(1.0, 1.0)
    assert {"rsolve.continued.calls", "rsolve.continued.s",
            "rsolve.continued.solves"} <= set(absent)
    assert metrics["rsolve.continued.calls"] == 0 and "rsolve.solves" not in absent
