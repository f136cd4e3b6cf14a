import importlib
import importlib.util
from pathlib import Path

import pytest

from qkzkit import cli, rsolve

# perfbench/spans.py wraps these by name and prices the two tensorops ones in
# spans.COSTS; a rename would make their layer metrics, or
# tensorops.bytes_computed, read 0 instead of failing
TRACED = ("rsolve._raw_nullvector", "rsolve.solve_intertwiner", "rsolve.normalize_hw",
          "rsolve.apply_kappa", "cli.serialize_reports",
          "tensorops.embed_pair", "tensorops.permutation_op")


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_exists(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"qkzkit.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)


def _benchmark_module(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _benchmark_module("workloads")
GATE = _benchmark_module("gate")


@pytest.mark.parametrize("workload", sorted(WORKLOADS.SUITE_ARGS))
def test_benchmark_command_line_parses(workload):
    # the benchmark drives the CLI with these argument lists; removing an
    # option they use must fail here rather than in the benchmark
    argv = WORKLOADS.suite_argv(workload, 1, "x.json")
    args = cli.build_parser().parse_args(argv)
    assert args.command == "suite"


def test_reduction_workload_passes_its_gate():
    # reduction_chains calls the theorem-group checks of `reduction` directly,
    # so a change of their signatures or reports would otherwise show only
    # in the benchmark
    reports = WORKLOADS.run_chains(WORKLOADS.chain_inputs(1), 1)
    assert len(reports) == 21 and all(r.passed for r in reports)
    got = {GATE.identity(cli.report_payload(r), 1) for r in reports}
    assert got == set(GATE.load_reference("reduction_chains"))


def test_residual_params_match_the_gate():
    # a report's identity leaves out its residual-valued params, in cli's
    # serialization and in the benchmark's gate alike; a new one added on one
    # side only would change the identities that perfbench/reference pins
    assert cli._RESIDUAL_PARAMS == GATE.RESIDUAL_PARAMS


def test_reduction_workload_builds_one_template_per_spin(monkeypatch):
    # its 21 checks at m = 1 and 2 read all four module pairs of each spin from
    # one shared cache: one commutant template per spin, two in all
    built = []
    raw = rsolve.CommutantTemplate
    monkeypatch.setattr(rsolve, "CommutantTemplate", lambda *spin: built.append(spin) or raw(*spin))
    WORKLOADS.run_chains(WORKLOADS.chain_inputs(1), 1)
    assert sorted(m for m, _ in built) == [1, 2]
