"""Correctness gate and checker-health diagnostics for one workload repetition.

A repetition passes when the program exited 0 without a traceback, every
report passed, and the set of report identities equals the workload's
reference. An identity is the report name plus its params, without the
residual-valued params: residuals may legitimately move at the ulp level,
so reports are never compared byte for byte.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RESIDUAL_PARAMS = ("operator_residual", "e2e_residual", "forms_residual", "scalar_spread")
SEED_PLACEHOLDER = "<seed>"


def identity(report, seed) -> str:
    params = {k: v for k, v in report["params"].items() if k not in RESIDUAL_PARAMS}
    if params.get("seed") == seed:
        params["seed"] = SEED_PLACEHOLDER
    return json.dumps([report["name"], params], sort_keys=True)


def reference_path(workload) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload) -> list:
    with open(reference_path(workload)) as fh:
        return json.load(fh)["identities"]


def write_reference(workload, reports, seed):
    ids = sorted(identity(r, seed) for r in reports)
    with open(reference_path(workload), "w") as fh:
        json.dump({"workload": workload, "identities": ids}, fh, indent=1)
        fh.write("\n")


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    reports: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def check_repetition(reference, seed, exit_code, stderr, report_text) -> Verdict:
    """Account one repetition against the reference identities.

    A crash, a nonzero exit or a traceback fails every expected check;
    otherwise each failing, missing or unexpected report counts once.
    """
    expected = len(reference)
    if "Traceback (most recent call last)" in stderr:
        return Verdict(expected, expected, ["traceback"])
    if exit_code != 0:
        return Verdict(expected, expected, [f"exit code {exit_code}"])
    try:
        reports = json.loads(report_text)
    except (TypeError, ValueError):
        return Verdict(expected, expected, ["report is not JSON"])
    problems = []
    failing = [r for r in reports if not r.get("passed")]
    if failing:
        problems.append(f"{len(failing)} reports failed, first {failing[0]['name']}")
    got = [identity(r, seed) for r in reports]
    missing = set(reference) - set(got)
    unexpected = set(got) - set(reference)
    if missing:
        problems.append(f"{len(missing)} reports missing, first {sorted(missing)[0]}")
    if unexpected:
        problems.append(f"{len(unexpected)} reports unexpected, first {sorted(unexpected)[0]}")
    if len(got) != len(set(got)):
        problems.append("duplicate report identities")
    failed = min(expected, len(failing) + len(missing) + len(unexpected))
    return Verdict(expected, failed, problems, reports)


def health(reports) -> tuple:
    """(worst log10(residual/tolerance), count of residuals that are exactly 0.0).

    Checks with tolerance 0 (counters such as degenerate_detection) are
    skipped. The residual-valued params of a report count as residuals.
    """
    worst = -math.inf
    zeros = 0
    for r in reports:
        if r["tolerance"] <= 0:
            continue
        values = [r["residual"]] + [r["params"][k] for k in RESIDUAL_PARAMS[:3]
                                    if k in r["params"]]
        zeros += sum(1 for v in values if v == 0.0)
        if r["residual"] > 0:
            worst = max(worst, math.log10(r["residual"] / r["tolerance"]))
    return worst, zeros
