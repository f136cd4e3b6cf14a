"""Compare the corpus reports of two source trees, line by line.

    python tests/compare_corpus.py OLD NEW [--line "suite --m 1 --seed 3" ...]

OLD and NEW are checkouts of the repository, each with its `src/` and
`perfbench/`.  Each tree runs, in a process of its own, the command lines
of this tree's `tests/test_report_corpus.py` (CORPUS and CLI_PINS) and any
--line, and the reduction_chains reports of perfbench at each of its
CHAINS_SEEDS, as the CLI serializes them.  For each line whose exit code or report moved, it
prints the exit codes, each report whose pass flag changed or that only one
side has, and the worst ratio new/old of the residuals that moved (the
`residual` of a report and its residual-valued params); a residual that is
below 1e-14 on both sides is counted apart, and a move that is not in a
residual (an extracted scalar, a note) is counted per report.  Exit status
0 if no line moved, 1 if one did.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
TINY = 1e-14
RESIDUAL_PARAMS = ("operator_residual", "e2e_residual", "forms_residual", "scalar_spread")

# run in each tree: argv[1] its perfbench directory, stdin the lines and seeds;
# prints {line: [exit code, stdout]}
CHILD = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import workloads
from qkzkit import cli
lines, seeds = json.load(sys.stdin)
out = {}
for line in lines:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(line.split())
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"traceback: {type(exc).__name__}: {exc}"
    out[line] = [code, buf.getvalue()]
for seed in seeds:
    reports = workloads.run_chains(workloads.chain_inputs(seed), seed)
    out[f"reduction_chains --seed {seed}"] = [0, cli.serialize_reports(reports, "json")]
print(json.dumps(out))
"""


def run_tree(tree, lines, seeds) -> dict:
    """{line: (exit code, stdout)} of every line and chains seed in `tree`."""
    tree = Path(tree).resolve()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-c", CHILD, str(tree / "perfbench")],
                          input=json.dumps([lines, seeds]), capture_output=True, text=True,
                          env=env, check=True)
    return {line: tuple(result) for line, result in json.loads(done.stdout).items()}


def _identity(report) -> str:
    params = {k: v for k, v in report["params"].items() if k not in RESIDUAL_PARAMS}
    return json.dumps([report["name"], params], sort_keys=True)


def _residuals(report) -> dict:
    fields = {"residual": report["residual"]}
    fields.update((k, report["params"][k]) for k in RESIDUAL_PARAMS if k in report["params"])
    return fields


def _beside_residuals(report) -> dict:
    """A report without its residuals and pass flag."""
    return {k: v for k, v in report.items() if k not in ("residual", "passed", "params")}


def _by_identity(reports) -> dict:
    out = {}
    for report in reports:
        out.setdefault(_identity(report), []).append(report)
    return out


def _number(value) -> float:
    return math.nan if value is None else float(value)


def compare_line(old, new) -> list:
    """The lines that describe how one corpus line moved from old to new, each
    an (exit code, stdout) pair; empty if it did not move."""
    if old == new:
        return []
    out = [f"  exit {old[0]} -> {new[0]}"]
    try:
        olds, news = _by_identity(json.loads(old[1])), _by_identity(json.loads(new[1]))
    except ValueError:
        return out + ["  a report is not JSON on one side"]
    for side, mine, theirs in (("old", olds, news), ("new", news, olds)):
        names = Counter(json.loads(key)[0] for key in mine.keys() - theirs.keys())
        if names:
            out.append(f"  {sum(names.values())} reports only {side}: "
                       + ", ".join(f"{name} ({n})" for name, n in sorted(names.items())))
    moved, tiny, other, worst = 0, 0, 0, None
    for key in sorted(olds.keys() & news.keys()):
        for a, b in zip(olds[key], news[key]):
            if a["passed"] != b["passed"]:
                out.append(f"  passed {a['passed']} -> {b['passed']}: {key} "
                           f"(residual {a['residual']} -> {b['residual']})")
            ra, rb = _residuals(a), _residuals(b)
            for field in ra.keys() & rb.keys():
                va, vb = _number(ra[field]), _number(rb[field])
                if va == vb or (math.isnan(va) and math.isnan(vb)):
                    continue
                moved += 1
                if abs(va) < TINY and abs(vb) < TINY:
                    tiny += 1
                    continue
                ratio = vb / va if va else math.inf
                spread = max(ratio, 1.0 / ratio) if 0.0 < ratio < math.inf else math.inf
                if worst is None or not spread <= worst[0]:
                    worst = (spread, ratio, f"{field} of {key}")
            other += _beside_residuals(a) != _beside_residuals(b)
    out.append(f"  {moved} residuals moved, {tiny} of them below {TINY:g} on both sides")
    if worst is not None:
        out.append(f"  worst ratio new/old {worst[1]:.6g}: {worst[2]}")
    if other:
        out.append(f"  {other} reports moved in another field")
    return out


def compare(old: dict, new: dict) -> list:
    """The report of every line that moved, then a count line."""
    out, moved = [], 0
    for line in sorted(old.keys() | new.keys()):
        if line not in old or line not in new:
            out.append(f"{line}: only in {'new' if line not in old else 'old'}")
            moved += 1
            continue
        lines = compare_line(old[line], new[line])
        if lines:
            out += [f"{line}:", *lines]
            moved += 1
    return out + [f"{moved} of {len(old.keys() | new.keys())} lines moved"]


def _corpus():
    sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]
    import test_report_corpus
    return test_report_corpus


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--line", action="append", default=[], help="an extra command line")
    args = parser.parse_args(argv)
    corpus = _corpus()
    lines = [*corpus.CORPUS, *corpus.CLI_PINS, *args.line]
    seeds = list(corpus.CHAINS_SEEDS)
    report = compare(run_tree(args.old, lines, seeds), run_tree(args.new, lines, seeds))
    print("\n".join(report))
    return 0 if report[-1].startswith("0 of") else 1


if __name__ == "__main__":
    sys.exit(main())
