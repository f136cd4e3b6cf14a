"""Byte-identity corpus: the sha256 of the JSON report and the exit code of
sixteen command lines, over spins 1-4, the gradings, a small and a complex
q, the q-disk edge and a tiny q, the theorem chain at n = 3 and the
reduction_chains library reports of the benchmark.  A change that means to keep every report bit
keeps every digest; one that moves bits on purpose records the new digests
and says which lines moved and why, from the output of
`python tests/compare_corpus.py OLD NEW`.  The three pins of test_cli.py
(CLI_PINS) are not repeated here.  Spin 3 has four lines, so that a
last-bit change in a single Rcheck of its solve stack moves a digest."""

import hashlib
import json

import numpy as np
import pytest

from qkzkit import cli, rsolve
from test_traced_names import WORKLOADS

CORPUS = {
    "suite --m 2 --seed 7":
        (0, "c857cf2f332d1192147988ac73eb36b43aad371707c93b956d745bc7746b1c99"),
    "suite --m 3 --seed 1":
        (0, "a87cf43e144b19e6e46bdd30de1e67315128b838165483ff1ba41ecd8f1598be"),
    "suite --m 4 --seed 1":
        (0, "a9679fcfc5ddddaa5f8b16b78675a02dd1780b8b5f57caf06a530dffd9bf251f"),
    "suite --m 1 --samples 12 --seed 1":
        (0, "b5c7d2e6b2ff6c5cefe25dca5b7541d0b2a05c53d9fb80c07fecf7afbd39096d"),
    "suite --m 2 --s0 1 --s1 0 --seed 1":
        (0, "2d24c2bf14f0f6050fe689c5c043ed293d39f3cc683c713c8f98def739384322"),
    "suite --m 2 --s0 2 --s1 1 --seed 1":
        (0, "425e3deee99106c8e82f73916b28dab8c2e3974eff705de0dc514a6688f60d41"),
    "suite --m 2 --s0 0 --s1 1 --seed 1":
        (0, "fa5fe41d374b36929d84ca7773d5170b3433b288ab98175408211f3932d23d71"),
    "suite --m 2 --q 0.3 --seed 1":
        (0, "74f992a6d33b4e3c7f650da6d31c16eba0b8c9ddf4f660d05851c95ffa8391ad"),
    "suite --m 2 --q 0.5,0.5 --seed 1":
        (0, "a63a98c7cd6b9bbc0902a8933205db1ae8466fc3587a9151010fd7c9cea1badf"),
    "verify theorems --n 3 --m 1 --seed 1":
        (0, "f1e4a79366d0987ce2c3816700799d643106c14258e12a4d5f08ff00d39e51f7"),
    # more of spin 3, so that a last-bit change in one Rcheck of its stack shows
    "suite --m 3 --seed 7":
        (0, "19f2873496d205711985a4ba9835c201a37b062402adf88a9056bc5a7ea5f57f"),
    "suite --m 3 --s0 1 --s1 0 --seed 1":
        (0, "93e04bef1cd616e3461599c8479653791d0d51080e432b8851551e3cfcea07bb"),
    "suite --m 3 --q 0.5,0.5 --seed 1":
        (0, "710c052757dadcd5b8bff37883c407a0f3d023eb1cd693322c8a5e69fe3a6717"),
    # the q-disk edge, where a Pochhammer product takes hundreds of explicit factors
    "suite --m 1 --q 0.999":
        (0, "06c7da7ff23e945f0b82364f960ff4fccd99e6d599261e8a0dbec829495ae05c"),
    "suite --m 2 --q 0,0.99":
        (0, "b5b6e2a0e64b199307aeb60bf6cd7e7deb1ead00811f866c2579841ff2d428bf"),
    # the powers of q under- and overflow: every group fails as a numerical failure, exit 1
    "suite --m 1 --q 1e-200":
        (1, "c632bbdbc46725147eef36cf784b93484a90bd2714d51cd812fbd847f9b26112"),
}

# the three pins of test_cli.py, which tests/compare_corpus.py compares too
CLI_PINS = ("suite --m 1 --seed 7", "suite --m 1 --samples 12 --seed 7",
            "suite --m 1 --samples 12 --q 0.5,0.5 --seed 3")

# the reduction_chains seeds that tests/compare_corpus.py compares
CHAINS_SEEDS = (1, 13)

# the reduction_chains workload of perfbench at seed 1, its reports serialized as the CLI does
CHAINS_DIGEST = "3ab61eb8d6de49af9bdcfc38dca8c93352495a81bddba997da1bba085a4de5fc"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("line", sorted(CORPUS))
def test_report_is_unchanged(line, capsys):
    code = cli.main(line.split())
    got = (code, _sha(capsys.readouterr().out))
    assert got == CORPUS[line], f"the report of `{line}` moved"


def test_a_last_bit_change_in_one_spin_3_rcheck_moves_a_digest(monkeypatch, capsys):
    # nextafter on the largest entry of only the first request of each spin-3
    # solve stack: some spin-3 line of the corpus must move
    solve = rsolve._solve

    def planted(reqs, template, pair):
        out = solve(reqs, template, pair)
        if template.m == 3 and isinstance(out[0], rsolve.RResult):
            entries = out[0].entries.copy()
            k = int(np.abs(entries).argmax())
            entries[k] = complex(np.nextafter(entries[k].real, np.inf), entries[k].imag)
            out[0] = out[0]._replace(entries=entries)
        return out
    monkeypatch.setattr(rsolve, "_solve", planted)
    moved = []
    for line in [line for line in CORPUS if line.startswith("suite --m 3")]:
        code = cli.main(line.split())
        moved.append((code, _sha(capsys.readouterr().out)) != CORPUS[line])
    assert any(moved)


def test_reduction_chains_reports_are_unchanged():
    reports = WORKLOADS.run_chains(WORKLOADS.chain_inputs(1), 1)
    got = _sha(cli.serialize_reports(reports, "json"))
    assert got == CHAINS_DIGEST, "the reduction_chains reports at seed 1 moved"


def test_the_comparator_reports_exits_flags_and_residual_ratios():
    import compare_corpus

    def report(name, residual, tolerance=1e-10, **params):
        return {"name": name, "params": params, "residual": residual, "tolerance": tolerance,
                "passed": residual <= tolerance, "wall_ms": None}
    old = [report("x", 1e-12, m=1), report("y", 1e-16, m=1), report("z", 1e-11, m=2),
           report("gone", 0.0)]
    new = [report("x", 3e-12, m=1), report("y", 2e-16, m=1), report("z", 1e-9, m=2),
           report("added", 0.0)]
    lines = compare_corpus.compare(
        {"a": (0, json.dumps(old)), "b": (0, "[]"), "c": (1, "")},
        {"a": (1, json.dumps(new)), "b": (0, "[]"), "c": (2, "")})
    assert lines == [
        "a:", "  exit 0 -> 1", "  1 reports only old: gone (1)", "  1 reports only new: added (1)",
        '  passed True -> False: ["z", {"m": 2}] (residual 1e-11 -> 1e-09)',
        "  3 residuals moved, 1 of them below 1e-14 on both sides",
        '  worst ratio new/old 100: residual of ["z", {"m": 2}]',
        "c:", "  exit 1 -> 2", "  a report is not JSON on one side",
        "2 of 3 lines moved"]
