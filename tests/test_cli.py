import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from qkzkit import cli
from qkzkit.cli import build_parser, main, parse_complex, serialize_reports
from qkzkit.report import VerificationReport


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestParsing:
    def test_parse_complex(self):
        assert parse_complex("0.7") == 0.7
        assert parse_complex("0.5,-0.25") == 0.5 - 0.25j

    def test_unknown_check_exits_2(self, capsys):
        assert main(["verify", "nosuchcheck"]) == 2

    def test_bad_q_exits_2(self, capsys):
        # NaN passes a modulus test, so a non-finite q needs its own rejection;
        # the scalars group builds no site twist that would refuse it later.
        # A NaN twist is refused before any NaN reaches a residual
        bad_q = [["--q", q] for q in ("1.5", "nan", "0.5,nan")]
        for args in bad_q:
            assert main(["verify", "scalars", *args]) == 2
        for args in bad_q + [["--alpha", "nan"]]:
            assert main(["suite", *args]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("configuration error:")

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_bad_samples_exits_2(self, samples):
        assert main(["suite", "--samples", samples]) == 2

    def test_jobs_other_than_1_exits_2(self, capsys):
        # --jobs stays only so older command lines keep parsing; 1 is its one value
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--jobs", "2"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "--jobs" in err and "Traceback" not in err

    def test_root_unity_proxy_exits_2(self):
        q = 0.9999999999999999 * np.exp(2j * np.pi / 3)
        assert main(["suite", f"--q={q.real},{q.imag}"]) == 2

    @pytest.mark.parametrize("argv", [
        # an --out path that cannot be opened for writing
        "suite --m 1 --out {missing}", "verify reps --out {dir}", "rmat --out {dir}",
        "scalars --out {missing}",
        # integer options out of range
        "scalars --l 0", "scalars --l -2", "scalars --m -1", "rmat --m -1",
        "verify reps --samples 0", "verify qkz --n 0",
        # options the command does not read are not accepted
        "rmat --format text", "rmat --seed 1", "rmat --samples 0", "scalars --s0 2",
        "scalars --norm hw", "suite --l 2", "verify reps --jobs 1",
        # the theorems group has no m = 0 case
        "suite --m 0", "verify theorems --m 0",
    ])
    def test_bad_command_line_exits_2_without_traceback(self, argv, tmp_path, capsys):
        argv = argv.format(missing=tmp_path / "missing" / "x.json", dir=tmp_path).split()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err and "Traceback" not in captured.err


    @pytest.mark.parametrize("argv", [["suite", "--m", "0"], ["verify", "theorems", "--m", "0"]])
    def test_m0_refused_before_any_group_runs(self, argv, monkeypatch, capsys):
        ran = []
        for name in cli.CHECKS:
            monkeypatch.setitem(cli.CHECKS, name, lambda config, cache, name=name: ran.append(name))
        assert main(argv) == 2
        assert ran == [] and "theorems" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["rmat", "--m", "0"], ["scalars", "--m", "0"],
                                      ["verify", "ybe", "--m", "0"]])
    def test_m0_stays_valid_elsewhere(self, argv, capsys):
        assert main(argv) == 0


def _readme_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines()]


@pytest.mark.parametrize("argv", _readme_examples(), ids=" ".join)
def test_readme_example_parses(argv):
    assert argv[0] == "qkzkit"
    assert build_parser().parse_args(argv[1:]).command == argv[1]


class TestVerify:
    def test_single_group(self, capsys):
        code, out = run_cli(["verify", "reps", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert all(rec["passed"] for rec in data)
        assert all(rec["wall_ms"] is None for rec in data)

    def test_failing_group_still_reports(self, capsys):
        # --trunc 8 is too short for the Pochhammer products: the group fails
        # as one report, as it does in a suite run
        code = main(["verify", "scalars", "--trunc", "8"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        data = json.loads(captured.out)
        assert len(data) == 1
        assert data[0]["name"] == "scalars" and data[0]["params"] == {"group": "scalars"}
        assert not data[0]["passed"] and data[0]["note"].startswith("TruncationError")

    def test_overflowing_twist_fails_its_reports(self, capsys):
        # at alpha = 300 the m = 2 twist pair has entries near 1e186, so the
        # commutator norms overflow: those reports fail (residual inf, written
        # as null) instead of reading 0, and numpy prints no warning
        code = main(["verify", "invariances", "--alpha", "300"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        failed = [rec for rec in json.loads(captured.out) if not rec["passed"]]
        assert len(failed) == 2
        assert all(rec["name"] == "invariance_a" and rec["params"]["m"] == 2
                   and rec["residual"] is None for rec in failed)

    @pytest.mark.filterwarnings("error")
    def test_zero_contraction_fails_the_extraction_reports(self, capsys, monkeypatch):
        # a zero contraction matrix maps every tensor to Psi = 0: the
        # end-to-end and rpr residuals have a zero reference side and read inf
        # (null), where a 0/0 guard would read 0 and pass
        argv = ["verify", "theorems", "--m", "1", "--seed", "7"]
        assert run_cli(argv, capsys)[0] == 0
        monkeypatch.setattr(cli.reduction.ReductionCase, "contraction_matrix",
                            lambda case: np.zeros((case.m + 1, case.m + 1)))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        failed = [rec for rec in json.loads(captured.out) if not rec["passed"]]
        assert sorted((rec["name"], rec["params"]["n"]) for rec in failed) == [
            ("rpr", 2), ("rpr", 2), ("theorem_general", 1), ("theorem_general", 2),
            ("theorem_selfdual", 1), ("theorem_selfdual", 2)]
        assert all(rec["residual"] is None for rec in failed)

    def test_unachievable_tolerance_exits_1(self, capsys):
        code, out = run_cli(["verify", "reps", "--tol", "1e-30"], capsys)
        assert code == 1
        data = json.loads(out)
        assert any(not rec["passed"] for rec in data)
        # reports still emitted with actual residuals
        assert all("residual" in rec for rec in data)


class TestRmat:
    def test_identity_at_equal_arguments(self, capsys):
        code, out = run_cli(["rmat", "--zeta1", "1.4", "--zeta2", "1.4", "--m", "1"],
                            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["site_dims_out"] == [2, 2]
        data = np.array([complex(re, im) for re, im in payload["data"]]).reshape(4, 4)
        # Rcheck(z|z) = id means the dump equals the permutation matrix
        P = np.zeros((4, 4))
        for a in range(2):
            for b in range(2):
                P[b * 2 + a, a * 2 + b] = 1.0
        assert np.abs(data - P).max() < 1e-12

    def test_mixed_kind_dump(self, capsys):
        code, out = run_cli(["rmat", "--kinds", "VsV", "--zeta1", "1.5",
                             "--zeta2", "0.8", "--m", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["data"]) == 81

    @pytest.mark.parametrize("zeta, codes", [("0", (2,)), ("inf", (2,)), ("nan", (2,)),
                                             ("1e308", (1, 2))])
    @pytest.mark.parametrize("norm", ["hw", "kappa"])
    def test_bad_spectral_parameter_is_a_clean_error(self, capsys, zeta, codes, norm):
        # zero or non-finite zeta is a configuration error; an overflowing
        # commutant matrix is a package error; neither a traceback nor a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["rmat", "--zeta1", zeta, "--norm", norm])
        err = capsys.readouterr().err
        assert code in codes, err
        assert err.startswith(("configuration error:", "error:")) and "Traceback" not in err


class TestScalarsCmd:
    def test_kappa_one_row(self, capsys):
        code, out = run_cli(["scalars", "--samples", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        last = payload["rows"][-1]
        assert last["z"] == [1.0, 0.0]
        assert last["kappa_sl2"][0] == pytest.approx(1.0, abs=1e-12)
        assert last["kappa_sllpo"][0] == pytest.approx(1.0, abs=1e-12)


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["verify", "crossing", "--seed", "11", "--samples", "2"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_samples(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["verify", "ybe", "--seed", "1", "--out", str(out1)]) == 0
        assert main(["verify", "ybe", "--seed", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    @pytest.mark.parametrize("param", ["operator_residual", "e2e_residual", "forms_residual",
                                       "scalar_spread"])
    def test_residual_params_do_not_reorder_reports(self, param):
        # reports of one name are ordered by their other params, so residuals
        # that move in their last bits cannot swap them ("seed" sorts after
        # every residual key)
        def reports(scale):
            return [VerificationReport.make("theorem_selfdual",
                                            {"seed": seed, param: r * scale[seed]}, r, 1e-10)
                    for seed, r in ((2, 3e-15), (1, 2e-15))]
        seeds = []
        for scale in ({1: 1.0, 2: 1.0}, {1: 4.0, 2: 1.0}, {1: 1.0, 2: 0.1}):
            seeds.append([rec["params"]["seed"]
                          for rec in json.loads(serialize_reports(reports(scale), "json"))])
        assert seeds == [[1, 2]] * 3

    def test_text_format_runs(self, capsys):
        code, out = run_cli(["verify", "scalars", "--format", "text"], capsys)
        assert code == 0
        assert "checks passed" in out


class TestSuiteAcrossQ:
    @pytest.mark.parametrize("q", ["0.95", "0.3", "0.5,0.5", "0.3,0.6"])
    def test_suite_completes(self, q, capsys):
        # q near 1 puts resonances close together; small q used to overflow f_series;
        # at arg q = pi/4 the sllpo difference shift crosses the branch cut, and at
        # q = 0.3+0.6i the sl2 one does
        code, out = run_cli(["suite", "--m", "1", "--q", q, "--format", "json"], capsys)
        data = json.loads(out)
        assert code == 0
        assert len(data) == 71 and all(rec["passed"] for rec in data)

    @pytest.mark.parametrize("s0, s1", [(1, 0), (2, 1), (0, 1)])
    def test_small_q_unbalanced_grading(self, s0, s1, capsys):
        # badly scaled commutant rows used to make regular points fail the gap check
        code, out = run_cli(["suite", "--m", "2", "--q", "0.3", "--s0", str(s0),
                             "--s1", str(s1)], capsys)
        data = json.loads(out)
        assert code == 0
        assert len(data) == 71 and all(rec["passed"] for rec in data)

    @pytest.mark.parametrize("s0, s1", [(1, 0), (2, 1), (0, 1)])
    def test_small_q_theorems_at_m4(self, s0, s1, capsys):
        # the theorem chains ask for (V*, V*) factors whose components spread
        # over about nine orders of magnitude; a normwise solve called them
        # non-simple, and the whole group ended as one error report
        code, out = run_cli(["verify", "theorems", "--m", "4", "--q", "0.3", "--s0", str(s0),
                             "--s1", str(s1)], capsys)
        data = json.loads(out)
        assert code in (0, 1)
        assert len(data) == 9 and not [rec for rec in data if "group" in rec["params"]]


class TestSuiteReporting:
    def test_failing_group_keeps_the_others(self, capsys):
        # --trunc 8 is too short for the Pochhammer products: the groups that
        # need them fail one report each, and every other group still reports
        code = main(["suite", "--m", "1", "--trunc", "8"])
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert code == 1 and captured.err == ""
        failing = [rec for rec in data if not rec["passed"]]
        assert failing and all(rec["params"] == {"group": rec["name"]} and
                               rec["note"].startswith("TruncationError") for rec in failing)
        assert {"double_dual", "self_dual", "rep_invariants"} <= {rec["name"] for rec in data}

    def test_text_mode_times_every_report(self, capsys):
        code, out = run_cli(["suite", "--m", "1", "--format", "text"], capsys)
        assert code == 0
        assert "(0.0 ms)" not in out
