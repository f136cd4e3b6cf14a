import argparse
import hashlib
import json
import shlex
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import plant_in_pair
from qkzkit import cli, idsuite, qkz, reps, rsolve, scalars
from qkzkit.cli import build_parser, main, parse_complex, serialize_reports
from qkzkit.errors import DegeneratePointError
from qkzkit.report import VerificationReport


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def _subparsers(parser):
    """The subcommand parsers of the CLI parser, by name."""
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestParsing:
    def test_parse_complex(self):
        assert parse_complex("0.7") == 0.7
        assert parse_complex("0.5,-0.25") == 0.5 - 0.25j

    @pytest.mark.parametrize("command", ["suite", "verify", "rmat", "scalars"])
    def test_one_command_parser_reads_as_the_full_one(self, command):
        # main gives only the subcommand that argv names its arguments; its
        # defaults and its help are those of the parser of every subcommand,
        # and the other subcommands are registered without arguments
        argv = [command, "ybe"] if command == "verify" else [command]
        full, one = build_parser(), build_parser(argv)
        assert vars(one.parse_args(argv)) == vars(full.parse_args(argv))
        commands = _subparsers(full)
        assert list(_subparsers(one)) == list(commands) == ["suite", "verify", "rmat", "scalars"]
        assert _subparsers(one)[command].format_help() == commands[command].format_help()
        assert {name: [a.dest for a in sub._actions] for name, sub in _subparsers(one).items()
                if name != command} == {name: ["help"] for name in commands if name != command}

    @pytest.mark.parametrize("argv", [[], ["--help"], ["-h", "suite"], ["nosuchcommand"]])
    def test_a_first_token_that_names_no_command_builds_every_command(self, argv):
        full, built = build_parser(), build_parser(argv)
        assert built.format_help() == full.format_help()
        assert {name: sub.format_help() for name, sub in _subparsers(built).items()} == \
            {name: sub.format_help() for name, sub in _subparsers(full).items()}

    @pytest.mark.parametrize("argv", [[], ["nosuchcommand"], ["--help"]])
    def test_bare_unknown_and_help_calls_behave_as_before(self, argv, capsys):
        with pytest.raises(SystemExit) as built:
            build_parser(argv).parse_args(argv)
        mine = capsys.readouterr()
        with pytest.raises(SystemExit) as full:
            build_parser().parse_args(argv)
        assert built.value.code == full.value.code and capsys.readouterr() == mine

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
        # a negative seed, which numpy's default_rng refuses
        "suite --seed -1", "verify braid --seed -1", "verify theorems --seed -3",
        "verify ybe --seed -1", "scalars --seed -1",
        # options the command does not read are not accepted
        "rmat --format text", "rmat --seed 1", "rmat --samples 0", "scalars --s0 2",
        "scalars --norm hw", "suite --l 2", "verify reps --jobs 1",
        # the theorems group has no m = 0 case
        "suite --m 0", "verify theorems --m 0",
        # a tolerance must be a finite number >= 0: under inf a group error
        # (residual inf) would pass, and nan or a negative one fails every report
        "suite --m 1 --trunc 8 --tol inf", "verify reps --tol nan", "suite --tol -1",
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
            monkeypatch.setitem(cli.CHECKS, name,
                                lambda config, ctx, g, name=name: ran.append(name))
        assert main(argv) == 2
        assert ran == [] and "theorems" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["rmat", "--m", "0"], ["scalars", "--m", "0"],
                                      ["verify", "ybe", "--m", "0"]])
    def test_m0_stays_valid_elsewhere(self, argv, capsys):
        assert main(argv) == 0

    @pytest.mark.parametrize("argv", ["suite --m 1000000", "verify ybe --m 1000000",
                                      "verify reps --m 1000000", "rmat --m 1000000",
                                      f"rmat --m {cli.MAX_M + 1}"])
    def test_m_past_the_bound_refused_before_any_module_is_built(self, argv, monkeypatch,
                                                                 capsys):
        # a spin that large would ask numpy for module and template arrays of
        # terabytes; the refusal comes before any group runs or module is built
        def built(*args):
            raise AssertionError("a module was built")
        for owner, name in ((reps, "eval_module"), (reps, "build_eval_rep"),
                            (rsolve, "eval_module"), (cli, "build_eval_rep")):
            monkeypatch.setattr(owner, name, built)
        ran = []
        for name in cli.CHECKS:
            monkeypatch.setitem(cli.CHECKS, name,
                                lambda config, ctx, g, name=name: ran.append(name))
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert ran == [] and captured.out == ""
        assert f"--m must be at most {cli.MAX_M}" in captured.err

    def test_m_bound_keeps_m12_and_the_scalar_table(self, capsys):
        assert cli.MAX_M >= 12
        assert main(["rmat", "--m", "12", "--zeta1", "1.3"]) == 0
        assert main(["scalars", "--m", str(cli.MAX_M + 1), "--samples", "1"]) == 0


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

    # command line, and the count of failing reports by (name, m)
    OVERFLOWING = [
        ("verify invariances --alpha 300", {("invariance_a", 2): 2}),
        ("verify qkz --alpha 1e3", {("ddr", 1): 3, ("lambda_forms", 1): 1,
                                    ("qkz_compatibility", 1): 2}),
        ("verify theorems --alpha 1e3", {("insertion_invariance", 1): 1,
                                         ("scaling_covariance", 1): 2,
                                         ("theorem_general", 1): 2,
                                         ("theorem_selfdual", 1): 2}),
    ]

    @pytest.mark.parametrize("argv, failing", OVERFLOWING, ids=[a for a, _ in OVERFLOWING])
    def test_overflowing_twist_fails_its_reports(self, argv, failing, capsys):
        # at alpha = 300 the m = 2 twist pair has entries near 1e186, so the
        # commutator norms overflow; at alpha = 1e3 the m = 1 twist has
        # entries near 1e155, and the twist and factor products applied to
        # the probe block overflow.  Those reports fail (residual inf or NaN,
        # written as null) instead of reading 0, and numpy prints no warning
        code = main(argv.split())
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        failed = [rec for rec in json.loads(captured.out) if not rec["passed"]]
        assert Counter((rec["name"], rec["params"]["m"]) for rec in failed) == failing
        assert all(rec["residual"] is None for rec in failed)

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

    def test_tol_holds_the_end_to_end_residual_to_it(self, capsys, monkeypatch):
        # plant noise of relative size 1e-12 in every Psi: the end-to-end
        # residuals of the theorem reports sit near 1e-12, and under --tol
        # 5e-13 they must fail, not pass against 10 x 5e-13
        psi_extract = cli.reduction.psi_extract
        calls = []

        def noisy(case, phi):
            out = psi_extract(case, phi)
            calls.append(None)
            noise = np.random.default_rng(len(calls)).standard_normal(out.shape)
            return out + 1e-12 * np.linalg.norm(out) * noise / np.linalg.norm(noise)
        monkeypatch.setattr(cli.reduction, "psi_extract", noisy)
        argv = ["verify", "theorems", "--m", "1", "--seed", "7"]
        assert run_cli(argv, capsys)[0] == 0
        code, out = run_cli(argv + ["--tol", "5e-13"], capsys)
        assert code == 1
        theorems = [rec for rec in json.loads(out) if rec["name"].startswith("theorem_")]
        assert len(theorems) == 4
        for rec in theorems:
            params = rec["params"]
            assert params["e2e_tolerance"] == rec["tolerance"] == 5e-13
            assert params["operator_residual"] < 5e-13 < params["e2e_residual"]
            assert rec["residual"] == max(params["operator_residual"], params["e2e_residual"])
            assert not rec["passed"]

    def test_unachievable_tolerance_exits_1(self, capsys):
        code, out = run_cli(["verify", "reps", "--tol", "1e-30"], capsys)
        assert code == 1
        data = json.loads(out)
        assert any(not rec["passed"] for rec in data)
        # reports still emitted with actual residuals
        assert all("residual" in rec for rec in data)


def _scaled(fn):
    """fn with its value scaled by 1 + 1e-6."""
    return lambda *args, **kwargs: fn(*args, **kwargs) * (1 + 1e-6)


def _shifted(fn):
    """fn with 1e-6 added to every entry of its matrix."""
    return lambda *args, **kwargs: fn(*args, **kwargs) + 1e-6


def _raising_scaled(build):
    """build_eval_rep with the raising coefficients of e1 scaled by 1 + 1e-6."""
    def planted(m, grading, ctx):
        rep = build(m, grading, ctx)
        rep._mats["e1"] = rep._mats["e1"] * (1 + 1e-6)
        return rep
    return planted


# group, report, and the planted defect: module, function, how it is broken
PLANTED = [
    ("scalars", "scalar_kappa_identities", cli, "kappa_sl2", _scaled),
    ("scalars", "scalar_kappa_even_rational", cli, "kappa_sl2", _scaled),
    ("scalars", "scalar_rho0_ratio", cli, "rho0_sl2", _scaled),
    ("difference", "scalar_difference_sl2", scalars, "kappa_sl2", _scaled),
    ("difference", "scalar_difference_sllpo", scalars, "kappa_sllpo", _scaled),
    ("f_series", "scalar_f_series_pochhammer", cli, "rho0_sllpo", _scaled),
    ("reps", "rep_invariants", cli, "build_eval_rep", _raising_scaled),
    ("reps", "rep_hopf_axiom", reps, "antipode_image", _scaled),
    ("dualities", "double_dual", idsuite, "operator_x", _shifted),
    ("dualities", "self_dual", idsuite, "operator_o", _shifted),
]


@pytest.mark.parametrize("group, name, module, attr, plant", PLANTED,
                         ids=[f"{name}-{attr}" for _, name, _, attr, _ in PLANTED])
def test_planted_defect_fails_the_report(group, name, module, attr, plant, monkeypatch, capsys):
    # a defect of relative size 1e-6 in one function fails every report of
    # the name, whose residuals are relative (tensorops.relative_residual)
    argv = ["verify", group, "--seed", "7"]
    assert run_cli(argv, capsys)[0] == 0
    monkeypatch.setattr(module, attr, plant(getattr(module, attr)))
    code, out = run_cli(argv, capsys)
    recs = [rec for rec in json.loads(out) if rec["name"] == name]
    assert code == 1 and recs and not any(rec["passed"] for rec in recs)
    assert all(rec["residual"] > 1e-8 for rec in recs)


def test_undetected_degenerate_point_fails_its_report(monkeypatch, capsys):
    # a factor reader that never refuses the lattice points detects neither of them
    argv = ["verify", "degenerate_detection", "--seed", "7"]
    assert run_cli(argv, capsys)[0] == 0
    solve_records = qkz.solve_records

    def never_refuses(records, cache=None):
        factor = solve_records(records, cache)

        def read(*args, **kwargs):
            try:
                return factor(*args, **kwargs)
            except DegeneratePointError:
                return None
        return read
    monkeypatch.setattr(qkz, "solve_records", never_refuses)
    code, out = run_cli(argv, capsys)
    (rec,) = json.loads(out)
    assert code == 1 and rec["name"] == "degenerate_detection"
    assert not rec["passed"] and rec["residual"] == 2.0


def test_missed_degenerate_point_is_no_configuration_error(monkeypatch, capsys):
    # with the cancellation test off, alpha_0 = 0 at zeta1/zeta2 = 1/q leaves R
    # not finite while every generator image is finite: a degenerate point, not
    # a configuration error; at q, beta cancels only to about 6e-17 and passes
    from qkzkit import rsolve
    monkeypatch.setattr(rsolve, "_CANCEL_TOL", 0.0)
    code, out = run_cli(["verify", "degenerate_detection", "--seed", "7"], capsys)
    (rec,) = json.loads(out)
    assert code == 1 and rec["name"] == "degenerate_detection"
    assert not rec["passed"] and rec["residual"] == 1.0


def _count_solver_calls(monkeypatch):
    """The solve_requests calls of a run, in order: (phase, stacks, kappa scans) of
    each, where phase says whether it was made while the groups built their
    records ("build"), by qkz.solve_records ("records") or while a group evaluated
    them ("evaluate"), stacks lists the (spin, q, grading) of each stack solved, which
    covers every module pair of that spin, and kappa scans counts the
    _kappa_scalars calls that scanned a request."""
    from qkzkit import rsolve
    phase, calls = ["build"], []
    solve, scan, core = rsolve._solve, rsolve._kappa_scalars, rsolve.solve_requests
    solve_records, evaluate = qkz.solve_records, cli._evaluate

    def counted_solve(reqs, template, pair):
        calls[-1][1].append((reqs[0].m, complex(reqs[0].ctx.q), reqs[0].grading))
        return solve(reqs, template, pair)

    def counted_scan(reqs):
        calls[-1][2] += bool(reqs)
        return scan(reqs)

    def counted_core(*args, **kwargs):
        calls.append([phase[0], [], 0])
        return core(*args, **kwargs)

    def in_phase(name, fn):
        def run(*args, **kwargs):
            phase[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = "build"
        return run
    monkeypatch.setattr(rsolve, "_solve", counted_solve)
    monkeypatch.setattr(rsolve, "_kappa_scalars", counted_scan)
    for module in (rsolve, qkz):  # under solve_intertwiner, and in solve_records
        monkeypatch.setattr(module, "solve_requests", counted_core)
    monkeypatch.setattr(qkz, "solve_records", in_phase("records", solve_records))
    monkeypatch.setattr(cli, "_evaluate", in_phase("evaluate", evaluate))
    return calls


@pytest.mark.parametrize("argv, n_stacks", [
    (["suite", "--m", "2", "--seed", "7"], 2),
    (["suite", "--m", "1", "--samples", "12", "--seed", "1"], 2),
    (["suite", "--m", "3", "--seed", "1"], 3),
], ids=["m2-seed7", "m1-samples12-seed1", "m3-seed1"])
def test_each_group_solves_its_requests_in_one_call(argv, n_stacks, monkeypatch, capsys):
    # the records of every solving group, the lattice probes of
    # degenerate_detection among them, are solved in one call with one kappa
    # scan; building and evaluating the records makes none; the call solves one
    # stack per spin, q and grading, whatever module pairs it covers
    calls = _count_solver_calls(monkeypatch)
    code, out = run_cli(argv, capsys)
    assert code == 0 and len(json.loads(out)) == 71
    (phase, stacks, scans), = calls
    assert phase == "records" and scans == 1
    assert len(stacks) == len(set(stacks)) == n_stacks


def test_the_suite_requests_each_distinct_factor_once(monkeypatch, capsys):
    # the records read many factors more than once; solve_records hands the
    # solver one request per distinct factor and normalization (the two
    # lattice probes of degenerate_detection among them)
    passed, solve = [], qkz.solve_requests
    monkeypatch.setattr(qkz, "solve_requests",
                        lambda reqs, cache=None: passed.append(reqs) or solve(reqs, cache))
    code, _ = run_cli(["suite", "--m", "1", "--samples", "12", "--seed", "1"], capsys)
    (reqs,) = passed
    assert code == 0 and len(set(reqs)) == len(reqs) == 416


@pytest.mark.parametrize("argv, scans", [
    (["suite", "--m", "1", "--samples", "12", "--seed", "1"], 20),
    (["suite", "--m", "3", "--seed", "1"], 21),
], ids=["m1-samples12-seed1", "m3-seed1"])
def test_each_scalar_group_scans_once_per_function_and_base(argv, scans, monkeypatch, capsys):
    # scalars: kappa_sl2 at 1 and at z, 1/z, and rho0_sl2, each one call for
    # m = 1..4 (3); difference: one rho0_sl2, kappa_sl2 and shifted-kappa scan
    # for m = 1..3, and the same three per l (12); f_series: one rho0_sllpo
    # per l (3); the rest are the solve's kappa scans
    calls, scan = [], scalars._poch_ratio
    monkeypatch.setattr(scalars, "_poch_ratio",
                        lambda *args: calls.append(len(args[0])) or scan(*args))
    code, out = run_cli(argv, capsys)
    assert code == 0 and len(json.loads(out)) == 71
    assert len(calls) == scans, calls


def test_a_failing_scalar_group_keeps_no_solved_result_alive(capsys):
    # the scalars group fails at q = 1e-30 with a stored row error; it raises
    # a copy, so no traceback cycle through the error lists holds the group
    # runner's frame, and with it the run's solved results, once the run is over
    import gc
    from qkzkit.rsolve import RResult
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        code, out = run_cli(["suite", "--m", "3", "--q", "1e-30"], capsys)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        kept = sum(isinstance(obj, RResult) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    notes = {rec["name"]: rec.get("note") for rec in json.loads(out)}
    assert code == 1 and notes["scalars"].startswith("ScalarDomainError")
    assert kept == 0


def _suite_with_planted_error(monkeypatch, capsys, owner, name, fails):
    """`suite --m 3 --seed 7` clean, then with owner.name raising an overflow
    where fails(*args) holds: (clean reports, exit code, reports, stderr)."""
    argv = ["suite", "--m", "3", "--seed", "7"]
    _, out = run_cli(argv, capsys)
    original = getattr(owner, name)

    def planted(*args):
        if fails(*args):
            raise FloatingPointError("overflow encountered in matmul")
        return original(*args)
    monkeypatch.setattr(owner, name, planted)
    code = main(argv)
    captured = capsys.readouterr()
    return json.loads(out), code, json.loads(captured.out), captured.err


def _fails_with_the_planted_error(clean, code, got, err, groups, lost,
                                  note="FloatingPointError: overflow encountered in matmul"):
    """Exit 1, a failing report for each of `groups` with the planted error
    (its note), no traceback, and every other report as in the clean run."""
    failed = [r for r in got if "group" in r["params"]]
    assert code == 1 and sorted(r["name"] for r in failed) == groups
    assert all(r["note"] == note for r in failed)
    assert "Traceback" not in err
    assert [r for r in got if r not in failed] == [r for r in clean if r["name"] not in lost]


@pytest.mark.parametrize("site", ["image", "gap"])
def test_a_failing_module_pair_fails_only_the_groups_that_read_it(site, monkeypatch, capsys):
    # a non-finite image part or a failing gap of one module pair, (V*, V) at
    # m = 1, inside the stacked pass that builds all four pairs of the spin,
    # is stored for that pair's requests alone, though its stack also solves
    # the other pairs of the spin: the two groups that read them (crossing
    # and invariances) fail with it, and every other group keeps its reports
    argv = ["suite", "--m", "3", "--seed", "7"]
    _, out = run_cli(argv, capsys)
    error, text = plant_in_pair(monkeypatch, site, ("V*", "V"), 1)
    code = main(argv)
    captured = capsys.readouterr()
    _fails_with_the_planted_error(
        json.loads(out), code, json.loads(captured.out), captured.err,
        ["crossing", "invariances"], {"crossing", "invariance_a", "invariance_x",
                                      "invariance_xtilde"}, f"{error.__name__}: {text}")


def test_a_failing_stack_fails_the_groups_that_read_its_spin(monkeypatch, capsys):
    # an arithmetic error in the stack of spin 1 is stored for every request of
    # it, whatever its module pair: the groups that read one fail with it
    # (degenerate_detection through its m = 1 lattice probes), and the report file
    # is still complete, every other group keeping its reports
    from qkzkit import rsolve
    _fails_with_the_planted_error(
        *_suite_with_planted_error(monkeypatch, capsys, rsolve, "_solve",
                                   lambda reqs, template, pair: reqs[0].m == 1),
        ["crossing", "degenerate_detection", "invariances"],
        {"crossing", "degenerate_detection", "invariance_a", "invariance_x",
         "invariance_xtilde"})


def test_verify_reports_what_the_suite_reports(capsys):
    # a group's reports do not depend on the other groups solved beside it
    _, out = run_cli(["suite", "--m", "2", "--seed", "7"], capsys)
    suite, seen = json.loads(out), 0
    for name in sorted(cli.CHECKS):
        _, out = run_cli(["verify", name, "--m", "2", "--seed", "7"], capsys)
        mine = json.loads(out)
        names = {r["name"] for r in mine}
        assert mine == [r for r in suite if r["name"] in names], name
        seen += len(mine)
    assert seen == len(suite) == 71


@pytest.mark.parametrize("n", [1, 3, 5])
def test_n_sets_only_the_second_self_dual_theorem_chain(n, capsys):
    # --n is the chain of the second self-dual theorem, capped at 3; the general
    # theorem runs at n = 1 and 2, and insertion, rpr and scaling at n = 2,
    # whatever --n says
    code, out = run_cli(["verify", "theorems", "--m", "1", "--n", str(n), "--seed", "3"], capsys)
    chains = sorted((r["name"], r["params"]["n"]) for r in json.loads(out))
    assert code == 0 and chains == sorted(
        [("theorem_selfdual", k) for k in {1, min(n, 3)}]
        + [("theorem_general", 1), ("theorem_general", 2), ("insertion_invariance", 2)]
        + [("rpr", 2), ("scaling_covariance", 2)] * 2)


def test_verify_qkz_does_not_read_n(capsys):
    # the self-dual twist of the qkz group's four-site chain takes its own n = 2
    outs = [run_cli(["verify", "qkz", "--m", "1", "--seed", "7", "--n", str(n)], capsys)
            for n in (1, 2, 3)]
    assert outs[0][0] == 0 and outs[0] == outs[1] == outs[2]


def test_unbalanced_grading_solves_in_the_frame_of_the_smaller_gauge(capsys):
    # at (s0, s1) = (2, 5) frame 0 takes gauge c = -2 where frame 1 would take
    # c = 5; solving in frame 1 fails two of the four ybe reports here (worst
    # residual 2.0e-9 against 3.2e-13)
    code, out = run_cli(["verify", "ybe", "--m", "3", "--s0", "2", "--s1", "5", "--q", "0.5,0.5",
                         "--seed", "1"], capsys)
    assert code == 0 and len(json.loads(out)) == 4


class TestRmat:
    def test_kappa_overflow_is_an_error(self, capsys):
        # 256 factors of argument about 9e8 overflow both kappa products
        code = main(["rmat", "--q", "0.95", "--zeta1", "1e-9", "--norm", "kappa", "--m", "1",
                     "--s0", "1", "--s1", "0"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:") and "overflows" in captured.err
        assert captured.err.count("\n") == 1

    def test_like_pair_keeps_its_matrix_beside_an_overflowing_dual_pair(self, capsys):
        # at q = 1e-150 the (V*, V*) data of spin 1 overflow, and rmat builds all
        # four module pairs of its spin in one pass: (V*, V*) fails alone, and
        # (V, V) keeps the exit code and the matrix (its digest) that it had
        # when its pair was built alone
        argv = ["rmat", "--q", "1e-150", "--m", "1", "--norm", "hw", "--zeta1", "1.3",
                "--zeta2", "0.9"]
        code = main([*argv, "--kinds", "VsVs"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: the commutant data of (V*, V*) at m = 1 are not finite\n"
        code, out = run_cli([*argv, "--kinds", "VV"], capsys)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest()[:16] == "afd970fc64cf3496"

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
    def test_seeds_past_32_bits_draw_their_own_samples(self, capsys):
        # the seed once went to numpy masked to 32 bits, so 2^32 drew the samples of 0
        tables = []
        for seed in ("0", "4294967296"):
            code, out = run_cli(["scalars", "--samples", "4", "--seed", seed], capsys)
            assert code == 0
            tables.append([row["z"] for row in json.loads(out)["rows"][:-1]])
        assert all(a != b for a, b in zip(*tables))

    def test_suite_builds_one_template_per_spin(self, monkeypatch, capsys):
        # `suite --m 3` reads module pairs of spins 1, 2 and 3: one commutant
        # template each, which builds the data of all four pairs of its spin
        from qkzkit import rsolve
        built = []
        raw = rsolve.CommutantTemplate
        monkeypatch.setattr(rsolve, "CommutantTemplate",
                            lambda *spin: built.append(spin) or raw(*spin))
        code, _ = run_cli(["suite", "--m", "3", "--seed", "1"], capsys)
        assert code == 0 and sorted(m for m, _ in built) == [1, 2, 3]

    def test_seed_7_report_is_unchanged(self, capsys):
        # sha256 of `suite --m 1 --seed 7`: every seed below 2^32 draws the same
        # stream as before the 32-bit mask was removed.  A change that moves any
        # report bit of this run on purpose records its new digest (the last:
        # the normalization scalars in one numpy arithmetic for every row)
        code, out = run_cli(["suite", "--m", "1", "--seed", "7"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "f97b63fc0583bf075b594adedd81828c55ba302ae534e9b7ef5549216b3122eb"

    def test_seed_7_wide_report_is_unchanged(self, capsys):
        # sha256 of `suite --m 1 --samples 12 --seed 7`, the shape of the
        # benchmark's suite_m1_wide: twelve samples per ybe and crossing record,
        # evaluated as stacks, read the bits of the sample-by-sample evaluation
        code, out = run_cli(["suite", "--m", "1", "--samples", "12", "--seed", "7"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "8ffd779c19986a915b978fe4ef1dfe22390bf57a6eb06b505dfc7f433b33ce03"

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
    @pytest.mark.parametrize("q", ["0.95", "0.3", "0.5,0.5", "0.3,0.6", "0.05"])
    def test_suite_completes(self, q, capsys):
        # q near 1 puts resonances close together; small q used to overflow f_series;
        # at arg q = pi/4 the sllpo difference shift crosses the branch cut, and at
        # q = 0.3+0.6i the sl2 one does; at q = 0.05 the module entries grow like
        # q^-3, which an absolute residual read as a failure of rep_invariants
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

    def test_text_mode_times_every_group(self, capsys):
        # after the count line, one positive time per group, in run order, and the solve's
        code, out = run_cli(["suite", "--m", "1", "--format", "text"], capsys)
        assert code == 0
        lines = out.splitlines()
        count = next(i for i, line in enumerate(lines) if line.endswith("checks passed"))
        times = [line.split() for line in lines[count + 1:]]
        assert [t[1] for t in times] == [*sorted(cli.CHECKS), "solve"] and len(times) == 14
        assert all(t[0] == "time" and float(t[2]) > 0 and t[3] == "ms" and len(t) == 4
                   for t in times)
        assert " ms" not in "\n".join(lines[:count])  # no report line carries a time
