"""The CLI contract across the q-disk: every configuration ends in exit 0 or 1
with a complete report, or in exit 2 with a configuration error, and never
in a traceback or a numpy warning (pytest turns RuntimeWarning into an
error).

The sweep is seeded: |q| from 0.05 to 0.99, real and complex, gradings up
to (2, 5), m = 1..3, and --alpha, --trunc, --n, --norm and --seed drawn per
configuration, a negative seed among them.  Each configuration runs in
JSON and in text mode (one PASS/FAIL line per report, the count line, one
time line per group, in run order, and one for the run's solve); a `suite`
run takes about 0.03-0.3 s in process, so the sweep stays within about
10 s.  The same
contract holds for `scalars` tables, for `rmat` at |zeta| from 1e-9 to 1e9
(an exit-0 matrix has finite entries only), for one `verify` line per
check group, and for a few lines at |q| from 1e-26 down to 1e-300, with
the gradings (1, 0), (0, 1), (2, 1) and (1, 3) at |q| = 0.04 down to 1e-12,
and with --alpha, --n 3 and --trunc 8 at |q| = 0.04 and about 1e-4; and
near the unit circle, at q = 0.999 with 8000 factors, where the Pochhammer
products of kappa underflow to 0/0.
"""

import json
import re

import numpy as np
import pytest

from qkzkit import cli

MODULI = (0.05, 0.2, 0.5, 0.9, 0.99)
ALPHAS = ("0", "0.2,0.1", "3", "40,-5")
TRUNCS = (16, 64, 256)
SEEDS = (0, 7, 42, -1)
RUNS = 45
REPORT_FIELDS = {"name", "params", "residual", "tolerance", "passed", "wall_ms"}
OPTIONAL_FIELDS = {"extracted_scalars", "note"}


def _configurations():
    rng = np.random.default_rng(2026)
    out = []
    for k in range(RUNS):
        q = MODULI[k % len(MODULI)] * (np.exp(2j * np.pi * rng.random())
                                       if rng.random() < 0.6 else 1.0)
        s0, s1 = int(rng.integers(0, 3)), int(rng.integers(0, 6))
        out.append({"q": complex(q), "s0": s0, "s1": s1 or int(s0 == 0), "m": 1 + k % 3,
                    "alpha": ALPHAS[rng.integers(len(ALPHAS))],
                    "trunc": TRUNCS[rng.integers(len(TRUNCS))], "n": int(rng.integers(1, 4)),
                    "norm": ("hw", "kappa")[rng.integers(2)],
                    "seed": SEEDS[rng.integers(len(SEEDS))]})
    return out


CONFIGURATIONS = _configurations()


def _argv(c):
    q = c["q"]
    return ["suite", f"--q={q.real!r},{q.imag!r}", f"--s0={c['s0']}", f"--s1={c['s1']}",
            f"--m={c['m']}", f"--alpha={c['alpha']}", f"--trunc={c['trunc']}",
            f"--n={c['n']}", f"--norm={c['norm']}", f"--seed={c['seed']}"]


def test_the_sweep_covers_the_space():
    cs = CONFIGURATIONS
    assert {round(abs(c["q"]), 2) for c in cs} == set(MODULI)
    assert any(c["q"].imag == 0 for c in cs) and any(c["q"].imag != 0 for c in cs)
    assert {c["m"] for c in cs} == {1, 2, 3} and {c["n"] for c in cs} == {1, 2, 3}
    assert max(c["s0"] for c in cs) == 2 and max(c["s1"] for c in cs) == 5
    for key, values in (("alpha", ALPHAS), ("trunc", TRUNCS), ("norm", ("hw", "kappa")),
                        ("seed", SEEDS)):
        assert {c[key] for c in cs} == set(values), key


def _suite_contract(argv, monkeypatch, capsys) -> int:
    """Run a `suite` or `verify` line in JSON and in text mode and assert the
    contract of each; returns the exit code, the same in both."""
    calls = []
    evaluate = cli._evaluate

    def counted(name, *args):
        out = evaluate(name, *args)
        calls.append((name, len(out)))
        return out
    monkeypatch.setattr(cli, "_evaluate", counted)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("configuration error:")
    else:  # complete: every group ran and every report it made was written
        reports = json.loads(out)
        groups = sorted(cli.CHECKS) if argv[0] == "suite" else [argv[1]]
        assert err == "" and [name for name, _ in calls] == groups
        assert len(reports) == sum(n for _, n in calls)
        assert all(REPORT_FIELDS <= set(r) <= REPORT_FIELDS | OPTIONAL_FIELDS for r in reports)
        assert code == (0 if all(r["passed"] for r in reports) else 1)
    order, calls[:] = [name for name, _ in calls], []
    text_code = cli.main([*argv, "--format=text"])
    out, err = capsys.readouterr()
    assert text_code == code and "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("configuration error:")
        return code
    # one PASS/FAIL line per report, the count line, one time line per group in run
    # order and the solve's
    lines, n = out.splitlines(), sum(count for _, count in calls)
    assert err == "" and [name for name, _ in calls] == order
    verdicts = [line.split()[0] for line in lines[:n]]
    assert set(verdicts) <= {"PASS", "FAIL"}
    assert lines[n] == f"{verdicts.count('PASS')}/{n} checks passed"
    assert len(lines) == n + 1 + len(order) + 1
    assert all(re.fullmatch(rf"time {name} \d+\.\d{{3}} ms", line)
               for name, line in zip([*order, "solve"], lines[n + 1:]))
    assert code == (0 if verdicts.count("PASS") == n else 1)
    return code


@pytest.mark.parametrize("config", CONFIGURATIONS, ids=lambda c: " ".join(_argv(c)[1:]))
def test_configuration_ends_in_a_report_or_a_configuration_error(config, monkeypatch, capsys):
    _suite_contract(_argv(config), monkeypatch, capsys)


SCALAR_RUNS = 15


def _scalar_configurations():
    rng = np.random.default_rng(2027)
    out = []
    for k in range(SCALAR_RUNS):
        q = MODULI[k % len(MODULI)] * (np.exp(2j * np.pi * rng.random())
                                       if rng.random() < 0.6 else 1.0)
        out.append({"q": complex(q), "m": int(rng.integers(0, 4)), "l": 1 + k % 3,
                    "trunc": TRUNCS[rng.integers(len(TRUNCS))],
                    "samples": int(rng.integers(1, 5)), "format": ("json", "text")[k % 2],
                    "seed": SEEDS[rng.integers(len(SEEDS))]})
    return out


SCALAR_CONFIGURATIONS = _scalar_configurations()


def _scalar_argv(c):
    q = c["q"]
    return ["scalars", f"--q={q.real!r},{q.imag!r}", f"--m={c['m']}", f"--l={c['l']}",
            f"--trunc={c['trunc']}", f"--samples={c['samples']}", f"--format={c['format']}",
            f"--seed={c['seed']}"]


def test_the_scalar_sweep_covers_the_space():
    cs = SCALAR_CONFIGURATIONS
    assert {round(abs(c["q"]), 2) for c in cs} == set(MODULI)
    assert any(c["q"].imag == 0 for c in cs) and any(c["q"].imag != 0 for c in cs)
    assert {c["l"] for c in cs} == {1, 2, 3}
    for key, values in (("trunc", TRUNCS), ("format", ("json", "text"))):
        assert {c[key] for c in cs} == set(values), key


def _scalar_contract(argv, capsys, samples, fmt="json") -> int:
    """Run a `scalars` line and assert its contract; returns the exit code."""
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("configuration error:")
    elif code == 1:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
    elif fmt == "json":
        assert err == "" and len(json.loads(out)["rows"]) == samples + 1
    else:  # a header line, then one line per row
        lines = out.splitlines()
        assert err == "" and lines[0].startswith("scalar table")
        assert len(lines) == samples + 2 and all(line.startswith("  z=") for line in lines[1:])
    return code


@pytest.mark.parametrize("config", SCALAR_CONFIGURATIONS,
                         ids=lambda c: " ".join(_scalar_argv(c)[1:]))
def test_scalar_table_or_one_error_line(config, capsys):
    _scalar_contract(_scalar_argv(config), capsys, config["samples"], config["format"])


RMAT_RUNS = 20
ZETA_EXPONENTS = (-9, -6, -3, 0, 3, 6, 9)
# both kappa products overflow at q^2/zeta1 of about 9e8 (an error, not a NaN matrix)
RMAT_OVERFLOW = ["rmat", "--q", "0.95", "--zeta1", "1e-9", "--norm", "kappa", "--m", "1",
                 "--s0", "1", "--s1", "0"]


def _rmat_argv(rng, k):
    q = complex(MODULI[k % len(MODULI)] * (np.exp(2j * np.pi * rng.random())
                                           if rng.random() < 0.6 else 1.0))
    s0, s1 = int(rng.integers(0, 3)), int(rng.integers(0, 6))
    zetas = [complex(10.0 ** ZETA_EXPONENTS[rng.integers(len(ZETA_EXPONENTS))]
                     * np.exp(2j * np.pi * rng.random())) for _ in range(2)]
    return ["rmat", f"--q={q.real!r},{q.imag!r}", f"--s0={s0}", f"--s1={s1 or int(s0 == 0)}",
            f"--m={int(rng.integers(0, 4))}", f"--kinds={sorted(cli.KIND_CODES)[k % 4]}",
            f"--norm={('hw', 'kappa')[k // 4 % 2]}", f"--trunc={TRUNCS[rng.integers(3)]}",
            *(f"--zeta{i + 1}={z.real!r},{z.imag!r}" for i, z in enumerate(zetas))]


def _rmat_lines():
    rng = np.random.default_rng(2028)
    return [_rmat_argv(rng, k) for k in range(RMAT_RUNS)] + [RMAT_OVERFLOW]


RMAT_LINES = _rmat_lines()


def _option(argv, name):
    return next(a.split("=", 1)[1] for a in argv if a.startswith(f"--{name}="))


def _modulus(argv, name):
    return abs(cli.parse_complex(_option(argv, name)))


def test_the_rmat_sweep_covers_the_space():
    lines = RMAT_LINES[:-1]
    assert {round(_modulus(a, "q"), 2) for a in lines} == set(MODULI)
    assert {(_option(a, "kinds"), _option(a, "norm")) for a in lines} == \
        {(k, n) for k in cli.KIND_CODES for n in ("hw", "kappa")}
    exponents = {round(np.log10(_modulus(a, f"zeta{i}"))) for a in lines for i in (1, 2)}
    assert {-9, 9} <= exponents


def _rmat_contract(argv, capsys) -> int:
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("configuration error:")
    elif code == 1:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
    else:
        data = json.loads(out)["data"]
        assert err == "" and all(v is not None and np.isfinite(v) for entry in data
                                 for v in entry)
    return code


@pytest.mark.parametrize("argv", RMAT_LINES, ids=lambda a: " ".join(a[1:]))
def test_rmat_ends_in_a_finite_matrix_or_one_error_line(argv, capsys):
    _rmat_contract(argv, capsys)


def _verify_lines():
    rng = np.random.default_rng(2029)
    out = []
    for k, name in enumerate(sorted(cli.CHECKS)):
        q = complex(MODULI[k % len(MODULI)] * (np.exp(2j * np.pi * rng.random())
                                               if rng.random() < 0.6 else 1.0))
        s0, s1 = int(rng.integers(0, 3)), int(rng.integers(0, 6))
        out.append(["verify", name, f"--q={q.real!r},{q.imag!r}", f"--s0={s0}",
                    f"--s1={s1 or int(s0 == 0)}", f"--m={1 + k % 3}",
                    f"--trunc={TRUNCS[rng.integers(3)]}", f"--norm={('hw', 'kappa')[k % 2]}",
                    f"--seed={SEEDS[rng.integers(len(SEEDS))]}"])
    return out


VERIFY_LINES = _verify_lines()


@pytest.mark.parametrize("argv", VERIFY_LINES, ids=lambda a: " ".join(a[1:]))
def test_verify_ends_in_a_report_or_a_configuration_error(argv, monkeypatch, capsys):
    _suite_contract(argv, monkeypatch, capsys)


# far inside the q-disk: arithmetic that overflows, divides by zero or meets a
# singular matrix ends its group as a numerical failure (a configuration
# error raised inside a group too), or a run outside the groups as a
# configuration error, never in a traceback or a numpy warning
TINY_Q_LINES = (
    (["suite", "--m", "1", "--q", "1e-26"], 1),  # singular crossing matrix
    (["suite", "--m", "2", "--q", "1e-26"], 1),  # overflowing commutant basis
    (["suite", "--m", "1", "--q", "1e-33"], 1),  # 0.0 to a negative power
    (["suite", "--m", "1", "--q", "1e-40"], 1),  # overflowing complex power
    # an overflowing operator is a configuration error raised inside a group:
    # that group's failure, not the end of the run
    (["suite", "--m", "3", "--q", "1e-30"], 1),
    (["suite", "--m", "1", "--q", "1e-200"], 1),
    (["verify", "reps", "--q", "1e-200"], 1),
    (["verify", "scalars", "--q", "1e-200"], 1),
    (["rmat", "--q", "1e-300"], 2),
    # gradings (1, 0), (0, 1), (2, 1) and (1, 3), each at m = 1..3 and three of
    # |q| = 0.04, 1e-4, 1e-12 and the complex q = 6e-5 + 8e-5 i (|q| = 1e-4),
    # so each m meets every q; then the rank-2 scalar table at each q
    (["suite", "--m", "1", "--s0", "1", "--s1", "0", "--q=0.04"], 0),
    (["suite", "--m", "2", "--s0", "1", "--s1", "0", "--q=1e-4"], 1),
    (["suite", "--m", "3", "--s0", "1", "--s1", "0", "--q=1e-12"], 1),
    (["suite", "--m", "1", "--s0", "0", "--s1", "1", "--q=1e-4"], 0),
    (["suite", "--m", "2", "--s0", "0", "--s1", "1", "--q=1e-12"], 1),
    (["suite", "--m", "3", "--s0", "0", "--s1", "1", "--q=6e-05,8e-05"], 1),
    (["suite", "--m", "1", "--s0", "2", "--s1", "1", "--q=1e-12"], 1),
    (["suite", "--m", "2", "--s0", "2", "--s1", "1", "--q=6e-05,8e-05"], 1),
    (["suite", "--m", "3", "--s0", "2", "--s1", "1", "--q=0.04"], 0),
    (["suite", "--m", "1", "--s0", "1", "--s1", "3", "--q=6e-05,8e-05"], 0),
    (["suite", "--m", "2", "--s0", "1", "--s1", "3", "--q=0.04"], 0),
    (["suite", "--m", "3", "--s0", "1", "--s1", "3", "--q=1e-4"], 1),
    # --alpha, --n 3 and --trunc 8, each at m = 1, 2 and at q = 0.04, 1e-4 and the
    # complex 1e-4 (1 + i): at seed 3 every m = 1 line passes and the m = 2 lines
    # at |q| about 1e-4 fail some checks, with complete reports
    *((["suite", "--m", m, f"--q={q}", option, "--seed", "3"], int(m == "2" and q != "0.04"))
      for option in ("--alpha=0.2,0.1", "--n=3", "--trunc=8")
      for q in ("0.04", "1e-4", "1e-4,1e-4") for m in ("1", "2")),
    (["scalars", "--l", "2", "--q=0.04"], 0),
    (["scalars", "--l", "2", "--q=1e-4"], 0),
    (["scalars", "--l", "2", "--q=1e-12"], 0),
    (["scalars", "--l", "2", "--q=6e-05,8e-05"], 0),
    # near the unit circle: kappa's four products underflow to 0 and its ratio
    # reads 0/0, an error of the groups that read kappa, not the end of the run
    (["suite", "--m", "1", "--q", "0.999", "--trunc", "8000"], 1),
    (["suite", "--m", "2", "--q", "0.999", "--trunc", "8000"], 1),
)


@pytest.mark.parametrize("argv, want", TINY_Q_LINES, ids=lambda a: " ".join(a)
                         if isinstance(a, list) else str(a))
def test_tiny_q_ends_in_a_report_or_one_error_line(argv, want, monkeypatch, capsys):
    if argv[0] == "rmat":
        assert _rmat_contract(argv, capsys) == want
    elif argv[0] == "scalars":
        samples = cli.build_parser().parse_args(argv).samples
        assert _scalar_contract(argv, capsys, samples) == want
    else:
        assert _suite_contract(argv, monkeypatch, capsys) == want
