"""Residual folds keep a NaN: a report whose residual went NaN anywhere fails."""

import json
import math

import numpy as np
import pytest

from qkzkit import cli, idsuite, qkz, reduction
from qkzkit.context import QContext
from qkzkit.report import VerificationReport, fold, worst_of
from qkzkit.reps import GradingChoice
from qkzkit.rsolve import RCache


def test_worst_of():
    assert worst_of([1.0, 3.0, 2.0]) == 3.0
    assert worst_of((0.0, math.inf)) == math.inf
    assert math.isnan(worst_of([0.0, math.nan, 1.0]))
    assert math.isnan(worst_of(iter([math.nan, 1.0])))


def test_fold_gates_each_residual_at_its_own_tolerance():
    assert fold(2e-9, 1e-9, 0.0, 1e-8) == pytest.approx(2e-9)
    assert fold(0.0, 1e-9, 2e-8, 1e-8) == pytest.approx(2e-9)
    assert fold(5e-10, 1e-9, 5e-9, 1e-8) <= 1e-9
    assert fold(3e-16, 1e-15, 7e-16, 1e-15) == 7e-16  # equal tolerances: the larger one
    assert math.isnan(fold(math.nan, 1e-9, 0.0, 1e-8))


def test_with_tolerance_holds_both_residuals():
    # a report of a check with an extraction map (qkz.StringCheck.evaluate)
    params = {"n": 2, "operator_residual": 1e-17, "e2e_residual": 2e-16, "e2e_tolerance": 1e-8}
    report = VerificationReport.make("theorem_selfdual", params, fold(1e-17, 1e-9, 2e-16, 1e-8),
                                     1e-9)
    assert report.passed and report.params["e2e_tolerance"] == 1e-8
    tight = report.with_tolerance(1e-16)
    assert (tight.residual, tight.tolerance, tight.passed) == (2e-16, 1e-16, False)
    assert tight.params["e2e_tolerance"] == 1e-16
    assert report.params["e2e_tolerance"] == 1e-8  # the original is unchanged
    loose = report.with_tolerance(1e-15)
    assert (loose.residual, loose.passed) == (2e-16, True)
    plain = VerificationReport.make("ybe", {"m": 1}, 3e-12, 1e-9)
    assert plain.passed
    assert plain.with_tolerance(1e-12) == plain._replace(tolerance=1e-12)
    assert plain.with_tolerance(1e-12).passed is False


def test_passed_is_derived_from_residual_and_tolerance():
    report = VerificationReport.make("ybe", {"m": 1}, 3e-12, 1e-9)
    assert report.passed is True
    # a replaced residual cannot leave a stale verdict behind
    assert report._replace(residual=math.nan).passed is False
    assert report._replace(residual=2e-9).passed is False
    assert report._replace(residual=1e-9).passed is True
    with pytest.raises(ValueError):
        report._replace(passed=False)


def test_a_note_with_control_characters_parses_back():
    note = 'LinAlgError: line one\nline "two"\t\\ end\x01 é'
    report = VerificationReport.make("qkz", {"group": "qkz"}, math.inf, 0.0, note=note)
    (payload,) = json.loads(cli.serialize_reports([report], "json"))
    assert payload["note"] == note and payload["params"] == {"group": "qkz"}
    assert payload["residual"] is None


def _numpy_to_json(obj) -> str:
    """The report writer as it was, one numpy call per value: the reference."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g") if np.isfinite(obj) else "null"
    if isinstance(obj, (complex, np.complexfloating)):
        return _numpy_to_json([obj.real, obj.imag])
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_numpy_to_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        return "{" + ",".join(_numpy_to_json(k) + ":" + _numpy_to_json(v) for k, v in items) + "}"
    raise TypeError(type(obj))


WRITER_CASES = {
    "inf": math.inf, "-inf": -math.inf, "nan": math.nan, "-0.0": -0.0,
    "subnormal": 5e-324, "largest": np.finfo(float).max, "smallest normal": 2.2250738585072014e-308,
    "float64": np.float64(1 / 3), "float64 inf": np.float64(-np.inf), "float32": np.float32(0.1),
    "int64": np.int64(-2**62), "int": 12345678901234567890, "bools": [True, False, None],
    "complex": 1.5 - 0.25j, "complex128": np.complex128(complex(-0.0, math.nan)),
    "complex inf": complex(math.inf, 1e-300), "tuple": (1, (2.5, "x"), []),
    "nested params": {"m": 2, "kinds": ["V", "V*"], "alpha": [0.37, -0.21],
                      "b": {"z": 1, "a": {"y": 2.0, "x": np.float64(3.0)}}},
    "note": 'LinAlgError: line one\nline "two"\t\\ end\x01\x1f\x7f é ζ 𝔰𝔩 \u2028',
    "empty": {"": "", "list": [], "dict": {}},
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_report_writer_writes_what_the_numpy_writer_wrote(case):
    obj = WRITER_CASES[case]
    text = cli._to_json(obj)
    assert text == _numpy_to_json(obj)
    back = json.loads(text)
    if case == "note":
        assert back == obj
    if case in ("inf", "-inf", "nan"):
        assert back is None


def test_report_writer_writes_every_report_of_a_run_as_before(capsys):
    # every payload and every order key of a whole suite run
    config = cli.build_parser().parse_args(["suite", "--m", "1", "--seed", "7"])
    reports = []
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for name in sorted(cli.CHECKS):
            built = cli.CHECKS[name](config, cli._context(config), cli._grading(config))
            reports += [item for item in built if isinstance(item, VerificationReport)]
    assert reports
    for rep in reports:
        payload = cli.report_payload(rep)
        assert cli._to_json(payload) == _numpy_to_json(payload)
        assert json.loads(cli._to_json(payload))["name"] == rep.name


def _nan_like(out):
    if isinstance(out, VerificationReport):
        return out._replace(residual=math.nan)
    return out * np.nan


def _nan_on_call(k):
    """Wrap a function so that its k-th call returns NaN in place of its value.

    k > 1 plants the NaN after a finite value has entered the fold, where
    builtin max(finite, nan) would drop it."""
    def wrap(original):
        calls = []

        def planted(*args, **kwargs):
            out = original(*args, **kwargs)
            calls.append(None)
            return _nan_like(out) if len(calls) == k else out
        return planted
    return wrap


def _nan_in_slice(k):
    """Wrap a stacked helper (tensorops.relative_residuals, or scalar_ratios
    and its (lambdas, residuals)) so that the k-th residual it returns,
    counted slice by slice over its calls, is NaN in place of its value.

    k > 1 plants the NaN after a finite value has entered the fold, in the
    middle of a stack when the call returns more than k residuals."""
    def wrap(original):
        seen = []

        def planted(*args, **kwargs):
            out = original(*args, **kwargs)
            resids = list(out[1] if isinstance(out, tuple) else out)
            first = len(seen)
            seen.extend(resids)
            if first < k <= len(seen):
                resids[k - 1 - first] = math.nan
            return (out[0], resids) if isinstance(out, tuple) else resids
        return planted
    return wrap


def _nan_e1(original):
    """Wrap antipode_dual so that the dual's e1 matrix is NaN."""
    def planted(rep):
        dual = original(rep)
        dual._mats["e1"] = dual._mats["e1"] * np.nan
        return dual
    return planted


def _group(name):
    """The reports of a check group: those it makes, and its records run in one call."""
    config = cli.build_parser().parse_args(["suite"])

    def run():
        built = cli.CHECKS[name](config, cli._context(config), cli._grading(config))
        records = [item for item in built if not isinstance(item, VerificationReport)]
        return ([item for item in built if isinstance(item, VerificationReport)]
                + qkz.run_records(records))
    return run


def _crossing():
    ctx, g = QContext(0.7), GradingChoice(1, 1)
    return [idsuite.check_crossing(1, [(1.3 + 0.2j, 0.6 - 0.5j)], g, ctx, cache=RCache())]


def _theorem(mode):
    fn = reduction.theorem_check_selfdual if mode == "self_dual" else \
        reduction.theorem_check_general
    case = reduction.ReductionCase(mode, 1, 1, GradingChoice(1, 1), QContext(0.7))
    return lambda: [fn(case, [1.3 + 0.2j], seed=3, cache=RCache())]


# (module, attribute, wrapper, run, name of the report that must fail)
SITES = {
    "cli.kappa_identities": (cli, "kappa_sl2", _nan_on_call(2), _group("scalars"),
                             "scalar_kappa_identities"),
    "cli.rho0_ratio": (cli, "rho0_ratio_sl2", _nan_on_call(2), _group("scalars"),
                       "scalar_rho0_ratio"),
    "cli.kappa_even_rational": (cli, "kappa_sl2_even_rational", _nan_on_call(2),
                                _group("scalars"), "scalar_kappa_even_rational"),
    "cli.f_series": (cli, "rho0_sllpo", _nan_on_call(2), _group("f_series"),
                     "scalar_f_series_pochhammer"),
    "cli.rep_invariants": (cli, "antipode_dual", _nan_e1, _group("reps"), "rep_invariants"),
    "cli.hopf": (cli, "hopf_antipode_residual", _nan_on_call(2), _group("reps"),
                 "rep_hopf_axiom"),
    "reps.hopf_antipode_residual": (cli, "antipode_dual", _nan_e1, _group("reps"),
                                    "rep_hopf_axiom"),
    "cli.difference": (cli, "relative_residuals", _nan_in_slice(2), _group("difference"),
                       "scalar_difference_sl2"),
    # the sample folds of the ybe and crossing groups: a string check folds the
    # slices of its pairs (qkz.StringCheck), crossing the six fits of each of
    # its samples (idsuite); slice 2 is the second ybe sample, slice 8 the
    # second fit of the second crossing sample
    "cli.ybe": (qkz, "relative_residuals", _nan_in_slice(2), _group("ybe"), "ybe"),
    "cli.crossing": (idsuite, "scalar_ratios", _nan_in_slice(8), _group("crossing"),
                     "crossing"),
    "cli.lambda_forms": (qkz, "relative_residuals", _nan_in_slice(2), _group("qkz"),
                         "lambda_forms"),
    "idsuite.conjugation": (idsuite, "antipode_dual", _nan_e1, _group("dualities"),
                            "self_dual"),
    "idsuite.crossing": (idsuite, "scalar_ratios", _nan_in_slice(2), _crossing, "crossing"),
    "reduction.combined_report": (reduction, "psi_extract", _nan_on_call(2),
                                  _theorem("general"), "theorem_general"),
    # the second pair of the self-dual record compares the two forms of Lambda_n
    "reduction.forms_residual": (qkz, "relative_residuals", _nan_in_slice(2),
                                 _theorem("self_dual"), "theorem_selfdual"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("site", sorted(SITES))
def test_planted_nan_fails_its_report(site, monkeypatch):
    module, attr, wrap, run, name = SITES[site]
    assert all(r.passed for r in run() if r.name == name)
    monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    failed = [r for r in run() if r.name == name and not r.passed]
    assert failed and all(math.isnan(r.residual) for r in failed)
