"""Residual folds keep a NaN: a report whose residual went NaN anywhere fails."""

import dataclasses
import math

import numpy as np
import pytest

from qkzkit import cli, idsuite, qkz, reduction
from qkzkit.context import QContext
from qkzkit.report import VerificationReport, worst_of
from qkzkit.reps import GradingChoice
from qkzkit.rsolve import RCache


def test_worst_of():
    assert worst_of([1.0, 3.0, 2.0]) == 3.0
    assert worst_of((0.0, math.inf)) == math.inf
    assert math.isnan(worst_of([0.0, math.nan, 1.0]))
    assert math.isnan(worst_of(iter([math.nan, 1.0])))


def _nan_like(out):
    if isinstance(out, VerificationReport):
        return dataclasses.replace(out, residual=math.nan)
    if isinstance(out, tuple):  # tensorops.scalar_ratio: (lambda, residual)
        return out[0], math.nan
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


def _nan_e1(original):
    """Wrap antipode_dual so that the dual's e1 matrix is NaN."""
    def planted(rep):
        dual = original(rep)
        dual._mats["e1"] = dual._mats["e1"] * np.nan
        return dual
    return planted


def _group(name):
    return lambda: cli.CHECKS[name](cli.RunConfig("suite"), RCache())


def _crossing():
    ctx, g = QContext(0.7), GradingChoice(1, 1)
    return [idsuite.check_crossing(1, (1.3 + 0.2j, 0.6 - 0.5j), g, ctx, cache=RCache())]


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
    "cli.ybe": (idsuite, "check_ybe", _nan_on_call(2), _group("ybe"), "ybe"),
    "cli.crossing": (idsuite, "check_crossing", _nan_on_call(2), _group("crossing"),
                     "crossing"),
    "cli.lambda_forms": (qkz, "lambda_forms_residual", _nan_on_call(2), _group("qkz"),
                         "lambda_forms"),
    "idsuite.conjugation": (idsuite, "antipode_dual", _nan_e1, _group("dualities"),
                            "self_dual"),
    "idsuite.crossing": (idsuite, "scalar_ratio", _nan_on_call(2), _crossing, "crossing"),
    "reduction.combined_report": (reduction, "psi_extract", _nan_on_call(2),
                                  _theorem("general"), "theorem_general"),
    "reduction.forms_residual": (reduction, "materialize_factors", _nan_on_call(1),
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
