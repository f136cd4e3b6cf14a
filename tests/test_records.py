"""The record types of the package are tuples, so importing the package
runs no dataclass code generation.

Each record is a namedtuple: six check their values in `__new__`, the
others (`typing.NamedTuple`) check nothing.  They keep the contract of
frozen records: the same errors and messages, positionally and by keyword;
no settable attribute; equal values equal and hash equal.  The package
imports neither `dataclasses` nor `json`: `cli` writes strings with the C
encoder that `json.encoder` re-exports.
"""

import json.encoder
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qkzkit
from qkzkit import cli, rsolve
from qkzkit.context import QContext
from qkzkit.errors import ConfigError
from qkzkit.qkz import ChainSpec, DeltaAssignment, FactorCheck, Side, Sites, StringCheck
from qkzkit.reduction import ReductionCase, theorem_check_selfdual
from qkzkit.report import VerificationReport
from qkzkit.reps import GradingChoice

CTX, GRADING = QContext(0.7), GradingChoice(1, 1)
DELTAS = (DeltaAssignment("general_v"), DeltaAssignment("general_vstar"))

# each checking type: its values (every field, in order), then (field, bad value, message)
CHECKED = {
    QContext: ({"q": 0.7, "trunc_terms": 256}, [
        ("q", complex(math.nan, 0), "q must be finite, got (nan+0j)"),
        ("q", 0, "q must be nonzero"),
        ("q", 1.2, "|q| must be < 1, got |q| = 1.2"),
        ("q", -0.9999999999999999, "q is numerically a root of unity: |q^2 - 1| <= 10*eps"),
        ("trunc_terms", 0, "trunc_terms must be positive"),
    ]),
    GradingChoice: ({"s0": 1, "s1": 0}, [
        ("s0", -1, "grades must be nonnegative with s0 + s1 >= 1"),
        ("s0", 0, "grades must be nonnegative with s0 + s1 >= 1"),
    ]),
    DeltaAssignment: ({"source": "general_v", "alpha": 0.0, "n": 1}, [
        ("source", "bogus", "unknown delta source 'bogus'"),
    ]),
    ChainSpec: ({"m": 1, "grading": GRADING, "ctx": CTX, "kinds": ("V", "V*"),
                 "etas": (1.1, 0.9j), "p": 0.5, "deltas": DELTAS, "normalization": "kappa"}, [
        ("kinds", ("V",), "chain length must be even and >= 2"),
        ("kinds", ("V",) * 4, "kinds, etas and deltas must have equal length"),
        ("etas", (1.1,), "kinds, etas and deltas must have equal length"),
        ("kinds", ("V", "W"), "site kinds must be 'V' or 'V*'"),
        ("p", 0, "shift p must be nonzero"),
    ]),
    Side: ({"strings": ((),), "route": "apply_factors", "check_invertible": True}, [
        ("route", "bogus", "unknown route 'bogus'"),
        ("strings", (), "a side stacks at least one factor string"),
        ("strings", ((("R", (0, 1), ("V", 1.1, "V", 0.9)),),
                     (("Rcheck", (0, 1), ("V", 1.1, "V", 0.9)),)),
         "the strings of a side differ in their step pattern"),
    ]),
    ReductionCase: ({"mode": "self_dual", "n": 2, "m": 1, "grading": GRADING, "ctx": CTX,
                     "alpha": 0.0}, [
        ("mode", "bogus", "mode must be 'self_dual' or 'general'"),
        ("n", 0, "n and m must be positive"),
        ("m", 0, "n and m must be positive"),
    ]),
}
CASES = [(cls, field, bad, message) for cls, (_, bads) in CHECKED.items()
         for field, bad, message in bads]


@pytest.mark.parametrize("cls, field, bad, message", CASES,
                         ids=[f"{c.__name__}-{f}-{i}" for i, (c, f, _, _) in enumerate(CASES)])
def test_checking_types_raise_their_message(cls, field, bad, message):
    values = dict(CHECKED[cls][0], **{field: bad})
    for make in (lambda: cls(*values.values()), lambda: cls(**values)):
        with pytest.raises(ConfigError) as err:
            make()
        assert str(err.value) == message


@pytest.mark.parametrize("cls", list(CHECKED), ids=lambda cls: cls.__name__)
def test_checking_types_keep_their_fields_and_defaults(cls):
    values = CHECKED[cls][0]
    assert cls._fields == tuple(values)
    made = cls(*values.values())
    assert made == cls(**values) and tuple(made) == tuple(values.values())
    required = {"QContext": 1, "GradingChoice": 2, "DeltaAssignment": 1, "ChainSpec": 7,
                "Side": 1, "ReductionCase": 5}[cls.__name__]
    assert cls(*list(values.values())[:required]) == made  # the rest are the defaults


def records():
    """One value of each of the eleven record types."""
    chain = ChainSpec(**CHECKED[ChainSpec][0])
    frame = rsolve.RCache().template(
        rsolve.make_request("V", 1.3, "V", 0.7, 1, GRADING, CTX)).frame(1)
    return [cls(**values) for cls, (values, _) in CHECKED.items()] + [
        Sites(1, GRADING, CTX), StringCheck("s", {}, 1e-9, chain, (Side(((),)),) * 2),
        FactorCheck(((chain, []),), len), frame,
        VerificationReport.make("ybe", {"m": 1}, 1e-12, 1e-9)]


@pytest.mark.parametrize("record", records(), ids=lambda rec: type(rec).__name__)
def test_no_record_can_be_set(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1


def test_equal_values_are_equal_and_hash_equal():
    pairs = [
        (QContext(0.7), QContext(0.7 + 0j)), (QContext(0.7, 300), QContext(q=0.7, trunc_terms=300)),
        (GradingChoice(1, 0), GradingChoice(s0=1, s1=0)),
        (DeltaAssignment("self_dual_pair", 0.5, 2),
         DeltaAssignment("self_dual_pair", n=2, alpha=0.5)),
        (ChainSpec(**CHECKED[ChainSpec][0]), ChainSpec(*CHECKED[ChainSpec][0].values())),
        (Side(((1, 2),), "einsum"), Side(strings=((1, 2),), route="einsum")),
        (ReductionCase("general", 2, 1, GRADING, CTX),
         ReductionCase("general", 2, 1, GRADING, CTX, 0j)),
        (Sites(1, GRADING, CTX), Sites(1, GradingChoice(1, 1), QContext(0.7), "hw", 2))]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert QContext(0.7) != QContext(0.6) and GradingChoice(1, 0) != GradingChoice(0, 1)
    report = VerificationReport.make("ybe", {"m": 1}, 1e-12, 1e-9)
    assert report == VerificationReport("ybe", {"m": 1}, 1e-12, 1e-9)
    assert report.with_tolerance(1e-9) == report and report.with_tolerance(1e-13) != report


def test_the_class_constant_of_a_reduction_case():
    case = ReductionCase("self_dual", 1, 1, GRADING, CTX)
    assert case.normalization == ReductionCase.normalization == "kappa"
    assert "normalization" not in ReductionCase._fields


def test_pair_params_default_is_read_only_and_reports_nothing():
    default = StringCheck._field_defaults["pair_params"]
    with pytest.raises(TypeError):
        default["forms_residual"] = 1
    assert dict(default) == {}


def test_theorem_selfdual_reports_its_forms_residual(ctx, grading, cache):
    case = ReductionCase("self_dual", 2, 1, grading, ctx)
    rng = np.random.default_rng(5)
    zetas = [(0.8 + 0.6 * rng.random()) * np.exp(2j * np.pi * rng.random()) for _ in range(2)]
    record = theorem_check_selfdual.record(case, zetas, seed=3)
    assert dict(record.pair_params) == {"forms_residual": 1}
    rep = theorem_check_selfdual(case, zetas, seed=3, cache=cache)
    assert 0 <= rep.params["forms_residual"] <= 1e-9 and rep.passed


def test_importing_the_cli_imports_neither_dataclasses_nor_json():
    src = str(Path(qkzkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", "import numpy, qkzkit.cli, sys; "
         "print(sorted({'dataclasses', 'json'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_the_writer_uses_the_json_encoder():
    assert cli.encode_basestring is json.encoder.encode_basestring
