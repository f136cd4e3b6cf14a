"""Byte-identity corpus: the sha256 of the JSON report and the exit code of a
dozen command lines, over spins 1-4, the gradings, a small, a complex and a
near-critical q, the theorem chain at n = 3 and the reduction_chains library
reports of the benchmark.  A change that means to keep every report bit
keeps every digest; one that moves bits on purpose records the new digests
and says which lines moved and why.  The three pins of test_cli.py
(`suite --m 1` at seed 7, wide at seed 7, complex q wide at seed 3) are not
repeated here."""

import hashlib

import pytest

from qkzkit import cli
from test_traced_names import WORKLOADS

CORPUS = {
    "suite --m 2 --seed 7":
        (0, "a673e04386d908666db92b14bf020d217f5a1030ee137801002efbca15b0f167"),
    "suite --m 3 --seed 1":
        (0, "865600659918a1da2af526cf67a02efe9d537559e4a12e79f0efe1ce583faa6a"),
    "suite --m 4 --seed 1":
        (0, "5908ec2e9ca881b489f912cc5f0358be97cf499b717a36639a655a9adf1f4283"),
    "suite --m 1 --samples 12 --seed 1":
        (0, "7dfddafe758c99908fb3b3c6def459f2436d7b2da5b25fc7b5f448d7d73e9ca8"),
    "suite --m 2 --s0 1 --s1 0 --seed 1":
        (0, "0fae9d343684229be5f22eb744150f71ad80f12053f699d5ddc78b0c5f56870e"),
    "suite --m 2 --s0 2 --s1 1 --seed 1":
        (0, "0ae6b89cd792eb10a569aca14ab812d5979cedabf9cd092c7269bc68b70f0eff"),
    "suite --m 2 --s0 0 --s1 1 --seed 1":
        (0, "e20df7d1075107932d700668b64d43da7a5035cc0540eeb55bf8adabcdf2476b"),
    "suite --m 2 --q 0.3 --seed 1":
        (0, "4592ba5b283e3a92720dd55d5bfd285f787a78738d8b92252eda958b39a38a1a"),
    "suite --m 2 --q 0.5,0.5 --seed 1":
        (0, "f203bcf8c8f5e0774c0fa19b28be674fd766a110d4909b287d3c8f3e8dbbbb73"),
    "verify theorems --n 3 --m 1 --seed 1":
        (0, "739752a2fc703e5787406e2c8935cdcf0b21918d9e222f1d9209cb2a40297e00"),
    # near the unit circle the crossing scalars overflow: a failing report, exit 1
    "suite --m 1 --q 0.999 --trunc 8000 --seed 1":
        (1, "5d6627b69214c4c3997fd1bb35eb285ac56f6f1352d108217e8e297e3f27019a"),
}

# the reduction_chains workload of perfbench at seed 1, its reports serialized as the CLI does
CHAINS_DIGEST = "4e21ac7574db6c2065f9419b216618dad40f56627be698d5e55d65b0320a1cda"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("line", sorted(CORPUS))
def test_report_is_unchanged(line, capsys):
    code = cli.main(line.split())
    got = (code, _sha(capsys.readouterr().out))
    assert got == CORPUS[line], f"the report of `{line}` moved"


def test_reduction_chains_reports_are_unchanged():
    reports = WORKLOADS.run_chains(WORKLOADS.chain_inputs(1), 1)
    got = _sha(cli.serialize_reports(reports, "json"))
    assert got == CHAINS_DIGEST, "the reduction_chains reports at seed 1 moved"
