"""The benchmark's pinned results, reproduced in-process.

``perfbench/reference.json`` pins the ``solve`` and ``bilinear`` report
values of each seed, and the ``comb`` values of any seed, to 1e-12 relative.
``bony`` pins none: its one value is a roundoff-sized identity defect, held
to the report's own 1e-12 check.  Each case makes the workload's inputs with
``workloads.prepare``, runs its ``lp`` command through ``lptorus.cli.main``
and asserts that ``workloads.check`` finds no problem.  A change that moves
a pinned value on purpose re-records the reference with
``perfbench/record_reference.py`` and says so.

``REPORT_DIGESTS`` holds the sha256 of the report bytes of the pinned
``solve`` case at seed 0 and of ``lp verify <suite> --seed 0``, all other
arguments at their defaults, so a result that moves even at roundoff fails
here.  The digests are tied to the numpy version
they were recorded with (2.4.6): another numpy may round differently.  On a
mismatch the test prints the new digest; a change that moves a report on
purpose re-records it and says so.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

from lptorus.cli import main  # noqa: E402

PINNED_CASES = [("solve", 0), ("bilinear", 0), ("comb", 0), ("bony", 0)]

REPORT_DIGESTS = {
    "solve": "8e3f928c974a0360377430f1dee33a2a64729b885454da514b8d246e9b1d34cc",
    "comb": "3cba38665477bff2dd4db585354528d7987b45bc68c4bebb59abbcd3c55adadf",
    "bony": "4198e834306346dc637fe684e3d60c2f7058d22f6d5da96b627bf51be8d68d45",
    "heatchar": "5d5d16c8974403c18435cb6fb9d1c597b76727a179297236af0ab102b2346c5c",
    "lp": "ddf2352b82d65ff70d33297b487538db97f2d1b67ea2bc38cec15e4422f28f75",
}


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


@pytest.mark.parametrize("workload, seed", PINNED_CASES)
def test_workload_reproduces_its_pinned_results(workload, seed, reference, tmp_path):
    argv = workloads.prepare(workload, seed, tmp_path)
    assert main(argv) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert workloads.check(workload, seed, report, reference) == []
    assert (workloads.pinned(workload, seed, reference) is None) == (workload == "bony")
    if (workload, seed) == ("solve", 0):
        _assert_digest("solve", tmp_path / "report.json")


def _assert_digest(name, report):
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == REPORT_DIGESTS[name], f"{name} report digest is now {digest}"


@pytest.mark.parametrize("suite", [s for s in REPORT_DIGESTS if s != "solve"])
def test_seed_zero_report_is_byte_identical(suite, tmp_path):
    report = tmp_path / "report.json"
    assert main(["verify", suite, "--seed", "0", "--report", str(report)]) == 0
    _assert_digest(suite, report)
