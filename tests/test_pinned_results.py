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
``solve`` case at seed 0, of the same seed-0 data solved without the oracle
in the thm1.3 and thm1.4 regimes, and of ``lp verify <suite> --seed 0``, all
other arguments at their defaults, so a result that moves even at roundoff
fails here.  The digests are tied to the numpy version
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
    "comb": "cad30330c7c5a913d9ff15135837cb8504aa384ddfefd608b304c771e641c24c",
    "bony": "4198e834306346dc637fe684e3d60c2f7058d22f6d5da96b627bf51be8d68d45",
    "heatchar": "5d5d16c8974403c18435cb6fb9d1c597b76727a179297236af0ab102b2346c5c",
    "lp": "ddf2352b82d65ff70d33297b487538db97f2d1b67ea2bc38cec15e4422f28f75",
    "besov": "0d62f28f6d5f5ac777b8cef3665efb24f65358e8db183a5467cb3b2ffcbe7ebb",
    "bernstein": "d7b9d494aa91fa24fd75c62a4178b6bb2b5d303547d44c75fed8c8463af6a038",
    "solve thm1.3:2,2": "28a07f198739e9d8834f7e09828ab89a313f7af746a00906587e7ddbc83c9bc4",
    "solve thm1.4:2,0.5": "80c7a191fa00e02963d18eacc509c57b4011f86112e8dec61af0592b40372b36",
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


@pytest.mark.parametrize("suite", [s for s in REPORT_DIGESTS if not s.startswith("solve")])
def test_seed_zero_report_is_byte_identical(suite, tmp_path):
    report = tmp_path / "report.json"
    assert main(["verify", suite, "--seed", "0", "--report", str(report)]) == 0
    _assert_digest(suite, report)


@pytest.mark.parametrize("regime", ["thm1.3:2,2", "thm1.4:2,0.5"])
def test_seed_zero_solve_report_in_each_regime_is_byte_identical(regime, tmp_path):
    u0, theta0 = workloads.solve_inputs(0, tmp_path)
    report = tmp_path / "report.json"
    assert main([
        "solve", "--u0", str(u0), "--theta0", str(theta0), "--T", "0.5", "--M", "64",
        "--regime", regime, "--seed", "0", "--report", str(report),
    ]) == 0
    _assert_digest(f"solve {regime}", report)
