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
    "solve": "fba1a604549b498b987993c6747d481460732a2c853aa1e2af7d1eec2734de22",
    "comb": "cad30330c7c5a913d9ff15135837cb8504aa384ddfefd608b304c771e641c24c",
    "bony": "bea22b74881cddca382623052af0672a1d6fd29c02f37577a36abdb932c98b1a",
    "heatchar": "2a61459ce204b30089d1303604b129880a87e5b10d753ff0e9551e0029c2e8d4",
    "lp": "6d14ba30af5141af4f74a0ad02d3c5cbe6cc45c7540bcae602b98dd4007a301a",
    "besov": "7a5f09740808e8d20de044c3b2b45c5c891218d038047da8d19da4c378789b40",
    "bernstein": "536a152a882793adcd11bc595abe1162819beba3a9968363e3c43f092dd5a293",
    "solve thm1.3:2,2": "f60b368d6f48bd86e1dbafc7d06eb737456a7ee31b5ece801b16d0917849b1e3",
    "solve thm1.4:2,0.5": "54f55c7f2846c8bb723a308569bafb74e840f2e44ac3d837be52fd8f2d3fd59d",
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
