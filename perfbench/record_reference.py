"""Write reference.json: the values each workload's report must reproduce.

    python3 perfbench/record_reference.py

The reference pins the results of the code it is recorded with, so it is
recorded once, with the code the benchmark was written against, and a change
that alters a pinned value to more than 1e-12 relative fails every benchmark
run on that seed.  Seeds 0 .. SEEDS-1 are recorded; ``comb`` does not depend on
the seed and has one entry.  Every recorded run must also pass the per-run
checks, so a seed on which the workload fails cannot be recorded.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import lptorus.cli  # noqa: E402

import workloads  # noqa: E402

SEEDS = 50


def record(workload: str, seed: int, workdir: Path) -> dict:
    argv = workloads.prepare(workload, seed, workdir)
    with contextlib.redirect_stdout(io.StringIO()):
        code = lptorus.cli.main(argv)
    report = json.loads((workdir / "report.json").read_text())
    problems = workloads.check(workload, seed, report, {})
    if code != 0 or problems:
        raise SystemExit(f"{workload} seed {seed} fails (exit {code}): {problems}")
    return workloads.recorded_values(workload, report)


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for workload in ("solve", "bilinear", "comb"):  # bony pins no value
            seeds = [0] if workload == "comb" else range(SEEDS)
            entries = {}
            for seed in seeds:
                values = record(workload, seed, Path(tmp))
                entries[workloads.reference_key(workload, seed)] = values
                print(f"{workload} seed {seed}: {values}", file=sys.stderr)
            reference[workload] = entries
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
