"""The benchmark's workloads: inputs made from a seed, and the checks on each report.

Each workload is one ``lp`` command run in-process through
``lptorus.cli.main``.  ``prepare`` makes the inputs (field files, for
``solve``) from the benchmark's seed and returns the argument list;
``check`` returns the problems found in a finished report, empty when the run
is correct.  README.md says why these four workloads were chosen.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from lptorus import Grid, helmholtz_project, random_field, write_field

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REL_TOL = 1e-12

SOLVE_N = 32
SOLVE_AMPLITUDE = 0.01
BILINEAR_TRIALS = 10
BONY_TRIALS = 25


def solve_inputs(seed: int, workdir: Path) -> tuple[Path, Path]:
    """Leray-projected velocity and a scalar, random fields of sup norm 0.01."""
    grid = Grid(2, SOLVE_N)
    rng = np.random.default_rng(seed)
    u0 = helmholtz_project(random_field(grid, rng, components=2))
    u0 = u0 * (SOLVE_AMPLITUDE / float(np.max(u0.magnitude())))
    theta0 = random_field(grid, rng) * SOLVE_AMPLITUDE
    paths = workdir / "u0.lpfld", workdir / "theta0.lpfld"
    write_field(paths[0], u0)
    write_field(paths[1], theta0)
    return paths


def prepare(workload: str, seed: int, workdir: Path) -> list[str]:
    """Make the workload's inputs in ``workdir``; return its ``lp`` arguments."""
    report = str(workdir / "report.json")
    if workload == "solve":
        u0, theta0 = solve_inputs(seed, workdir)
        return [
            "solve", "--u0", str(u0), "--theta0", str(theta0), "--T", "0.5",
            "--M", "64", "--regime", "thm1.2", "--oracle", "--oracle-refine",
            "40", "--seed", str(seed), "--report", report,
        ]
    if workload == "bilinear":
        return [
            "verify", "bilinear", "--lemma", "2.7", "--N", "32,64", "--trials",
            str(BILINEAR_TRIALS), "--seed", str(seed), "--report", report,
        ]
    if workload == "bony":
        return [
            "verify", "bony", "--N", "64", "--trials", str(BONY_TRIALS),
            "--seed", str(seed), "--report", report,
        ]
    if workload == "comb":  # deterministic: the seed is only recorded
        return ["verify", "comb", "--seed", str(seed), "--report", report]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# values compared against the reference recorded with the seed code


def recorded_values(workload: str, report: dict) -> dict:
    """The report values a reference pins, by name.

    Integer values (iteration and sample counts) must match exactly; float
    values to ``REL_TOL`` relative.  The oracle errors are relative L2
    distances between two solutions, so they are compared to ``REL_TOL`` of
    the solution norm, which is an absolute deviation of ``REL_TOL``.
    """
    if workload == "solve":
        cert = report["certificate"]
        out = {
            "lambda": cert["lambda_"],
            "eta": cert["eta"],
            "certificate_lhs": cert["lhs"],
            "certificate_rhs": cert["rhs"],
            "velocity_norm": report["final"]["velocity_norm"],
            "scalar_norm": report["final"]["scalar_norm"],
            "pair_norm": report["final"]["pair_norm"],
            "iterations": report["final"]["iterations"],
        }
        out.update({f"oracle_error.{k}": v for k, v in report["oracle_error"].items()})
        return out
    if workload == "bilinear":
        out = {}
        for n, stats in report["stats"].items():
            out[f"N{n}.max"] = stats["max"]
            out[f"N{n}.median"] = stats["median"]
            out[f"N{n}.count"] = stats["count"]
        return out
    if workload == "comb":
        out = {"slope": report["slope"]}
        for key in ("b01_partial", "b0log_inf"):
            out.update({f"{key}.{i}": v for i, v in enumerate(report[key])})
        return out
    return {}  # bony: its only value is the roundoff-level identity defect


def reference_key(workload: str, seed: int) -> str:
    return "any" if workload == "comb" else str(seed)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def pinned(workload: str, seed: int, reference: dict) -> dict | None:
    """The reference values for this workload and seed, or None if none are pinned."""
    return reference.get(workload, {}).get(reference_key(workload, seed))


def compare(values: dict, reference: dict) -> list[str]:
    problems = []
    for name, ref in reference.items():
        got = values.get(name)
        if got is None:
            problems.append(f"{name}: missing (reference {ref!r})")
        elif isinstance(ref, int):
            if got != ref:
                problems.append(f"{name}: {got!r} != reference {ref!r}")
        else:
            scale = 1.0 if name.startswith("oracle_error.") else abs(ref)
            if not abs(got - ref) <= REL_TOL * scale:
                problems.append(
                    f"{name}: {got!r} deviates from reference {ref!r} "
                    f"by {abs(got - ref) / max(scale, 1e-300):.3e} relative"
                )
    return problems


# ---------------------------------------------------------------------------
# per-run correctness


def _solve_problems(report: dict) -> list[str]:
    problems = []
    tol = report["config"]["tol"]
    if not report["certificate"]["passed"]:
        problems.append("smallness certificate failed")
    if not report["converged"] or report["diverged"]:
        problems.append("Picard iteration did not converge")
    for key, ok in report["bounds"].items():
        if isinstance(ok, bool) and not ok:
            problems.append(f"bound {key} violated")
    for key in ("velocity_residual_rel", "scalar_residual_rel"):
        if not report["residuals"][key] <= 10 * tol:  # criterion 6
            problems.append(f"{key} {report['residuals'][key]:.3e} > {10 * tol:.1e}")
    factors = [it["contraction"] for it in report["iterations"] if it["contraction"] is not None]
    if not factors or not factors[-1] < 1.0:
        problems.append(f"last contraction factor {factors[-1:]} is not below 1")
    if not report["oracle_error"]["max"] <= 1e-4:  # criterion 7
        problems.append(f"oracle error {report['oracle_error']['max']:.3e} > 1e-4")
    return problems


def check(workload: str, seed: int, report: dict, reference: dict) -> list[str]:
    """Problems with one finished report; empty when the run is correct.

    Every report must pass its own checks (the Bony defect, the bilinear
    stability, the comb asymmetry carry their own tolerances).  ``solve`` is
    held to criteria 6 and 7.  Where the reference holds values for this
    seed they must be reproduced; on other seeds (``bony`` on every seed) only
    the checks above apply, and ``run.py`` says so.
    """
    if workload == "solve":
        problems = _solve_problems(report)
    else:
        problems = [
            f"check {c['name']} failed: {c['value']!r} vs tolerance {c['tolerance']!r}"
            for c in report["checks"]
            if not c["pass"]
        ]
        if not report["pass"]:
            problems.append("report does not pass")
    values = pinned(workload, seed, reference)
    if values is not None:
        problems += compare(recorded_values(workload, report), values)
    return problems
