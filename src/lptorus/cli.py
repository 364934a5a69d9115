"""Command-line entry point ``lp``.

Subcommands:

    decompose   split a field file into dyadic blocks + a JSON manifest
    norm        print one Besov norm of a field file
    verify      run a verification suite (lp, besov, bilinear, heatchar,
                comb, bernstein, bony) and write a JSON report
    solve       Picard-solve the Boussinesq system from field-file data
    sweep       amplitude grid of solves, CSV output

Exit status: 0 when every check passes, 1 when a verification or bound check
fails or a sweep row's norms are not finite (reports and the CSV are still
written), 2 on usage errors or malformed field files.

The parser is built once per process (``build_parser`` is cached): 1 ms saved
per later ``main()`` call in one process, none in an ``lp`` run.  ``main`` finds
``cmd_<command>`` by name at call time.  Do not mutate the shared parser.

Reports are deterministic byte-for-byte for a fixed seed; each run also
writes a side manifest (command, config echo, version, seed, timestamps,
output paths, worker count, the largest peak RSS of the workers the command
forked, 0.0 if none, and for solve its stage times), which is the only place
timestamps, timings and memory appear.  The trials of ``verify bilinear``,
``bony`` and ``heatchar``, ``sweep``'s rows and solve's ``--oracle`` (beside
Picard) fork onto one process per usable CPU through ``parallel.fork_map``;
they run serially on one CPU, off Linux, or while other Python threads live.
No output depends on the worker count.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, suites
from .besov import INF, BesovSpec, besov_norm, lp_norm
from .dyadic import decompose, shell_bounds
from .ensembles import single_mode, taylor_green
from .parallel import fork_map
from .solver import (
    CONSTANT_TRIALS,
    OracleInstabilityError,
    SolverConfig,
    exponential_euler,
    measure_operator_constants,
    oracle_error,
    picard_solve,
)
from .spectral import Field, FieldFormatError, Grid, read_field, write_field


def _parse_exponent(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return INF
    return float(text)


def _sanitize(obj):
    """JSON-ready copy: numpy scalars to Python, non-finite floats to 'inf', 'nan'."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    return obj


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_sanitize(obj), indent=2, allow_nan=False) + "\n")


def _write_manifest(
    path: Path, command: str, params: dict, outputs: list, seed, **extra
) -> None:
    manifest = {
        "command": command,
        "argv": sys.argv[1:],
        "version": __version__,
        "seed": seed,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "params": params,
        "outputs": [str(p) for p in outputs],
        **extra,
    }
    _write_json(path, manifest)


def _load_field(path: str) -> Field:
    try:
        return read_field(path)
    except FileNotFoundError:
        raise FieldFormatError("path", f"no such file: {path}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_decompose(args) -> int:
    field = _load_field(args.field)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dec = decompose(field)
    blocks = []
    outputs = []
    for q in range(-1, dec.q_max + 1):
        block = dec.block(q)
        name = f"block_q{q:+d}.lpfld"
        write_field(out_dir / name, block)
        outputs.append(out_dir / name)
        lo, hi = shell_bounds(q)
        blocks.append(
            {
                "q": q,
                "file": name,
                "support_radius": [lo, hi],
                "norms": {
                    "l1": lp_norm(block, 1.0),
                    "l2": lp_norm(block, 2.0),
                    "linf": lp_norm(block, INF),
                },
            }
        )
    manifest = {
        "source": str(args.field),
        "grid": {
            "dim": field.grid.dim,
            "points": field.grid.points,
            "period": field.grid.period,
        },
        "components": field.components,
        "q_max": dec.q_max,
        "blocks": blocks,
    }
    report_path = out_dir / "decomposition.json"
    _write_json(report_path, manifest)
    _write_manifest(
        out_dir / "run.manifest.json", "decompose", {"field": args.field},
        outputs + [report_path], None,
    )
    print(f"wrote {len(blocks)} blocks to {out_dir}")
    return 0


def cmd_norm(args) -> int:
    field = _load_field(args.field)
    spec = BesovSpec(args.s, _parse_exponent(args.p), _parse_exponent(args.r), args.alpha)
    value = besov_norm(field, spec)
    print(repr(value))
    if args.manifest:
        _write_manifest(
            Path(args.manifest), "norm",
            {"field": args.field, "s": args.s, "p": args.p, "r": args.r,
             "alpha": args.alpha, "value": value},
            [], None,
        )
    return 0


def _resolutions(text: str) -> tuple[int, ...]:
    """The resolutions typed after --N, each checked before any is derived."""
    ns = []
    for part in text.split(","):
        n = int(part) if part.strip().isdecimal() else 0
        if n < 2 or n & (n - 1):
            raise ValueError(f"--N takes powers of two >= 2, got {part!r}")
        ns.append(n)
    return tuple(ns)


def cmd_verify(args) -> int:
    if args.trials is not None and args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.trials is not None and args.suite == "comb":
        raise ValueError("verify comb takes no --trials: its grid of cases is fixed")
    trials = 50 if args.trials is None else args.trials  # heatchar: its suite's default
    ns = _resolutions(args.N)
    if len(ns) > 1 and args.suite in ("lp", "besov", "bernstein", "bony"):
        raise ValueError(f"verify {args.suite} takes one --N resolution, got {args.N!r}")
    if args.suite == "lp":
        report = suites.littlewood_paley_suite(
            dim=args.n, points=ns[0], trials=trials, seed=args.seed
        )
    elif args.suite == "besov":
        report = suites.besov_suite(
            dim=args.n, points=ns[0], trials=trials, seed=args.seed
        )
    elif args.suite == "bilinear":
        report = suites.bilinear_suite(
            args.lemma, dim=args.n, resolutions=ns if len(ns) > 1 else (ns[0], 2 * ns[0]),
            trials=trials, seed=args.seed,
        )
    elif args.suite == "heatchar":
        per_case = {} if args.trials is None else {"fields_per_case": args.trials}
        report = suites.heat_characterization_suite(
            dim=args.n, resolutions=ns if len(ns) > 1 else (ns[0], 2 * ns[0]),
            seed=args.seed, **per_case,
        )
    elif args.suite == "comb":
        report = suites.comb_suite(seed=args.seed)
    elif args.suite == "bernstein":
        report = suites.bernstein_suite(
            dim=args.n, points=ns[0], trials=trials, seed=args.seed
        )
    else:  # bony identity rides along with the paraproduct machinery
        report = suites.bony_suite(
            dim=args.n, points=ns[0], trials=trials, seed=args.seed
        )
    workers = report.pop("workers", 1)  # only the suites that fork report these two
    children_mb = report.pop("children_maxrss_mb", 0.0)
    report_path = Path(args.report or f"verify-{args.suite}.json")
    _write_json(report_path, report)
    _write_manifest(
        Path(str(report_path) + ".manifest.json"), f"verify {args.suite}",
        report["params"], [report_path], args.seed, workers=workers,
        children_maxrss_mb=children_mb,
    )
    status = "PASS" if report["pass"] else "FAIL"
    for check in report["checks"]:
        mark = "ok" if check["pass"] else "FAIL"
        print(f"  [{mark}] {check['name']}: {check['value']:.6g}")
    print(f"{args.suite}: {status} ({report_path})")
    return 0 if report["pass"] else 1


def parse_regime(text: str) -> dict:
    """'thm1.2' | 'thm1.3:p,r' | 'thm1.4:p,eps' -> SolverConfig kwargs."""
    head, _, tail = text.partition(":")
    if head == "thm1.2":
        if tail:
            raise ValueError("thm1.2 takes no exponents")
        return {"regime": head}
    if head not in ("thm1.3", "thm1.4"):
        raise ValueError(f"unknown regime {text!r}")
    second = "r" if head == "thm1.3" else "eps"
    values = tail.split(",")
    if len(values) != 2:
        raise ValueError(f"regime {text!r} is not of the form {head}:p,{second}")
    parse = _parse_exponent if second == "r" else float
    return {"regime": head, "p": _parse_exponent(values[0]), second: parse(values[1])}


def _solve_config(args, **extra) -> SolverConfig:
    return SolverConfig(
        horizon=args.T,
        steps=args.M,
        max_iterations=args.max_iterations,
        tol=args.tol,
        buoyancy=tuple(float(x) for x in args.buoyancy.split(",")),
        constant_seed=args.seed,
        **parse_regime(args.regime),
        **extra,
    )


def _config_echo(config: SolverConfig) -> dict:
    return {
        "horizon": config.horizon,
        "steps": config.steps,
        "max_iterations": config.max_iterations,
        "tol": config.tol,
        "buoyancy": list(config.buoyancy),
        "regime": config.regime,
        "p": config.p,
        "r": config.r,
        "eps": config.eps,
        "oracle_refine": config.oracle_refine,
        "constant_trials": CONSTANT_TRIALS,
        "constant_seed": config.constant_seed,
    }


def _timed(fn, *args):
    """``fn(*args)`` and its run time on this process's clock."""
    start = time.perf_counter()
    return fn(*args), time.perf_counter() - start


def cmd_solve(args) -> int:
    u0 = _load_field(args.u0)
    theta0 = _load_field(args.theta0)
    config = _solve_config(args, oracle_refine=args.oracle_refine)
    # the oracle reads only the data, so it runs beside Picard on a forked
    # worker when there is a second CPU (a thread would share the GIL)
    tasks = [lambda: _timed(picard_solve, u0, theta0, config)]
    if args.oracle:
        tasks.append(lambda: _timed(exponential_euler, u0, theta0, config))
    start = time.perf_counter()
    results, _, _ = fork_map(lambda task: task(), tasks)
    ((u, theta, report), picard_s), *oracle = results
    stages = {"picard_s": picard_s}
    payload = {"config": _config_echo(config)}
    payload.update(report.to_dict())
    if args.oracle:
        reference, stages["oracle_s"] = oracle[0]  # a worker's error re-raised above
        stages["oracle_wait_s"] = time.perf_counter() - start - picard_s
        payload["oracle_error"] = oracle_error((u, theta), reference)
    report_path = Path(args.report)
    _write_json(report_path, payload)
    _write_manifest(
        Path(str(report_path) + ".manifest.json"), "solve",
        _config_echo(config), [report_path], args.seed, stages=stages,
    )
    ok = report.converged and not report.diverged and all(
        v for k, v in report.bounds.items() if isinstance(v, bool)
    )
    print(
        f"solve: converged={report.converged} certificate="
        f"{report.certificate.passed} ({report_path})"
    )
    return 0 if ok else 1


def _sweep_row(amp_u, amp_th, grid, config):
    u0 = taylor_green(grid, amp_u)
    th0 = single_mode(grid, (1, 1), amp_th)
    _, _, report = picard_solve(u0, th0, config)
    return {
        "amp_u": amp_u,
        "amp_theta": amp_th,
        "certificate_pass": report.certificate.passed,
        "converged": report.converged,
        "diverged": report.diverged,
        "velocity_bound": report.bounds["velocity_le_2mu1"],
        "scalar_bound": report.bounds["scalar_le_2mu2"],
        "pair_bound": report.bounds["pair_le_4_initial"],
        "iterations": report.final["iterations"],
        "velocity_norm": report.final["velocity_norm"],
        "scalar_norm": report.final["scalar_norm"],
    }


def cmd_sweep(args) -> int:
    amps_u = [float(x) for x in args.amps_u.split(",")]
    amps_th = [float(x) for x in args.amps_theta.split(",")]
    if not all(0.0 <= a < INF for a in amps_u + amps_th):
        raise ValueError("amplitudes must be finite and non-negative")
    grid = Grid(2, args.N)
    config = _solve_config(args)
    constants = measure_operator_constants(grid, config)
    config = dataclasses.replace(
        config, lambda_=constants["lambda"], eta=constants["eta"]
    )
    tasks = [(amp_u, amp_th) for amp_u in amps_u for amp_th in amps_th]
    # rows come back in task order, so the CSV is in (amp_u, amp_theta) order
    rows, workers, children_mb = fork_map(lambda t: _sweep_row(*t, grid, config), tasks)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    fieldnames = [
        "amp_u", "amp_theta", "certificate_pass", "converged", "diverged",
        "velocity_bound", "scalar_bound", "pair_bound", "iterations",
        "velocity_norm", "scalar_norm",
    ]
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    _write_manifest(
        Path(str(out_path) + ".manifest.json"), "sweep",
        {"amps_u": amps_u, "amps_theta": amps_th, "N": args.N,
         "config": _config_echo(config), "lambda": constants["lambda"],
         "eta": constants["eta"]},
        [out_path], args.seed, workers=workers, children_maxrss_mb=children_mb,
    )
    # the CSV keeps every row; a row whose norms are not finite fails the run
    bad = [f"({row['amp_u']!r}, {row['amp_theta']!r})" for row in rows
           if not all(map(math.isfinite, (row["velocity_norm"], row["scalar_norm"])))]
    if bad:
        print(f"sweep: non-finite norms in rows (amp_u, amp_theta) {', '.join(bad)}",
              file=sys.stderr)
    print(f"sweep: {len(rows)} rows ({out_path})")
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lp",
        description="Dyadic frequency analysis and Boussinesq mild solutions "
        "on the periodic torus",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="split a field into dyadic blocks")
    p_dec.add_argument("field")
    p_dec.add_argument("--out-dir", required=True)

    p_norm = sub.add_parser("norm", help="print one Besov norm")
    p_norm.add_argument("field")
    p_norm.add_argument("--s", type=float, required=True)
    p_norm.add_argument("--p", required=True)
    p_norm.add_argument("--r", required=True)
    p_norm.add_argument("--alpha", type=float, default=0.0)
    p_norm.add_argument("--manifest")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument(
        "suite",
        choices=["lp", "besov", "bilinear", "heatchar", "comb", "bernstein", "bony"],
    )
    p_ver.add_argument("--n", type=int, default=2)
    p_ver.add_argument("--N", default="32", help="resolution; bilinear, heatchar: comma list")
    p_ver.add_argument("--trials", type=int, help="default 50; heatchar: fields per case")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--lemma", default="2.5", choices=["2.4", "2.5", "2.6", "2.7"])
    p_ver.add_argument("--report")

    p_sol = sub.add_parser("solve", help="Picard-solve the Boussinesq system")
    p_sol.add_argument("--u0", required=True)
    p_sol.add_argument("--theta0", required=True)
    p_sol.add_argument("--T", type=float, default=0.5)
    p_sol.add_argument("--M", type=int, default=64)
    p_sol.add_argument("--max-iterations", type=int, default=25)
    p_sol.add_argument("--tol", type=float, default=1e-8)
    p_sol.add_argument("--regime", default="thm1.2")
    p_sol.add_argument("--buoyancy", default="0,1")
    p_sol.add_argument("--oracle", action="store_true")
    p_sol.add_argument("--oracle-refine", type=int, default=10)
    p_sol.add_argument("--seed", type=int, default=1234)
    p_sol.add_argument("--report", required=True)

    p_sw = sub.add_parser("sweep", help="amplitude-grid sweep, CSV output")
    p_sw.add_argument("--amps-u", required=True)
    p_sw.add_argument("--amps-theta", required=True)
    p_sw.add_argument("--N", type=int, default=32)
    p_sw.add_argument("--T", type=float, default=0.5)
    p_sw.add_argument("--M", type=int, default=16)
    p_sw.add_argument("--max-iterations", type=int, default=25)
    p_sw.add_argument("--tol", type=float, default=1e-8)
    p_sw.add_argument("--regime", default="thm1.2")
    p_sw.add_argument("--buoyancy", default="0,1")
    p_sw.add_argument("--seed", type=int, default=1234)
    p_sw.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return globals()["cmd_" + args.command](args)  # read at call time
    except FieldFormatError as exc:
        print(f"error: malformed field file ({exc})", file=sys.stderr)
        return 2
    except (ValueError, OSError, OracleInstabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
