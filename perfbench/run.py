"""lptorus benchmark: time ``lp`` workloads end to end, or trace their layers.

    python3 perfbench/run.py --workload solve --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run from the root of a checkout; the program under test is ``src/lptorus``
of that checkout.  With ``--trace 0`` it reports the end-to-end metrics
(wall_s, cold_s, setup_s, peak_rss_mb), with ``--trace 1`` the per-layer
metrics of a traced run.  Each ``lp`` run's report is checked (see
workloads.py); the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The full result, with the
samples and the environment, goes to ``.bench_work/<workload>-seed<S>-trace<T>/``.
README.md describes the workloads and the metrics.
"""

import time

START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import LAYER_UNITS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve", "bilinear", "bony", "comb")
SETUP_PROCESSES = 4  # set-up-only processes per run, beside the measuring ones
RUN_PROCESSES = 16  # most fresh processes that take a cold and a warm sample
MIN_RUN_PROCESSES = 2  # started even past the deadline, so cold_s is never one sample
HARD_LIMIT = 170.0  # seconds from start by which every child has ended
PROBE_REF_S = 0.003  # the reference speed: the host-speed probe takes this long
END_TO_END_UNITS = {"wall_s": "s", "cold_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


def blas_threads_env() -> dict:
    """The environment for every child: no more BLAS threads than CPUs."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            env[var] = str(min(int(env.get(var, nproc)), nproc))
        except ValueError:
            env[var] = str(nproc)
    return env


# ---------------------------------------------------------------------------
# environment record


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict:
    """Total size per cache level, summed over distinct cache instances."""
    seen, totals = set(), {}
    for index in Path("/sys/devices/system/cpu").glob("cpu[0-9]*/cache/index[0-9]*"):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction" or (level, kind, shared) in seen:
            continue
        seen.add((level, kind, shared))
        kib = int(size.rstrip("K")) if size.endswith("K") else int(size) // 1024
        totals[f"L{level}"] = totals.get(f"L{level}", 0) + kib
    return {k: f"{v / 1024:g} MiB" for k, v in sorted(totals.items())}


def _blas() -> dict:
    import ctypes

    import numpy

    info = {"numpy": numpy.__version__}
    try:
        info["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        info["blas"] = None
    info["blas_threads"] = None
    try:
        libs = {
            line.split()[-1]
            for line in Path("/proc/self/maps").read_text().splitlines()
            if "openblas" in line.lower() and line.split()[-1].endswith(".so")
        }
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getattr(handle, symbol).restype = ctypes.c_int
                info["blas_threads"] = getattr(handle, symbol)()
                return info
    return info


def _git_sha() -> str | None:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over src/, which identifies the code where there is no .git."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, seconds: int) -> dict:
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
    }
    env.update(_blas())
    env.update(git_sha=_git_sha(), src_sha256=_source_digest(), seed=seed, run_seconds=seconds)
    return env


# ---------------------------------------------------------------------------
# measuring


def spawn(mode, workload, seed, deadline, workdir, env, start) -> dict:
    """Run one child process to completion and return its measurements."""
    timeout = HARD_LIMIT - (time.monotonic() - start)
    if timeout <= 0:
        raise BenchError("no time left for another process")
    argv = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed),
            repr(deadline), str(workdir)]
    began = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{mode} process exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    out = json.loads(lines[-1])
    out["process_s"] = time.monotonic() - began
    return out


def at_reference_speed(children) -> dict:
    """Each measured time scaled to the speed at which the probe takes PROBE_REF_S.

    child.py gives, for each timed step, the mean time of the host-speed probe
    run right after set-up or inside the run.
    """
    out = {"wall_s": [], "cold_s": [], "setup_s": []}
    for c in children:
        probe = c["probe_s"]
        out["setup_s"].append(c["setup_s"] * PROBE_REF_S / probe["setup"])
        if "cold_s" in c:
            out["cold_s"].append(c["cold_s"] * PROBE_REF_S / probe["cold"])
            out["wall_s"].append(c["warm_s"][0] * PROBE_REF_S / probe["warm"])
    return out


def summarize(values) -> dict:
    """Median, the highest percentile with ten samples beyond it, spread, count."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "tail": None, "tail_value": None,
           "iqr_over_median": None}
    if n >= 11:
        out["tail"] = f"p{100 * (n - 10) // n}"
        out["tail_value"] = values[n - 11]
    if n >= 2 and out["median"]:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["iqr_over_median"] = (q3 - q1) / out["median"]
    return out


def measure(workload: str, seed: int, seconds: int, trace: bool, workdir: Path,
            start: float) -> dict:
    """Measure one workload for ``seconds`` from ``start``, one process at a time."""
    deadline = start + seconds
    env = blas_threads_env()

    def child(mode, name):
        return spawn(mode, workload, seed, deadline, workdir / name, env, start)

    children = []
    if trace:
        children.append(child("trace", "traced"))
    else:
        for i in range(SETUP_PROCESSES):
            children.append(child("setup", f"setup{i}"))
        # one cold and one warm run per process, while another process fits
        for slot in range(RUN_PROCESSES):
            children.append(child("run", f"run{slot}"))
            fits = time.monotonic() + children[-1]["process_s"] <= deadline
            if slot + 1 >= MIN_RUN_PROCESSES and not fits:
                break
    for path in workdir.iterdir():
        if path.is_dir():
            shutil.rmtree(path)

    problems = [p for c in children for p in c["problems"]]
    failed = sum(c["failed"] for c in children)
    if len({c["digest"] for c in children if c["digest"]}) > 1:
        problems.append("report bytes differ between processes")  # criterion 9
        failed += 1
    result = {
        "workload": workload,
        "attempted": sum(c["attempted"] for c in children),
        "failed": failed,
        "problems": problems,
        "reference_pinned": children[0]["pinned"],
    }
    if trace:
        (child,) = children
        result["layers"] = child["layers"]
        result["samples"] = {"wall_s": child["warm_s"], "traced_s": child["traced_s"]}
    else:
        result["samples"] = at_reference_speed(children)
        result["samples"]["peak_rss_mb"] = [c["peak_rss_mb"] for c in children
                                            if "peak_rss_mb" in c]
        result["raw_samples"] = {
            "wall_s": [t for c in children for t in c.get("warm_s", [])],
            "cold_s": [c["cold_s"] for c in children if "cold_s" in c],
            "setup_s": [c["setup_s"] for c in children],
            "probe_s": [t for c in children for t in c["probe_s"].values()],
        }
        result["summary"] = {k: summarize(v) for k, v in result["samples"].items()}
        result["raw_median"] = {k: statistics.median(v) for k, v in result["raw_samples"].items()}
    return result


# ---------------------------------------------------------------------------
# output


def print_result(result: dict, trace: bool) -> None:
    print(f"workload {result['workload']}")
    name = f"{result['workload']} seed {result['env']['seed']}"
    if result["reference_pinned"]:
        print(f"  reference: pinned values for {name}, held to 1e-12")
    else:  # bony pins none; solve and bilinear pin seeds 0-49 only
        print(f"  reference: none for {name}; only the reports' own checks apply")
    if trace:
        for metric, unit in LAYER_UNITS.items():
            print(f"  {metric:<46} {result['layers'][metric]:>14.6g} {unit}")
    else:
        print(f"  {'metric':<12} {'unit':<5} {'median':>10} {'tail':>14} {'iqr/median':>11} "
              f"{'n':>4} {'raw median':>11}")
        for metric, unit in END_TO_END_UNITS.items():
            s = result["summary"][metric]
            tail = f"{s['tail']}={s['tail_value']:.4g}" if s["tail"] else "-"
            iqr = f"{s['iqr_over_median']:.4f}" if s["iqr_over_median"] is not None else "-"
            raw = result["raw_median"].get(metric)
            raw = "-" if raw is None else f"{raw:.5g}"
            print(f"  {metric:<12} {unit:<5} {s['median']:>10.5g} {tail:>14} {iqr:>11} "
                  f"{s['n']:>4} {raw:>11}")
        print(f"  probe median {result['raw_median']['probe_s']:.4g} s "
              f"(times above are scaled to a probe of {PROBE_REF_S} s)")
    print(f"  runs: {result['failed']} failed of {result['attempted']} attempted")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def metrics_of(result: dict, trace: bool) -> dict:
    if trace:
        return {k: {"value": result["layers"][k], "unit": u} for k, u in LAYER_UNITS.items()}
    return {k: {"value": result["summary"][k]["median"], "unit": u}
            for k, u in END_TO_END_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lptorus" / "__init__.py").is_file():
        print(f"error: no lptorus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    env = environment(args.seed, args.seconds)
    print("env " + json.dumps(env))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, metrics = [], {}
    for name in names:
        start = START if name == names[0] else time.monotonic()
        workdir = ROOT / ".bench_work" / f"{name}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            result = measure(name, args.seed, args.seconds, trace, workdir, start)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        result["env"] = env
        (workdir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
        print_result(result, trace)
        results.append(result)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in metrics_of(result, trace).items()})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
