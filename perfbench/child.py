"""One fresh benchmark process: import lptorus, make the inputs, run ``lp``.

    python3 perfbench/child.py MODE WORKLOAD SEED DEADLINE WORKDIR

``run.py`` starts this once per sample of set-up time and of cold time, so
each of those is measured in a process that has imported nothing of lptorus
yet.  MODE is one of

    setup   time the import and the input generation, then exit;
    run     also time one cold run and then one warm run;
    trace   a traced cold run, then untraced and traced warm runs in turn
            until DEADLINE (a ``time.monotonic`` value), and the per-layer
            metrics of the traced runs.

``setup`` and ``run`` also give the host-speed probe's mean time
(``probe_s``) for each step they time: right after set-up, and inside each
run (see ``Probe``).

The last line of standard output is one JSON object with the measurements.
"""

import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import tracer  # noqa: E402  (standard library only; outside the timed set-up)

# setup_s: from here to the inputs being written, so it holds lptorus's import
# (numpy's with it) and the input generation, and no other benchmark work
T0 = time.perf_counter()

import lptorus.cli  # noqa: E402
import numpy as np  # noqa: E402  (already imported by lptorus)

import workloads  # noqa: E402


class Runner:
    """Runs the workload's ``lp`` command and checks every report it writes."""

    def __init__(self, workload: str, seed: int, argv: list[str], workdir: Path):
        self.workload, self.seed, self.argv = workload, seed, argv
        self.report = workdir / "report.json"
        self.reference = workloads.load_reference()
        self.pinned = workloads.pinned(workload, seed, self.reference) is not None
        self.digest = None
        self.span = None  # (start, end) of the last run
        self.attempted = 0
        self.problems: list[str] = []

    def __call__(self) -> float:
        """One timed ``lp`` invocation; returns its wall time in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = lptorus.cli.main(self.argv)
        except Exception as exc:  # a crash fails this run, not the benchmark
            code = repr(exc)
        self.span = start, time.perf_counter()
        elapsed = self.span[1] - start
        if code != 0:
            problems = [f"lp ended with {code}"]
        else:
            data = self.report.read_bytes()
            try:
                problems = workloads.check(self.workload, self.seed, json.loads(data),
                                           self.reference)
            except (KeyError, TypeError, ValueError) as exc:
                problems = [f"report lacks what the checks read: {exc!r}"]
            digest = hashlib.sha256(data).hexdigest()
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:  # criterion 9: reruns are byte-identical
                problems.append("report bytes differ from the first run's")
        if problems:
            self.problems.append(f"run {self.attempted}: " + "; ".join(problems))
        return elapsed

    @property
    def failed(self) -> int:
        return len(self.problems)


class Probe:
    """Times a fixed mix of small FFTs, elementwise numpy and interpreter work.

    It runs no lptorus code.  Each of the three parts takes about 1 ms; with
    equal shares the probe tracked the speed of all four workloads best among
    the mixes tried.

    The host's speed jumps between states up to 1.7x apart, from one tenth of
    a second to the next, so the speed of a measured span is sampled inside
    it: a SIGALRM handler runs the probe every ``PERIOD`` seconds.  ``run.py``
    divides the mean probe time out of the reported times.
    """

    PERIOD = 0.1

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((4, 2, 32, 32)) + 0j
        self.b = np.empty_like(self.a)
        self.c = rng.standard_normal((6, 2, 64, 64))
        self.d = np.empty_like(self.c)
        self.e = np.empty((6, 2))
        self.samples: list[float] = []
        self.ticks: list[tuple[float, float]] = []
        self.once()  # the first call builds the FFT plans

    def once(self) -> float:
        start = time.perf_counter()
        # into preallocated arrays, so the heap's state does not matter
        for _ in range(4):
            np.fft.fftn(self.a, axes=(-2, -1), out=self.b)
            np.fft.ifftn(self.b, axes=(-2, -1), out=self.b)
        for _ in range(20):
            np.abs(self.c, out=self.d)
            np.multiply(self.d, self.d, out=self.d)
            np.sum(self.d, axis=(-2, -1), out=self.e)
        squares = sum(v * v for v in range(4000))
        counts = {}
        for i in range(4000):
            counts[i % 97] = counts.get(i % 97, 0) + i + squares
        return time.perf_counter() - start

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(self.once())
        self.ticks.append((start, time.perf_counter()))

    def measure(self, run) -> tuple[float, float]:
        """``run()``'s time less the probes inside it, and the mean probe time."""
        self.samples, self.ticks = [self.once()], []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        try:
            run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        start, end = run.span
        inside = sum(b - a for a, b in self.ticks if start <= a < end)
        self.samples.append(self.once())
        return end - start - inside, statistics.fmean(self.samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_runs(run, deadline: float, workdir: Path, name: str) -> dict:
    """Traced cold run, then untraced and traced warm runs in turn."""
    spans = tracer.Tracer()
    kinds = {0: "cold"}
    with spans.installed():
        run()
    plain, traced, layers = [], [], []
    while True:
        plain.append(run())
        spans.run = len(kinds)
        kinds[spans.run] = "warm"
        with spans.installed():
            traced.append(run())
        layers.append(tracer.layer_metrics(spans.run_spans(spans.run)))
        if time.monotonic() + plain[-1] + traced[-1] > deadline:
            break
    cold = tracer.layer_metrics(spans.run_spans(0))
    metrics = {}
    for metric, unit in tracer.LAYER_UNITS.items():
        if metric == "trace.overhead_frac":
            continue
        if metric in tracer.COLD_METRICS:
            metrics[metric] = cold[metric]
        elif unit == "count":
            values = {row[metric] for row in layers}
            if len(values) > 1:
                run.problems.append(f"{metric} differs between traced runs: {sorted(values)}")
            metrics[metric] = layers[0][metric]
        else:
            metrics[metric] = statistics.median(row[metric] for row in layers)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    spans.dump(workdir.parent / f"spans-{name}.json", kinds)
    return {"warm_s": plain, "traced_s": traced, "layers": metrics}


def main(argv) -> int:
    mode, workload, seed, deadline, workdir = argv
    seed, deadline, workdir = int(seed), float(deadline), Path(workdir)
    if Path(lptorus.__file__).resolve().parent != (SRC / "lptorus").resolve():
        print(f"error: imported lptorus from {lptorus.__file__}", file=sys.stderr)
        return 2
    workdir.mkdir(parents=True, exist_ok=True)
    argv = workloads.prepare(workload, seed, workdir)
    out = {"setup_s": time.perf_counter() - T0}
    run = Runner(workload, seed, argv, workdir)
    if mode in ("setup", "run"):
        probe = Probe()
        out["probe_s"] = {"setup": statistics.fmean(probe.once() for _ in range(5))}
    if mode == "run":
        out["cold_s"], out["probe_s"]["cold"] = probe.measure(run)
        out["peak_rss_mb"] = peak_rss_mb()
        out["warm_s"], out["probe_s"]["warm"] = probe.measure(run)
        out["warm_s"] = [out["warm_s"]]
    elif mode == "trace":
        out.update(traced_runs(run, deadline, workdir, workdir.name))
    out.update(attempted=run.attempted, failed=run.failed, problems=run.problems[:5],
               digest=run.digest, pinned=run.pinned)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
