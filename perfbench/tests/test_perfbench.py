"""Tests of the benchmark's own machinery: the tracer and its metrics.

The ``lp`` runs here are scaled-down versions of the benchmark workloads, so
the file runs in seconds.
"""

import contextlib
import io
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import lptorus  # noqa: E402
import lptorus.cli  # noqa: E402
from lptorus import Grid, random_field  # noqa: E402
from lptorus.besov import FieldTrajectory, block_time_lp  # noqa: E402
from lptorus.spectral import Field, heat_stack  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _small_argvs(tmp: Path) -> dict:
    u0, theta0 = workloads.solve_inputs(3, tmp)
    return {
        "solve": ["solve", "--u0", str(u0), "--theta0", str(theta0), "--T", "0.5",
                  "--M", "8", "--regime", "thm1.2", "--oracle", "--oracle-refine", "2",
                  "--seed", "3", "--report", str(tmp / "solve.json")],
        "bilinear": ["verify", "bilinear", "--lemma", "2.7", "--N", "16,32", "--trials", "1",
                     "--seed", "3", "--report", str(tmp / "bilinear.json")],
        "bony": ["verify", "bony", "--N", "32", "--trials", "2", "--seed", "3",
                 "--report", str(tmp / "bony.json")],
    }


def _lp(argv) -> bytes:
    with contextlib.redirect_stdout(io.StringIO()):
        assert lptorus.cli.main(argv) == 0
    return Path(argv[argv.index("--report") + 1]).read_bytes()


def _bindings() -> dict:
    """Every attribute of the lptorus modules and traced classes, by identity."""
    out = {}
    for key, module in sorted(sys.modules.items()):
        if key == "lptorus" or key.startswith("lptorus."):
            out.update({(key, k): id(v) for k, v in vars(module).items()})
    out.update({("Field", k): id(v) for k, v in vars(Field).items()})
    out.update({("CutoffPair", k): id(v) for k, v in vars(lptorus.CutoffPair).items()})
    out.update({("numpy.fft", k): id(getattr(np.fft, k)) for k in tracer.FFT_TRANSFORMS})
    return out


def test_wrapped_functions_return_bit_identical_output():
    grid = Grid(2, 16)
    rng = np.random.default_rng(5)
    f = random_field(grid, rng, components=2)
    g = random_field(grid, rng)
    times = np.linspace(0.0, 1.0, 5)

    def outputs():
        traj = FieldTrajectory(times, [Field.from_spectral(grid, c)
                                       for c in heat_stack(f.spectral, grid, times)])
        return [
            Field.from_spectral(grid, f.spectral).values,
            lptorus.spectral.dealias_multiply(f.spectral, g.spectral, grid),
            np.fft.rfftn(f.values, axes=(-2, -1)),
            lptorus.besov.lp_norm(f, 3.0),
            lptorus.besov.block_time_lp(traj, np.inf),
            lptorus.solver.block_time_lp(traj, 2.0),
        ]

    before = _bindings()
    plain = outputs()
    spans = tracer.Tracer()
    with spans.installed():
        # rebound in each lptorus module that imported it, not in this one
        assert lptorus.solver.block_time_lp is lptorus.besov.block_time_lp
        assert lptorus.solver.block_time_lp is not block_time_lp
        traced = outputs()
    assert _bindings() == before
    for a, b in zip(plain, traced):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    names = {s[0] for s in spans.spans}
    assert {"spectral.from_spectral", "spectral.dealias_multiply", "spectral.fft",
            "besov.lp_norm", "besov.block_time_lp"} <= names
    assert sum(s[0] == "besov.block_time_lp" for s in spans.spans) == 2


def test_traced_and_untraced_reports_are_byte_identical(tmp_path):
    for name, argv in _small_argvs(tmp_path).items():
        plain = _lp(argv)
        with tracer.Tracer().installed():
            traced = _lp(argv)
        assert traced == plain, name


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["a", 0.0, 10.0, -1, 0, None],
        ["b", 1.0, 4.0, 0, 0, None],
        ["c", 2.0, 3.0, 1, 0, None],
        ["b", 5.0, 7.0, 0, 0, None],
        ["d", 8.0, 9.5, 0, 0, None],
        ["e", 20.0, 30.0, -1, 0, None],
        ["f", 21.0, 25.0, 5, 0, None],  # f and g overlap: the union counts once
        ["g", 24.0, 27.0, 5, 0, None],
    ]
    assert tracer.self_times(spans) == pytest.approx([3.5, 2.0, 1.0, 2.0, 1.5, 4.0, 4.0, 3.0])
    assert tracer.outermost_time(spans, ["b", "c"]) == pytest.approx(5.0)
    assert tracer.outermost_time(spans, ["c"]) == pytest.approx(1.0)


def test_picard_iterations_and_marker_spans():
    spans = [
        ["solver.picard_solve", 0.0, 10.0, -1, 0, None],
        ["solver.fixed_point_map", 1.0, 1.5, 0, 0, None],
        ["spectral.fft", 1.1, 1.2, 0, 0, 64],  # opened inside the marker
        ["solver.fixed_point_map", 3.0, 3.5, 0, 0, None],
        ["solver.fixed_point_map", 5.0, 5.5, 0, 0, None],
        ["solver.residual_check", 8.0, 9.0, 0, 0, None],
        ["solver.fixed_point_map", 8.1, 8.5, 5, 0, None],
    ]
    assert tracer.picard_iterations(spans) == pytest.approx([2.0, 2.0, 3.0])
    metrics = tracer.layer_metrics(spans)
    assert metrics["solver.picard.iterations"] == 3
    assert metrics["solver.picard.iter_s"] == pytest.approx(7.0 / 3)
    assert metrics["spectral.fft.points"] == 64
    # the marker is no parent: picard_solve loses only the fft and the check
    assert metrics["solver.picard_solve.self_s"] == pytest.approx(10.0 - 0.1 - 1.0)


def test_layer_metrics_cover_every_metric_and_read_zero_when_untouched():
    metrics = tracer.layer_metrics([["cli.main", 0.0, 1.0, -1, 0, None]])
    assert set(metrics) == set(tracer.LAYER_UNITS) - {"trace.overhead_frac"}
    assert metrics["cli.self_s"] == pytest.approx(1.0)
    assert all(v == 0 for k, v in metrics.items() if k != "cli.self_s")


def test_comb_argument_is_the_reduced_quadrature_argument():
    arg = tracer._comb_argument
    assert arg((8.0, 2), {}, 0.0) == arg((4.0, 1), {}, 0.0) == ("phi", 2.0)
    assert arg((2.0,), {"q": -1}, 0.0) == ("chi", 2.0)
    assert arg((2.0, -3), {}, 0.0) is None


def test_counts_repeat_exactly_across_two_traced_runs(tmp_path):
    for name, argv in _small_argvs(tmp_path).items():
        _lp(argv)  # fill the caches, as the benchmark's cold run does
        counts = []
        for _ in range(2):
            spans = tracer.Tracer()
            with spans.installed():
                _lp(argv)
            metrics = tracer.layer_metrics(spans.spans)
            counts.append({k: v for k, v in metrics.items()
                           if tracer.LAYER_UNITS[k] == "count"})
        assert counts[0] == counts[1], name
        assert counts[0]["spectral.fft.calls"] > 0
        if name == "solve":
            assert counts[0]["solver.picard.iterations"] >= 2


def test_reference_comparison():
    ref = {"lambda": 0.5, "iterations": 4, "oracle_error.max": 4e-5}
    assert workloads.compare({"lambda": 0.5 * (1 + 5e-13), "iterations": 4,
                              "oracle_error.max": 4e-5 + 5e-13}, ref) == []
    problems = workloads.compare({"lambda": 0.5 * (1 + 5e-12), "iterations": 5,
                                  "oracle_error.max": 4e-5 + 5e-12}, ref)
    assert len(problems) == 3
    assert workloads.compare({}, {"slope": 1.0}) == ["slope: missing (reference 1.0)"]


def test_probe_time_is_taken_out_of_the_measured_span():
    probe = child.Probe()

    class Busy:
        span = None

        def __call__(self):
            start = time.perf_counter()
            while time.perf_counter() - start < 0.35:
                pass
            self.span = start, time.perf_counter()

    busy = Busy()
    elapsed, mean_probe = probe.measure(busy)
    start, end = busy.span
    inside = [b - a for a, b in probe.ticks if start <= a < end]
    assert len(inside) >= 2  # one every PERIOD seconds inside the span
    assert elapsed == pytest.approx(end - start - sum(inside))
    assert len(probe.samples) == len(probe.ticks) + 2  # and one before, one after
    assert mean_probe == pytest.approx(statistics.fmean(probe.samples))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_times_are_scaled_to_the_reference_probe_time():
    ref = run.PROBE_REF_S
    children = [
        {"setup_s": 0.2, "cold_s": 2.0, "warm_s": [1.0],
         "probe_s": {"setup": 2 * ref, "cold": 4 * ref, "warm": ref}},
        {"setup_s": 0.3, "probe_s": {"setup": ref}},  # a set-up-only process
    ]
    out = run.at_reference_speed(children)
    assert out["setup_s"] == pytest.approx([0.1, 0.3])
    assert out["cold_s"] == pytest.approx([0.5])
    assert out["wall_s"] == pytest.approx([1.0])
