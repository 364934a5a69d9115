"""Span tracing of the lptorus layers, applied from outside the package.

``Tracer.installed()`` rebinds each traced function to a timing wrapper in
every ``lptorus`` module that holds it (``lptorus.solver.block_time_lp`` and
``lptorus.besov.block_time_lp`` are the same object, so both are rebound),
plus the transforms of ``numpy.fft``.  Nothing under ``src/`` changes, and
leaving the context restores the originals.

A span is ``[name, start, end, parent, run, extra]``; ``parent`` is the index
of the enclosing span (-1 at the top) and ``run`` the run id the tracer
carried when the span opened.  Spans stay in memory until ``dump`` writes
them out.  A *marker* span is recorded but never becomes a parent: the spans
opened inside it attach to its own parent.  ``solver._fixed_point_map`` is a
marker, so Picard iterations can be counted and timed while the Duhamel and
nonlinear-source work it does stays in ``picard_solve``'s self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time

FFT_TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


def _fft_points(args, kwargs, out):
    """Logical transform size: the larger of the input and output arrays."""
    a = args[0] if args else kwargs["a"]
    return max(getattr(a, "size", 0), out.size)


def _comb_argument(args, kwargs, out):
    """The reduced argument a kernel quadrature evaluates (kernel, omega / 2^q)."""
    omega, q = args[0], args[1] if len(args) > 1 else kwargs["q"]
    if q <= -2:
        return None
    return ("chi", omega) if q == -1 else ("phi", omega / 2.0**q)


# (span name, module, attribute, extra recorder, marker)
TRACED = (
    ("spectral.from_spectral", "lptorus.spectral", "Field.from_spectral", None, False),
    ("spectral.dealias_multiply", "lptorus.spectral", "dealias_multiply", None, False),
    ("spectral.heat_stack", "lptorus.spectral", "heat_stack", None, False),
    ("spectral.project_divergence_free", "lptorus.spectral", "project_divergence_free", None, False),
    ("dyadic.block_weights", "lptorus.dyadic", "block_weights", None, False),
    ("dyadic.dyadic_block", "lptorus.dyadic", "dyadic_block", None, False),
    ("dyadic.partial_sum", "lptorus.dyadic", "partial_sum", None, False),
    ("cutoffs.chi", "lptorus.cutoffs", "CutoffPair.chi", None, False),
    ("besov.block_time_lp", "lptorus.besov", "block_time_lp", None, False),
    ("besov.block_lp_norms", "lptorus.besov", "block_lp_norms", None, False),
    ("besov.lp_norm", "lptorus.besov", "lp_norm", None, False),
    ("besov.chemin_lerner_norm", "lptorus.besov", "chemin_lerner_norm", None, False),
    ("paraproduct.bony_decompose", "lptorus.paraproduct", "bony_decompose", None, False),
    ("paraproduct.paraproduct_T", "lptorus.paraproduct", "paraproduct_T", None, False),
    ("paraproduct.remainder_R", "lptorus.paraproduct", "remainder_R", None, False),
    ("paraproduct.bilinear_constant_estimate", "lptorus.paraproduct", "bilinear_constant_estimate", None, False),
    ("solver.measure_operator_constants", "lptorus.solver", "measure_operator_constants", None, False),
    ("solver.smallness_certificate", "lptorus.solver", "smallness_certificate", None, False),
    ("solver.picard_solve", "lptorus.solver", "picard_solve", None, False),
    ("solver.fixed_point_map", "lptorus.solver", "_fixed_point_map", None, True),
    ("solver.residual_check", "lptorus.solver", "residual_check", None, False),
    ("solver.oracle_compare", "lptorus.solver", "oracle_compare", None, False),
    ("solver.velocity_norm", "lptorus.solver", "velocity_norm", None, False),
    ("solver.scalar_norm", "lptorus.solver", "scalar_norm", None, False),
    ("comb.kernel_multiplier", "lptorus.comb", "kernel_multiplier", _comb_argument, False),
    ("comb.kernel_table", "lptorus.comb", "_kernel_table", None, False),
    ("comb.dirac_comb_norms", "lptorus.comb", "dirac_comb_norms", None, False),
    ("ensembles.random_field", "lptorus.ensembles", "random_field", None, False),
    ("suites.bony_suite", "lptorus.suites", "bony_suite", None, False),
    ("suites.bilinear_suite", "lptorus.suites", "bilinear_suite", None, False),
    ("suites.comb_suite", "lptorus.suites", "comb_suite", None, False),
    ("cli.main", "lptorus.cli", "main", None, False),
) + tuple(("spectral.fft", "numpy.fft", n, _fft_points, False) for n in FFT_TRANSFORMS)


class Tracer:
    """Collects spans from the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack = [-1]
        self._restore: list[tuple] = []

    def wrap(self, name, fn, extra=None, marker=False):
        """Timing wrapper around ``fn`` that records one span per call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], self.run, None]
            if not marker:
                stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                if not marker:
                    stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, module, attr, extra, marker in TRACED:
            owner = importlib.import_module(module)
            head, _, method = attr.rpartition(".")
            if head:  # a method: rebind it on its class
                cls = getattr(owner, head)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, extra, marker))
                else:
                    new = self.wrap(name, raw, extra, marker)
                self._restore.append((cls, method, raw))
                setattr(cls, method, new)
                continue
            orig = getattr(owner, attr)
            new = self.wrap(name, orig, extra, marker)
            holders = [owner] + [
                m for key, m in list(sys.modules.items())
                if (key == "lptorus" or key.startswith("lptorus.")) and m is not owner
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._restore.append((holder, key, orig))
                        setattr(holder, key, new)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._restore):
            setattr(holder, key, orig)
        self._restore.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def run_spans(self, run: int) -> list[list]:
        """Spans of one run, with parents re-indexed into the returned list."""
        index = {}
        out = []
        for i, span in enumerate(self.spans):
            if span[4] == run:
                index[i] = len(out)
                out.append(span)
        return [
            [s[0], s[1], s[2], index.get(s[3], -1), s[4], s[5]] for s in out
        ]

    def dump(self, path, runs: dict) -> None:
        """Write every span, plus the run id -> run kind table, as JSON."""
        extra = lambda v: list(v) if isinstance(v, tuple) else v  # noqa: E731
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "run", "extra"],
                    "runs": {str(k): v for k, v in runs.items()},
                    "spans": [s[:5] + [extra(s[5])] for s in self.spans],
                },
                fh,
            )


# ---------------------------------------------------------------------------
# span arithmetic


MARKERS = frozenset(name for name, _, _, _, marker in TRACED if marker)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Marker spans cover nothing: the work inside them is their parent's.
    """
    children = [[] for _ in spans]
    for span in spans:
        if span[3] >= 0 and span[0] not in MARKERS:
            children[span[3]].append((span[1], span[2]))
    out = []
    for span, kids in zip(spans, children):
        start, end = span[1], span[2]
        covered, reach = 0.0, start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def outermost_time(spans, names) -> float:
    """Total duration of spans named in ``names`` not nested in another such span."""
    names = set(names)
    total = 0.0
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total


def _calls(spans, name) -> int:
    return sum(1 for s in spans if s[0] == name)


def _self_time(spans, selfs, prefix) -> float:
    return sum((t for s, t in zip(spans, selfs) if s[0].startswith(prefix)), 0.0)


def picard_iterations(spans) -> list[float]:
    """Wall time of each Picard iteration.

    An iteration runs from one fixed-point-map call inside ``picard_solve`` to
    the next; the last one ends where the residual check (or the solve)
    starts.
    """
    out = []
    for i, span in enumerate(spans):
        if span[0] != "solver.picard_solve":
            continue
        marks = [s[1] for s in spans if s[3] == i and s[0] == "solver.fixed_point_map"]
        tail = [s[1] for s in spans if s[3] == i and s[0] == "solver.residual_check"]
        bounds = marks + [tail[0] if tail else span[2]]
        out += [b - a for a, b in zip(bounds, bounds[1:])]
    return out


# per-layer metric -> unit; "cold" metrics are read from the first run in a
# fresh process, every other one from a warm run
LAYER_UNITS = {
    "spectral.from_spectral.calls": "count",
    "spectral.from_spectral.s": "s",
    "spectral.fft.calls": "count",
    "spectral.fft.s": "s",
    "spectral.fft.points": "count",
    "spectral.dealias_multiply.calls": "count",
    "spectral.dealias_multiply.s": "s",
    "spectral.heat_stack.s": "s",
    "spectral.project_divergence_free.s": "s",
    "dyadic.block_weights.calls": "count",
    "dyadic.blocks.s": "s",
    "cutoffs.chi.calls": "count",
    "cutoffs.chi.s": "s",
    "besov.block_time_lp.calls": "count",
    "besov.block_time_lp.s": "s",
    "besov.block_lp_norms.calls": "count",
    "besov.block_lp_norms.s": "s",
    "besov.lp_norm.calls": "count",
    "besov.lp_norm.s": "s",
    "besov.chemin_lerner_norm.calls": "count",
    "besov.chemin_lerner_norm.s": "s",
    "paraproduct.bony_decompose.s": "s",
    "paraproduct.paraproduct_T.s": "s",
    "paraproduct.remainder_R.s": "s",
    "paraproduct.bilinear_constant_estimate.self_s": "s",
    "solver.measure_operator_constants.s": "s",
    "solver.smallness_certificate.self_s": "s",
    "solver.picard_solve.self_s": "s",
    "solver.picard.iterations": "count",
    "solver.picard.iter_s": "s",
    "solver.residual_check.s": "s",
    "solver.oracle_compare.s": "s",
    "solver.velocity_norm.calls": "count",
    "solver.velocity_norm.s": "s",
    "solver.scalar_norm.calls": "count",
    "solver.scalar_norm.s": "s",
    "comb.kernel_multiplier.calls": "count",
    "comb.kernel_multiplier.s": "s",
    "comb.kernel_multiplier.distinct": "count",
    "comb.kernel_multiplier.useful_ratio": "ratio",
    "comb.kernel_table.s": "s",
    "comb.dirac_comb_norms.self_s": "s",
    "ensembles.random_field.calls": "count",
    "ensembles.random_field.s": "s",
    "suites.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}
COLD_METRICS = ("cutoffs.chi.calls", "cutoffs.chi.s", "comb.kernel_table.s")


def layer_metrics(spans) -> dict:
    """Every per-layer metric of one traced run; untouched layers read 0."""
    selfs = self_times(spans)
    out = {}
    for metric in LAYER_UNITS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = _calls(spans, layer)
        elif kind == "s":
            out[metric] = outermost_time(spans, [layer])
    out["dyadic.blocks.s"] = outermost_time(spans, ["dyadic.dyadic_block", "dyadic.partial_sum"])
    out["spectral.fft.points"] = sum(s[5] for s in spans if s[0] == "spectral.fft")
    for metric in (
        "paraproduct.bilinear_constant_estimate.self_s",
        "solver.smallness_certificate.self_s",
        "solver.picard_solve.self_s",
        "comb.dirac_comb_norms.self_s",
    ):
        out[metric] = _self_time(spans, selfs, metric[: -len(".self_s")])
    out["suites.self_s"] = _self_time(spans, selfs, "suites.")
    out["cli.self_s"] = _self_time(spans, selfs, "cli.")
    iters = picard_iterations(spans)
    out["solver.picard.iterations"] = len(iters)
    out["solver.picard.iter_s"] = sum(iters) / len(iters) if iters else 0.0
    keys = {s[5] for s in spans if s[0] == "comb.kernel_multiplier" and s[5] is not None}
    calls = out["comb.kernel_multiplier.calls"]
    out["comb.kernel_multiplier.distinct"] = len(keys)
    out["comb.kernel_multiplier.useful_ratio"] = len(keys) / calls if calls else 0.0
    # the first call in the run (which builds the table) minus a cached call
    tables = [s[2] - s[1] for s in spans if s[0] == "comb.kernel_table"]
    cached = statistics.median(tables[1:]) if len(tables) > 1 else 0.0
    out["comb.kernel_table.s"] = tables[0] - cached if tables else 0.0
    return out
