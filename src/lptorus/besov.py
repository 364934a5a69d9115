"""Lebesgue, Besov, time-integrated and weighted heat-trace norms.

The Besov norm with regularity s, integrability p, summation exponent r and
logarithmic weight alpha is

    ( sum_{q >= -1} [ 2^{qs} (3+q)^alpha ||block_q f||_p ]^r )^{1/r},

with sup over q when r = inf.  The time-integrated (Chemin-Lerner) variant
takes the L^rho(0, T; L^p) norm of each block *before* summing over shells;
the plain Lebesgue-in-time variant integrates the full Besov norm instead,
and the two are ordered by Minkowski's inequality according to r vs rho.

The weighted Kato norm sup_t t^{1/2} |ln(t/e^2)|^sigma ||.||_p is the
smallness quantity of the log-modified regime, and of the free heat
evolution e^{tD}f over (0, 1] (``heat_characterization_norm``) it is
equivalent, within a fixed constant, to the norm of f in B^{-1,sigma}_{p,inf}.
``MixedSpec`` is the intersection B^s_{p,1} ^ B^{s,1}_{p,inf}; every norm
taking a ``BesovSpec`` takes one too.

Lebesgue exponents live in [1, inf]; pass ``float("inf")`` (or ``math.inf``)
for the sup variants.  All quadratures are trapezoidal on the trajectory's
own time grid (log-uniform grids resolve the t -> 0 weights).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cutoffs import CutoffPair, build_cutoffs
from .dyadic import block_weights, shell_max
from .spectral import Field, Grid, heat_stack, values_from_half

INF = float("inf")


def _check_exponent(name: str, value: float) -> float:
    value = float(value)
    if not value >= 1.0:
        raise ValueError(f"{name} must lie in [1, inf], got {value}")
    return value


def _check_regularity(s: float) -> None:
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")


@dataclass(frozen=True)
class BesovSpec:
    """Norm parameters (s, p, r, alpha); alpha is the log-weight exponent."""

    s: float
    p: float
    r: float
    alpha: float = 0.0

    def __post_init__(self):
        _check_regularity(self.s)
        _check_exponent("p", self.p)
        _check_exponent("r", self.r)
        if not 0 <= self.alpha < INF:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")

    def weights(self, qs: np.ndarray) -> np.ndarray:
        return 2.0 ** (qs * self.s) * (3.0 + qs) ** self.alpha

    def reduce(self, per_block: np.ndarray) -> float:
        """The norm from block norms q = -1, 0, ... (``block_lp_norms`` of a field)."""
        qs = np.arange(-1, per_block.shape[0] - 1)
        return sequence_norm(self.weights(qs) * per_block, self.r)


@dataclass(frozen=True)
class MixedSpec:
    """The intersection B^s_{p,1} ^ B^{s,1}_{p,inf}, normed by the sum."""

    s: float
    p: float

    def __post_init__(self):
        _check_regularity(self.s)
        _check_exponent("p", self.p)

    def reduce(self, per_block: np.ndarray) -> float:
        """The norm from block norms q = -1, 0, ...; bit for bit the sum of
        the two member norms."""
        qs = np.arange(-1, per_block.shape[0] - 1)
        lift = 2.0 ** (qs * self.s)
        return float(np.sum(lift * per_block) + np.max(lift * (3.0 + qs) * per_block))


def _lp_norms(values: np.ndarray, grid: Grid, p: float) -> np.ndarray:
    """``lp_norm`` of each sample of a physical stack (..., m, N, ..., N)."""
    p = _check_exponent("p", p)
    cax, axes = -grid.dim - 1, tuple(range(-grid.dim, 0))
    if values.shape[cax] == 1:
        mag = np.squeeze(np.abs(values), axis=cax)
    elif p == INF:  # sqrt is monotone and correctly rounded: one per sample
        return np.sqrt(np.max(np.sum(values**2, axis=cax), axis=axes))
    else:
        mag = np.sqrt(np.sum(values**2, axis=cax))
    if p == INF:
        return np.max(mag, axis=axes)
    return (grid.cell_volume * np.sum(mag**p, axis=axes)) ** (1.0 / p)


def lp_norm(f: Field, p: float) -> float:
    """Rectangle-rule L^p norm; the max over samples when p = inf.

    Multi-component fields are measured through their pointwise Euclidean
    magnitude.
    """
    return float(_lp_norms(f.values, f.grid, p))


def sequence_norm(values: np.ndarray, r: float) -> float:
    """l^r norm of a nonnegative sequence (sup when r = inf)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    if r == INF:
        return float(np.max(values))
    return float(np.sum(values**r) ** (1.0 / r))


@lru_cache(maxsize=None)
def _shell_columns(grid: Grid, q: int, cut: CutoffPair) -> int:
    """Half-lattice columns of block q up to the last one holding a nonzero
    weight (at least one)."""
    w = block_weights(grid, q, cut)
    used = np.flatnonzero(np.any(w != 0, axis=tuple(range(grid.dim - 1))))
    return int(used[-1]) + 1 if used.size else 1


def _block_table(
    half: np.ndarray, grid: Grid, p: float, cutoffs: CutoffPair | None
) -> np.ndarray:
    """||block_q f||_p for q = -1..shell_max and each sample of a stack.

    ``half`` is a half-spectrum stack (..., m, N, ..., N/2+1); the result is
    (shells, ...).  The block weights are even in k, so each shell is one
    pruned c2r of the half times the weights' half, both cut to the columns
    the shell occupies; a sample with a non-finite entry in a dropped column
    reads NaN there, as 0 * nan and 0 * inf would make it.
    """
    cut = cutoffs or build_cutoffs()
    qm = shell_max(grid, cut)
    out = np.empty((qm + 2,) + half.shape[: -grid.dim - 1])
    # the last column holding a non-finite entry, per sample (-1: none)
    bad = ~np.all(np.isfinite(half), axis=tuple(range(-grid.dim - 1, -1)))
    last = np.max(np.where(bad, np.arange(half.shape[-1]), -1), axis=-1)
    for q in range(-1, qm + 1):
        c = _shell_columns(grid, q, cut)
        w = block_weights(grid, q, cut)[..., :c]
        norms = _lp_norms(values_from_half(half[..., :c] * w, grid), grid, p)
        out[q + 1] = np.where(last < c, norms, np.nan)
    return out


def block_lp_norms(
    f: Field, p: float, cutoffs: CutoffPair | None = None
) -> np.ndarray:
    """||block_q f||_p for q = -1..shell_max, as one vector."""
    return _block_table(f.spectral, f.grid, p, cutoffs)


def besov_norm(
    f: Field, spec: BesovSpec | MixedSpec, cutoffs: CutoffPair | None = None
) -> float:
    """Besov norm of a band-limited field (shells -1..shell_max)."""
    return spec.reduce(block_lp_norms(f, spec.p, cutoffs))


# ---------------------------------------------------------------------------
# trajectories and time-integrated norms


class FieldTrajectory:
    """Time-sampled real field on one grid; times increase within [0, T].

    The data is one stack ``half`` of shape (samples, m, N, ..., N/2+1): the
    ``spectral`` half spectra of the samples (:class:`~lptorus.spectral.Field`).
    ``FieldTrajectory(times, fields)`` stacks them; :meth:`from_half` wraps
    a stack as it is.  ``fields`` builds the per-sample ``Field`` objects on
    first use only.

    The initial sample t = 0 is allowed (the Duhamel quadrature needs it);
    norms that weight by negative powers of t reject trajectories containing
    it.
    """

    __slots__ = ("grid", "times", "half", "T", "_fields")

    def __init__(self, times, fields, T: float = 0.0):
        self._fields = tuple(fields)
        if not self._fields:
            raise ValueError("need one field per time and at least one sample")
        grid = self._fields[0].grid
        if any(f.grid != grid for f in self._fields):
            raise ValueError("all fields must share one grid")
        self._init(grid, times, np.stack([f.spectral for f in self._fields]), T)

    @classmethod
    def from_half(
        cls, grid: Grid, times, half: np.ndarray, T: float = 0.0
    ) -> "FieldTrajectory":
        """Trajectory whose sample i has the half spectrum half[i]."""
        traj = cls.__new__(cls)
        traj._fields = None
        traj._init(grid, times, half, T)
        return traj

    def _init(self, grid: Grid, times, half: np.ndarray, T: float) -> None:
        times = np.asarray(times, dtype=float)
        half = np.asarray(half, dtype=np.complex128).view()
        half.setflags(write=False)
        if times.ndim != 1 or times.size == 0 or half.shape[:1] != times.shape:
            raise ValueError("need one field per time and at least one sample")
        if half.ndim != grid.dim + 2 or half.shape[2:] != grid.half_shape:
            raise ValueError(f"half-spectrum shape {half.shape} does not match grid")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if times[0] < 0:
            raise ValueError("times must be >= 0")
        horizon = float(T) if T else float(times[-1])
        if times[-1] > horizon * (1 + 1e-12):
            raise ValueError("times exceed the horizon T")
        self.grid, self.times, self.half, self.T = grid, times, half, horizon

    @property
    def fields(self) -> tuple[Field, ...]:
        if self._fields is None:
            self._fields = tuple(Field.from_spectral(self.grid, h) for h in self.half)
        return self._fields

    @property
    def components(self) -> int:
        return self.half.shape[1]

    def restrict_positive(self) -> "FieldTrajectory":
        if self.times[0] > 0:
            return self
        if self.times.size == 1:
            raise ValueError("trajectory has no positive sample times")
        return FieldTrajectory.from_half(
            self.grid, self.times[1:], self.half[1:], self.T
        )


def heat_trajectory(f: Field, times) -> FieldTrajectory:
    """Free heat evolution of ``f`` sampled at ``times``."""
    half = heat_stack(f.spectral, f.grid, times)
    return FieldTrajectory.from_half(f.grid, times, half)


def _trapezoid(values: np.ndarray, xs: np.ndarray) -> float:
    return float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(xs)))


def time_norm(values: np.ndarray, times: np.ndarray, rho: float) -> float:
    """L^rho norm over the sampled interval (trapezoid; max when rho = inf)."""
    rho = _check_exponent("rho", rho)
    values = np.asarray(values, dtype=float)
    if rho == INF:
        return float(np.max(values))
    return float(_trapezoid(values**rho, times) ** (1.0 / rho))


def block_time_lp(
    traj: FieldTrajectory, p: float, cutoffs: CutoffPair | None = None
) -> np.ndarray:
    """Matrix ||block_q f(t_i)||_p with shape (shells, samples).

    Reads the trajectory's half stack, one pruned c2r per shell (on the
    columns the shell occupies) batched over all samples; no ``Field``.
    """
    return _block_table(traj.half, traj.grid, p, cutoffs)


def time_block_norms(matrix: np.ndarray, times: np.ndarray, rho: float) -> np.ndarray:
    """||block_q||_{L^rho_T L^p} for every row of a ``block_time_lp`` matrix."""
    return np.array([time_norm(row, times, rho) for row in matrix])


def chemin_lerner_reduce(
    matrix: np.ndarray, times: np.ndarray, rho: float, spec: BesovSpec | MixedSpec
) -> float:
    """``chemin_lerner_norm`` from its ``block_time_lp`` matrix at p = spec.p."""
    return spec.reduce(time_block_norms(matrix, times, rho))


def lebesgue_besov_reduce(
    matrix: np.ndarray, times: np.ndarray, rho: float, spec: BesovSpec
) -> float:
    """``lebesgue_besov_norm`` from its ``block_time_lp`` matrix at p = spec.p."""
    per_time = np.array([spec.reduce(col) for col in matrix.T])
    return time_norm(per_time, times, rho)


def chemin_lerner_norm(
    traj: FieldTrajectory,
    rho: float,
    spec: BesovSpec | MixedSpec,
    cutoffs: CutoffPair | None = None,
) -> float:
    """Time-inside-shells norm: the spec's reduction of ||block_q||_{L^rho_T L^p}."""
    return chemin_lerner_reduce(
        block_time_lp(traj, spec.p, cutoffs), traj.times, rho, spec
    )


def lebesgue_besov_norm(
    traj: FieldTrajectory,
    rho: float,
    spec: BesovSpec,
    cutoffs: CutoffPair | None = None,
) -> float:
    """Shells-inside-time norm: L^rho_T of the pointwise-in-time Besov norm."""
    return lebesgue_besov_reduce(
        block_time_lp(traj, spec.p, cutoffs), traj.times, rho, spec
    )


def log_weight(t, sigma: float):
    """|ln(t / e^2)|^sigma, the logarithmic Kato weight."""
    return np.abs(np.log(t) - 2.0) ** sigma


def kato_weighted_norm(
    traj: FieldTrajectory, sigma: float, p: float
) -> float:
    """sup over samples of t^{1/2} |ln(t/e^2)|^sigma ||f(t)||_p.

    Requires every sample time in (0, T] with T <= 1; a t = 0 sample is
    rejected because the weight is only defined there by a limit.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if traj.times[0] <= 0:
        raise ValueError("weighted norm requires all sample times > 0")
    if traj.T > 1 + 1e-12:
        raise ValueError(f"weighted norm requires T <= 1, got T = {traj.T}")
    t = traj.times
    weights = np.sqrt(t) * log_weight(t, sigma)
    norms = _lp_norms(values_from_half(traj.half, traj.grid), traj.grid, p)
    return float(np.max(weights * norms))


def log_time_grid(
    t_min: float = 1e-6, t_max: float = 1.0, per_decade: int = 64
) -> np.ndarray:
    """Log-uniform grid on [t_min, t_max], ``per_decade`` points per decade."""
    decades = math.log10(t_max / t_min)
    count = max(2, int(round(decades * per_decade)) + 1)
    return np.geomspace(t_min, t_max, count)


def heat_characterization_norm(
    f: Field, sigma: float, p: float, times: np.ndarray | None = None
) -> float:
    """``kato_weighted_norm`` of the heat evolution of ``f`` on ``times``
    (default ``log_time_grid()``) inside (0, 1]: the heat trace of the
    B^{-1,sigma}_{p,inf} norm."""
    times = log_time_grid() if times is None else np.asarray(times, dtype=float)
    return kato_weighted_norm(heat_trajectory(f, times), sigma, p)


def characterization_ratio(
    f: Field,
    sigma: float,
    p: float,
    times: np.ndarray | None = None,
    cutoffs: CutoffPair | None = None,
) -> float:
    """heat-trace norm / B^{-1,sigma}_{p,inf} norm of one field (the
    equivalence ratio)."""
    num = heat_characterization_norm(f, sigma, p, times)
    den = besov_norm(f, BesovSpec(-1, p, INF, sigma), cutoffs)
    if den == 0:
        return 0.0 if num == 0 else INF
    return num / den


# ---------------------------------------------------------------------------
# band-limited (Bernstein) derivative/exponent conversion checks


def _multi_indices(dim: int, order: int):
    if dim == 1:
        yield (order,)
        return
    for head in range(order + 1):
        for tail in _multi_indices(dim - 1, order - head):
            yield (head,) + tail


def _derivative(f: Field, alpha: tuple[int, ...]) -> Field:
    grid = f.grid
    mult = np.ones(grid.half_shape, dtype=complex)
    for axis, power in enumerate(alpha):
        if power:
            mult = mult * (1j * grid.k_mesh_deriv[axis]) ** power
    return Field.from_spectral(grid, f.spectral * mult)


def bernstein_check(
    f: Field,
    a: float,
    b: float,
    order: int,
    scale: float,
    support: str = "ball",
    radii: tuple[float, float] = (0.75, 8.0 / 3.0),
) -> dict:
    """Ratio of sup_{|alpha| = order} ||d^alpha f||_b to its band-limited bound.

    ``support`` declares where the spectrum of ``f`` is supposed to live:
    the ball |k| <= radii[0] * scale or the shell radii[0] * scale <= |k| <=
    radii[1] * scale.  The input is validated against that region.  For the
    ball the bound is scale^{order + n(1/a - 1/b)} ||f||_a; for the shell the
    same quantity with a = b is two-sided.
    """
    a = _check_exponent("a", a)
    b = _check_exponent("b", b)
    if b < a:
        raise ValueError("need a <= b")
    grid = f.grid
    r1, r2 = radii
    if support == "ball":
        bad = grid.k_abs > r1 * scale * (1 + 1e-9)
    elif support == "shell":
        if a != b:
            raise ValueError("the shell (two-sided) case uses a single exponent")
        bad = (grid.k_abs < r1 * scale * (1 - 1e-9)) | (
            grid.k_abs > r2 * scale * (1 + 1e-9)
        )
    else:
        raise ValueError(f"unknown support {support!r}")
    leak = float(np.max(np.abs(f.spectral[..., bad]))) if np.any(bad) else 0.0
    base = float(np.max(np.abs(f.spectral)))
    if leak > 1e-10 * max(base, 1e-300):
        raise ValueError(f"spectrum leaks outside the stated {support}")
    inv_a = 0.0 if a == INF else 1.0 / a
    inv_b = 0.0 if b == INF else 1.0 / b
    denom = scale ** (order + grid.dim * (inv_a - inv_b)) * lp_norm(f, a)
    numer = max(
        lp_norm(_derivative(f, alpha), b) for alpha in _multi_indices(grid.dim, order)
    )
    return {
        "support": support,
        "scale": scale,
        "order": order,
        "ratio": numer / denom if denom > 0 else 0.0,
    }


def embedding_report(
    fields,
    s: float = -1.0,
    eps: float = 0.5,
    p: float = 2.0,
    r_tilde: float = 2.0,
    cutoffs: CutoffPair | None = None,
) -> dict:
    """Empirical constants for the sup-norm sandwich and the shift chain.

    Records, over the given fields, the largest constants in

        ||f||_{B^0_{inf,inf}} <= C ||f||_inf <= C ||f||_{B^0_{inf,1}}
        ||f||_{B^{s,1}_{p,inf}} <= C ||f||_{B^{s+eps}_{p,inf}}
        ||f||_{B^s_{p,r}}       <= C ||f||_{B^{s,1}_{p,inf}}
    """

    consts = dict.fromkeys(
        ("weak_vs_sup", "sup_vs_strong", "log_vs_shift", "summed_vs_log"), 0.0
    )
    for f in fields:
        sup = lp_norm(f, INF)
        sup_blocks = block_lp_norms(f, INF, cutoffs)
        p_blocks = sup_blocks if p == INF else block_lp_norms(f, p, cutoffs)
        log_p = BesovSpec(s, p, INF, 1.0).reduce(p_blocks)
        for key, num, den in (
            ("weak_vs_sup", BesovSpec(0, INF, INF).reduce(sup_blocks), sup),
            ("sup_vs_strong", sup, BesovSpec(0, INF, 1).reduce(sup_blocks)),
            ("log_vs_shift", log_p, BesovSpec(s + eps, p, INF).reduce(p_blocks)),
            ("summed_vs_log", BesovSpec(s, p, r_tilde).reduce(p_blocks), log_p),
        ):
            consts[key] = max(consts[key], num / den if den > 0 else 0.0)
    return consts
