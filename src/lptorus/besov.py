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
from .spectral import (MATRIX_COLUMNS, Field, Grid, _c2r, _column_blocks, _fourier, _wavenumbers, heat_stack,
                       values_from_half)

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


# the least positive normal double
_NORMAL = np.finfo(float).tiny


def _power_mean(values, p: float, axes: tuple, total=np.sum, magnitude=None):
    """``total(m**p, axis=axes) ** (1/p)`` of each sample of a stack, its
    max over ``axes`` when p = inf, where m is ``magnitude(values)`` (the
    values themselves by default, then nonnegative, or of any sign at p = 2).
    The sample's axes are the trailing ones; ``total`` may weight the sum
    and ``magnitude`` must scale with the values.

    One unscaled pass.  A sample whose result is inf lost its power sum to
    overflow.  One whose result lies less than 2^64 above the e-th root of
    the normal range, e = p (max(p, 2) when ``magnitude`` squares), may have
    lost its p-th powers or squares to subnormal underflow, though the
    result itself is normal.  Either is measured again divided by the power
    of two above its largest |value|, which is exact, unless that is 0: an
    all-zero sample keeps its exact 0.0.  Every other result keeps the bits
    of the unscaled pass.
    """

    def power(v):
        mag = v if magnitude is None else magnitude(v)
        return np.max(mag, axis=axes) if p == INF else total(mag if p == 1 else mag**p, axis=axes)

    if p == INF:  # a max neither overflows nor underflows
        return power(values)
    with np.errstate(over="ignore"):
        out = power(values) ** (1.0 / p)
    floor = _NORMAL ** (1.0 / (p if magnitude is None else max(p, 2.0))) * 2.0**64
    redo = (out < floor) | (out == INF)
    if not redo.any():
        return out
    out, samples = np.array(out), values[redo]
    peak = np.max(np.abs(samples).reshape(len(samples), -1), axis=1)
    live = peak > 0  # an all-zero sample's result is already the exact 0.0
    if not live.any():
        return out
    if not live.all():  # several samples, so ``redo`` is an array
        redo[redo] = live
        samples, peak = samples[live], peak[live]
    scale = np.ldexp(1.0, np.frexp(peak)[1])  # the least power of two above
    shape = (-1,) + (1,) * (samples.ndim - 1)
    out[redo] = scale * power(samples / scale.reshape(shape)) ** (1.0 / p)  # terms <= 1
    return out


def _spatial(reduce, terms: np.ndarray, dim: int) -> np.ndarray:
    """``reduce`` over the trailing dim spatial axes of ``terms``, over the first
    of them alone first when it lies outermost in memory (``_block_table``'s
    (N, ..., N) values), where one pass over all would step through short rows."""
    if dim > 1 and abs(terms.strides[-dim]) > max(map(abs, terms.strides[:-dim]), default=np.inf):
        return reduce(reduce(terms, axis=-dim), axis=tuple(range(1 - dim, 0)))
    return reduce(terms, axis=tuple(range(-dim, 0)))


def _lp_norms(values: np.ndarray, grid: Grid, p: float) -> np.ndarray:
    """``lp_norm`` of each sample of a physical stack (..., m, N, ..., N)."""
    p = _check_exponent("p", p)
    dim = grid.dim
    cax, axes = -dim - 1, tuple(range(-dim, 0))

    def total(terms, axis):
        return grid.cell_volume * _spatial(np.sum, terms, dim)

    def components(terms):  # their sum, in place in the first component of a temporary
        first = terms[(..., 0) + (slice(None),) * dim]
        for k in range(1, terms.shape[cax]):
            first += terms[(..., k) + (slice(None),) * dim]
        return first

    def largest_square(terms, axis):  # an array, whose ** 0.5 is np.sqrt
        return np.asarray(_spatial(np.max, components(terms), dim))

    def euclidean(v):
        square = components(v**2)
        return np.sqrt(square, out=square)

    if values.shape[cax] == 1:
        values = np.squeeze(values, axis=cax)
        if p == INF:  # max |v| with no |v| temporary; + 0.0 reads -0.0 as +0.0
            return np.maximum(_spatial(np.max, values, dim), -_spatial(np.min, values, dim)) + 0.0
        return _power_mean(np.abs(values), p, axes, total)
    if p == INF:  # sqrt is monotone and correctly rounded: one per sample
        return _power_mean(values, 2.0, (cax,) + axes, largest_square)
    return _power_mean(values, p, axes, total, euclidean)


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
    return float(_power_mean(values, r, (-1,)))


@lru_cache(maxsize=None)
def _shell_columns(grid: Grid, q: int, cut: CutoffPair) -> int:
    """Half-lattice columns of block q up to the last one holding a nonzero
    weight (at least one)."""
    w = block_weights(grid, q, cut)
    used = np.flatnonzero(np.any(w != 0, axis=tuple(range(grid.dim - 1))))
    return int(used[-1]) + 1 if used.size else 1


@lru_cache(maxsize=None)
def _shell_rows(grid: Grid, q: int, cut: CutoffPair) -> tuple:
    """The first-axis rows |k_1| <= R of block q, R the largest |k_1| its
    weights touch, as the first ``head`` rows and those from ``tail`` on; the
    weights on them cut to the shell's columns; and the read-only complex
    (N, rows) inverse DFT basis (``norm="forward"``) of those rows."""
    n, w = grid.points, block_weights(grid, q, cut)[..., : _shell_columns(grid, q, cut)]
    k = _wavenumbers(n)
    reach = np.max(np.abs(k[np.any(w != 0, axis=tuple(range(1, grid.dim)))]), initial=0)
    head, tail = min(reach, n // 2 - 1) + 1, n - reach
    rows = np.r_[0:head, tail:n]
    basis = _fourier(n, k[rows])
    basis.setflags(write=False)
    return head, tail, w[rows], basis


def _block_table(
    half: np.ndarray, grid: Grid, p: float, cutoffs: CutoffPair | None = None
) -> np.ndarray:
    """||block_q f||_p for q = -1..shell_max and each sample of a stack.

    ``half`` is a half-spectrum stack (..., m, N, ..., N/2+1); the result is
    (shells, ...).  The block weights are even in k, so each shell is one
    pruned c2r of the half times the weights' half, both cut to the columns
    the shell occupies.  In 2-D under the matrix rule (``spectral``) the
    c2r transforms only the first-axis rows the weights touch: one (N, rows)
    BLAS product over the whole stack laid out (rows, ..., columns), whose
    values come out (N, N) and reduce over x1 first; all shells share buffers
    made once per call.  A sample holding a non-finite entry
    reads NaN in every shell, as 0 * nan and 0 * inf would make it.  A shell
    whose weights meet no mode holding a nonzero entry in any sample is not
    transformed: its row is what the transform would read, 0.0, or NaN.
    """
    cut = cutoffs or build_cutoffs()
    dim, n, qm = grid.dim, grid.points, shell_max(grid)
    out = np.empty((qm + 2,) + half.shape[: -dim - 1])
    bad = np.zeros(out.shape[1:], bool)  # scanned for only if the sum of all entries is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(half.sum()):
            bad = ~np.all(np.isfinite(half), axis=tuple(range(-dim - 1, 0)))
    # the modes holding a nonzero entry, nan and inf included, in any sample
    occupied = np.any(half, axis=tuple(range(half.ndim - dim)))
    # rows pruned in 2-D at N/2+1 <= MATRIX_COLUMNS and at least 2N samples and components (a
    # (13, 2) stack at N = 32, as in `verify bilinear`, ran 1.4x slower this way, a 3-D (65, 3)
    # one at N = 16 2.3x slower)
    stack = half.size // (n ** (dim - 1) * (n // 2 + 1))
    rows = dim == 2 and n // 2 + 1 <= MATRIX_COLUMNS and stack >= 2 * n
    if rows:  # the stack seen (N, components, ...): first spatial axis outermost
        half = np.moveaxis(half, (-dim, -dim - 1), (0, 1))
        pruned, wide = np.empty(half.size, np.complex128), np.empty(half.size, np.complex128)
    # one values buffer for all shells: per-shell ones made glibc trim and re-fault the heap;
    # the rows' product has read its pruned rows before the c2r writes values over them
    shape = half.shape[:-1] + (n,)
    values = pruned.view(np.float64)[: np.prod(shape)].reshape(shape) if rows else np.empty(shape)
    for q in range(-1, qm + 1):
        c = _shell_columns(grid, q, cut)
        w = block_weights(grid, q, cut)[..., :c]
        if not np.any(w[occupied[..., :c]]):
            out[q + 1] = np.where(bad, np.nan, 0.0)
            continue
        if not rows:
            block = _c2r(half[..., :c] * w, dim, n, values, overwrite=True)
        else:
            head, tail, wr, basis = _shell_rows(grid, q, cut)
            z = pruned[: half.size // (n * half.shape[-1]) * len(wr) * c].reshape(
                (len(wr),) + half.shape[1:-1] + (c,))
            wr = wr.reshape((len(wr),) + (1,) * (half.ndim - dim) + wr.shape[1:])
            np.multiply(half[:head, ..., :c], wr[:head], out=z[:head])
            np.multiply(half[tail:, ..., :c], wr[head:], out=z[head:])
            y = wide[: z.size // len(wr) * n].reshape((n,) + z.shape[1:])
            for c in _column_blocks(n, len(wr), z[0].size):
                np.matmul(basis, z.reshape(len(wr), -1)[:, c], out=y.reshape(n, -1)[:, c])
            block = np.moveaxis(_c2r(y, dim - 1, n, values, overwrite=True), (0, 1), (-dim, -dim - 1))
        out[q + 1] = np.where(bad, np.nan, _lp_norms(block, grid, p))
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
    """Time-sampled real field on one grid; times increase from t >= 0.

    The data is one stack ``half`` of shape (samples, m, N, ..., N/2+1): the
    ``spectral`` half spectra of the samples (:class:`~lptorus.spectral.Field`).
    ``FieldTrajectory(times, fields)`` stacks them; :meth:`from_half` wraps
    a stack as it is.

    The initial sample t = 0 is allowed (the Duhamel quadrature needs it);
    norms that weight by negative powers of t reject trajectories containing
    it.
    """

    __slots__ = ("grid", "times", "half")

    def __init__(self, times, fields):
        fields = tuple(fields)
        if not fields:
            raise ValueError("need one field per time and at least one sample")
        grid = fields[0].grid
        if any(f.grid != grid for f in fields):
            raise ValueError("all fields must share one grid")
        self._init(grid, times, np.stack([f.spectral for f in fields]))

    @classmethod
    def from_half(cls, grid: Grid, times, half: np.ndarray) -> "FieldTrajectory":
        """Trajectory whose sample i has the half spectrum half[i]."""
        traj = cls.__new__(cls)
        traj._init(grid, times, half)
        return traj

    def _init(self, grid: Grid, times, half: np.ndarray) -> None:
        times = np.asarray(times, dtype=float)
        half = np.asarray(half, dtype=np.complex128).view()
        half.setflags(write=False)
        if times.ndim != 1 or times.size == 0 or half.shape[:1] != times.shape:
            raise ValueError("need one field per time and at least one sample")
        if half.ndim != grid.dim + 2 or half.shape[2:] != grid.half_shape:
            raise ValueError(f"half-spectrum shape {half.shape} does not match grid")
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if times[0] < 0:
            raise ValueError("times must be >= 0")
        self.grid, self.times, self.half = grid, times, half

    @property
    def components(self) -> int:
        return self.half.shape[1]

    def restrict_positive(self) -> "FieldTrajectory":
        if self.times[0] > 0:
            return self
        if self.times.size == 1:
            raise ValueError("trajectory has no positive sample times")
        return FieldTrajectory.from_half(self.grid, self.times[1:], self.half[1:])


def heat_trajectory(f: Field, times) -> FieldTrajectory:
    """Free heat evolution of ``f`` sampled at ``times``."""
    half = heat_stack(f.spectral, f.grid, times)
    return FieldTrajectory.from_half(f.grid, times, half)


def time_norm(values: np.ndarray, times: np.ndarray, rho: float) -> float:
    """L^rho norm over the sampled interval (trapezoid; max when rho = inf)."""
    rho = _check_exponent("rho", rho)

    def trapezoid(terms, axis):
        return np.sum(0.5 * (terms[..., 1:] + terms[..., :-1]) * np.diff(times), axis=axis)

    return float(_power_mean(np.asarray(values, dtype=float), rho, (-1,), trapezoid))


def block_time_lp(traj: FieldTrajectory, p: float) -> np.ndarray:
    """Matrix ||block_q f(t_i)||_p with shape (shells, samples).

    Reads the trajectory's half stack, one pruned c2r per shell (on the
    columns the shell occupies) batched over all samples; no ``Field``.
    """
    return _block_table(traj.half, traj.grid, p)


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
    traj: FieldTrajectory, rho: float, spec: BesovSpec | MixedSpec
) -> float:
    """Time-inside-shells norm: the spec's reduction of ||block_q||_{L^rho_T L^p}."""
    return chemin_lerner_reduce(block_time_lp(traj, spec.p), traj.times, rho, spec)


def lebesgue_besov_norm(traj: FieldTrajectory, rho: float, spec: BesovSpec) -> float:
    """Shells-inside-time norm: L^rho_T of the pointwise-in-time Besov norm."""
    return lebesgue_besov_reduce(block_time_lp(traj, spec.p), traj.times, rho, spec)


def log_weight(t, sigma: float):
    """|ln(t / e^2)|^sigma, the logarithmic Kato weight."""
    return np.abs(np.log(t) - 2.0) ** sigma


def kato_weighted_norm(
    traj: FieldTrajectory, sigma: float, p: float
) -> float:
    """sup over samples of t^{1/2} |ln(t/e^2)|^sigma ||f(t)||_p.

    Requires every sample time in (0, T] with T <= 1, T the last sample
    time; a t = 0 sample is rejected because the weight is only defined there
    by a limit.
    """
    t = traj.times
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if t[0] <= 0:
        raise ValueError("weighted norm requires all sample times > 0")
    if t[-1] > 1 + 1e-12:
        raise ValueError(f"weighted norm requires T <= 1, got T = {t[-1]}")
    weights = np.sqrt(t) * log_weight(t, sigma)
    norms = _lp_norms(values_from_half(traj.half, traj.grid), traj.grid, p)
    return float(np.max(weights * norms))


def heat_characterization_norm(
    f: Field, sigma: float, p: float, times: np.ndarray | None = None
) -> float:
    """``kato_weighted_norm`` of the heat evolution of ``f`` on ``times``
    (default log-uniform on [1e-6, 1], 64 per decade) inside (0, 1]: the
    heat trace of the B^{-1,sigma}_{p,inf} norm."""
    times = np.geomspace(1e-6, 1.0, 385) if times is None else np.asarray(times, dtype=float)
    return kato_weighted_norm(heat_trajectory(f, times), sigma, p)


def characterization_ratio(f: Field, sigma: float, p: float) -> float:
    """heat-trace norm / B^{-1,sigma}_{p,inf} norm of one field (the
    equivalence ratio)."""
    num = heat_characterization_norm(f, sigma, p)
    den = besov_norm(f, BesovSpec(-1, p, INF, sigma))
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


BERNSTEIN_RADII = (0.75, 8.0 / 3.0)  # the annulus holding phi's support


def bernstein_check(
    f: Field,
    a: float,
    b: float,
    order: int,
    scale: float,
    support: str = "ball",
) -> dict:
    """Ratio of sup_{|alpha| = order} ||d^alpha f||_b to its band-limited bound.

    ``support`` declares where the spectrum of ``f`` is supposed to live:
    the ball |k| <= r1 * scale or the shell r1 * scale <= |k| <= r2 * scale,
    with (r1, r2) = ``BERNSTEIN_RADII``.  The input is validated against that
    region.  For the ball the bound is scale^{order + n(1/a - 1/b)} ||f||_a;
    for the shell the same quantity with a = b is two-sided.
    """
    a = _check_exponent("a", a)
    b = _check_exponent("b", b)
    if b < a:
        raise ValueError("need a <= b")
    grid = f.grid
    r1, r2 = BERNSTEIN_RADII
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
        sup_blocks = block_lp_norms(f, INF)
        p_blocks = sup_blocks if p == INF else block_lp_norms(f, p)
        log_p = BesovSpec(s, p, INF, 1.0).reduce(p_blocks)
        for key, num, den in (
            ("weak_vs_sup", BesovSpec(0, INF, INF).reduce(sup_blocks), sup),
            ("sup_vs_strong", sup, BesovSpec(0, INF, 1).reduce(sup_blocks)),
            ("log_vs_shift", log_p, BesovSpec(s + eps, p, INF).reduce(p_blocks)),
            ("summed_vs_log", BesovSpec(s, p, r_tilde).reduce(p_blocks), log_p),
        ):
            consts[key] = max(consts[key], num / den if den > 0 else 0.0)
    return consts
