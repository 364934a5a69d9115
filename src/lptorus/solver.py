"""Mild-solution machinery for the viscous Boussinesq system on the torus.

The velocity u (divergence-free, n components) and scalar theta satisfy

    u_t + (u.grad) u + grad P = Lap u + theta a,      div u = 0,
    theta_t + u.grad theta    = Lap theta,

which the solver treats through the Duhamel (integral) form

    u     = e^{tL} u0  - int_0^t e^{(t-s)L} P div(u (x) u) ds
                       + int_0^t e^{(t-s)L} P (theta a) ds
    theta = e^{tL} th0 - int_0^t e^{(t-s)L} div(u theta) ds

with P the Leray projection and the nonlinearities in divergence form (valid
since div u = 0 is enforced spectrally: every entry point reads the data
through one gate, ``_data_state``, that checks them and Leray-projects u0).
The velocity flux is trace-free, u (x) u - u_{n-1}^2 I: P removes the dropped
gradient div(u_{n-1}^2 I) mode by mode, and a state forms (n-1)(n+2)/2 + n products.
Picard iteration starts from the free evolution and reapplies the map; the
smallness certificate instantiates the abstract coupled fixed point: with the
bilinear/linear operator bounds lambda and eta measured on a sampling
ensemble and c* = max(2 eta, 1), the iteration contracts whenever

    ||(x0, c* y0)|| = ||x0|| + c* ||y0|| < 1 / (16 lambda)

for the free evolutions (x0, y0) of the data, and the solution then obeys
||(x, c* y)|| <= 4 ||(x0, c* y0)||.

Norm regimes differ only in their data spaces (``data_spaces``) for
(u0, theta0):

  thm1.2   B^{-1}_{inf,1} ^ B^{-1,1}_{inf,inf} and the same pair at p = n/2;
  thm1.3   theta0 instead in B^{-1}_{p,r} with p in (n/2, inf);
  thm1.4   B^{-1,1}_{inf,inf} and B^{-1,eps}_{p,inf}, horizon T <= 1.

The solution norms follow from those spaces: L~2_T of the space lifted to
s = 0 (Chemin-Lerner), or for thm1.4 the Kato sup
sup_t t^{1/2} |ln(t/e^2)|^alpha ||.||_p that characterizes B^{-1,alpha}_{p,inf},
evaluated on a time grid with a logarithmic prefix.

The Duhamel quadrature treats the source as piecewise linear on each panel
and integrates the heat multiplier exactly, so it is exact for sources
linear in time at any stiffness and second-order accurate otherwise.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dataclass_field, replace
from functools import lru_cache, partial

import numpy as np

from .besov import (
    INF,
    BesovSpec,
    FieldTrajectory,
    MixedSpec,
    _block_table,
    block_time_lp,  # noqa: F401  perfbench's tracer tests read it from this module
    chemin_lerner_norm,
    kato_weighted_norm,
    lp_norm,
)
from .dyadic import reconstruction_cap, require_shell
from .ensembles import random_field
from .spectral import (
    Field,
    Grid,
    _band_plan,
    _Pad,
    heat_stack,
    project_divergence_free,
    values_from_half,
)

REGIMES = ("thm1.2", "thm1.3", "thm1.4")
# random trajectory triples behind the sampled lambda and eta
CONSTANT_TRIALS = 6
# Picard stops as diverged past this multiple of the initial pair norm
DIVERGENCE_GUARD = 10.0


class OracleInstabilityError(RuntimeError):
    """The fine-step oracle blew up on this data and step size."""


@dataclass(frozen=True)
class SolverConfig:
    """Horizon, discretization, regime and operator constants for one run."""

    horizon: float
    steps: int = 64
    max_iterations: int = 25
    tol: float = 1e-8
    buoyancy: tuple[float, ...] = (0.0, 1.0)
    regime: str = "thm1.2"
    p: float | None = None
    r: float | None = None
    eps: float | None = None
    lambda_: float | None = None
    eta: float | None = None
    constant_seed: int = 1234
    oracle_refine: int = 10

    def __post_init__(self):
        if not 0.0 < self.horizon < INF:
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if self.steps < 1 or self.oracle_refine < 1:
            raise ValueError("steps and oracle_refine must be >= 1")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0.0 < self.tol < INF:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        a = np.asarray(self.buoyancy, dtype=float)
        if not np.all(np.isfinite(a)):
            raise ValueError(f"buoyancy entries must be finite, got {self.buoyancy}")
        if not np.linalg.norm(a) > 0:
            raise ValueError("buoyancy direction must be nonzero")
        if self.regime == "thm1.3":
            if self.p is None or self.r is None:
                raise ValueError("thm1.3 needs exponents p and r")
        if self.regime == "thm1.4":
            if self.p is None or self.eps is None:
                raise ValueError("thm1.4 needs exponent p and eps")
            if not 0.0 < self.eps < INF:
                raise ValueError(f"eps must be finite and positive, got {self.eps}")
            if self.horizon > 1:
                raise ValueError("the weighted-norm regime requires T <= 1")
        lam, eta = self.lambda_, self.eta
        if (lam is None) != (eta is None):
            raise ValueError("lambda_ and eta are set together or not at all")
        if lam is not None and not (0 < lam < INF and 0 <= eta < INF):
            raise ValueError(f"need lambda_ in (0, inf) and eta in [0, inf), got {lam}, {eta}")

    def validate_grid(self, grid: Grid) -> None:
        require_shell(grid)  # else lambda is 0 and the certificate 1 / (16 lambda)
        if len(self.buoyancy) != grid.dim:
            raise ValueError("buoyancy direction has the wrong dimension")
        if self.regime in ("thm1.3", "thm1.4"):
            if not (grid.dim / 2.0 < self.p < INF):
                raise ValueError(
                    f"regime {self.regime} needs p in (n/2, inf), got {self.p}"
                )


def time_grid(config: SolverConfig) -> np.ndarray:
    """Uniform panels on [0, T]; a log prefix resolves t -> 0 for thm1.4."""
    base = np.linspace(0.0, config.horizon, config.steps + 1)
    if config.regime != "thm1.4":
        return base
    prefix = config.horizon * np.geomspace(1e-4, 1.0, 33)[:-1]
    merged = np.unique(np.concatenate([base, prefix]))
    keep = np.concatenate([[True], np.diff(merged) > 1e-12 * config.horizon])
    return merged[keep]


# ---------------------------------------------------------------------------
# Duhamel quadrature


def _panel_weights(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g1 = int_0^1 e^{-xu} du and g2 = int_0^1 u e^{-xu} du, stably."""
    x = np.asarray(x, dtype=float)
    small = x < 1e-2
    xs = np.where(small, x, 0.0)
    g1_s = 1.0 - xs / 2 + xs**2 / 6 - xs**3 / 24 + xs**4 / 120
    g2_s = 0.5 - xs / 3 + xs**2 / 8 - xs**3 / 30 + xs**4 / 144
    xb = np.where(small, 1.0, x)
    g1_b = -np.expm1(-xb) / xb
    g2_b = (1.0 - np.exp(-xb) * (1.0 + xb)) / xb**2
    return np.where(small, g1_s, g1_b), np.where(small, g2_s, g2_b)


def _duhamel_stack(times: np.ndarray, source: np.ndarray, grid: Grid) -> np.ndarray:
    """int_0^{t_j} e^{(t_j - s) Lap} source(s) ds on every sample time.

    ``source`` is a half spectral stack (len(times), m, N, ..., N/2+1).
    The source is taken piecewise linear between samples and the per-panel
    multiplier integrals are evaluated in closed form: for each distinct panel
    width one pass forms (w_new s_j + w_old s_{j-1}) dt on all its panels,
    and only the decay of the previous sample is added panel by panel.
    """
    out = np.zeros_like(source)
    dts, decays = np.diff(times), {}
    edges = np.flatnonzero(np.diff(dts)) + 1  # runs of panels of one width
    for a, b in zip(np.r_[0, edges], np.r_[edges, len(dts)]):
        dt = dts[a]
        if dt not in decays:
            x = grid.k_sq * dt
            g1, g2 = _panel_weights(x)
            decays[dt] = (np.exp(-x), g1 - g2, g2)
        _, w_new, w_old = decays[dt]
        for lo in range(a, b, 8):  # eight panels at a time bound the temporary
            acc = np.multiply(source[lo + 1 : b + 1][:8], w_new, out=out[lo + 1 : b + 1][:8])
            acc += source[lo:b][:8] * w_old
            acc *= dt
    tmp = np.empty_like(source[0])
    for j, dt in enumerate(dts, 1):
        out[j] += np.multiply(decays[dt][0], out[j - 1], out=tmp)
    return out


# ---------------------------------------------------------------------------
# Boussinesq right-hand side


@lru_cache(maxsize=None)
def _flux_plan(n: int, self_flux: bool) -> tuple[tuple, np.ndarray]:
    """Factor-row pairs of one flux batch and the pair behind each flux entry.

    The entries are u_i v_j (row i, column j) followed by u_j theta; the
    factor rows are u, v, theta.  The pairs u_j theta come first, so that the
    band of the u_i v_j pairs then theta (``_Flux``) is one run.  A self flux
    (rows u, theta) forms u_i u_j, i < j, once, (i, i) for u_i^2 - u_{n-1}^2
    of the trace-free u (x) u - u_{n-1}^2 I, and for its zero entry
    (n-1, n-1) no pair (row -1).
    """
    v, theta = (0, n) if self_flux else (n, 2 * n)  # first v row, theta row
    entries = [(i, v + j) for i in range(n) for j in range(n)] + [(j, theta) for j in range(n)]
    if self_flux:
        entries = [None if e == (n - 1, n - 1) else tuple(sorted(e)) for e in entries]
    pairs = tuple(dict.fromkeys(entries[n * n :] + [e for e in entries[: n * n] if e]))
    rows = np.array([pairs.index(e) if e else -1 for e in entries])
    rows.setflags(write=False)
    return pairs, rows


@lru_cache(maxsize=None)
def _source_operator(grid: Grid, buoyancy: tuple, self_flux: bool) -> np.ndarray:
    """Per-mode map from one flux batch and theta to the projected sources.

    Column d < D reads the d-th product of ``_flux_plan``, column D theta;
    row i < n gives (P(-div(u x v) + theta a))_i, row n -div(u theta).  It
    folds -i k_j, the Leray projector P and a into one multiplier, shape
    (n + 1, D + 1, N^(n-1) (N/2+1)) on the flat half lattice.
    """
    n = grid.dim
    k = grid.k_mesh_deriv.reshape(n, -1)
    inv = grid.inv_k_sq_deriv.ravel()
    lift = np.zeros((n + 1, n + 1, k.shape[1]))  # P on u, the identity on theta
    lift[:n, :n] = np.eye(n)[..., None] - k[:, None] * k * inv
    lift[n, n] = 1.0
    pairs, rows = _flux_plan(n, self_flux)
    op = np.zeros((n + 1, len(pairs) + 1, k.shape[1]), dtype=np.complex128)
    for entry, d in enumerate(rows):
        r, j = divmod(entry, n)  # u_r v_j of row r, or u_j theta for r = n
        if d >= 0:
            op[:, d] -= 1j * k[j] * lift[:, r]
    op[:, -1] = np.tensordot(buoyancy, lift[:, :n], axes=(0, 1))
    op.setflags(write=False)
    return op


class _Flux:
    """``op`` (a ``_source_operator``, maybe scaled) applied to the flux of u = a
    and (v, theta) = b, half spectra (*lead, n or n + 1, N, ..., N/2+1), b alone
    for a self flux, bound once into a fixed call plan on buffers made once.
    ``pad`` brings the stacks to the ``points`` grid (3N/2 by default), and
    ``calls`` multiply the pairs of ``_flux_plan`` there, the u_j theta in one
    broadcast multiply and (i, i) as u_i^2 - u_{n-1}^2, then ``_band_plan``
    writes their band, its leading Nyquist planes zero of either sign, into
    the rows ``band`` of one column stack whose last row is a copy of theta.
    Each output row is then one multiply of its run of nonzero ``op`` blocks
    by their columns and one sum from +0.0, theta last: the bits of one
    multiply-add per block in column order."""

    def __init__(self, grid: Grid, op: np.ndarray, self_flux: bool, points=None, lead=()):
        n, self.self_flux = grid.dim, self_flux
        pairs = _flux_plan(n, self_flux)[0]  # a cross flux pairs no row with itself
        self.pad = _Pad(grid, points or 3 * grid.points // 2, lead, (n + 1,) if self_flux else (n, n + 1))
        prod = np.empty(lead + (len(pairs),) + self.pad.values.shape[-n:])
        v, rows = (np.moveaxis(x, -n - 1, 0) for x in (self.pad.values, prod))  # factor, product rows first
        square, theta = np.empty_like(v[0]), pairs[0][1]  # the pairs (j, theta), j < n, come first
        self.calls = [partial(np.multiply, v[:n], v[theta], out=rows[:n])]
        for p, (i, j) in enumerate(pairs[n:], n):
            self.calls.append(partial(np.multiply, v[i], v[j], out=rows[p]))
            if i == j:  # u_i^2 - u_{n-1}^2
                self.calls += [partial(np.square, v[n - 1], out=square),
                               partial(np.subtract, rows[p], square, out=rows[p])]
        cols = np.empty(lead + op.shape[1:], dtype=np.complex128)  # the band, then theta
        self.band = cols[..., :-1, :].reshape(lead + (len(pairs),) + grid.half_shape)
        self.calls += _band_plan(prod, grid, self.band)
        self.out = np.empty(lead + (n + 1, op.shape[-1]), dtype=np.complex128)
        self.theta, tmp, self.plan = cols[..., -1, :], np.empty_like(cols), []
        for i, used in enumerate(np.any(op, axis=-1)):
            run = np.flatnonzero(used)  # one run, by _flux_plan's order
            run = slice(run[0], run[-1] + 1) if run.size else slice(0)
            self.plan.append(partial(np.multiply, op[i, run], cols[..., run, :], out=tmp[..., run, :]))
            self.plan.append(partial(np.add.reduce, tmp[..., run, :], axis=-2, out=self.out[..., i, :],
                                     initial=0.0))

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.pad(*((b,) if self.self_flux else (a, b)))
        for call in self.calls:
            call()
        np.copyto(self.theta, b.reshape(self.out.shape)[..., -1, :])
        for call in self.plan:
            call()
        return self.out.reshape(b.shape)


def _sources(a: np.ndarray, b: np.ndarray, op: np.ndarray, grid: Grid, points=None) -> np.ndarray:
    """``_Flux`` of the stacks a and b (samples, ..., N/2+1), a self flux if
    ``b is a``, streamed one state at a time into one output stack;
    every transform, product and operator term acts per state, so streaming
    changes no bit."""
    flux = _Flux(grid, op, b is a, points)
    out = np.empty(b.shape, dtype=np.complex128)
    for s, y in enumerate(b):
        out[s] = flux(y if b is a else a[s], y)
    return out


def _data_state(u0: Field, theta0: Field, config: SolverConfig) -> tuple[Grid, np.ndarray]:
    """The one gate of every solver entry point: the checked data's grid and
    stacked (P u0, theta0) half spectra (n + 1, N, ..., N/2+1), P the Leray projection."""
    if theta0.grid != u0.grid:
        raise ValueError("u0 and theta0 must share one grid")
    grid = u0.grid
    config.validate_grid(grid)
    if theta0.components != 1:
        raise ValueError("theta0 must be a scalar field")
    if u0.components != grid.dim:
        raise ValueError(f"u0 must have {grid.dim} components, got {u0.components}")
    state = np.concatenate([u0.spectral, theta0.spectral])
    state[: grid.dim] = project_divergence_free(state[: grid.dim], grid)
    return grid, state


def _fixed_point_map(
    times: np.ndarray, state: np.ndarray, state0: np.ndarray, op: np.ndarray, grid: Grid
) -> np.ndarray:
    """The Duhamel map of a stacked (u, theta) trajectory (samples, n + 1,
    N, ..., N/2+1) with data ``state0`` and the self-flux ``_source_operator``
    ``op``: the free evolution plus the Duhamel integral of the sources."""
    sources = _sources(state, state, op, grid)
    return heat_stack(state0, grid, times) + _duhamel_stack(times, sources, grid)


# ---------------------------------------------------------------------------
# regime norms


def data_spaces(config: SolverConfig, dim: int) -> tuple:
    """The regime's data spaces (of u0, of theta0) on a dim-dimensional torus."""
    if config.regime == "thm1.4":
        return BesovSpec(-1, INF, INF, 1.0), BesovSpec(-1, config.p, INF, config.eps)
    if config.regime == "thm1.3":
        return MixedSpec(-1, INF), BesovSpec(-1, config.p, config.r)
    return MixedSpec(-1, INF), MixedSpec(-1, dim / 2.0)


def _solution_norm(traj: FieldTrajectory, space, config: SolverConfig) -> float:
    """The solution norm that data ``space`` induces: the Kato sup of its
    log weight in thm1.4, else L~2_T of the space lifted to s = 0."""
    if config.regime == "thm1.4":
        return kato_weighted_norm(traj.restrict_positive(), space.alpha, space.p)
    return chemin_lerner_norm(traj, 2.0, replace(space, s=0))


def velocity_norm(traj: FieldTrajectory, config: SolverConfig) -> float:
    """Solution-space norm of the velocity in the configured regime."""
    return _solution_norm(traj, data_spaces(config, traj.grid.dim)[0], config)


def scalar_norm(traj: FieldTrajectory, config: SolverConfig) -> float:
    """Solution-space norm of the scalar in the configured regime."""
    return _solution_norm(traj, data_spaces(config, traj.grid.dim)[1], config)


def _pair_norms(
    grid: Grid, times: np.ndarray, stack: np.ndarray, config: SolverConfig
) -> tuple[float, float]:
    """(velocity_norm, scalar_norm) of a stacked (u, theta) trajectory."""
    n = grid.dim
    return (
        velocity_norm(FieldTrajectory.from_half(grid, times, stack[:, :n]), config),
        scalar_norm(FieldTrajectory.from_half(grid, times, stack[:, n:]), config),
    )


# ---------------------------------------------------------------------------
# operator constants and the smallness certificate


def measure_operator_constants(grid: Grid, config: SolverConfig) -> dict:
    """Sampled bounds for the two bilinear maps and the buoyancy map.

    Ratios ||B(x, y)|| / (||x|| ||y||) are measured over heat-evolved random
    trajectory pairs in the regime norms; lambda and eta are twice the
    largest observed ratio, following the convention that sampled constants
    get a factor-2 safety margin.  B1 and B2 are the rows of one flux batch
    through the zero-buoyancy ``_source_operator``.
    """
    config.validate_grid(grid)
    times = time_grid(config)
    rng = np.random.default_rng(config.constant_seed)
    a = np.asarray(config.buoyancy, dtype=float)
    n = grid.dim
    flux_op = _source_operator(grid, (0.0,) * n, False)
    # draws band-limited to the cap have exact products on the unpadded N grid if 2 cap < Nyquist
    points = grid.points if 2 * reconstruction_cap(grid) < grid.nyquist else None
    b1 = b2 = lin = 0.0
    for _ in range(CONSTANT_TRIALS):
        x1 = project_divergence_free(random_field(grid, rng, components=n).spectral, grid)
        x2 = project_divergence_free(random_field(grid, rng, components=n).spectral, grid)
        y = random_field(grid, rng).spectral
        x1_t = heat_stack(x1, grid, times)
        xy_t = heat_stack(np.concatenate([x2, y]), grid, times)  # the stack (x2, y)
        nx1 = velocity_norm(FieldTrajectory.from_half(grid, times, x1_t), config)
        nx2, ny = _pair_norms(grid, times, xy_t, config)

        # B1(x1, x2) = -P div(x1 (x) x2) and B2(x1, y) = -div(x1 y)
        duhamel = _duhamel_stack(times, _sources(x1_t, xy_t, flux_op, grid, points), grid)
        b1_val, b2_val = _pair_norms(grid, times, duhamel, config)
        if nx1 * nx2 > 0:
            b1 = max(b1, b1_val / (nx1 * nx2))
        if nx1 * ny > 0:
            b2 = max(b2, b2_val / (nx1 * ny))
        # L(y): +P(a y)
        buoy = project_divergence_free(a.reshape((n,) + (1,) * n) * xy_t[:, n:], grid)
        lin_val = velocity_norm(
            FieldTrajectory.from_half(grid, times, _duhamel_stack(times, buoy, grid)), config
        )
        if ny > 0:
            lin = max(lin, lin_val / ny)
    return {
        "lambda": 2.0 * max(b1, b2),
        "eta": 2.0 * lin,
        "b1_max_ratio": b1,
        "b2_max_ratio": b2,
        "linear_max_ratio": lin,
        "trials": CONSTANT_TRIALS,
        "seed": config.constant_seed,
    }


@dataclass(frozen=True)
class SmallnessCertificate:
    """The contraction condition ||(x0, c* y0)|| < 1/(16 lambda), evaluated."""

    lambda_: float
    eta: float
    c_star: float
    lhs: float
    rhs: float
    passed: bool
    free_velocity_norm: float
    free_scalar_norm: float
    mu1: float
    mu2: float
    regime: str

    @classmethod
    def evaluate(cls, lambda_, eta, free_u, free_th, mu1, mu2, regime):
        if not 0.0 < lambda_ < INF:  # e.g. underflowed at a vanishing horizon
            raise ValueError(
                f"operator constant lambda = {lambda_!r} is not positive and "
                "finite on this horizon T"
            )
        c_star = max(2.0 * eta, 1.0)
        lhs = free_u + c_star * free_th
        rhs = 1.0 / (16.0 * lambda_)
        return cls(
            lambda_=float(lambda_),
            eta=float(eta),
            c_star=float(c_star),
            lhs=float(lhs),
            rhs=float(rhs),
            passed=bool(lhs < rhs),
            free_velocity_norm=float(free_u),
            free_scalar_norm=float(free_th),
            mu1=float(mu1),
            mu2=float(mu2),
            regime=regime,
        )

    def to_dict(self) -> dict:
        return asdict(self)


def smallness_certificate(u0: Field, theta0: Field, config: SolverConfig) -> SmallnessCertificate:
    """Evaluate the contraction condition for the given data and regime.

    mu1, mu2 and the free evolutions are those of the gated data (``_data_state``:
    u0 Leray-projected); lambda and eta are the config's if set, else measured.
    """
    grid, state0 = _data_state(u0, theta0, config)
    constants = {"lambda": config.lambda_, "eta": config.eta}
    if config.lambda_ is None:
        constants = measure_operator_constants(grid, config)
    n = grid.dim
    times = time_grid(config)
    u_space, th_space = data_spaces(config, n)
    return SmallnessCertificate.evaluate(
        constants["lambda"],
        constants["eta"],
        *_pair_norms(grid, times, heat_stack(state0, grid, times), config),
        u_space.reduce(_block_table(state0[:n], grid, u_space.p)),
        th_space.reduce(_block_table(state0[n:], grid, th_space.p)),
        config.regime,
    )


# ---------------------------------------------------------------------------
# Picard iteration


@dataclass
class IterationReport:
    """Per-iteration norms and the regime-level bound checks."""

    certificate: SmallnessCertificate
    iterations: list = dataclass_field(default_factory=list)
    converged: bool = False
    diverged: bool = False
    divergence: str | None = None  # why a diverged run stopped: "growth" or "non-finite"
    stopped: str | None = None  # "max_iterations" when neither converged nor diverged
    bounds: dict = dataclass_field(default_factory=dict)
    residuals: dict = dataclass_field(default_factory=dict)
    final: dict = dataclass_field(default_factory=dict)

    def contraction_factors(self) -> list:
        return [
            entry["contraction"]
            for entry in self.iterations
            if entry["contraction"] is not None
        ]

    def to_dict(self) -> dict:
        out = {
            "certificate": self.certificate.to_dict(),
            "iterations": self.iterations,
            "converged": self.converged,
            "diverged": self.diverged,
            "bounds": self.bounds,
            "residuals": self.residuals,
            "final": self.final,
        }
        if self.diverged:
            out["divergence"] = self.divergence
        if self.stopped:
            out["stopped"] = self.stopped
        return out


def picard_solve(
    u0: Field, theta0: Field, config: SolverConfig
) -> tuple[FieldTrajectory, FieldTrajectory, IterationReport]:
    """Iterate the Duhamel map from the free evolution until contraction.

    Runs even when the smallness certificate fails (flagged in the report);
    stops as diverged if the pair norm grows past ``DIVERGENCE_GUARD`` times
    its initial value (``divergence`` "growth") or the pair norm or
    difference is not finite ("non-finite").
    """
    grid, state0 = _data_state(u0, theta0, config)
    n = grid.dim
    cert = smallness_certificate(u0, theta0, config)
    op = _source_operator(grid, tuple(config.buoyancy), True)
    times = time_grid(config)

    # iteration 0 is the free evolution, whose norms the certificate holds
    state = heat_stack(state0, grid, times)
    u_norm, th_norm = cert.free_velocity_norm, cert.free_scalar_norm
    pair0 = cert.lhs

    report = IterationReport(certificate=cert)
    report.iterations.append(
        {
            "iteration": 0,
            "velocity_norm": u_norm,
            "scalar_norm": th_norm,
            "velocity_diff": None,
            "scalar_diff": None,
            "pair_diff": None,
            "contraction": None,
        }
    )

    prev_diff = None
    for k in range(1, config.max_iterations + 1):
        new = _fixed_point_map(times, state, state0, op, grid)
        du, dth = _pair_norms(grid, times, new - state, config)
        state = new
        u_norm, th_norm = _pair_norms(grid, times, state, config)
        pair_diff = du + cert.c_star * dth
        contraction = None if prev_diff in (None, 0.0) else pair_diff / prev_diff
        report.iterations.append(
            {
                "iteration": k,
                "velocity_norm": u_norm,
                "scalar_norm": th_norm,
                "velocity_diff": du,
                "scalar_diff": dth,
                "pair_diff": pair_diff,
                "contraction": contraction,
            }
        )
        pair_norm = u_norm + cert.c_star * th_norm
        if not (np.isfinite(pair_norm) and np.isfinite(pair_diff)):
            report.diverged, report.divergence = True, "non-finite"
            break
        if pair0 > 0 and pair_norm > DIVERGENCE_GUARD * pair0:
            report.diverged, report.divergence = True, "growth"
            break
        scale = max(pair_norm, 1e-300)
        if pair_diff <= config.tol * scale:
            report.converged = True
            break
        prev_diff = pair_diff
    else:
        report.stopped = "max_iterations"

    mu1, mu2 = cert.mu1, cert.mu2
    pair_limit = 4.0 * cert.lhs
    pair_final = u_norm + cert.c_star * th_norm
    report.final = {
        "velocity_norm": u_norm,
        "scalar_norm": th_norm,
        "pair_norm": pair_final,
        "iterations": len(report.iterations) - 1,
    }
    report.bounds = {
        "velocity_le_2mu1": bool(u_norm <= 2.0 * mu1 + 1e-300),
        "scalar_le_2mu2": bool(th_norm <= 2.0 * mu2 + 1e-300),
        "pair_le_4_initial": bool(pair_final <= pair_limit + 1e-300),
        "velocity_norm": u_norm,
        "mu1": mu1,
        "scalar_norm": th_norm,
        "mu2": mu2,
        "pair_norm": pair_final,
        "pair_limit": pair_limit,
    }
    u_traj = FieldTrajectory.from_half(grid, times, state[:, :n])
    th_traj = FieldTrajectory.from_half(grid, times, state[:, n:])
    report.residuals = residual_check(
        u_traj, th_traj, u0, theta0, config, norms=(u_norm, th_norm)
    )
    return u_traj, th_traj, report


def residual_check(
    u: FieldTrajectory,
    theta: FieldTrajectory,
    u0: Field,
    theta0: Field,
    config: SolverConfig,
    *,
    norms: tuple[float, float] | None = None,
) -> dict:
    """Regime-norm distance of (u, theta) from one more Duhamel map of the gated data.

    ``norms`` are ``velocity_norm(u)`` and ``scalar_norm(theta)`` when the
    caller holds them (``picard_solve`` does); they are measured otherwise.
    """
    grid, state0 = _data_state(u0, theta0, config)
    state = np.concatenate([u.half, theta.half], axis=1)
    op = _source_operator(grid, tuple(config.buoyancy), True)
    residual = state - _fixed_point_map(u.times, state, state0, op, grid)
    ru, rth = _pair_norms(grid, u.times, residual, config)
    u_norm, th_norm = norms or _pair_norms(grid, u.times, state, config)
    u_scale, th_scale = max(u_norm, 1e-300), max(th_norm, 1e-300)
    return {
        "velocity_residual": ru,
        "scalar_residual": rth,
        "velocity_residual_rel": ru / u_scale,
        "scalar_residual_rel": rth / max(th_scale, u_scale * 1e-12),
    }


# ---------------------------------------------------------------------------
# independent oracle: first-order exponential integrator at finer steps


def exponential_euler(
    u0: Field,
    theta0: Field,
    config: SolverConfig,
) -> tuple[Field, Field]:
    """Integrate to t = T with exact per-step heat multiplier and explicit
    (frozen) nonlinearity; first order in the step size.

    The state is one stack (n + 1, N, ..., N/2+1) of the rfftn half spectra
    of (u, theta); a step is one call of one ``_Flux``, with the step weight
    folded into a copy of the operator, and the heat decay, in place.  Once
    per panel it raises OracleInstabilityError if the state has grown past
    1e3 times its initial size or is not finite (a nan or inf stays so).
    """
    grid, state = _data_state(u0, theta0, config)
    n = grid.dim
    nsteps = config.steps * config.oracle_refine
    dt = config.horizon / nsteps
    x = grid.k_sq * dt
    decay = np.exp(-x)
    g1, _ = _panel_weights(x)
    flux = _Flux(grid, dt * g1.ravel() * _source_operator(grid, tuple(config.buoyancy), True), True)

    def size(state):  # max |u| + max |theta|, from one np.abs
        peaks = np.abs(state).reshape(n + 1, -1).max(axis=1)
        return float(peaks[:n].max() + peaks[n])

    guard = 1e3 * max(size(state), 1e-300)
    for step in range(1, nsteps + 1):  # the flux reads the state before it decays, in place
        np.add(flux(state, state), np.multiply(decay, state, out=state), out=state)
        if step % config.oracle_refine == 0 and not guard >= size(state) < np.inf:  # nan fails
            raise OracleInstabilityError(
                "oracle integrator is unstable for this data/step combination"
            )
    return (
        Field(grid, values_from_half(state[:n], grid)),
        Field(grid, values_from_half(state[n:], grid)),
    )


def oracle_compare(
    u0: Field,
    theta0: Field,
    config: SolverConfig,
    solution: tuple[FieldTrajectory, FieldTrajectory],
) -> dict:
    """``oracle_error`` of the Picard mild solution ``solution`` = (u, theta)
    against the independent fine-step exponential integrator from the data.

    The CLI composes the two itself (it may run the oracle in a worker); this
    one-call form stays because acceptance criterion 7 calls it and the
    benchmark harness traces it by name."""
    return oracle_error(solution, exponential_euler(u0, theta0, config))


def oracle_error(
    solution: tuple[FieldTrajectory, FieldTrajectory], reference: tuple[Field, Field]
) -> dict:
    """Relative L2 distance at t = T between the trajectories ``solution`` =
    (u, theta) and the oracle's end state ``reference`` = (u, theta)."""
    u_traj, th_traj = solution
    u_ref, th_ref = reference
    u_end = Field.from_spectral(u_traj.grid, u_traj.half[-1])
    th_end = Field.from_spectral(th_traj.grid, th_traj.half[-1])

    def rel(a: Field, b: Field) -> float:
        diff = lp_norm(a - b, 2.0)
        scale = max(lp_norm(b, 2.0), 1e-300)
        return diff / scale

    out = {"velocity": rel(u_end, u_ref)}
    if lp_norm(th_ref, 2.0) > 1e-14:
        out["scalar"] = rel(th_end, th_ref)
    out["max"] = max(out.values())
    return out
