"""Mild-solution machinery for the viscous Boussinesq system on the torus.

The velocity u (divergence-free, n components) and scalar theta satisfy

    u_t + (u.grad) u + grad P = Lap u + theta a,      div u = 0,
    theta_t + u.grad theta    = Lap theta,

which the solver treats through the Duhamel (integral) form

    u     = e^{tL} u0  - int_0^t e^{(t-s)L} P div(u (x) u) ds
                       + int_0^t e^{(t-s)L} P (theta a) ds
    theta = e^{tL} th0 - int_0^t e^{(t-s)L} div(u theta) ds

with P the Leray projection and the nonlinearities in divergence form (valid
since div u = 0 is enforced spectrally).  Picard iteration starts from the
free evolution and reapplies the map; the smallness certificate instantiates
the abstract coupled fixed point: with the bilinear/linear operator bounds
lambda and eta measured on a sampling ensemble and c* = max(2 eta, 1), the
iteration contracts whenever

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
from functools import lru_cache

import numpy as np

from .besov import (
    INF,
    BesovSpec,
    FieldTrajectory,
    MixedSpec,
    besov_norm,
    block_time_lp,  # noqa: F401  perfbench's tracer tests read it from this module
    chemin_lerner_norm,
    heat_trajectory,
    kato_weighted_norm,
    lp_norm,
)
from .cutoffs import CutoffPair
from .ensembles import random_field
from .spectral import (
    Field,
    Grid,
    dealiased_products,
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

    def validate_grid(self, grid: Grid) -> None:
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
    multiplier integrals are evaluated in closed form.
    """
    out = np.zeros_like(source)
    acc = np.zeros_like(source[0])
    ksq = grid.k_sq
    weights = {}  # keyed on the exact panel width; uniform grids have few
    for j in range(1, len(times)):
        dt = times[j] - times[j - 1]
        if dt not in weights:
            x = ksq * dt
            g1, g2 = _panel_weights(x)
            weights[dt] = (np.exp(-x), g1 - g2, g2)
        decay, w_new, w_old = weights[dt]
        acc = decay * acc + dt * (source[j] * w_new + source[j - 1] * w_old)
        out[j] = acc
    return out


# ---------------------------------------------------------------------------
# Boussinesq right-hand side


@lru_cache(maxsize=None)
def _flux_plan(n: int, self_flux: bool) -> tuple[np.ndarray, np.ndarray]:
    """Product pairs of one flux batch and the pair behind each flux entry.

    The entries are u_i v_j (row i, column j) followed by u_j theta; the
    factors are u and (v, theta).  For a self flux (v = u) only the
    n(n + 1)/2 distinct u_i u_j are formed, as u_min(i,j) u_max(i,j), which
    is bit for bit u_i u_j because floating-point products commute.
    """
    entries = [(i, j) for i in range(n) for j in range(n)] + [(j, n) for j in range(n)]
    if self_flux:
        entries = [(min(i, j), max(i, j)) for i, j in entries]
    pairs = list(dict.fromkeys(entries))
    rows = np.array([pairs.index(e) for e in entries])
    pairs = np.array(pairs)
    for arr in (pairs, rows):
        arr.setflags(write=False)
    return pairs, rows


@lru_cache(maxsize=None)
def _source_operator(grid: Grid, buoyancy: tuple, self_flux: bool) -> np.ndarray:
    """Per-mode map from one flux batch and theta to the projected sources.

    Column d < D reads the d-th distinct product of ``_flux_plan``, column D
    theta; row i < n gives (P(-div(u x v) + theta a))_i, row n -div(u theta).
    It folds -i k_j, the Leray projector P and a into one multiplier, shape
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
        op[:, d] -= 1j * k[j] * lift[:, r]
    op[:, -1] = np.tensordot(buoyancy, lift[:, :n], axes=(0, 1))
    op.setflags(write=False)
    return op


def _sources(a: np.ndarray, b: np.ndarray, op: np.ndarray, grid: Grid) -> np.ndarray:
    """``op`` (a ``_source_operator``, maybe scaled) applied to the flux of
    u = a and (v, theta) = b, half spectra (..., n + 1, N, ..., N/2+1) in and
    out; ``b is a`` (the stacked (u, theta)) forms a self flux's distinct
    products from one transform."""
    n = grid.dim
    pairs, _ = _flux_plan(n, b is a)

    def flat(x):
        return x.reshape(x.shape[:-n] + (-1,))

    prod = dealiased_products(a, b, pairs, grid)
    cols = np.concatenate([flat(prod), flat(b)[..., n:, :]], axis=-2)
    return np.einsum("idk,...dk->...ik", op, cols).reshape(b.shape)


def _nonlinear_sources(
    u_hat: np.ndarray, th_hat: np.ndarray, grid: Grid, buoyancy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Spectral sources (-P div(u x u) + P(theta a), -div(u theta)).

    Half spectra in and out, with arbitrary leading axes before the
    component axis; one ``_sources`` batch through the cached operator.
    """
    n = grid.dim
    state = np.concatenate([u_hat, th_hat], axis=-n - 1)
    op = _source_operator(grid, tuple(buoyancy), True)
    return tuple(np.split(_sources(state, state, op, grid), [n], axis=-n - 1))


def _data_grid(u0: Field, theta0: Field) -> Grid:
    if theta0.grid != u0.grid:
        raise ValueError("u0 and theta0 must share one grid")
    return u0.grid


def _fixed_point_map(
    times: np.ndarray,
    u_hat: np.ndarray,
    th_hat: np.ndarray,
    u0_hat: np.ndarray,
    th0_hat: np.ndarray,
    grid: Grid,
    buoyancy: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    nl_u, nl_th = _nonlinear_sources(u_hat, th_hat, grid, buoyancy)
    j1 = heat_stack(u0_hat, grid, times) + _duhamel_stack(times, nl_u, grid)
    j2 = heat_stack(th0_hat, grid, times) + _duhamel_stack(times, nl_th, grid)
    return j1, j2


# ---------------------------------------------------------------------------
# regime norms


def data_spaces(config: SolverConfig, dim: int) -> tuple:
    """The regime's data spaces (of u0, of theta0) on a dim-dimensional torus."""
    if config.regime == "thm1.4":
        return BesovSpec(-1, INF, INF, 1.0), BesovSpec(-1, config.p, INF, config.eps)
    if config.regime == "thm1.3":
        return MixedSpec(-1, INF), BesovSpec(-1, config.p, config.r)
    return MixedSpec(-1, INF), MixedSpec(-1, dim / 2.0)


def _solution_norm(
    traj: FieldTrajectory, space, config: SolverConfig, cutoffs: CutoffPair | None
) -> float:
    """The solution norm that data ``space`` induces: the Kato sup of its
    log weight in thm1.4, else L~2_T of the space lifted to s = 0."""
    if config.regime == "thm1.4":
        return kato_weighted_norm(traj.restrict_positive(), space.alpha, space.p)
    return chemin_lerner_norm(traj, 2.0, replace(space, s=0), cutoffs)


def velocity_norm(
    traj: FieldTrajectory, config: SolverConfig, cutoffs: CutoffPair | None = None
) -> float:
    """Solution-space norm of the velocity in the configured regime."""
    return _solution_norm(traj, data_spaces(config, traj.grid.dim)[0], config, cutoffs)


def scalar_norm(
    traj: FieldTrajectory, config: SolverConfig, cutoffs: CutoffPair | None = None
) -> float:
    """Solution-space norm of the scalar in the configured regime."""
    return _solution_norm(traj, data_spaces(config, traj.grid.dim)[1], config, cutoffs)


# ---------------------------------------------------------------------------
# operator constants and the smallness certificate


def measure_operator_constants(
    grid: Grid, config: SolverConfig, cutoffs: CutoffPair | None = None
) -> dict:
    """Sampled bounds for the two bilinear maps and the buoyancy map.

    Ratios ||B(x, y)|| / (||x|| ||y||) are measured over heat-evolved random
    trajectory pairs in the regime norms; lambda and eta are twice the
    largest observed ratio, following the convention that sampled constants
    get a factor-2 safety margin.  B1 and B2 are the rows of one flux batch
    through the zero-buoyancy ``_source_operator``.
    """
    config.validate_grid(grid)
    times = time_grid(config)

    def traj(half):
        return FieldTrajectory.from_half(grid, times, half)

    rng = np.random.default_rng(config.constant_seed)
    a = np.asarray(config.buoyancy, dtype=float)
    n = grid.dim
    flux_op = _source_operator(grid, (0.0,) * n, False)
    b1 = b2 = lin = 0.0
    for _ in range(CONSTANT_TRIALS):
        x1 = project_divergence_free(random_field(grid, rng, components=n).spectral, grid)
        x2 = project_divergence_free(random_field(grid, rng, components=n).spectral, grid)
        y = random_field(grid, rng).spectral
        x1_t = heat_stack(x1, grid, times)
        x2_t = heat_stack(x2, grid, times)
        y_t = heat_stack(y, grid, times)
        nx1 = velocity_norm(traj(x1_t), config, cutoffs)
        nx2 = velocity_norm(traj(x2_t), config, cutoffs)
        ny = scalar_norm(traj(y_t), config, cutoffs)

        # B1(x1, x2) = -P div(x1 (x) x2) and B2(x1, y) = -div(x1 y)
        xy = np.concatenate([x2_t, y_t], axis=-n - 1)
        nl12, nl_th = np.split(_sources(x1_t, xy, flux_op, grid), [n], axis=-n - 1)
        b1_val = velocity_norm(traj(_duhamel_stack(times, nl12, grid)), config, cutoffs)
        if nx1 * nx2 > 0:
            b1 = max(b1, b1_val / (nx1 * nx2))
        b2_val = scalar_norm(traj(_duhamel_stack(times, nl_th, grid)), config, cutoffs)
        if nx1 * ny > 0:
            b2 = max(b2, b2_val / (nx1 * ny))
        # L(y): +P(a y)
        buoy = project_divergence_free(
            a.reshape((n,) + (1,) * n) * y_t, grid
        )
        lin_val = velocity_norm(traj(_duhamel_stack(times, buoy, grid)), config, cutoffs)
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


def smallness_certificate(
    u0: Field,
    theta0: Field,
    config: SolverConfig,
    constants: dict | None = None,
    cutoffs: CutoffPair | None = None,
) -> SmallnessCertificate:
    """Evaluate the contraction condition for the given data and regime.

    ``constants`` may carry pre-measured {"lambda", "eta"}; otherwise they
    are measured (or taken from the config override).
    """
    grid = _data_grid(u0, theta0)
    config.validate_grid(grid)
    if constants is None:
        if config.lambda_ is not None and config.eta is not None:
            constants = {"lambda": config.lambda_, "eta": config.eta}
        else:
            constants = measure_operator_constants(grid, config, cutoffs)
    times = time_grid(config)
    u_space, th_space = data_spaces(config, grid.dim)
    return SmallnessCertificate.evaluate(
        constants["lambda"],
        constants["eta"],
        velocity_norm(heat_trajectory(u0, times), config, cutoffs),
        scalar_norm(heat_trajectory(theta0, times), config, cutoffs),
        besov_norm(u0, u_space, cutoffs),
        besov_norm(theta0, th_space, cutoffs),
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
    u0: Field,
    theta0: Field,
    config: SolverConfig,
    cutoffs: CutoffPair | None = None,
) -> tuple[FieldTrajectory, FieldTrajectory, IterationReport]:
    """Iterate the Duhamel map from the free evolution until contraction.

    Runs even when the smallness certificate fails (flagged in the report);
    stops as diverged if the pair norm grows past ``DIVERGENCE_GUARD`` times
    its initial value (``divergence`` "growth") or the pair norm or
    difference is not finite ("non-finite").
    """
    grid = _data_grid(u0, theta0)
    config.validate_grid(grid)
    if theta0.components != 1:
        raise ValueError("theta0 must be a scalar field")
    if u0.components != grid.dim:
        raise ValueError(f"u0 must have {grid.dim} components, got {u0.components}")
    u0 = Field.from_spectral(grid, project_divergence_free(u0.spectral, grid))
    cert = smallness_certificate(u0, theta0, config, cutoffs=cutoffs)
    a = np.asarray(config.buoyancy, dtype=float)
    times = time_grid(config)

    def traj(half):
        return FieldTrajectory.from_half(grid, times, half)

    # iteration 0 is the free evolution, whose norms the certificate holds
    u0_hat, th0_hat = u0.spectral, theta0.spectral
    u_hat = heat_stack(u0_hat, grid, times)
    th_hat = heat_stack(th0_hat, grid, times)
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
        new_u, new_th = _fixed_point_map(times, u_hat, th_hat, u0_hat, th0_hat, grid, a)
        du = velocity_norm(traj(new_u - u_hat), config, cutoffs)
        dth = scalar_norm(traj(new_th - th_hat), config, cutoffs)
        u_hat, th_hat = new_u, new_th
        u_norm = velocity_norm(traj(u_hat), config, cutoffs)
        th_norm = scalar_norm(traj(th_hat), config, cutoffs)
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
    u_traj, th_traj = traj(u_hat), traj(th_hat)
    report.residuals = residual_check(u_traj, th_traj, u0, theta0, config, cutoffs)
    return u_traj, th_traj, report


def residual_check(
    u: FieldTrajectory,
    theta: FieldTrajectory,
    u0: Field,
    theta0: Field,
    config: SolverConfig,
    cutoffs: CutoffPair | None = None,
) -> dict:
    """Regime-norm distance of (u, theta) from one more Duhamel application."""
    grid = _data_grid(u0, theta0)
    a = np.asarray(config.buoyancy, dtype=float)
    j1, j2 = _fixed_point_map(u.times, u.half, theta.half, u0.spectral, theta0.spectral, grid, a)
    ru = velocity_norm(
        FieldTrajectory.from_half(grid, u.times, u.half - j1), config, cutoffs
    )
    rth = scalar_norm(
        FieldTrajectory.from_half(grid, u.times, theta.half - j2), config, cutoffs
    )
    u_scale = max(velocity_norm(u, config, cutoffs), 1e-300)
    th_scale = max(scalar_norm(theta, config, cutoffs), 1e-300)
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
    refine: int | None = None,
) -> tuple[Field, Field]:
    """Integrate to t = T with exact per-step heat multiplier and explicit
    (frozen) nonlinearity; first order in the step size.

    The state is one stack (n + 1, N, ..., N/2+1) of the rfftn half spectra
    of (u, theta).  A step is one ``_sources`` batch through the cached
    ``_source_operator`` with the step weight folded into a copy of it, plus
    the heat decay.  Raises OracleInstabilityError when the state grows past
    1e3 times its initial size or stops being finite.
    """
    grid = _data_grid(u0, theta0)
    config.validate_grid(grid)
    refine = config.oracle_refine if refine is None else refine
    if refine < 1:
        raise ValueError(f"oracle refine must be >= 1, got {refine}")
    n = grid.dim
    nsteps = config.steps * refine
    dt = config.horizon / nsteps
    u_hat = project_divergence_free(u0.spectral, grid)
    state = np.concatenate([u_hat, theta0.spectral])
    x = grid.k_sq * dt
    decay = np.exp(-x)
    g1, _ = _panel_weights(x)
    op = dt * g1.ravel() * _source_operator(grid, tuple(config.buoyancy), True)

    def size(state):  # max |u| + max |theta|, from one np.abs
        peaks = np.abs(state).reshape(n + 1, -1).max(axis=1)
        return float(peaks[:n].max() + peaks[n])

    guard = 1e3 * max(size(state), 1e-300)
    for _ in range(nsteps):
        state = decay * state + _sources(state, state, op, grid)
        now = size(state)
        if not np.isfinite(now) or now > guard:
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
