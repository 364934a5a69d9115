"""Bony splitting of a product and sampled bilinear-estimate constants.

A product of band-limited fields splits into two paraproducts and a diagonal
remainder,

    u v = T(u, v) + T(v, u) + R(u, v),
    T(u, v) = sum_{q} S_{q-1} u * block_q v,
    R(u, v) = sum_{|l| <= 1} sum_{q} block_q u * block_{q+l} v,

with every partial product dealiased, so the identity holds to roundoff on
the retained band.  T(u, v) collects interactions where u sits at strictly
lower frequency than v; R collects the comparable-frequency diagonal.

``bilinear_constant_estimate`` samples the boundedness constants of the
product estimates that the fixed-point argument consumes.  The estimates are
identified by the ids "2.4", "2.5", "2.6", "2.7":

    2.4: ||uv||_{B^0_{p,r}}          <= C ||u||_{B^0_{p1,1} ^ B^{0,1}_{p1,inf}} ||v||_{B^0_{p2,r}}
    2.5: same with the intersection norm on both sides (Banach algebra when
         p1 = p2 = inf)
    2.6: the time-integrated version of 2.4 with 1/rho = 1/rho1 + 1/rho2
    2.7: the time-integrated version of 2.5

Constants are never asserted against an absolute value; the check is that
the sampled max ratio is stable (within 1.2x) when the resolution doubles,
with every trial field drawn once on the coarsest lattice and embedded, so
the same continuum data is measured at each resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .besov import (
    INF,
    BesovSpec,
    FieldTrajectory,
    besov_norm,
    block_lp_norms,
    chemin_lerner_mixed_norm,
    chemin_lerner_norm,
    heat_trajectory,
    mixed_norm,
)
from .cutoffs import CutoffPair, build_cutoffs
from .dyadic import block_weights, lowpass_weights, shell_max
from .ensembles import random_field
from .spectral import Field, Grid, dealias_multiply, dealiased_products


@dataclass(frozen=True)
class BonyParts:
    """The three pieces of the product decomposition; their sum is u*v."""

    Tuv: Field
    Tvu: Field
    Ruv: Field

    def total(self) -> Field:
        return self.Tuv + self.Tvu + self.Ruv


def paraproduct_T(u: Field, v: Field, cutoffs: CutoffPair | None = None) -> Field:
    """Low-high paraproduct sum_q S_{q-1} u * block_q v (dealiased)."""
    cut = cutoffs or build_cutoffs()
    grid = u.grid
    if v.grid != grid:
        raise ValueError("fields live on different grids")
    qm = shell_max(grid, cut)
    total = None
    for q in range(1, qm + 1):  # S_{q-1} vanishes for q <= 0
        low = u.spectral * lowpass_weights(grid, q - 1, cut)
        high = v.spectral * block_weights(grid, q, cut)
        term = dealias_multiply(low, high, grid)
        total = term if total is None else total + term
    if total is None:
        return Field.zeros(grid, max(u.components, v.components))
    return Field.from_spectral(grid, total)


def remainder_R(u: Field, v: Field, cutoffs: CutoffPair | None = None) -> Field:
    """Diagonal remainder sum_q block_q u * (block_{q-1} + block_q + block_{q+1}) v."""
    cut = cutoffs or build_cutoffs()
    grid = u.grid
    if v.grid != grid:
        raise ValueError("fields live on different grids")
    qs = range(-1, shell_max(grid, cut) + 1)
    bv = np.stack([v.spectral * block_weights(grid, q, cut) for q in qs])
    near = bv.copy()  # block_{q-1} + block_q + block_{q+1} v, shells in qs only
    near[1:] += bv[:-1]
    near[:-1] += bv[1:]
    # one product per shell: one call on the stack of all shells ran slower
    terms = (
        dealias_multiply(u.spectral * block_weights(grid, q, cut), b, grid)
        for q, b in zip(qs, near)
    )
    return Field.from_spectral(grid, sum(terms))


def bony_decompose(u: Field, v: Field, cutoffs: CutoffPair | None = None) -> BonyParts:
    return BonyParts(
        paraproduct_T(u, v, cutoffs),
        paraproduct_T(v, u, cutoffs),
        remainder_R(u, v, cutoffs),
    )


# ---------------------------------------------------------------------------
# sampled estimate constants


def _harmonic_conjugate(*exponents: float) -> float:
    inv = sum(0.0 if e == INF else 1.0 / e for e in exponents)
    return INF if inv == 0 else 1.0 / inv


ESTIMATE_IDS = ("2.4", "2.5", "2.6", "2.7")


@dataclass(frozen=True)
class BilinearEstimateSpec:
    """One sampled estimate: id, exponents, trial count and seed."""

    estimate: str
    p1: float = INF
    p2: float = 2.0
    r: float = 2.0
    rho1: float = 2.0
    rho2: float = 2.0
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.estimate not in ESTIMATE_IDS:
            raise ValueError(f"unknown estimate id {self.estimate!r}")
        for name in ("p1", "p2", "r", "rho1", "rho2"):
            value = float(getattr(self, name))
            if not value >= 1.0:
                raise ValueError(f"{name} must lie in [1, inf]")

    @property
    def p(self) -> float:
        return _harmonic_conjugate(self.p1, self.p2)

    @property
    def rho(self) -> float:
        return _harmonic_conjugate(self.rho1, self.rho2)

    @property
    def time_dependent(self) -> bool:
        return self.estimate in ("2.6", "2.7")


def _static_ratio(spec: BilinearEstimateSpec, u: Field, v: Field, cut) -> float:
    prod = Field.from_spectral(u.grid, dealias_multiply(u.spectral, v.spectral, u.grid))
    u_mixed = mixed_norm(block_lp_norms(u, spec.p1, cut))
    if spec.estimate == "2.4":
        lhs = besov_norm(prod, BesovSpec(0, spec.p, spec.r), cut)
        rhs = u_mixed * besov_norm(v, BesovSpec(0, spec.p2, spec.r), cut)
    else:  # 2.5
        lhs = mixed_norm(block_lp_norms(prod, spec.p, cut))
        rhs = u_mixed * mixed_norm(block_lp_norms(v, spec.p2, cut))
    return lhs / rhs if rhs > 0 else 0.0


def _time_ratio(
    spec: BilinearEstimateSpec,
    u: FieldTrajectory,
    v: FieldTrajectory,
    cut,
) -> float:
    # one sample at a time: the whole padded stack costs memory and no time;
    # the trajectories are scalar, so each sample is the one product (0, 0)
    halves = zip(u.half, v.half)
    prod = np.stack([dealiased_products(a, b, [(0, 0)], u.grid) for a, b in halves])
    prod = FieldTrajectory.from_half(u.grid, u.times, prod, u.T)
    u_mixed = chemin_lerner_mixed_norm(u, spec.rho1, spec.p1, cut)
    if spec.estimate == "2.6":
        lhs = chemin_lerner_norm(prod, spec.rho, BesovSpec(0, spec.p, spec.r), cut)
        rhs = u_mixed * chemin_lerner_norm(
            v, spec.rho2, BesovSpec(0, spec.p2, spec.r), cut
        )
    else:  # 2.7
        lhs = chemin_lerner_mixed_norm(prod, spec.rho, spec.p, cut)
        rhs = u_mixed * chemin_lerner_mixed_norm(v, spec.rho2, spec.p2, cut)
    return lhs / rhs if rhs > 0 else 0.0


def bilinear_constant_estimate(
    spec: BilinearEstimateSpec,
    dim: int = 2,
    resolutions: tuple[int, ...] = (32, 64),
    period: float = 2.0 * math.pi,
    time_samples: int = 13,
    cutoffs: CutoffPair | None = None,
) -> dict:
    """Sample LHS/RHS ratios of one product estimate across resolutions.

    Fields are drawn on the coarsest lattice and embedded into each finer
    grid; trajectories (for the time-integrated estimates) are free heat
    evolutions of those fields on [0, 1].  Passing requires the max ratio at
    each finer resolution to stay within 1.2x of the coarsest one.
    """
    cut = cutoffs or build_cutoffs()
    resolutions = tuple(sorted(resolutions))
    ref = Grid(dim, resolutions[0], period)
    grids = [Grid(dim, n, period) for n in resolutions]
    times = np.linspace(0.0, 1.0, time_samples)
    rng = np.random.default_rng(spec.seed)
    ratios = {g.points: [] for g in grids}
    for _ in range(spec.trials):
        state = rng.bit_generator.state
        for g in grids:
            rng.bit_generator.state = state  # same draw on every lattice
            u = random_field(g, rng, ref_grid=ref)
            v = random_field(g, rng, ref_grid=ref)
            if spec.time_dependent:
                utraj, vtraj = heat_trajectory(u, times), heat_trajectory(v, times)
                ratio = _time_ratio(spec, utraj, vtraj, cut)
            else:
                ratio = _static_ratio(spec, u, v, cut)
            if ratio > 0:
                ratios[g.points].append(ratio)
    stats = {
        n: {
            "max": float(np.max(vals)) if vals else 0.0,
            "median": float(np.median(vals)) if vals else 0.0,
            "count": len(vals),
        }
        for n, vals in ratios.items()
    }
    base = stats[resolutions[0]]["max"]
    stable = all(
        stats[n]["max"] <= 1.2 * base + 1e-30 for n in resolutions[1:]
    )
    return {
        "estimate": spec.estimate,
        "exponents": {
            "p": spec.p,
            "p1": spec.p1,
            "p2": spec.p2,
            "r": spec.r,
            "rho": spec.rho,
            "rho1": spec.rho1,
            "rho2": spec.rho2,
        },
        "trials": spec.trials,
        "seed": spec.seed,
        "resolutions": list(resolutions),
        "stats": stats,
        "pass": stable,
    }
