"""Bony splitting of a product and sampled bilinear-estimate constants.

A product of band-limited fields splits into two paraproducts and a diagonal
remainder,

    u v = T(u, v) + T(v, u) + R(u, v),
    T(u, v) = sum_{q} S_{q-1} u * block_q v,
    R(u, v) = sum_{|l| <= 1} sum_{q} block_q u * block_{q+l} v,

with every partial product dealiased, so the identity holds to roundoff on
the retained band.  T(u, v) collects interactions where u sits at strictly
lower frequency than v; R collects the comparable-frequency diagonal.

The 3/2 rule is linear, so no part is made one product per shell: each
factor's blocks go to the 3N/2 grid in one batched c2r, S_{q-1} is a running
sum of block values there, and one r2c of the summed parts gives them all.

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
    MixedSpec,
    besov_norm,
    chemin_lerner_norm,
    heat_trajectory,
)
from .cutoffs import CutoffPair, build_cutoffs
from .dyadic import _padded_blocks
from .ensembles import embedded_field, random_spectrum
from .parallel import fork_map
from .spectral import Field, Grid, _band_spectrum, dealiased_product, dealiased_products


@dataclass(frozen=True)
class BonyParts:
    """The three pieces of the product decomposition; their sum is u*v."""

    Tuv: Field
    Tvu: Field
    Ruv: Field

    def total(self) -> Field:
        return self.Tuv + self.Tvu + self.Ruv


def _low_high(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """out += sum_{q >= 1} S_{q-1} a * block_q b, from padded block values."""
    low = np.zeros_like(a[0])
    for q in range(1, len(b) - 1):  # S_{q-1} vanishes for q <= 0
        low += a[q - 1]  # block q - 2: low is S_{q-1} a
        out += np.multiply(low, b[q + 1], out=tmp)


def _diagonal(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """out += sum_q block_q a * (block_{q-1} + block_q + block_{q+1}) b."""
    near = np.empty_like(b[0])
    for i in range(len(a)):  # the shells -1..shell_max only
        np.sum(b[max(i - 1, 0) : i + 2], axis=0, out=near)
        out += np.multiply(a[i], near, out=tmp)


def _bony_parts(u: Field, v: Field, cutoffs, names: tuple[str, ...]) -> list[Field]:
    """The parts ``names`` of u v ("Tuv", "Tvu", "Ruv"), summed in place on
    the 3N/2 grid from both factors' block values, with one r2c for all."""
    if v.grid != u.grid:
        raise ValueError("fields live on different grids")
    cut = cutoffs or build_cutoffs()
    bu, bv = _padded_blocks(u, cut), _padded_blocks(v, cut)
    tmp = np.empty(np.broadcast_shapes(bu.shape[1:], bv.shape[1:]))
    sums = np.zeros((len(names),) + tmp.shape)
    terms = {"Tuv": (_low_high, bu, bv), "Tvu": (_low_high, bv, bu), "Ruv": (_diagonal, bu, bv)}
    for out, (accumulate, a, b) in zip(sums, (terms[name] for name in names)):
        accumulate(a, b, out, tmp)
    return [Field.from_spectral(u.grid, spec) for spec in _band_spectrum(sums, u.grid)]


def paraproduct_T(u: Field, v: Field, cutoffs: CutoffPair | None = None) -> Field:
    """Low-high paraproduct sum_q S_{q-1} u * block_q v (dealiased)."""
    return _bony_parts(u, v, cutoffs, ("Tuv",))[0]


def remainder_R(u: Field, v: Field, cutoffs: CutoffPair | None = None) -> Field:
    """Diagonal remainder sum_q block_q u * (block_{q-1} + block_q + block_{q+1}) v."""
    return _bony_parts(u, v, cutoffs, ("Ruv",))[0]


def bony_decompose(u: Field, v: Field, cutoffs: CutoffPair | None = None) -> BonyParts:
    return BonyParts(*_bony_parts(u, v, cutoffs, ("Tuv", "Tvu", "Ruv")))


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

    @property
    def spaces(self) -> tuple:
        """The spaces of u, v and uv, at s = 0: u in the intersection
        B^0_{p1,1} ^ B^{0,1}_{p1,inf}; v and uv in B^0_{.,r} (2.4, 2.6) or in
        the intersection too (2.5, 2.7)."""
        if self.estimate in ("2.4", "2.6"):
            v, uv = BesovSpec(0, self.p2, self.r), BesovSpec(0, self.p, self.r)
        else:
            v, uv = MixedSpec(0, self.p2), MixedSpec(0, self.p)
        return MixedSpec(0, self.p1), v, uv


def _static_ratio(spec: BilinearEstimateSpec, u: Field, v: Field, cut) -> float:
    prod = dealiased_product(u, v)
    u_space, v_space, uv_space = spec.spaces
    rhs = besov_norm(u, u_space, cut) * besov_norm(v, v_space, cut)
    lhs = besov_norm(prod, uv_space, cut)
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
    u_space, v_space, uv_space = spec.spaces
    rhs = chemin_lerner_norm(u, spec.rho1, u_space, cut) * chemin_lerner_norm(
        v, spec.rho2, v_space, cut
    )
    lhs = chemin_lerner_norm(prod, spec.rho, uv_space, cut)
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
    each finer resolution to stay within 1.2x of the coarsest one.  The
    trials run through ``fork_map``; ``workers`` is the processes it used.
    """
    cut = cutoffs or build_cutoffs()
    resolutions = tuple(sorted(resolutions))
    ref = Grid(dim, resolutions[0], period)
    grids = [Grid(dim, n, period) for n in resolutions]
    times = np.linspace(0.0, 1.0, time_samples)
    rng = np.random.default_rng(spec.seed)
    # both draws of every trial here, on the coarsest lattice in rng order;
    # the trials then run on forked workers and come back in trial order
    draws = [(random_spectrum(ref, rng), random_spectrum(ref, rng)) for _ in range(spec.trials)]

    def trial(draw) -> list[float]:  # its ratio at each resolution
        fields = [[embedded_field(g, coeffs, ref) for coeffs in draw] for g in grids]
        if spec.time_dependent:
            fields = [[heat_trajectory(f, times) for f in uv] for uv in fields]
            return [_time_ratio(spec, *uv, cut) for uv in fields]
        return [_static_ratio(spec, *uv, cut) for uv in fields]

    per_trial, workers = fork_map(trial, draws)
    ratios = {g.points: [] for g in grids}
    for trial_ratios in per_trial:
        for g, ratio in zip(grids, trial_ratios):
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
        "workers": workers,
    }
