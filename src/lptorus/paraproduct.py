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
block of a factor goes to the 3N/2 grid by one c2r cut to its shell's
columns, S_{q-1} is a running sum of block values there, and one r2c of the
summed parts gives them all.
``verify bony`` draws its factors below N/4, so it runs the same sums on the
N grid, where such products do not alias.

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

The sampled products need no 3/2 rule: every draw is band-limited to the
reference cap 3 N_ref / 16, so each product mode has |k_i| <= 3 N_ref / 8 <
N_ref / 2.  Nothing aliases on the reference lattice itself (Orszag's bound
with no padding), and the pointwise product of the factors' grid values is
the exact product.  So each trial forms its product once, on the reference
lattice, and lifts u, v and uv to every resolution; the finer grids only
measure.  The public Bony parts above take factors up to Nyquist and keep
the 3/2 grid, as do ``spectral.dealiased_product`` and
``dyadic.support_report``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .besov import INF, BesovSpec, FieldTrajectory, MixedSpec, _block_table, chemin_lerner_norm
from .dyadic import _block_values
from .ensembles import random_spectrum
from .parallel import fork_map
from .spectral import (
    Field,
    Grid,
    _band_spectrum,
    _c2r,
    _r2c,
    _zero_nyquist,
    embed_spectrum,
    heat_stack,
)


@dataclass(frozen=True)
class BonyParts:
    """The three pieces of the product decomposition; their sum is u*v."""

    Tuv: Field
    Tvu: Field
    Ruv: Field

    def total(self) -> Field:
        return self.Tuv + self.Tvu + self.Ruv


def _low_high(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """out += sum_{q >= 1} S_{q-1} a * block_q b, from block values."""
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


def _bony_parts(
    u: Field, v: Field, names: tuple[str, ...], points: int | None = None
) -> list[Field]:
    """The parts ``names`` of u v ("Tuv", "Tvu", "Ruv"), summed in place on
    the ``points``^n grid (3N/2 by default, N for factors band-limited below
    N/4) from both factors' block values, with one r2c for all."""
    if v.grid != u.grid:
        raise ValueError("fields live on different grids")
    m = points or 3 * u.grid.points // 2
    bu, bv = _block_values(u, m), _block_values(v, m)
    tmp = np.empty(np.broadcast_shapes(bu.shape[1:], bv.shape[1:]))
    sums = np.zeros((len(names),) + tmp.shape)
    terms = {"Tuv": (_low_high, bu, bv), "Tvu": (_low_high, bv, bu), "Ruv": (_diagonal, bu, bv)}
    for out, (accumulate, a, b) in zip(sums, (terms[name] for name in names)):
        accumulate(a, b, out, tmp)
    return [Field.from_spectral(u.grid, spec) for spec in _band_spectrum(sums, u.grid)]


def paraproduct_T(u: Field, v: Field) -> Field:
    """Low-high paraproduct sum_q S_{q-1} u * block_q v (dealiased)."""
    return _bony_parts(u, v, ("Tuv",))[0]


def remainder_R(u: Field, v: Field) -> Field:
    """Diagonal remainder sum_q block_q u * (block_{q-1} + block_q + block_{q+1}) v."""
    return _bony_parts(u, v, ("Ruv",))[0]


def bony_decompose(u: Field, v: Field) -> BonyParts:
    return BonyParts(*_bony_parts(u, v, ("Tuv", "Tvu", "Ruv")))


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


def _lifted_trial(draw, ref: Grid, grids, times):
    """(u, v, uv) on each grid in turn: the half spectra of one trial's draws
    and of their product, lifted from the reference lattice.

    Unless ``times`` is None the draws are first heat-evolved there into
    stacks, one sample per time.  The product is formed once on the reference lattice,
    one c2r per factor, a multiply in place and one r2c: it reaches 3 N_ref
    / 8 < N_ref / 2, so it is exact there (module docstring) and its Nyquist
    planes hold only roundoff, which is zeroed before ``embed_spectrum``.
    """
    dim, n = ref.dim, ref.points
    u, v = draw if times is None else (heat_stack(coeffs, ref, times) for coeffs in draw)
    values = _c2r(u, dim, n)
    values *= _c2r(v, dim, n)
    uv = _zero_nyquist(_r2c(values, dim, n // 2 + 1), dim, n)
    for grid in grids:
        yield tuple(embed_spectrum(half, dim, n, grid.points) for half in (u, v, uv))


def _ratio(spec: BilinearEstimateSpec, grid: Grid, times, u, v, uv) -> float:
    """LHS/RHS of the estimate from the half spectra of u, v and uv on
    ``grid``: one sample each, or stacks sampled at ``times`` (2.6, 2.7)."""

    def norm(half, space, rho):
        if times is None:
            return space.reduce(_block_table(half, grid, space.p))
        return chemin_lerner_norm(FieldTrajectory.from_half(grid, times, half), rho, space)

    u_space, v_space, uv_space = spec.spaces
    rhs = norm(u, u_space, spec.rho1) * norm(v, v_space, spec.rho2)
    lhs = norm(uv, uv_space, spec.rho)
    return lhs / rhs if rhs > 0 else 0.0


def _median(vals: list[float]) -> float:
    """``np.median`` of a list without NaN, bit for bit, without importing ``numpy.ma``
    (11-16 ms, ``np.median``'s first call) or ``statistics`` (3 ms: ``fractions``, ``decimal``)."""
    vals, mid = sorted(vals), len(vals) // 2
    return float(vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2)


def bilinear_constant_estimate(
    spec: BilinearEstimateSpec,
    dim: int = 2,
    resolutions: tuple[int, ...] = (32, 64),
    time_samples: int = 13,
) -> dict:
    """Sample LHS/RHS ratios of one product estimate across resolutions.

    Fields are drawn on the coarsest lattice and lifted into each finer
    grid; trajectories (for the time-integrated estimates) are free heat
    evolutions of those fields on [0, 1].  The draws are not normalized:
    each ratio is homogeneous of degree 0 in each factor.  Passing requires
    the max ratio at each finer resolution to stay within 1.2x of the
    coarsest one.  The trials run through ``fork_map``, which gives
    ``workers`` and ``children_maxrss_mb``.
    """
    resolutions = tuple(sorted(resolutions))
    if len(set(resolutions)) < len(resolutions):
        raise ValueError(f"resolutions must be distinct, got {list(resolutions)}")
    ref = Grid(dim, resolutions[0])
    grids = [Grid(dim, n) for n in resolutions]
    times = np.linspace(0.0, 1.0, time_samples) if spec.time_dependent else None
    rng = np.random.default_rng(spec.seed)
    # both draws of every trial here, on the coarsest lattice in rng order;
    # the trials then run on forked workers and come back in trial order
    draws = [(random_spectrum(ref, rng), random_spectrum(ref, rng)) for _ in range(spec.trials)]

    def trial(draw) -> list[float]:  # its ratio at each resolution
        lifted = _lifted_trial(draw, ref, grids, times)
        return [_ratio(spec, g, times, *halves) for g, halves in zip(grids, lifted)]

    per_trial, workers, child_mb = fork_map(trial, draws)
    ratios = {g.points: [] for g in grids}
    for trial_ratios in per_trial:
        for g, ratio in zip(grids, trial_ratios):
            if ratio > 0:
                ratios[g.points].append(ratio)
    stats = {
        n: {
            "max": float(np.max(vals)) if vals else 0.0,
            "median": _median(vals) if vals else 0.0,
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
        "children_maxrss_mb": child_mb,
    }
