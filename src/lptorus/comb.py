"""Lacunary Dirac-comb norms separating B^0_{inf,1} from B^{0,1}_{inf,inf}.

The witness is a one-dimensional comb of unit Fourier masses on the lacunary
radii 2^j,

    f = sum_{j=-1..J} a_j e_j,        e_j(x) = cos(2^j x),

whose dyadic blocks mix only the two neighbouring coefficients: the mode at
radius 2^j is split between blocks j-1 and j with weights summing to one.
Consequently

    sum_q ||block_q f||_inf   ~  sum_j |a_j|,
    sup_q (q+3) ||block_q f||_inf  ~  sup_j (j+3) |a_j|,

so a_j = 1/(j+3) has bounded log-weighted sup norm but logarithmically
divergent summed norm, and no inclusion holds in either direction.

Blocks are weighed through the convolution kernels of the cutoffs: h (inverse
transform of phi, and h-tilde of chi), each a trapezoid sum
h(y) = sum_i W_i cos(rho_i y) over the profile's nodes.  Block q weighs the
mode at radius omega by the kernel's cosine transform at omega / 2^q, the
trapezoid rule on the y grid of spacing dy, cached, inside the cutoff's
support (far below the band pi/dy of that grid, so no comb frequency aliases)
and by the exact 0.0 outside it.  Swapping the two sums puts that transform in
closed form, dy sum_i W_i [T((rho_i - a) dy) + T((rho_i + a) dy)] with
T(theta) = (1/2) sin(M theta) cot(theta / 2) the trapezoid cosine sum over the
M + 1 grid points, so no run samples the kernel: O(PROFILE_POINTS) work per
transform.  ``_kernel_table`` samples it only as the reference the closed form
is tested against.

Block sup norms are taken over a dense sample of one period of the lowest mode,
summing read-only rows cos(2^d theta) cached per offset d from that mode (the
comb's blocks meet d = 0 and 1 only).

Since the supports are exact, block q weighs only the modes j = q and q + 1,
and the norms visit only those: O(J) weights per comb, not O(J^2).  A block's
sup depends only on its amplitudes and exponent offsets, so ``comb_norms``
measures each distinct block once per call; the harmonic truncations share
every block below their top one.  Nothing is kept between calls, so one run
pays for its own blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cutoffs import CHI_FLAT_RADIUS, CutoffPair, build_cutoffs

SPLIT = 1 << 8  # coarse and fine factors of the y grid
KERNEL_POINTS = SPLIT * SPLIT  # samples of h on the half-line
KERNEL_EXTENT = 400.0  # the kernel decays super-polynomially; tail checked in tests
PROFILE_POINTS = 1 << 11
SUP_SAMPLES = 1 << 13


@dataclass(frozen=True)
class DiracCombSpec:
    """Coefficients a_j for j = -1..J of the lacunary comb."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", tuple(float(a) for a in self.coefficients)
        )
        if not all(map(math.isfinite, self.coefficients)):
            raise ValueError("comb coefficients must be finite")
        if self.J < 0:
            raise ValueError("need coefficients for at least j = -1 and j = 0")

    @property
    def J(self) -> int:
        return len(self.coefficients) - 2

    @classmethod
    def harmonic(cls, J: int) -> "DiracCombSpec":
        return cls(tuple(1.0 / (j + 3.0) for j in range(-1, J + 1)))

    @classmethod
    def kronecker(cls, k: int, J: int | None = None) -> "DiracCombSpec":
        if k < 0:
            raise ValueError("k must be >= 0")
        J = k + 2 if J is None else J
        coeffs = [0.0] * (J + 2)
        coeffs[k + 1] = 1.0 / (3.0 + k)
        return cls(tuple(coeffs))


@lru_cache(maxsize=None)
def _profile_nodes(cutoffs: CutoffPair) -> tuple[np.ndarray, dict]:
    """Nodes rho_i and, per kernel, W_i = w_i profile(rho_i), read-only.

    h(y) = (1/pi) int_0^inf phi(rho) cos(rho y) drho by the trapezoid rule is
    sum_i W_i cos(rho_i y): the weights w_i carry the 1/pi.
    """
    rho = np.linspace(0.0, 2.0 * cutoffs.gamma + 0.5, PROFILE_POINTS)
    weights = np.full(rho.size, (rho[1] - rho[0]) / np.pi)
    weights[[0, -1]] *= 0.5
    weighted = {"h": cutoffs.phi(rho) * weights, "h_tilde": cutoffs.chi(rho) * weights}
    for array in (rho, *weighted.values()):
        array.setflags(write=False)
    return rho, weighted


@lru_cache(maxsize=None)
def _kernel_table(cutoffs: CutoffPair) -> dict:
    """h = F^-1 phi and h~ = F^-1 chi sampled on [0, KERNEL_EXTENT].

    No run path calls this: ``_cosine_transform`` gives the same trapezoid
    sums in closed form.  It stays as the sampled reference the closed form is
    tested against, and because the benchmark tracer wraps it by name.
    """
    # entry (b, t) of each product is the sample at y = ys[SPLIT b + t]
    rho, weighted = _profile_nodes(cutoffs)
    ys = np.linspace(0.0, KERNEL_EXTENT, KERNEL_POINTS)
    coarse = np.outer(ys[::SPLIT], rho)
    fine = np.outer(rho, ys[:SPLIT])
    cos_c, sin_c = np.cos(coarse), np.sin(coarse)
    cos_f, sin_f = np.cos(fine), np.sin(fine)
    table = {"y": ys}
    for key, w in weighted.items():
        table[key] = ((cos_c * w) @ cos_f - (sin_c * w) @ sin_f).ravel()
    return table


def _trapezoid_cosines(theta: np.ndarray) -> np.ndarray:
    """T(theta) = sum_{t=0..M} c_t cos(t theta), c_0 = c_M = 1/2, c_t = 1 else.

    In closed form (1/2) sin(M theta) cot(theta / 2), and M at theta = 0;
    M = KERNEL_POINTS - 1.
    """
    m = KERNEL_POINTS - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        total = 0.5 * np.sin(m * theta) / np.tan(0.5 * theta)
    return np.where(theta == 0.0, float(m), total)


@lru_cache(maxsize=4096)
def _cosine_transform(kernel: str, arg: float, cutoffs: CutoffPair) -> float:
    """2 int_0^inf kernel(y) cos(arg y) dy by the trapezoid rule on the y grid.

    With kernel(y) = sum_i W_i cos(rho_i y) and y_t = t dy, the sum over the
    grid is dy sum_i W_i [T((rho_i - arg) dy) + T((rho_i + arg) dy)]: the
    table's quadrature in closed form, equal to it up to roundoff.
    """
    rho, weighted = _profile_nodes(cutoffs)
    dy = KERNEL_EXTENT / (KERNEL_POINTS - 1)
    cosines = _trapezoid_cosines((rho - arg) * dy) + _trapezoid_cosines((rho + arg) * dy)
    return float(dy * np.sum(weighted[kernel] * cosines))


def kernel_multiplier(
    omega: float, q: int, cutoffs: CutoffPair | None = None
) -> float:
    """Block-q weight of the mode cos(omega x), via the kernel's cosine transform.

    For q >= 0 this is the cosine transform of 2^q h(2^q .) at omega, i.e.
    the numerically recovered phi(2^-q omega); for q = -1 it is the recovered
    chi(omega).  Outside the cutoff's support (and for q <= -2) it is the
    exact 0.0 at any omega, with no quadrature; a nan omega is rejected.
    """
    if math.isnan(omega):
        raise ValueError("omega must not be nan")
    if q <= -2:
        return 0.0
    cut = cutoffs or build_cutoffs()
    if q == -1:
        kernel, arg, lo, hi = "h_tilde", abs(omega), 0.0, cut.gamma
    else:
        kernel, arg = "h", abs(omega) / 2.0**q
        lo, hi = CHI_FLAT_RADIUS, 2.0 * cut.gamma
    if not lo <= arg <= hi:
        return 0.0
    return _cosine_transform(kernel, arg, cut)


@lru_cache(maxsize=16)
def _sup_row(d: int) -> np.ndarray:
    """cos(2^d theta) on SUP_SAMPLES points of [0, 2 pi), read-only."""
    theta = np.linspace(0.0, 2.0 * np.pi, SUP_SAMPLES, endpoint=False)
    row = np.cos(2.0**d * theta)
    row.setflags(write=False)
    return row


def _block_sup(amps: list[float], exponents: list[int]) -> float:
    """sup_x |sum_i amps[i] cos(2^{e_i} x)| over one period of the lowest mode."""
    if not amps:
        return 0.0
    base = min(exponents)
    total = np.zeros(SUP_SAMPLES)
    for amp, e in zip(amps, exponents):
        total += amp * _sup_row(e - base)
    return float(np.max(np.abs(total)))


def comb_norms(specs) -> list[tuple[float, float]]:
    """``dirac_comb_norms`` of each spec, measuring each distinct block once.

    Block q of a comb weighs only the modes j = q and q + 1: for q >= 0 the
    argument 2^(j-q) of phi lies in its support [3/4, 8/3] only there, and
    for q = -1 chi's support {2^j <= 4/3} holds j = -1 and 0 only, so every
    other mode's weight is the exact 0.0 and is not visited.  A block's sup
    depends only on its amplitudes and on its exponents' offsets from its
    lowest mode, so it is taken once per such key within this call (the
    harmonic truncations share every block below their top one); nothing is
    kept between calls.
    """
    sups: dict = {}
    norms = []
    for spec in specs:
        J = spec.J
        partial = 0.0
        weighted_sup = 0.0
        for q in range(-1, J + 1):
            amps, expos = [], []
            for j in range(q, min(q + 1, J) + 1):
                a = spec.coefficients[j + 1]
                if a == 0.0:
                    continue
                w = kernel_multiplier(2.0**j, q)
                if abs(w) < 1e-9:
                    continue
                amps.append(a * w)
                expos.append(j)
            key = (tuple(amps), tuple(e - min(expos) for e in expos))
            if key not in sups:
                sups[key] = _block_sup(amps, expos)
            sup = sups[key]
            partial += sup
            weighted_sup = max(weighted_sup, (q + 3.0) * sup)
        norms.append((partial, weighted_sup))
    return norms


def dirac_comb_norms(spec: DiracCombSpec, dim: int = 1) -> tuple[float, float]:
    """(partial sum_q ||block_q f||_inf for q <= J, sup_q (q+3) ||block_q f||_inf).

    Comparable within fixed constants to sum_j |a_j| and sup_j (j+3) |a_j|.
    The construction is one-dimensional.  Each block visits only the two
    modes its cutoff can weigh (see ``comb_norms``), so the cost is O(J).
    """
    if dim != 1:
        raise ValueError("the comb norms are computed in one dimension only")
    return comb_norms([spec])[0]
