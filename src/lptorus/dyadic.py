"""Nonhomogeneous dyadic (Littlewood-Paley) decomposition on the torus.

Blocks act as radial Fourier multipliers built from the cutoff pair:

    block -1:  chi(|k|)
    block q:   phi(2^-q |k|)     for q >= 0
    block q:   0                 for q <= -2

and the partial sum below 2^q is the multiplier chi(2^-q |k|).  ``shell_max``
is the largest q whose shell {3/4 * 2^q <= |k| <= 8/3 * 2^q} fits entirely
under the Nyquist frequency; a field is reconstructed exactly from blocks
-1..shell_max iff its spectrum sits below ``reconstruction_cap`` = 1.5 *
2^shell_max.

``support_report`` certifies the frequency-localization identities that drive
every product estimate downstream: blocks two shells apart annihilate each
other, a low-high paraproduct summand stays inside a known annulus around
2^q, and a diagonal (remainder) summand has no content above 8 * 2^q.  Those
are convolution-support statements, so they are checked directly on the
spectral coefficients of dealiased products, which implies the corresponding
block products vanish wherever such blocks exist on the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cutoffs import CHI_FLAT_RADIUS, GAMMA, CutoffPair, build_cutoffs
from .spectral import Field, Grid, _band_spectrum, _c2r, _padded


def shell_max(grid: Grid) -> int:
    """Largest q with 2 * gamma * 2^q <= Nyquist; -1 if no full shell fits."""
    q = -1
    while 2.0 * GAMMA * 2.0 ** (q + 1) <= grid.nyquist * (1 + 1e-12):
        q += 1
    return q


def require_shell(grid: Grid) -> Grid:
    """``grid``; with no full dyadic shell every block check is vacuous."""
    if shell_max(grid) < 0:
        raise ValueError(f"no full dyadic shell fits a grid of N = {grid.points} points")
    return grid


def reconstruction_cap(grid: Grid) -> float:
    """Spectral radius below which blocks -1..shell_max reproduce the field."""
    return CHI_FLAT_RADIUS * 2.0 ** (shell_max(grid) + 1)


def shell_bounds(q: int) -> tuple[float, float]:
    """Support radii (lo, hi) of block q's multiplier."""
    if q <= -2:
        return (0.0, 0.0)
    if q == -1:
        return (0.0, GAMMA)
    return (2.0**q / GAMMA, 2.0 * GAMMA * 2.0**q)


@lru_cache(maxsize=None)
def _lowpass_weights(grid: Grid, q: int, cutoffs: CutoffPair) -> np.ndarray:
    w = np.zeros(grid.k_abs.shape) if q <= -1 else cutoffs.chi(grid.k_abs / 2.0**q)
    w.setflags(write=False)
    return w


@lru_cache(maxsize=None)
def _block_weights(grid: Grid, q: int, cutoffs: CutoffPair) -> np.ndarray:
    # phi(x) = chi(x/2) - chi(x), and halving 2^-q |k| is exact: bit for bit
    # phi(2^-q |k|) for q >= 0, chi(|k|) for q = -1 and zero below
    w = _lowpass_weights(grid, q + 1, cutoffs) - _lowpass_weights(grid, q, cutoffs)
    w.setflags(write=False)
    return w


def block_weights(grid: Grid, q: int, cutoffs: CutoffPair | None = None) -> np.ndarray:
    """Multiplier of block q on the half lattice (N, ..., N/2+1); cached and
    read-only."""
    return _block_weights(grid, int(q), cutoffs or build_cutoffs())


@lru_cache(maxsize=None)
def _shell_columns(grid: Grid, q: int, cut: CutoffPair) -> int:
    """Half-lattice columns of block q up to the last one holding a nonzero
    weight (at least one): the only ones a block's c2r reads."""
    w = block_weights(grid, q, cut)
    used = np.flatnonzero(np.any(w != 0, axis=tuple(range(grid.dim - 1))))
    return int(used[-1]) + 1 if used.size else 1


def lowpass_weights(grid: Grid, q: int, cutoffs: CutoffPair | None = None) -> np.ndarray:
    """Multiplier of the partial sum below 2^q (zero for q <= -1) on the half
    lattice; cached and read-only."""
    return _lowpass_weights(grid, int(q), cutoffs or build_cutoffs())


def _block_values(f: Field, m: int) -> np.ndarray:
    """Blocks -1..shell_max of ``f`` as values on the m^n grid, m = N or 3N/2,
    (shell_max + 2, components, m, ..., m): per shell one c2r of the block
    cut to the columns its weights reach (``_shell_columns``), padded first
    by ``_padded`` at m = 3N/2.  Sums of their products, brought back by
    ``_band_spectrum``, are exact on the band at m = 3N/2 (the 3/2 rule), and
    at m = N when every product stays below N/2 per axis, as for factors
    band-limited below N/4."""
    grid, cut, qm = f.grid, build_cutoffs(), shell_max(f.grid)
    out = np.empty((qm + 2, f.components) + (m,) * grid.dim)
    for q in range(-1, qm + 1):
        c, w = _shell_columns(grid, q, cut), block_weights(grid, q, cut)
        half = f.spectral[..., :c] * w[..., :c] if m == grid.points else _padded(f.spectral * w, grid, m)[..., :c]
        _c2r(half, grid.dim, m, out[q + 1], overwrite=True)
    return out


def dyadic_block(f: Field, q: int, cutoffs: CutoffPair | None = None) -> Field:
    """Frequency block of ``f`` around |k| ~ 2^q (zero field for q <= -2)."""
    return Field.from_spectral(f.grid, f.spectral * block_weights(f.grid, q, cutoffs))


def partial_sum(f: Field, q: int, cutoffs: CutoffPair | None = None) -> Field:
    """Sum of blocks strictly below q, i.e. the low-pass chi(2^-q D) f (zero
    for q <= -1)."""
    return Field.from_spectral(
        f.grid, f.spectral * lowpass_weights(f.grid, q, cutoffs)
    )


@dataclass(frozen=True)
class DyadicDecomposition:
    """Blocks -1..q_max of a source field (q_max = shell_max of its grid)."""

    source: Field
    blocks: tuple[Field, ...]
    q_max: int

    def block(self, q: int) -> Field:
        if q < -1 or q > self.q_max:
            return Field.zeros(self.source.grid, self.source.components)
        return self.blocks[q + 1]

    def reconstruction(self) -> Field:
        return sum(self.blocks[1:], self.blocks[0])


def decompose(f: Field) -> DyadicDecomposition:
    qm = shell_max(f.grid)
    blocks = tuple(dyadic_block(f, q) for q in range(-1, qm + 1))
    return DyadicDecomposition(f, blocks, qm)


# ---------------------------------------------------------------------------
# frequency-localization certificates


def _max_outside(spec: np.ndarray, grid: Grid, lo: float, hi: float) -> float:
    """Largest |coefficient| of a half spectrum outside lo <= |k| <= hi."""
    outside = (grid.k_abs < lo - 1e-12) | (grid.k_abs > hi + 1e-12)
    return float(np.max(np.abs(spec[..., outside]), initial=0.0))


def support_report(f: Field, g: Field) -> dict:
    """Verify the block-interaction support identities on a field pair.

    Returns per-identity maximal violating coefficients, relative to the
    product of the inputs' sup norms, together with a global pass flag:

    * ``block_orthogonality``: Delta_k Delta_q f = 0 for |k - q| >= 2;
    * ``paraproduct_localization``: the spectrum of S_{q-1} f * Delta_q g
      vanishes outside [2^q/12, (10/3) 2^q], hence blocks with |k - q| >= 5
      (indeed >= 3 above) annihilate it;
    * ``remainder_localization``: the spectrum of Delta_q f * Delta_{q+l} g
      (|l| <= 1) vanishes above 2*gamma*(1 + 2^l) * 2^q, hence blocks
      k >= q + 4 annihilate it.

    Products are dealiased, so the checked coefficients are exact; each must
    stay below 1e-12.
    """
    grid = f.grid
    if g.grid != grid:
        raise ValueError("fields live on different grids")
    qm = shell_max(grid)
    scale = float(np.max(f.magnitude()) * np.max(g.magnitude()))
    scale_f = float(np.max(f.magnitude()))

    shells = range(-1, qm + 1)
    w = {q: block_weights(grid, q) for q in shells}
    ortho = max(
        (float(np.max(np.abs(w[k] * w[q] * f.spectral))) for q in shells for k in shells
         if abs(k - q) >= 2),
        default=0.0,
    )

    # S_{q-1} f * Delta_q g for q = 1..qm, then Delta_q f * Delta_k g for
    # |k - q| <= 1: products of block values on the 3N/2 grid, one r2c for all
    m = 3 * grid.points // 2
    fb, gb = _block_values(f, m), _block_values(g, m)
    low = np.cumsum(fb, axis=0)  # low[q] = S_q f
    near = [(q, k) for q in shells for k in (q - 1, q, q + 1) if -1 <= k <= qm]
    factors = [(low[q - 1], gb[q + 1]) for q in range(1, qm + 1)]
    factors += [(fb[q + 1], gb[k + 1]) for q, k in near]
    prods = np.empty((len(factors),) + np.broadcast_shapes(fb.shape[1:], gb.shape[1:]))
    for out, (a, b) in zip(prods, factors):
        np.multiply(a, b, out=out)
    spectra = iter(_band_spectrum(prods, grid))

    para = 0.0
    for q in range(1, qm + 1):
        prod = next(spectra)
        lo = 2.0**q / GAMMA - GAMMA * 2.0 ** (q - 1)
        hi = 2.0 * GAMMA * 2.0**q + GAMMA * 2.0 ** (q - 1)
        # the annulus, and explicit far blocks where any exist on this lattice
        far = [float(np.max(np.abs(w[k] * prod))) for k in shells if abs(k - q) >= 5]
        para = max([para, _max_outside(prod, grid, lo, hi)] + far)

    rem = 0.0
    for q, k in near:
        hi = shell_bounds(q)[1] + shell_bounds(k)[1]
        rem = max(rem, _max_outside(next(spectra), grid, 0.0, hi))

    checks = {
        "block_orthogonality": ortho / max(scale_f, 1e-300),
        "paraproduct_localization": para / max(scale, 1e-300),
        "remainder_localization": rem / max(scale, 1e-300),
    }
    return {
        "checks": checks,
        "tolerance": 1e-12,
        "pass": all(v < 1e-12 for v in checks.values()),
    }
