"""Random field ensembles and canonical initial data for experiments.

The sampling distribution is fixed across the verification suites: mean-zero
complex Gaussian spectral coefficients with radial amplitude |k|^-(n/2 + 1),
symmetrized to a real field, band-limited to a prescribed spectral cap and
normalized to unit sup norm.  A flat ensemble would make block-sum norms grow
with resolution and mask the constant-stability checks, so the decaying slope
keeps every tested norm finite and O(1).

Drawing the coefficients on a coarse reference lattice and embedding them
into finer grids yields the *same* band-limited field at several resolutions,
which is what the resolution-stability criteria compare.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .dyadic import reconstruction_cap
from .spectral import Field, Grid, embed_spectrum, hermitian_half


def random_spectrum(
    ref_grid: Grid,
    rng: np.random.Generator,
    components: int = 1,
    band: float | None = None,
    slope: float | None = None,
) -> np.ndarray:
    """Half spectrum of one random field on the reference lattice: the
    Hermitian part of complex Gaussian coefficients drawn on the full one."""
    n = ref_grid.dim
    if slope is None:
        slope = n / 2.0 + 1.0
    if band is None:
        band = reconstruction_cap(ref_grid)
    shape = (components,) + ref_grid.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return hermitian_half(_envelope(ref_grid, float(band), float(slope)) * raw, n)


@lru_cache(maxsize=32)
def _envelope(grid: Grid, band: float, slope: float) -> np.ndarray:
    """|k|^-slope on the full lattice, 0 at k = 0 and above the band, read-only."""
    # |k| as Grid.k_abs forms it on the half lattice
    k = np.stack(np.meshgrid(*([grid.k_axis] * grid.dim), indexing="ij"))
    kabs = np.sqrt(np.sum(k**2, axis=0))
    amp = np.where(kabs > 0, kabs, np.inf) ** (-slope)
    amp[kabs > band] = 0.0
    amp.setflags(write=False)
    return amp


def random_field(
    grid: Grid,
    rng: np.random.Generator,
    components: int = 1,
    band: float | None = None,
    slope: float | None = None,
    ref_grid: Grid | None = None,
) -> Field:
    """Random band-limited field, sup norm 1.

    When ``ref_grid`` is given the coefficients are drawn on that (coarser)
    lattice and embedded, so with a shared generator state the same field is
    reproduced across resolutions.  The band must then stay below the
    reference Nyquist frequency, whose modes have no single image on the
    finer lattice.
    """
    ref = ref_grid or grid
    return embedded_field(grid, random_spectrum(ref, rng, components, band, slope), ref, band)


def embedded_field(grid: Grid, coeffs: np.ndarray, ref: Grid, band: float | None = None) -> Field:
    """The field of a half spectrum drawn on ``ref`` (by ``random_spectrum``,
    with this ``band``), embedded into ``grid`` and scaled to sup norm 1."""
    if ref.points != grid.points:
        if not (reconstruction_cap(ref) if band is None else band) < ref.nyquist:
            raise ValueError("the band must stay below the ref_grid Nyquist")
        coeffs = embed_spectrum(coeffs, grid.dim, ref.points, grid.points)
    field = Field.from_spectral(grid, coeffs)
    peak = float(np.max(field.magnitude()))
    if peak > 0:
        field = field * (1.0 / peak)
    return field


def taylor_green(grid: Grid, amplitude: float = 1.0) -> Field:
    """Divergence-free Taylor-Green velocity A (sin x cos y, -cos x sin y)."""
    if grid.dim != 2:
        raise ValueError("the Taylor-Green field is two-dimensional")
    x, y = grid.coordinates() * (2.0 * np.pi / grid.period)
    values = amplitude * np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)])
    return Field(grid, values)


def single_mode(
    grid: Grid,
    wavevector: tuple[int, ...],
    amplitude: float = 1.0,
    phase: float = 0.0,
) -> Field:
    """Scalar field A cos(k.x + phase) for an integer lattice wavevector."""
    if len(wavevector) != grid.dim:
        raise ValueError("wavevector length must equal the grid dimension")
    coords = grid.coordinates() * (2.0 * np.pi / grid.period)
    arg = sum(int(k) * coords[i] for i, k in enumerate(wavevector))
    return Field(grid, amplitude * np.cos(arg + phase))
