"""Real fields on the periodic torus and their spectral calculus.

Fields live on a uniform N^n grid over [0, L)^n and are stored in physical
space with a lazily cached Fourier representation.  That representation,
and every spectrum in this package, is the ``rfftn`` half spectrum
(..., N, ..., N/2+1) of a real field, the r2c layout of Frigo and Johnson
(FFTW3): the last axis keeps the wavenumbers 0..N/2, and c_{-k} = conj c_k
stands for the modes it drops.  Transforms use the amplitude convention:
the coefficient stored for wavevector k is the complex amplitude of
exp(i k.x), so a constant field c carries c in its k = 0 slot and Parseval
reads ||f||_2^2 = L^n * sum over the full lattice of |c_k|^2.

Operators provided here are exact Fourier multipliers:

    gradient / divergence   i k_j           (Nyquist plane zeroed)
    heat_propagate          exp(-|k|^2 t)
    helmholtz_project       delta_ij - k_i k_j / |k|^2   (identity at k = 0)

Their symbols, even or odd in k, are held on the half lattice as well.

``_c2r`` reads a half spectrum cut to its first C last-axis columns (the
rest zero) and runs the leading-axis ``ifft``s on those C columns; ``_r2c``
fills the first C last-axis columns, then runs the leading-axis ``fft``s on
them in place.  The last-axis pass is pocketfft's ``irfft``/``rfft``
(``irfftn``/``rfftn`` bit for bit) unless the matrix rule (``_matrix``)
holds: C <= ``MATRIX_COLUMNS`` = 32 and the pass makes at least m
transforms, so that its basis is never larger than the output it writes (a
1-D N = 2^16 norm once built and kept 46 MB of them).  Then it is one
``np.matmul`` of the columns, read as interleaved floats, with a cached real
DFT basis of 16 C m bytes: only the kept columns' 2C m work, where ``irfft``
pads each row to m/2+1 (Markel's FFT pruning).  On a 2-vCPU guest, m =
64-1024, it takes 0.54-0.79 of ``irfft``'s time at C = 32 and 0.74-1.56 at
C = 64.  Each BLAS call, one matrix of the stack's last two axes, stays on
one OpenBLAS thread at N <= 64.  The product equals pocketfft to roundoff; a
non-finite entry spoils its whole row (``irfft`` drops a non-finite Im c_0
or Im c_{m/2}).  Every BLAS basis is built from one Fourier matrix,
``_fourier``.

Quadratic nonlinearities follow Orszag's 3/2 rule in three steps: ``_Pad``
places each factor on the M = 3N/2 lattice as the half spectrum of its real
padded field and brings it to the grid by a c2r pruned to the first N/2+1
of the M/2+1 last-axis columns (the only ones a padded factor occupies); the
pairs are multiplied there; ``_band_spectrum`` (``_band_plan`` on buffers
bound once) reads back the band of the N lattice with its Nyquist planes
zeroed, and the retained coefficients are the exact convolution of the
inputs.  Under the matrix rule at N/2+1 <= ``MATRIX_COLUMNS``, the pad and
its c2r in 2-D fold ``_padded``'s weights into the bases of BLAS products
that read the N half lattice as it is.  Per axis let L and H hold the images
of the bands B- and B+ of ``_pad_index`` (they differ only at +-N/2, both
read from the N lattice's Nyquist index) and A = (L + H)/2: the weight 0.5
([p in B-] + [p in B+]) gives a last-axis column below N/2 A on the leading
axis and the column N/2 H, with g = 1/2 (1 at m = N) in its row of the
last-axis basis; H - A is rank one, added after the A product.  1-D has no
leading pass to fold into, and the last-axis rule needs m rows, which no
product stack reaches.  3-D would add (L - H) (x) (L - H) / 4 on the corner
line c(-N/2, -N/2, .), but its outer pass would be one BLAS call large
enough to start a second OpenBLAS thread.  Both keep the gather and
``_c2r``, as does N >= 64.  The band read is two BLAS products at N/2+1 <=
``MATRIX_COLUMNS``: the last axis' first N/2 columns with ``_dft_basis``,
then each leading axis with a cached complex (N, M) ``_band_basis`` whose
Nyquist row is zero, written straight into the band; above it, a pruned r2c
and a gather.  The padded Hermitian part 0.5 (c_p + conj c_{-p}) carries
input modes in [-N/2, N/2] per axis (an N-lattice Nyquist mode splits
between +-N/2), so pair sums lie in [-N, N]; a sum aliased by +-3N/2 lands
in [-N, -N/2] u [N/2, N], which meets the N lattice only on the Nyquist
plane +-N/2, and that plane is zeroed.

Fields are immutable after construction; all operations are pure functions and
safe to call concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

TWO_PI = 2.0 * np.pi

FIELD_MAGIC = "LPFLD1"


class FieldFormatError(ValueError):
    """A field file has a malformed header entry or payload.

    ``field`` names the offending header item (magic, dim, components,
    points, period, payload).
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the torus [0, period)^dim.

    ``points`` is the sample count per axis and must be a power of two; the
    angular frequency lattice is (2*pi/period) * Z^dim capped at Nyquist.
    The wavevector meshes and multipliers live on the half lattice
    ``half_shape`` of the spectra they multiply.
    """

    dim: int
    points: int
    period: float = TWO_PI

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        n = self.points
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"points must be a power of two >= 2, got {n}")
        if not self.period > 0:
            raise ValueError(f"period must be positive, got {self.period}")

    @property
    def spacing(self) -> float:
        return self.period / self.points

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def nyquist(self) -> float:
        """Largest resolved angular frequency per axis, (N/2) * 2*pi/L."""
        return (self.points // 2) * (TWO_PI / self.period)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dim

    @property
    def half_shape(self) -> tuple[int, ...]:
        """Spatial shape of a half spectrum, (N, ..., N, N/2+1)."""
        return self.shape[:-1] + (self.points // 2 + 1,)

    @cached_property
    def k_axis(self) -> np.ndarray:
        k = TWO_PI * np.fft.fftfreq(self.points, d=self.spacing)
        k.setflags(write=False)
        return k

    @cached_property
    def k_axis_deriv(self) -> np.ndarray:
        # Nyquist mode zeroed: its odd derivative is not representable.
        k = self.k_axis.copy()
        k[self.points // 2] = 0.0
        k.setflags(write=False)
        return k

    def _half_mesh(self, axis: np.ndarray) -> np.ndarray:
        """Wavevectors from a 1-D ``axis`` on the half lattice, (dim, *half_shape)."""
        axes = [axis] * (self.dim - 1) + [axis[: self.points // 2 + 1]]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"))
        mesh.setflags(write=False)
        return mesh

    @cached_property
    def k_mesh_deriv(self) -> np.ndarray:
        return self._half_mesh(self.k_axis_deriv)

    @cached_property
    def k_sq(self) -> np.ndarray:
        ksq = np.sum(self._half_mesh(self.k_axis) ** 2, axis=0)
        ksq.setflags(write=False)
        return ksq

    @cached_property
    def inv_k_sq_deriv(self) -> np.ndarray:
        """Leray multiplier 1/|k|^2 on the derivative lattice, 0 at k = 0."""
        ksq = np.sum(self.k_mesh_deriv**2, axis=0)
        inv = np.where(ksq > 0, 1.0 / np.where(ksq > 0, ksq, 1.0), 0.0)
        inv.setflags(write=False)
        return inv

    @cached_property
    def k_abs(self) -> np.ndarray:
        kabs = np.sqrt(self.k_sq)
        kabs.setflags(write=False)
        return kabs

    def coordinates(self) -> np.ndarray:
        """Physical coordinates, shape (dim, N, ..., N)."""
        x = np.arange(self.points) * self.spacing
        return np.stack(np.meshgrid(*([x] * self.dim), indexing="ij"))


@lru_cache(maxsize=None)
def _wavenumbers(m: int) -> np.ndarray:
    """Signed integer wavenumber of each index of an m-point FFT axis."""
    # rint, not a truncating cast: fftfreq(m) * m is inexact when 3 divides m
    k = np.rint(np.fft.fftfreq(m) * m).astype(int)
    k.setflags(write=False)
    return k


def _mesh(m: int, dim: int, last) -> list[np.ndarray]:
    """Signed wavevectors of the m lattice with last-axis wavenumbers ``last``."""
    return np.meshgrid(*([_wavenumbers(m)] * (dim - 1) + [last]), indexing="ij")


def _flat(ks, m: int, cols: int) -> np.ndarray:
    """Flat index of wavevectors ``ks`` (mod m) in the lattice (m, ..., m, cols)."""
    shape = (m,) * (len(ks) - 1) + (cols,)
    idx = np.ravel_multi_index([k % m for k in ks], shape)
    idx.setflags(write=False)
    return idx


def _gather(coeffs: np.ndarray, dim: int, idx: np.ndarray, out=None) -> np.ndarray:
    """``coeffs`` with its spatial axes flattened, taken at the flat ``idx`` into ``out``.

    The result is C-contiguous; an open-mesh fancy index would put the
    leading axes innermost and slow every later reduction over them.
    """
    flat = coeffs.reshape(coeffs.shape[:-dim] + (-1,))
    return np.take(flat, idx, axis=-1, out=out, mode="wrap")  # in range: "wrap" writes unbuffered


@lru_cache(maxsize=None)
def _mirror_index(n: int, dim: int) -> np.ndarray:
    """Full-lattice flat index of -k for each k of the N half lattice."""
    return _flat([-k for k in _mesh(n, dim, np.arange(n // 2 + 1))], n, n)


def hermitian_half(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """Hermitian part 0.5 (c_k + conj c_{-k}) of a full spectrum (..., N, ...,
    N), on the rfftn half lattice (..., N, ..., N/2+1).

    It is the half spectrum of the real part of the field whose full spectrum
    is ``coeffs``, Nyquist content included, so ``irfftn`` of it gives that
    real part.
    """
    n = coeffs.shape[-1]
    mirror = _gather(coeffs, dim, _mirror_index(n, dim))
    return 0.5 * (coeffs[..., : n // 2 + 1] + np.conj(mirror))


MATRIX_COLUMNS = 32  # the widest last-axis pass made as a matrix product (module docstring)


def _matrix(cols: int, m: int, transforms: int) -> bool:
    """The matrix rule: a pass that keeps ``cols`` columns of an m-point axis is
    a BLAS product iff cols <= ``MATRIX_COLUMNS`` and it makes at least m
    transforms, so that its basis is never larger than the output it writes."""
    return cols <= MATRIX_COLUMNS and transforms >= m


def _column_blocks(rows: int, k: int, cols: int) -> list[slice]:
    """Column slices of a complex (rows x k)(k x cols) product on one OpenBLAS thread each."""
    step = (2**16 - 1) // (rows * k)
    return [slice(a, a + step) for a in range(0, cols, step)]


def _fourier(m: int, ks) -> np.ndarray:
    """The complex (m, len(ks)) matrix exp(2 pi i x k / m), x = 0..m-1, of
    angles centred on 0, Im exactly 0 at the half turns x k = 0 or m/2 mod m
    (as ``rfft``'s Im c_0 and Im c_{m/2}); the one builder of every BLAS basis."""
    turn = np.arange(m)[:, None] * np.asarray(ks) % m
    angle = TWO_PI / m * np.where(2 * turn < m, turn, turn - m)
    return np.cos(angle) + 1j * np.where(2 * turn % m == 0, 0.0, np.sin(angle))


@lru_cache(maxsize=None)
def _dft_basis(cols: int, m: int, inverse: bool) -> np.ndarray:
    """Read-only real DFT basis of the first ``cols`` columns of an m-point half
    spectrum, a column read as its interleaved (Re, Im) float pair: (2 cols, m)
    for the c2r (``irfft``), else (m, 2 cols) for the r2c (``rfft``), both
    with ``norm="forward"``; it holds 16 cols m bytes."""
    k = np.arange(cols)
    pairs = _fourier(m, -k).view(np.float64)  # (m, 2 cols): Re and Im of e^{-ikx}, read by both
    basis = np.empty((2 * cols, m) if inverse else (m, 2 * cols))
    if inverse:  # c_k stands for c_{-k} too, but at k = 0 and k = m/2
        np.multiply(pairs.T, np.where((k == 0) | (2 * k == m), 1.0, 2.0).repeat(2)[:, None], out=basis)
    else:  # Re and Im divided each: complex / real rounds differently at m = 3N/2
        np.divide(pairs, m, out=basis)
    basis.setflags(write=False)
    return basis


def _c2r(half: np.ndarray, dim: int, m: int, out=None, overwrite: bool = False) -> np.ndarray:
    """m^dim grid values of a half spectrum cut to C <= m/2+1 last-axis
    columns (the rest zero), written to ``out`` if given; with all columns
    ``irfftn``.  With ``overwrite`` the leading-axis passes run in place in
    ``half``, a complex buffer the caller owns and gives up.  The last-axis
    pass is ``irfft``, or a product with ``_dft_basis`` at C <= ``MATRIX_COLUMNS``
    (the crossover and the basis memory: module docstring)."""
    for ax in range(-dim, -1):
        half = np.fft.ifft(half, axis=ax, norm="forward", out=half if overwrite else None)
    cols = half.shape[-1]
    if not _matrix(cols, m, half.size // cols):
        return np.fft.irfft(half, n=m, axis=-1, norm="forward", out=out)
    pairs = np.ascontiguousarray(half, np.complex128).view(np.float64)
    return np.matmul(pairs, _dft_basis(cols, m, True), out=out)


def _r2c(values: np.ndarray, dim: int, cols: int, out=None) -> np.ndarray:
    """Half spectrum of real grid values on its first ``cols`` columns (only those
    written at cols <= ``MATRIX_COLUMNS``), into ``out`` if given, with the leading
    axes transformed in place on them; with all, ``rfftn``."""
    m = values.shape[-1]
    if not _matrix(cols, m, values.size // m):
        spec = np.fft.rfft(values, axis=-1, norm="forward", out=out)
    else:
        spec = np.empty(values.shape[:-1] + (m // 2 + 1,), np.complex128) if out is None else out
        np.matmul(values, _dft_basis(cols, m, False), out=spec[..., :cols].view(np.float64))
    for ax in range(-2, -dim - 1, -1):
        np.fft.fft(spec[..., :cols], axis=ax, norm="forward", out=spec[..., :cols])
    return spec


def values_from_half(half: np.ndarray, grid: Grid) -> np.ndarray:
    """Grid values of a half spectrum (..., m, N, ..., C), C <= N/2+1, by
    ``_c2r``; of ``hermitian_half(stack)`` they are the real part of the
    field of the full spectra ``stack``."""
    return _c2r(half, grid.dim, grid.points)


class Field:
    """Immutable real m-component field on a :class:`Grid`.

    ``values`` has shape (m, N, ..., N).  ``spectral`` is its ``rfftn`` half
    spectrum (m, N, ..., N/2+1), computed on first use and cached.
    """

    __slots__ = ("grid", "values", "_spectral")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == grid.dim:
            values = values[np.newaxis]
        if values.ndim != grid.dim + 1 or values.shape[1:] != grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"(m, {', '.join(str(grid.points) for _ in range(grid.dim))})"
            )
        values = np.ascontiguousarray(values)
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self._spectral = None

    @property
    def components(self) -> int:
        return self.values.shape[0]

    @property
    def spectral(self) -> np.ndarray:
        if self._spectral is None:
            c = _r2c(self.values, self.grid.dim, self.grid.points // 2 + 1)
            c.setflags(write=False)
            self._spectral = c
        return self._spectral

    @classmethod
    def from_spectral(cls, grid: Grid, coeffs: np.ndarray) -> "Field":
        """The field of a half spectrum (m, N, ..., N/2+1) of a real field,
        ``irfftn`` of it; ``coeffs`` is kept as its ``spectral``."""
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.ndim == grid.dim:
            coeffs = coeffs[np.newaxis]
        if coeffs.ndim != grid.dim + 1 or coeffs.shape[1:] != grid.half_shape:
            raise ValueError(f"spectral shape {coeffs.shape} does not match grid")
        out = cls(grid, values_from_half(coeffs, grid))
        out._spectral = coeffs.view()
        out._spectral.setflags(write=False)
        return out

    @classmethod
    def zeros(cls, grid: Grid, components: int = 1) -> "Field":
        return cls(grid, np.zeros((components,) + grid.shape))

    def component(self, i: int) -> "Field":
        out = Field(self.grid, self.values[i : i + 1])
        if self._spectral is not None:
            out._spectral = self._spectral[i : i + 1]
        return out

    def _binary(self, other: "Field", op) -> "Field":
        if not isinstance(other, Field):
            return NotImplemented
        if other.grid != self.grid or other.components != self.components:
            raise ValueError("field grids/components do not match")
        return Field(self.grid, op(self.values, other.values))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return Field(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.values)

    def magnitude(self) -> np.ndarray:
        """Pointwise Euclidean magnitude across components, shape (N, ..., N)."""
        if self.components == 1:
            return np.abs(self.values[0])
        return np.sqrt(np.sum(self.values**2, axis=0))

    def __repr__(self):
        g = self.grid
        return (
            f"Field(m={self.components}, n={g.dim}, N={g.points}, "
            f"L={g.period:.6g})"
        )


# ---------------------------------------------------------------------------
# differential operators and propagators


def gradient(field: Field) -> Field:
    """Spectral gradient of a scalar field; returns an n-component field."""
    if field.components != 1:
        raise ValueError("gradient expects a scalar field (m = 1)")
    grid = field.grid
    coeffs = 1j * grid.k_mesh_deriv * field.spectral[0]
    return Field.from_spectral(grid, coeffs)


def divergence(field: Field) -> Field:
    """Spectral divergence of an n-component vector field."""
    grid = field.grid
    if field.components != grid.dim:
        raise ValueError(
            f"divergence expects m = n = {grid.dim}, got m = {field.components}"
        )
    coeffs = np.sum(1j * grid.k_mesh_deriv * field.spectral, axis=0)
    return Field.from_spectral(grid, coeffs[np.newaxis])


def helmholtz_project(field: Field) -> Field:
    """Leray projection onto divergence-free fields.

    Multiplier (delta_ij - k_i k_j / |k|^2); acts as the identity on the mean
    mode, where the inverse Laplacian has its removable singularity.
    """
    grid = field.grid
    if field.components != grid.dim:
        raise ValueError(
            f"projection expects m = n = {grid.dim}, got m = {field.components}"
        )
    return Field.from_spectral(grid, project_divergence_free(field.spectral, grid))


def project_divergence_free(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Apply the Leray projector to a half spectral stack (..., dim, N, ...,
    N/2+1); the projector's symbol is even in k."""
    k, ax = grid.k_mesh_deriv, -grid.dim - 1
    kdotu = np.sum(k * coeffs, axis=ax)
    return coeffs - np.expand_dims(kdotu * grid.inv_k_sq_deriv, ax) * k


def heat_propagate(field: Field, t: float) -> Field:
    """Heat semigroup e^{t Laplacian}: exact multiplier exp(-|k|^2 t)."""
    if t < 0:
        raise ValueError(f"heat propagation requires t >= 0, got {t}")
    if t == 0:
        return field
    grid = field.grid
    return Field.from_spectral(grid, heat_stack(field.spectral, grid, [t])[0])


def heat_stack(coeffs: np.ndarray, grid: Grid, times: np.ndarray) -> np.ndarray:
    """exp(-|k|^2 t) * coeffs for each t; output shape (len(times), *coeffs)."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0)):  # checked before exp(-|k|^2 t) meets them
        raise ValueError("heat times must be finite and >= 0")
    ksq = grid.k_sq
    expo = np.exp(-ksq * times.reshape(times.shape + (1,) * grid.dim))
    shape = times.shape + (1,) * (coeffs.ndim - grid.dim) + ksq.shape
    return expo.reshape(shape) * coeffs


# ---------------------------------------------------------------------------
# dealiased products


def _nyquist_planes(dim: int, n: int) -> list[tuple]:
    """Index of the Nyquist plane (index N/2) of each spatial axis of a half
    N-lattice spectrum."""
    return [(Ellipsis, n // 2) + (slice(None),) * after for after in range(dim)]


def embed_spectrum(coeffs: np.ndarray, dim: int, n_src: int, n_dst: int) -> np.ndarray:
    """Copy a half spectrum onto a finer half lattice (same integer
    wavevectors), one slab per sign pattern of the leading wavenumbers.  The
    source's Nyquist planes must be empty when the lattice grows: a coarse
    Nyquist mode stands for two modes of the finer lattice."""
    if n_dst < n_src:
        raise ValueError("target lattice must be at least as fine")
    if n_dst > n_src and any(np.any(coeffs[plane]) for plane in _nyquist_planes(dim, n_src)):
        raise ValueError("the source spectrum has content on a Nyquist plane")
    h = n_src // 2
    shape = coeffs.shape[:-dim] + (n_dst,) * (dim - 1) + (n_dst // 2 + 1,)
    out = np.zeros(shape, dtype=np.complex128)
    # wavenumbers 0..h-1 keep their index; -h..-1 move to the end of the axis
    slabs = ((slice(0, h), slice(0, h)), (slice(h, n_src), slice(n_dst - h, n_dst)))
    for pick in itertools.product(slabs, repeat=dim - 1):
        src, dst = tuple(s for s, _ in pick), tuple(d for _, d in pick)
        out[(Ellipsis,) + dst + (slice(0, h + 1),)] = coeffs[(Ellipsis,) + src + (slice(None),)]
    return out


def _zero_nyquist(coeffs: np.ndarray, dim: int, n: int) -> np.ndarray:
    """Zero the Nyquist plane (index N/2) of every spatial axis of a half
    N-lattice spectrum in place."""
    for plane in _nyquist_planes(dim, n):
        coeffs[plane] = 0.0
    return coeffs


def _inside(ks, lo: int, hi: int, m: int) -> np.ndarray:
    """Whether each wavevector of the m lattice lies in [lo, hi]^n mod m."""
    return np.logical_and.reduce([(k - lo) % m <= hi - lo for k in ks])


@lru_cache(maxsize=None)
def _pad_index(n: int, dim: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """How the Hermitian part on the m lattice, m = N or 3N/2, is read from
    the N half lattice.

    At each p of the pruned m half lattice that part is 0.5 (c_p [p in B-] +
    conj c_{-p} [-p in B-]), B- = [-N/2, N/2 - 1]^n mod m the band of the N
    lattice.  For a real field conj c_{-p} = c_p and [-p in B-] = [p in B+],
    B+ = [-N/2 + 1, N/2]^n mod m, so this returns one flat index of c_p and
    its weight 0.5 ([p in B-] + [p in B+]), which is 0, 1/2 or 1 at m = 3N/2
    and 1 everywhere at m = N, where B- and B+ are the whole lattice.
    """
    h = n // 2
    ks = _mesh(m, dim, np.arange(h + 1))
    low, high = _inside(ks, -h, h - 1, m), _inside(ks, -h + 1, h, m)
    weight = (0.5 * low + 0.5 * high).astype(np.complex128)
    weight.setflags(write=False)
    return _flat(ks, n, h + 1), weight


@lru_cache(maxsize=None)
def _band_index(n: int, dim: int, m: int) -> np.ndarray:
    """Flat index of each k of the N half lattice in the uncut m one."""
    return _flat(_mesh(n, dim, np.arange(n // 2 + 1)), m, m // 2 + 1)


@lru_cache(maxsize=None)
def _band_basis(n: int, m: int) -> np.ndarray:
    """Read-only complex (N, m) forward DFT basis (``norm="forward"``) of an
    m-point axis onto the N lattice, its Nyquist row zero: the rows k >= 0 of
    ``_dft_basis``, conjugated for -k."""
    pos = _dft_basis(n // 2, m, False).view(np.complex128).T
    basis = np.concatenate([pos, np.zeros_like(pos[:1]), pos[:0:-1].conj()])
    basis.setflags(write=False)
    return basis


def _padded(coeffs: np.ndarray, grid: Grid, m: int, out=None) -> np.ndarray:
    """The pruned m half spectrum, m = N or 3N/2, of a factor given on the N
    half lattice: one weighted read, since 0.5 (c_p + c_p) is c_p bit for bit."""
    index, weight = _pad_index(grid.points, grid.dim, m)
    return np.multiply(_gather(coeffs, grid.dim, index, out), weight, out=out)


@lru_cache(maxsize=None)
def _pad_bases(n: int, m: int) -> tuple[np.ndarray, ...]:
    """Read-only bases of the folded pad from the N lattice of one axis to its
    m grid (module docstring): the complex (m, N) A; H - A in its one nonzero
    column N/2, -D/2 with D = L - H; and the c2r's last-axis ``_dft_basis``
    with the column N/2 weighted by g."""
    h = n // 2
    e = _fourier(m, np.append(_wavenumbers(n), h))  # the N lattice's wavenumbers, then +N/2
    a, d = e[:, :n].copy(), e[:, h] - e[:, n]  # L, and D's column N/2
    a[:, h] -= d / 2
    last = _dft_basis(h + 1, m, True).copy()
    last[2 * h :] *= 1.0 if m == n else 0.5
    bases = (a, -d / 2, last)
    for basis in bases:
        basis.setflags(write=False)
    return bases


class _Pad:
    """Grid values on the m^n grid, m = N or 3N/2, of the Hermitian part of
    factors given on the N half lattice, on buffers made once: a call's
    stacks (*lead, rows[s], N, ..., N/2+1) are written in turn into the
    factor rows of ``values`` (*lead, sum(rows), m, ..., m).  ``_c2r`` of
    ``_padded``, or in 2-D under the matrix rule the folded pad: one BLAS
    product with ``_pad_bases`` per pass, the leading one reading the N half
    lattice as it is, and a rank-one term on the column N/2 (module
    docstring)."""

    def __init__(self, grid: Grid, m: int, lead: tuple, rows: tuple):
        dim, n, h = grid.dim, grid.points, grid.points // 2
        shape = lead + (sum(rows),)
        self.values = np.empty(shape + (m,) * dim)
        self.half = np.empty(shape + (m,) * (dim - 1) + (h + 1,), np.complex128)
        self.fold = dim == 2 and _matrix(h + 1, m, int(np.prod(shape)) * (h + 1))
        self.transform = partial(_c2r, self.half, dim, m, self.values, True)
        if self.fold:
            self.transform = partial(np.matmul, self.half.view(np.float64), _pad_bases(n, m)[-1], out=self.values)
        ends = np.cumsum((0,) + rows)
        self.writes = [self._write(grid, m, slice(a, b)) for a, b in zip(ends, ends[1:])]

    def _write(self, grid: Grid, m: int, rows: slice):
        """The call that writes one stack into the factor ``rows``."""
        n, h = grid.points, grid.points // 2
        y = self.half[(Ellipsis, rows) + (slice(None),) * grid.dim]
        if not self.fold:
            return lambda x: _padded(x, grid, m, y)
        a, dh, _ = _pad_bases(n, m)
        if m == n:  # L = H = A
            return partial(np.matmul, a, out=y)
        col, line = y[..., h], np.empty(y[..., h].shape, np.complex128)

        def write(x):
            np.matmul(a, x, out=y)
            np.add(col, np.multiply(x[..., h, h, None], dh, out=line), out=col)

        return write

    def __call__(self, *stacks: np.ndarray) -> np.ndarray:
        for write, x in zip(self.writes, stacks):
            write(x)
        return self.transform()


def _band_plan(values: np.ndarray, grid: Grid, out: np.ndarray) -> list:
    """The calls that write into ``out`` the half spectrum on the N band of real
    values on the m grid, m = N or 3N/2 read from their last axis, on buffers
    made here: a pruned r2c and the band gather, Nyquist planes zeroed, or
    under the matrix rule at N/2+1 <= ``MATRIX_COLUMNS`` BLAS products, leading
    axes outermost first in ``_column_blocks``, whose leading Nyquist planes may read -0.0."""
    dim, n, m = grid.dim, grid.points, values.shape[-1]
    if not _matrix(n // 2 + 1, m, values.size // m):
        spec, index = np.empty(values.shape[:-1] + (m // 2 + 1,), np.complex128), _band_index(n, dim, m)
        return [lambda: _zero_nyquist(_gather(_r2c(values, dim, n // 2 + 1, spec), dim, index, out),
                                      dim, n)]
    out[..., n // 2] = 0.0
    steps = [np.empty(values.shape[:-dim] + (n,) * k + (m,) * (dim - 1 - k) + (n // 2,), np.complex128)
             for k in range(dim - 1)] + [out[..., : n // 2]]
    calls = [partial(np.matmul, values, _dft_basis(n // 2, m, False), out=steps[0].view(np.float64))]
    for k, (src, dst) in enumerate(zip(steps, steps[1:])):  # leading axis k
        pre = src.shape[: src.ndim - dim + k]
        src, dst = src.reshape(pre + (m, -1)), dst.reshape(pre + (n, -1))
        calls += [partial(np.matmul, _band_basis(n, m), src[..., c], out=dst[..., c])
                  for c in _column_blocks(n, m, src.shape[-1])]
    return calls


def _band_spectrum(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Half spectrum on the N band, Nyquist planes +0.0, of real values on
    the m grid, m = N or 3N/2 read from their last axis, by ``_band_plan``."""
    out = np.empty(values.shape[: -grid.dim] + grid.half_shape, np.complex128)
    for call in _band_plan(values, grid, out):
        call()
    for plane in _nyquist_planes(grid.dim, grid.points)[1:]:  # BLAS may sum a zero row to -0.0
        out[plane] += 0.0
    return out


def dealiased_products(spec_a, spec_b, pairs, grid: Grid) -> np.ndarray:
    """Exact half spectra of the pointwise products a_i * b_j, (i, j) in ``pairs``.

    ``spec_a`` and ``spec_b`` are half spectra (..., m, N, ..., N/2+1) of
    real fields whose leading axes broadcast; i and j index their component
    axes.  The 3/2 rule's three steps: ``_Pad`` brings both factors to the
    padded grid in one batch (``spec_b is spec_a`` once), the requested
    pairs are multiplied there, and ``_band_spectrum`` keeps the band of the
    N lattice with its Nyquist planes zeroed.  Returns (..., len(pairs), N,
    ..., N/2+1); within that band each product is the exact linear
    convolution of its factors.
    """
    ax = -grid.dim - 1
    factors = (spec_a,) if spec_b is spec_a else (spec_a, spec_b)
    lead = np.broadcast_shapes(*(f.shape[:ax] for f in factors))
    pad = _Pad(grid, 3 * grid.points // 2, lead, tuple(f.shape[ax] for f in factors))
    values = np.moveaxis(pad(*(np.broadcast_to(f, lead + f.shape[ax:]) for f in factors)), ax, 0)
    off = len(values) - spec_b.shape[ax]  # the first row of b
    prods = np.empty(lead + (len(pairs),) + values.shape[ax + 1 :])
    for out, (i, j) in zip(np.moveaxis(prods, ax, 0), pairs):
        np.multiply(values[i], values[off + j], out=out)
    return _band_spectrum(prods, grid)


def dealias_multiply(
    spec_a: np.ndarray, spec_b: np.ndarray, grid: Grid
) -> np.ndarray:
    """Exact (3/2-rule dealiased) product of two half spectral stacks: the
    ``dealiased_products`` of matching components, a one-component factor
    broadcast over a multi-component one; leading axes broadcast too."""
    ax = -grid.dim - 1
    ma, mb = spec_a.shape[ax], spec_b.shape[ax]
    (m,) = np.broadcast_shapes((ma,), (mb,))
    return dealiased_products(spec_a, spec_b, [(i % ma, i % mb) for i in range(m)], grid)


def dealiased_product(f: Field, g: Field) -> Field:
    """Dealiased pointwise product of two fields.

    Componentwise when the component counts match; a scalar factor broadcasts
    over a multi-component one.
    """
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    if f.components != g.components and 1 not in (f.components, g.components):
        raise ValueError(
            f"cannot broadcast components {f.components} x {g.components}"
        )
    out = dealias_multiply(f.spectral, g.spectral, f.grid)
    return Field.from_spectral(f.grid, out)


# ---------------------------------------------------------------------------
# field file format
#
#   header line:  "LPFLD1 <dim> <components> <points> <period>\n"  (ASCII)
#   payload:      little-endian float64, row-major, component-contiguous


def write_field(path, field: Field) -> None:
    header = (
        f"{FIELD_MAGIC} {field.grid.dim} {field.components} "
        f"{field.grid.points} {field.grid.period!r}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(field.values.astype("<f8").tobytes())


def read_field(path) -> Field:
    with open(path, "rb") as fh:
        header = fh.readline(256)
        payload = fh.read()
    try:
        text = header.decode("ascii").strip()
    except UnicodeDecodeError:
        raise FieldFormatError("magic", "header is not ASCII") from None
    parts = text.split()
    if not parts or parts[0] != FIELD_MAGIC:
        raise FieldFormatError("magic", f"expected {FIELD_MAGIC!r}")
    if len(parts) != 5:
        raise FieldFormatError(
            "header", f"expected 5 header fields, got {len(parts)}"
        )
    _, dim_s, m_s, n_s, period_s = parts
    try:
        dim = int(dim_s)
    except ValueError:
        raise FieldFormatError("dim", f"not an integer: {dim_s!r}") from None
    try:
        m = int(m_s)
    except ValueError:
        raise FieldFormatError("components", f"not an integer: {m_s!r}") from None
    if m < 1:
        raise FieldFormatError("components", f"must be >= 1, got {m}")
    try:
        n = int(n_s)
    except ValueError:
        raise FieldFormatError("points", f"not an integer: {n_s!r}") from None
    try:
        period = float(period_s)
    except ValueError:
        raise FieldFormatError("period", f"not a float: {period_s!r}") from None
    try:
        grid = Grid(dim, n, period)
    except ValueError as exc:
        field = "points" if "points" in str(exc) else "dim"
        raise FieldFormatError(field, str(exc)) from None
    expected = m * n**dim * 8
    if len(payload) != expected:
        raise FieldFormatError(
            "payload", f"expected {expected} bytes, got {len(payload)}"
        )
    values = np.frombuffer(payload, dtype="<f8").reshape((m,) + grid.shape)
    if not np.all(np.isfinite(values)):
        raise FieldFormatError("payload", "contains non-finite samples")
    return Field(grid, values)
