"""Transforms, differential operators, projection, heat flow, dealiasing, IO."""

import ast
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lptorus
import lptorus.suites
from lptorus import besov, spectral
from lptorus import (
    Field,
    FieldFormatError,
    Grid,
    dealiased_product,
    divergence,
    gradient,
    heat_propagate,
    helmholtz_project,
    read_field,
    single_mode,
    taylor_green,
    write_field,
)
from lptorus.besov import INF, _lp_norms, block_lp_norms, lp_norm
from lptorus.cutoffs import build_cutoffs
from lptorus.dyadic import shell_max
from lptorus.ensembles import _envelope, embedded_field, random_field
from lptorus.spectral import (
    MATRIX_COLUMNS,
    TWO_PI,
    _band_index,
    _band_spectrum,
    _c2r,
    _flat,
    _gather,
    _inside,
    _mesh,
    _nyquist_planes,
    _padded,
    _r2c,
    _wavenumbers,
    _zero_nyquist,
    dealias_multiply,
    dealiased_products,
    embed_spectrum,
    heat_stack,
    hermitian_half,
    values_from_half,
)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("points", [16, 32])
def test_round_trip(dim, points, rng):
    if dim == 3 and points > 16:
        points = 16
    grid = Grid(dim, points)
    f = random_field(grid, rng)
    back = Field.from_spectral(grid, f.spectral)
    assert np.max(np.abs(back.values - f.values)) < 1e-12 * np.max(np.abs(f.values))


def test_round_trip_n64(rng):
    grid = Grid(2, 64)
    f = random_field(grid, rng)
    back = Field.from_spectral(grid, f.spectral)
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_constant_field_is_pure_dc(grid32):
    f = Field(grid32, np.full((1, 32, 32), 3.25))
    coeffs = f.spectral.copy()
    assert abs(coeffs[0, 0, 0] - 3.25) < 1e-13
    coeffs[0, 0, 0] = 0.0
    assert np.max(np.abs(coeffs)) < 1e-13


def test_single_cosine_two_conjugate_coefficients(grid32):
    # the half lattice holds both conjugates of a mode with k_2 = 0, and one
    # of any other: c_(-3,-5) = conj c_(3,5) is implied
    assert Field(grid32, np.zeros((1, 32, 32))).spectral.shape == (1, 32, 17)
    for k, slots in (((3, 0), [(3, 0), (-3, 0)]), ((3, 5), [(3, 5)])):
        c = single_mode(grid32, k).spectral[0].copy()
        for slot in slots:
            assert abs(c[slot] - 0.5) < 1e-13
            c[slot] = 0.0
        assert np.max(np.abs(c)) < 1e-13


def test_hermitian_symmetry(grid32, rng):
    # k and -k share a half-lattice column only when k_2 is 0 or Nyquist
    f = random_field(grid32, rng)
    for col in (0, 16):
        c = f.spectral[0][:, col]
        flipped = np.roll(np.flip(c), 1)
        assert np.max(np.abs(c - np.conj(flipped))) < 1e-14


@pytest.mark.parametrize("dim,points", [(1, 64), (2, 32), (3, 16)])
def test_parseval(dim, points, rng):
    # interior half-lattice columns stand for k and -k, so they count twice
    grid = Grid(dim, points)
    f = random_field(grid, rng)
    grid_norm = lp_norm(f, 2.0)
    twice = np.full(points // 2 + 1, 2.0)
    twice[[0, -1]] = 1.0
    power = np.sum(twice * np.abs(f.spectral) ** 2)
    assert abs(grid_norm - np.sqrt(grid.period**dim * power)) < 1e-12 * grid_norm


@pytest.mark.parametrize(
    "dim,points,ref_points,components",
    [(1, 64, 16, 1), (2, 32, 32, 2), (2, 64, 16, 1), (3, 16, 8, 3), (3, 16, 16, 1)],
)
def test_random_field_values_are_the_draw_of_the_full_spectrum_pipeline(
    dim, points, ref_points, components
):
    # numpy only: draw the full complex spectrum, take its Hermitian part,
    # embed it on the full finer lattice, take that lattice's Hermitian part
    # and irfftn it; the half-lattice pipeline must give the same values to
    # 1e-14 (its last-axis pass is a matrix product at C <= MATRIX_COLUMNS)
    grid, ref = Grid(dim, points), Grid(dim, ref_points)
    axes = tuple(range(-dim, 0))
    rng = np.random.default_rng(points + ref_points + dim)
    state = rng.bit_generator.state

    def hermitian(c):
        return 0.5 * (c + np.conj(np.roll(np.flip(c, axis=axes), 1, axis=axes)))

    kabs = np.sqrt(sum(k**2 for k in np.meshgrid(*([ref.k_axis] * dim), indexing="ij")))
    amp = np.where(kabs > 0, kabs, np.inf) ** (-(dim / 2.0 + 1.0))
    amp[kabs > lptorus.reconstruction_cap(ref)] = 0.0
    shape = (components,) + ref.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ints = np.rint(np.fft.fftfreq(ref_points) * ref_points).astype(int)
    full = np.zeros((components,) + grid.shape, dtype=complex)
    full[(Ellipsis,) + np.ix_(*([ints % points] * dim))] = hermitian(amp * raw)
    half = hermitian(full)[..., : points // 2 + 1]
    values = np.fft.irfftn(half, s=grid.shape, axes=axes, norm="forward")
    values = values * float(1.0 / np.max(np.sqrt(np.sum(values**2, axis=0))))
    rng.bit_generator.state = state
    got = random_field(grid, rng, components=components, ref_grid=ref).values
    assert np.max(np.abs(got - values)) <= 1e-14 * np.max(np.abs(values))


def _random_spectrum_uncached(ref, rng, band=None, slope=None):
    # the envelope built inline on every draw
    n = ref.dim
    slope = n / 2.0 + 1.0 if slope is None else slope
    band = lptorus.reconstruction_cap(ref) if band is None else band
    k = np.stack(np.meshgrid(*([ref.k_axis] * n), indexing="ij"))
    kabs = np.sqrt(np.sum(k**2, axis=0))
    amp = np.where(kabs > 0, kabs, np.inf) ** (-slope)
    amp[kabs > band] = 0.0
    raw = rng.standard_normal((1,) + ref.shape) + 1j * rng.standard_normal((1,) + ref.shape)
    return hermitian_half(amp * raw, n)


@pytest.mark.parametrize(
    "dim, points, ref_points, band, slope",
    [(2, 64, None, None, None), (2, 64, 16, None, None), (2, 32, None, 6.0, 0.0),
     (3, 16, 8, 2.5, None), (1, 64, 32, None, 1.5)],
)
def test_random_field_draws_with_the_cached_envelope_keep_their_bits(
    dim, points, ref_points, band, slope
):
    grid = Grid(dim, points)
    ref = Grid(dim, ref_points) if ref_points else None
    lattice = ref or grid
    for seed in (0, 1, 2):  # the second and third draws read the cached envelope
        draw = _random_spectrum_uncached(lattice, np.random.default_rng(seed), band, slope)
        expected = embedded_field(grid, draw, lattice, band)
        got = random_field(grid, np.random.default_rng(seed), band=band, slope=slope,
                           ref_grid=ref)
        assert np.array_equal(got.values, expected.values)
    envelope = _envelope(grid, 6.0, 1.0)
    assert _envelope(grid, 6.0, 1.0) is envelope and not envelope.flags.writeable


def test_random_field_embedding_needs_empty_reference_nyquist_planes(rng):
    with pytest.raises(ValueError):
        random_field(Grid(2, 16), rng, band=1.0, ref_grid=Grid(2, 2))
    with pytest.raises(ValueError):
        random_field(Grid(2, 32), rng, band=8.0, ref_grid=Grid(2, 16))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_embedding_rejects_content_on_a_source_nyquist_plane(dim):
    # content on the Nyquist plane of each axis in turn, tiny or nan, is
    # rejected when the lattice grows and kept on its own lattice
    src = 8
    coeffs = np.zeros((2, 1) + (src,) * (dim - 1) + (src // 2 + 1,), dtype=complex)
    coeffs[(Ellipsis,) + (-1,) * (dim - 1) + (1,)] = 1.0  # the mode (-1, ..., -1, 1)
    assert np.array_equal(embed_spectrum(coeffs, dim, src, src), coeffs)
    finer = embed_spectrum(coeffs, dim, src, 2 * src)
    assert finer[(Ellipsis,) + (-1,) * (dim - 1) + (1,)].tolist() == [[1.0], [1.0]]
    assert np.count_nonzero(finer) == 2
    for axis in range(dim):
        for bad in (1e-300, np.nan):
            spoilt = coeffs.copy()
            spoilt[(1, 0) + (0,) * axis + (src // 2,)] = bad
            assert np.array_equal(embed_spectrum(spoilt, dim, src, src), spoilt, equal_nan=True)
            for dst in (2 * src, 4 * src):
                with pytest.raises(ValueError, match="Nyquist plane"):
                    embed_spectrum(spoilt, dim, src, dst)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_random_draws_never_reach_a_reference_nyquist_plane(dim, monkeypatch):
    # random_field(ref_grid=...) and verify heatchar embed their draws: the
    # draws' reference Nyquist planes are exactly empty at any band the
    # ensemble accepts, so the embedding's check never trips
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    seen = []
    embed = lptorus.ensembles.embed_spectrum
    monkeypatch.setattr(
        lptorus.ensembles, "embed_spectrum", lambda *a: seen.append(a[0]) or embed(*a)
    )
    rng = np.random.default_rng(dim)
    for ref in (Grid(dim, 4), Grid(dim, 8), Grid(dim, 16)):
        for band in (None, 0.999 * ref.nyquist):
            for components in sorted({1, dim}):
                f = random_field(Grid(dim, 2 * ref.points), rng, components, band, ref_grid=ref)
                assert f.components == components
        with pytest.raises(ValueError, match="below the ref_grid Nyquist"):
            random_field(Grid(dim, 2 * ref.points), rng, band=ref.nyquist, ref_grid=ref)
    draws = len(seen)
    lptorus.suites.heat_characterization_suite(
        dim=dim, resolutions=(8, 16) if dim == 3 else (16, 32), fields_per_case=1
    )
    assert draws == 6 * len({1, dim}) and len(seen) == draws + 4  # one per (sigma, p) case
    for coeffs in seen:
        n = 2 * (coeffs.shape[-1] - 1)
        assert not any(np.any(np.take(coeffs, n // 2, axis=ax)) for ax in range(-dim, 0))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0, 32)
    with pytest.raises(ValueError):
        Grid(2, 24)  # not a power of two
    with pytest.raises(ValueError):
        Grid(2, 32, period=-1.0)


def test_field_shape_validation(grid32):
    with pytest.raises(ValueError):
        Field(grid32, np.zeros((1, 16, 16)))
    with pytest.raises(ValueError):  # a full-lattice spectrum
        Field.from_spectral(grid32, np.zeros((1, 32, 32)))


# -- differential operators -------------------------------------------------


def test_gradient_of_sine(grid32):
    f = single_mode(grid32, (1, 0), phase=-np.pi / 2)  # sin x
    g = gradient(f)
    expected = single_mode(grid32, (1, 0))  # cos x
    assert np.max(np.abs(g.values[0] - expected.values[0])) < 1e-12
    assert np.max(np.abs(g.values[1])) < 1e-12


def test_divergence_of_curl_form_field(grid32):
    # (d_y psi, -d_x psi) is exactly divergence-free
    psi = single_mode(grid32, (2, 3))
    gy = gradient(psi)
    u = Field(grid32, np.stack([gy.values[1], -gy.values[0]]))
    assert np.max(np.abs(divergence(u).values)) < 1e-12


def test_gradient_requires_scalar(grid32):
    with pytest.raises(ValueError):
        gradient(taylor_green(grid32))


def test_divergence_requires_vector(grid32):
    with pytest.raises(ValueError):
        divergence(single_mode(grid32, (1, 0)))


# -- Helmholtz projection ----------------------------------------------------


def test_projection_fixes_divergence_free(grid32):
    u = taylor_green(grid32, 1.7)
    pu = helmholtz_project(u)
    assert np.max(np.abs(pu.values - u.values)) < 1e-12


def test_projection_fixes_sin_swap_field(grid32):
    # u = (sin y, sin x) has zero divergence
    sy = single_mode(grid32, (0, 1), phase=-np.pi / 2)
    sx = single_mode(grid32, (1, 0), phase=-np.pi / 2)
    u = Field(grid32, np.stack([sy.values[0], sx.values[0]]))
    assert np.max(np.abs(divergence(u).values)) < 1e-12
    pu = helmholtz_project(u)
    assert np.max(np.abs(pu.values - u.values)) < 1e-12


def test_projection_annihilates_gradients(grid32):
    psi = single_mode(grid32, (2, 1), 0.8)
    grad = gradient(psi)
    assert np.max(np.abs(helmholtz_project(grad).values)) < 1e-12


def test_projection_idempotent(grid32, rng):
    u = random_field(grid32, rng, components=2)
    once = helmholtz_project(u)
    twice = helmholtz_project(once)
    assert np.max(np.abs(twice.values - once.values)) < 1e-12
    assert np.max(np.abs(divergence(once).values)) < 1e-12 * lp_norm(u, 2.0)


def test_projection_identity_on_mean(grid32):
    u = Field(grid32, np.stack([np.full((32, 32), 1.5), np.full((32, 32), -0.5)]))
    pu = helmholtz_project(u)
    assert np.max(np.abs(pu.values - u.values)) < 1e-14


def test_projection_wrong_components(grid32):
    with pytest.raises(ValueError):
        helmholtz_project(single_mode(grid32, (1, 0)))


# -- heat propagator ----------------------------------------------------------


def test_heat_t0_identity(grid32, rng):
    f = random_field(grid32, rng)
    assert heat_propagate(f, 0.0) is f


def test_heat_negative_t(grid32, rng):
    with pytest.raises(ValueError):
        heat_propagate(random_field(grid32, rng), -0.1)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_heat_rejects_non_finite_t(grid32, rng, t):
    # a nan or inf time would make a nan field: it is rejected before exp(-|k|^2 t) is formed
    f = random_field(grid32, rng)
    with warnings.catch_warnings(), pytest.raises(ValueError, match="finite|>= 0"):
        warnings.simplefilter("error")
        heat_propagate(f, t)


def test_heat_eigenmode(grid32):
    f = single_mode(grid32, (3, 4))
    t = 0.07
    out = heat_propagate(f, t)
    assert np.max(np.abs(out.values - np.exp(-25 * t) * f.values)) < 1e-12


def test_heat_semigroup_composition(grid32, rng):
    f = random_field(grid32, rng)
    s, t = 0.013, 0.21
    a = heat_propagate(heat_propagate(f, t), s)
    b = heat_propagate(f, s + t)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_heat_l2_monotone(grid32, rng):
    f = random_field(grid32, rng)
    norms = [lp_norm(heat_propagate(f, t), 2.0) for t in (0.0, 0.01, 0.1, 0.5, 1.0)]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_heat_sup_contracts_on_smooth_fields(grid32, rng):
    f = random_field(grid32, rng)
    sup0 = lp_norm(f, INF)
    for t in (1e-3, 1e-2, 0.1, 1.0):
        assert lp_norm(heat_propagate(f, t), INF) <= sup0 * (1 + 1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_heat_stack_on_a_half_spectrum_is_the_half_of_the_full_result(dim, rng):
    # the full result: exp(-|k|^2 t) formed by hand on the full lattice
    grid = Grid(dim, 8)
    shape = (2,) + grid.shape
    full = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    times = np.array([0.0, 0.1, 0.35])
    half = heat_stack(full[..., : grid.points // 2 + 1], grid, times)
    ksq = sum(k**2 for k in np.meshgrid(*([grid.k_axis] * dim), indexing="ij"))
    expo = np.exp(-ksq * times.reshape((-1,) + (1,) * dim))
    expected = expo.reshape((3, 1) + grid.shape) * full
    assert np.array_equal(half, expected[..., : grid.points // 2 + 1])


# -- dealiased products -------------------------------------------------------


def test_product_of_two_modes_exact_convolution(grid32):
    # cos(a.x) cos(b.x) = [cos((a+b).x) + cos((a-b).x)] / 2
    f = single_mode(grid32, (3, 2))
    g = single_mode(grid32, (5, -1))
    prod = dealiased_product(f, g)
    expected = 0.5 * (single_mode(grid32, (8, 1)) + single_mode(grid32, (-2, 3)))
    assert np.max(np.abs(prod.values - expected.values)) < 1e-12


def test_high_mode_product_does_not_alias(grid32):
    # naive products of |k| = 12 modes would alias at N = 32; sum mode k = 24
    # exceeds Nyquist and must simply be dropped, leaving the difference mode
    f = single_mode(grid32, (12, 0))
    prod = dealiased_product(f, f)
    expected = 0.5 * Field(grid32, np.ones((1, 32, 32)))
    assert np.max(np.abs(prod.values - expected.values)) < 1e-12


def test_product_broadcasting(grid32, rng):
    scalar = random_field(grid32, rng)
    vector = random_field(grid32, rng, components=2)
    prod = dealiased_product(scalar, vector)
    assert prod.components == 2
    comp = dealiased_product(scalar, vector.component(1))
    assert np.max(np.abs(prod.values[1] - comp.values[0])) < 1e-13


def padded_product_2n(spec_a, spec_b, grid):
    """Reference product: zero-pad onto the 2N lattice, multiply, truncate."""
    dim, n = grid.dim, grid.points
    axes = tuple(range(-dim, 0))
    ints = (np.fft.fftfreq(n) * n).astype(int)
    big = np.ix_(*([ints % (2 * n)] * dim))

    def physical(spec):
        pad = np.zeros(spec.shape[:-dim] + (2 * n,) * dim, dtype=complex)
        pad[(Ellipsis,) + big] = spec
        return np.fft.ifftn(pad, axes=axes, norm="forward").real

    full = np.fft.fftn(physical(spec_a) * physical(spec_b), axes=axes, norm="forward")
    out = full[(Ellipsis,) + big]
    for ax in axes:
        np.moveaxis(out, ax, 0)[n // 2] = 0.0  # the Nyquist plane is dropped
    return out


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([1, 2, 3]),
    components=st.sampled_from([(1, 1), (3, 3), (1, 3), (3, 1)]),
    leading=st.sampled_from([((), ()), ((4,), (4,)), ((4,), (1,)), ((1,), (2, 4))]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dealias_multiply_matches_2n_padding(dim, components, leading, seed):
    # real fields, every mode populated (Nyquist planes included); the
    # reference runs on their full spectra
    grid = Grid(dim, 8 if dim == 3 else 16)
    rng = np.random.default_rng(seed)
    axes = tuple(range(-dim, 0))

    def full_lattice(lead, m):
        values = rng.standard_normal(lead + (m,) + grid.shape)
        return np.fft.fftn(values, axes=axes, norm="forward")

    a = full_lattice(leading[0], components[0])
    b = full_lattice(leading[1], components[1])
    cols = grid.points // 2 + 1
    got = dealias_multiply(a[..., :cols], b[..., :cols], grid)
    expected = padded_product_2n(a, b, grid)
    assert got.shape == expected.shape[:-1] + (cols,)
    assert np.max(np.abs(got - expected[..., :cols])) <= 1e-13 * np.max(np.abs(expected))


def real_spectrum_with_nyquist_rows(grid, rng, components):
    """A random_field's full spectrum plus a real field's content on every
    Nyquist plane."""
    axes = tuple(range(-grid.dim, 0))
    noise = np.fft.fftn(
        rng.standard_normal((components,) + grid.shape), axes=axes, norm="forward"
    )
    ks = np.meshgrid(*([np.arange(grid.points)] * grid.dim), indexing="ij")
    on_nyquist = np.logical_or.reduce([k == grid.points // 2 for k in ks])
    if grid.points > 2:  # a 2-point random_field is the zero field
        noise[..., ~on_nyquist] = 0.0
        values = random_field(grid, rng, components=components).values
        noise += np.fft.fftn(values, axes=axes, norm="forward")
    return noise


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from([(1, 2), (1, 16), (2, 2), (2, 16), (2, 32), (3, 8), (3, 16)]),
    components=st.sampled_from([(3, 3), (2, 3)]),
    same=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_dealiased_products_match_2n_padding_on_real_fields(shape, components, same, seed):
    # the pairs of one batch, one factor or two, against the 2N-padding
    # reference on full spectra; N >= 16 needs exact 3N/2 wavenumbers, at
    # N = 2, N/2 + 1 = N, and in 1-D the first spatial axis is the halved one
    grid = Grid(*shape)
    rng = np.random.default_rng(seed)
    a = real_spectrum_with_nyquist_rows(grid, rng, components[0])
    b = a if same else real_spectrum_with_nyquist_rows(grid, rng, components[1])
    pairs = [(0, 0), (0, 1), (1, 1), (1, 0)] + [(1, 2)] * (b.shape[-grid.dim - 1] > 2)
    cols = grid.points // 2 + 1
    half_a = a[..., :cols]
    half_b = half_a if same else b[..., :cols]
    half = dealiased_products(half_a, half_b, pairs, grid)
    cax = -grid.dim - 1
    expected = np.concatenate(
        [
            padded_product_2n(np.take(a, [i], axis=cax), np.take(b, [j], axis=cax), grid)
            for i, j in pairs
        ],
        axis=cax,
    )
    assert half.shape == expected.shape[:-1] + (cols,)
    scale = max(np.max(np.abs(expected)), 1e-300)
    assert np.max(np.abs(half - expected[..., :cols])) <= 1e-13 * scale
    # and the half spectra are those of the real products
    axes = tuple(range(-grid.dim, 0))
    values = np.fft.irfftn(half, s=grid.shape, axes=axes)
    assert np.max(np.abs(np.fft.ifftn(expected, axes=axes) - values)) <= 1e-13 * scale


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("points", [2, 4, 16])
@pytest.mark.parametrize("same", [True, False])
def test_pruned_product_transforms_are_bit_identical_to_the_full_ones(dim, points, same):
    # the body's transforms run over the N/2+1 columns a factor or the band
    # touches; the reference zero-extends the padding to all 3N/4+1 columns,
    # runs irfftn and rfftn, and gathers the band from the full 3N/2 half
    # lattice (nothing to prune at N = 2, no leading-axis pass in 1-D).  One
    # factor (``spec_b is spec_a``) or two, half spectra of white noise with
    # the Nyquist planes included.  The body's last-axis passes keep at most
    # ``MATRIX_COLUMNS`` columns here, so they are matrix products: equal to
    # the reference to 1e-14 of its largest coefficient
    grid = Grid(dim, points)
    m, cols = 3 * points // 2, points // 2 + 1
    axes = tuple(range(-dim, 0))
    rng = np.random.default_rng(points + dim)
    shape = (2, 3) + grid.shape

    def white_noise():
        spec = np.fft.fftn(rng.standard_normal(shape), axes=axes, norm="forward")
        return spec[..., :cols]

    spec_a = white_noise()
    spec_b = spec_a if same else white_noise()
    pairs = [(0, 0), (0, 1), (1, 2), (2, 2)]

    def to_grid(coeffs):
        pad = _padded(coeffs, grid, m)
        wide = np.zeros(pad.shape[:-1] + (m // 2 + 1,), dtype=complex)
        wide[..., :cols] = pad
        return np.fft.irfftn(wide, s=(m,) * dim, axes=axes, norm="forward")

    va, vb = to_grid(spec_a), to_grid(spec_b)
    prod = np.stack([va[:, i] * vb[:, j] for i, j in pairs], axis=1)
    wide = np.fft.rfftn(prod, axes=axes, norm="forward")
    band = _flat(_mesh(points, dim, np.arange(cols)), m, m // 2 + 1)
    expected = _zero_nyquist(_gather(wide, dim, band), dim, points)
    got = dealiased_products(spec_a, spec_b, pairs, grid)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("points", [2, 4, 16])
def test_half_layout_padding_is_bit_identical_to_the_two_gather_form(dim, points):
    # the reference reads c_p twice behind a zero sentinel, once where p lies
    # in the band [-N/2, N/2 - 1]^n and once where -p does, adds and halves
    grid = Grid(dim, points)
    h, cols = points // 2, points // 2 + 1
    rng = np.random.default_rng(points + dim)
    shape = (2, 3) + grid.shape
    axes = tuple(range(-dim, 0))
    half = np.fft.fftn(rng.standard_normal(shape), axes=axes, norm="forward")[..., :cols]
    m = 3 * points // 2
    ks = _mesh(m, dim, np.arange(cols))
    flat = half.reshape(half.shape[:-dim] + (-1,))
    flat = np.concatenate([flat, np.zeros_like(flat[..., :1])], axis=-1)
    index = _flat(ks, points, cols)
    sentinel = flat.shape[-1] - 1
    low = _gather(flat, 1, np.where(_inside(ks, -h, h - 1, m), index, sentinel))
    high = _gather(flat, 1, np.where(_inside(ks, -h + 1, h, m), index, sentinel))
    assert np.array_equal(_padded(half, grid, m), 0.5 * (low + high))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("points", [2, 4, 16])
def test_the_n_grid_reads_the_half_spectrum_as_it_is(dim, points):
    # at m = N every wavevector lies in both bands mod N: weight 1, the
    # identity index, and the band gather of an r2c is the r2c itself
    grid = Grid(dim, points)
    rng = np.random.default_rng(points + dim)
    values = rng.standard_normal((2, 3) + grid.shape)
    half = _r2c(values, dim, points // 2 + 1)
    assert np.array_equal(_padded(half, grid, points), half)
    # at N/2+1 <= MATRIX_COLUMNS the band read is two matrix products, which
    # round differently from the r2c: equal to 1e-14 of the largest magnitude
    expected = _zero_nyquist(half.copy(), dim, points)
    got = _band_spectrum(values, grid)
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 2, 3]),
    points=st.sampled_from([2, 4, 8, 16, 32]),
    padded=st.booleans(),
    lead=st.sampled_from([(), (1,), (3,), (2, 2)]),
    seed=st.integers(0, 2**32 - 1),
    spoil=st.lists(st.tuples(st.integers(0, 2**22), st.sampled_from([np.nan, np.inf, -np.inf])),
                   max_size=2),
)
@example(dim=2, points=4, padded=True, lead=(3,), seed=0, spoil=[])  # BLAS sums a zero row to -0.0
@example(dim=3, points=8, padded=False, lead=(2, 2), seed=0, spoil=[(5, np.inf)])
def test_matrix_band_read_equals_the_gather_of_the_r2c(dim, points, padded, lead, seed, spoil):
    # at N/2+1 <= MATRIX_COLUMNS the band read is two BLAS products: against
    # the band gather of rfftn with its Nyquist planes zeroed, on m = N or
    # 3N/2 and two samples per leading index, non-finite entries in some.
    # A sample holding one reads non-finite, and only such a sample; the rest
    # agree to 1e-14 of the largest magnitude, their Nyquist planes +0.0
    if dim == 3 and points == 32:
        lead = ()  # a 48^3 grid per sample is enough
    grid = Grid(dim, points)
    m = 3 * points // 2 if padded else points
    values = np.random.default_rng(seed).standard_normal(lead + (2,) + (m,) * dim)
    for pos, bad in spoil:
        values.flat[pos % values.size] = bad
    with np.errstate(invalid="ignore"):
        wide = np.fft.rfftn(values, axes=tuple(range(-dim, 0)), norm="forward")
        got = _band_spectrum(values, grid)
    expected = _zero_nyquist(_gather(wide, dim, _band_index(points, dim, m)), dim, points)
    assert got.shape == expected.shape == lead + (2,) + grid.half_shape
    spatial = tuple(range(-dim, 0))
    bad = ~np.all(np.isfinite(got), axis=spatial)
    assert np.array_equal(bad, ~np.all(np.isfinite(values), axis=spatial))
    for plane in _nyquist_planes(dim, points):
        zero = got[plane][~bad]
        assert not np.any(zero) and not np.any(np.signbit(zero.real) | np.signbit(zero.imag))
    if not np.all(bad):
        scale = np.max(np.abs(expected[~bad]))
        assert np.max(np.abs(got[~bad] - expected[~bad])) <= 1e-14 * scale


@pytest.mark.parametrize("points", [8, 16, 32])
def test_the_3d_band_read_in_column_blocks_equals_one_product_per_pass(points):
    # the leading passes run in column blocks (one OpenBLAS thread per call);
    # against one product per pass they agree to 1e-15 of the largest
    # magnitude, not bit for bit: OpenBLAS rounds a block's column tail apart
    grid, m, h = Grid(3, points), 3 * points // 2, points // 2
    values = np.random.default_rng(points).standard_normal((2, m, m, m))
    band = spectral._band_basis(points, m)
    x = (values @ spectral._dft_basis(h, m, False)).view(np.complex128)
    x = (band @ x.reshape(2, m, -1)).reshape(2, points, m, h)
    expected = np.zeros((2,) + grid.half_shape, np.complex128)
    expected[..., :h] = band @ x
    got = _band_spectrum(values, grid)
    assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))


@pytest.mark.parametrize("points", [8, 16, 32])
def test_no_complex_product_of_a_3d_band_read_reaches_the_blas_thread_threshold(points):
    # OpenBLAS runs a zgemm of M N K > 2^16 complex multiply-adds on a second
    # thread, which beside the forked oracle only costs time.  The real
    # last-axis pass (a dgemm, 48 x 48 x 32 at N = 32) stayed on one thread up
    # to 276,480 in a probe, so it stays one call
    grid, m = Grid(3, points), 3 * points // 2
    out = np.empty((4,) + grid.half_shape, np.complex128)
    calls = spectral._band_plan(np.empty((4, m, m, m)), grid, out)
    assert all(call.func is np.matmul for call in calls)
    sizes = [a.shape[-2] * a.shape[-1] * b.shape[-1] for a, b in (call.args for call in calls)
             if b.dtype == np.complex128]
    assert len(sizes) == len(calls) - 1 and max(sizes) < 2**16


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("points", [2, 4, 8, 16])
def test_pruned_c2r_is_bit_identical_to_irfftn_of_the_zero_filled_half(dim, points):
    # any complex half spectrum, non-Hermitian k = 0 and Nyquist columns
    # included; cut to its first C columns it means the zero-filled half.
    # At C <= MATRIX_COLUMNS the last-axis pass is a matrix product, equal to
    # irfftn to 1e-14 of the largest value
    grid = Grid(dim, points)
    cols = points // 2 + 1
    axes = tuple(range(-dim, 0))
    rng = np.random.default_rng(points + dim)
    shape = (2, 3) + grid.shape[:-1] + (cols,)
    half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for c in range(1, cols + 1):
        filled = np.zeros_like(half)
        filled[..., :c] = half[..., :c]
        expected = np.fft.irfftn(filled, s=grid.shape, axes=axes, norm="forward")
        got = values_from_half(half[..., :c], grid)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


@st.composite
def _transform_cases(draw):
    """(dim, N, m, C): dim 1-3, N 2-128, m = N or 3N/2 with m^dim <= 2^18,
    and C any cut up to m/2+1, the rule's edges MATRIX_COLUMNS and one more
    and the full width (Nyquist column included) drawn often."""
    dim = draw(st.sampled_from([1, 2, 3]))
    points = draw(st.sampled_from([n for n in (2, 4, 8, 16, 32, 64, 128) if n**dim <= 2**18]))
    m = draw(st.sampled_from([m for m in {points, 3 * points // 2} if m**dim <= 2**18]))
    top = m // 2 + 1
    edges = [c for c in (1, MATRIX_COLUMNS, MATRIX_COLUMNS + 1, top) if c <= top]
    return dim, points, m, draw(st.sampled_from(edges) | st.integers(1, top))


def _assert_transform_agrees(got, expected, data, matrix):
    """Per sample (leading axis): a pocketfft pass is ``expected`` bit for bit;
    a matrix pass is it to 1e-14 of the largest finite value, and is non-finite
    exactly where ``data`` holds a non-finite entry, which spoils its whole
    row (pocketfft drops a non-finite Im c_0 or Im c_{m/2} instead)."""
    axes = tuple(range(1, got.ndim))
    assert got.shape == expected.shape
    bad_data = ~np.all(np.isfinite(data), axis=tuple(range(1, data.ndim)))
    bad_ref = ~np.all(np.isfinite(expected), axis=axes)
    bad = ~np.all(np.isfinite(got), axis=axes)
    assert np.array_equal(bad, bad_data if matrix else bad_ref)
    assert np.all(bad_data >= bad_ref)
    if not matrix:
        assert np.array_equal(got[~bad], expected[~bad])
    elif not np.all(bad):
        scale = np.max(np.abs(expected[~bad]))
        assert np.max(np.abs(got[~bad] - expected[~bad])) <= 1e-14 * scale


@settings(max_examples=80, deadline=None)
@given(
    case=_transform_cases(),
    seed=st.integers(0, 2**32 - 1),
    spoil=st.lists(
        st.tuples(st.integers(0, 2**20), st.sampled_from([np.nan, np.inf, -np.inf]),
                  st.sampled_from(["real", "imag", "both"])),
        max_size=3,
    ),
)
@example(case=(1, 8, 8, 5), seed=0, spoil=[(0, np.nan, "imag")])  # Im c_0, dropped by irfft
@example(case=(2, 2, 2, 2), seed=0, spoil=[(0, np.inf, "imag")])  # still only Im c_0 after the ifft
def test_transforms_equal_pocketfft_on_both_sides_of_the_matrix_rule(case, seed, spoil):
    # _c2r and _r2c against irfftn and rfftn of the zero-filled half: three
    # samples, or in 1-D m of them so that the matrix rule can hold, the first
    # all zero, non-finite entries in the others
    dim, points, m, cols = case
    samples = max(3, m) if dim == 1 else 3
    axes = tuple(range(-dim, 0))
    rng = np.random.default_rng(seed)
    shape = (samples,) + (m,) * (dim - 1) + (cols,)
    half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    values = rng.standard_normal((samples,) + (m,) * dim)
    half[0], values[0] = 0.0, 0.0
    for pos, bad, part in spoil:
        at = np.unravel_index(pos % half[1:].size, half[1:].shape)
        entry = half[1:][at]
        half[1:][at] = complex(entry.real if part == "imag" else bad,
                               entry.imag if part == "real" else bad)
        values[1:].flat[pos % values[1:].size] = bad
    filled = np.zeros(shape[:-1] + (m // 2 + 1,), dtype=complex)
    filled[..., :cols] = half
    with np.errstate(invalid="ignore"):
        expected = np.fft.irfftn(filled, s=(m,) * dim, axes=axes, norm="forward")
        spec_expected = np.fft.rfftn(values, axes=axes, norm="forward")[..., :cols]
        got = _c2r(half, dim, m)
        spec = _r2c(values, dim, cols)[..., :cols]
    matrix = cols <= MATRIX_COLUMNS and samples * m ** (dim - 1) >= m  # the rule: at least m transforms
    _assert_transform_agrees(got, expected, half, matrix)
    _assert_transform_agrees(spec, spec_expected, values, matrix)
    # the zero sample transforms to zeros, and its norms read +0.0
    assert not np.any(got[0]) and not np.any(spec[0])
    if m == points:
        for p in (1.0, 2.0, INF):
            norm = _lp_norms(got[:1, None], Grid(dim, m), p)
            assert norm[0] == 0.0 and not np.signbit(norm[0])


def test_no_basis_is_built_for_a_pass_wider_than_the_matrix_rule(monkeypatch, rng):
    # a 1-D N = 2^14 block table (shells of 2 to 8193 columns, one transform
    # each) and a 2-D N = 128 product (65 of 97 columns) take no basis: a
    # matrix pass keeps at most MATRIX_COLUMNS columns and makes at least m
    # transforms, so its basis is never larger than its output (a 1-D N = 2^16
    # norm once built and kept 46 MB of them).  The folded pad's leading pass
    # follows the same rule
    built = []
    basis = spectral._dft_basis
    monkeypatch.setattr(spectral, "_dft_basis",
                        lambda cols, m, inverse: built.append((cols, m)) or basis(cols, m, inverse))
    block_lp_norms(random_field(Grid(1, 2**14), rng), 2.0)
    grid = Grid(2, 128)
    spec = random_field(grid, rng, components=2).spectral
    dealiased_products(spec, spec, [(0, 0), (0, 1)], grid)
    assert built == []
    basis.cache_clear()
    for cols in (MATRIX_COLUMNS, MATRIX_COLUMNS + 1):  # the rule's edges, both ways
        for rows in (63, 64):
            built.clear()
            _c2r(np.zeros((rows, cols), dtype=complex), 1, 64)
            _r2c(np.zeros((rows, 64)), 1, cols)
            assert built == ([(cols, 64)] * 2 if cols <= MATRIX_COLUMNS and rows == 64 else [])
    # the 2-D N = 32 pad onto m = 48 transforms rows * 17 columns in its leading pass
    assert [spectral._Pad(Grid(2, 32), 48, (), (rows,)).fold for rows in (2, 3)] == [False, True]


@pytest.mark.parametrize("shape", [(1, 8), (2, 2), (2, 16), (3, 8)])
def test_hermitian_half_inverts_to_the_real_part(shape, rng):
    # any complex full spectrum, Nyquist planes included
    grid = Grid(*shape)
    axes = tuple(range(-grid.dim, 0))
    coeffs = rng.standard_normal((2, 3) + grid.shape) + 1j * rng.standard_normal(
        (2, 3) + grid.shape
    )
    half = hermitian_half(coeffs, grid.dim)
    assert half.shape == (2, 3) + grid.shape[:-1] + (grid.points // 2 + 1,)
    got = np.fft.irfftn(half, s=grid.shape, axes=axes)
    expected = np.fft.ifftn(coeffs, axes=axes).real
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_product_grid_mismatch(grid32, grid64, rng):
    with pytest.raises(ValueError):
        dealiased_product(random_field(grid32, rng), random_field(grid64, rng))


# -- field file format --------------------------------------------------------


def test_field_file_round_trip(tmp_path, grid32, rng):
    f = random_field(grid32, rng, components=2)
    path = tmp_path / "f.lpfld"
    write_field(path, f)
    g = read_field(path)
    assert g.grid == f.grid
    assert g.components == 2
    assert np.array_equal(g.values, f.values)


def test_field_file_header_is_ascii_line(tmp_path, grid32):
    path = tmp_path / "f.lpfld"
    write_field(path, taylor_green(grid32))
    header = path.read_bytes().split(b"\n", 1)[0]
    assert header == b"LPFLD1 2 2 32 6.283185307179586"


@pytest.mark.parametrize(
    "header,expect",
    [
        (b"NOPE 2 1 32 6.28\n", "magic"),
        (b"LPFLD1 x 1 32 6.28\n", "dim"),
        (b"LPFLD1 2 y 32 6.28\n", "components"),
        (b"LPFLD1 2 1 31 6.28\n", "points"),
        (b"LPFLD1 2 1 32 zzz\n", "period"),
        (b"LPFLD1 2 1 32\n", "header"),
    ],
)
def test_field_file_errors_name_offending_field(tmp_path, header, expect):
    path = tmp_path / "bad.lpfld"
    path.write_bytes(header + b"\x00" * 16)
    with pytest.raises(FieldFormatError) as err:
        read_field(path)
    assert err.value.field == expect


def test_field_file_payload_size_checked(tmp_path, grid32):
    path = tmp_path / "short.lpfld"
    path.write_bytes(b"LPFLD1 2 1 32 6.283185307179586\n" + b"\x00" * 100)
    with pytest.raises(FieldFormatError) as err:
        read_field(path)
    assert err.value.field == "payload"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_field_file_non_finite_payload_rejected(tmp_path, grid32, bad):
    values = np.zeros((1,) + grid32.shape)
    values[0, 3, 5] = bad
    path = tmp_path / "nonfinite.lpfld"
    path.write_bytes(b"LPFLD1 2 1 32 6.283185307179586\n" + values.astype("<f8").tobytes())
    with pytest.raises(FieldFormatError) as err:
        read_field(path)
    assert err.value.field == "payload"


def test_only_the_spectral_module_calls_numpy_fft():
    package = Path(lptorus.__file__).parent
    callers = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "spectral.py" and re.search(r"\b(np|numpy)\.fft\b", path.read_text())
    ]
    assert callers == []
    # and spectral.py itself runs real-to-complex transforms and 1-D passes
    # only: no fftn/ifftn of a whole lattice
    source = (package / "spectral.py").read_text()
    called = set(re.findall(r"\b(?:np|numpy)\.fft\.(\w+)", source))
    assert called <= {"rfftn", "rfft", "irfft", "fft", "ifft", "fftfreq"}


def test_only_the_fourier_matrix_evaluates_complex_exponentials():
    # every e^{ikx} table of spectral, besov and solver comes from
    # spectral._fourier: outside it no np.cos or np.sin is called, and no
    # np.exp of an imaginary argument
    package = Path(lptorus.__file__).parent
    found, inside = [], set()
    for name in ("spectral.py", "besov.py", "solver.py"):
        tree = ast.parse((package / name).read_text())
        defs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_fourier"]
        fourier = {id(node) for f in defs for node in ast.walk(f)}
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            if not (isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in ("np", "numpy")):
                continue
            imaginary = any(isinstance(c, ast.Constant) and isinstance(c.value, complex) for c in ast.walk(node))
            if func.attr in ("cos", "sin") or (func.attr == "exp" and imaginary):
                (inside.add(func.attr) if id(node) in fourier else found.append((name, node.lineno)))
    assert found == []
    assert inside == {"cos", "sin"}  # the scan sees _fourier's own calls


def _dft_basis_closed_form(cols, m, inverse):
    # the real DFT basis as built before the one Fourier matrix: cosine and
    # sine tables of the centred angles, read row by row at k j mod m
    j = np.arange(m)
    angle = TWO_PI / m * np.where(2 * j < m, j, j - m)
    cos, sin = np.cos(angle), -np.sin(angle)
    sin[2 * j % m == 0] = 0.0
    basis = np.empty((2 * cols, m) if inverse else (m, 2 * cols))
    pairs = basis if inverse else basis.T
    for k in range(cols):
        pairs[2 * k], pairs[2 * k + 1] = cos[k * j % m], sin[k * j % m]
    if inverse:
        pairs *= np.where((j[:cols] == 0) | (2 * j[:cols] == m), 1.0, 2.0).repeat(2)[:, None]
    else:
        pairs /= m
    return basis


def _band_basis_closed_form(n, m):
    pos = _dft_basis_closed_form(n // 2, m, False).view(np.complex128).T
    return np.concatenate([pos, np.zeros_like(pos[:1]), pos[:0:-1].conj()])


def _pad_bases_closed_form(n, m):
    h, x = n // 2, np.arange(m)[:, None]
    turn = x * np.append(_wavenumbers(n), h) % m
    angle = TWO_PI / m * np.where(2 * turn < m, turn, turn - m)
    e = np.cos(angle) + 1j * np.where(2 * turn % m == 0, 0.0, np.sin(angle))
    a, d = e[:, :n].copy(), e[:, h] - e[:, n]
    a[:, h] -= d / 2
    last = _dft_basis_closed_form(h + 1, m, True)
    last[2 * h :] *= 1.0 if m == n else 0.5
    return a, -d / 2, last


def test_bases_from_the_one_fourier_matrix_equal_their_closed_forms():
    # bit for bit, signs of zero included, for N = 2..64, m = N and 3N/2 and
    # every cut up to min(m/2+1, 33) columns both ways
    def same(got, want):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()

    for n in (2, 4, 8, 16, 32, 64):
        for m in sorted({n, 3 * n // 2}):
            for cols in range(1, min(m // 2 + 1, 33) + 1):
                for inverse in (False, True):
                    same(spectral._dft_basis(cols, m, inverse), _dft_basis_closed_form(cols, m, inverse))
            same(spectral._band_basis(n, m), _band_basis_closed_form(n, m))
            for got, want in zip(spectral._pad_bases(n, m), _pad_bases_closed_form(n, m), strict=True):
                same(got, want)
    # the block tables' row bases: within 1e-15 of exp of the uncentred angles
    cut = build_cutoffs()
    for n in (8, 16, 32, 64):
        grid = Grid(2, n)
        for q in range(-1, shell_max(grid) + 1):
            head, tail, _, basis = besov._shell_rows(grid, q, cut)
            k = _wavenumbers(n)[np.r_[0:head, tail:n]]
            want = np.exp(TWO_PI / n * 1j * (np.outer(np.arange(n), k) % n))
            assert np.max(np.abs(basis - want)) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 2, 3]),
    points=st.sampled_from([2, 4, 8, 16, 32]),
    padded=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    spoil=st.lists(st.tuples(st.integers(0, 2**22), st.sampled_from([np.nan, np.inf, -np.inf]),
                             st.booleans()), max_size=2),
)
@example(dim=3, points=8, padded=True, seed=0, spoil=[])
@example(dim=2, points=4, padded=False, seed=1, spoil=[(3, np.inf, True)])
def test_folded_pad_equals_the_padded_pocketfft_c2r(dim, points, padded, seed, spoil):
    # the folded pad (2-D) reads the N half lattice through its BLAS bases,
    # and 1-D and 3-D keep _c2r of _padded: against _padded and irfftn of the
    # zero-filled pruned m half spectrum, on half spectra of white noise whose
    # Nyquist planes are populated and whose 3-D corner line c(-N/2, -N/2, .)
    # is ten times larger, on m = N and 3N/2.  The first sample stays finite;
    # a non-finite entry spoils its own sample
    grid, h = Grid(dim, points), points // 2
    m = 3 * points // 2 if padded else points
    rows = {1: 48, 2: 4, 3: 2}[dim]  # enough transforms for the rule
    rng = np.random.default_rng(seed)
    shape = (rows,) + grid.half_shape
    half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if dim == 3:
        half[..., h, h, :] *= 10.0
    for pos, bad, real in spoil:
        at = np.unravel_index(pos % half[1:].size, half[1:].shape)
        entry = half[1:][at]
        half[1:][at] = complex(bad, entry.imag) if real else complex(entry.real, bad)
    pad = spectral._Pad(grid, m, (), (rows,))
    assert pad.fold == (dim == 2)
    filled = np.zeros(shape[:-1 - (dim - 1)] + (m,) * (dim - 1) + (m // 2 + 1,), dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        filled[..., : h + 1] = _padded(half, grid, m)
        expected = np.fft.irfftn(filled, s=(m,) * dim, axes=tuple(range(-dim, 0)), norm="forward")
        got = pad(half)
    _assert_transform_agrees(got, expected, half, True)
