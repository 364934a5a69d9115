"""Bony decomposition and the sampled product-estimate constants."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lptorus import (
    BilinearEstimateSpec,
    Field,
    bilinear_constant_estimate,
    bony_decompose,
    dealiased_product,
    dyadic_block,
    paraproduct_T,
    remainder_R,
    shell_max,
    single_mode,
)
from lptorus import besov, dyadic, paraproduct, spectral, suites
from lptorus.besov import INF, FieldTrajectory, besov_norm, chemin_lerner_norm, heat_trajectory
from lptorus.dyadic import (
    block_weights,
    lowpass_weights,
    reconstruction_cap,
    require_shell,
    shell_bounds,
    support_report,
)
from lptorus.ensembles import embedded_field, random_field, random_spectrum
from lptorus.paraproduct import ESTIMATE_IDS, _bony_parts, _harmonic_conjugate
from lptorus.spectral import Grid, dealias_multiply, dealiased_products, values_from_half


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0.0, exclude_min=True, allow_nan=False), min_size=1, max_size=20))
def test_the_suite_median_is_numpy_median_bit_for_bit(vals):
    # the ratios are filtered to > 0 before the median, so no NaN reaches it
    with np.errstate(over="ignore"):
        expected = float(np.median(vals))
    assert paraproduct._median(vals).hex() == expected.hex()


def test_paraproduct_of_zero(grid32, rng):
    u = random_field(grid32, rng)
    z = Field.zeros(grid32)
    assert np.max(np.abs(paraproduct_T(u, z).values)) == 0.0
    assert np.max(np.abs(remainder_R(u, z).values)) == 0.0


def test_paraproduct_constant_first_argument(grid64, rng):
    # S_{q-1} of a constant is the constant itself for q >= 1, so
    # T(c, v) = c * sum_{q >= 1} block_q v
    c = 2.3
    const = Field(grid64, np.full((1, 64, 64), c))
    v = random_field(grid64, rng)
    expected = None
    for q in range(1, shell_max(grid64) + 1):
        term = dyadic_block(v, q)
        expected = term if expected is None else expected + term
    got = paraproduct_T(const, v)
    assert np.max(np.abs(got.values - c * expected.values)) < 1e-12


def test_separated_modes_route_through_T_only(grid64):
    # u at |k| = 1 (blocks -1, 0), v at |k| ~ 11.3 (block 3): the remainder
    # and the reversed paraproduct vanish identically and T(u, v) carries
    # the whole product
    u = single_mode(grid64, (1, 0))
    v = single_mode(grid64, (8, 8))
    Tuv = paraproduct_T(u, v)
    Tvu = paraproduct_T(v, u)
    Ruv = remainder_R(u, v)
    uv = dealiased_product(u, v)
    assert np.max(np.abs(Tvu.values)) < 1e-13
    assert np.max(np.abs(Ruv.values)) < 1e-13
    assert np.max(np.abs(Tuv.values - uv.values)) < 1e-12


def test_remainder_of_disjoint_shells_vanishes(grid64):
    u = single_mode(grid64, (1, 0))  # shells -1, 0
    v = single_mode(grid64, (8, 8))  # shell 3
    assert np.max(np.abs(remainder_R(u, v).values)) < 1e-13


def test_remainder_symmetric(grid32, rng):
    u = random_field(grid32, rng)
    v = random_field(grid32, rng)
    a = remainder_R(u, v)
    b = remainder_R(v, u)
    assert np.max(np.abs(a.values - b.values)) < 1e-12 * np.max(np.abs(a.values))


def test_remainder_of_equal_single_mode_carries_square(grid64):
    # block q = 2 squared: uv = R(u, u) exactly (T parts vanish since
    # S_{q-1} u = 0 for the shells where block_q u is nonzero)
    u = single_mode(grid64, (4, 4))
    uv = dealiased_product(u, u)
    r = remainder_R(u, u)
    assert np.max(np.abs(paraproduct_T(u, u).values)) < 1e-13
    assert np.max(np.abs(r.values - uv.values)) < 1e-12


def test_decomposition_identity_random_pairs(grid64, rng):
    worst = 0.0
    for _ in range(25):
        u = random_field(grid64, rng)
        v = random_field(grid64, rng)
        parts = bony_decompose(u, v)
        uv = dealiased_product(u, v)
        err = np.max(np.abs(parts.total().values - uv.values))
        worst = max(worst, err / np.max(np.abs(uv.values)))
    assert worst < 1e-12


def test_bilinearity_of_T(grid32, rng):
    u, w, v = (random_field(grid32, rng) for _ in range(3))
    a, b = 1.3, -0.7
    lhs = paraproduct_T(a * u + b * w, v)
    rhs = a * paraproduct_T(u, v) + b * paraproduct_T(w, v)
    scale = np.max(np.abs(lhs.values))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12 * max(scale, 1.0)


def test_R_summand_localization(grid64, rng):
    # the annulus containment of every summand is certified by
    # support_report; here assert the remainder-side claim directly on
    # explicit diagonal block products
    u = random_field(grid64, rng)
    v = random_field(grid64, rng)
    for q in range(0, shell_max(grid64) + 1):
        bu = dyadic_block(u, q)
        bv = dyadic_block(v, q)
        prod = dealiased_product(bu, bv)
        hi = 2.0 * shell_bounds(q)[1]
        outside = grid64.k_abs > hi + 1e-9
        if np.any(outside):
            assert np.max(np.abs(prod.spectral[0][outside])) < 1e-13


# ---------------------------------------------------------------------------
# the parts against the per-shell products they replace, written out here:
# one 3/2-rule product per shell, each factor cut by its multiplier on the N
# half lattice


def _per_shell_T(u, v):
    grid, total = u.grid, 0.0
    for q in range(1, shell_max(grid) + 1):
        low = u.spectral * lowpass_weights(grid, q - 1)
        total = total + dealias_multiply(low, v.spectral * block_weights(grid, q), grid)
    return total


def _per_shell_R(u, v):
    grid, total = u.grid, 0.0
    qs = range(-1, shell_max(grid) + 1)
    bv = [v.spectral * block_weights(grid, q) for q in qs]
    for i, q in enumerate(qs):
        near = sum(bv[max(i - 1, 0) : i + 2])
        total = total + dealias_multiply(u.spectral * block_weights(grid, q), near, grid)
    return total


def _assert_matches(got, expected, scale):
    expected = np.broadcast_to(expected, got.shape)  # 0.0 when no shell contributes
    assert np.max(np.abs(got - expected)) <= 1e-14 * scale


EQUIVALENCE_CASES = [
    # (dim, N, components of u, components of v); N = 4 and 8 have
    # shell_max -1 and 0, where both paraproducts vanish
    (2, 32, 1, 1), (2, 32, 2, 2), (2, 32, 1, 2), (2, 32, 2, 1), (2, 64, 1, 1),
    (3, 16, 1, 1), (3, 16, 2, 2), (3, 16, 1, 2), (2, 4, 1, 1), (2, 8, 1, 2),
]


@pytest.mark.parametrize("dim, n, cu, cv", EQUIVALENCE_CASES)
def test_parts_match_per_shell_products(dim, n, cu, cv):
    grid = Grid(dim, n)
    rng = np.random.default_rng(100 * dim + n + 10 * cu + cv)
    # every mode of the lattice: partial shells and Nyquist planes too
    u = random_field(grid, rng, components=cu, band=np.inf)
    v = random_field(grid, rng, components=cv, band=np.inf)
    parts = bony_decompose(u, v)
    scale = np.max(np.abs(dealiased_product(u, v).spectral))
    for got, expected in (
        (parts.Tuv, _per_shell_T(u, v)),
        (parts.Tvu, _per_shell_T(v, u)),
        (parts.Ruv, _per_shell_R(u, v)),
        (paraproduct_T(u, v), _per_shell_T(u, v)),
        (remainder_R(u, v), _per_shell_R(u, v)),
    ):
        assert got.components == max(cu, cv)
        _assert_matches(got.spectral, expected, scale)
    assert (shell_max(grid) >= 1) == bool(np.any(parts.Tuv.values))


@pytest.mark.parametrize("dim, n, cu, cv", EQUIVALENCE_CASES)
def test_support_report_matches_per_shell_products(dim, n, cu, cv, monkeypatch):
    grid = Grid(dim, n)
    rng = np.random.default_rng(100 * dim + n + 10 * cu + cv)
    f = random_field(grid, rng, components=cu, band=np.inf)
    g = random_field(grid, rng, components=cv, band=np.inf)
    batches = []
    band_spectrum = dyadic._band_spectrum
    monkeypatch.setattr(
        dyadic, "_band_spectrum", lambda *a: batches.append(band_spectrum(*a)) or batches[-1]
    )
    report = support_report(f, g)
    (got,) = batches  # one r2c batch for every checked product
    qm, fs, gs = shell_max(grid), f.spectral, g.spectral
    expected = [
        dealias_multiply(fs * lowpass_weights(grid, q - 1), gs * block_weights(grid, q), grid)
        for q in range(1, qm + 1)
    ] + [
        dealias_multiply(fs * block_weights(grid, q), gs * block_weights(grid, k), grid)
        for q in range(-1, qm + 1)
        for k in (q - 1, q, q + 1)
        if -1 <= k <= qm
    ]
    assert len(got) == len(expected)
    scale = np.max(np.abs(dealiased_product(f, g).spectral))
    for prod, ref in zip(got, expected):
        _assert_matches(prod, ref, scale)
    assert report["pass"], report


def test_exponent_arithmetic():
    assert _harmonic_conjugate(2.0, 2.0) == 1.0
    assert _harmonic_conjugate(INF, 2.0) == 2.0
    assert _harmonic_conjugate(INF, INF) == INF
    spec = BilinearEstimateSpec("2.6", p1=INF, p2=INF, rho1=2.0, rho2=2.0)
    assert spec.p == INF and spec.rho == 1.0
    with pytest.raises(ValueError):
        BilinearEstimateSpec("9.9")


@pytest.mark.parametrize("estimate", ["2.4", "2.5"])
def test_static_estimates_resolution_stable(estimate):
    spec = BilinearEstimateSpec(estimate, trials=30, seed=11, **(
        dict(p1=INF, p2=2.0, r=2.0) if estimate == "2.4" else dict(p1=INF, p2=INF)
    ))
    report = bilinear_constant_estimate(spec, resolutions=(32, 64))
    assert report["pass"], report["stats"]
    assert report["stats"][32]["count"] == 30


@pytest.mark.parametrize("estimate", ["2.6", "2.7"])
def test_time_estimates_resolution_stable(estimate):
    spec = BilinearEstimateSpec(
        estimate, p1=INF, p2=INF, r=2.0, rho1=2.0, rho2=2.0, trials=10, seed=5
    )
    report = bilinear_constant_estimate(spec, resolutions=(32, 64), time_samples=9)
    assert report["pass"], report["stats"]
    assert report["exponents"]["rho"] == 1.0


def test_degenerate_zero_inputs_are_skipped(grid32):
    spec = BilinearEstimateSpec("2.4", trials=3, seed=0)
    report = bilinear_constant_estimate(spec, resolutions=(16, 32))
    assert all(stats["count"] == 3 for stats in report["stats"].values())


def test_a_repeated_resolution_is_rejected():
    # a lattice named twice would compare its ratios with themselves
    spec = BilinearEstimateSpec("2.4", p1=INF, p2=2.0, r=2.0, trials=4, seed=2)
    with pytest.raises(ValueError, match="distinct"):
        bilinear_constant_estimate(spec, resolutions=(16, 16))


# each trial of the sampled constants forms its product once on the reference
# lattice, where the band-limited draws do not alias, and lifts u, v and uv to
# every resolution


def _beyond(half, grid, radius):
    """The coefficients of a half stack at wavevectors with some |k_i| >= radius."""
    n = grid.points
    axes = [np.abs(np.fft.fftfreq(n) * n)] * (grid.dim - 1) + [np.arange(n // 2 + 1)]
    inside = np.logical_and.reduce([k < radius for k in np.meshgrid(*axes, indexing="ij")])
    return half[..., ~inside]


LIFT_REFERENCE_POINTS = {1: 32, 2: 16, 3: 8}
TIMES = np.linspace(0.0, 1.0, 5)


def _lifted(dim, seed, times):
    """The reference and doubled grids, and u, v and uv lifted to each."""
    ref = Grid(dim, LIFT_REFERENCE_POINTS[dim])
    grids = [ref, Grid(dim, 2 * ref.points)]
    rng = np.random.default_rng(seed)
    draw = (random_spectrum(ref, rng), random_spectrum(ref, rng))
    return ref, grids, draw, list(paraproduct._lifted_trial(draw, ref, grids, times))


@settings(max_examples=12, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1), timed=st.booleans())
def test_sampled_products_match_the_three_halves_rule(dim, seed, timed):
    ref, grids, _, lifted = _lifted(dim, seed, TIMES if timed else None)
    for grid, (u, v, uv) in zip(grids, lifted):
        # exact zeros: the factors from N_ref / 4, the product from N_ref / 2
        # (N / 4 on the doubled grid), its Nyquist planes zeroed
        assert not np.any(_beyond(u, grid, ref.points / 4))
        assert not np.any(_beyond(v, grid, ref.points / 4))
        assert not np.any(_beyond(uv, grid, ref.points / 2))
        expected = dealiased_products(u, v, [(0, 0)], grid)
        assert uv.shape == expected.shape
        assert np.max(np.abs(uv - expected)) <= 1e-13 * np.max(np.abs(expected))


def _per_resolution_ratio(spec, draw, ref, grid, times):
    """The ratio as each resolution made it before the lift: the draws
    embedded and scaled to sup 1 there, heat-evolved there and multiplied on
    that grid."""
    u, v = (embedded_field(grid, coeffs, ref) for coeffs in draw)
    u_space, v_space, uv_space = spec.spaces
    if times is None:
        uv = Field(grid, u.values * v.values)
        rhs = besov_norm(u, u_space) * besov_norm(v, v_space)
        return besov_norm(uv, uv_space) / rhs
    tu, tv = (heat_trajectory(f, times) for f in (u, v))
    values = values_from_half(tu.half, grid) * values_from_half(tv.half, grid)
    product = spectral._r2c(values, grid.dim, grid.points // 2 + 1)
    tuv = FieldTrajectory.from_half(grid, times, product)
    rhs = chemin_lerner_norm(tu, spec.rho1, u_space) * chemin_lerner_norm(tv, spec.rho2, v_space)
    return chemin_lerner_norm(tuv, spec.rho, uv_space) / rhs


@settings(max_examples=12, deadline=None)
@given(
    dim=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
    estimate=st.sampled_from(ESTIMATE_IDS),
)
def test_lifted_ratios_match_the_per_resolution_construction(dim, seed, estimate):
    spec = BilinearEstimateSpec(estimate, **suites.DEFAULT_EXPONENTS[estimate])
    times = TIMES if spec.time_dependent else None
    ref, grids, draw, lifted = _lifted(dim, seed, times)
    for grid, halves in zip(grids, lifted):
        got = paraproduct._ratio(spec, grid, times, *halves)
        expected = _per_resolution_ratio(spec, draw, ref, grid, times)
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_a_lemma_two_seven_trial_transforms_no_empty_shell(monkeypatch):
    # the draws reach |k| = 3 N_ref / 16 = 6, below shell 3 of N = 64: its u
    # and v tables transform 4 of their 5 shells, the product's all 5
    sizes = []
    c2r, table = besov._c2r, besov._block_table
    monkeypatch.setattr(besov, "_c2r", lambda *a, **k: sizes.append(a[2]) or c2r(*a, **k))
    ref, grids = Grid(2, 32), [Grid(2, 32), Grid(2, 64)]
    rng = np.random.default_rng(7)
    draw = (random_spectrum(ref, rng), random_spectrum(ref, rng))
    times = np.linspace(0.0, 1.0, 13)
    for grid, halves in zip(grids, paraproduct._lifted_trial(draw, ref, grids, times)):
        counts = []
        for half in halves:
            sizes.clear()
            rows = table(half, grid, INF)
            counts.append(len(sizes))
            assert set(sizes) <= {grid.points} and not np.any(rows[len(sizes) :])
        assert counts == ([4, 4, 4] if grid.points == 32 else [4, 4, 5])


def test_sampled_constants_make_no_three_halves_product(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    calls = []
    for name in ("dealiased_product", "dealiased_products"):
        real = getattr(spectral, name)
        spy = lambda *args, name=name, real=real: calls.append(name) or real(*args)
        monkeypatch.setattr(spectral, name, spy)
        monkeypatch.setattr(paraproduct, name, spy, raising=False)  # an imported name
    for estimate in ESTIMATE_IDS:
        spec = BilinearEstimateSpec(estimate, trials=2, seed=1)
        bilinear_constant_estimate(spec, resolutions=(16, 32), time_samples=5)
    assert calls == []


# verify bony sums the parts of its band-limited draws on the N grid, with no
# 3/2 padding, and takes the product of the grid values as its reference


@settings(max_examples=12, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1))
def test_bony_parts_on_the_n_grid_match_the_three_halves_grid(dim, seed):
    grid = Grid(dim, {1: 64, 2: 32, 3: 16}[dim])
    rng = np.random.default_rng(seed)
    u, v = (embedded_field(grid, random_spectrum(grid, rng), grid) for _ in range(2))
    names = ("Tuv", "Tvu", "Ruv")
    scale = np.max(np.abs(dealiased_product(u, v).spectral))
    for got, expected in zip(_bony_parts(u, v, names, grid.points), _bony_parts(u, v, names)):
        assert np.max(np.abs(got.spectral - expected.spectral)) <= 1e-13 * scale


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_bony_draws_stay_below_a_quarter_of_every_accepted_grid(dim):
    # every grid verify bony accepts has cap 3N/16 < N/4, and a draw at the
    # cap is exactly zero wherever some |k_i| >= N/4
    for points in (2, 4):
        with pytest.raises(ValueError, match="no full dyadic shell"):
            require_shell(Grid(dim, points))
    rng = np.random.default_rng(dim)
    for points in [2**e for e in range(3, {1: 12, 2: 8, 3: 6, 4: 5}[dim])]:
        grid = require_shell(Grid(dim, points))
        assert 4 * reconstruction_cap(grid) < points
        assert not np.any(_beyond(random_spectrum(grid, rng), grid, points / 4))


def test_verify_bony_transforms_on_the_n_grid_only(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    sizes, calls = [], []
    c2r = spectral._c2r
    sized = lambda half, dim, m, *rest: sizes.append(m) or c2r(half, dim, m, *rest)
    for module in (spectral, paraproduct):
        monkeypatch.setattr(module, "_c2r", sized)
    pad = spectral._Pad  # the block values' pad and c2r
    sized_pad = lambda grid, m, lead, rows: sizes.append(m) or pad(grid, m, lead, rows)
    for module in (spectral, dyadic):
        monkeypatch.setattr(module, "_Pad", sized_pad)
    for name in ("dealiased_product", "dealiased_products"):
        real = getattr(spectral, name)
        spy = lambda *args, name=name, real=real: calls.append(name) or real(*args)
        for module in (spectral, suites):
            monkeypatch.setattr(module, name, spy, raising=False)  # an imported name
    for dim, points in ((1, 32), (2, 16), (3, 8)):
        report = suites.bony_suite(dim=dim, points=points, trials=3, seed=4)
        assert report["pass"] and report["workers"] == 1
        assert sizes and set(sizes) == {points}
        sizes.clear()
    assert calls == []
