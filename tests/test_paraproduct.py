"""Bony decomposition and the sampled product-estimate constants."""

import numpy as np
import pytest

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
from lptorus import dyadic
from lptorus.besov import INF
from lptorus.dyadic import block_weights, lowpass_weights, shell_bounds, support_report
from lptorus.ensembles import random_field
from lptorus.paraproduct import _harmonic_conjugate
from lptorus.spectral import Grid, dealias_multiply


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


def test_a_repeated_resolution_pools_its_ratios():
    # each lattice's ratios go into the list of its point count, so a grid
    # named twice holds every trial twice, the same ratios both times
    spec = BilinearEstimateSpec("2.4", p1=INF, p2=2.0, r=2.0, trials=4, seed=2)
    once = bilinear_constant_estimate(spec, resolutions=(16,))["stats"][16]
    twice = bilinear_constant_estimate(spec, resolutions=(16, 16))["stats"][16]
    assert twice["count"] == 2 * once["count"] == 8
    assert twice["max"] == once["max"] and twice["median"] == once["median"]
