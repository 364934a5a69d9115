"""Norm values against analytic oracles, plus the inequality battery.

Derived expectations are computed in-test from first principles (closed-form
integrals, the explicit transition bump, mode algebra) and never read back
from the implementation under test.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lptorus import (
    BesovSpec,
    Field,
    FieldTrajectory,
    Grid,
    MixedSpec,
    besov_norm,
    chemin_lerner_norm,
    heat_characterization_norm,
    heat_trajectory,
    kato_weighted_norm,
    lebesgue_besov_norm,
    lp_norm,
    single_mode,
)
from lptorus import besov
from lptorus.besov import (
    INF,
    _lp_norms,
    _power_mean,
    block_lp_norms,
    block_time_lp,
    characterization_ratio,
    chemin_lerner_reduce,
    embedding_report,
    lebesgue_besov_reduce,
    sequence_norm,
    time_block_norms,
    time_norm,
)
from lptorus.cutoffs import build_cutoffs
from lptorus.dyadic import _shell_columns, block_weights, shell_max
from lptorus.ensembles import random_field
from lptorus.spectral import hermitian_half, values_from_half

TWO_PI = 2.0 * math.pi


def chi_at_one():
    # transition bump by hand: tau = 3/7, chi(1) = b(4/7) / (b(3/7) + b(4/7))
    lo, hi = math.exp(-7.0 / 3.0), math.exp(-7.0 / 4.0)
    return hi / (lo + hi)


# -- Lebesgue norms -----------------------------------------------------------


def test_lp_norm_constant(grid32):
    f = Field(grid32, np.full((1, 32, 32), -1.75))
    for p in (1.0, 2.0, 4.0):
        assert abs(lp_norm(f, p) - 1.75 * TWO_PI ** (2.0 / p)) < 1e-10
    assert abs(lp_norm(f, INF) - 1.75) < 1e-15


def test_lp_norm_sin_l2():
    grid = Grid(1, 64)
    f = single_mode(grid, (1,), phase=-math.pi / 2)  # sin x on [0, 2*pi)
    assert abs(lp_norm(f, 2.0) - math.sqrt(math.pi)) < 1e-10


def test_lp_norm_sup_of_sine():
    grid = Grid(1, 128)
    f = single_mode(grid, (1,), phase=-math.pi / 2)
    assert abs(lp_norm(f, INF) - 1.0) < 1e-3  # grid max of sin


def test_lp_norm_rejects_bad_exponent(grid32, rng):
    with pytest.raises(ValueError):
        lp_norm(random_field(grid32, rng), 0.5)


# -- Besov norms --------------------------------------------------------------


def test_besov_zero_field(grid32):
    assert besov_norm(Field.zeros(grid32), BesovSpec(-1, 2, 1, 1.0)) == 0.0


def test_besov_single_mode_frozen_value(grid64):
    # |k| = sqrt(32) sits in the interior window of shell q = 2 where the
    # block weight is exactly 1; a lone term survives:
    #   2^{qs} (3+q)^alpha * ||cos||_p  with ||cos||_2 = pi*sqrt(2) on (2pi)^2
    amp = 0.8
    f = single_mode(grid64, (4, 4), amp)
    spec = BesovSpec(-1.0, 2.0, 1.0, 1.0)
    expected = 2.0**-2 * 5.0**1 * amp * math.pi * math.sqrt(2.0)
    assert abs(besov_norm(f, spec) - expected) < 1e-10


def test_besov_r_monotone(grid32, rng):
    for _ in range(20):
        f = random_field(grid32, rng)
        n1 = besov_norm(f, BesovSpec(0, INF, 1))
        ninf = besov_norm(f, BesovSpec(0, INF, INF))
        assert ninf <= n1 + 1e-12


def test_besov_alpha_monotone(grid32, rng):
    f = random_field(grid32, rng)
    lo = besov_norm(f, BesovSpec(0, 2, 2, 0.3))
    hi = besov_norm(f, BesovSpec(0, 2, 2, 1.1))
    assert lo <= hi + 1e-12


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(min_value=0.01, max_value=100.0), seed=st.integers(0, 10**6))
def test_besov_absolute_homogeneity(scale, seed):
    grid = Grid(2, 16)
    f = random_field(grid, np.random.default_rng(seed))
    spec = BesovSpec(0.0, 2.0, 1.0)
    assert besov_norm(scale * f, spec) == pytest.approx(
        scale * besov_norm(f, spec), rel=1e-10
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_besov_triangle_inequality(seed):
    grid = Grid(2, 16)
    rng = np.random.default_rng(seed)
    f, g = random_field(grid, rng), random_field(grid, rng)
    spec = BesovSpec(0.0, INF, 1.0)
    assert besov_norm(f + g, spec) <= besov_norm(f, spec) + besov_norm(
        g, spec
    ) + 1e-10


def test_besov_positive_definite_on_band(grid32, rng):
    f = random_field(grid32, rng)
    assert besov_norm(f, BesovSpec(0, 2, 2)) > 0


# -- trajectories and Chemin-Lerner norms -------------------------------------


def test_trajectory_validation(grid32, rng):
    f = random_field(grid32, rng)
    with pytest.raises(ValueError):
        FieldTrajectory(np.array([]), ())
    with pytest.raises(ValueError):
        FieldTrajectory(np.array([0.2, 0.1]), (f, f))
    with pytest.raises(ValueError):
        FieldTrajectory(np.array([0.0, 0.5]), (f,))


@pytest.mark.parametrize("times", [[0.0, np.nan], [0.0, 0.5, np.inf]])
def test_trajectory_rejects_non_finite_times(grid32, rng, times):
    # a nan or inf time would make every time norm of the trajectory nan
    f = random_field(grid32, rng)
    with pytest.raises(ValueError, match="times must be finite"):
        FieldTrajectory.from_half(grid32, times, np.zeros((len(times), 1) + grid32.half_shape))
    with warnings.catch_warnings(), pytest.raises(ValueError, match="times must be finite"):
        warnings.simplefilter("error")  # checked before exp(-|k|^2 inf) at k = 0 makes a nan
        heat_trajectory(f, times)


def test_chemin_lerner_time_constant_separates(grid32, rng):
    f = random_field(grid32, rng)
    T = 0.7
    times = np.linspace(0.0, T, 33)
    traj = FieldTrajectory(times, tuple(f for _ in times))
    spec = BesovSpec(0.0, 2.0, 1.0)
    for rho in (1.0, 2.0):
        assert chemin_lerner_norm(traj, rho, spec) == pytest.approx(
            T ** (1.0 / rho) * besov_norm(f, spec), rel=1e-12
        )
    assert chemin_lerner_norm(traj, INF, spec) == pytest.approx(
        besov_norm(f, spec), rel=1e-12
    )


def test_chemin_lerner_single_mode_closed_form(grid32):
    # mode |k| = 1 decays as e^{-t}; it is shared by blocks -1 and 0 with
    # weights chi(1) and 1 - chi(1); rho = 2 gives the exact time integral
    # sqrt((1 - e^{-2T}) / 2) per block
    T = 0.5
    times = np.linspace(0.0, T, 513)
    f = single_mode(grid32, (1, 0))
    traj = heat_trajectory(f, times)
    c1 = chi_at_one()
    time_factor = math.sqrt((1.0 - math.exp(-2.0 * T)) / 2.0)
    mode_l2 = math.pi * math.sqrt(2.0)
    expected = (c1 + (1.0 - c1)) * time_factor * mode_l2  # r = 1 sums blocks
    got = chemin_lerner_norm(traj, 2.0, BesovSpec(0.0, 2.0, 1.0))
    assert got == pytest.approx(expected, abs=1e-6 * expected)


def test_chemin_lerner_rejects_empty():
    with pytest.raises(ValueError):
        FieldTrajectory(np.array([]), ())


@pytest.mark.parametrize("r,rho", [(1.0, 2.0), (INF, 2.0), (2.0, 2.0)])
def test_minkowski_order_between_time_norms(grid32, rng, r, rho):
    f = random_field(grid32, rng)
    times = np.linspace(0.0, 1.0, 17)
    traj = heat_trajectory(f, times)
    spec = BesovSpec(0.0, 2.0, r)
    tilde = chemin_lerner_norm(traj, rho, spec)
    plain = lebesgue_besov_norm(traj, rho, spec)
    if r > rho:
        assert tilde <= plain * (1 + 1e-10)
    elif r < rho:
        assert plain <= tilde * (1 + 1e-10)
    else:
        assert tilde == pytest.approx(plain, rel=1e-12)


def _full_lattice_stack(rng, samples, components, grid):
    """Random complex coefficients on every mode, Nyquist planes included."""
    shape = (samples, components) + grid.shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    vector=st.booleans(),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0, INF]),  # covers p = n/2 for n = 2, 3
    samples=st.sampled_from([1, 5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_table_matches_per_sample_fields(dim, vector, p, samples, seed):
    grid = Grid(dim, 16 if dim == 2 else 8)
    rng = np.random.default_rng(seed)
    half = hermitian_half(_full_lattice_stack(rng, samples, dim if vector else 1, grid), dim)
    traj = FieldTrajectory.from_half(grid, np.linspace(0.1, 1.0, samples), half)
    table = block_time_lp(traj, p)
    reference = np.array(
        [
            [
                lp_norm(Field.from_spectral(grid, half[i] * block_weights(grid, q)), p)
                for i in range(samples)
            ]
            for q in range(-1, table.shape[0] - 1)
        ]
    )
    np.testing.assert_allclose(table, reference, rtol=1e-13, atol=0.0)
    single = block_lp_norms(Field.from_spectral(grid, half[0]), p)
    np.testing.assert_allclose(single, reference[:, 0], rtol=1e-13, atol=0.0)


def _assert_table_agrees(table, expected):
    """``table`` reads ``expected``, the pocketfft reference, to 1e-14 of its
    largest finite entry, non-finite at the same entries and NaN wherever it
    is NaN.  A last-axis pass of at most ``MATRIX_COLUMNS`` columns is a
    matrix product: equal to pocketfft's up to roundoff, and a non-finite
    entry spoils its whole row, so where ``irfft`` drops a non-finite Im c_0
    or Im c_{N/2} (inf * w = inf + nan j) and reads +-inf, the table reads NaN."""
    assert table.shape == expected.shape
    finite = np.isfinite(expected)
    assert np.array_equal(np.isfinite(table), finite)
    assert np.all(np.isnan(table[np.isnan(expected)]))
    scale = np.max(np.abs(expected[finite]), initial=0.0)
    assert np.all(np.abs(table[finite] - expected[finite]) <= 1e-14 * scale)


def _unpruned_table(half, grid, p):
    """One irfftn of the whole half times each shell's weights, then the
    rectangle-rule L^p norm of the pointwise magnitude."""
    axes = tuple(range(-grid.dim, 0))
    rows = []
    for q in range(-1, shell_max(grid) + 1):
        w = block_weights(grid, q)
        block = np.fft.irfftn(half * w, s=grid.shape, axes=axes, norm="forward")
        if block.shape[-grid.dim - 1] == 1:
            mag = np.abs(np.squeeze(block, axis=-grid.dim - 1))
        else:
            mag = np.sqrt(np.sum(block**2, axis=-grid.dim - 1))
        if p == INF:
            rows.append(np.max(mag, axis=axes))
        else:
            rows.append((grid.cell_volume * np.sum(mag**p, axis=axes)) ** (1.0 / p))
    return np.array(rows)


@pytest.mark.parametrize(
    "dim,points",
    [(d, n) for d in (1, 2, 3) for n in (2, 4, 8, 16, 32, 64) if d * n <= 128],
)
def test_pruned_block_table_is_bit_identical_to_the_unpruned_one(dim, points):
    # full-lattice complex stacks, Nyquist planes included, then a NaN or
    # +-inf in one sample: in column 0 (kept by every shell), in a middle
    # column (kept by some shells, dropped by others) and in the last column
    # (above every shell once N >= 4, where a prune that ignores the dropped
    # columns would read a finite norm); 3-D stops at N = 32 for time.  The
    # values agree to roundoff (``_assert_table_agrees``), the non-finite
    # entries exactly
    grid = Grid(dim, points)
    cols = points // 2 + 1
    rng = np.random.default_rng(10 * points + dim)
    for m in sorted({1, dim}):
        half = hermitian_half(_full_lattice_stack(rng, 3, m, grid), dim)
        cases = [half]
        for col, bad in ((0, np.nan), (cols // 2, np.inf), (cols - 1, -np.inf)):
            spoilt = half.copy()
            spoilt[(1, m - 1) + (points // 2,) * (dim - 1) + (col,)] = bad
            cases.append(spoilt)
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            for case in cases:
                traj = FieldTrajectory.from_half(grid, [0.25, 0.5, 1.0], case)
                with np.errstate(invalid="ignore"):  # 0 * inf
                    expected = _unpruned_table(case, grid, p)
                    table = block_time_lp(traj, p)
                _assert_table_agrees(table, expected)
            assert not np.any(np.isfinite(expected[:, 1]))
            assert np.all(np.isfinite(expected[:, ::2]))


@pytest.fixture
def c2r_calls(monkeypatch):
    """The number of ``_c2r`` calls the block tables make."""
    calls = []
    c2r = besov._c2r
    monkeypatch.setattr(besov, "_c2r", lambda *a, **k: calls.append(a[2]) or c2r(*a, **k))
    return calls


SKIP_GRIDS = [(1, 64), (2, 32), (3, 16)]


@pytest.mark.parametrize("dim,points", SKIP_GRIDS)
@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_block_table_skips_empty_shells_bit_for_bit(dim, points, p, c2r_calls):
    # stacks with content below some shells (the modes with |k| <= radius, one
    # sample all zero) against a table that transforms every shell: a shell
    # whose weights meet no content is not transformed and reads +0.0, as
    # does the zero sample in every shell; the rest agrees to roundoff
    grid = Grid(dim, points)
    rng = np.random.default_rng(10 * points + dim)
    qs = range(-1, shell_max(grid) + 1)
    for m in sorted({1, dim}):
        full = hermitian_half(_full_lattice_stack(rng, 3, m, grid), dim)
        for radius in (-1.0, 0.0, 1.0, 3.0, 6.0, INF):
            band = grid.k_abs <= radius
            half = np.where(band, full, 0.0)
            half[1] = 0.0
            c2r_calls.clear()
            table = besov._block_table(half, grid, p)
            _assert_table_agrees(table, _unpruned_table(half, grid, p))
            assert not np.any(table[:, 1]) and not np.any(np.signbit(table))
            assert len(c2r_calls) == sum(np.any(block_weights(grid, q)[band]) for q in qs)
        assert len(c2r_calls) == len(qs)  # the whole lattice: no shell skipped


@pytest.mark.parametrize("dim,points", SKIP_GRIDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_entry_never_causes_a_skip(dim, points, bad, c2r_calls):
    # content at |k| <= 1 (shells -1 and 0), then one non-finite entry in one
    # sample: at a mode that only the top shell weighs, which is then
    # transformed, or on the Nyquist corner, which no shell weighs; either
    # way that sample reads NaN in every shell, as the full transform does
    grid = Grid(dim, points)
    rng = np.random.default_rng(points + dim)
    qm = shell_max(grid)
    top, below = block_weights(grid, qm), block_weights(grid, qm - 1)
    only_top = tuple(np.argwhere((top > 0) & (below == 0))[0])
    corner = (points // 2,) * dim
    assert all(block_weights(grid, q)[corner] == 0 for q in range(-1, qm + 1))
    half = hermitian_half(_full_lattice_stack(rng, 3, 1, grid), dim)
    half = np.where(grid.k_abs <= 1.0, half, 0.0)
    for mode, transforms in ((only_top, 3), (corner, 2)):
        spoilt = half.copy()
        spoilt[(1, 0) + mode] = bad
        for p in (1.0, 2.0, INF):
            c2r_calls.clear()
            with np.errstate(invalid="ignore"):  # 0 * inf
                table = besov._block_table(spoilt, grid, p)
                expected = _unpruned_table(spoilt, grid, p)
            _assert_table_agrees(table, expected)
            assert np.all(np.isnan(table[:, 1])) and np.all(np.isfinite(table[:, ::2]))
            assert len(c2r_calls) == transforms


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_sup_of_a_zero_sample_is_plus_zero(grid32, zero, rng):
    # the one-component sup is max(max v, -min v) + 0.0: the + 0.0 makes an
    # all -0.0 sample read +0.0, as max |v| does
    values = np.full((3, 1) + grid32.shape, zero)
    values[1] = rng.standard_normal(grid32.shape)
    sup = _lp_norms(values, grid32, INF)
    assert sup[1] == np.max(np.abs(values[1]))
    assert sup[0] == sup[2] == 0.0 and not np.any(np.signbit(sup))
    half = np.full((3, 1) + grid32.half_shape, complex(zero, zero))
    half[1] = hermitian_half(_full_lattice_stack(rng, 1, 1, grid32), 2)[0]
    for stack in (half, half[::2]):  # with content elsewhere, and with none
        table = besov._block_table(stack, grid32, INF)
        _assert_table_agrees(table, _unpruned_table(stack, grid32, INF))
        assert not np.any(table[:, ::2]) and not np.any(np.signbit(table))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_shell_weights_are_cut_after_their_last_nonzero_column(dim):
    # the weights live on the half lattice; the table's cut keeps the
    # columns up to the last one holding a nonzero weight
    for points in [2, 4, 8, 16, 32, 64, 128][: 6 if dim == 3 else 7]:
        grid = Grid(dim, points)
        for q in range(-1, shell_max(grid) + 1):
            w = block_weights(grid, q)
            c = _shell_columns(grid, q, build_cutoffs())
            assert w.shape == grid.shape[:-1] + (points // 2 + 1,)
            assert 1 <= c <= points // 2 + 1
            assert np.all(w[..., c:] == 0) and np.any(w[..., c - 1] != 0)
            assert not w.flags.writeable
            with pytest.raises(ValueError):
                w[...] = 0.0


@pytest.mark.parametrize("components", [2, 3])
def test_sup_norm_takes_one_sqrt_of_the_largest_square(grid32, components, rng):
    values = rng.standard_normal((5, components) + grid32.shape)
    values[1, 0, 3, 4] = np.nan
    values[2, components - 1, 0, 0] = np.inf
    values[3, 1, 7, 7], values[3, 0, 9, 9] = -np.inf, np.nan
    values[4] *= 1e-160  # squares in the subnormal range: measured rescaled
    old = np.max(np.sqrt(np.sum(values**2, axis=-3)), axis=(-2, -1))
    scale = 2.0 ** np.frexp(np.max(np.abs(values[4])))[1]
    old[4] = scale * np.sqrt(np.max(np.sum((values[4] / scale) ** 2, axis=-3)))
    assert np.array_equal(_lp_norms(values, grid32, INF), old, equal_nan=True)


@pytest.mark.parametrize("components", [1, 2])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, INF])
def test_norms_of_a_finite_field_near_overflow_are_finite(grid32, components, p, rng):
    # the sums of squares and p-th powers of a field of sup 1e200 overflow;
    # the norms are 1e200 times those of the unscaled field all the same
    f = Field(grid32, rng.standard_normal((components,) + grid32.shape))
    big = Field(grid32, 1e200 * f.values)
    assert lp_norm(big, p) == pytest.approx(1e200 * lp_norm(f, p), rel=1e-15, abs=0)
    blocks = block_lp_norms(big, p)
    assert np.all(np.isfinite(blocks))
    np.testing.assert_allclose(blocks, 1e200 * block_lp_norms(f, p), rtol=1e-15, atol=0)
    spec = BesovSpec(-1.0, p, 2.0)
    assert besov_norm(big, spec) == pytest.approx(1e200 * besov_norm(f, spec), rel=1e-15)


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_a_finite_stack_whose_sum_overflows_reads_finite_in_every_shell(grid32, p):
    # the table scans for non-finite entries only when the sum of all
    # entries is not finite: 200 samples of one mode at 1e306 sum to inf, yet
    # every entry, and so every shell of every sample, is finite
    half = np.zeros((200, 1) + grid32.half_shape, dtype=complex)
    half[:, 0, 0, 1] = 1e306
    with np.errstate(over="ignore"):
        assert np.sum(half) == INF
    table = besov._block_table(half, grid32, p)
    assert np.all(np.isfinite(table))
    scale = 2.0**1000  # exact: the table scales with the stack
    scaled = scale * besov._block_table(half / scale, grid32, p)
    np.testing.assert_allclose(table, scaled, rtol=1e-15)


def test_only_the_overflowing_sample_is_rescaled(grid32, rng):
    # samples whose sums stay finite keep the unscaled bits; a sample with a
    # non-finite entry stays non-finite
    values = rng.standard_normal((4, 2) + grid32.shape)
    values[1] *= 1e200
    values[2, 0, 3, 3] = np.inf
    values[3, 1, 5, 5] = np.nan
    got = _lp_norms(values, grid32, 2.0)
    mag = np.sqrt(np.sum(values[0] ** 2, axis=0))
    old = (grid32.cell_volume * np.sum(mag**2)) ** 0.5
    assert got[0] == old and np.isfinite(got[1])
    assert got[2] == INF and np.isnan(got[3])
    unscaled = _lp_norms(values[1] / 1e200, grid32, 2.0)
    assert got[1] == pytest.approx(1e200 * unscaled, rel=1e-15)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, INF])
def test_in_range_reductions_keep_the_unscaled_bits(grid32, p, rng):
    # the L^p, l^r and L^rho_T reductions as they were before any rescaling,
    # on stacks and on single samples (whose root is a scalar power)
    vol, axes = grid32.cell_volume, (-2, -1)

    def lp(values):
        if values.shape[-3] == 1:
            mag = np.squeeze(np.abs(values), axis=-3)
        elif p == INF:
            return np.sqrt(np.max(np.sum(values**2, axis=-3), axis=axes))
        else:
            mag = np.sqrt(np.sum(values**2, axis=-3))
        return np.max(mag, axis=axes) if p == INF else (vol * np.sum(mag**p, axis=axes)) ** (1 / p)

    for m in (1, 2, 3):
        scales = 10.0 ** rng.uniform(-9, 9, (4, 1, 1, 1))
        values = rng.standard_normal((4, m) + grid32.shape) * scales
        assert np.array_equal(_lp_norms(values, grid32, p), lp(values))
        assert lp_norm(Field(grid32, values[0]), p) == lp(values[0])
    seq = np.abs(rng.standard_normal(9)) * 1e-3
    expected = np.max(seq) if p == INF else np.sum(seq**p) ** (1 / p)
    assert sequence_norm(seq, p) == expected
    times = np.sort(rng.uniform(0, 1, 9))
    trapezoid = float(np.sum(0.5 * (seq[1:] ** p + seq[:-1] ** p) * np.diff(times)))
    expected = np.max(seq) if p == INF else trapezoid ** (1 / p)
    assert time_norm(seq, times, p) == expected


@pytest.mark.parametrize("components", [1, 2])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, INF])
def test_norms_of_a_field_near_underflow_are_not_zero(grid32, components, p, rng):
    # the squares and p-th powers of a field of sup 1e-200 underflow to 0;
    # the norms are 1e-200 times those of the unscaled field all the same
    f = Field(grid32, rng.standard_normal((components,) + grid32.shape))
    tiny = Field(grid32, 1e-200 * f.values)
    assert lp_norm(tiny, p) == pytest.approx(1e-200 * lp_norm(f, p), rel=1e-14, abs=0)
    np.testing.assert_allclose(
        block_lp_norms(tiny, p), 1e-200 * block_lp_norms(f, p), rtol=1e-14, atol=0
    )
    spec = BesovSpec(-1.0, p, 2.0)
    assert besov_norm(tiny, spec) == pytest.approx(1e-200 * besov_norm(f, spec), rel=1e-14)


@pytest.mark.parametrize("components", [1, 2, 3])
@pytest.mark.parametrize("s", [1e-105, 1e-160, 1e-162])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, INF])
def test_norms_whose_squares_are_subnormal_are_exact(grid32, components, s, p):
    # the norms stay normal, but the squares (or cubes at 1e-105) of the
    # values do not: measured unscaled they lost up to 1e-4 relative
    f = random_field(grid32, np.random.default_rng(3), components=components)
    assert lp_norm(f * s, p) == pytest.approx(s * lp_norm(f, p), rel=1e-14, abs=0)
    np.testing.assert_allclose(
        block_lp_norms(f * s, p), s * block_lp_norms(f, p), rtol=1e-14, atol=0
    )


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_all_zero_samples_are_not_measured_again(grid32, p, rng):
    # a Duhamel table's t = 0 sample is zero: its unscaled 0.0 is exact, so
    # of the three samples below the floor only the tiny one is measured again
    values = np.zeros((5,) + grid32.shape)
    values[1] = 1e-300 * rng.standard_normal(grid32.shape)
    values[4] = rng.standard_normal(grid32.shape)
    sizes = []

    def total(terms, axis):  # the spy: the samples of each pass
        sizes.append(terms.shape[:-2])
        return np.sum(terms, axis=axis)

    got = _power_mean(np.abs(values), p, (-2, -1), total)
    assert sizes == [(5,), (1,)]
    assert got[0] == got[2] == got[3] == 0.0
    assert got[4] == np.sum(np.abs(values[4]) ** p) ** (1 / p)
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(values[1])))[1])
    assert got[1] == scale * np.sum(np.abs(values[1] / scale) ** p) ** (1 / p)
    sizes.clear()
    assert np.array_equal(_power_mean(values[[0, 2]], p, (-2, -1), total), [0.0, 0.0])
    assert sizes == [(2,)]
    sizes.clear()
    assert _power_mean(values[0], p, (-2, -1), total) == 0.0
    assert sizes == [()]


def test_sequence_and_time_norms_rescale_only_what_left_the_range():
    assert sequence_norm([1e-200, 2e-200], 2.0) == pytest.approx(math.sqrt(5) * 1e-200)
    assert sequence_norm([1e200, 2e200], 2.0) == pytest.approx(math.sqrt(5) * 1e200)
    assert sequence_norm([0.0, 0.0], 2.0) == 0.0
    times = np.array([0.0, 0.5, 1.0])
    assert time_norm([3e-200, 3e-200, 3e-200], times, 2.0) == pytest.approx(3e-200)
    assert time_norm([3e200, 3e200, 3e200], times, 3.0) == pytest.approx(3e200)
    assert math.isnan(time_norm([1.0, np.nan, 1.0], times, 2.0))
    assert time_norm([1.0, np.inf, 1.0], times, 2.0) == INF


def _time_norms_per_row(matrix, times, rho):
    """The per-row loop that ``time_block_norms`` batches: one trapezoid
    ``_power_mean`` per row."""

    def trapezoid(terms, axis):
        return np.sum(0.5 * (terms[..., 1:] + terms[..., :-1]) * np.diff(times), axis=axis)

    return np.array([float(_power_mean(np.asarray(row, float), rho, (-1,), trapezoid)) for row in matrix])


ROW_SCALES = {"plain": 1.0, "zero": 0.0, "tiny": 1e-160, "subnormal": 1e-310, "huge": 1e200, "inf": 1.0}


@settings(max_examples=200, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(sorted(ROW_SCALES)), min_size=1, max_size=8),
    samples=st.integers(1, 70),
    rho=st.sampled_from([1.0, 2.0, INF]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_time_block_norms_equal_the_per_row_loop_bit_for_bit(kinds, samples, rho, seed):
    # all-zero rows, rows whose powers underflow or overflow (the rescue
    # path) and rows holding inf, mixed in one matrix
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.01, 1.0, samples)) - 0.005
    matrix = rng.uniform(0.0, 1.0, (len(kinds), samples)) * [[ROW_SCALES[k]] for k in kinds]
    for row, kind in zip(matrix, kinds):
        if kind == "inf":
            row[rng.integers(samples)] = np.inf
    with np.errstate(over="ignore"):
        got = time_block_norms(matrix, times, rho)
        expected = _time_norms_per_row(matrix, times, rho)
    assert got.shape == (len(kinds),) and got.tobytes() == expected.tobytes()
    assert [time_norm(row, times, rho) for row in matrix] == list(got)


def test_chemin_lerner_norm_of_a_trajectory_near_overflow_is_finite(grid32, rng):
    # every block norm of the sup-1e200 field is finite; their squares are not
    f = random_field(grid32, rng)
    times = np.linspace(0.0, 0.5, 5)
    spec = BesovSpec(0.0, 2.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = chemin_lerner_norm(heat_trajectory(f * 1e200, times), 2.0, spec)
    unscaled = chemin_lerner_norm(heat_trajectory(f, times), 2.0, spec)
    assert big == pytest.approx(1e200 * unscaled, rel=1e-14)


def test_trajectory_from_fields_and_from_half_agree(grid32, rng):
    times = np.geomspace(0.1, 1.0, 5)
    fields = [
        Field.from_spectral(grid32, c)
        for c in hermitian_half(_full_lattice_stack(rng, times.size, 2, grid32), 2)
    ]
    by_fields = FieldTrajectory(times, fields)
    by_half = FieldTrajectory.from_half(
        grid32, times, np.stack([f.spectral for f in fields])
    )
    for p in (1.0, 2.0, INF):
        assert np.array_equal(block_time_lp(by_fields, p), block_time_lp(by_half, p))
        spec = BesovSpec(-1.0, p, 2.0, 1.0)
        assert chemin_lerner_norm(by_fields, 2.0, spec) == chemin_lerner_norm(
            by_half, 2.0, spec
        )
        assert kato_weighted_norm(by_fields, 1.0, p) == kato_weighted_norm(
            by_half, 1.0, p
        )
    assert by_half.components == by_fields.components == 2
    assert np.array_equal(values_from_half(by_fields.half, grid32),
                          values_from_half(by_half.half, grid32))


def test_trajectory_from_half_validation(grid32):
    times = np.linspace(0.0, 1.0, 3)
    FieldTrajectory.from_half(grid32, times, np.zeros((3, 1, 32, 17)))
    for wrong in ((2, 1, 32, 17), (3, 1, 32, 32), (3, 1, 17, 32), (3, 32, 17),
                  (3, 1, 16, 9)):
        with pytest.raises(ValueError):
            FieldTrajectory.from_half(grid32, times, np.zeros(wrong))
    with pytest.raises(ValueError):
        FieldTrajectory.from_half(grid32, times[::-1], np.zeros((3, 1, 32, 17)))


@pytest.mark.parametrize("s", [0.0, -1.0])
@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_mixed_norm_equals_the_two_member_norms_bit_for_bit(grid32, rng, s, p):
    f = random_field(grid32, rng)
    two_calls = besov_norm(f, BesovSpec(s, p, 1)) + besov_norm(
        f, BesovSpec(s, p, INF, 1.0)
    )
    assert besov_norm(f, MixedSpec(s, p)) == two_calls
    traj = heat_trajectory(f, np.linspace(0.0, 1.0, 9))
    two_calls = chemin_lerner_norm(traj, 2.0, BesovSpec(0, p, 1)) + chemin_lerner_norm(
        traj, 2.0, BesovSpec(0, p, INF, 1.0)
    )
    per_block = time_block_norms(block_time_lp(traj, p), traj.times, 2.0)
    assert MixedSpec(0, p).reduce(per_block) == two_calls


@pytest.mark.parametrize(
    "make",
    [
        lambda: BesovSpec(math.nan, 2.0, 2.0),
        lambda: BesovSpec(math.inf, 2.0, 2.0),
        lambda: BesovSpec(-1.0, 2.0, INF, math.nan),
        lambda: BesovSpec(-1.0, 2.0, INF, math.inf),
        lambda: BesovSpec(-1.0, 2.0, INF, -0.5),
        lambda: BesovSpec(-1.0, 0.5, INF),
        lambda: MixedSpec(math.nan, 2.0),
        lambda: MixedSpec(-1.0, math.nan),
        lambda: MixedSpec(-1.0, 0.5),
    ],
)
def test_specs_reject_out_of_domain_parameters(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("rho", [2.0, 3.0, INF])
@pytest.mark.parametrize("p", [2.0, INF])
def test_chemin_lerner_mixed_norm_equals_the_two_member_norms_bit_for_bit(
    grid32, rng, rho, p
):
    traj = heat_trajectory(random_field(grid32, rng), np.linspace(0.0, 1.0, 9))
    two_calls = chemin_lerner_norm(traj, rho, BesovSpec(0, p, 1)) + chemin_lerner_norm(
        traj, rho, BesovSpec(0, p, INF, 1.0)
    )
    assert chemin_lerner_norm(traj, rho, MixedSpec(0, p)) == two_calls


@pytest.mark.parametrize("rho", [1.0, 2.0, INF])
@pytest.mark.parametrize("r", [1.0, 2.0, INF])
def test_table_reductions_equal_the_per_call_norms_bit_for_bit(grid32, rng, r, rho):
    # one block table serves every norm at its p
    traj = heat_trajectory(random_field(grid32, rng), np.linspace(0.0, 1.0, 9))
    spec = BesovSpec(0.0, 2.0, r)
    table = block_time_lp(traj, 2.0)
    assert chemin_lerner_reduce(table, traj.times, rho, spec) == chemin_lerner_norm(
        traj, rho, spec
    )
    assert lebesgue_besov_reduce(table, traj.times, rho, spec) == lebesgue_besov_norm(
        traj, rho, spec
    )


# -- weighted Kato norms -------------------------------------------------------


def test_kato_zero_trajectory(grid32):
    times = np.geomspace(1e-4, 1.0, 20)
    traj = FieldTrajectory(times, tuple(Field.zeros(grid32) for _ in times))
    assert kato_weighted_norm(traj, 1.0, INF) == 0.0


def test_kato_rejects_time_zero(grid32, rng):
    f = random_field(grid32, rng)
    times = np.array([0.0, 0.5])
    traj = FieldTrajectory(times, (f, f))
    with pytest.raises(ValueError):
        kato_weighted_norm(traj, 1.0, INF)


def test_kato_horizon_is_the_last_sample_time_and_at_most_one(grid32, rng):
    f = random_field(grid32, rng)
    with pytest.raises(ValueError, match="T <= 1"):
        kato_weighted_norm(heat_trajectory(f, np.array([0.5, 1.5])), 1.0, INF)
    ends_at_one = heat_trajectory(f, np.array([0.5, 1.0]))
    assert kato_weighted_norm(ends_at_one, 1.0, INF) > 0


def test_kato_sigma_zero_is_plain_kato(grid32, rng):
    f = random_field(grid32, rng)
    times = np.geomspace(1e-4, 1.0, 40)
    traj = heat_trajectory(f, times)
    plain = max(
        math.sqrt(t) * lp_norm(Field(grid32, g), 2.0)
        for t, g in zip(times, values_from_half(traj.half, grid32))
    )
    assert kato_weighted_norm(traj, 0.0, 2.0) == pytest.approx(plain, rel=1e-12)


def test_kato_gaussian_bump_sup_at_smallest_time(grid32):
    # heat evolution of a near-delta spectral bump: in 2d the weighted trace
    # t^{1/2} |ln(t/e^2)| * t^{-1} decreases, so over times where the grid
    # resolves the heat kernel (sqrt(t) above the spacing) the sup sits at
    # the smallest sampled t
    coeffs = np.ones((1, 32, 17), dtype=complex) / 32**2
    bump = Field.from_spectral(grid32, coeffs)
    times = np.geomspace(0.05, 1.0, 60)
    traj = heat_trajectory(bump, times)
    value = kato_weighted_norm(traj, 1.0, INF)
    assert np.isfinite(value) and value > 0
    weighted = [
        math.sqrt(t) * abs(math.log(t) - 2.0) * lp_norm(Field(grid32, g), INF)
        for t, g in zip(times, values_from_half(traj.half, grid32))
    ]
    assert int(np.argmax(weighted)) == 0


# -- heat characterization -----------------------------------------------------


def test_heat_characterization_zero(grid32):
    assert heat_characterization_norm(Field.zeros(grid32), 0.0, 2.0) == 0.0


def test_heat_characterization_rejects_times_past_one(grid32, rng):
    with pytest.raises(ValueError):
        heat_characterization_norm(
            random_field(grid32, rng), 0.0, 2.0, np.geomspace(1e-3, 2.0, 10)
        )


def test_heat_characterization_single_mode_matches_analytic_sup(grid32):
    # mode |k|^2 = 25: the weighted trace t^{1/2} (2 - ln t) e^{-25 t} ||f||_2
    # has an explicit maximum; compare against a dense scan of the same
    # closed form
    f = single_mode(grid32, (3, 4))
    times = np.geomspace(1e-6, 1.0, 600)
    got = heat_characterization_norm(f, 1.0, 2.0, times)
    tt = np.geomspace(1e-8, 1.0, 200001)
    profile = np.sqrt(tt) * (2.0 - np.log(tt)) * np.exp(-25.0 * tt)
    expected = float(np.max(profile)) * math.pi * math.sqrt(2.0)
    assert got == pytest.approx(expected, rel=1e-3)


def test_characterization_ratio_bounded_family(grid32, rng):
    for sigma in (0.0, 1.0):
        for p in (2.0, INF):
            for _ in range(3):
                f = random_field(grid32, rng)
                ratio = characterization_ratio(f, sigma, p)
                assert 1.0 / 20.0 < ratio < 20.0


def test_characterization_ratio_stable_across_resolution(rng):
    coarse, fine = Grid(2, 32), Grid(2, 64)
    state = rng.bit_generator.state
    f32 = random_field(coarse, rng, ref_grid=coarse)
    rng.bit_generator.state = state
    f64 = random_field(fine, rng, ref_grid=coarse)
    r32 = characterization_ratio(f32, 1.0, 2.0)
    r64 = characterization_ratio(f64, 1.0, 2.0)
    assert max(r32 / r64, r64 / r32) < 1.2


# -- band-limited derivative ratios ---------------------------------------------


def test_bernstein_pure_mode_ratio_is_one(grid64):
    # axis-aligned mode at |k| = scale: the first-derivative L2 ratio is
    # exactly scale / scale = 1 in the shell case
    from lptorus.besov import bernstein_check

    f = single_mode(grid64, (4, 0))
    rep = bernstein_check(f, 2.0, 2.0, 1, 4.0, support="shell")
    assert rep["ratio"] == pytest.approx(1.0, rel=1e-12)


def test_bernstein_rejects_support_violation(grid64):
    from lptorus.besov import bernstein_check

    f = single_mode(grid64, (8, 8))  # |k| ~ 11.3 outside the ball 0.75 * 4
    with pytest.raises(ValueError):
        bernstein_check(f, 2.0, INF, 0, 4.0, support="ball")


# -- embeddings ----------------------------------------------------------------


def test_embedding_single_mode_norms_within_overlap_factor(grid64):
    # a pure mode meets at most two shells, so all three L^inf-scale norms
    # agree within a factor of that overlap count
    f = single_mode(grid64, (4, 4))
    sup = lp_norm(f, INF)
    weak = besov_norm(f, BesovSpec(0, INF, INF))
    summed = besov_norm(f, BesovSpec(0, INF, 1))
    assert weak <= 2.0 * sup + 1e-12
    assert sup <= 2.0 * summed + 1e-12
    assert summed <= 2.0 * sup + 1e-12


def test_embedding_zero_field(grid32):
    consts = embedding_report([Field.zeros(grid32)])
    assert all(v == 0.0 for v in consts.values())


@pytest.mark.parametrize("p", [2.0, 3.0, INF])
def test_embedding_report_equals_per_norm_calls(grid32, rng, p):
    # one table per field and exponent, reduced several ways, gives bit for
    # bit the constants of one besov_norm call per norm
    fields = [random_field(grid32, rng) for _ in range(4)] + [Field.zeros(grid32)]
    s, eps, r_tilde = -0.5, 0.25, 3.0

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    expected = dict.fromkeys(
        ("weak_vs_sup", "sup_vs_strong", "log_vs_shift", "summed_vs_log"), 0.0
    )
    for f in fields:
        sup = lp_norm(f, INF)
        log_p = besov_norm(f, BesovSpec(s, p, INF, 1.0))
        for key, value in (
            ("weak_vs_sup", ratio(besov_norm(f, BesovSpec(0, INF, INF)), sup)),
            ("sup_vs_strong", ratio(sup, besov_norm(f, BesovSpec(0, INF, 1)))),
            ("log_vs_shift", ratio(log_p, besov_norm(f, BesovSpec(s + eps, p, INF)))),
            ("summed_vs_log", ratio(besov_norm(f, BesovSpec(s, p, r_tilde)), log_p)),
        ):
            expected[key] = max(expected[key], value)
    got = embedding_report(fields, s=s, eps=eps, p=p, r_tilde=r_tilde)
    assert got == expected
    assert all(v > 0 for v in got.values())


def test_embedding_constants_stable_at_doubled_resolution(rng):
    coarse, fine = Grid(2, 32), Grid(2, 64)
    fields32, fields64 = [], []
    for _ in range(100):
        st32 = rng.bit_generator.state
        fields32.append(random_field(coarse, rng, ref_grid=coarse))
        rng.bit_generator.state = st32
        fields64.append(random_field(fine, rng, ref_grid=coarse))
    c32 = embedding_report(fields32)
    c64 = embedding_report(fields64)
    for key in c32:
        assert c64[key] <= 1.1 * c32[key] + 1e-12, key
    # the sup norm really is below the summed block norm
    assert c32["sup_vs_strong"] <= 1.0 + 1e-12


@pytest.mark.parametrize("dim,points", [(2, 32), (2, 8)])
@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_row_pruned_table_equals_the_per_shell_c2r(dim, points, p, monkeypatch):
    # a stack big enough for the matrix rule takes the rows-only product;
    # against one c2r per shell of the half times its weights: an all-zero
    # sample reads +0.0, a sample holding a nan or inf reads NaN in every
    # shell, one of 1e300 entries overflows its squares and is measured
    # again, finite; the rest agree to 1e-14 of the largest entry
    grid = Grid(dim, points)
    rng = np.random.default_rng(points + dim)
    half = np.fft.rfftn(rng.standard_normal((40, 2) + grid.shape), axes=tuple(range(-dim, 0)),
                        norm="forward")
    half[0] = 0.0
    half[1, 0].flat[3] = np.nan
    half[2, 1].flat[-1] = np.inf
    half[3] *= 1e300 / np.max(np.abs(half[3]))
    used = []
    rows = besov._shell_rows
    monkeypatch.setattr(besov, "_shell_rows", lambda *a: used.append(a) or rows(*a))
    with np.errstate(all="ignore"):
        table = besov._block_table(half, grid, p)
        expected = []
        for q in range(-1, shell_max(grid) + 1):
            c = _shell_columns(grid, q, build_cutoffs())
            block = besov._c2r(half[..., :c] * block_weights(grid, q)[..., :c], dim, points)
            expected.append(np.where([False, True, True] + [False] * 37, np.nan,
                                     besov._lp_norms(block, grid, p)))
    assert used
    assert not np.any(table[:, 0]) and not np.any(np.signbit(table[:, 0]))
    assert np.all(np.isnan(table[:, 1:3])) and np.all(np.isfinite(table[:, 3:]))
    assert np.any(table[:, 3] > 1e290)
    _assert_table_agrees(table, np.array(expected))


@pytest.mark.parametrize("p", [1.0, INF])
def test_three_d_tables_transform_whole_shells(p, c2r_calls, monkeypatch):
    # a 3-D stack of 2N samples and components meets the 2-D rule for pruned
    # rows, but in 3-D the rows' product ran slower: every shell is one c2r of
    # the whole shell, no rows are built, and the table reads irfftn's
    grid = Grid(3, 8)
    rng = np.random.default_rng(3)
    half = np.fft.rfftn(rng.standard_normal((8, 2) + grid.shape), axes=(-3, -2, -1), norm="forward")
    monkeypatch.setattr(besov, "_shell_rows", lambda *a: pytest.fail("rows pruned in 3-D"))
    table = besov._block_table(half, grid, p)
    assert c2r_calls == [8] * (shell_max(grid) + 2)
    _assert_table_agrees(table, _unpruned_table(half, grid, p))
