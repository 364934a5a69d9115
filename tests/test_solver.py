"""Duhamel quadrature, fixed-point map, certificates, Picard runs, oracle."""

import functools
import math

import numpy as np
import pytest

from lptorus import (
    Field,
    FieldTrajectory,
    Grid,
    divergence,
    single_mode,
    taylor_green,
)
from lptorus.besov import (
    INF,
    block_lp_norms,
    block_time_lp,
    heat_trajectory,
    kato_weighted_norm,
    lp_norm,
    time_block_norms,
)
from lptorus.ensembles import random_field
from lptorus.solver import (
    DIVERGENCE_GUARD,
    SmallnessCertificate,
    SolverConfig,
    _duhamel_stack,
    _fixed_point_map,
    _flux_plan,
    _nonlinear_sources,
    _panel_weights,
    _source_operator,
    _sources,
    exponential_euler,
    measure_operator_constants,
    oracle_compare,
    picard_solve,
    residual_check,
    scalar_norm,
    smallness_certificate,
    time_grid,
    velocity_norm,
)
from lptorus.spectral import dealiased_products, project_divergence_free

CONFIG = SolverConfig(horizon=0.5, steps=32, regime="thm1.2")


@pytest.fixture(scope="module")
def constants():
    return measure_operator_constants(Grid(2, 32), CONFIG)


def scaled_data(grid, config, constants, fraction):
    """Taylor-Green + single-mode scalar scaled to fraction * certificate rhs."""
    u1, th1 = taylor_green(grid, 1.0), single_mode(grid, (1, 1), 1.0)
    cert = smallness_certificate(u1, th1, config, constants=constants)
    amp = fraction * cert.rhs / cert.lhs
    return taylor_green(grid, amp), single_mode(grid, (1, 1), amp)


# full-lattice references: complex transforms, 2N zero padding, Leray by hand


def full_spectrum(values, dim):
    return np.fft.fftn(values, axes=tuple(range(-dim, 0)), norm="forward")


def full_k_deriv(grid):
    """Wavevectors of the full lattice, Nyquist components zeroed."""
    return np.stack(np.meshgrid(*([grid.k_axis_deriv] * grid.dim), indexing="ij"))


def leray_full(spec, grid):
    k, ax = full_k_deriv(grid), -grid.dim - 1
    ksq = np.sum(k**2, axis=0)
    inv = np.where(ksq > 0, 1.0 / np.where(ksq > 0, ksq, 1.0), 0.0)
    return spec - np.expand_dims(np.sum(k * spec, axis=ax) * inv, ax) * k


def _embed_2n(grid):
    ints = np.rint(np.fft.fftfreq(grid.points) * grid.points).astype(int)
    return (Ellipsis,) + np.ix_(*([ints % (2 * grid.points)] * grid.dim))


def padded_2n(spec, grid):
    """Values on the 2N grid of the zero-padded full spectrum."""
    n2, axes = 2 * grid.points, tuple(range(-grid.dim, 0))
    pad = np.zeros(spec.shape[: -grid.dim] + (n2,) * grid.dim, dtype=complex)
    pad[_embed_2n(grid)] = spec
    return np.fft.ifftn(pad, axes=axes, norm="forward").real


def truncated_2n(phys, grid):
    """Full N-lattice spectrum of 2N-grid values, Nyquist planes zeroed."""
    out = full_spectrum(phys, grid.dim)[_embed_2n(grid)]
    for ax in range(-grid.dim, 0):
        np.moveaxis(out, ax, 0)[grid.points // 2] = 0.0
    return out


# -- Duhamel integral ----------------------------------------------------------


def duhamel(times, fields):
    """``_duhamel_stack`` of the fields' half spectra, as a trajectory."""
    grid = fields[0].grid
    half = _duhamel_stack(times, np.stack([f.spectral for f in fields]), grid)
    return FieldTrajectory.from_half(grid, times, half)


def test_duhamel_zero_source(grid32):
    times = np.linspace(0.0, 1.0, 9)
    out = duhamel(times, [Field.zeros(grid32)] * times.size)
    assert all(np.max(np.abs(f.values)) == 0.0 for f in out.fields)


def test_duhamel_constant_mode_closed_form(grid32):
    # constant-in-time source cos(k.x): integral is (1 - e^{-|k|^2 t})/|k|^2
    mode = single_mode(grid32, (3, 2))
    k2 = 13.0
    times = np.linspace(0.0, 0.5, 65)
    out = duhamel(times, [mode] * times.size)
    for i in (16, 64):
        expected = (1.0 - math.exp(-k2 * times[i])) / k2
        assert np.max(np.abs(out.fields[i].values - expected * mode.values)) < 1e-10


def test_duhamel_mean_mode_is_plain_integral(grid32):
    const = Field(grid32, np.full((1, 32, 32), 2.5))
    times = np.linspace(0.0, 0.5, 65)
    out = duhamel(times, [const] * times.size)
    assert np.max(np.abs(out.fields[-1].values - 2.5 * times[-1])) < 1e-14


def test_duhamel_exact_for_linear_sources(grid32):
    # source cos(x) * s: exact integral of e^{-(t-s)} s ds
    times = np.linspace(0.0, 0.5, 9)
    fields = tuple(single_mode(grid32, (1, 0), float(s)) for s in times)
    out = duhamel(times, fields)
    t = times[-1]
    expected = t - 1.0 + math.exp(-t)  # int_0^t e^{-(t-s)} s ds
    mode = single_mode(grid32, (1, 0))
    assert np.max(np.abs(out.fields[-1].values - expected * mode.values)) < 1e-12


def test_duhamel_second_order_convergence(grid32):
    # quadratic-in-time source: errors drop 4x per step halving
    def run(panels):
        times = np.linspace(0.0, 0.5, panels + 1)
        fields = tuple(single_mode(grid32, (1, 0), float(s * s)) for s in times)
        out = duhamel(times, fields)
        t = times[-1]
        exact = t * t - 2.0 * t + 2.0 - 2.0 * math.exp(-t)
        mode = single_mode(grid32, (1, 0))
        return np.max(np.abs(out.fields[-1].values - exact * mode.values))

    errs = [run(m) for m in (16, 32, 64)]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_duhamel_stack_on_a_half_spectrum_is_the_half_of_the_full_result(dim):
    grid = Grid(dim, 8)
    rng = np.random.default_rng(dim)
    times = np.array([0.0, 0.05, 0.1, 0.3])
    shape = (times.size, 2) + grid.shape
    full = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    cols = grid.points // 2 + 1
    half = _duhamel_stack(times, full[..., :cols], grid)
    # the full result: the panel recursion by hand on the full lattice
    ksq = sum(k**2 for k in np.meshgrid(*([grid.k_axis] * dim), indexing="ij"))
    expected = np.zeros_like(full)
    for j in range(1, times.size):
        dt = times[j] - times[j - 1]
        g1, g2 = _panel_weights(ksq * dt)
        expected[j] = np.exp(-ksq * dt) * expected[j - 1] + dt * (
            full[j] * (g1 - g2) + full[j - 1] * g2
        )
    assert np.array_equal(half, expected[..., :cols])


# -- fixed-point map -----------------------------------------------------------


def make_free_trajectories(grid, u0, th0, config):
    from lptorus.besov import heat_trajectory

    times = time_grid(config)
    return heat_trajectory(u0, times), heat_trajectory(th0, times)


def fixed_point(u, th, u0, th0, config):
    """One application of the Duhamel map (``_fixed_point_map``) to trajectories."""
    grid, a = u0.grid, np.asarray(config.buoyancy, dtype=float)
    j1, j2 = _fixed_point_map(
        u.times, u.half, th.half, u0.spectral, th0.spectral, grid, a
    )
    return (FieldTrajectory.from_half(grid, u.times, j1),
            FieldTrajectory.from_half(grid, u.times, j2))


def test_rhs_zero_data(grid32):
    u0 = Field.zeros(grid32, 2)
    th0 = Field.zeros(grid32)
    u, th = make_free_trajectories(grid32, u0, th0, CONFIG)
    j1, j2 = fixed_point(u, th, u0, th0, CONFIG)
    assert all(np.max(np.abs(f.values)) == 0.0 for f in j1.fields)
    assert all(np.max(np.abs(f.values)) == 0.0 for f in j2.fields)


def test_rhs_decouples_without_scalar(grid32):
    # theta = 0: the scalar equation returns its free (zero) evolution and
    # the velocity map reduces to the advective mild map
    u0 = taylor_green(grid32, 0.01)
    th0 = Field.zeros(grid32)
    u, th = make_free_trajectories(grid32, u0, th0, CONFIG)
    j1, j2 = fixed_point(u, th, u0, th0, CONFIG)
    assert all(np.max(np.abs(f.values)) == 0.0 for f in j2.fields)
    assert np.max(np.abs(j1.fields[0].values - u0.values)) < 1e-12


def test_rhs_linear_in_scalar_when_velocity_frozen_zero(grid32, rng):
    u0 = Field.zeros(grid32, 2)
    th_a = single_mode(grid32, (1, 0), 0.02)
    th_b = single_mode(grid32, (2, 1), 0.03)
    config = CONFIG
    times = time_grid(config)
    from lptorus.besov import heat_trajectory

    zero_u = heat_trajectory(u0, times)

    def j1_of(theta0):
        th = heat_trajectory(theta0, times)
        j1, _ = fixed_point(zero_u, th, u0, theta0, config)
        return j1

    ja, jb, jab = j1_of(th_a), j1_of(th_b), j1_of(th_a + th_b)
    for fa, fb, fab in zip(ja.fields, jb.fields, jab.fields):
        assert np.max(np.abs(fab.values - fa.values - fb.values)) < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_flux_kernel_matches_2n_padded_formulas(dim):
    # the tensor, scalar-flux and source formulas the kernel replaced, each
    # with its own products dealiased by 2N zero padding, on full spectra;
    # the kernel reads and returns the half spectra of the same real fields
    grid = Grid(dim, 16 if dim == 2 else 8)
    n, ax = dim, -dim - 1
    ik = 1j * full_k_deriv(grid)
    rng = np.random.default_rng(dim)

    def real_field(m):  # three samples of white noise: Nyquist planes included
        return full_spectrum(rng.standard_normal((3, m) + grid.shape), n)

    u = leray_full(real_field(n), grid)
    v = leray_full(real_field(n), grid)
    th = real_field(1)
    a = np.arange(1.0, n + 1)
    padded = functools.partial(padded_2n, grid=grid)
    truncated = functools.partial(truncated_2n, grid=grid)

    def div_rows(prod, rows):  # row r: -sum_j i k_j prod[r n + j]
        return np.stack(
            [
                -sum(ik[j] * np.take(prod, r * n + j, axis=ax) for j in range(n))
                for r in range(rows)
            ],
            axis=ax,
        )

    up, vp, tp = padded(u), padded(v), padded(th)
    rows_uv = [np.take(up, [i], axis=ax) * vp for i in range(n)]
    rows_uu = [np.take(up, [i], axis=ax) * up for i in range(n)]
    tensor = leray_full(div_rows(truncated(np.concatenate(rows_uv, ax)), n), grid)
    scalar = div_rows(truncated(tp * up), 1)
    self_flux = div_rows(truncated(np.concatenate(rows_uu + [tp * up], ax)), n + 1)
    sources = (
        leray_full(
            np.take(self_flux, range(n), axis=ax) + a.reshape((n,) + (1,) * n) * th, grid
        ),
        np.take(self_flux, [n], axis=ax),
    )

    def close(got, expected):
        expected = expected[..., : grid.points // 2 + 1]
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def half(spec):
        return spec[..., : grid.points // 2 + 1]

    zero = _source_operator(grid, (0.0,) * n, False)
    vth = np.concatenate([half(v), half(th)], axis=ax)
    flux = _sources(half(u), vth, zero, grid)
    close(np.take(flux, range(n), axis=ax), tensor)
    close(np.take(flux, [n], axis=ax), scalar)
    for got, expected in zip(_nonlinear_sources(half(u), half(th), grid, a), sources):
        close(got, expected)


@pytest.mark.parametrize("dim", [2, 3])
def test_self_flux_distinct_products_are_bit_identical(dim):
    # a self flux forms only the n(n + 1)/2 distinct u_i u_j; read back
    # through the plan's rows they are the batch of all n^2 entries, bit for bit
    grid = Grid(dim, 16 if dim == 2 else 8)
    n, ax = dim, -dim - 1
    rng = np.random.default_rng(dim)
    values = rng.standard_normal((3, n + 1) + grid.shape)
    spec = np.fft.fftn(values, axes=tuple(range(-n, 0)), norm="forward")
    b = spec[..., : grid.points // 2 + 1]
    entries = [(i, j) for i in range(n) for j in range(n)] + [(j, n) for j in range(n)]
    pairs, rows = _flux_plan(n, True)
    assert len(pairs) == n * (n + 1) // 2 + n
    got = np.take(dealiased_products(b, b, pairs, grid), rows, axis=ax)
    assert np.array_equal(got, dealiased_products(b, b, entries, grid))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("generic", [False, True])
def test_source_operator_matches_the_flux_projection_composition(dim, generic):
    # flux by explicit divergence, then + a theta, then project_divergence_free
    grid = Grid(dim, 16 if dim == 2 else 8)
    n, ax, cols = dim, -dim - 1, grid.points // 2 + 1
    rng = np.random.default_rng(dim)
    # two samples of white noise: Nyquist planes included
    values = rng.standard_normal((2, n + 1) + grid.shape)
    spec = np.fft.fftn(values, axes=tuple(range(-n, 0)), norm="forward")[..., :cols]
    u = project_divergence_free(spec[:, :n], grid)
    th = spec[:, n:]
    a = rng.standard_normal(n) if generic else np.eye(n)[-1]
    b = np.concatenate([u, th], axis=ax)
    entries = [(i, j) for i in range(n) for j in range(n)] + [(j, n) for j in range(n)]
    prod = dealiased_products(b, b, entries, grid)
    prod = prod.reshape(prod.shape[:ax] + (n + 1, n) + prod.shape[ax + 1 :])
    flux = -1j * np.sum(grid.k_mesh_deriv[..., :cols] * prod, axis=ax)
    flux_u, flux_th = np.split(flux, [n], axis=ax)
    expected = (
        project_divergence_free(flux_u + a.reshape((n,) + (1,) * n) * th, grid),
        flux_th,
    )
    for got, want in zip(_nonlinear_sources(u, th, grid, a), expected):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_source_operator_is_cached_read_only():
    op = _source_operator(Grid(2, 16), (0.0, 1.0), True)
    assert op is _source_operator(Grid(2, 16), (0.0, 1.0), True)
    assert op.shape == (3, 6, 16 * 9) and not op.flags.writeable


# -- certificate ----------------------------------------------------------------


def test_certificate_zero_data(grid32, constants):
    cert = smallness_certificate(
        Field.zeros(grid32, 2), Field.zeros(grid32), CONFIG, constants=constants
    )
    assert cert.lhs == 0.0 and cert.passed


def test_certificate_strict_inequality_at_boundary():
    cert = SmallnessCertificate.evaluate(
        lambda_=1.0, eta=0.25, free_u=1.0 / 16.0, free_th=0.0,
        mu1=1.0, mu2=1.0, regime="thm1.2",
    )
    assert cert.lhs == cert.rhs
    assert not cert.passed


def test_certificate_scales_linearly(grid32, constants):
    u0, th0 = taylor_green(grid32, 1.0), single_mode(grid32, (1, 1), 1.0)
    cert1 = smallness_certificate(u0, th0, CONFIG, constants=constants)
    cert2 = smallness_certificate(
        taylor_green(grid32, 0.25), single_mode(grid32, (1, 1), 0.25),
        CONFIG, constants=constants,
    )
    assert cert2.lhs == pytest.approx(0.25 * cert1.lhs, rel=1e-12)


def test_certificate_threshold_amplitude_by_bisection(grid32, constants):
    # the pass/fail frontier for the scaled family sits at rhs/lhs(1);
    # bisection on the amplitude must bracket exactly that value
    u0, th0 = taylor_green(grid32, 1.0), single_mode(grid32, (1, 1), 1.0)
    cert1 = smallness_certificate(u0, th0, CONFIG, constants=constants)
    expected = cert1.rhs / cert1.lhs

    def passes(amp):
        cert = smallness_certificate(
            taylor_green(grid32, amp), single_mode(grid32, (1, 1), amp),
            CONFIG, constants=constants,
        )
        return cert.passed

    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    assert lo == pytest.approx(expected, rel=1e-6)
    assert passes(0.999 * expected) and not passes(1.001 * expected)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(horizon=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(horizon=0.5, regime="thm1.3")  # missing p, r
    with pytest.raises(ValueError):
        SolverConfig(horizon=0.5, regime="thm1.4", p=2.0, eps=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(horizon=2.0, regime="thm1.4", p=2.0, eps=0.5)
    cfg = SolverConfig(horizon=0.5, regime="thm1.3", p=1.0, r=2.0)
    with pytest.raises(ValueError):
        cfg.validate_grid(Grid(2, 32))  # p = 1 <= n/2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"horizon": math.inf},
        {"horizon": 0.5, "buoyancy": (math.inf, 1.0)},
        {"horizon": 0.5, "buoyancy": (0.0, math.nan)},
        {"horizon": 0.5, "regime": "thm1.4", "p": 3.0, "eps": math.nan},
        {"horizon": 0.5, "regime": "thm1.4", "p": 3.0, "eps": math.inf},
    ],
)
def test_config_rejects_non_finite_parameters(kwargs):
    with pytest.raises(ValueError, match="finite"):
        SolverConfig(**kwargs)


@pytest.mark.parametrize("refine", [0, -1])
def test_config_rejects_oracle_refine_below_one(refine):
    with pytest.raises(ValueError, match="oracle_refine"):
        SolverConfig(horizon=0.25, steps=4, oracle_refine=refine)


def test_picard_rejects_velocity_with_wrong_component_count(grid32):
    config = SolverConfig(horizon=0.25, steps=4, lambda_=1.0, eta=1.0)
    th0 = single_mode(grid32, (1, 1), 1e-3)
    with pytest.raises(ValueError, match="u0 must have 2 components"):
        picard_solve(single_mode(grid32, (1, 0), 1e-3), th0, config)


@pytest.mark.parametrize("theta_grid", [Grid(2, 16, 1.0), Grid(2, 32)])
def test_picard_rejects_data_on_two_grids(theta_grid):
    config = SolverConfig(horizon=0.25, steps=4, lambda_=1.0, eta=1.0)
    u0 = taylor_green(Grid(2, 16), 1e-3)
    with pytest.raises(ValueError, match="u0 and theta0 must share one grid"):
        picard_solve(u0, single_mode(theta_grid, (1, 1), 1e-3), config)


@pytest.mark.parametrize("theta_grid", [Grid(2, 16, 1.0), Grid(2, 32)])
def test_rhs_rejects_data_on_two_grids(theta_grid):
    u0, th0 = taylor_green(Grid(2, 16), 1e-3), single_mode(theta_grid, (1, 1), 1e-3)
    u, _ = make_free_trajectories(u0.grid, u0, Field.zeros(u0.grid), CONFIG)
    _, th = make_free_trajectories(theta_grid, th0, th0, CONFIG)
    with pytest.raises(ValueError, match="u0 and theta0 must share one grid"):
        residual_check(u, th, u0, th0, CONFIG)


@pytest.mark.parametrize("theta_grid", [Grid(2, 16, 1.0), Grid(2, 32)])
def test_oracle_rejects_data_on_two_grids(theta_grid):
    config = SolverConfig(horizon=0.25, steps=4, lambda_=1.0, eta=1.0, oracle_refine=1)
    u0 = taylor_green(Grid(2, 16), 1e-3)
    with pytest.raises(ValueError, match="u0 and theta0 must share one grid"):
        exponential_euler(u0, single_mode(theta_grid, (1, 1), 1e-3), config)


@pytest.mark.parametrize("theta_grid", [Grid(2, 16, 1.0), Grid(2, 8)])
def test_certificate_rejects_data_on_two_grids(theta_grid):
    config = SolverConfig(horizon=0.25, steps=4, lambda_=1.0, eta=1.0)
    u0 = taylor_green(Grid(2, 16), 1e-3)
    with pytest.raises(ValueError, match="u0 and theta0 must share one grid"):
        smallness_certificate(u0, single_mode(theta_grid, (1, 1), 1e-3), config)


@pytest.mark.parametrize("theta_grid", [Grid(2, 16, 1.0), Grid(2, 8)])
def test_residual_check_rejects_data_on_two_grids(theta_grid):
    u0, th0 = taylor_green(Grid(2, 16), 1e-3), single_mode(theta_grid, (1, 1), 1e-3)
    u, th = make_free_trajectories(u0.grid, u0, single_mode(u0.grid, (1, 1), 1e-3), CONFIG)
    with pytest.raises(ValueError, match="u0 and theta0 must share one grid"):
        residual_check(u, th, u0, th0, CONFIG)


def test_time_grid_log_prefix_for_weighted_regime():
    cfg = SolverConfig(horizon=0.5, steps=8, regime="thm1.4", p=2.0, eps=0.5)
    times = time_grid(cfg)
    assert times[0] == 0.0
    assert times[1] <= 0.5 * 1e-4 * 1.01
    assert np.all(np.diff(times) > 0)


# -- Picard iteration ------------------------------------------------------------


def test_picard_zero_data_immediate(grid32, constants):
    config = SolverConfig(
        horizon=0.5, steps=8, regime="thm1.2",
        lambda_=constants["lambda"], eta=constants["eta"],
    )
    u, th, report = picard_solve(Field.zeros(grid32, 2), Field.zeros(grid32), config)
    assert report.converged
    assert report.final["iterations"] == 1
    assert all(np.max(np.abs(f.values)) == 0.0 for f in u.fields)


def test_picard_taylor_green_contracts(grid32, constants):
    config = SolverConfig(
        horizon=0.5, steps=32, regime="thm1.2",
        lambda_=constants["lambda"], eta=constants["eta"],
    )
    u0, th0 = scaled_data(grid32, config, constants, 0.6)
    u, th, report = picard_solve(u0, th0, config)
    assert report.certificate.passed
    assert report.converged and not report.diverged
    factors = report.contraction_factors()
    assert factors and all(f < 1.0 for f in factors)
    assert all(a >= b for a, b in zip(factors[1:], factors[2:]))
    assert all(report.bounds[k] for k in
               ("velocity_le_2mu1", "scalar_le_2mu2", "pair_le_4_initial"))
    assert report.residuals["velocity_residual_rel"] <= 10 * config.tol
    assert report.residuals["scalar_residual_rel"] <= 10 * config.tol


def test_picard_iterates_stay_divergence_free(grid32, constants):
    config = SolverConfig(
        horizon=0.5, steps=16, regime="thm1.2",
        lambda_=constants["lambda"], eta=constants["eta"],
    )
    u0, th0 = scaled_data(grid32, config, constants, 0.5)
    u, _, _ = picard_solve(u0, th0, config)
    for f in u.fields:
        div = np.max(np.abs(divergence(f).values))
        assert div < 1e-10 * max(lp_norm(f, 2.0), 1e-30)


def test_picard_oversized_data_flagged_but_runs(grid32, constants):
    config = SolverConfig(
        horizon=0.5, steps=16, regime="thm1.2",
        lambda_=constants["lambda"], eta=constants["eta"], max_iterations=6,
    )
    u0, th0 = scaled_data(grid32, config, constants, 0.6)
    u0, th0 = 100.0 * u0, 100.0 * th0
    _, _, report = picard_solve(u0, th0, config)
    assert not report.certificate.passed
    assert report.certificate.lhs >= report.certificate.rhs
    assert len(report.iterations) > 1  # it still ran


def test_picard_stops_as_diverged_on_non_finite_iterate():
    config = SolverConfig(horizon=0.5, steps=8, regime="thm1.2", lambda_=1.0, eta=1.0)
    grid = Grid(2, 16)
    u0, th0 = taylor_green(grid, 1e306), single_mode(grid, (1, 1), 1e306)
    with np.errstate(all="ignore"):
        _, _, report = picard_solve(u0, th0, config)
    assert report.diverged and not report.converged
    assert len(report.iterations) == 2  # stopped at the first non-finite pair
    assert not np.isfinite(report.final["pair_norm"])


def test_picard_reports_non_finite_divergence():
    config = SolverConfig(horizon=0.5, steps=8, regime="thm1.2", lambda_=1.0, eta=1.0)
    grid = Grid(2, 16)
    u0, th0 = taylor_green(grid, 1e306), single_mode(grid, (1, 1), 1e306)
    with np.errstate(all="ignore"):
        _, _, report = picard_solve(u0, th0, config)
    assert report.diverged and report.divergence == "non-finite"
    assert report.to_dict()["divergence"] == "non-finite"


def test_picard_reports_growth_divergence():
    # past the certificate the pair norm outgrows DIVERGENCE_GUARD x the
    # free evolution's before anything overflows
    config = SolverConfig(horizon=0.5, steps=16, regime="thm1.2", lambda_=1.0, eta=1.0,
                          max_iterations=6)
    grid = Grid(2, 16)
    _, _, report = picard_solve(taylor_green(grid, 30.0), single_mode(grid, (1, 1), 30.0),
                                config)
    assert report.diverged and report.divergence == "growth"
    pair_norms = [it["velocity_norm"] + report.certificate.c_star * it["scalar_norm"]
                  for it in report.iterations]
    assert np.all(np.isfinite(pair_norms))
    assert pair_norms[-1] > DIVERGENCE_GUARD * report.certificate.lhs
    assert report.to_dict()["divergence"] == "growth"


def test_converged_report_carries_no_divergence_key(grid32, constants):
    config = SolverConfig(
        horizon=0.5, steps=16, regime="thm1.2",
        lambda_=constants["lambda"], eta=constants["eta"],
    )
    u0, th0 = scaled_data(grid32, config, constants, 0.5)
    _, _, report = picard_solve(u0, th0, config)
    assert report.converged and report.divergence is None
    assert "divergence" not in report.to_dict()


def test_only_a_run_cut_at_max_iterations_says_stopped():
    grid = Grid(2, 16)
    u0, th0 = taylor_green(grid, 1e-3), single_mode(grid, (1, 1), 1e-3)
    for cap, stopped in ((1, "max_iterations"), (25, None)):
        config = SolverConfig(horizon=0.25, steps=4, lambda_=1.0, eta=1.0,
                              max_iterations=cap)
        _, _, report = picard_solve(u0, th0, config)
        assert report.converged is (stopped is None) and report.stopped == stopped
        assert report.to_dict().get("stopped") == stopped


def test_picard_preserves_taylor_green_lattice_symmetry(grid32, constants):
    # the data is invariant under the half-period shift x -> x + (pi, pi):
    # only modes with k1 + k2 even are populated, and products and
    # multipliers preserve that sublattice, so every iterate does too
    config = SolverConfig(
        horizon=0.5, steps=16, regime="thm1.2",
        lambda_=constants["lambda"], eta=constants["eta"],
    )
    u0 = taylor_green(grid32, 0.003)
    th0 = single_mode(grid32, (1, 1), 0.002)
    u, th, _ = picard_solve(u0, th0, config)

    ints = (np.fft.fftfreq(32) * 32).astype(int)
    odd = ((ints[:, None] + ints[None, :]) % 2 == 1)[:, :17]  # the half lattice
    assert np.max(np.abs(u0.spectral[..., odd])) < 1e-14

    for traj in (u, th):
        for f in traj.fields[:: len(traj.fields) // 4]:
            scale = max(np.max(np.abs(f.spectral)), 1e-30)
            assert np.max(np.abs(f.spectral[..., odd])) < 1e-10 * scale


def test_residual_of_exact_zero_solution(grid32):
    config = SolverConfig(horizon=0.5, steps=8, regime="thm1.2",
                          lambda_=1.0, eta=1.0)
    times = time_grid(config)
    zero_u = FieldTrajectory(times, tuple(Field.zeros(grid32, 2) for _ in times))
    zero_th = FieldTrajectory(times, tuple(Field.zeros(grid32) for _ in times))
    res = residual_check(zero_u, zero_th, Field.zeros(grid32, 2),
                         Field.zeros(grid32), config)
    assert res["velocity_residual"] == 0.0
    assert res["scalar_residual"] == 0.0


# -- regimes ---------------------------------------------------------------------


def test_thm13_regime_runs_and_bounds(grid32):
    config = SolverConfig(horizon=0.5, steps=16, regime="thm1.3", p=4.0, r=2.0)
    constants = measure_operator_constants(grid32, config)
    config = SolverConfig(horizon=0.5, steps=16, regime="thm1.3", p=4.0, r=2.0,
                          lambda_=constants["lambda"], eta=constants["eta"])
    u0, th0 = scaled_data(grid32, config, constants, 0.5)
    _, _, report = picard_solve(u0, th0, config)
    assert report.certificate.passed and report.converged
    assert report.bounds["velocity_le_2mu1"]
    assert report.bounds["scalar_le_2mu2"]


def test_thm14_regime_weighted_bounds(grid32):
    config = SolverConfig(horizon=0.5, steps=16, regime="thm1.4", p=2.0, eps=0.5)
    constants = measure_operator_constants(grid32, config)
    config = SolverConfig(horizon=0.5, steps=16, regime="thm1.4", p=2.0, eps=0.5,
                          lambda_=constants["lambda"], eta=constants["eta"])
    u0, th0 = scaled_data(grid32, config, constants, 0.5)
    _, _, report = picard_solve(u0, th0, config)
    assert report.certificate.passed and report.converged
    assert report.bounds["velocity_le_2mu1"]
    assert report.bounds["scalar_le_2mu2"]
    assert report.bounds["pair_le_4_initial"]


# -- oracle ----------------------------------------------------------------------


def test_oracle_zero_data(grid32):
    config = SolverConfig(horizon=0.25, steps=8, regime="thm1.2",
                          lambda_=1.0, eta=1.0)
    u_T, th_T = exponential_euler(Field.zeros(grid32, 2), Field.zeros(grid32), config)
    assert np.max(np.abs(u_T.values)) == 0.0
    assert np.max(np.abs(th_T.values)) == 0.0


def test_oracle_instability_is_reported(grid32):
    config = SolverConfig(horizon=0.5, steps=8, regime="thm1.2",
                          lambda_=1.0, eta=1.0)
    with pytest.raises(RuntimeError, match="unstable"):
        exponential_euler(
            taylor_green(grid32, 1e4), single_mode(grid32, (1, 1), 1e4),
            config, refine=1,
        )


def test_oracle_non_finite_state_is_reported():
    config = SolverConfig(horizon=0.5, steps=8, regime="thm1.2", lambda_=1.0, eta=1.0)
    grid = Grid(2, 16)
    u0, th0 = taylor_green(grid, 1e306), single_mode(grid, (1, 1), 1e306)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="unstable"):
        exponential_euler(u0, th0, config, refine=1)


@pytest.mark.parametrize("refine", [0, -1])
def test_oracle_rejects_refine_below_one(refine):
    config = SolverConfig(horizon=0.25, steps=4, regime="thm1.2", lambda_=1.0, eta=1.0)
    grid = Grid(2, 16)
    with pytest.raises(ValueError, match="refine must be >= 1"):
        exponential_euler(taylor_green(grid, 0.01), single_mode(grid, (1, 1), 0.01),
                          config, refine=refine)


@pytest.mark.parametrize("dim", [2, 3])
def test_half_spectrum_oracle_matches_a_full_spectrum_loop(dim):
    # the same exponential-Euler steps on full spectra, with every product
    # dealiased by 2N zero padding and complex transforms
    grid = Grid(dim, 16 if dim == 2 else 8)
    n, npts = dim, grid.points
    axes = tuple(range(-n, 0))
    buoyancy = (0.0,) * (n - 1) + (1.0,)
    config = SolverConfig(horizon=0.1, steps=3, regime="thm1.2", buoyancy=buoyancy,
                          lambda_=1.0, eta=1.0, oracle_refine=2)
    rng = np.random.default_rng(11)
    # white noise: every mode populated, Nyquist planes included
    u0 = Field(grid, 0.2 * rng.standard_normal((n,) + grid.shape))
    th0 = Field(grid, 0.2 * rng.standard_normal(grid.shape))

    padded = functools.partial(padded_2n, grid=grid)
    truncated = functools.partial(truncated_2n, grid=grid)
    ik = 1j * full_k_deriv(grid)
    a = np.asarray(buoyancy).reshape((n,) + (1,) * n)
    nsteps = config.steps * config.oracle_refine
    dt = config.horizon / nsteps
    x = np.sum(np.stack(np.meshgrid(*([grid.k_axis] * n), indexing="ij")) ** 2, axis=0) * dt
    decay = np.exp(-x)
    weight = dt * np.where(x > 0, -np.expm1(-x) / np.where(x > 0, x, 1.0), 1.0)
    u = leray_full(full_spectrum(u0.values, n), grid)
    th = full_spectrum(th0.values, n)
    for _ in range(nsteps):
        up, tp = padded(u), padded(th)
        flux_u = -sum(ik[j] * truncated(up * up[j]) for j in range(n))
        flux_th = -sum(ik[j] * truncated(tp * up[j]) for j in range(n))
        u = decay * u + weight * leray_full(flux_u + a * th, grid)
        th = decay * th + weight * flux_th

    u_T, th_T = exponential_euler(u0, th0, config)
    for got, spec in ((u_T, u), (th_T, th)):
        want = np.fft.ifftn(spec * npts**n, axes=axes).real
        assert np.max(np.abs(got.values - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("dim", [2, 3])
def test_oracle_step_makes_one_transform_batch_each_way(dim, monkeypatch):
    # per step one c2r and one r2c batch (plus the leading-axis complex
    # passes of the pruned transforms); two c2r at the end for u and theta,
    # each one irfft after its leading-axis passes
    grid = Grid(dim, 8)
    steps = 3
    config = SolverConfig(horizon=0.1, steps=steps, buoyancy=(0.0,) * (dim - 1) + (1.0,),
                          lambda_=1.0, eta=1.0, oracle_refine=1)
    rng = np.random.default_rng(dim)
    u0 = Field(grid, 0.01 * rng.standard_normal((dim,) + grid.shape))
    th0 = Field(grid, 0.01 * rng.standard_normal(grid.shape))
    u0.spectral, th0.spectral  # the data's own transforms, before counting
    counts = {}
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    exponential_euler(u0, th0, config)
    passes = steps * (dim - 1)
    assert counts == {"irfft": steps + 2, "ifft": passes + 2 * (dim - 1), "rfft": steps,
                      "fft": passes}


def test_oracle_matches_heat_flow_in_linear_regime(grid32):
    # tiny amplitudes: both integrators reduce to the exact heat flow
    config = SolverConfig(horizon=0.25, steps=16, regime="thm1.2",
                          lambda_=1.0, eta=1.0, oracle_refine=10)
    amp = 1e-9
    u0 = taylor_green(grid32, amp)
    th0 = Field.zeros(grid32)
    u_T, _ = exponential_euler(u0, th0, config)
    exact = np.exp(-2.0 * config.horizon) * u0.values
    assert np.max(np.abs(u_T.values - exact)) < 1e-8 * amp


def test_oracle_agreement_with_picard(grid32, constants):
    config = SolverConfig(
        horizon=0.5, steps=64, regime="thm1.2",
        lambda_=constants["lambda"], eta=constants["eta"], oracle_refine=40,
    )
    u0, th0 = scaled_data(grid32, config, constants, 0.6)
    u, th, _ = picard_solve(u0, th0, config)
    err = oracle_compare(u0, th0, config, solution=(u, th))
    assert err["max"] <= 1e-4


# -- regime norms ----------------------------------------------------------------

REGIME_EXPONENTS = {
    "thm1.2": {},
    "thm1.3": {"p": 3.0, "r": 2.0},
    "thm1.4": {"p": 3.0, "eps": 0.5},
}


def mixed_reference(per_block, s):
    """||.||_{B^s_{p,1}} + ||.||_{B^{s,1}_{p,inf}} from block norms q = -1, ..."""
    qs = np.arange(-1, per_block.shape[0] - 1)
    lift = 2.0 ** (qs * s)
    return float(np.sum(lift * per_block) + np.max(lift * (3.0 + qs) * per_block))


def besov_reference(per_block, s, r, alpha=0.0):
    qs = np.arange(-1, per_block.shape[0] - 1)
    terms = 2.0 ** (qs * s) * (3.0 + qs) ** alpha * per_block
    return float(np.max(terms)) if r == INF else float(np.sum(terms**r) ** (1.0 / r))


@pytest.mark.parametrize("regime", sorted(REGIME_EXPONENTS))
def test_regime_norms_equal_the_per_regime_formulas_bit_for_bit(regime):
    # each regime's solution norms and data norms mu1, mu2, written out by hand
    config = SolverConfig(
        horizon=0.5, steps=8, regime=regime, **REGIME_EXPONENTS[regime]
    )
    grid = Grid(2, 16)
    rng = np.random.default_rng(7)
    u0 = random_field(grid, rng, components=2)
    u0 = Field.from_spectral(grid, project_divergence_free(u0.spectral, grid))
    th0 = random_field(grid, rng)
    times = time_grid(config)
    u, th = heat_trajectory(u0, times), heat_trajectory(th0, times)

    def l2_blocks(traj, p):  # ||block_q||_{L^2_T L^p}
        return time_block_norms(block_time_lp(traj, p), times, 2.0)

    if regime == "thm1.4":
        expected = (
            kato_weighted_norm(u.restrict_positive(), 1.0, INF),
            kato_weighted_norm(th.restrict_positive(), 0.5, 3.0),
            besov_reference(block_lp_norms(u0, INF), -1.0, INF, 1.0),
            besov_reference(block_lp_norms(th0, 3.0), -1.0, INF, 0.5),
        )
    else:
        u_free = mixed_reference(l2_blocks(u, INF), 0.0)
        mu1 = mixed_reference(block_lp_norms(u0, INF), -1.0)
        if regime == "thm1.2":
            th_free = mixed_reference(l2_blocks(th, 1.0), 0.0)
            mu2 = mixed_reference(block_lp_norms(th0, 1.0), -1.0)
        else:
            th_free = besov_reference(l2_blocks(th, 3.0), 0.0, 2.0)
            mu2 = besov_reference(block_lp_norms(th0, 3.0), -1.0, 2.0)
        expected = (u_free, th_free, mu1, mu2)
    cert = smallness_certificate(u0, th0, config, constants={"lambda": 1.0, "eta": 1.0})
    got = (velocity_norm(u, config), scalar_norm(th, config), cert.mu1, cert.mu2)
    assert got == expected
    assert (cert.free_velocity_norm, cert.free_scalar_norm) == expected[:2]
