"""Lacunary comb norms: the two spaces separate in opposite directions."""

import math

import numpy as np
import pytest

from lptorus import DiracCombSpec, build_cutoffs, comb, dirac_comb_norms, suites
from lptorus.comb import (
    KERNEL_EXTENT,
    KERNEL_POINTS,
    PROFILE_POINTS,
    SPLIT,
    SUP_SAMPLES,
    _block_sup,
    _cosine_transform,
    _kernel_table,
    _sup_row,
    _trapezoid_cosines,
    comb_norms,
    kernel_multiplier,
)

# kernel_multiplier at the four in-support reduced arguments of the comb,
# (omega, q) -> value, as computed by the direct-cosine kernel table
PINNED_MULTIPLIERS = {
    "exp": {
        (1.0, 0): 0.3581659549520068,
        (2.0, 0): 0.6418340450812283,
        (0.5, -1): 1.000000000006123,
        (1.0, -1): 0.6418340450479966,
    },
    "exp-sq": {
        (1.0, 0): 0.08455992552420925,
        (2.0, 0): 0.9154400744669957,
        (0.5, -1): 1.0000000000008613,
        (1.0, -1): 0.915440074475793,
    },
}


def test_kernel_recovers_the_profiles():
    # the materialized kernels transform back to the radial profiles at the
    # lacunary radii the comb uses
    cut = build_cutoffs()
    for omega, q in ((1.0, 0), (2.0, 0), (2.0, 1), (1.0, -1), (0.5, -1)):
        exact = float(cut.phi(omega / 2.0**q)) if q >= 0 else float(cut.chi(omega))
        assert kernel_multiplier(omega, q, cut) == pytest.approx(exact, abs=1e-7)


@pytest.mark.parametrize("transition", ["exp", "exp-sq"])
def test_factored_table_matches_direct_cosine_sum(transition):
    # h(y) = (1/pi) sum_k cos(rho_k y) profile(rho_k) w_k, one cosine per
    # (y, rho) pair, on sampled rows: both ends and both sides of seams
    # between blocks of SPLIT rows
    cut = build_cutoffs(transition)
    table = _kernel_table(cut)
    ys = np.linspace(0.0, KERNEL_EXTENT, KERNEL_POINTS)
    assert np.array_equal(table["y"], ys)
    rng = np.random.default_rng(7)
    seams = [SPLIT * b + d for b in (1, 2, 97, SPLIT - 1) for d in (-1, 0)]
    rows = np.unique(np.concatenate([
        [0, KERNEL_POINTS - 1], seams, rng.integers(0, KERNEL_POINTS, 1000)
    ]))
    rho = np.linspace(0.0, 2.0 * cut.gamma + 0.5, PROFILE_POINTS)
    w = np.full(rho.size, rho[1] - rho[0])
    w[0] = w[-1] = 0.5 * (rho[1] - rho[0])
    cosines = np.cos(np.outer(ys[rows], rho))
    for key, profile in (("h", cut.phi(rho)), ("h_tilde", cut.chi(rho))):
        direct = cosines @ (profile * w) / np.pi
        assert np.max(np.abs(table[key][rows] - direct)) <= 1e-13, key


@pytest.mark.parametrize("transition", ["exp", "exp-sq"])
def test_in_support_multipliers_pinned(transition):
    cut = build_cutoffs(transition)
    for (omega, q), value in PINNED_MULTIPLIERS[transition].items():
        assert kernel_multiplier(omega, q, cut) == pytest.approx(value, rel=1e-13, abs=0)


def test_arguments_outside_the_support_give_exact_zero():
    # the sampled kernel resolves |arg| < pi/dy only; these arguments used to
    # alias back to nonzero weights through the quadrature
    dy = KERNEL_EXTENT / (KERNEL_POINTS - 1)
    assert kernel_multiplier(2.0 * np.pi / dy + 1.0, 0) == 0.0
    assert kernel_multiplier(2.0**40, 0) == 0.0
    assert kernel_multiplier(2.0**40, -1) == 0.0
    assert kernel_multiplier(4.0, 0) == 0.0
    assert kernel_multiplier(0.5, 0) == 0.0
    assert kernel_multiplier(2.0, -1) == 0.0
    assert kernel_multiplier(-1.0, 0) == kernel_multiplier(1.0, 0)


def test_non_finite_coefficients_are_rejected():
    # a nan coefficient would give a nan partial sum beside a finite
    # weighted sup, since max(x, nan) keeps x
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            DiracCombSpec((bad, 1.0, 0.5))


def test_nan_frequency_is_rejected():
    # lo <= nan <= hi is False, so a nan omega would read as the exact 0.0
    # of a mode outside the support; an infinite omega is such a mode
    for q in (-2, -1, 0, 3):
        with pytest.raises(ValueError, match="nan"):
            kernel_multiplier(math.nan, q)
    for q in (-1, 0, 3):
        assert kernel_multiplier(math.inf, q) == 0.0
        assert kernel_multiplier(-math.inf, q) == 0.0


def _block_sup_per_call(amps, exponents):
    # the sup grid and one cosine per term, built on every call
    if not amps:
        return 0.0
    base = min(exponents)
    theta = np.linspace(0.0, 2.0 * np.pi, SUP_SAMPLES, endpoint=False)
    total = np.zeros_like(theta)
    for amp, e in zip(amps, exponents):
        total += amp * np.cos(2.0 ** (e - base) * theta)
    return float(np.max(np.abs(total)))


@pytest.mark.parametrize(
    "amps, exponents",
    [
        ([], []),
        ([0.3581659549520068], [4]),
        ([0.41, -0.27, 0.125], [0, 1, 2]),
        ([0.3, 0.6, -0.2], [5, 3, 4]),
        ([0.5, 0.6418340450479966 / 3.0], [-1, 0]),
    ],
)
def test_block_sup_from_cached_rows_matches_per_call_cosines(amps, exponents):
    assert _block_sup(amps, exponents) == _block_sup_per_call(amps, exponents)


def test_block_sup_attained_away_from_the_origin_and_half_grid():
    # a comb block of three lacunary modes (a cutoff spanning a ratio of 4
    # would give one) peaks at theta0 = 2 pi 901 / 2^13: away from x = 0, and
    # 4e-6 above the best sample of a sup grid of 2^12 points
    theta0 = 2.0 * np.pi * 901 / 2**13
    c = -0.9
    b = -(np.sin(theta0) + 4.0 * c * np.sin(4.0 * theta0)) / (2.0 * np.sin(2.0 * theta0))

    def f(theta):  # f'(theta0) = 0 by the choice of b
        return np.cos(theta) + b * np.cos(2.0 * theta) + c * np.cos(4.0 * theta)

    peak = abs(f(theta0))
    dense = np.linspace(0.0, 2.0 * np.pi, 1 << 16, endpoint=False)
    assert np.max(np.abs(f(dense))) <= peak * (1.0 + 1e-14)  # the global sup
    assert abs(f(0.0)) < 0.3 * peak
    assert _block_sup([1.0, b, c], [3, 4, 5]) == pytest.approx(peak, rel=1e-12)


def test_cached_sup_rows_are_read_only():
    row = _sup_row(1)
    with pytest.raises(ValueError):
        row[0] = 0.0
    assert _sup_row(1) is row


def test_long_kronecker_comb_matches_short_one():
    # a single mode at radius 2^k meets the same two reduced arguments for
    # every k, so (3+k) times the summed norm does not depend on k
    short, _ = dirac_comb_norms(DiracCombSpec.kronecker(4))
    long, _ = dirac_comb_norms(DiracCombSpec.kronecker(40))
    assert 43.0 * long == pytest.approx(7.0 * short, rel=1e-9)


def test_spec_validation():
    with pytest.raises(ValueError):
        DiracCombSpec((1.0,))
    assert DiracCombSpec.harmonic(5).J == 5
    assert DiracCombSpec.kronecker(3).coefficients[4] == pytest.approx(1.0 / 6.0)


def test_zero_comb(grid32):
    b01, blog = dirac_comb_norms(DiracCombSpec((0.0, 0.0, 0.0)))
    assert b01 == 0.0 and blog == 0.0


def test_only_one_dimensional():
    with pytest.raises(ValueError):
        dirac_comb_norms(DiracCombSpec.harmonic(4), dim=2)


def test_harmonic_partial_sum_tracks_coefficient_sum():
    # the block sup norms re-sum the |a_j| with total weight one, so the
    # partial sum should match sum_{j <= J} 1/(j+3) to kernel accuracy
    for J in (6, 12):
        b01, _ = dirac_comb_norms(DiracCombSpec.harmonic(J))
        coeff_sum = sum(1.0 / (j + 3.0) for j in range(-1, J + 1))
        assert b01 == pytest.approx(coeff_sum, rel=1e-4)


def test_harmonic_weighted_sup_frozen_value():
    # sup is attained at the lowest block: (q+3)|_{q=-1} = 2 times
    # chi(1/2) a_{-1} + chi(1) a_0 with chi(1) computed from the bump by hand
    lo, hi = math.exp(-7.0 / 3.0), math.exp(-7.0 / 4.0)
    chi1 = hi / (lo + hi)
    expected = 2.0 * (0.5 + chi1 / 3.0)
    for J in (8, 20):
        _, blog = dirac_comb_norms(DiracCombSpec.harmonic(J))
        assert blog == pytest.approx(expected, rel=1e-4)


def test_harmonic_growth_and_stability():
    js = list(range(8, 21))
    b01, blog = [], []
    for J in js:
        a, b = dirac_comb_norms(DiracCombSpec.harmonic(J))
        b01.append(a)
        blog.append(b)
    assert all(x < y for x, y in zip(b01, b01[1:]))
    spread = (max(blog) - min(blog)) / min(blog)
    assert spread < 0.25
    slope = np.polyfit(np.log(js), b01, 1)[0]
    assert slope >= 0.5


def test_kronecker_inverse_k():
    values = {}
    for k in (2, 4, 8):
        b01, blog = dirac_comb_norms(DiracCombSpec.kronecker(k))
        values[k] = b01
        assert b01 == pytest.approx(1.0 / (3.0 + k), rel=1e-4)
        assert 0.3 < blog < 1.5  # roughly constant in k
    scaled = [k * v for k, v in values.items()]
    mid = np.mean(scaled)
    assert max(abs(s - mid) / mid for s in scaled) < 0.30


def _comb_norms_all_pairs(spec):
    # the O(J^2) loop: every mode weighed in every block, every block measured
    partial = weighted_sup = 0.0
    for q in range(-1, spec.J + 1):
        amps, expos = [], []
        for j in range(-1, spec.J + 1):
            a = spec.coefficients[j + 1]
            if a == 0.0:
                continue
            w = kernel_multiplier(2.0**j, q)
            if abs(w) < 1e-9:
                continue
            amps.append(a * w)
            expos.append(j)
        sup = _block_sup(amps, expos)
        partial += sup
        weighted_sup = max(weighted_sup, (q + 3.0) * sup)
    return partial, weighted_sup


SUITE_SPECS = [DiracCombSpec.harmonic(J) for J in range(8, 21)] + [
    DiracCombSpec.kronecker(k) for k in (2, 4, 8)
]


@pytest.mark.parametrize(
    "specs",
    [
        SUITE_SPECS,
        [DiracCombSpec((0.5, -0.25, 0.0, 1.0, -0.0, 0.3, -0.7, 0.0))],
        [DiracCombSpec((0.0, -2.0)), DiracCombSpec((-1.0, 0.0, 0.0))],
        [DiracCombSpec.harmonic(5), DiracCombSpec.kronecker(3), DiracCombSpec.harmonic(5),
         DiracCombSpec.harmonic(3), DiracCombSpec.kronecker(3)],
    ],
    ids=["suite", "zero-and-negative", "short", "repeated"],
)
def test_comb_norms_equal_the_all_pairs_loop_bit_for_bit(specs):
    expected = [_comb_norms_all_pairs(spec) for spec in specs]
    assert comb_norms(specs) == expected
    assert [dirac_comb_norms(spec) for spec in specs] == expected


def test_comb_suite_measures_each_distinct_block_once_per_run(monkeypatch):
    # 234 blocks and 3,536 weights in the all-pairs loop; the 13 harmonic
    # truncations share every block below their top one.  The counts hold
    # in a second run too, so nothing is kept between runs.
    counts = {}

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(comb, "_block_sup", counting("_block_sup", _block_sup))
    monkeypatch.setattr(
        comb, "kernel_multiplier", counting("kernel_multiplier", kernel_multiplier)
    )
    for _ in range(2):
        counts.update(_block_sup=0, kernel_multiplier=0)
        suites.comb_suite()
        assert counts == {"_block_sup": 40, "kernel_multiplier": 409}


def test_modes_outside_the_two_mode_window_weigh_exact_zero():
    # block q weighs only the comb modes j = q and q + 1 (j >= -1)
    for q in range(-1, 31):
        for j in range(-1, 64):
            w = kernel_multiplier(2.0**j, q)
            if j in (q, q + 1):
                assert w > 0.0, (q, j)
            else:
                assert w == 0.0, (q, j)


# in-support reduced arguments per kernel, and the profile nodes' support
KERNEL_SUPPORTS = {"h": (0.75, 8.0 / 3.0), "h_tilde": (0.0, 4.0 / 3.0)}


@pytest.mark.parametrize("transition", ["exp", "exp-sq"])
@pytest.mark.parametrize("kernel", ["h", "h_tilde"])
def test_closed_form_cosine_transform_matches_the_sampled_table(transition, kernel):
    # 41 arguments across the support, and arguments on profile nodes, where
    # rho_i - arg = 0 takes the theta = 0 branch of the closed form
    cut = build_cutoffs(transition)
    table = _kernel_table(cut)
    ys = table["y"]
    lo, hi = KERNEL_SUPPORTS[kernel]
    rho = np.linspace(0.0, 2.0 * cut.gamma + 0.5, PROFILE_POINTS)
    nodes = rho[(rho >= lo) & (rho <= hi)][::97]
    args = np.concatenate([np.linspace(lo, hi, 41), nodes])
    assert nodes.size >= 5 and np.all(np.isin(nodes, rho))
    for arg in args:
        sampled = 2.0 * np.trapezoid(table[kernel] * np.cos(arg * ys), dx=ys[1] - ys[0])
        closed = _cosine_transform.__wrapped__(kernel, float(arg), cut)
        assert abs(closed - sampled) <= 1e-13, (kernel, arg)


@pytest.mark.parametrize("theta", [0.0, 1e-12, 1e-3, 0.03])
def test_trapezoid_cosine_sum_in_closed_form(theta):
    # T(theta) = sum_t c_t cos(t theta) with half weights at both ends
    m = KERNEL_POINTS - 1
    terms = np.cos(np.arange(m + 1) * theta)
    direct = math.fsum(terms) - 0.5 * (terms[0] + terms[-1])
    closed = float(_trapezoid_cosines(np.array([theta]))[0])
    assert abs(closed - direct) <= 1e-15 * m
    if theta == 0.0:
        assert closed == m


def test_comb_suite_samples_no_kernel_table(monkeypatch):
    calls = []

    def spy(cutoffs):
        calls.append(cutoffs)
        return _kernel_table(cutoffs)

    monkeypatch.setattr(comb, "_kernel_table", spy)
    _cosine_transform.cache_clear()
    suites.comb_suite()
    assert _cosine_transform.cache_info().misses == 4
    assert calls == []
