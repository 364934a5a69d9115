"""Cutoff pair: supports, plateau, partition of unity, variant equivalence."""

import inspect

import numpy as np
import pytest

from lptorus import besov, comb, dyadic, paraproduct, solver, suites
from lptorus import build_cutoffs, partition_defect
from lptorus.cutoffs import default_test_radii


@pytest.fixture(params=["exp", "exp-sq"])
def cutoffs(request):
    return build_cutoffs(request.param)


def test_chi_plateau_and_support(cutoffs):
    assert cutoffs.chi(0.0) == 1.0
    assert cutoffs.chi(0.5) == 1.0
    assert cutoffs.chi(0.75) == 1.0
    assert cutoffs.chi(1.4) == 0.0  # 1.4 > 4/3
    assert cutoffs.chi(5.0) == 0.0
    mid = cutoffs.chi(1.0)
    assert 0.0 < mid < 1.0


def test_chi_valued_in_unit_interval_and_monotone(cutoffs):
    rho = np.linspace(0.0, 3.0, 4001)
    vals = cutoffs.chi(rho)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) <= 1e-12)


def test_phi_support_is_the_stated_shell(cutoffs):
    rho = np.linspace(0.0, 4.0, 8001)
    vals = cutoffs.phi(rho)
    inside = (rho >= 0.75) & (rho <= 8.0 / 3.0)
    assert np.max(np.abs(vals[~inside])) == 0.0
    assert np.all(vals >= -1e-15) and np.all(vals <= 1.0 + 1e-15)


def test_telescoping_at_unit_radius(cutoffs):
    # chi(1) + sum_{q >= 0} phi(2^-q) collapses to chi(1) + phi(1): all
    # higher terms sit on the chi = 1 plateau where phi vanishes
    total = cutoffs.chi(1.0) + sum(cutoffs.phi(2.0**-q) for q in range(0, 30))
    assert abs(total - 1.0) < 1e-12
    assert cutoffs.phi(0.5) == 0.0


def test_partition_of_unity_dense_radii(cutoffs):
    radii = default_test_radii()
    assert radii.size >= 10**4
    assert partition_defect(radii, cutoffs) < 1e-12


def test_variants_differ_but_share_supports():
    a = build_cutoffs("exp")
    b = build_cutoffs("exp-sq")
    assert abs(a.chi(1.0) - b.chi(1.0)) > 1e-3
    rho = np.linspace(0, 4, 2001)
    outside = (rho < 0.75) | (rho > 8.0 / 3.0)
    assert np.max(np.abs(a.phi(rho)[outside])) == 0.0
    assert np.max(np.abs(b.phi(rho)[outside])) == 0.0


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        build_cutoffs("linear")


def test_only_the_analysis_primitives_take_a_cutoff_pair():
    # the spaces do not depend on the pair: the block multipliers, besov_norm
    # and the comb kernel take one for the equivalence checks, and nothing
    # built on them does
    fixed = [
        fn
        for mod in (solver, paraproduct, suites)
        for name, fn in inspect.getmembers(mod, inspect.isfunction)
        if not name.startswith("_") and fn.__module__ == mod.__name__
    ]
    assert len(fixed) >= 20
    fixed += [
        dyadic.shell_max, dyadic.shell_bounds, dyadic.reconstruction_cap, dyadic.decompose,
        dyadic.support_report, besov.block_time_lp, besov.chemin_lerner_norm,
        besov.lebesgue_besov_norm, comb.dirac_comb_norms,
    ]
    for fn in fixed:
        assert "cutoffs" not in inspect.signature(fn).parameters, fn.__qualname__


def test_the_default_pair_is_the_exp_pair():
    # one object per profile, so caches keyed on the pair hold one copy
    assert build_cutoffs() is build_cutoffs("exp")
    assert build_cutoffs(transition="exp") is build_cutoffs()
