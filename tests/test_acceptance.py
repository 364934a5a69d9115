"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Desk scale throughout: n = 2, N in {32, 64}, every criterion at its stated
tolerance.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import numpy as np
import pytest

import lptorus.suites as suites
from lptorus import Field, Grid, single_mode, taylor_green
from lptorus.cli import main
from lptorus.solver import (
    SolverConfig,
    measure_operator_constants,
    oracle_compare,
    picard_solve,
    smallness_certificate,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f"  ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def grid32():
    return Grid(2, 32)


@pytest.fixture(scope="module")
def thm12_setup(grid32):
    config = SolverConfig(horizon=0.5, steps=64, regime="thm1.2", oracle_refine=40)
    constants = measure_operator_constants(grid32, config)
    config = SolverConfig(
        horizon=0.5, steps=64, regime="thm1.2", oracle_refine=40,
        lambda_=constants["lambda"], eta=constants["eta"],
    )
    probe = smallness_certificate(
        taylor_green(grid32, 1.0), single_mode(grid32, (1, 1), 1.0), config
    )
    amp = 0.6 * probe.rhs / probe.lhs
    u0 = taylor_green(grid32, amp)
    th0 = single_mode(grid32, (1, 1), amp)
    u, th, rep = picard_solve(u0, th0, config)
    return dict(config=config, u0=u0, th0=th0, u=u, th=th, report=rep)


def test_criterion_1_littlewood_paley_exactness():
    rep = suites.littlewood_paley_suite(dim=2, points=64, trials=50, seed=1)
    worst = max(c["value"] for c in rep["checks"])
    report("1 littlewood-paley exactness", rep["pass"], f"max violation {worst:.3e}")
    assert rep["pass"]
    assert all(c["tolerance"] <= 1e-12 for c in rep["checks"])


def test_criterion_2_bony_identity():
    rep = suites.bony_suite(dim=2, points=64, trials=100, seed=2)
    value = rep["checks"][0]["value"]
    report("2 bony identity", rep["pass"], f"max rel defect {value:.3e}")
    assert rep["pass"] and value < 1e-12


@pytest.mark.parametrize("estimate", ["2.4", "2.5", "2.6", "2.7"])
def test_criterion_3_bilinear_stability(estimate):
    rep = suites.bilinear_suite(
        estimate, dim=2, resolutions=(32, 64), trials=100, seed=3
    )
    lo = rep["stats"]["32"]["max"]
    hi = rep["stats"]["64"]["max"]
    report(
        f"3 bilinear stability [{estimate}]", rep["pass"],
        f"max ratio {lo:.4f} -> {hi:.4f}",
    )
    assert rep["pass"]
    assert hi <= 1.2 * lo
    if estimate == "2.5":
        # the Banach-algebra case really ran at p1 = p2 = inf
        assert np.isinf(rep["exponents"]["p1"])
        assert np.isinf(rep["exponents"]["p2"])


def test_criterion_4_heat_characterization():
    rep = suites.heat_characterization_suite(
        dim=2, resolutions=(32, 64), seed=4, fields_per_case=5
    )
    assert rep["params"]["family_size"] == 20
    cstar = rep["cstar"]
    drift = next(c["value"] for c in rep["checks"] if c["name"] == "resolution_drift")
    report(
        "4 heat characterization", rep["pass"],
        f"C* = {cstar:.2f} <= 20, drift {drift:.3f} <= 1.2",
    )
    assert rep["pass"] and cstar <= 20.0 and drift <= 1.2


def test_criterion_5_non_inclusion_comb():
    rep = suites.comb_suite(j_values=tuple(range(8, 21)), k_values=(2, 4, 8))
    by_name = {c["name"]: c for c in rep["checks"]}
    report(
        "5 non-inclusion comb", rep["pass"],
        f"sup variation {by_name['weighted_sup_variation']['value']:.3f} < 0.25, "
        f"slope {rep['slope']:.3f} >= {0.5 * rep['asymptotic_coefficient']:.3f}, "
        f"1/k deviation {by_name['kronecker_inverse_k_scaling']['value']:.3f} < 0.30",
    )
    assert rep["pass"]


def test_criterion_6_picard_convergence_and_bounds(thm12_setup):
    rep = thm12_setup["report"]
    config = thm12_setup["config"]
    factors = rep.contraction_factors()
    geometric = (
        len(factors) >= 2
        and all(f < 1.0 for f in factors)
        and all(a >= b for a, b in zip(factors[1:], factors[2:]))
    )
    bounds_ok = all(
        rep.bounds[k]
        for k in ("velocity_le_2mu1", "scalar_le_2mu2", "pair_le_4_initial")
    )
    residual_ok = (
        rep.residuals["velocity_residual_rel"] <= 10 * config.tol
        and rep.residuals["scalar_residual_rel"] <= 10 * config.tol
    )
    ok = (
        rep.certificate.passed
        and rep.converged
        and geometric
        and bounds_ok
        and residual_ok
    )
    report(
        "6 picard convergence and bounds", ok,
        f"iters {rep.final['iterations']}, factors {[round(f, 5) for f in factors]}",
    )
    assert rep.certificate.passed and rep.converged
    assert geometric, factors
    assert bounds_ok, rep.bounds
    assert residual_ok, rep.residuals


def test_criterion_7_oracle_equivalence(thm12_setup, grid32):
    err = oracle_compare(
        thm12_setup["u0"], thm12_setup["th0"], thm12_setup["config"],
        solution=(thm12_setup["u"], thm12_setup["th"]),
    )
    # Duhamel quadrature order: error drops 4x when panels are halved
    from lptorus.solver import _duhamel_stack

    def quad_error(panels):
        times = np.linspace(0.0, 0.5, panels + 1)
        source = np.stack(
            [single_mode(grid32, (1, 0), float(s * s)).spectral for s in times]
        )
        end = Field.from_spectral(grid32, _duhamel_stack(times, source, grid32)[-1])
        t = times[-1]
        exact = t * t - 2.0 * t + 2.0 - 2.0 * np.exp(-t)
        mode = single_mode(grid32, (1, 0))
        return float(np.max(np.abs(end.values - exact * mode.values)))

    e32, e64 = quad_error(32), quad_error(64)
    order_ok = abs(e32 / e64 - 4.0) < 0.2
    ok = err["max"] <= 1e-4 and order_ok
    report(
        "7 oracle equivalence", ok,
        f"rel L2 error {err['max']:.3e} <= 1e-4, halving factor {e32 / e64:.3f}",
    )
    assert err["max"] <= 1e-4
    assert order_ok


def test_criterion_8_weighted_regime(grid32):
    config = SolverConfig(horizon=0.5, steps=64, regime="thm1.4", p=2.0, eps=0.5)
    constants = measure_operator_constants(grid32, config)
    config = SolverConfig(
        horizon=0.5, steps=64, regime="thm1.4", p=2.0, eps=0.5,
        lambda_=constants["lambda"], eta=constants["eta"],
    )
    probe = smallness_certificate(
        taylor_green(grid32, 1.0), single_mode(grid32, (1, 0), 1.0), config
    )
    amp = 0.5 * probe.rhs / probe.lhs
    u0 = taylor_green(grid32, amp)
    th0 = single_mode(grid32, (1, 0), amp)
    _, _, rep = picard_solve(u0, th0, config)
    ok = (
        rep.certificate.passed
        and rep.converged
        and rep.bounds["velocity_le_2mu1"]
        and rep.bounds["scalar_le_2mu2"]
    )
    report(
        "8 weighted-norm regime", ok,
        f"sup-weighted u {rep.bounds['velocity_norm']:.3e} <= 2*mu1 = "
        f"{2 * rep.bounds['mu1']:.3e}; theta {rep.bounds['scalar_norm']:.3e} "
        f"<= 2*mu2 = {2 * rep.bounds['mu2']:.3e}",
    )
    assert ok, rep.bounds


def test_criterion_9_determinism(tmp_path):
    grid = Grid(2, 32)
    from lptorus import write_field

    u_path = tmp_path / "u0.lpfld"
    th_path = tmp_path / "th0.lpfld"
    write_field(u_path, taylor_green(grid, 0.004))
    write_field(th_path, single_mode(grid, (1, 1), 0.003))

    outputs = []
    for tag in ("a", "b"):
        ver = tmp_path / f"verify-{tag}.json"
        sol = tmp_path / f"solve-{tag}.json"
        csv = tmp_path / f"sweep-{tag}.csv"
        assert main(["verify", "lp", "--N", "32", "--trials", "3",
                     "--seed", "11", "--report", str(ver)]) == 0
        assert main(["solve", "--u0", str(u_path), "--theta0", str(th_path),
                     "--T", "0.25", "--M", "8", "--regime", "thm1.2",
                     "--seed", "11", "--report", str(sol)]) == 0
        assert main(["sweep", "--amps-u", "0.002,0.01", "--amps-theta",
                     "0.003", "--N", "32", "--M", "8", "--seed", "11",
                     "--out", str(csv)]) == 0
        outputs.append((ver.read_bytes(), sol.read_bytes(), csv.read_bytes()))
    ok = outputs[0] == outputs[1]
    report("9 determinism", ok, "verify/solve/sweep byte-identical reruns")
    assert ok
