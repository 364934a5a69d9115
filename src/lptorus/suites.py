"""Verification suites: each returns a JSON-ready report with per-check rows.

These are the machine-checkable statements the library stands on, at desk
scale: exactness of the dyadic machinery (roundoff-level tolerances), the
Bony product identity, sampled product-estimate constants that stay put when
the resolution doubles, the heat-trace/Besov norm equivalence with a
recorded equivalence constant, the lacunary-comb non-inclusion asymmetry,
Bernstein ratio sweeps, and the norm-inequality battery.

Every suite takes an explicit seed and is deterministic given it; reports
contain no timestamps, so identical invocations serialize byte-identically.
"""

from __future__ import annotations

import numpy as np

from .besov import (
    BERNSTEIN_RADII,
    INF,
    BesovSpec,
    bernstein_check,
    besov_norm,
    block_lp_norms,
    block_time_lp,
    characterization_ratio,
    chemin_lerner_reduce,
    embedding_report,
    heat_trajectory,
    lebesgue_besov_reduce,
)
from .comb import DiracCombSpec, dirac_comb_norms
from .cutoffs import default_test_radii, partition_defect
from .dyadic import decompose, require_shell, support_report
from .ensembles import embedded_field, random_field, random_spectrum
from .parallel import fork_map
from .paraproduct import (
    BilinearEstimateSpec,
    BonyParts,
    _bony_parts,
    bilinear_constant_estimate,
)
from .spectral import Field, Grid


def _check(name: str, value: float, tolerance: float, larger_ok: bool = False) -> dict:
    ok = value >= tolerance if larger_ok else value < tolerance
    return {
        "name": name,
        "value": float(value),
        "tolerance": float(tolerance),
        "pass": bool(ok),
    }


def _finish(suite: str, params: dict, checks: list) -> dict:
    return {
        "suite": suite,
        "params": params,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def littlewood_paley_suite(
    dim: int = 2, points: int = 64, trials: int = 50, seed: int = 0
) -> dict:
    """Partition of unity, reconstruction and the support identities."""
    grid = require_shell(Grid(dim, points))
    rng = np.random.default_rng(seed)
    checks = [
        _check("partition_of_unity", partition_defect(default_test_radii()), 1e-12),
        _check("partition_on_lattice", partition_defect(np.unique(grid.k_abs)), 1e-12),
    ]
    recon = ortho = para = rem = 0.0
    for _ in range(trials):
        f = random_field(grid, rng)
        g = random_field(grid, rng)
        total = decompose(f).reconstruction()
        err = float(np.max(np.abs(total.values - f.values)))
        recon = max(recon, err / float(np.max(np.abs(f.values))))
        rep = support_report(f, g)["checks"]
        ortho = max(ortho, rep["block_orthogonality"])
        para = max(para, rep["paraproduct_localization"])
        rem = max(rem, rep["remainder_localization"])
    checks += [
        _check("reconstruction", recon, 1e-12),
        _check("block_orthogonality", ortho, 1e-12),
        _check("paraproduct_localization", para, 1e-12),
        _check("remainder_localization", rem, 1e-12),
    ]
    return _finish(
        "littlewood-paley",
        {"dim": dim, "points": points, "trials": trials, "seed": seed},
        checks,
    )


def bony_suite(
    dim: int = 2, points: int = 64, trials: int = 100, seed: int = 0
) -> dict:
    """Decomposition identity uv = T(u,v) + T(v,u) + R(u,v) on random pairs.

    Both draws of every pair are made here in rng order; the pairs then run
    through ``fork_map``, which gives ``workers`` and ``children_maxrss_mb``.
    The draws are band-limited to the cap 3N/16 < N/4, so every block product
    has |k_i| <= 3N/8 < N/2: the parts are summed on the N grid itself, with
    no 3/2 padding, and the product of the grid values is the exact reference.
    """
    grid = require_shell(Grid(dim, points))
    rng = np.random.default_rng(seed)
    draws = [(random_spectrum(grid, rng), random_spectrum(grid, rng)) for _ in range(trials)]

    def trial(draw) -> float:  # the pair's relative identity defect
        u, v = (embedded_field(grid, coeffs, grid) for coeffs in draw)
        parts = BonyParts(*_bony_parts(u, v, ("Tuv", "Tvu", "Ruv"), grid.points))
        uv = Field(grid, u.values * v.values)
        err = float(np.max(np.abs(parts.total().values - uv.values)))
        return err / float(np.max(np.abs(uv.values)))

    defects, workers, child_mb = fork_map(trial, draws)
    checks = [_check("bony_identity", max([0.0, *defects]), 1e-12)]
    report = _finish(
        "bony",
        {"dim": dim, "points": points, "trials": trials, "seed": seed},
        checks,
    )
    report.update(workers=workers, children_maxrss_mb=child_mb)  # lp verify drops them
    return report


DEFAULT_EXPONENTS = {
    "2.4": dict(p1=INF, p2=2.0, r=2.0),
    "2.5": dict(p1=INF, p2=INF),
    "2.6": dict(p1=INF, p2=INF, r=2.0, rho1=2.0, rho2=2.0),
    "2.7": dict(p1=INF, p2=INF, rho1=2.0, rho2=2.0),
}


def bilinear_suite(
    estimate: str,
    dim: int = 2,
    resolutions: tuple[int, ...] = (32, 64),
    trials: int = 100,
    seed: int = 0,
) -> dict:
    """Resolution stability of one sampled product-estimate constant."""
    require_shell(Grid(dim, min(resolutions)))
    spec = BilinearEstimateSpec(estimate, trials=trials, seed=seed, **DEFAULT_EXPONENTS[estimate])
    result = bilinear_constant_estimate(spec, dim=dim, resolutions=tuple(resolutions))
    base = result["stats"][min(result["stats"])]["max"]
    worst = max(result["stats"][n]["max"] for n in result["stats"])
    checks = [
        _check("ratio_resolution_stability", worst, 1.2 * base + 1e-30),
        _check("ratios_sampled", min(
            result["stats"][n]["count"] for n in result["stats"]
        ), 1, larger_ok=True),
    ]
    report = _finish(
        "bilinear",
        {
            "estimate": estimate,
            "dim": dim,
            "resolutions": list(resolutions),
            "trials": trials,
            "seed": seed,
        },
        checks,
    )
    report["lemma"] = estimate
    report["exponents"] = result["exponents"]
    report["stats"] = {str(k): v for k, v in result["stats"].items()}
    report["ratios"] = report["stats"]
    report.update(workers=result["workers"], children_maxrss_mb=result["children_maxrss_mb"])
    return report


def heat_characterization_suite(
    dim: int = 2,
    resolutions: tuple[int, ...] = (32, 64),
    seed: int = 0,
    fields_per_case: int = 5,
) -> dict:
    """Equivalence of the weighted heat-trace norm with the Besov norm.

    Family: s = -1, r = inf, sigma in {0, 1}, p in {2, inf}, sampled fields
    drawn on the coarsest lattice so the same data is measured at every
    resolution.  Records the equivalence constant C* (max of ratio and its
    inverse), which must stay below 20, and the cross-resolution drift.
    Every field is drawn here in rng order; the trials then run through
    ``fork_map``, which gives ``workers`` and ``children_maxrss_mb``.
    """
    resolutions = tuple(sorted(resolutions))
    if len(set(resolutions)) < len(resolutions):
        raise ValueError(f"resolutions must be distinct, got {list(resolutions)}")
    ref = require_shell(Grid(dim, resolutions[0]))
    grids = [Grid(dim, n) for n in resolutions]
    rng = np.random.default_rng(seed)
    cases = [(sigma, p) for sigma in (0.0, 1.0) for p in (2.0, INF)]
    # one draw per trial, embedded in every grid
    draws = [(case, random_spectrum(ref, rng)) for case in cases for _ in range(fields_per_case)]

    def trial(draw) -> list[float]:  # its ratio at each resolution
        (sigma, p), coeffs = draw
        return [characterization_ratio(embedded_field(g, coeffs, ref), sigma, p) for g in grids]

    per_trial, workers, child_mb = fork_map(trial, draws)
    ratios = []
    cstar = 0.0
    drift = 0.0
    for ((sigma, p), _), per_res in zip(draws, per_trial):
        cstar = max(cstar, *per_res, *(1.0 / r for r in per_res))
        base = per_res[0]
        for r in per_res[1:]:
            drift = max(drift, r / base, base / r)
        ratios.append(
            {"sigma": sigma, "p": "inf" if p == INF else p, "ratios": per_res}
        )
    checks = [
        _check("equivalence_constant", cstar, 20.0),
        _check("resolution_drift", drift, 1.2),
    ]
    report = _finish(
        "heat-characterization",
        {
            "dim": dim,
            "resolutions": list(resolutions),
            "seed": seed,
            "family_size": len(cases) * fields_per_case,
        },
        checks,
    )
    report["cstar"] = cstar
    report["ratios"] = ratios
    report.update(workers=workers, children_maxrss_mb=child_mb)  # lp verify drops them
    return report


# truncations J of the harmonic combs and frequencies k of the Kronecker combs
COMB_J_VALUES = tuple(range(8, 21))
COMB_K_VALUES = (2, 4, 8)


def comb_suite(seed: int = 0) -> dict:
    """Non-inclusion asymmetry of the lacunary comb norms.

    With a_j = 1/(j+3) the log-weighted sup norm must stay within 25% over
    the truncation range while the summed norm grows with a fitted ln J
    slope at least half the empirical comparability coefficient; the
    one-coefficient comb must scale like 1/k within 30%.
    """
    norms = [dirac_comb_norms(DiracCombSpec.harmonic(J)) for J in COMB_J_VALUES] + [
        dirac_comb_norms(DiracCombSpec.kronecker(k)) for k in COMB_K_VALUES
    ]
    b01 = [partial for partial, _ in norms[: len(COMB_J_VALUES)]]
    blog = [weighted for _, weighted in norms[: len(COMB_J_VALUES)]]
    blog_arr = np.asarray(blog)
    variation = float((blog_arr.max() - blog_arr.min()) / blog_arr.min())
    lnj = np.log(np.asarray(COMB_J_VALUES, dtype=float))
    slope = float(np.polyfit(lnj, np.asarray(b01), 1)[0])
    partial_sums = [
        float(np.sum([1.0 / (j + 3.0) for j in range(-1, J + 1)])) for J in COMB_J_VALUES
    ]
    coeff = b01[-1] / partial_sums[-1]
    increasing = bool(np.all(np.diff(b01) > 0))

    kron = [
        {"k": k, "b01_partial": partial, "b0log_inf": weighted}
        for k, (partial, weighted) in zip(COMB_K_VALUES, norms[len(COMB_J_VALUES) :])
    ]
    scaled = np.asarray([entry["k"] * entry["b01_partial"] for entry in kron])
    mid = float(np.mean(scaled))
    kron_dev = float(np.max(np.abs(scaled - mid)) / mid)

    checks = [
        _check("weighted_sup_variation", variation, 0.25),
        _check("summed_norm_increasing", float(increasing), 0.5, larger_ok=True),
        _check("summed_norm_log_slope", slope, 0.5 * coeff, larger_ok=True),
        _check("kronecker_inverse_k_scaling", kron_dev, 0.30),
    ]
    report = _finish(
        "dirac-comb",
        {"J_values": list(COMB_J_VALUES), "k_values": list(COMB_K_VALUES), "seed": seed},
        checks,
    )
    report["b01_partial"] = b01
    report["b0log_inf"] = blog
    report["slope"] = slope
    report["asymptotic_coefficient"] = coeff
    report["kronecker"] = kron
    return report


def bernstein_suite(
    dim: int = 2, points: int = 64, trials: int = 10, seed: int = 0
) -> dict:
    """Derivative/exponent conversion ratios across the dyadic frequency
    scales 2, 4 and 8.

    Ball case (a, b) = (2, inf), order 0: the ratio must stay bounded and
    not trend upward with the scale.  Shell case a = b = 2, order 1: the
    ratio is pinned inside the shell radii.
    """
    grid = Grid(dim, points)
    rng = np.random.default_rng(seed)
    scales = (2.0, 4.0, 8.0)
    r1, r2 = BERNSTEIN_RADII
    if all(r2 * lam > grid.nyquist for lam in scales):
        raise ValueError(f"no scale's shell fits under the Nyquist of N = {points}")
    ball_stats = []
    for lam in scales:
        worst = 0.0
        for _ in range(trials):
            coeffs = random_spectrum(grid, rng, band=r1 * lam, slope=0.0)
            f = Field.from_spectral(grid, coeffs)
            rep = bernstein_check(f, 2.0, INF, 0, lam, support="ball")
            worst = max(worst, rep["ratio"])
        ball_stats.append({"scale": lam, "max_ratio": worst})
    ball_ratios = np.asarray([s["max_ratio"] for s in ball_stats])
    growth = float(
        np.polyfit(np.log(np.asarray(scales)), np.log(ball_ratios), 1)[0]
    )

    shell_lo, shell_hi = np.inf, 0.0
    for lam in scales:
        if r2 * lam > grid.nyquist:
            continue
        for _ in range(trials):
            coeffs = random_spectrum(grid, rng, band=r2 * lam, slope=0.0)
            mask = grid.k_abs < r1 * lam
            coeffs[..., mask] = 0.0
            f = Field.from_spectral(grid, coeffs)
            rep = bernstein_check(f, 2.0, 2.0, 1, lam, support="shell")
            shell_lo = min(shell_lo, rep["ratio"])
            shell_hi = max(shell_hi, rep["ratio"])

    checks = [
        _check("ball_ratio_scale_growth", growth, 0.2),
        _check("shell_ratio_lower", shell_lo, r1 * 0.999, larger_ok=True),
        _check("shell_ratio_upper", shell_hi, r2 * 1.001),
    ]
    report = _finish(
        "bernstein",
        {
            "dim": dim,
            "points": points,
            "scales": list(scales),
            "trials": trials,
            "seed": seed,
        },
        checks,
    )
    report["ball"] = ball_stats
    report["shell"] = {"min_ratio": shell_lo, "max_ratio": shell_hi}
    return report


def besov_suite(
    dim: int = 2, points: int = 32, trials: int = 25, seed: int = 0
) -> dict:
    """Norm-inequality battery: monotonicities, Minkowski relations, embeddings."""
    grid = require_shell(Grid(dim, points))
    rng = np.random.default_rng(seed)
    fields = [random_field(grid, rng) for _ in range(trials)]

    r_mono = a_mono = 0.0
    triangle = homogeneity = 0.0
    for i, f in enumerate(fields):
        blocks = block_lp_norms(f, 2.0)
        n1 = BesovSpec(0, 2.0, 1.0).reduce(blocks)
        n2 = BesovSpec(0, 2.0, 2.0).reduce(blocks)
        ninf = BesovSpec(0, 2.0, INF).reduce(blocks)
        r_mono = max(r_mono, n2 / n1 if n1 else 0.0, ninf / n2 if n2 else 0.0)
        alpha_lo = BesovSpec(-1, 2.0, INF, 0.5).reduce(blocks)
        alpha_hi = BesovSpec(-1, 2.0, INF, 1.0).reduce(blocks)
        a_mono = max(a_mono, alpha_lo / alpha_hi if alpha_hi else 0.0)
        g = fields[(i + 1) % len(fields)]
        spec = BesovSpec(0, INF, 1.0)
        nf = besov_norm(f, spec)
        triangle = max(triangle, besov_norm(f + g, spec) / (nf + besov_norm(g, spec)))
        homogeneity = max(
            homogeneity, abs(besov_norm(2.5 * f, spec) - 2.5 * nf) / (2.5 * nf)
        )

    times = np.linspace(0.0, 1.0, 17)
    minkowski = 0.0
    equality = 0.0
    for f in fields[:8]:
        # every norm below is at p = 2: one block table per trajectory
        table = block_time_lp(heat_trajectory(f, times), 2.0)
        for r, rho in ((1.0, 2.0), (INF, 2.0)):
            spec = BesovSpec(0, 2.0, r)
            tilde = chemin_lerner_reduce(table, times, rho, spec)
            plain = lebesgue_besov_reduce(table, times, rho, spec)
            # r >= rho: tilde <= plain; r <= rho: plain <= tilde
            ratio = tilde / plain if r >= rho else plain / tilde
            minkowski = max(minkowski, ratio)
        spec = BesovSpec(0, 2.0, 2.0)
        tilde = chemin_lerner_reduce(table, times, 2.0, spec)
        plain = lebesgue_besov_reduce(table, times, 2.0, spec)
        equality = max(equality, abs(tilde - plain) / plain)

    emb = embedding_report(fields)

    checks = [
        _check("r_monotonicity", r_mono, 1.0 + 1e-12),
        _check("alpha_monotonicity", a_mono, 1.0 + 1e-12),
        _check("triangle_inequality", triangle, 1.0 + 1e-10),
        _check("absolute_homogeneity", homogeneity, 1e-10),
        _check("minkowski_order", minkowski, 1.0 + 1e-10),
        _check("minkowski_equality_r_eq_rho", equality, 1e-10),
        _check("sup_below_summed_norm", emb["sup_vs_strong"], 1.0 + 1e-10),
    ]
    report = _finish(
        "besov",
        {"dim": dim, "points": points, "trials": trials, "seed": seed},
        checks,
    )
    report["embedding_constants"] = emb
    return report
