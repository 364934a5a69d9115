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
from .cutoffs import build_cutoffs, default_test_radii, partition_defect
from .dyadic import decompose, require_shell, support_report
from .ensembles import embedded_field, random_field, random_spectrum
from .paraproduct import (
    BilinearEstimateSpec,
    bilinear_constant_estimate,
    bony_decompose,
)
from .spectral import Field, Grid, dealiased_product


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
    cut = build_cutoffs()
    rng = np.random.default_rng(seed)
    checks = [
        _check("partition_of_unity", partition_defect(default_test_radii(), cut), 1e-12),
        _check("partition_on_lattice", partition_defect(np.unique(grid.k_abs), cut), 1e-12),
    ]
    recon = ortho = para = rem = 0.0
    for _ in range(trials):
        f = random_field(grid, rng)
        g = random_field(grid, rng)
        total = decompose(f, cut).reconstruction()
        err = float(np.max(np.abs(total.values - f.values)))
        recon = max(recon, err / float(np.max(np.abs(f.values))))
        rep = support_report(f, g, cut)["checks"]
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
    """Decomposition identity uv = T(u,v) + T(v,u) + R(u,v) on random pairs."""
    grid = require_shell(Grid(dim, points))
    cut = build_cutoffs()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        u = random_field(grid, rng)
        v = random_field(grid, rng)
        parts = bony_decompose(u, v, cut)
        uv = dealiased_product(u, v)
        err = float(np.max(np.abs(parts.total().values - uv.values)))
        worst = max(worst, err / float(np.max(np.abs(uv.values))))
    checks = [_check("bony_identity", worst, 1e-12)]
    return _finish(
        "bony",
        {"dim": dim, "points": points, "trials": trials, "seed": seed},
        checks,
    )


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
    exponents: dict | None = None,
) -> dict:
    """Resolution stability of one sampled product-estimate constant."""
    require_shell(Grid(dim, min(resolutions)))
    kwargs = dict(DEFAULT_EXPONENTS[estimate])
    if exponents:
        kwargs.update(exponents)
    spec = BilinearEstimateSpec(estimate, trials=trials, seed=seed, **kwargs)
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
    report["workers"] = result["workers"]  # for the manifest: lp verify drops it
    return report


def heat_characterization_suite(
    dim: int = 2,
    resolutions: tuple[int, ...] = (32, 64),
    seed: int = 0,
    fields_per_case: int = 5,
    cstar_limit: float = 20.0,
) -> dict:
    """Equivalence of the weighted heat-trace norm with the Besov norm.

    Family: s = -1, r = inf, sigma in {0, 1}, p in {2, inf}, sampled fields
    drawn on the coarsest lattice so the same data is measured at every
    resolution.  Records the equivalence constant C* (max of ratio and its
    inverse) and the cross-resolution drift.
    """
    resolutions = tuple(sorted(resolutions))
    ref = require_shell(Grid(dim, resolutions[0]))
    grids = [Grid(dim, n) for n in resolutions]
    rng = np.random.default_rng(seed)
    cases = [(sigma, p) for sigma in (0.0, 1.0) for p in (2.0, INF)]
    ratios = []
    cstar = 0.0
    drift = 0.0
    for sigma, p in cases:
        for _ in range(fields_per_case):
            coeffs = random_spectrum(ref, rng)  # one draw, embedded in every grid
            fields = (embedded_field(g, coeffs, ref) for g in grids)
            per_res = [characterization_ratio(f, sigma, p) for f in fields]
            cstar = max(cstar, *per_res, *(1.0 / r for r in per_res))
            base = per_res[0]
            for r in per_res[1:]:
                drift = max(drift, r / base, base / r)
            ratios.append(
                {"sigma": sigma, "p": "inf" if p == INF else p, "ratios": per_res}
            )
    checks = [
        _check("equivalence_constant", cstar, cstar_limit),
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
    return report


def comb_suite(
    j_values: tuple[int, ...] = tuple(range(8, 21)),
    k_values: tuple[int, ...] = (2, 4, 8),
    seed: int = 0,
) -> dict:
    """Non-inclusion asymmetry of the lacunary comb norms.

    With a_j = 1/(j+3) the log-weighted sup norm must stay within 25% over
    the truncation range while the summed norm grows with a fitted ln J
    slope at least half the empirical comparability coefficient; the
    one-coefficient comb must scale like 1/k within 30%.
    """
    j_values = tuple(sorted(j_values))
    b01, blog = [], []
    for J in j_values:
        partial, weighted = dirac_comb_norms(DiracCombSpec.harmonic(J))
        b01.append(partial)
        blog.append(weighted)
    blog_arr = np.asarray(blog)
    variation = float((blog_arr.max() - blog_arr.min()) / blog_arr.min())
    lnj = np.log(np.asarray(j_values, dtype=float))
    slope = float(np.polyfit(lnj, np.asarray(b01), 1)[0])
    partial_sums = [
        float(np.sum([1.0 / (j + 3.0) for j in range(-1, J + 1)])) for J in j_values
    ]
    coeff = b01[-1] / partial_sums[-1]
    increasing = bool(np.all(np.diff(b01) > 0))

    kron = []
    for k in k_values:
        partial, weighted = dirac_comb_norms(DiracCombSpec.kronecker(k))
        kron.append({"k": k, "b01_partial": partial, "b0log_inf": weighted})
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
        {"J_values": list(j_values), "k_values": list(k_values), "seed": seed},
        checks,
    )
    report["b01_partial"] = b01
    report["b0log_inf"] = blog
    report["slope"] = slope
    report["asymptotic_coefficient"] = coeff
    report["kronecker"] = kron
    return report


def bernstein_suite(
    dim: int = 2,
    points: int = 64,
    scales: tuple[float, ...] = (2.0, 4.0, 8.0),
    trials: int = 10,
    seed: int = 0,
) -> dict:
    """Derivative/exponent conversion ratios across dyadic frequency scales.

    Ball case (a, b) = (2, inf), order 0: the ratio must stay bounded and
    not trend upward with the scale.  Shell case a = b = 2, order 1: the
    ratio is pinned inside the shell radii.
    """
    grid = Grid(dim, points)
    rng = np.random.default_rng(seed)
    r1, r2 = 0.75, 8.0 / 3.0
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
    cut = build_cutoffs()
    rng = np.random.default_rng(seed)
    fields = [random_field(grid, rng) for _ in range(trials)]

    r_mono = a_mono = 0.0
    triangle = homogeneity = 0.0
    for i, f in enumerate(fields):
        blocks = block_lp_norms(f, 2.0, cut)
        n1 = BesovSpec(0, 2.0, 1.0).reduce(blocks)
        n2 = BesovSpec(0, 2.0, 2.0).reduce(blocks)
        ninf = BesovSpec(0, 2.0, INF).reduce(blocks)
        r_mono = max(r_mono, n2 / n1 if n1 else 0.0, ninf / n2 if n2 else 0.0)
        alpha_lo = BesovSpec(-1, 2.0, INF, 0.5).reduce(blocks)
        alpha_hi = BesovSpec(-1, 2.0, INF, 1.0).reduce(blocks)
        a_mono = max(a_mono, alpha_lo / alpha_hi if alpha_hi else 0.0)
        g = fields[(i + 1) % len(fields)]
        spec = BesovSpec(0, INF, 1.0)
        nf = besov_norm(f, spec, cut)
        triangle = max(
            triangle, besov_norm(f + g, spec, cut) / (nf + besov_norm(g, spec, cut))
        )
        homogeneity = max(
            homogeneity, abs(besov_norm(2.5 * f, spec, cut) - 2.5 * nf) / (2.5 * nf)
        )

    times = np.linspace(0.0, 1.0, 17)
    minkowski = 0.0
    equality = 0.0
    for f in fields[:8]:
        # every norm below is at p = 2: one block table per trajectory
        table = block_time_lp(heat_trajectory(f, times), 2.0, cut)
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

    emb = embedding_report(fields, cutoffs=cut)

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
