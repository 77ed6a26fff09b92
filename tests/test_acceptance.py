"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s or check the
captured output).  Heavier scan reports are shared through module-scoped
fixtures so the suite stays inside its runtime budgets.
"""

import math
import time

import numpy as np
import pytest

import densilab as dl
from densilab import experiments as exp
from densilab.assembly import ModeProblem, assemble

from oracles import dense_m


M_FULL = (1.0, 10.0, 100.0, 1e3, 1e4)
ALPHAS_1D = (0.3, 0.5, 0.7)


def _report(num, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} ({time.perf_counter() - t0:.1f}s) - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def one_d_report():
    return exp.exp_one_d_construction(m_values=M_FULL, alpha_values=ALPHAS_1D,
                                      grid_n=2048)


def test_c01_closed_form_interval_spectrum():
    t0 = time.perf_counter()
    iv = dl.Interval(-1.0, 1.0)
    grid = dl.RadialGrid.uniform(iv, 2048)
    res = dl.full_spectrum(iv, dl.Constant(1.0), 0.37, 10, grid=grid)
    exact = np.array([(k * math.pi / 2.0) ** 2 for k in range(11)])
    rel = np.max(np.abs(res.lambdas[1:] - exact[1:]) / exact[1:])
    zero_ok = abs(res.lambdas[0]) <= 1e-9 * res.lambdas[1]
    # the constant-density pencil does not depend on alpha at all
    pencils = [assemble(ModeProblem(domain=iv, rho=dl.Constant(1.0), alpha=a,
                                    grid=grid, j=0)) for a in (0.0, 0.37, 1.0)]
    same = all(np.array_equal(p.k_diag, pencils[0].k_diag) for p in pencils)
    elapsed = time.perf_counter() - t0
    _report(1, rel <= 1e-4 and zero_ok and same and elapsed < 5.0,
            f"max rel err {rel:.2e} (tol 1e-4), alpha-independent, {elapsed:.1f}s < 5s", t0)


def test_c02_one_d_construction_lower_bound(one_d_report):
    t0 = time.perf_counter()
    rows = one_d_report.rows
    assert len(rows) == len(M_FULL) * len(ALPHAS_1D)
    worst = min(r["lambda1_extrapolated"] / r["m"] for r in rows)
    elapsed = one_d_report.metadata["elapsed_seconds"]
    _report(2, one_d_report.passed and worst >= 0.99 and elapsed < 120.0,
            f"min lambda1/m = {worst:.4f} >= 0.99 over {len(rows)} rows, "
            f"{elapsed:.0f}s < 120s", t0)


def test_c03_normalized_rate(one_d_report):
    t0 = time.perf_counter()
    iv = dl.Interval(-1.0, 1.0)
    ok = True
    detail = []
    for a in ALPHAS_1D:
        sub = [r for r in one_d_report.rows if r["alpha"] == a]
        factors = [math.sqrt(r["m"]) * (r["mass"] / 2.0) ** (1.0 - a) for r in sub]
        floor = 0.95 * min(factors)
        for r in sub:
            if r["m"] >= 100.0:
                ok &= r["lambda1_normalized"] >= floor * math.sqrt(r["m"])
        margin = min(r["lambda1_normalized"] / (floor * math.sqrt(r["m"]))
                     for r in sub if r["m"] >= 100.0)
        detail.append(f"alpha={a}: margin {margin:.1f}x")
    _report(3, ok, "normalized lambda1 >= 0.95 sqrt(m) * inf(mass factor); "
            + ", ".join(detail), t0)


def test_c04_blowup_slopes():
    t0 = time.perf_counter()
    disk = dl.RevolutionManifold.ball(2, 1.0)
    rep2 = exp.exp_blowup_scan(disk, (0.5, 0.75), grid_n=2048)
    ball = dl.RevolutionManifold.ball(3, 1.0)
    rep3 = exp.exp_blowup_scan(ball, (2.0 / 3.0,), grid_n=2048)
    slopes = {a: rep2.fits[str(a)]["slope"] for a in (0.5, 0.75)}
    slopes["2/3 (n=3)"] = rep3.fits[str(2.0 / 3.0)]["slope"]
    floors = {0.5: 0.4, 0.75: 0.65, "2/3 (n=3)": 0.4}
    ok = rep2.passed and rep3.passed and all(
        slopes[k] >= floors[k] for k in slopes)
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"slope[{k}]={v:.3f}>={floors[k]}" for k, v in slopes.items())
    _report(4, ok and elapsed < 600.0, f"{detail}; {elapsed:.0f}s < 600s", t0)


def test_c05_boundedness_contrast():
    t0 = time.perf_counter()
    ball = dl.RevolutionManifold.ball(3, 1.0)
    rep = exp.exp_bounded_scan(ball, (0.2,), companion_alpha=0.5, grid_n=1024)
    plateau = rep.fits["0.2"]
    comp = rep.fits["companion"]
    ok = plateau["passed"] and comp["growth"] >= 3.0
    _report(5, ok, f"plateau change {plateau['plateau_change']:.3%} < 5%, "
            f"companion growth {comp['growth']:.2f}x >= 3x", t0)


def test_c06_scaling_identity():
    t0 = time.perf_counter()
    iv = dl.Interval(-1.0, 1.0)
    families = {
        "constant": dl.Constant(2.0),
        "gaussian": dl.GaussianRadial(10.0),
        "cauchy_power": dl.CauchyPower(10.0, 0.5),
        "tabulated": dl.Tabulated(np.linspace(-1, 1, 129),
                                  1.0 + np.cos(np.linspace(-1, 1, 129))),
    }
    worst = 0.0
    for rho in families.values():
        for a in (0.0, 0.5, 1.0):
            rep = exp.exp_scaling_identity(iv, rho, a,
                                           c_values=(1e-3, 1.0, 1e3), grid_n=256)
            worst = max(worst, max(r["rel_err"] for r in rep.rows))
            assert rep.passed
    elapsed = time.perf_counter() - t0
    _report(6, worst <= 1e-12 and elapsed < 10.0,
            f"max rel err {worst:.2e} <= 1e-12 over "
            f"{len(families)} families x 3 alphas x 3 scales; {elapsed:.1f}s < 10s", t0)


def test_c07_conformal_identity():
    t0 = time.perf_counter()
    details = []
    ok = True
    for n in (2, 3):
        dom = dl.RevolutionManifold.ball(n, 1.0)
        rho = dl.normalize(dl.GaussianRadial(1.0), dom)
        rep = exp.exp_conformal_identity(dom, rho, k_max=5, grid_n=2048)
        s = rep.fits["summary"]
        ok &= s["passed"] and s["max_rel_diff"] <= 1e-3
        ok &= s["max_rel_diff"] <= s["max_rel_diff_coarse"]
        details.append(f"n={n}: {s['max_rel_diff']:.1e} (coarse {s['max_rel_diff_coarse']:.1e})")
    _report(7, ok, "two-pipeline rel diff <= 1e-3, decreasing under refinement; "
            + ", ".join(details), t0)


def test_c08_gaussian_integral_lemma():
    t0 = time.perf_counter()
    rep = exp.exp_gaussian_integral_lemma(dims=(1, 2, 3),
                                          m_values=(10.0, 100.0, 1e3),
                                          grid_n=2048)
    strict = all(r["integral"] > r["lower_bound"] for r in rep.rows)
    elapsed = time.perf_counter() - t0
    margin = min(r["integral"] / r["lower_bound"] for r in rep.rows)
    _report(8, rep.passed and strict and elapsed < 1.0,
            f"strict bound holds, min margin {margin:.2f}x; {elapsed:.2f}s < 1s", t0)


def test_c09_measure_lemma_randomized():
    t0 = time.perf_counter()
    from itertools import combinations
    rng = np.random.default_rng(20240817)
    failures = 0
    for i in range(10_000):
        k = 1 + i % 10
        triple = dl.MeasureTriple.random(k, rng)
        sel = dl.select_small_sets(triple, k)
        if not dl.brute_force_verify(triple, k, sel):
            failures += 1
    # exhaustive cross-check for K <= 9 (k <= 2)
    exhaustive_ok = True
    for i in range(200):
        k = 1 + i % 2
        triple = dl.MeasureTriple.random(k, rng)
        sel = dl.select_small_sets(triple, k)
        exhaustive_ok &= dl.brute_force_verify(triple, k, sel)
        exists = any(dl.brute_force_verify(triple, k, list(sub))
                     for sub in combinations(range(triple.k_sets), k + 1))
        exhaustive_ok &= exists
    elapsed = time.perf_counter() - t0
    _report(9, failures == 0 and exhaustive_ok and elapsed < 30.0,
            f"10^4 randomized instances verified, exhaustive K<=9 cross-check; "
            f"{elapsed:.1f}s < 30s", t0)


def test_c10_minmax_and_eigen_hygiene():
    t0 = time.perf_counter()
    problems = [
        (dl.Interval(-1.0, 1.0), dl.Constant(1.0), 0.5, 0),
        (dl.Interval(-1.0, 1.0), dl.GaussianRadial(1e3), 0.3, 0),
        (dl.RevolutionManifold.ball(2, 1.0), dl.GaussianRadial(5.0), 0.5, 1),
        (dl.RevolutionManifold.ball(3, 1.0), dl.GaussianRadial(2.0), 0.2, 2),
        (dl.RevolutionManifold.spherical_cap(2, math.pi / 2), dl.Constant(1.0), 0.0, 0),
    ]
    hygiene_ok = True
    for domain, rho, a, j in problems:
        grid = dl.RadialGrid.for_density(domain, 1024, m=getattr(rho, "m", None))
        pencil = assemble(ModeProblem(domain=domain, rho=rho, alpha=a,
                                      grid=grid, j=j))
        pairs = dl.solve_generalized(pencil, 4)
        hygiene_ok &= bool(np.all(np.diff(pairs.values) >= -1e-12 * abs(pairs.values[-1])))
        hygiene_ok &= bool(np.all(pairs.residual_norms <= 1e-8))
        m = dense_m(pencil)
        gram = pairs.vectors.T @ m @ pairs.vectors
        hygiene_ok &= bool(np.max(np.abs(gram - np.eye(5))) <= 1e-8)
        if j == 0:
            hygiene_ok &= bool(abs(pairs.values[0]) <= 1e-9 * max(pairs.values[1], 1e-300))

    # min-max bounds for plateau families on the interval and the disk
    iv = dl.Interval(-1.0, 1.0)
    grid = dl.RadialGrid.uniform(iv, 1024)
    caps = [dl.build_plateau_function(iv, 0.0, 0.25, center=-1.0),
            dl.build_plateau_function(iv, 0.0, 0.25, center=1.0)]
    rho = dl.GaussianRadial(2.0)
    bound = dl.minmax_bound(iv, rho, 0.5, caps, grid)
    lam1 = dl.full_spectrum(iv, rho, 0.5, 1, grid=grid).lambdas[1]
    minmax_ok = lam1 <= bound + 1e-8 + 10.0 / 1024 ** 2

    disk = dl.RevolutionManifold.ball(2, 1.0)
    gridd = dl.RadialGrid.uniform(disk, 1024)
    fns = [dl.build_plateau_function(disk, 0.0, 1.0 / 32.0),
           dl.build_plateau_function(disk, 1.0 / 8.0, 1.0 / 8.0),
           dl.build_plateau_function(disk, 0.5, 0.5)]
    boundd = dl.minmax_bound(disk, rho, 0.5, fns, gridd)
    lam2 = dl.full_spectrum(disk, rho, 0.5, 2, grid=gridd).lambdas[2]
    minmax_ok &= lam2 <= boundd + 1e-8 + 10.0 / 1024 ** 2

    # Hoelder chain: equality for rho == 1, positive slack for a gaussian
    ball = dl.RevolutionManifold.ball(3, 1.0)
    gridb = dl.RadialGrid.uniform(ball, 512)
    u = dl.build_plateau_function(ball, 0.0, 0.25)
    flat = dl.holder_chain_check(ball, dl.Constant(1.0), 0.2, u, gridb)
    holder_ok = (abs(flat.first_slack) <= 1e-10 * flat.energy
                 and abs(flat.second_slack) <= 1e-10 * flat.energy)
    gau = dl.holder_chain_check(ball, dl.GaussianRadial(10.0), 0.2, u, gridb)
    holder_ok &= gau.first_slack >= 0.0 and gau.second_slack >= 0.0 and gau.holds

    _report(10, hygiene_ok and minmax_ok and holder_ok,
            f"hygiene on {len(problems)} solves, min-max bounds "
            f"(interval {lam1:.3f} <= {bound:.3f}; disk {lam2:.3f} <= {boundd:.3f}), "
            "Hoelder equality/slack", t0)
