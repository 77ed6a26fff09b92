import math
import re

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

import densilab as dl
from densilab.assembly import ModeProblem, TridiagonalPencil, assemble
from densilab.eigensolver import (EigenSolveError, IndefiniteMassError, count_below,
                                  solve_generalized)
from densilab.spectrum import full_spectrum

from oracles import dense_pencil_eigenvalues


def _pencil(kd, ke, md, me):
    return TridiagonalPencil(np.asarray(kd, float), np.asarray(ke, float),
                             np.asarray(md, float), np.asarray(me, float))


def test_identity_pencil():
    n = 12
    p = _pencil(np.ones(n), np.zeros(n - 1), np.ones(n), np.zeros(n - 1))
    pairs = solve_generalized(p, 3)
    assert np.allclose(pairs.values, 1.0, rtol=1e-12)
    assert np.all(pairs.residual_norms < 1e-12)


def test_size_and_kmax_validation():
    n = 12
    p = _pencil(np.ones(n), np.zeros(n - 1), np.ones(n), np.zeros(n - 1))
    with pytest.raises(ValueError, match="pairs"):
        solve_generalized(p, 12)
    with pytest.raises(ValueError, match="pairs"):
        solve_generalized(p, -1)
    big = 5000
    pb = _pencil(np.ones(big), np.zeros(big - 1), np.ones(big), np.zeros(big - 1))
    pairs = solve_generalized(pb, 1)
    assert np.allclose(pairs.values, 1.0, rtol=1e-12)
    assert np.all(pairs.residual_norms < 1e-12)


def test_cholesky_rejects_indefinite():
    n = 3
    with pytest.raises(IndefiniteMassError):
        solve_generalized(_pencil(np.ones(n), np.zeros(n - 1),
                                  np.array([1.0, -1.0, 1.0]), np.zeros(n - 1)), 0)
    # positive diagonal, indefinite matrix: caught by the mass factorization
    with pytest.raises(IndefiniteMassError):
        solve_generalized(_pencil(np.ones(n), np.zeros(n - 1),
                                  np.ones(n), 2.0 * np.ones(n - 1)), 0)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_all_pairs_of_a_pencil(n):
    # k_max + 1 == size is out of the Lanczos solver's reach
    p = _random_spd_pencil(np.random.default_rng(n), n)
    pairs = solve_generalized(p, n - 1)
    ref = sla.eigh(p.dense_k(), p.dense_m(), eigvals_only=True)
    assert np.allclose(pairs.values, ref, rtol=1e-9, atol=1e-12 * ref[-1])
    gram = pairs.vectors.T @ p.dense_m() @ pairs.vectors
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-8
    assert np.all(pairs.residual_norms <= 1e-8)


def test_full_spectrum_asks_for_every_pair():
    iv = dl.Interval(-1.0, 1.0)
    grid = dl.RadialGrid.uniform(iv, 8)
    lams = full_spectrum(iv, dl.Constant(1.0), 0.5, 8, grid=grid).lambdas
    p = assemble(ModeProblem(domain=iv, rho=dl.Constant(1.0), alpha=0.5, grid=grid, j=0))
    ref = sla.eigh(p.dense_k(), p.dense_m(), eigvals_only=True)
    assert np.allclose(lams, ref, rtol=1e-9, atol=1e-12 * ref[-1])


def test_interval_closed_form_spectrum():
    iv = dl.Interval(-1.0, 1.0)
    grid = dl.RadialGrid.uniform(iv, 2048)
    p = assemble(ModeProblem(domain=iv, rho=dl.Constant(1.0), alpha=0.3,
                             grid=grid, j=0))
    pairs = solve_generalized(p, 10)
    exact = np.array([(k * math.pi / 2.0) ** 2 for k in range(11)])
    assert abs(pairs.values[0]) < 1e-9 * pairs.values[1]
    assert np.max(np.abs(pairs.values[1:] - exact[1:]) / exact[1:]) < 1e-4


def test_rational_bump_reaches_its_design_bound():
    # lambda_1(rho_m, rho_m^a) >= m for the rational bump family
    iv = dl.Interval(-1.0, 1.0)
    grid = dl.RadialGrid.uniform(iv, 2048)
    p = assemble(ModeProblem(domain=iv, rho=dl.CauchyPower(100.0, 0.5),
                             alpha=0.5, grid=grid, j=0))
    lam1 = solve_generalized(p, 1).values[1]
    assert lam1 >= 100.0 * 0.99


def _random_spd_pencil(rng, n):
    # stiffness: weighted graph Laplacian plus small diagonal; mass: consistent-type
    wk = rng.uniform(0.5, 2.0, size=n - 1)
    kd = np.zeros(n)
    kd[:-1] += wk
    kd[1:] += wk
    kd += rng.uniform(0.0, 0.1, size=n)
    ke = -wk
    wm = rng.uniform(0.5, 2.0, size=n - 1)
    md = np.zeros(n)
    md[:-1] += wm / 3.0
    md[1:] += wm / 3.0
    me = wm / 6.0
    return _pencil(kd, ke, md, me)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=10, max_value=60), st.integers(min_value=0, max_value=2 ** 31))
def test_matches_dense_reference(n, seed):
    rng = np.random.default_rng(seed)
    p = _random_spd_pencil(rng, n)
    k_max = min(5, n - 1)
    pairs = solve_generalized(p, k_max)
    ref = sla.eigh(p.dense_k(), p.dense_m(), eigvals_only=True)
    scale = max(abs(ref[k_max]), 1e-12)
    assert np.all(np.diff(pairs.values) >= -1e-12 * scale)
    assert np.allclose(pairs.values, ref[:k_max + 1], rtol=1e-9, atol=1e-11 * scale)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=12, max_value=50), st.integers(min_value=0, max_value=2 ** 31))
def test_solver_hygiene_invariants(n, seed):
    rng = np.random.default_rng(seed)
    p = _random_spd_pencil(rng, n)
    pairs = solve_generalized(p, 4)
    v = pairs.vectors
    m = p.dense_m()
    k = p.dense_k()
    gram = v.T @ m @ v
    assert np.max(np.abs(gram - np.eye(5))) <= 1e-8
    assert np.all(pairs.residual_norms <= 1e-8)
    # Rayleigh consistency
    for i in range(5):
        lam = pairs.values[i]
        quot = (v[:, i] @ k @ v[:, i]) / (v[:, i] @ m @ v[:, i])
        assert quot == pytest.approx(lam, rel=1e-10, abs=1e-12 * max(1.0, abs(lam)))


def test_monotone_under_nested_refinement():
    # conforming elements: eigenvalues do not increase under refinement
    iv = dl.Interval(-1.0, 1.0)
    rho = dl.GaussianRadial(4.0)
    prev = None
    for n_el in (256, 512, 1024):
        grid = dl.RadialGrid.uniform(iv, n_el)
        p = assemble(ModeProblem(domain=iv, rho=rho, alpha=0.5, grid=grid, j=0))
        vals = solve_generalized(p, 4).values
        if prev is not None:
            assert np.all(prev >= vals - 1e-9)
        prev = vals


def test_extreme_dynamic_range_gaussian():
    # exp(-m r^2) with m = 1e4 spans ~300 decades after the floor; the
    # solver must still deliver the physical lambda_1 ~ 2.5 m
    iv = dl.Interval(-1.0, 1.0)
    grid = dl.RadialGrid.graded(iv, 1024)
    p = assemble(ModeProblem(domain=iv, rho=dl.GaussianRadial(1e4), alpha=0.3,
                             grid=grid, j=0))
    pairs = solve_generalized(p, 2)
    assert abs(pairs.values[0]) < 1e-9 * pairs.values[1]
    assert pairs.values[1] >= 1e4
    assert np.all(pairs.residual_norms < 1e-8)


_BALL = dl.RevolutionManifold.ball(3, 1.0)
_EXTREME = {
    "interval-gaussian-1e3": (dl.Interval(-1.0, 1.0), dl.GaussianRadial(1e3), 0.5, 0, 3),
    "interval-cauchy-1e4": (dl.Interval(-1.0, 1.0), dl.CauchyPower(1e4, 0.5), 0.5, 0, 3),
    "disk-gaussian-1e4-j0": (dl.RevolutionManifold.ball(2, 1.0), dl.GaussianRadial(1e4), 0.75, 0, 3),
    "disk-gaussian-1e4-j1": (dl.RevolutionManifold.ball(2, 1.0), dl.GaussianRadial(1e4), 0.75, 1, 3),
    "ball-gaussian-1e4-j2": (_BALL, dl.GaussianRadial(1e4), 0.75, 2, 3),
    # many pairs: the j = 0 pencil of the k_max = 40 conformal check
    "ball-normalized-gaussian-1-j0-k40": (_BALL, dl.normalize(dl.GaussianRadial(1.0), _BALL),
                                          1.0 / 3.0, 0, 40),
}


@pytest.mark.parametrize("name", list(_EXTREME))
def test_extreme_pencils_match_dense_oracle(name):
    domain, rho, alpha, j, k_max = _EXTREME[name]
    grid = dl.RadialGrid.for_density(domain, 1024, m=rho.m)
    p = assemble(ModeProblem(domain=domain, rho=rho, alpha=alpha, grid=grid, j=j))
    pairs = solve_generalized(p, k_max)
    ref = dense_pencil_eigenvalues(p, k_max + 1)
    # the zero mode (j = 0) is rounding noise on the scale of lambda_1
    assert np.allclose(pairs.values, ref, rtol=1e-9, atol=1e-9 * ref[1])


@pytest.mark.parametrize("j", [0, 1])
def test_inaccurate_pairs_raise(j):
    # alpha = 0.1 on a 256-element grid: Lanczos returns 54502.8 for the
    # j = 1 minimum (dense: 52234.2, residual 0.07) and 1358 for the j = 0
    # zero mode; neither may come back as an answer
    disk = dl.RevolutionManifold.ball(2, 1.0)
    grid = dl.RadialGrid.for_density(disk, 256, m=1e4)
    p = assemble(ModeProblem(domain=disk, rho=dl.GaussianRadial(1e4), alpha=0.1,
                             grid=grid, j=j))
    with pytest.raises(EigenSolveError, match="residual"):
        solve_generalized(p, 1)


_DEFINITENESS = {**_EXTREME, **{
    f"{name}-gaussian-1e6-j{j}": (dom, dl.GaussianRadial(1e6), 0.75, j, 0)
    for name, dom in (("disk", dl.RevolutionManifold.ball(2, 1.0)), ("ball", _BALL))
    for j in (1, 2)}}


@pytest.mark.parametrize("name", list(_DEFINITENESS))
def test_exceeds_brackets_the_lowest_eigenvalue(name):
    domain, rho, alpha, j, _ = _DEFINITENESS[name]
    grid = dl.RadialGrid.for_density(domain, 1024, m=rho.m)
    p = assemble(ModeProblem(domain=domain, rho=rho, alpha=alpha, grid=grid, j=j))
    lam = dense_pencil_eigenvalues(p, 2)
    # a count of zero below sigma: every eigenvalue exceeds sigma (the sweep stop)
    if j == 0:
        # the zero mode: below lambda_1, within 1e-9 lambda_1 of zero
        assert count_below(p, lam[1] * (1 - 1e-8)) != 0
        assert count_below(p, -1e-9 * lam[1]) == 0
    else:
        assert count_below(p, lam[0] * (1 - 1e-8)) == 0
        assert count_below(p, lam[0] * (1 + 1e-8)) != 0


@pytest.mark.parametrize("n_el", [256, 1024])
@pytest.mark.parametrize("name", list(_DEFINITENESS))
def test_count_below_matches_dense_oracle(name, n_el):
    domain, rho, alpha, j, _ = _DEFINITENESS[name]
    grid = dl.RadialGrid.for_density(domain, n_el, m=rho.m)
    p = assemble(ModeProblem(domain=domain, rho=rho, alpha=alpha, grid=grid, j=j))
    lam = dense_pencil_eigenvalues(p, 4)
    for k in (1, 2, 3):
        assert count_below(p, lam[k] * (1 - 1e-8)) == k
        assert count_below(p, lam[k] * (1 + 1e-8)) == k + 1


def test_count_below_restarts_past_negative_pivots():
    # K = diag(1, 2, ..., n), M = I: the count is the number of integers below sigma
    n = 9
    p = _pencil(np.arange(1.0, n + 1), np.zeros(n - 1), np.ones(n), np.zeros(n - 1))
    assert [count_below(p, s) for s in (0.5, 1.5, 4.5, 8.5, 9.5)] == [0, 1, 4, 8, 9]
    # an exactly zero pivot counts as negative: sigma = 1 puts it in row 1
    assert count_below(p, 1.0) == 1


def test_zero_mode_is_deflated():
    # alpha = 1, m = 1e4: Lanczos left lambda_0 = 1.67e-8 against lambda_1 = 2.614,
    # above the 1e-9 lambda_1 zero-mode gate of full_spectrum
    disk = dl.RevolutionManifold.ball(2, 1.0)
    grid = dl.RadialGrid.for_density(disk, 4096, m=1e4)
    res = full_spectrum(disk, dl.GaussianRadial(1e4), 1.0, 1, grid=grid)
    assert res.lambdas[0] == 0.0
    # the same pencil solved directly: Lanczos on the zero column's complement
    p = assemble(ModeProblem(domain=disk, rho=dl.GaussianRadial(1e4), alpha=1.0,
                             grid=grid, j=0))
    for pairs in (res.modes[0], solve_generalized(p, 1)):
        assert pairs.path == "lanczos" and len(pairs.values) == 2
        assert pairs.values[0] == 0.0
        assert np.all(pairs.residual_norms <= 1e-12)
        v = pairs.vectors[:, 0]
        assert np.max(np.abs(v - v[0])) <= 1e-14 * abs(v[0])


def test_residuals_do_not_overflow():
    # vectors reach ~1e151 where the density is floored; squaring them in
    # the norm used to overflow and report the residual as inf
    disk = dl.RevolutionManifold.ball(2, 1.0)
    grid = dl.RadialGrid.for_density(disk, 256, m=1e6)
    p = assemble(ModeProblem(domain=disk, rho=dl.GaussianRadial(1e6), alpha=0.1,
                             grid=grid, j=0))
    try:
        pairs = solve_generalized(p, 40)
    except EigenSolveError as exc:
        found = re.search(r"residual (\S+) exceeds", str(exc))
        assert found and math.isfinite(float(found.group(1)))
    else:
        assert np.all(np.isfinite(pairs.residual_norms))


def test_paths_name_the_solver():
    iv = dl.Interval(-1.0, 1.0)
    rho = dl.GaussianRadial(2.0)
    coarse = full_spectrum(iv, rho, 0.5, 2, grid=dl.RadialGrid.uniform(iv, 64))
    fine = full_spectrum(iv, rho, 0.5, 2, grid=dl.RadialGrid.uniform(iv, 128), start=coarse)
    every = full_spectrum(iv, rho, 0.5, 8, grid=dl.RadialGrid.uniform(iv, 8))
    assert (coarse.paths, fine.paths, every.paths) == ({0: "lanczos"}, {0: "rqi"}, {0: "dense"})
    assert fine.modes[0].refused is None
    assert np.allclose(fine.lambdas, dense_pencil_eigenvalues(
        assemble(ModeProblem(domain=iv, rho=rho, alpha=0.5,
                             grid=dl.RadialGrid.uniform(iv, 128))), 3),
        rtol=1e-10, atol=1e-12)
