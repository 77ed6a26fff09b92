import importlib.machinery
import importlib.util
import math
import re

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.linalg.lapack
from hypothesis import given, settings, strategies as st

import densilab as dl
from densilab import eigensolver
from densilab.assembly import ModeProblem, TridiagonalPencil, assemble
from densilab.eigensolver import (EigenSolveError, IndefiniteMassError, counter,
                                  solve_generalized)
from densilab.spectrum import full_spectrum

from oracles import dense_k, dense_m, dense_pencil_eigenvalues, longdouble_count_below


def _pencil(kd, ke, md, me):
    return TridiagonalPencil.from_bands(np.asarray(kd, float), np.asarray(ke, float),
                                        np.asarray(md, float), np.asarray(me, float))


def test_lapack_by_file_spec_is_scipys():
    # the extension loaded by its file spec is the module scipy.linalg.lapack exports
    assert eigensolver.LAPACK_LOADER == "file spec"
    assert eigensolver.dpttrf is scipy.linalg.lapack.dpttrf
    assert eigensolver.dgtsv is scipy.linalg.lapack.dgtsv


def _refuse(*args):
    raise ImportError("refused")


@pytest.mark.parametrize("target, name, value", [
    (importlib.machinery, "EXTENSION_SUFFIXES", []),
    (importlib.util, "module_from_spec", _refuse),
], ids=["no extension file", "extension fails to load"])
def test_lapack_falls_back_to_scipy_linalg(monkeypatch, target, name, value):
    monkeypatch.setattr(target, name, value)
    assert eigensolver._load_lapack() == (scipy.linalg.lapack.dgtsv, scipy.linalg.lapack.dpttrf,
                                          "scipy.linalg.lapack")


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
    with pytest.raises(ValueError, match=r"guess has shape \(12, 2\), expected \(12, 3\)"):
        solve_generalized(p, 2, guess=np.ones((n, 2)))
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
    # k_max + 1 == size: every pair of the pencil
    p = _random_spd_pencil(np.random.default_rng(n), n)
    pairs = solve_generalized(p, n - 1)
    ref = sla.eigh(dense_k(p), dense_m(p), eigvals_only=True)
    assert np.allclose(pairs.values, ref, rtol=1e-9, atol=1e-12 * ref[-1])
    gram = pairs.vectors.T @ dense_m(p) @ pairs.vectors
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-8
    assert np.all(pairs.residual_norms <= 1e-8)


def test_full_spectrum_asks_for_every_pair():
    iv = dl.Interval(-1.0, 1.0)
    grid = dl.RadialGrid.uniform(iv, 8)
    lams = full_spectrum(iv, dl.Constant(1.0), 0.5, 8, grid=grid).lambdas
    p = assemble(ModeProblem(domain=iv, rho=dl.Constant(1.0), alpha=0.5, grid=grid, j=0))
    ref = sla.eigh(dense_k(p), dense_m(p), eigvals_only=True)
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
    ref = sla.eigh(dense_k(p), dense_m(p), eigvals_only=True)
    scale = max(abs(ref[k_max]), 1e-12)
    assert np.all(np.diff(pairs.values) >= -1e-12 * scale)
    assert np.allclose(pairs.values, ref[:k_max + 1], rtol=1e-9, atol=1e-11 * scale)


def test_a_quotient_outside_its_bracket_halves_it(monkeypatch):
    # inverse iteration at a fixed bracket midpoint settled too slowly for two
    # pairs of this pencil, each of which paid a cluster retry (101 counts in
    # all); halved on a count, each bracket gives the next step a closer shift
    rng = np.random.default_rng(68)
    p = _random_spd_pencil(rng, int(rng.integers(10, 61)))
    rqi, clusters = eigensolver._rqi, []

    def spy(rec, x, w, mw, bracket=None, cluster=False):
        clusters.append(cluster)
        return rqi(rec, x, w, mw, bracket, cluster)

    monkeypatch.setattr(eigensolver, "_rqi", spy)
    pairs = solve_generalized(p, 5)
    assert len(clusters) == 6 and not any(clusters)
    assert counter(p).spent <= 30
    ref = sla.eigh(dense_k(p), dense_m(p), eigvals_only=True)
    assert np.allclose(pairs.values, ref[:6], rtol=1e-9, atol=0.0)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=12, max_value=50), st.integers(min_value=0, max_value=2 ** 31))
def test_solver_hygiene_invariants(n, seed):
    rng = np.random.default_rng(seed)
    p = _random_spd_pencil(rng, n)
    pairs = solve_generalized(p, 4)
    v = pairs.vectors
    m = dense_m(p)
    k = dense_k(p)
    gram = v.T @ m @ v
    assert np.max(np.abs(gram - np.eye(5))) <= 1e-8
    assert np.all(pairs.residual_norms <= 1e-8)
    # Rayleigh consistency
    for i in range(5):
        lam = pairs.values[i]
        quot = (v[:, i] @ k @ v[:, i]) / (v[:, i] @ m @ v[:, i])
        assert quot == pytest.approx(lam, rel=1e-10, abs=1e-12 * max(1.0, abs(lam)))


def _block_pencil(parts):
    """The pencils ``parts`` side by side, uncoupled: zero off-diagonals between them."""
    def bands(diag, off):
        return (np.concatenate([getattr(q, diag) for q in parts]),
                np.concatenate([np.append(getattr(q, off), 0.0) for q in parts])[:-1])
    return _pencil(*bands("k_diag", "k_off"), *bands("m_diag", "m_off"))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=2, max_value=8),
                          st.integers(min_value=1, max_value=3)), min_size=1, max_size=3),
       st.sampled_from([0.0, 1e-13, 1e-10, 1e-8, 1e-7]),
       st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=2 ** 31))
def test_clustered_pencils_match_dense_reference(blocks, split, k_max, seed):
    # random blocks, the first one at least twice: every eigenvalue of a
    # repeated block is repeated in the pencil, exactly (split 0, which no
    # count can split) or to a relative ``split`` between the copies
    rng = np.random.default_rng(seed)
    blocks[0] = (blocks[0][0], max(blocks[0][1], 2))
    parts = []
    for size, copies in blocks:
        q = _random_spd_pencil(rng, size)
        parts += [_pencil(q.k_diag * (1 + c * split), q.k_off * (1 + c * split),
                          q.m_diag, q.m_off) for c in range(copies)]
    p = _block_pencil(parts)
    k_max = min(k_max, p.size - 1)
    pairs = solve_generalized(p, k_max)
    ref = sla.eigh(dense_k(p), dense_m(p), eigvals_only=True)
    assert np.allclose(pairs.values, ref[:k_max + 1], rtol=1e-9, atol=0.0)
    gram = pairs.vectors.T @ dense_m(p) @ pairs.vectors
    assert np.max(np.abs(gram - np.eye(k_max + 1))) <= 1e-8
    assert np.all(pairs.residual_norms <= 1e-8)


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


_FLOORED = {
    f"{name}-m{m:.0e}-N{n_el}-j{j}": (dom, m, n_el, j)
    for name, dom in (("disk", dl.RevolutionManifold.ball(2, 1.0)), ("ball", _BALL))
    for m, n_el in ((1e4, 256), (1e4, 1024), (1e5, 256), (1e6, 256), (1e6, 1024))
    for j in (0, 1)}


@pytest.mark.parametrize("name", list(_FLOORED))
def test_floored_pencils_match_dense_oracle(name):
    # alpha = 0.1 with the density floored over most of the grid: a Lanczos
    # solve returned 54502.8 for the disk's j = 1 minimum at m = 1e4, N = 256
    # (dense: 52234.2) and 1358 for its j = 0 zero mode
    domain, m, n_el, j = _FLOORED[name]
    grid = dl.RadialGrid.for_density(domain, n_el, m=m)
    p = assemble(ModeProblem(domain=domain, rho=dl.GaussianRadial(m), alpha=0.1,
                             grid=grid, j=j))
    pairs = solve_generalized(p, 2)
    ref = dense_pencil_eigenvalues(p, 3)
    nonzero = slice(1 - j, None)  # j = 0: lambda_0 = 0 exactly, the oracle's is rounding
    assert np.allclose(pairs.values[nonzero], ref[nonzero], rtol=1e-9, atol=0.0)
    assert np.all(pairs.residual_norms <= 1e-8)


def test_exactly_singular_shift_is_perturbed(monkeypatch):
    # pair 0's fourth shift is the third step's quotient and dgtsv meets an
    # exactly zero pivot (the last one); the third step had not met the
    # residual exit, so the iteration perturbs the shift and solves once more
    ball = dl.RevolutionManifold.ball(3, 1.0)
    m = 10 ** 2.91737991499506
    p = assemble(ModeProblem(domain=ball, rho=dl.GaussianRadial(m), alpha=1.0,
                             grid=dl.RadialGrid.for_density(ball, 512, m=m), j=1))
    dgtsv, singular = eigensolver.dgtsv, []

    def spy(*args):
        out = dgtsv(*args)
        singular.append(out[-1] != 0)
        return out

    monkeypatch.setattr(eigensolver, "dgtsv", spy)
    pairs = solve_generalized(p, 0)
    assert any(singular)
    assert pairs.residual_norms[0] <= 1e-12
    assert pairs.values[0] == pytest.approx(dense_pencil_eigenvalues(p, 1)[0], rel=1e-9)


_CERTIFIED_DOMAINS = {"interval": dl.Interval(-1.0, 1.0),
                      "disk": dl.RevolutionManifold.ball(2, 1.0),
                      "ball": dl.RevolutionManifold.ball(3, 1.0)}


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(list(_CERTIFIED_DOMAINS)), st.floats(min_value=0.0, max_value=4.0),
       st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=6, max_value=12),
       st.integers(min_value=1, max_value=8))
def test_returned_pairs_pass_an_extended_precision_count(name, log_m, alpha, log_n, k_max):
    # each returned positive lambda_i of each mode pencil: a long-double count
    # of that pencil's own bands finds i eigenvalues below lambda_i (1 - 1e-9)
    # and i + 1 below lambda_i (1 + 1e-9); and every pair's residual is at
    # rounding level, far inside the 1e-8 gate, as RQI stops on it.  Values
    # whose windows overlap are one cluster (a floored interval's two tails
    # hold equal eigenvalues), certified by the counts at its two ends
    dom, rho = _CERTIFIED_DOMAINS[name], dl.GaussianRadial(10.0 ** log_m)
    grid = dl.RadialGrid.for_density(dom, 2 ** log_n, m=rho.m)
    res = full_spectrum(dom, rho, alpha, k_max, grid=grid)
    base = assemble(ModeProblem(domain=dom, rho=rho, alpha=alpha, grid=grid))
    for j, pairs in res.modes.items():
        pencil = base.family.mode(j) if j else base
        i = np.flatnonzero(pairs.values > 0)
        lo, hi = pairs.values[i] * (1 - 1e-9), pairs.values[i] * (1 + 1e-9)
        first = np.ones(len(lo), dtype=bool)  # starts a cluster
        first[1:] = lo[1:] >= hi[:-1]
        last = np.roll(first, -1)  # ends one
        last[-1:] = True
        below = longdouble_count_below(pencil, np.concatenate([lo[first], hi[last]]))
        assert below.tolist() == [*i[first], *(i[last] + 1)]
        assert np.all(pairs.residual_norms <= 1e-11)


def test_a_corrupted_vector_fails_the_residual_gate(monkeypatch):
    # the gate, not the iteration, decides: spoil the last pair after it converged
    rqi = eigensolver._rqi

    def spoiled(*args):
        x, mx = rqi(*args)
        w = args[2]
        if len(w) == 1:
            x = x * (1.0 + 1e-3 * np.linspace(0.0, 1.0, len(x)))
        return x, mx

    monkeypatch.setattr(eigensolver, "_rqi", spoiled)
    p = _random_spd_pencil(np.random.default_rng(1), 40)
    with pytest.raises(EigenSolveError, match="residual"):
        solve_generalized(p, 1)


def test_a_repeated_vector_fails_the_orthonormality_gate(monkeypatch):
    # pair 2 of a cold solve returns pair 1's vector: its value is its own
    # quotient, so it passes the residual gate, and the Gram check refuses it
    rqi = eigensolver._rqi

    def repeated(rec, x, w, mw, *args):
        return (w[1], mw[1]) if len(w) == 2 else rqi(rec, x, w, mw, *args)

    monkeypatch.setattr(eigensolver, "_rqi", repeated)
    iv = dl.Interval(-1.0, 1.0)
    p = assemble(ModeProblem(domain=iv, rho=dl.GaussianRadial(10.0), alpha=0.5,
                             grid=dl.RadialGrid.uniform(iv, 64)))
    with pytest.raises(EigenSolveError, match="M-orthonormality"):
        solve_generalized(p, 3)


def test_a_pencil_with_no_spectral_scale_is_refused():
    # K = 0: the ramp quotient, which seeds the cold bracket, is 0
    p = _pencil(np.zeros(16), np.zeros(15), np.ones(16), np.zeros(15))
    with pytest.raises(EigenSolveError, match=r"spectral scale \(tau=0.0\)"):
        solve_generalized(p, 0)


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
        assert counter(p)(lam[1] * (1 - 1e-8)) != 0
        assert counter(p)(-1e-9 * lam[1]) == 0
    else:
        assert counter(p)(lam[0] * (1 - 1e-8)) == 0
        assert counter(p)(lam[0] * (1 + 1e-8)) != 0


@pytest.mark.parametrize("n_el", [256, 1024])
@pytest.mark.parametrize("name", list(_DEFINITENESS))
def test_count_below_matches_dense_oracle(name, n_el):
    domain, rho, alpha, j, _ = _DEFINITENESS[name]
    grid = dl.RadialGrid.for_density(domain, n_el, m=rho.m)
    p = assemble(ModeProblem(domain=domain, rho=rho, alpha=alpha, grid=grid, j=j))
    lam = dense_pencil_eigenvalues(p, 4)
    for k in (1, 2, 3):
        assert counter(p)(lam[k] * (1 - 1e-8)) == k
        assert counter(p)(lam[k] * (1 + 1e-8)) == k + 1


def test_count_below_restarts_past_negative_pivots():
    # K = diag(1, 2, ..., n), M = I: the count is the number of integers below sigma
    n = 9
    p = _pencil(np.arange(1.0, n + 1), np.zeros(n - 1), np.ones(n), np.zeros(n - 1))
    assert [counter(p)(s) for s in (0.5, 1.5, 4.5, 8.5, 9.5)] == [0, 1, 4, 8, 9]
    # an exactly zero pivot counts as negative: sigma = 1 puts it in row 1
    assert counter(p)(1.0) == 1


def test_zero_mode_is_deflated():
    # alpha = 1, m = 1e4: a solve of the whole pencil left lambda_0 = 1.67e-8
    # against lambda_1 = 2.614, above the 1e-9 lambda_1 zero-mode gate of full_spectrum
    disk = dl.RevolutionManifold.ball(2, 1.0)
    grid = dl.RadialGrid.for_density(disk, 4096, m=1e4)
    res = full_spectrum(disk, dl.GaussianRadial(1e4), 1.0, 1, grid=grid)
    assert res.lambdas[0] == 0.0
    # the same pencil solved directly: the other pairs kept M-orthogonal to the zero column
    p = assemble(ModeProblem(domain=disk, rho=dl.GaussianRadial(1e4), alpha=1.0,
                             grid=grid, j=0))
    for pairs in (res.modes[0], solve_generalized(p, 1)):
        assert pairs.path == "sturm" and len(pairs.values) == 2
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
    assert (coarse.paths, fine.paths, every.paths) == ({0: "sturm"}, {0: "rqi"}, {0: "sturm"})
    assert fine.modes[0].refused is None
    assert np.allclose(fine.lambdas, dense_pencil_eigenvalues(
        assemble(ModeProblem(domain=iv, rho=rho, alpha=0.5,
                             grid=dl.RadialGrid.uniform(iv, 128))), 3),
        rtol=1e-10, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(min_value=10, max_value=60), st.sampled_from(list(_FLOORED))),
       st.integers(min_value=0, max_value=2 ** 31),
       st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(min_value=-3.0, max_value=8.0)),
                min_size=1, max_size=40))
def test_memoised_counts_match_direct_counts(pencil, seed, shifts):
    # a random SPD pencil of that size or a floored pencil; shifts +-tau 10^e
    # around its ramp quotient tau, negative ones too, as the counter takes them
    if isinstance(pencil, str):
        domain, m, n_el, j = _FLOORED[pencil]
        pencil = assemble(ModeProblem(domain=domain, rho=dl.GaussianRadial(m), alpha=0.1,
                                      grid=dl.RadialGrid.for_density(domain, n_el, m=m), j=j))
    else:
        pencil = _random_spd_pencil(np.random.default_rng(seed), pencil)
    count = eigensolver.counter(pencil)
    tau = eigensolver.ramp_quotient(pencil)
    for sign, e in shifts:
        sigma = sign * tau * 10.0 ** e
        direct = eigensolver._count(*count.bands, sigma)
        assert count(sigma) == counter(pencil)(sigma) == direct
    assert count.spent <= len(shifts)
    # between two memo points of equal count, or below one of count 0: decided
    # by the memo, with no new count
    decided = [lo + (hi - lo) / 2 for lo, hi, c_lo, c_hi in zip(
        count.sigmas, count.sigmas[1:], count.counts, count.counts[1:]) if c_lo == c_hi]
    if count.counts[0] == 0:
        decided.append(count.sigmas[0] - abs(count.sigmas[0]) - 1.0)
    spent = count.spent
    for sigma in decided:
        assert count(sigma) == eigensolver._count(*count.bands, sigma)
    assert count.spent == spent
