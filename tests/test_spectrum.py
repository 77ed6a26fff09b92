import json
import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

import densilab as dl
from densilab import spectrum
from densilab.assembly import ModeProblem, assemble
from densilab.spectrum import TestFunction

import oracles


def test_interval_full_spectrum_closed_form():
    iv = dl.Interval(-1.0, 1.0)
    res = dl.full_spectrum(iv, dl.Constant(1.0), 0.0, 8,
                           grid=dl.RadialGrid.uniform(iv, 1024))
    exact = np.array([(k * math.pi / 2) ** 2 for k in range(9)])
    assert np.max(np.abs(res.lambdas[1:] - exact[1:]) / exact[1:]) < 1e-3
    assert all(row[3] == 1 for row in res.slot_entries())


def test_disk_spectrum_matches_bessel_oracle():
    disk = dl.RevolutionManifold.ball(2, 1.0)
    res = dl.full_spectrum(disk, dl.Constant(1.0), 0.0, 8,
                           grid=dl.RadialGrid.uniform(disk, 1024))
    exact = oracles.disk_neumann_spectrum(9)
    assert np.max(np.abs(res.lambdas[1:] - exact[1:]) / exact[1:]) < 2e-4
    # lambda_1 = lambda_2 comes from mode 1 with multiplicity 2
    rows = res.slot_entries()
    assert rows[1][2] == 1 and rows[1][3] == 2
    assert res.lambdas[1] == res.lambdas[2]


def test_ball_spectrum_matches_spherical_bessel_oracle():
    ball = dl.RevolutionManifold.ball(3, 1.0)
    res = dl.full_spectrum(ball, dl.Constant(1.0), 0.0, 8,
                           grid=dl.RadialGrid.uniform(ball, 1024))
    exact = oracles.ball_neumann_spectrum(9)
    assert np.max(np.abs(res.lambdas[1:] - exact[1:]) / exact[1:]) < 2e-4
    rows = res.slot_entries()
    assert rows[1][3] == 3  # first cluster has multiplicity 3
    assert [row[0] for row in rows] == list(range(9))


def test_hemisphere_closed_form():
    # Neumann hemisphere: eigenvalues l(l+1), multiplicities of even l+m
    hemi = dl.RevolutionManifold.spherical_cap(2, math.pi / 2)
    res = dl.full_spectrum(hemi, dl.Constant(1.0), 0.0, 5,
                           grid=dl.RadialGrid.uniform(hemi, 1024))
    assert np.allclose(res.lambdas, [0.0, 2.0, 2.0, 6.0, 6.0, 6.0], atol=2e-4)


def test_zero_mode_constant_eigenvector():
    disk = dl.RevolutionManifold.ball(2, 1.0)
    res = dl.full_spectrum(disk, dl.GaussianRadial(3.0), 0.5, 2,
                           grid=dl.RadialGrid.uniform(disk, 256))
    ent = res.entries[0]
    assert abs(ent.value) <= 1e-9 * res.lambdas[1]
    v = ent.vector
    assert np.max(np.abs(v - v.mean())) <= 1e-7 * abs(v.mean())


def test_j_max_insufficient_reports_bound():
    disk = dl.RevolutionManifold.ball(2, 1.0)
    with pytest.raises(ValueError, match="insufficient"):
        dl.full_spectrum(disk, dl.Constant(1.0), 0.0, 8,
                         grid=dl.RadialGrid.uniform(disk, 256), j_max=1)


def test_each_mode_asks_only_for_pairs_it_can_place(monkeypatch):
    ball = dl.RevolutionManifold.ball(3, 1.0)
    asked = []

    def spy(pencil, k_max):
        asked.append(k_max + 1)
        return dl.solve_generalized(pencil, k_max)

    monkeypatch.setattr(spectrum, "solve_generalized", spy)
    res = dl.full_spectrum(ball, dl.Constant(1.0), 0.0, 12,
                           grid=dl.RadialGrid.uniform(ball, 128))
    assert len(asked) > 3
    assert asked == [math.ceil(13 / dl.sphere_multiplicity(j, 3))
                     for j in range(len(asked))]
    # the stop mode is tested for definiteness, never solved
    assert len(asked) == 1 + max(e.mode_j for e in res.entries)
    disk = dl.RevolutionManifold.ball(2, 1.0)
    asked.clear()
    res = dl.full_spectrum(disk, dl.GaussianRadial(100.0), 0.75, 1,
                           grid=dl.RadialGrid.uniform(disk, 256))
    assert asked == [2, 1]
    assert max(e.mode_j for e in res.entries) == 1


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([1.0, 100.0]),
       st.integers(min_value=0, max_value=30))
def test_mode_sweep_misses_no_eigenvalue(n, m, k_max):
    # every pair of every mode, solved densely, then merged: the sweep's
    # pair rule and stopping rule must not change the lowest k_max + 1
    dom = dl.RevolutionManifold.ball(n, 1.0)
    grid = dl.RadialGrid.uniform(dom, 64)
    rho = dl.GaussianRadial(m)
    union, mode_minima = [], []
    for j in range(32):
        pencil = assemble(ModeProblem(domain=dom, rho=rho, alpha=0.5, grid=grid, j=j))
        values = oracles.dense_pencil_eigenvalues(pencil, pencil.size)
        union.extend(np.repeat(values, dl.sphere_multiplicity(j, n)))
        mode_minima.append(values[0])
    expected = np.sort(union)[:k_max + 1]
    assert mode_minima[-1] > expected[-1]  # the oracle swept far enough
    got = dl.full_spectrum(dom, rho, 0.5, k_max, grid=grid).lambdas
    lam1 = expected[1] if k_max >= 1 else 1.0
    assert np.allclose(got, expected, rtol=1e-9, atol=1e-9 * lam1)


def test_mode_minima_increase_with_j():
    disk = dl.RevolutionManifold.ball(2, 1.0)
    grid = dl.RadialGrid.uniform(disk, 512)
    mins = []
    for j in (1, 2, 3, 4):
        p = assemble(ModeProblem(domain=disk, rho=dl.GaussianRadial(1.0),
                                 alpha=0.5, grid=grid, j=j))
        mins.append(dl.solve_generalized(p, 0).values[0])
    assert np.all(np.diff(mins) > 0)


def test_rayleigh_quotient_basics():
    iv = dl.Interval(-1.0, 1.0)
    grid = dl.RadialGrid.uniform(iv, 512)
    assert dl.rayleigh_quotient(iv, dl.GaussianRadial(2.0), 0.5,
                                TestFunction.constant(), grid) == 0.0

    res = dl.full_spectrum(iv, dl.GaussianRadial(2.0), 0.5, 3, grid=grid)
    for k in (1, 2, 3):
        ent = res.entries[k]
        quot = dl.rayleigh_quotient(iv, dl.GaussianRadial(2.0), 0.5,
                                    ent.vector, grid)
        assert quot == pytest.approx(ent.value, rel=1e-10)


def test_plateau_shape_and_validation():
    iv = dl.Interval(-1.0, 1.0)
    u = dl.build_plateau_function(iv, 0.2, 0.4, center=0.0)
    # linear ramp midpoint and support edge values
    d = np.array([0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8, 0.9])
    vals = np.interp(d, u.knots, u.knot_values, left=u.left_value, right=0.0)
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(0.5)  # d = 3r/4
    assert vals[2] == 1.0 and vals[4] == 1.0
    assert vals[6] == pytest.approx(0.0, abs=1e-15)  # d = 2R

    cap = dl.build_plateau_function(iv, 0.0, 0.5)
    assert cap.left_value == 1.0
    with pytest.raises(ValueError, match="r <= R"):
        dl.build_plateau_function(iv, 0.5, 0.2)
    with pytest.raises(ValueError, match="extent"):
        dl.build_plateau_function(iv, 0.5, 1.5)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.4), st.floats(min_value=0.01, max_value=0.5))
def test_plateau_values_in_unit_interval(r, width):
    iv = dl.Interval(-1.0, 1.0)
    R = min(r + width, 0.99)
    u = dl.build_plateau_function(iv, r, R, center=0.0)
    grid = dl.RadialGrid.uniform(iv, 128)
    v = u.sample(iv, grid)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)


def test_plateau_rayleigh_matches_piecewise_integral_oracle():
    # one-sided plateau centered at the left endpoint: the quotient has a
    # closed form (2/r)^2 |(r/2, r)| + (1/R)^2 |(R, 2R)| over int u^2
    iv = dl.Interval(-1.0, 1.0)
    r, R = 0.25, 0.4
    u = dl.build_plateau_function(iv, r, R, center=-1.0)
    num = (2.0 / r) ** 2 * (r / 2.0) + (1.0 / R) ** 2 * R
    den = r / 6.0 + (R - r) + R / 3.0  # ramps contribute |ramp|/3 each
    exact = num / den
    got = dl.rayleigh_quotient(iv, dl.Constant(1.0), 0.0, u,
                               dl.RadialGrid.uniform(iv, 2048))
    assert got == pytest.approx(exact, rel=1e-2)
    finer = dl.rayleigh_quotient(iv, dl.Constant(1.0), 0.0, u,
                                 dl.RadialGrid.uniform(iv, 4096))
    assert abs(finer - exact) < abs(got - exact)


def test_minmax_constant_gives_zero_mode():
    iv = dl.Interval(-1.0, 1.0)
    bound = dl.minmax_bound(iv, dl.GaussianRadial(1.0), 0.5,
                            [TestFunction.constant()],
                            dl.RadialGrid.uniform(iv, 256))
    assert bound == 0.0


def test_minmax_two_caps_bound_lambda1():
    iv = dl.Interval(-1.0, 1.0)
    grid = dl.RadialGrid.uniform(iv, 1024)
    caps = [dl.build_plateau_function(iv, 0.0, 0.25, center=-1.0),
            dl.build_plateau_function(iv, 0.0, 0.25, center=1.0)]
    bound = dl.minmax_bound(iv, dl.Constant(1.0), 0.0, caps, grid)
    lam1 = (math.pi / 2.0) ** 2
    assert bound >= lam1
    lam1_disc = dl.full_spectrum(iv, dl.Constant(1.0), 0.0, 1, grid=grid).lambdas[1]
    assert lam1_disc <= bound + 1e-8 + 10.0 / 1024 ** 2


def test_minmax_three_annuli_bound_lambda2_on_disk():
    # the doubled supports [r/2, 2R] tile the unit radius tightly:
    # [0, 1/16], [1/16, 1/4], [1/4, 1]
    disk = dl.RevolutionManifold.ball(2, 1.0)
    grid = dl.RadialGrid.uniform(disk, 1024)
    rho = dl.GaussianRadial(2.0)
    fns = [dl.build_plateau_function(disk, 0.0, 1.0 / 32.0),
           dl.build_plateau_function(disk, 1.0 / 8.0, 1.0 / 8.0),
           dl.build_plateau_function(disk, 0.5, 0.5)]
    bound = dl.minmax_bound(disk, rho, 0.5, fns, grid)
    lam2 = dl.full_spectrum(disk, rho, 0.5, 2, grid=grid).lambdas[2]
    assert lam2 <= bound + 1e-8 + 10.0 / 1024 ** 2


def test_minmax_rejects_overlapping_supports():
    iv = dl.Interval(-1.0, 1.0)
    grid = dl.RadialGrid.uniform(iv, 256)
    fns = [dl.build_plateau_function(iv, 0.0, 0.4, center=0.0),
           dl.build_plateau_function(iv, 0.0, 0.4, center=0.5)]
    with pytest.raises(ValueError, match="overlap"):
        dl.minmax_bound(iv, dl.Constant(1.0), 0.0, fns, grid)


def test_holder_chain_equalities_for_flat_density():
    # cap aligned with the grid: |grad u| constant on its support, rho == 1
    ball = dl.RevolutionManifold.ball(3, 1.0)
    grid = dl.RadialGrid.uniform(ball, 512)
    u = dl.build_plateau_function(ball, 0.0, 0.25)
    rep = dl.holder_chain_check(ball, dl.Constant(1.0), 0.2, u, grid)
    scale = rep.energy
    assert abs(rep.first_slack) <= 1e-10 * scale
    assert abs(rep.second_slack) <= 1e-10 * scale
    assert rep.holds


def test_holder_chain_gaussian_positive_slack():
    ball = dl.RevolutionManifold.ball(3, 1.0)
    grid = dl.RadialGrid.uniform(ball, 512)
    u = dl.build_plateau_function(ball, 0.0, 0.25)
    rep = dl.holder_chain_check(ball, dl.GaussianRadial(10.0), 0.2, u, grid)
    assert rep.energy <= rep.after_first <= rep.after_second
    assert rep.first_slack > 0 and rep.second_slack > 0


def test_holder_chain_validates_exponent_and_dimension():
    ball = dl.RevolutionManifold.ball(3, 1.0)
    u = dl.build_plateau_function(ball, 0.0, 0.25)
    with pytest.raises(ValueError, match="alpha"):
        dl.holder_chain_check(ball, dl.Constant(1.0), 0.5, u)
    disk = dl.RevolutionManifold.ball(2, 1.0)
    with pytest.raises(ValueError, match="n >= 3"):
        dl.holder_chain_check(disk, dl.Constant(1.0), 0.1,
                              dl.build_plateau_function(disk, 0.0, 0.25))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([1e-3, 0.1, 1.0, 10.0, 1e3]),
       st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]))
def test_scaling_identity_exact(c, alpha):
    iv = dl.Interval(-1.0, 1.0)
    grid = dl.RadialGrid.uniform(iv, 256)
    rho = dl.GaussianRadial(5.0)
    lam = dl.full_spectrum(iv, rho, alpha, 1, grid=grid).lambdas[1]
    lam_scaled = dl.full_spectrum(iv, dl.scale(rho, c), alpha, 1, grid=grid).lambdas[1]
    assert lam_scaled == pytest.approx(c ** (alpha - 1.0) * lam, rel=1e-12)


def test_homothety_transports_spectrum():
    disk = dl.RevolutionManifold.ball(2, 1.0)
    rho = dl.GaussianRadial(4.0)
    lam = dl.full_spectrum(disk, rho, 0.5, 2,
                           grid=dl.RadialGrid.uniform(disk, 512)).lambdas
    for c in (0.5, 3.0):
        big = dl.homothety(disk, c)
        moved = dl.stretched(rho, math.sqrt(c))
        lam_c = dl.full_spectrum(big, moved, 0.5, 2,
                                 grid=dl.RadialGrid.uniform(big, 512)).lambdas
        assert np.allclose(lam_c[1:], lam[1:] / c, rtol=1e-8)


def test_alpha_endpoints_reproduce_direct_pencils():
    # alpha = 0 is the (rho, 1) problem; alpha = 1 the (rho, rho) problem
    iv = dl.Interval(-1.0, 1.0)
    grid = dl.RadialGrid.uniform(iv, 128)
    rho = dl.GaussianRadial(3.0)
    for alpha, sigma in ((0.0, dl.Constant(1.0)), (1.0, rho)):
        p_alpha = assemble(ModeProblem(domain=iv, rho=rho, alpha=alpha,
                                       grid=grid, j=0))
        p_direct = assemble(ModeProblem(domain=iv, rho=rho, alpha=alpha,
                                        grid=grid, j=0, sigma=sigma))
        assert np.array_equal(p_alpha.k_diag, p_direct.k_diag)
        assert np.array_equal(p_alpha.k_off, p_direct.k_off)
        assert np.array_equal(p_alpha.m_diag, p_direct.m_diag)


def test_spectrum_serialization(tmp_path):
    iv = dl.Interval(-1.0, 1.0)
    res = dl.full_spectrum(iv, dl.Constant(1.0), 0.0, 3,
                           grid=dl.RadialGrid.uniform(iv, 128))
    csv_path = tmp_path / "spec.csv"
    res.to_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "k,lambda,mode_j,multiplicity"
    assert len(lines) == 5

    payload = res.to_json(tmp_path / "spec.json")
    assert payload["k_max"] == 3
    with open(tmp_path / "spec.json") as fh:
        assert json.load(fh)["entries"][0]["k"] == 0


_WARM_DOMAINS = {"disk": dl.RevolutionManifold.ball(2, 1.0),
                 "ball": dl.RevolutionManifold.ball(3, 1.0),
                 "interval": dl.Interval(-1.0, 1.0)}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_WARM_DOMAINS)), st.floats(min_value=0.0, max_value=4.0),
       st.floats(min_value=0.5, max_value=1.0), st.sampled_from([64, 128, 256]),
       st.integers(min_value=1, max_value=4))
def test_warm_start_matches_cold_and_refinement_is_monotone(name, log_m, alpha, n_el, k_max):
    dom, rho = _WARM_DOMAINS[name], dl.GaussianRadial(10.0 ** log_m)
    coarse_grid, fine_grid = (dl.RadialGrid.for_density(dom, n, m=rho.m)
                              for n in (n_el, 2 * n_el))
    coarse = dl.full_spectrum(dom, rho, alpha, k_max, grid=coarse_grid)
    warm = dl.full_spectrum(dom, rho, alpha, k_max, grid=fine_grid, start=coarse)
    cold = dl.full_spectrum(dom, rho, alpha, k_max, grid=fine_grid)
    assert warm.lambdas[0] == cold.lambdas[0] == 0.0
    assert np.allclose(warm.lambdas[1:], cold.lambdas[1:], rtol=1e-10, atol=0.0)
    for j, pairs in warm.modes.items():
        count = len(pairs.values)
        pencil = assemble(ModeProblem(domain=dom, rho=rho, alpha=alpha, grid=fine_grid, j=j))
        prolonged = spectrum._start_vectors(coarse, fine_grid.nodes, j, count,
                                            pencil.problem.pole_constrained)
        if prolonged is None:  # the start did not solve this mode for as many pairs
            assert pairs.path == "lanczos" and pairs.refused is None
            continue
        # a warm start either ran or says why not
        assert (pairs.path == "rqi") != (pairs.refused is not None)
        # nested conforming spaces (Poincare separation): the fine pencil's
        # Ritz values on the prolonged coarse vectors bound its eigenvalues
        ritz = sla.eigh(prolonged.T @ pencil.dense_k() @ prolonged,
                        prolonged.T @ pencil.dense_m() @ prolonged, eigvals_only=True)
        assert np.all(pairs.values <= ritz + 1e-10 * ritz[-1])


def test_wrong_start_is_refused_and_solved_cold():
    # the start's vectors are localized at the pole (m = 1e4): RQI from them
    # lands on eigenvalues with 143 (j = 0, pair 1) and 83 (j = 1, pair 0)
    # others below, so the count refuses both modes
    disk = dl.RevolutionManifold.ball(2, 1.0)
    start = dl.full_spectrum(disk, dl.GaussianRadial(1e4), 0.75, 1,
                             grid=dl.RadialGrid.uniform(disk, 256))
    grid = dl.RadialGrid.uniform(disk, 512)
    warm = dl.full_spectrum(disk, dl.GaussianRadial(1.0), 0.75, 1, grid=grid, start=start)
    cold = dl.full_spectrum(disk, dl.GaussianRadial(1.0), 0.75, 1, grid=grid)
    assert warm.paths == cold.paths == {0: "lanczos", 1: "lanczos"}
    for j, pairs in warm.modes.items():
        assert pairs.refused.startswith("warm start refused: pair")
        assert cold.modes[j].refused is None
        assert np.array_equal(pairs.values, cold.modes[j].values)
        assert np.array_equal(pairs.vectors, cold.modes[j].vectors)
    assert np.array_equal(warm.lambdas, cold.lambdas)
