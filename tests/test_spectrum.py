import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import densilab as dl
from densilab import eigensolver, spectrum
from densilab.cli import main as cli_main
from densilab.assembly import ModeProblem, assemble, element_forms
from densilab.eigensolver import counter
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
    _, value, j, _ = res.slot_entries()[0]
    assert value == 0.0 and value == res.modes[j].values[0]
    v = res.modes[j].vectors[:, 0]
    assert np.max(np.abs(v - v.mean())) <= 1e-7 * abs(v.mean())


def test_j_max_insufficient_reports_bound():
    # an interval's one mode holds 9 eigenvalues on 8 elements: k_max = 9 is
    # refused before the cutoff search, which no cutoff could satisfy
    iv = dl.Interval(-1.0, 1.0)
    with pytest.raises(ValueError, match="modes 0 to 0 hold 9"):
        dl.full_spectrum(iv, dl.Constant(1.0), 0.0, 9, grid=dl.RadialGrid.uniform(iv, 8))


def test_each_mode_asks_only_for_pairs_it_can_place(monkeypatch):
    ball = dl.RevolutionManifold.ball(3, 1.0)
    asked = []

    def spy(pencil, k_max, guess=None):
        asked.append(k_max + 1)
        return dl.solve_generalized(pencil, k_max, guess=guess)

    monkeypatch.setattr(spectrum, "solve_generalized", spy)
    grid = dl.RadialGrid.uniform(ball, 128)
    res = dl.full_spectrum(ball, dl.Constant(1.0), 0.0, 12, grid=grid)
    # each mode is asked for its count below the cutoff: 5 pairs for 13 slots
    assert asked == list(res.counts) == [2, 1, 1, 1]
    family = assemble(ModeProblem(domain=ball, rho=dl.Constant(1.0), alpha=0.0, grid=grid)).family
    assert [counter(family.mode(j))(res.cutoff) for j in range(5)] == [2, 1, 1, 1, 0]
    # the stop mode is counted, never solved
    assert len(asked) == len(res.modes) == 1 + max(row[2] for row in res.slot_entries())
    disk = dl.RevolutionManifold.ball(2, 1.0)
    asked.clear()
    res = dl.full_spectrum(disk, dl.GaussianRadial(100.0), 0.75, 1,
                           grid=dl.RadialGrid.uniform(disk, 256))
    assert asked == list(res.counts) == [1, 1]
    assert max(row[2] for row in res.slot_entries()) == 1


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([1.0, 100.0]),
       st.integers(min_value=0, max_value=30))
def test_mode_sweep_misses_no_eigenvalue(n, m, k_max):
    # every pair of every mode, solved densely, then merged: the sweep's
    # count plan and stopping rule must not change the lowest k_max + 1
    dom = dl.RevolutionManifold.ball(n, 1.0)
    grid = dl.RadialGrid.uniform(dom, 64)
    rho = dl.GaussianRadial(m)
    union, mode_minima, pencils, dense = [], [], [], []
    for j in range(32):
        pencil = assemble(ModeProblem(domain=dom, rho=rho, alpha=0.5, grid=grid, j=j))
        values = oracles.dense_pencil_eigenvalues(pencil, pencil.size)
        union.extend(np.repeat(values, dl.sphere_multiplicity(j, n)))
        mode_minima.append(values[0])
        pencils.append(pencil)
        dense.append(values)
    expected = np.sort(union)[:k_max + 1]
    assert mode_minima[-1] > expected[-1]  # the oracle swept far enough
    res = dl.full_spectrum(dom, rho, 0.5, k_max, grid=grid)
    lam1 = expected[1] if k_max >= 1 else 1.0
    assert np.allclose(res.lambdas, expected, rtol=1e-9, atol=1e-9 * lam1)
    # every mode's count at the cutoff is the number of its returned values
    # below it (none for the modes past the sweep), and the oracle's
    for j, pencil in enumerate(pencils):
        below = counter(pencil)(res.cutoff)
        solved = res.modes[j].values if j in res.modes else np.empty(0)
        assert below == np.sum(solved < res.cutoff) == np.sum(dense[j] < res.cutoff)
    assert list(res.counts) == [len(res.modes[j].values) for j in range(len(res.counts))]


_SLOT_DOMAINS = {"interval": dl.Interval(-1.0, 1.0), "disk": dl.RevolutionManifold.ball(2, 1.0),
                 "ball3": dl.RevolutionManifold.ball(3, 1.0),
                 "cap": dl.RevolutionManifold.spherical_cap(2, 1.2)}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(_SLOT_DOMAINS)), st.floats(min_value=0.0, max_value=4.0),
       st.floats(min_value=0.1, max_value=1.0), st.integers(min_value=0, max_value=30))
def test_slots_are_the_merge_of_the_modes(name, log_m, alpha, k_max):
    # the slot rows, brute force: every value of every solved mode, repeated by
    # its multiplicity, sorted stably (ties by mode, then by pair), then cut
    dom = _SLOT_DOMAINS[name]
    res = dl.full_spectrum(dom, dl.GaussianRadial(10.0 ** log_m), alpha, k_max,
                           grid=dl.RadialGrid.uniform(dom, 64))
    union = []
    for j in sorted(res.modes):
        mult = 1 if isinstance(dom, dl.Interval) else dl.sphere_multiplicity(j, dom.n)
        union.extend((v, j, mult) for v in res.modes[j].values for _ in range(mult))
    union.sort(key=lambda row: row[0])
    expected = [(k, *row) for k, row in enumerate(union[:k_max + 1])]
    assert res.slot_entries() == expected
    assert res.lambdas.tolist() == [row[1] for row in expected]
    assert res.counts == tuple(len(res.modes[j].values) for j in range(len(res.modes)))
    assert sorted(res.modes) == list(range(len(res.modes)))


@pytest.mark.parametrize("miss", ["drop-last", "skip-one"])
def test_a_solve_that_misses_an_eigenvalue_raises(monkeypatch, miss):
    # the count below the cutoff certifies each mode's solve: returning a
    # pair too few, or skipping one, breaks it
    def missing(pencil, k_max, guess=None):
        extra = int(miss == "skip-one")  # then the next pair takes the place of pair k_max
        pairs = dl.solve_generalized(pencil, k_max + extra)
        keep = np.arange(k_max + 1 + extra) != k_max
        return replace(pairs, values=pairs.values[keep], vectors=pairs.vectors[:, keep],
                       residual_norms=pairs.residual_norms[keep])

    monkeypatch.setattr(spectrum, "solve_generalized", missing)
    ball = dl.RevolutionManifold.ball(3, 1.0)
    with pytest.raises(dl.EigenSolveError, match="mode 0 has 2 eigenvalues below the cutoff"):
        dl.full_spectrum(ball, dl.Constant(1.0), 0.0, 12, grid=dl.RadialGrid.uniform(ball, 128))


def test_k_max_zero_is_the_zero_mode_alone():
    for dom in (dl.Interval(-1.0, 1.0), dl.RevolutionManifold.ball(2, 1.0)):
        grid = dl.RadialGrid.uniform(dom, 256)
        res = dl.full_spectrum(dom, dl.GaussianRadial(10.0), 0.5, 0, grid=grid)
        assert res.lambdas.tolist() == [0.0]
        assert res.counts == (1,) and res.paths == {0: "zero"}
        pencil = assemble(ModeProblem(domain=dom, rho=dl.GaussianRadial(10.0), alpha=0.5,
                                      grid=grid))
        assert counter(pencil)(res.cutoff) == 1


def test_a_negative_k_max_raises_before_assembly(monkeypatch):
    def no_assembly(*args, **kwargs):
        raise AssertionError("a negative k_max assembled a pencil")

    monkeypatch.setattr(spectrum, "assemble", no_assembly)
    iv = dl.Interval(-1.0, 1.0)
    with pytest.raises(ValueError, match="k_max must be nonnegative, got -1"):
        dl.full_spectrum(iv, dl.Constant(1.0), 0.5, -1, grid=dl.RadialGrid.uniform(iv, 64))


def test_cutoff_keeps_clear_of_eigenvalues():
    # all 65 pairs of a flat uniform interval: the search from the ramp
    # quotient 3/4 meets 3/4 * 4^7 = 12/h^2, the top eigenvalue, exactly
    iv = dl.Interval(-1.0, 1.0)
    res = dl.full_spectrum(iv, dl.Constant(1.0), 0.0, 64, grid=dl.RadialGrid.uniform(iv, 64))
    assert res.counts == (65,) and res.paths == {0: "sturm"}
    top = res.modes[0].values[-1]
    assert top == pytest.approx(12.0 * 32 ** 2, rel=1e-12)
    assert top * (1 + 1e-8) < res.cutoff
    with pytest.raises(ValueError, match="not enough eigenvalues"):
        dl.full_spectrum(iv, dl.Constant(1.0), 0.0, 65, grid=dl.RadialGrid.uniform(iv, 64))


def test_cutoff_search_spans_the_floating_range():
    # floored densities put eigenvalues near 1e233 (interval, m = 6908,
    # alpha 0.225); the log-scale bisection must not overflow on the way
    def slots(sigma):
        return 1 + 2 * (sigma > 3e300)

    sigma = spectrum._cutoff(slots, 1.0, 2, 4.0)
    assert 3e300 < sigma <= 3e300 * 1.25
    assert 3e300 < spectrum._cutoff(slots, 1e308, 2, 4.0) <= 3e300 * 1.25


def test_a_cutoff_search_out_of_floating_range_raises():
    # rho^1e300 underflows to the floor: the ramp quotient is 0, no search can start
    iv = dl.Interval(-1.0, 1.0)
    with pytest.raises(dl.EigenSolveError, match="left the floating range"):
        dl.full_spectrum(iv, dl.GaussianRadial(1.0), 1e300, 1,
                         grid=dl.RadialGrid.uniform(iv, 64))


def test_mode_minima_increase_with_j():
    disk = dl.RevolutionManifold.ball(2, 1.0)
    grid = dl.RadialGrid.uniform(disk, 512)
    mins = []
    for j in (1, 2, 3, 4):
        p = assemble(ModeProblem(domain=disk, rho=dl.GaussianRadial(1.0),
                                 alpha=0.5, grid=grid, j=j))
        mins.append(dl.solve_generalized(p, 0).values[0])
    assert np.all(np.diff(mins) > 0)


_SWEEP_DOMAINS = {"disk": dl.RevolutionManifold.ball(2, 1.0),
                  "ball": dl.RevolutionManifold.ball(3, 1.0),
                  "cap": dl.RevolutionManifold.spherical_cap(3, 2.0)}


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(_SWEEP_DOMAINS)), st.floats(min_value=0.0, max_value=4.0),
       st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=64, max_value=2048),
       st.floats(min_value=-2.0, max_value=4.0))
def test_mode_counts_do_not_increase_with_j(name, log_m, alpha, n_el, log_scale):
    # the mode sweep's stop: count_{j+1}(sigma) <= count_j(sigma) at every sigma,
    # since K_{j+1} - K_j = (mu_{j+1} - mu_j) A_1 is positive semidefinite and
    # each pole-constrained pencil is a principal submatrix of mode 0's
    dom, rho = _SWEEP_DOMAINS[name], dl.GaussianRadial(10.0 ** log_m)
    family = assemble(ModeProblem(domain=dom, rho=rho, alpha=alpha,
                                  grid=dl.RadialGrid.for_density(dom, n_el, m=rho.m))).family
    sigma = 10.0 ** log_scale * eigensolver.ramp_quotient(family.mode(1))
    counts = [counter(family.mode(j))(sigma) for j in range(9)]
    assert all(later <= earlier for earlier, later in zip(counts, counts[1:]))


def test_rayleigh_quotient_basics():
    iv = dl.Interval(-1.0, 1.0)
    grid = dl.RadialGrid.uniform(iv, 512)
    assert dl.rayleigh_quotient(iv, dl.GaussianRadial(2.0), 0.5,
                                TestFunction.constant(), grid) == 0.0

    res = dl.full_spectrum(iv, dl.GaussianRadial(2.0), 0.5, 3, grid=grid)
    for k in (1, 2, 3):
        _, value, j, _ = res.slot_entries()[k]
        assert value == res.modes[j].values[k]  # an interval's one mode holds every slot
        quot = dl.rayleigh_quotient(iv, dl.GaussianRadial(2.0), 0.5,
                                    res.modes[j].vectors[:, k], grid)
        assert quot == pytest.approx(value, rel=1e-10)


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
    with pytest.raises(ValueError, match="R must be positive"):
        dl.build_plateau_function(iv, 0.0, 0.0)
    # a NaN knot or value, unequal lengths and no knots at all are refused up
    # front: they gave a NaN quotient, numpy's length error and an IndexError
    with pytest.raises(ValueError, match="nondecreasing"):
        TestFunction(knots=(math.nan, 0.5), knot_values=(1.0, 0.0))
    with pytest.raises(ValueError, match="nondecreasing"):
        TestFunction(knots=(math.nan,), knot_values=(1.0,))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        TestFunction(knots=(0.1, 0.5), knot_values=(1.0, math.nan))
    for knots, values in (((0.1, 0.5), (1.0,)), ((0.1,), (1.0, 0.0)), ((), ())):
        with pytest.raises(ValueError, match="one value per knot"):
            TestFunction(knots=knots, knot_values=values)
    assert TestFunction.constant().knots == (math.inf,)  # the constant's inf knot stays valid


@pytest.mark.parametrize("a, r0, match", [(-0.1, 0.5, "a >= 0"), (0.2, 0.0, "r0 > 0"),
                                           (1.5, 1.0, "exceeds the domain extent")],
                         ids=["a-negative", "r0-zero", "past-the-extent"])
def test_collar_validation(a, r0, match):
    with pytest.raises(ValueError, match=match):
        dl.build_collar_function(dl.Interval(-1.0, 1.0), a, r0)


def test_window_of_a_plateau_starts_at_its_inner_ramp():
    # on a manifold a plateau that is 0 below its inner ramp is 0 from the
    # pole to knots[0] = r / 2: its node window starts there, less the pad
    ball = dl.RevolutionManifold.ball(3, 1.0)
    grid = dl.RadialGrid.uniform(ball, 2 ** 16)
    plateau = dl.build_plateau_function(ball, 0.3, 0.45)
    assert spectrum._prepared(ball, grid, plateau)[:2] == (9831, 58983)
    # a cap or a collar (left value 1) starts at the pole, and an interval's
    # plateau at center - 2R: one window cannot skip the hole around center
    for u in (dl.build_plateau_function(ball, 0.0, 0.45), dl.build_collar_function(ball, 0.2, 0.3)):
        assert spectrum._prepared(ball, grid, u)[0] == 0
    iv = dl.Interval(-1.0, 1.0)
    assert spectrum._prepared(iv, dl.RadialGrid.uniform(iv, 1024), dl.build_plateau_function(
        iv, 0.3, 0.45, center=0.0))[:2] == (52, 973)
    rho, alpha = dl.GaussianRadial(10.0), 0.2
    want = oracles.element_form_quotient(ModeProblem(domain=ball, rho=rho, alpha=alpha, grid=grid),
                                         plateau.sample(ball, grid))
    assert dl.rayleigh_quotient(ball, rho, alpha, plateau, grid) == pytest.approx(
        want, rel=1e-13, abs=0.0)
    got = dl.holder_chain_check(ball, rho, alpha, plateau, grid)
    want = oracles.holder_chain_whole_grid(ball, rho, alpha, plateau, grid)
    for name in ("energy", "after_first", "after_second"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-13, abs=0.0)


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


@pytest.mark.parametrize("values, match", [(np.ones(128), "length"),
                                           (np.zeros(129), "vanishes")],
                         ids=["wrong-length", "all-zero"])
def test_nodal_vector_is_checked(values, match):
    iv = dl.Interval(-1.0, 1.0)
    with pytest.raises(ValueError, match=match):
        dl.rayleigh_quotient(iv, dl.Constant(1.0), 0.5, values, dl.RadialGrid.uniform(iv, 128))


_BALL3 = dl.RevolutionManifold.ball(3, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("entry", [
    lambda v, grid: dl.rayleigh_quotient(_BALL3, dl.Constant(1.0), 0.2, v, grid),
    lambda v, grid: dl.minmax_bound(_BALL3, dl.Constant(1.0), 0.2, [v], grid),
    lambda v, grid: dl.holder_chain_check(_BALL3, dl.Constant(1.0), 0.2, v, grid)],
    ids=["rayleigh", "minmax", "holder"])
def test_a_nonfinite_nodal_vector_is_refused(entry, bad):
    # each entry point gave a NaN bound (or a report of NaNs) for it
    grid = dl.RadialGrid.uniform(_BALL3, 128)
    v = np.interp(grid.nodes, [0.0, 0.5], [1.0, 0.0])
    v[40] = bad
    with pytest.raises(ValueError, match="non-finite"):
        entry(v, grid)


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


@pytest.mark.parametrize("domain", [dl.RevolutionManifold.ball(3, 1.0),
                                    dl.RevolutionManifold.ball(4, 1.0),
                                    dl.RevolutionManifold.spherical_cap(3, 2.0)],
                         ids=["ball3", "ball4", "cap3"])
def test_holder_chain_matches_whole_grid_weights_bit_for_bit(domain):
    # every weight is elementwise, so evaluating it on S alone changes no bit
    grids = (dl.RadialGrid.uniform(domain, 4096), dl.RadialGrid.for_density(domain, 2048, m=30.0))
    rhos = (dl.Constant(1.0), dl.GaussianRadial(30.0), dl.normalize(dl.GaussianRadial(5.0), domain))
    fns = (dl.build_collar_function(domain, 0.1, 0.3), dl.build_plateau_function(domain, 0.1, 0.4))
    alpha_max = (domain.n - 2) / domain.n
    for grid in grids:
        for rho in rhos:
            for u in fns:
                for alpha in (0.05 * alpha_max, 0.9 * alpha_max):
                    got = dl.holder_chain_check(domain, rho, alpha, u, grid)
                    assert got == oracles.holder_chain_whole_grid(domain, rho, alpha, u, grid)


_HOLDER_DOMAINS = (dl.RevolutionManifold.ball(3, 1.0), dl.RevolutionManifold.ball(4, 1.0),
                   dl.RevolutionManifold.spherical_cap(3, 2.0))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_holder_chain_blocked_sweep_matches_whole_grid(data):
    # grids of 2-4 blocks; the ramps of the profile, and so S, start and end
    # at random element positions, fractions of an element included
    domain = data.draw(st.sampled_from(_HOLDER_DOMAINS), label="domain")
    blocks = data.draw(st.integers(2, 4), label="blocks")
    n_el = (blocks - 1) * spectrum._BLOCK + data.draw(st.integers(1, spectrum._BLOCK), label="tail")
    grid = dl.RadialGrid.uniform(domain, n_el)
    at = st.floats(0.0, float(n_el), allow_nan=False)
    x = sorted(data.draw(st.lists(at, min_size=4, max_size=4), label="knots"))
    assume(x[3] - x[0] >= 2.0)  # a node inside the support, so S is not empty
    knots = tuple(domain.extent * xi / n_el for xi in x)
    if data.draw(st.booleans(), label="collar"):
        u = TestFunction(knots=knots[2:], knot_values=(1.0, 0.0), left_value=1.0)
    else:
        u = TestFunction(knots=knots, knot_values=(0.0, 1.0, 1.0, 0.0))
    rho = data.draw(st.sampled_from([dl.Constant(1.0), dl.GaussianRadial(3.0),
                                     dl.GaussianRadial(300.0)]), label="rho")
    alpha = (domain.n - 2) / domain.n * data.draw(st.floats(0.01, 0.99), label="alpha share")
    got = dl.holder_chain_check(domain, rho, alpha, u, grid)
    want = oracles.holder_chain_whole_grid(domain, rho, alpha, u, grid)
    for name in ("energy", "after_first", "after_second"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-13, abs=0.0)
    # the slacks are differences of those: relative to the report's scale, as in ``holds``
    scale = max(abs(want.energy), abs(want.after_second))
    for name in ("first_slack", "second_slack"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-13 * scale


def test_holder_chain_allocates_no_window_sized_temporaries():
    # the plateau's support reaches 0.9 of the radius, so S spans most of
    # the 2^16-element grid, where one (N, 2) float array alone is 1 MB
    ball = dl.RevolutionManifold.ball(3, 1.0)
    grid = dl.RadialGrid.uniform(ball, 2 ** 16)
    u = dl.build_plateau_function(ball, 0.1, 0.45)
    for rho in (dl.Constant(1.0), dl.GaussianRadial(10.0)):
        dl.holder_chain_check(ball, rho, 0.2, u, grid)
        tracemalloc.start()
        try:
            dl.holder_chain_check(ball, rho, 0.2, u, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def test_holder_chain_checks_densities_on_s_alone():
    ball = dl.RevolutionManifold.ball(3, 1.0)
    grid = dl.RadialGrid.uniform(ball, 3 * spectrum._BLOCK + 7)
    # S of the first function ends at r = 0.8, of the second at r = 1
    inside = dl.build_plateau_function(ball, 0.1, 0.4)
    rep = dl.holder_chain_check(ball, _InfiniteBeyond(), 0.2, inside, grid)
    assert rep == dl.holder_chain_check(ball, dl.Constant(1.0), 0.2, inside, grid)
    with pytest.raises(ValueError, match="non-finite weight"):
        dl.holder_chain_check(ball, _InfiniteBeyond(), 0.2,
                              dl.build_plateau_function(ball, 0.1, 0.5), grid)
    flat = TestFunction(knots=(0.0, 0.5), knot_values=(0.0, 0.0))
    with pytest.raises(ValueError, match="empty gradient support"):
        dl.holder_chain_check(ball, _InfiniteBeyond(), 0.2, flat, grid)


def test_rayleigh_quotient_of_interval_eigenfunctions_within_p1_error():
    # the P1 interpolant of cos(k pi (x + 1) / 2) has quotient
    # (k pi / 2)^2 (1 + (k pi h)^2 / 48 + ...); rounding of the summed forms
    # must stay far below that even for k = 1 at N = 2^16
    iv = dl.Interval(-1.0, 1.0)
    n_el = 2 ** 16
    grid = dl.RadialGrid.uniform(iv, n_el)
    h = 2.0 / n_el
    for k in range(1, 21):
        u = np.cos(k * math.pi * (grid.nodes + 1.0) / 2.0)
        q = dl.rayleigh_quotient(iv, dl.Constant(1.0), 0.5, u, grid)
        assert abs(q / (k * math.pi / 2) ** 2 - 1.0) <= (k * math.pi * h) ** 2 / 24, k


_IV, _DISK = dl.Interval(-1.0, 1.0), dl.RevolutionManifold.ball(2, 1.0)
# a domain, disjointly supported test functions (all but the fourth interval
# one, which is for the quotient alone) and a smooth nodal function
_QUOTIENT_CASES = {
    "interval": (_IV,
                 [dl.build_plateau_function(_IV, 0.0, 0.12, center=c) for c in (-0.6, 0.0, 0.6)]
                 + [dl.build_plateau_function(_IV, 0.05, 0.08, center=-1.0)],
                 lambda x: np.cos(math.pi * (x + 1.0) / 2.0)),
    "disk": (_DISK,
             [dl.build_plateau_function(_DISK, r, R)
              for r, R in ((0.0, 1.0 / 32.0), (1.0 / 8.0, 1.0 / 8.0), (0.5, 0.5))],
             lambda r: np.cos(math.pi * r)),
}


@pytest.mark.parametrize("name", list(_QUOTIENT_CASES))
def test_quotients_match_extended_precision_element_sums(name):
    domain, fns, smooth = _QUOTIENT_CASES[name]
    grid = dl.RadialGrid.uniform(domain, 2 ** 16)
    rho, alpha = dl.GaussianRadial(30.0), 0.7
    problem = ModeProblem(domain=domain, rho=rho, alpha=alpha, grid=grid)
    refs = [oracles.element_form_quotient(problem, u.sample(domain, grid)) for u in fns]
    got = dl.minmax_bound(domain, rho, alpha, fns[:3], grid)
    assert got == pytest.approx(max(refs[:3]), rel=1e-13, abs=0.0)
    for u, ref in zip(fns, refs):
        assert dl.rayleigh_quotient(domain, rho, alpha, u, grid) == pytest.approx(
            ref, rel=1e-13, abs=0.0)
    v = smooth(grid.nodes)
    assert dl.rayleigh_quotient(domain, rho, alpha, v, grid) == pytest.approx(
        oracles.element_form_quotient(problem, v), rel=1e-13, abs=0.0)


class _Unevaluable(dl.DensityField):
    def _raw(self, r):
        raise AssertionError("density evaluated")


def test_minmax_needs_a_test_function():
    iv = dl.Interval(-1.0, 1.0)
    with pytest.raises(ValueError, match="minmax_bound needs at least one test function"):
        dl.minmax_bound(iv, _Unevaluable(), 0.5, [], dl.RadialGrid.uniform(iv, 64))


_BLOCK_SIZES = (spectrum._BLOCK - 1, spectrum._BLOCK, spectrum._BLOCK + 1,
                2 * spectrum._BLOCK + 3)


@st.composite
def _blocked_case(draw):
    """A domain, a grid of one to three sweep blocks, 1 to 4 plateaus or caps and a
    smooth nodal function.

    Consecutive supports lie a few elements apart, touch or overlap, and a
    support edge lies within three elements of a block edge, or anywhere.
    """
    domain = draw(st.sampled_from([_IV, _DISK]))
    grid = dl.RadialGrid.uniform(domain, draw(st.sampled_from(_BLOCK_SIZES)))
    nodes = grid.nodes
    h = nodes[1] - nodes[0]
    block_edges = list(nodes[spectrum._BLOCK::spectrum._BLOCK]) or [nodes[-1]]
    edge = draw(st.sampled_from(block_edges)) + draw(st.floats(min_value=-3.0,
                                                               max_value=3.0)) * h
    at_edge = draw(st.booleans())
    gap = st.floats(min_value=-1.5, max_value=3.0).map(lambda g: g * h)  # < 0: overlap
    inner = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=1.0))  # r / R
    count = draw(st.integers(min_value=1, max_value=4))
    fns = []
    if domain is _DISK:
        # nested, from the outermost support edge inwards
        outer = edge if at_edge else draw(st.floats(min_value=0.3, max_value=1.0))
        while len(fns) < count and outer > 0.005:
            big_r = min(outer, 1.0) / 2
            r = draw(inner if len(fns) == count - 1 else inner.filter(bool)) * big_r
            fns.append(dl.build_plateau_function(domain, r, big_r))
            outer = r / 2 - draw(gap)
    else:
        # side by side from a left end in [-1.2, -0.2], or shifted so that one
        # support edge (outer or inner) lies at ``edge``; caps and plateaus past
        # an end of the interval are cut off there
        shapes = [(draw(st.floats(min_value=0.01, max_value=0.08)), draw(inner))
                  for _ in range(count)]
        centers, right = [], 0.0
        for big_r, _ in shapes:
            centers.append(right + 2 * big_r + draw(gap))
            right = centers[-1] + 2 * big_r
        shift = draw(st.floats(min_value=-1.2, max_value=-0.2))
        if at_edge:
            j = draw(st.integers(min_value=0, max_value=count - 1))
            big_r, frac = shapes[j]
            side = draw(st.sampled_from([-2.0, 2.0, -frac / 2, frac / 2])) * big_r
            shift = edge - centers[j] - side
        fns = [dl.build_plateau_function(domain, frac * big_r, big_r, center=c + shift)
               for (big_r, frac), c in zip(shapes, centers) if -1.0 <= c + shift <= 1.0]
        assume(fns)
    smooth = np.cos(draw(st.floats(min_value=0.5, max_value=20.0)) * nodes)
    return domain, grid, fns, smooth


@settings(max_examples=80, deadline=None)
@given(_blocked_case(), st.sampled_from([dl.Constant(1.0), dl.GaussianRadial(30.0)]),
       st.floats(min_value=0.0, max_value=1.0))
def test_blocked_sweep_matches_whole_grid_references(case, rho, alpha):
    domain, grid, fns, smooth = case
    problem = ModeProblem(domain=domain, rho=rho, alpha=alpha, grid=grid)
    values = [u.sample(domain, grid) for u in fns]
    refs = [oracles.element_form_quotient(problem, v) for v in values]
    for u, ref in zip(fns, refs):
        assert dl.rayleigh_quotient(domain, rho, alpha, u, grid) == pytest.approx(
            ref, rel=1e-13, abs=0.0)
    assert dl.rayleigh_quotient(domain, rho, alpha, smooth, grid) == pytest.approx(
        oracles.element_form_quotient(problem, smooth), rel=1e-13, abs=0.0)
    pair = oracles.overlapping_pair(values)
    if pair is None:
        assert dl.minmax_bound(domain, rho, alpha, fns, grid) == pytest.approx(
            max(refs), rel=1e-13, abs=0.0)
    else:
        with pytest.raises(ValueError, match=f"supports of test functions {pair[0]} "
                                             f"and {pair[1]} overlap"):
            dl.minmax_bound(domain, rho, alpha, fns, grid)


@pytest.mark.parametrize("domain", [_IV, _DISK], ids=["interval", "disk"])
def test_profile_nonzero_at_its_last_knot(domain):
    # a step, 1 for d <= 1/4 (a grid node) and 0 past it: the element just
    # past d = 1/4 carries the whole gradient
    grid = dl.RadialGrid.uniform(domain, spectrum._BLOCK)
    h = grid.nodes[1] - grid.nodes[0]
    rho, alpha = dl.GaussianRadial(30.0), 0.5
    problem = ModeProblem(domain=domain, rho=rho, alpha=alpha, grid=grid)
    step = TestFunction(knots=(0.25,), knot_values=(1.0,), left_value=1.0)
    ref = oracles.element_form_quotient(problem, step.sample(domain, grid))
    assert dl.rayleigh_quotient(domain, rho, alpha, step, grid) == pytest.approx(
        ref, rel=1e-13, abs=0.0)
    # a ring, nonzero from d = 1/4 + gap h on: disjoint from the step for gap 2,
    # sharing the step's last element for gap 1
    for gap in (2, 1):
        ring = TestFunction(knots=(0.25 + (gap - 1) * h, 0.3, 0.4),
                            knot_values=(0.0, 1.0, 0.0))
        values = [u.sample(domain, grid) for u in (step, ring)]
        if gap == 2:
            assert oracles.overlapping_pair(values) is None
            assert dl.minmax_bound(domain, rho, alpha, [step, ring], grid) == pytest.approx(
                max(ref, oracles.element_form_quotient(problem, values[1])),
                rel=1e-13, abs=0.0)
        else:
            assert oracles.overlapping_pair(values) == (0, 1)
            with pytest.raises(ValueError, match="supports of test functions 0 and 1 overlap"):
                dl.minmax_bound(domain, rho, alpha, [step, ring], grid)


class _InfiniteBeyond(dl.DensityField):
    """1 for |x| <= 0.9, inf beyond."""

    def _raw(self, r):
        return np.where(np.abs(r) > 0.9, np.inf, 1.0)


@pytest.mark.parametrize("n_el", _BLOCK_SIZES)
@pytest.mark.parametrize("domain", [_IV, _DISK], ids=["interval", "disk"])
def test_nonfinite_density_outside_every_support_raises(domain, n_el):
    # the sweep evaluates the densities on every block, not only where a
    # test function lives
    grid = dl.RadialGrid.uniform(domain, n_el)
    center = 0.0 if domain is _IV else None
    fns = [dl.build_plateau_function(domain, 0.0, 0.05, center=center),
           dl.build_plateau_function(domain, 0.3, 0.3, center=center)]
    with pytest.raises(ValueError, match="non-finite"):
        dl.minmax_bound(domain, _InfiniteBeyond(), 0.5, fns, grid)
    with pytest.raises(ValueError, match="non-finite"):
        dl.rayleigh_quotient(domain, _InfiniteBeyond(), 0.5, fns[0], grid)


def test_quotient_sweeps_allocate_no_grid_sized_temporaries():
    # at N = 2^16 one (N, 2) float array alone is 1 MB; the sweep's
    # temporaries span one block
    grid_disk = dl.RadialGrid.uniform(_DISK, 2 ** 16)
    grid_iv = dl.RadialGrid.uniform(_IV, 2 ** 16)
    fns = _QUOTIENT_CASES["disk"][1]
    u = np.cos(3.0 * math.pi * (grid_iv.nodes + 1.0) / 2.0)
    calls = (lambda: dl.minmax_bound(_DISK, dl.GaussianRadial(30.0), 0.7, fns, grid_disk),
             lambda: dl.rayleigh_quotient(_IV, dl.Constant(1.0), 0.5, u, grid_iv))
    for call in calls:
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


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


@pytest.mark.parametrize("n", [2, 3])
def test_scaling_identity_holds_on_every_mode(n):
    # the element-form numerator keeps the identity to rounding on the
    # angular modes too
    dom = dl.RevolutionManifold.ball(n, 1.0)
    grid = dl.RadialGrid.uniform(dom, 1024)
    rho = dl.GaussianRadial(5.0)
    res = dl.full_spectrum(dom, rho, 0.5, 8, grid=grid)
    assert len(res.modes) >= 3
    for c in (1e-3, 1e3):
        scaled = dl.full_spectrum(dom, dl.scale(rho, c), 0.5, 8, grid=grid).lambdas
        assert np.allclose(scaled[1:], c ** -0.5 * res.lambdas[1:], rtol=1e-13, atol=0.0)


def _flat_ball_1024():
    ball = dl.RevolutionManifold.ball(3, 1.0)
    return ball, dl.RadialGrid.uniform(ball, 1024)


def _conformal_ball_1024():
    ball = dl.RevolutionManifold.ball(3, 1.0)
    rho = dl.normalize(dl.GaussianRadial(1.0), ball)
    tilde = dl.conformal_reparametrize(ball, rho, dl.RadialGrid.uniform(ball, 1024))
    return tilde, dl.RadialGrid.uniform(tilde, 1024)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="needs an extended-precision np.longdouble")
@pytest.mark.parametrize("case", [_flat_ball_1024, _conformal_ball_1024])
def test_lambda_1_matches_an_extended_precision_oracle(case):
    # lambda_1 (mode 1) of the flat Weyl fit's 3-ball and of the conformal
    # check's reparametrized one: rounding K_1 = G + mu_1 A into its bands
    # moves this eigenvalue by about 5e-11; the element-form numerator
    # keeps the solve on the element forms' eigenvalue
    dom, grid = case()
    res = dl.full_spectrum(dom, dl.Constant(1.0), 0.0, 3, grid=grid)
    assert [row[2] for row in res.slot_entries()] == [0, 1, 1, 1]
    problem = ModeProblem(domain=dom, rho=dl.Constant(1.0), alpha=0.0, grid=grid, j=1)
    shift = oracles.dense_pencil_eigenvalues(assemble(problem), 1)[0]
    exact = oracles.element_form_eigenvalue(problem, shift)
    assert abs(res.lambdas[1] - exact) <= 1e-14 * exact


def test_homothety_transports_spectrum():
    disk = dl.RevolutionManifold.ball(2, 1.0)
    rho = dl.GaussianRadial(4.0)
    lam = dl.full_spectrum(disk, rho, 0.5, 2,
                           grid=dl.RadialGrid.uniform(disk, 512)).lambdas
    for c in (0.5, 3.0):
        big = oracles.homothety(disk, c)
        moved = oracles.stretched(rho, math.sqrt(c))
        lam_c = dl.full_spectrum(big, moved, 0.5, 2,
                                 grid=dl.RadialGrid.uniform(big, 512)).lambdas
        assert np.allclose(lam_c[1:], lam[1:] / c, rtol=1e-8)


def test_alpha_endpoints_reproduce_direct_pencils():
    # alpha = 0 is the (rho, 1) problem; alpha = 1 the (rho, rho) problem
    iv = dl.Interval(-1.0, 1.0)
    grid = dl.RadialGrid.uniform(iv, 128)
    rho = dl.GaussianRadial(3.0)
    p_rho = assemble(ModeProblem(domain=iv, rho=rho, alpha=0.0, grid=grid))
    p_flat = assemble(ModeProblem(domain=iv, rho=dl.Constant(1.0), alpha=0.0, grid=grid))
    assert np.array_equal(p_rho.k_diag, p_flat.k_diag)
    assert np.array_equal(p_rho.k_off, p_flat.k_off)
    assert dl.power(rho, 1.0) is rho
    forms = element_forms(ModeProblem(domain=iv, rho=rho, alpha=1.0, grid=grid))
    assert np.array_equal(forms.wk, forms.wm)  # sigma = rho at every Gauss point


def test_spectrum_serialization(tmp_path, capsys):
    # a spectrum is written by the command line's common report writer: the
    # CSV one row per slot under a fixed header, the JSON the same rows
    iv = dl.Interval(-1.0, 1.0)
    res = dl.full_spectrum(iv, dl.Constant(1.0), 0.0, 3,
                           grid=dl.RadialGrid.uniform(iv, 128))
    argv = ["solve", "--n", "1", "--alpha", "0.0", "--kmax", "3",
            "--density", "constant:1", "--grid", "128"]
    assert cli_main([*argv, "--out", str(tmp_path / "csv")]) == 0
    lines = (tmp_path / "csv" / "solve.csv").read_text().strip().splitlines()
    assert lines[0] == "k,lambda,mode_j,multiplicity"
    assert len(lines) == 5

    assert cli_main([*argv, "--format", "json", "--out", str(tmp_path / "json")]) == 0
    capsys.readouterr()
    with open(tmp_path / "json" / "solve.json") as fh:
        payload = json.load(fh)
    assert payload["rows"][0]["k"] == 0
    assert [row["lambda"] for row in payload["rows"]] == list(res.lambdas)
    assert payload["metadata"]["config"]["k_max"] == 3
    assert payload["metadata"]["counts"] == list(res.counts)


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
        if pairs.path == "zero":  # the zero mode alone: lambda_0 == 0 exactly, above
            continue
        count = len(pairs.values)
        pencil = assemble(ModeProblem(domain=dom, rho=rho, alpha=alpha, grid=fine_grid, j=j))
        prolonged = spectrum._start_vectors(coarse, fine_grid.nodes, j, count,
                                            pencil.problem.pole_constrained)
        if prolonged is None:  # the start solved this mode for fewer pairs, or not at all
            assert pairs.path == "sturm" and pairs.refused is None
            continue
        # a warm start either ran or says why not
        assert (pairs.path == "rqi") != (pairs.refused is not None)
        # nested conforming spaces (Poincare separation): the fine pencil's
        # Ritz values on the prolonged coarse vectors bound its eigenvalues
        ritz = oracles.element_form_ritz_values(pencil, prolonged)
        assert np.all(pairs.values <= ritz + 1e-10 * ritz[-1])


def test_wrong_start_is_refused_and_solved_cold():
    # the start's vectors are localized at the pole (m = 1e4): RQI from them
    # lands on eigenvalues with 112 (j = 0, pair 1, the zero column
    # deflated), 83 (j = 1, pair 0) and 80 (j = 2, pair 0) others below, so
    # the count refuses every mode (k_max 5 plans 2, 1, 1 pairs on both grids)
    disk = dl.RevolutionManifold.ball(2, 1.0)
    start = dl.full_spectrum(disk, dl.GaussianRadial(1e4), 0.75, 5,
                             grid=dl.RadialGrid.uniform(disk, 256))
    grid = dl.RadialGrid.uniform(disk, 512)
    warm = dl.full_spectrum(disk, dl.GaussianRadial(1.0), 0.75, 5, grid=grid, start=start)
    cold = dl.full_spectrum(disk, dl.GaussianRadial(1.0), 0.75, 5, grid=grid)
    assert start.counts == warm.counts == (2, 1, 1)
    assert warm.paths == cold.paths == {0: "sturm", 1: "sturm", 2: "sturm"}
    assert warm.modes[0].refused.startswith("warm start refused: pair 1")
    assert warm.modes[1].refused.startswith("warm start refused: pair 0")
    assert warm.modes[2].refused.startswith("warm start refused: pair 0")
    for j, pairs in warm.modes.items():
        assert cold.modes[j].refused is None
        assert np.array_equal(pairs.values, cold.modes[j].values)
        assert np.array_equal(pairs.vectors, cold.modes[j].vectors)
    assert np.array_equal(warm.lambdas, cold.lambdas)


def test_a_start_lends_its_plan_when_its_counts_hold(monkeypatch):
    # the m = 10 blow-up row's grids: the N 512 spectrum keeps the N 256
    # cutoff, with no search; a start of k_max 1 fills 3 of the 6 slots of
    # k_max 5, so that spectrum searches from its cutoff as before, with the
    # same counts
    searched = []
    cutoff = spectrum._cutoff
    monkeypatch.setattr(spectrum, "_cutoff", lambda *a: searched.append(a) or cutoff(*a))
    disk, rho = _WARM_DOMAINS["disk"], dl.GaussianRadial(10.0)
    coarse_grid, fine_grid = (dl.RadialGrid.for_density(disk, n, m=10.0) for n in (256, 512))
    coarse = dl.full_spectrum(disk, rho, 0.75, 1, grid=coarse_grid)
    searched.clear()
    kept = dl.full_spectrum(disk, rho, 0.75, 1, grid=fine_grid, start=coarse)
    assert not searched and kept.counts_spent["plan"] <= 5
    assert kept.cutoff == coarse.cutoff and kept.counts == coarse.counts == (1, 1)
    wider = dl.full_spectrum(disk, rho, 0.75, 5, grid=fine_grid, start=coarse)
    assert len(searched) == 1 and searched[0][1] == coarse.cutoff
    assert wider.cutoff == 65.10066978722291 and wider.counts == (2, 1, 1)
    assert wider.counts_spent == {"plan": 22, "solve": 11}
    for res, k_max in ((kept, 1), (wider, 5)):
        cold = dl.full_spectrum(disk, rho, 0.75, k_max, grid=fine_grid)
        assert np.allclose(res.lambdas, cold.lambdas, rtol=1e-10, atol=0.0)


def _spy_on_dgtsv(monkeypatch):
    """A list that records, per ``dgtsv`` call, whether its matrix was exactly singular."""
    dgtsv, singular = eigensolver.dgtsv, []

    def spy(*args):
        out = dgtsv(*args)
        singular.append(out[-1] != 0)
        return out

    monkeypatch.setattr(eigensolver, "dgtsv", spy)
    return singular


def test_exactly_singular_shifted_solve_keeps_the_warm_start(monkeypatch):
    # mode 2's second RQI step meets an exactly zero dgtsv pivot (the last
    # one): the first step's quotient is an eigenvalue to working precision,
    # but that step's residual is not yet at rounding level
    ball, m = dl.RevolutionManifold.ball(3, 1.0), 10 ** 0.2463
    rho = dl.GaussianRadial(m)
    coarse_grid, fine_grid = (dl.RadialGrid.for_density(ball, n, m=m) for n in (64, 128))
    coarse = dl.full_spectrum(ball, rho, 0.5, 4, grid=coarse_grid)
    singular = _spy_on_dgtsv(monkeypatch)
    warm = dl.full_spectrum(ball, rho, 0.5, 4, grid=fine_grid, start=coarse)
    monkeypatch.undo()
    cold = dl.full_spectrum(ball, rho, 0.5, 4, grid=fine_grid)
    assert any(singular)
    assert warm.modes[2].path == "rqi" and warm.modes[2].refused is None
    for j, pairs in warm.modes.items():
        assert np.allclose(pairs.values, cold.modes[j].values, rtol=1e-10, atol=0.0)
    assert np.allclose(warm.lambdas, cold.lambdas, rtol=1e-10, atol=0.0)


_SINGULAR_STARTS = {
    "disk-m10^0.62-a0.625-j0": ("disk", 10 ** 0.62, 0.625, 128, 0),
    "disk-m1e3-a1-j1": ("disk", 1e3, 1.0, 64, 1),
    "ball-m10^3.0059-a1-j1": ("ball", 10 ** 3.0059, 1.0, 64, 1),
}


@pytest.mark.parametrize("name", list(_SINGULAR_STARTS))
def test_warm_starts_once_refused_by_orthonormality_are_kept(name, monkeypatch):
    # in a sweep of warm starts at k_max 4, modes whose warm spectrum met an
    # exactly singular shifted solve failed the M-orthonormality gate and were
    # solved cold; these inputs meet one (mode j's, in the search that pinned
    # them), and must stay warm and agree with the cold solve
    dom_name, m, alpha, n_el, j = _SINGULAR_STARTS[name]
    dom, rho = _WARM_DOMAINS[dom_name], dl.GaussianRadial(m)
    coarse_grid, fine_grid = (dl.RadialGrid.for_density(dom, n, m=m) for n in (n_el, 2 * n_el))
    coarse = dl.full_spectrum(dom, rho, alpha, 4, grid=coarse_grid)
    singular = _spy_on_dgtsv(monkeypatch)
    warm = dl.full_spectrum(dom, rho, alpha, 4, grid=fine_grid, start=coarse)
    monkeypatch.undo()
    cold = dl.full_spectrum(dom, rho, alpha, 4, grid=fine_grid)
    assert any(singular)
    assert warm.modes[j].path == "rqi" and warm.modes[j].refused is None
    assert np.allclose(warm.modes[j].values, cold.modes[j].values, rtol=1e-10, atol=0.0)
    assert np.allclose(warm.lambdas, cold.lambdas, rtol=1e-10, atol=0.0)
