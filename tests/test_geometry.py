import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

from densilab import (Interval, RadialGrid, RevolutionManifold,
                      Constant, GaussianRadial, conformal_reparametrize,
                      sphere_eigenvalue, sphere_multiplicity, total_mass, volume)
from densilab.geometry import pchip

from oracles import homothety


def test_interval_volume_is_length():
    assert volume(Interval(-1.0, 1.0)) == 2.0
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)


def test_flat_disk_and_ball_volumes():
    disk = RevolutionManifold.ball(2, 1.0)
    ball = RevolutionManifold.ball(3, 1.0)
    # the r and r^2 profiles are integrated exactly by the 2-point rule
    assert volume(disk) == pytest.approx(math.pi, rel=1e-14)
    assert volume(ball) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


def test_sphere_eigenvalues():
    assert sphere_eigenvalue(0, 3) == 0.0
    assert sphere_eigenvalue(1, 2) == 1.0
    assert sphere_eigenvalue(2, 3) == 6.0
    assert sphere_eigenvalue(5, 4) == 5 * 7
    with pytest.raises(ValueError):
        sphere_eigenvalue(1, 1)
    with pytest.raises(ValueError):
        sphere_eigenvalue(-1, 3)


def test_sphere_eigenvalue_strictly_increasing():
    for n in (2, 3, 4):
        mus = [sphere_eigenvalue(j, n) for j in range(10)]
        assert mus[0] == 0.0
        assert np.all(np.diff(mus) > 0)


def test_sphere_multiplicities():
    assert sphere_multiplicity(0, 3) == 1
    assert sphere_multiplicity(1, 3) == 3
    assert sphere_multiplicity(2, 2) == 2
    assert sphere_multiplicity(0, 2) == 1
    assert all(sphere_multiplicity(j, 2) == 2 for j in range(1, 8))
    with pytest.raises(ValueError):
        sphere_multiplicity(0, 1)
    with pytest.raises(ValueError, match=">= 0"):
        sphere_multiplicity(-1, 3)


def test_multiplicity_sums_match_polynomial_dimensions():
    # sum_{j<=J} mult(j, n) = dim of harmonic polynomials of degree <= J
    #                       = C(n+J-1, J) + C(n+J-2, J-1)
    for n in (2, 3):
        for J in range(0, 9):
            total = sum(sphere_multiplicity(j, n) for j in range(J + 1))
            expect = math.comb(n + J - 1, J) + (math.comb(n + J - 2, J - 1) if J else 0)
            assert total == expect


def test_pole_validation():
    with pytest.raises(ValueError, match="vanish"):
        RevolutionManifold(2, 1.0, lambda r: np.asarray(r) + 0.1)
    with pytest.raises(ValueError, match="positive"):
        RevolutionManifold(2, 4.0, np.sin)  # sin dips negative before r=4
    with pytest.raises(ValueError, match="slope"):
        RevolutionManifold(2, 1.0, lambda r: 2.0 * np.asarray(r))
    with pytest.raises(ValueError):
        RevolutionManifold.spherical_cap(2, 3.5)
    with pytest.raises(ValueError, match="integer >= 2"):
        RevolutionManifold(1.5, 1.0, np.sin)
    with pytest.raises(ValueError, match="extent must be positive"):
        RevolutionManifold(2, 0.0, np.sin)


def test_grid_validation():
    iv = Interval(0.0, 1.0)
    with pytest.raises(ValueError, match="8 elements"):
        RadialGrid(np.linspace(0, 1, 5), iv)
    with pytest.raises(ValueError, match="increasing"):
        RadialGrid(np.zeros(20), iv)
    with pytest.raises(ValueError, match="endpoints"):
        RadialGrid(np.linspace(0, 0.5, 33), iv)


@pytest.mark.parametrize("at", [0, 5, 32])
def test_grid_refuses_a_nan_node(at):
    nodes = np.linspace(0.0, 1.0, 33)
    nodes[at] = np.nan
    for domain in (None, Interval(0.0, 1.0)):
        with pytest.raises(ValueError, match="increasing"):
            RadialGrid(nodes, domain)


def test_graded_grids_are_nested():
    disk = RevolutionManifold.ball(2, 1.0)
    coarse = RadialGrid.graded(disk, 64)
    fine = RadialGrid.graded(disk, 128)
    assert np.allclose(fine.nodes[::2], coarse.nodes)
    iv = Interval(-1.0, 1.0)
    coarse = RadialGrid.graded(iv, 64)
    fine = RadialGrid.graded(iv, 128)
    assert np.allclose(fine.nodes[::2], coarse.nodes)
    # grading really concentrates nodes near the localization scale
    assert np.sum(np.abs(coarse.nodes) < 0.1) > np.sum(np.abs(np.linspace(-1, 1, 65)) < 0.1)


def test_homothety_identity_and_scaling():
    disk = RevolutionManifold.ball(2, 1.0)
    same = homothety(disk, 1.0)
    r = np.linspace(0, 1, 11)
    assert np.allclose(same.profile(r), disk.profile(r))

    big = homothety(disk, 4.0)
    assert big.R == pytest.approx(2.0)
    assert volume(big) == pytest.approx(4.0 * math.pi, rel=1e-12)

    ball = RevolutionManifold.ball(3, 1.0)
    assert volume(homothety(ball, 2.0)) / volume(ball) == pytest.approx(2 ** 1.5, rel=1e-12)
    with pytest.raises(ValueError):
        homothety(disk, 0.0)


def test_homothety_volume_scaling_for_cap_profile():
    cap = RevolutionManifold.spherical_cap(2, 1.2)
    for c in (0.3, 2.0, 7.5):
        assert volume(homothety(cap, c)) == pytest.approx(
            c * volume(cap), rel=1e-10)


def test_conformal_identity_factor():
    disk = RevolutionManifold.ball(2, 1.0)
    out = conformal_reparametrize(disk, Constant(1.0))
    assert out.R == pytest.approx(1.0, rel=1e-12)
    r = np.linspace(0, 1, 17)
    assert np.allclose(out.profile(r), r, atol=1e-10)


def test_conformal_constant_is_homothety():
    disk = RevolutionManifold.ball(2, 1.0)
    c = 2.5
    out = conformal_reparametrize(disk, Constant(c))
    assert out.R == pytest.approx(math.sqrt(c), rel=1e-12)
    assert volume(out) == pytest.approx(c * math.pi, rel=1e-10)


def test_conformal_volume_matches_mass():
    # volume of the reparametrized manifold = total mass of the density
    disk = RevolutionManifold.ball(2, 1.0)
    rho = GaussianRadial(1.0)
    grid = RadialGrid.uniform(disk, 2048)
    out = conformal_reparametrize(disk, rho, grid)
    mass = total_mass(rho, disk, grid)
    assert volume(out, RadialGrid.uniform(out, 2048)) == pytest.approx(mass, rel=1e-6)


def test_conformal_rejects_nonradial():
    disk = RevolutionManifold.ball(2, 1.0)

    class NotRadial:
        is_radial = False

    with pytest.raises(ValueError, match="radial"):
        conformal_reparametrize(disk, NotRadial())


def test_tabulated_profile_roundtrip():
    r = np.linspace(0.0, 1.0, 257)
    m = RevolutionManifold.tabulated(2, r, np.sin(r))
    assert abs(m.profile(np.array([0.37]))[0] - math.sin(0.37)) < 1e-8


def _samples(rng, n, shape):
    """Strictly increasing x of n points and y of the named shape."""
    x = rng.uniform(-50.0, 50.0) + np.cumsum(rng.uniform(1e-3, 5.0, n))
    if shape == "monotone":  # with flat runs where a step is 0
        y = np.cumsum(rng.choice([0.0, 1.0], n) * rng.exponential(1.0, n))
    elif shape == "flat":
        y = np.full(n, rng.normal())
    elif shape == "oscillating":
        y = (-1.0) ** np.arange(n) * rng.uniform(0.0, 3.0, n)
    else:
        y = rng.normal(0.0, 10.0, n)
    return x, y


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=60),
       st.sampled_from(["monotone", "flat", "oscillating", "random"]),
       st.integers(min_value=0, max_value=2 ** 31))
def test_pchip_is_scipys_bit_for_bit(n, shape, seed):
    rng = np.random.default_rng(seed)
    x, y = _samples(rng, n, shape)
    width = x[-1] - x[0]
    q = np.concatenate([x, [x[0], x[-1], -0.0], rng.uniform(x[0], x[-1], 40),
                        x[0] - rng.uniform(0.0, width, 5), x[-1] + rng.uniform(0.0, width, 5)])
    ours, theirs = pchip(x, y), PchipInterpolator(x, y)
    assert ours(q).tobytes() == theirs(q).tobytes()
    # the query's shape carries over, a scalar's too
    grid = q[:40].reshape(5, 8)
    assert ours(grid).shape == (5, 8) and ours(grid).tobytes() == theirs(grid).tobytes()
    assert ours(q[7]).shape == () and ours(q[7]).tobytes() == theirs(q[7]).tobytes()


def test_pchip_takes_one_dimensional_samples_only():
    # scipy interpolates each column of 2-D samples; a profile has one
    x = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="`y` must be 1-dimensional"):
        pchip(x, np.stack([x, x], axis=1))


def test_pchip_sum_starts_from_zero():
    # every term at the knot x = 2.6 is -0.0; scipy's sum starts from 0.0
    x, y = [1.5, 2.6, 4.5, 6.1], [0.04, -0.0, -0.22, -1.25]
    assert pchip(x, y)(2.6).tobytes() == PchipInterpolator(x, y)(2.6).tobytes()
    assert not np.signbit(pchip(x, y)(2.6))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["not 1-D", "one point", "no points", "length mismatch",
                        "x not finite", "y not finite", "x repeats", "x decreases"]),
       st.integers(min_value=3, max_value=30), st.integers(min_value=0, max_value=2 ** 31))
def test_pchip_rejects_what_scipy_rejects(case, n, seed):
    rng = np.random.default_rng(seed)
    x, y = _samples(rng, n, "random")
    k = rng.integers(1, n - 1)
    if case == "not 1-D":
        x = np.stack([x, x])
    elif case == "one point":
        x, y = x[:1], y[:1]
    elif case == "no points":
        x, y = x[:0], y[:0]
    elif case == "length mismatch":
        y = y[:-1]
    elif case == "x not finite":
        x[k] = rng.choice([np.nan, np.inf, -np.inf])
    elif case == "y not finite":
        y[k] = rng.choice([np.nan, np.inf, -np.inf])
    elif case == "x repeats":
        x[k] = x[k - 1]
    else:
        x[k], x[k + 1] = x[k + 1], x[k]
    with pytest.raises(ValueError) as theirs:
        PchipInterpolator(x, y)
    with pytest.raises(ValueError) as ours:
        pchip(x, y)
    assert str(ours.value) == str(theirs.value)
