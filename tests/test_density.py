import math

import numpy as np
import pytest

import densilab as dl
from densilab.density import DENSITY_FLOOR

import oracles


def test_gaussian_pointwise():
    g = dl.GaussianRadial(1.0)
    assert g(0.0) == 1.0
    g2 = dl.GaussianRadial(2.0)
    assert g2(1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)


def test_cauchy_power_amplitude():
    # at x = 0 the value is (2a/(1-a))^(1/(1-a)); for a = 1/2 that is 4
    rho = dl.CauchyPower(123.4, 0.5)
    assert rho(0.0) == pytest.approx(4.0, rel=1e-15)
    with pytest.raises(ValueError):
        dl.CauchyPower(1.0, 1.0)
    with pytest.raises(ValueError):
        dl.CauchyPower(-1.0, 0.5)


def test_cauchy_power_defining_identity():
    # a/(1-a) * (rho^(a-1))'' == m at interior points (finite differences)
    for m, a in ((10.0, 0.3), (100.0, 0.5), (1e3, 0.7)):
        rho = dl.CauchyPower(m, a)
        x = np.linspace(-0.9, 0.9, 181)
        h = 1e-4
        w = rho(x) ** (a - 1.0)
        wp = rho(x + h) ** (a - 1.0)
        wm = rho(x - h) ** (a - 1.0)
        second = (wp - 2 * w + wm) / h ** 2
        lhs = a / (1.0 - a) * second
        assert np.max(np.abs(lhs - m)) < 1e-4 * m


def test_total_mass_basics():
    iv = dl.Interval(-1.0, 1.0)
    assert dl.total_mass(dl.Constant(1.0), iv) == pytest.approx(2.0, rel=1e-14)
    disk = dl.RevolutionManifold.ball(2, 1.0)
    assert dl.total_mass(dl.Constant(3.0), disk) == pytest.approx(3.0 * math.pi, rel=1e-13)


def test_gaussian_mass_lower_bound_and_oracle():
    # int_{-1}^{1} exp(-100 x^2) dx >= e^-1 * 100^(-1/2)
    iv = dl.Interval(-1.0, 1.0)
    mass = dl.total_mass(dl.GaussianRadial(100.0), iv)
    assert mass >= math.exp(-1.0) * 0.1
    assert mass == pytest.approx(oracles.gaussian_line_integral(100.0, 1.0), rel=1e-8)


def test_normalize():
    iv = dl.Interval(-1.0, 1.0)
    flat = dl.normalize(dl.Constant(5.0), iv)
    assert dl.total_mass(flat, iv) == pytest.approx(2.0, rel=1e-14)
    assert flat(0.3) == pytest.approx(1.0, rel=1e-14)

    rho = dl.normalize(dl.GaussianRadial(10.0), iv)
    assert dl.total_mass(rho, iv) == pytest.approx(2.0, rel=1e-10)

    # idempotent pointwise
    again = dl.normalize(rho, iv)
    x = np.linspace(-1, 1, 33)
    assert np.max(np.abs(again(x) - rho(x)) / rho(x)) < 1e-12


def test_power_closed_forms():
    rho = dl.GaussianRadial(3.0)
    assert isinstance(dl.power(rho, 0.0), dl.Constant)
    assert dl.power(rho, 0.0)(0.5) == 1.0
    assert dl.power(rho, 1.0) is rho
    half = dl.power(rho, 0.5)
    assert isinstance(half, dl.GaussianRadial) and half.m == 1.5
    c = dl.power(dl.Constant(4.0), 0.5)
    assert c(0.1) == 2.0


def test_power_beats_base_below_one():
    # rho <= 1 and a < 1 imply rho^a >= rho pointwise
    rho = dl.GaussianRadial(50.0)
    x = np.linspace(-1, 1, 201)
    for a in (0.2, 0.5, 0.9):
        assert np.all(dl.power(rho, a)(x) >= rho(x))


def test_floor_commutes_with_power_and_scale():
    rho = dl.GaussianRadial(1e4)
    x = np.array([0.9])  # deep underflow: exp(-8100)
    assert rho(x)[0] == DENSITY_FLOOR
    # rho^a floors at floor^a, so the stiffness/mass ratio stays physical
    a = 0.3
    assert dl.power(rho, a)(x)[0] == pytest.approx(DENSITY_FLOOR ** a, rel=1e-12)
    assert dl.scale(rho, 2.0)(x)[0] == pytest.approx(2.0 * DENSITY_FLOOR, rel=1e-12)
    pw = dl.power(dl.CauchyPower(10.0, 0.5), 0.5)
    assert pw(0.2) == pytest.approx(dl.CauchyPower(10.0, 0.5)(0.2) ** 0.5, rel=1e-14)


def test_scaled_power_algebra_is_exact():
    rho = dl.GaussianRadial(7.0)
    c, a = 13.0, 0.42
    lhs = dl.power(dl.scale(rho, c), a)
    x = np.linspace(-0.8, 0.8, 41)
    assert np.allclose(lhs(x), c ** a * dl.power(rho, a)(x), rtol=1e-15)


def test_stretched_families():
    g = dl.stretched(dl.GaussianRadial(8.0), 2.0)
    assert isinstance(g, dl.GaussianRadial) and g.m == 2.0
    cp = dl.stretched(dl.CauchyPower(8.0, 0.3), 2.0)
    assert cp.m == 2.0
    assert dl.stretched(dl.Constant(3.0), 5.0)(0.1) == 3.0


def test_tabulated_csv_roundtrip(tmp_path):
    r = np.linspace(0.0, 1.0, 65)
    vals = 1.0 + np.cos(r)
    path = tmp_path / "rho.csv"
    np.savetxt(path, np.column_stack([r, vals]), delimiter=",")
    rho = dl.Tabulated.from_csv(path)
    assert rho(0.5) == pytest.approx(1.0 + math.cos(0.5), abs=1e-6)
    with pytest.raises(ValueError, match="positive"):
        dl.Tabulated(r, vals - 2.0)
    np.savetxt(path, r, delimiter=",")
    with pytest.raises(ValueError, match="two columns"):
        dl.Tabulated.from_csv(path)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_closed_forms_reject_nonpositive_and_nonfinite_parameters(bad):
    for build in (dl.Constant, dl.GaussianRadial, lambda m: dl.CauchyPower(m, 0.5),
                  lambda c: dl.scale(dl.GaussianRadial(1.0), c)):
        with pytest.raises(ValueError, match="positive and finite"):
            build(bad)


def test_tabulated_rejects_points_outside_its_nodes():
    rho = dl.Tabulated([0.0, 0.25, 0.5], [1.0, 0.5, 0.1])
    assert rho(0.5 + 1e-13) == pytest.approx(0.1)
    with pytest.raises(ValueError, match="tabulated range"):
        rho(0.6)
    # the pchip extrapolation past r = 0.5 goes negative and was floored unseen
    disk = dl.RevolutionManifold.ball(2, 1.0)
    with pytest.raises(ValueError, match="tabulated range"):
        dl.full_spectrum(disk, rho, 0.5, 3, grid=dl.RadialGrid.uniform(disk, 64))


def test_density_config_roundtrip(tmp_path):
    from densilab import density as density_mod
    path = tmp_path / "rho.csv"
    path.write_text("0.0,3.0\n0.4,2.0\n1.0,0.5\n")
    x = np.linspace(0.0, 0.9, 17)
    for cfg, rho in (({"kind": "constant", "c": 2.0}, dl.Constant(2.0)),
                     ({"kind": "constant"}, dl.Constant(1.0)),
                     ({"kind": "gaussian", "m": 3.0}, dl.GaussianRadial(3.0)),
                     ({"kind": "cauchy_power", "m": 5.0, "alpha": 0.4}, dl.CauchyPower(5.0, 0.4)),
                     ({"kind": "tabulated", "path": str(path)},
                      dl.Tabulated([0.0, 0.4, 1.0], [3.0, 2.0, 0.5]))):
        back = density_mod.from_config(cfg)
        assert type(back) is type(rho)
        assert np.array_equal(back(x), rho(x))
    # the wrappers are built by scale() and power(), never read from a spec
    for kind in ("scaled", "power"):
        with pytest.raises(ValueError, match="unknown density kind"):
            density_mod.from_config({"kind": kind, "c": 2.0, "alpha": 0.5,
                                     "base": {"kind": "gaussian", "m": 1.0}})
