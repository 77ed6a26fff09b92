from dataclasses import replace

import numpy as np
import pytest

import densilab as dl
from densilab import spectrum
from densilab.assembly import Mass, ModeProblem, TridiagonalPencil, assemble
from densilab.eigensolver import IndefiniteMassError, _norm1, counter, solve_generalized
from densilab.quadrature import element_integrals

import oracles
from test_eigensolver import _DEFINITENESS


def _interval_problem(n_el=64, rho=None, alpha=0.5, j=0):
    iv = dl.Interval(-1.0, 1.0)
    grid = dl.RadialGrid.uniform(iv, n_el)
    return ModeProblem(domain=iv, rho=rho or dl.Constant(1.0), alpha=alpha,
                       grid=grid, j=j)


def test_constant_density_gives_textbook_matrices():
    p = assemble(_interval_problem(16))
    h = 2.0 / 16
    assert np.allclose(p.k_off, -1.0 / h, rtol=1e-14)
    assert np.allclose(p.k_diag[1:-1], 2.0 / h, rtol=1e-14)
    assert np.allclose(p.k_diag[[0, -1]], 1.0 / h, rtol=1e-14)
    assert np.allclose(p.m_off, h / 6.0, rtol=1e-14)
    assert np.allclose(p.m_diag[1:-1], 2.0 * h / 3.0, rtol=1e-14)
    assert np.allclose(p.m_diag[[0, -1]], h / 3.0, rtol=1e-14)


def test_constant_vector_in_stiffness_kernel():
    # j = 0: natural BCs leave constants in the kernel, exactly
    for rho in (dl.Constant(2.0), dl.GaussianRadial(5.0), dl.CauchyPower(10.0, 0.3)):
        p = assemble(_interval_problem(64, rho=rho, alpha=0.7))
        ones = np.ones(p.size)
        resid = p.k_diag * ones
        resid[:-1] += p.k_off
        resid[1:] += p.k_off
        assert np.max(np.abs(resid)) <= 1e-14 * _norm1(p.k_diag, p.k_off)

    disk = dl.RevolutionManifold.ball(2, 1.0)
    grid = dl.RadialGrid.uniform(disk, 64)
    p = assemble(ModeProblem(domain=disk, rho=dl.GaussianRadial(2.0), alpha=0.5,
                             grid=grid, j=0))
    ones = np.ones(p.size)
    resid = p.k_diag * ones
    resid[:-1] += p.k_off
    resid[1:] += p.k_off
    assert np.max(np.abs(resid)) <= 1e-14 * _norm1(p.k_diag, p.k_off)


def test_matrices_are_symmetric_by_construction():
    p = assemble(_interval_problem(32, rho=dl.GaussianRadial(3.0)))
    assert np.array_equal(oracles.dense_k(p), oracles.dense_k(p).T)
    assert np.array_equal(oracles.dense_m(p), oracles.dense_m(p).T)


def test_mode_validation():
    with pytest.raises(ValueError, match="single mode"):
        _interval_problem(j=1)
    disk = dl.RevolutionManifold.ball(2, 1.0)
    with pytest.raises(ValueError, match="cover"):
        ModeProblem(domain=disk, rho=dl.Constant(1.0), alpha=0.0,
                    grid=dl.RadialGrid.uniform(dl.Interval(0.0, 2.0), 32), j=0)
    grid = dl.RadialGrid.uniform(disk, 32)
    with pytest.raises(ValueError, match=">= 0"):
        ModeProblem(domain=disk, rho=dl.Constant(1.0), alpha=0.0, grid=grid, j=-1)
    with pytest.raises(TypeError, match="unsupported domain type tuple"):
        ModeProblem(domain=(0.0, 1.0), rho=dl.Constant(1.0), alpha=0.0, grid=grid)


def test_element_integrals_exactness():
    iv = dl.Interval(0.0, 1.0)
    grid = dl.RadialGrid.uniform(iv, 16)
    ones = element_integrals(grid.nodes, lambda r: np.ones_like(r))
    assert np.sum(ones) == pytest.approx(1.0, abs=1e-15)
    lin = element_integrals(grid.nodes, lambda r: r)
    assert np.sum(lin) == pytest.approx(0.5, abs=1e-15)
    # degree-3 exactness per element
    cub = element_integrals(grid.nodes, lambda r: r ** 3)
    assert np.sum(cub) == pytest.approx(0.25, rel=1e-14)


def test_quadrature_gaussian_against_series_oracle():
    iv = dl.Interval(-1.0, 1.0)
    grid = dl.RadialGrid.uniform(iv, 1024)
    val = np.sum(element_integrals(grid.nodes, dl.GaussianRadial(10.0)))
    assert val == pytest.approx(oracles.gaussian_line_integral(10.0, 1.0), rel=1e-6)


def test_quadrature_rejects_nonfinite():
    iv = dl.Interval(0.0, 1.0)
    grid = dl.RadialGrid.uniform(iv, 16)
    with pytest.raises(ValueError, match="non-finite"):
        element_integrals(grid.nodes, lambda r: np.where(r > 0.5, np.inf, 1.0))


def test_disk_mode1_matches_bessel_zero():
    # smallest j=1 eigenvalue of the flat unit disk: (first zero of J_1')^2
    disk = dl.RevolutionManifold.ball(2, 1.0)
    grid = dl.RadialGrid.uniform(disk, 1024)
    p = assemble(ModeProblem(domain=disk, rho=dl.Constant(1.0), alpha=0.0,
                             grid=grid, j=1))
    lam = solve_generalized(p, 0).values[0]
    z = oracles.bessel_j_prime_zeros(1, 1)[0]
    assert lam == pytest.approx(z * z, rel=1e-4)
    assert lam >= z * z - 1e-9  # conforming: above, up to quadrature error


def test_pole_weight_is_integrable_for_modes():
    # n = 2, j = 1: the 1/theta weight must assemble to finite entries
    disk = dl.RevolutionManifold.ball(2, 1.0)
    grid = dl.RadialGrid.graded(disk, 64)
    p = assemble(ModeProblem(domain=disk, rho=dl.Constant(1.0), alpha=0.0,
                             grid=grid, j=1))
    assert np.all(np.isfinite(p.k_diag)) and np.all(np.isfinite(p.k_off))
    assert p.size == len(grid.nodes) - 1  # pole node eliminated


def test_a_gradient_weight_that_overflows_raises():
    # rho = 1e306, alpha 1, N 2048 on (-1, 1): each element's int sigma is finite,
    # g = (int_e sigma) / h^2 is not; the quotient does not depend on the constant,
    # but the bands cannot hold it.  Both entry points raise, with no RuntimeWarning
    # first (the suite turns warnings into errors)
    iv = dl.Interval(-1.0, 1.0)
    grid = dl.RadialGrid.uniform(iv, 2048)
    rho = dl.Constant(1e306)
    with pytest.raises(ValueError, match="gradient weight"):
        dl.rayleigh_quotient(iv, rho, 1.0, np.linspace(0.0, 1.0, 2049), grid)
    with pytest.raises(ValueError, match="gradient weight"):
        dl.full_spectrum(iv, rho, 1.0, 1, grid=grid)


def test_an_angular_form_that_overflows_raises_for_its_mode():
    # rho = 1e303, alpha 1, graded N 2048 on the disk: every g is finite, but
    # sigma theta^{-1} overflows next to the pole, so mode 0 assembles and mode 1 raises
    disk = dl.RevolutionManifold.ball(2, 1.0)
    grid = dl.RadialGrid.graded(disk, 2048)
    family = assemble(ModeProblem(domain=disk, rho=dl.Constant(1e303), alpha=1.0,
                                  grid=grid)).family
    assert np.all(np.isfinite(family.g)) and not np.all(np.isfinite(family.a_diag))
    with pytest.raises(ValueError, match="angular form of mode 1"):
        family.mode(1)
    # A_1 finite and mu_j A_1 not: mode 1 (mu 1) assembles, mode 2 (mu 4) raises
    family = assemble(ModeProblem(domain=disk, rho=dl.Constant(1.0), alpha=1.0,
                                  grid=grid)).family
    big = replace(family, a_diag=np.full_like(family.a_diag, 1e308))
    assert big.mode(1).k_diag[-1] == family.g_diag[-1] + 1e308
    with pytest.raises(ValueError, match="angular form of mode 2"):
        big.mode(2)


def test_eigenvalue_refinement_is_second_order():
    # Richardson ratio around 4 for smooth data
    iv = dl.Interval(-1.0, 1.0)
    lams = []
    for n_el in (128, 256, 512):
        grid = dl.RadialGrid.uniform(iv, n_el)
        p = assemble(ModeProblem(domain=iv, rho=dl.GaussianRadial(2.0), alpha=0.5,
                                 grid=grid, j=0))
        lams.append(solve_generalized(p, 1).values[1])
    ratio = (lams[0] - lams[1]) / (lams[1] - lams[2])
    assert 3.5 <= ratio <= 4.5


_DISK = dl.RevolutionManifold.ball(2, 1.0)
_BALL = dl.RevolutionManifold.ball(3, 1.0)
_NORMALIZED = dl.normalize(dl.GaussianRadial(1.0), _BALL)
_TILDE = dl.conformal_reparametrize(_BALL, _NORMALIZED, dl.RadialGrid.uniform(_BALL, 1024))
# the definiteness pencils, then the benchmark's problems: the disk blow-up
# row at its largest m and both sides of the 3-ball conformal check
_FAMILIES = {
    **{name: (dom, rho, alpha, dl.RadialGrid.for_density(dom, 1024, m=rho.m))
       for name, (dom, rho, alpha, _, _) in _DEFINITENESS.items()},
    "blowup-disk-gaussian-1e4": (_DISK, dl.GaussianRadial(1e4), 0.75,
                                 dl.RadialGrid.for_density(_DISK, 2048, m=1e4)),
    "conformal-weighted": (_BALL, _NORMALIZED, 1.0 / 3.0, dl.RadialGrid.uniform(_BALL, 1024)),
    "conformal-tabulated": (_TILDE, dl.Constant(1.0), 0.0, dl.RadialGrid.uniform(_TILDE, 1024)),
}


def _bands(p):
    return p.k_diag, p.k_off, p.m_diag, p.m_off


@pytest.mark.parametrize("name", list(_FAMILIES))
def test_mode_family_is_bit_identical_to_per_mode_assembly(name):
    domain, rho, alpha, grid = _FAMILIES[name]
    family = assemble(ModeProblem(domain=domain, rho=rho, alpha=alpha, grid=grid)).family
    for j in range(9) if isinstance(domain, dl.RevolutionManifold) else [0]:
        problem = ModeProblem(domain=domain, rho=rho, alpha=alpha, grid=grid, j=j)
        ref = oracles.assemble_per_mode(problem)
        for pencil in (family.mode(j), assemble(problem),
                       assemble(problem).family.mode(0).family.mode(j)):
            assert pencil.problem == problem
            assert all(np.array_equal(a, b) for a, b in zip(_bands(pencil), _bands(ref)))
            assert all(np.array_equal(a, b) for a, b in zip(pencil.split, family.mode(j).split))


def test_modes_of_one_family_share_one_mass_record():
    # the mass's equilibration and check are built once for mode 0 and once for
    # all modes j >= 1 of a family; the zero mode only on mode 0
    domain, rho, alpha, grid = _FAMILIES["conformal-weighted"]
    family = assemble(ModeProblem(domain=domain, rho=rho, alpha=alpha, grid=grid)).family
    records = [counter(family.mode(j)) for j in range(7)]
    assert all(r.s is records[1].s and r.bands[2] is records[1].bands[2] for r in records[2:])
    assert records[0].s is not records[1].s
    assert len({id(r) for r in records}) == 7  # a K side and a memo per mode
    alone = counter(assemble(ModeProblem(domain=domain, rho=rho, alpha=alpha, grid=grid, j=2)))
    assert alone.s is not records[1].s
    assert records[0].zero is not None and all(r.zero is None for r in records[1:])
    for rec, p in ((records[0], family.mode(0)), (records[1], family.mode(3))):
        bare = TridiagonalPencil.from_bands(*_bands(p), problem=p.problem)
        bare_rec = counter(bare)
        assert all(np.array_equal(a, b) for a, b in zip(p.mass._solver, bare.mass._solver))
        assert all(np.array_equal(getattr(rec, name), getattr(bare_rec, name))
                   for name in ("s", "zero"))
        assert np.array_equal(rec.bands[2], bare_rec.bands[2])
        assert rec.norms[1] == bare_rec.norms[1]
    # the j >= 1 mass is M[1:, 1:]: its equilibration is a slice of mode 0's
    full, trailing = (m._solver for m in family.masses)
    assert all(np.shares_memory(a, b) for a, b in zip(trailing[:3], full[:3]))
    # each mass has its own ||M||_1
    assert (full[3], trailing[3]) == tuple(_norm1(m.diag, m.off) for m in family.masses)


def test_mode_order_does_not_change_the_mass_records():
    # counting a j >= 1 mode first builds the j = 0 equilibration first
    domain, rho, alpha, grid = _FAMILIES["conformal-weighted"]
    problem = ModeProblem(domain=domain, rho=rho, alpha=alpha, grid=grid)
    in_order, reversed_ = (assemble(problem).family for _ in range(2))
    trailing = counter(reversed_.mode(1))
    assert reversed_.masses[0]._solver is not None
    records = [counter(reversed_.mode(0)), trailing]
    for j, rec in enumerate(records):
        ref = counter(in_order.mode(j))
        assert all(np.array_equal(a, b) for a, b in zip(reversed_.masses[j]._solver[:3],
                                                        in_order.masses[j]._solver[:3]))
        assert np.array_equal(rec.s, ref.s) and np.array_equal(rec.bands[2], ref.bands[2])
        assert rec.norms[1] == ref.norms[1]
        assert (rec.zero is None) == (ref.zero is None)
        assert rec.zero is None or np.array_equal(rec.zero, ref.zero)
    assert all(np.shares_memory(a, b) for a, b in zip(reversed_.masses[1]._solver[:3],
                                                      reversed_.masses[0]._solver[:3]))


@pytest.mark.parametrize("first", [0, 1])
def test_an_indefinite_family_mass_raises_from_either_mode(first):
    # positive diagonal, 2 x 2 minors negative: M and M[1:, 1:] are indefinite
    domain, rho, alpha, grid = _FAMILIES["conformal-weighted"]
    family = assemble(ModeProblem(domain=domain, rho=rho, alpha=alpha, grid=grid)).family
    md = family.masses[0].diag
    me = 2.0 * np.sqrt(md[:-1] * md[1:])
    bad = replace(family, masses=(Mass(md, me), Mass(md[1:], me[1:])))
    with pytest.raises(IndefiniteMassError):
        counter(bad.mode(first))
    with pytest.raises(IndefiniteMassError):
        counter(bad.mode(1 - first))


def test_full_spectrum_solves_the_per_mode_pencils(monkeypatch):
    # every pencil the sweep solves or tests for the stop, against the oracle
    seen = []

    def spy(fn):
        def wrapped(pencil, *args, **kwargs):
            seen.append(pencil)
            return fn(pencil, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(spectrum, "solve_generalized", spy(spectrum.solve_generalized))
    monkeypatch.setattr(spectrum, "counter", spy(spectrum.counter))
    domain, rho, alpha, grid = _FAMILIES["conformal-weighted"]
    dl.full_spectrum(domain, rho, alpha, 40, grid=grid)
    assert {p.problem.j for p in seen} == set(range(1 + max(p.problem.j for p in seen)))
    for pencil in seen:
        ref = oracles.assemble_per_mode(pencil.problem)
        assert all(np.array_equal(a, b) for a, b in zip(_bands(pencil), _bands(ref)))


def test_assembled_bands_are_read_only():
    # a pencil's solver record (equilibrated bands, norms, count memo) is built
    # once, so an edit of its bands in place must fail instead of going stale
    disk = dl.RevolutionManifold.ball(2, 1.0)
    grid = dl.RadialGrid.uniform(disk, 64)
    p = assemble(ModeProblem(domain=disk, rho=dl.Constant(1.0), alpha=0.5, grid=grid, j=1))
    assert counter(p)(50.0) == 2
    with pytest.raises(ValueError, match="read-only"):
        p.k_diag *= 4
    for pencil in (p, p.family.mode(0), p.family.mode(3)):
        assert not any(a.flags.writeable for a in _bands(pencil))
    family = p.family
    assert not any(a.flags.writeable for a in (family.g, family.g_diag, family.g_off,
                                               family.a_diag, family.a_off))
    assert counter(p)(50.0) == 2
    scaled = TridiagonalPencil.from_bands(4 * p.k_diag, 4 * p.k_off, p.m_diag, p.m_off)
    assert counter(scaled)(50.0) == 1
