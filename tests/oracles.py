"""Independent reference computations for the test suite.

Everything here but ``assemble_per_mode`` is decoupled from the package
internals: series evaluations of the error function and of (spherical) Bessel
functions, and bisection root finding on their derivatives.  These give
closed-form spectra of the unweighted Neumann problem on disks and balls
and reference values for Gaussian integrals.  A dense LAPACK solve of an
assembled pencil gives reference eigenvalues for the iterative solver.
``assemble_per_mode`` is the assembly that evaluates the densities again
for every mode, kept as the bit-for-bit reference of the mode family;
``holder_chain_whole_grid`` and ``select_small_sets_lexsort`` are the
whole-grid Hoelder weights and the sorting selection, kept as the
bit-for-bit references of their package versions; ``overlapping_pair`` is
the whole-grid support check that ``minmax_bound`` made before it swept
the grid in blocks.
"""

import math

import numpy as np
import scipy.linalg as sla

from densilab import density as density_mod
from densilab.assembly import _P, _Q, TridiagonalPencil, _check_finite
from densilab.geometry import RevolutionManifold, sphere_eigenvalue, unit_sphere_area
from densilab.quadrature import element_integrals, gauss_points
from densilab.spectrum import HolderChainReport


def erf_series(x):
    """erf by Maclaurin series for small x, continued fraction beyond."""
    if x < 0:
        return -erf_series(-x)
    if x > 4.0:
        # A&S 7.1.14: sqrt(pi) e^{x^2} erfc(x) = 1/(x + (1/2)/(x + 1/(x + ...)))
        f = 0.0
        for k in range(80, 0, -1):
            f = (k / 2.0) / (x + f)
        erfc = math.exp(-x * x) / (math.sqrt(math.pi) * (x + f))
        return 1.0 - erfc
    total = 0.0
    term = x
    k = 0
    while abs(term) > 1e-18 * (abs(total) + 1.0):
        total += term / (2 * k + 1)
        k += 1
        term *= -x * x / k
    return 2.0 / math.sqrt(math.pi) * total


def gaussian_line_integral(m, L):
    """int_{-L}^{L} exp(-m t^2) dt = sqrt(pi/m) erf(sqrt(m) L)."""
    return math.sqrt(math.pi / m) * erf_series(math.sqrt(m) * L)


def bessel_j(j, x):
    """J_j(x) by its power series (fine for x <= ~15, j <= ~12)."""
    half = 0.5 * x
    term = half ** j / math.factorial(j)
    total = term
    s = 0
    while abs(term) > 1e-18 * (abs(total) + 1.0) or s < 5:
        s += 1
        term *= -(half * half) / (s * (s + j))
        total += term
    return total


def bessel_j_prime(j, x):
    if j == 0:
        return -bessel_j(1, x)
    return 0.5 * (bessel_j(j - 1, x) - bessel_j(j + 1, x))


def _bisect(fn, lo, hi, iters=80):
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _scan_zeros(fn, x_max, count, x_min=1e-3, step=0.01):
    zeros = []
    x = x_min
    fx = fn(x)
    while x < x_max and len(zeros) < count:
        x2 = x + step
        fx2 = fn(x2)
        if fx * fx2 < 0:
            zeros.append(_bisect(fn, x, x2))
        x, fx = x2, fx2
    return zeros


def bessel_j_prime_zeros(j, count, x_max=40.0):
    """Positive zeros of J_j' by sign scanning + bisection."""
    return _scan_zeros(lambda x: bessel_j_prime(j, x), x_max, count)


def spherical_bessel(l, x):
    """j_l(x) = x^l sum_s (-x^2/2)^s / (s! (2l + 2s + 1)!!)."""
    dfact = 1.0
    for i in range(3, 2 * l + 2, 2):
        dfact *= i
    term = x ** l / dfact
    total = term
    s = 0
    while abs(term) > 1e-18 * (abs(total) + 1.0) or s < 5:
        s += 1
        term *= -(x * x / 2.0) / (s * (2 * l + 2 * s + 1))
        total += term
    return total


def spherical_bessel_prime(l, x):
    if l == 0:
        return -spherical_bessel(1, x)
    return spherical_bessel(l - 1, x) - (l + 1) / x * spherical_bessel(l, x)


def spherical_bessel_prime_zeros(l, count, x_max=40.0):
    return _scan_zeros(lambda x: spherical_bessel_prime(l, x), x_max, count)


def disk_neumann_spectrum(count, x_max=25.0):
    """Sorted Neumann eigenvalues of the flat unit disk, with multiplicity.

    Eigenfunctions J_j(sqrt(lambda) r) {cos, sin}(j phi); the eigenvalue
    condition is J_j'(sqrt(lambda)) = 0.  Mode j = 0 contributes once per
    radial zero, j >= 1 twice.
    """
    lams = [0.0]
    j = 0
    while True:
        zeros = bessel_j_prime_zeros(j, count, x_max=x_max)
        if not zeros or zeros[0] ** 2 > x_max ** 2:
            break
        mult = 1 if j == 0 else 2
        for z in zeros:
            lams.extend([z * z] * mult)
        if not zeros:
            break
        j += 1
        if j > 60:
            break
    return np.sort(np.array(lams))[:count]


def ball_neumann_spectrum(count, x_max=25.0):
    """Sorted Neumann eigenvalues of the flat unit ball (n = 3)."""
    lams = [0.0]
    l = 0
    while True:
        zeros = spherical_bessel_prime_zeros(l, count, x_max=x_max)
        if not zeros:
            break
        for z in zeros:
            lams.extend([z * z] * (2 * l + 1))
        l += 1
        if l > 60:
            break
    return np.sort(np.array(lams))[:count]


def dense_k(pencil):
    """The stiffness matrix K of a tridiagonal pencil, dense."""
    return np.diag(pencil.k_diag) + np.diag(pencil.k_off, 1) + np.diag(pencil.k_off, -1)


def dense_m(pencil):
    """The mass matrix M of a tridiagonal pencil, dense."""
    return np.diag(pencil.m_diag) + np.diag(pencil.m_off, 1) + np.diag(pencil.m_off, -1)


def dense_pencil_eigenvalues(pencil, count):
    """Lowest ``count`` eigenvalues of K v = lambda M v, densely.

    Equilibrates to a unit mass diagonal and solves the inverted pencil
    M v = nu (K + tau M) v, nu = 1/(lambda + tau), whose top eigenvalues
    keep relative accuracy when K spans hundreds of decades.
    """
    n = pencil.size
    s = 1.0 / np.sqrt(pencil.m_diag)
    k = s[:, None] * dense_k(pencil) * s
    m = s[:, None] * dense_m(pencil) * s
    ramp = np.linspace(0.0, 1.0, n) / s
    tau = (ramp @ k @ ramp) / (ramp @ m @ ramp)
    nu = sla.eigh(m, k + tau * m, eigvals_only=True, subset_by_index=[n - count, n - 1])
    return np.sort(1.0 / nu - tau)


def _element_forms(problem):
    """Gauss-point weights of a ModeProblem, densities evaluated for its mode.

    Returns ``(hw, g, wm, wj)``: the half element lengths, the gradient
    weight of each element, and the mass and angular weights at the two
    Gauss points of each element (``wj`` is None without an angular term).
    """
    nodes = problem.grid.nodes
    pts, hw = gauss_points(nodes)
    h = 2.0 * hw
    rho = problem.rho
    sig = problem.stiffness_density

    wm = rho(pts)
    wk = sig(pts)
    if isinstance(problem.domain, RevolutionManifold):
        n = problem.domain.n
        th = problem.domain.profile(pts)
        wm = wm * th ** (n - 1)
        wj = None
        if problem.j >= 1:
            mu = sphere_eigenvalue(problem.j, n)
            wj = mu * wk * th ** float(n - 3)
        wk = wk * th ** (n - 1)
    else:
        wj = None
    _check_finite("stiffness weight", wk)
    _check_finite("mass weight", wm)
    if wj is not None:
        _check_finite("angular weight", wj)
    # gradient part: (int_e wk) / h^2 * [[1, -1], [-1, 1]]
    return hw, hw * (wk[:, 0] + wk[:, 1]) / h ** 2, wm, wj


def _accumulate(hw, w, diag, off):
    """Add the Gauss-point form of weights ``w`` into the bands ``diag``, ``off``."""
    b11 = hw * (w[:, 0] * _P ** 2 + w[:, 1] * _Q ** 2)
    b22 = hw * (w[:, 0] * _Q ** 2 + w[:, 1] * _P ** 2)
    b12 = hw * (w[:, 0] + w[:, 1]) * (_P * _Q)
    diag[:-1] += b11
    diag[1:] += b22
    off += b12


def _bands(problem, dtype):
    """K's and M's bands of a ModeProblem, the element terms summed in ``dtype``."""
    hw, g, wm, wj = _element_forms(problem)
    npts = len(problem.grid.nodes)
    k_diag, m_diag = np.zeros(npts, dtype), np.zeros(npts, dtype)
    k_off, m_off = np.zeros(npts - 1, dtype), np.zeros(npts - 1, dtype)
    k_diag[:-1] += g
    k_diag[1:] += g
    k_off -= g
    _accumulate(hw, wm, m_diag, m_off)
    if wj is not None:
        _accumulate(hw, wj, k_diag, k_off)
    if problem.pole_constrained:
        k_diag, k_off = k_diag[1:], k_off[1:]
        m_diag, m_off = m_diag[1:], m_off[1:]
    return k_diag, k_off, m_diag, m_off


def assemble_per_mode(problem):
    """Assemble the tridiagonal pencil of a ModeProblem, densities evaluated for its mode.

    Only the diagonal and one off-diagonal band are built, so K and M are
    exactly symmetric.  For j = 0 the element stiffness has exact zero
    row sums (constants are in the kernel); for j >= 1 the pole node is
    removed.
    """
    k_diag, k_off, m_diag, m_off = _bands(problem, float)
    if np.any(m_diag <= 0):
        raise ValueError("mass matrix not positive definite: "
                         "non-positive density or degenerate grid")
    return TridiagonalPencil(k_diag, k_off, m_diag, m_off, problem=problem)


def _tridiagonal_times(d, e, v):
    y = d * v
    y[:-1] += e * v[1:]
    y[1:] += e * v[:-1]
    return y


def _tridiagonal_solve(d, e, b):
    """x with T x = b, T symmetric tridiagonal (diagonal d, off-diagonal e), no pivoting."""
    d, b = d.copy(), b.copy()
    for i in range(1, len(d)):
        f = e[i - 1] / d[i - 1]
        d[i] -= f * e[i - 1]
        b[i] -= f * b[i - 1]
    x = np.empty_like(b)
    x[-1] = b[-1] / d[-1]
    for i in range(len(d) - 2, -1, -1):
        x[i] = (b[i] - e[i] * x[i + 1]) / d[i]
    return x


def element_form_eigenvalue(problem, shift, steps=3):
    """The eigenvalue of a ModeProblem's pencil nearest ``shift``, in extended precision.

    K and M are summed from their element terms in ``np.longdouble``, and
    the eigenvector is found by inverse iteration with the fixed ``shift``
    (a Thomas solve in ``np.longdouble``); with a shift within 1e-8 relative
    of an isolated eigenvalue, three steps leave it exact to extended
    precision.  The eigenvalue is its Rayleigh quotient, the numerator
    summed over elements: sum_e g_e (v_{i+1} - v_i)^2 + v^T A v.
    """
    hw, g, _, wj = _element_forms(problem)
    kd, ke, md, me = _bands(problem, np.longdouble)
    sigma = np.longdouble(shift)
    v = np.linspace(1.0, 2.0, len(kd)).astype(np.longdouble)
    for _ in range(steps):
        v = _tridiagonal_solve(kd - sigma * md, ke - sigma * me, _tridiagonal_times(md, me, v))
        v /= np.max(np.abs(v))
    u = np.concatenate([[np.longdouble(0)], v]) if problem.pole_constrained else v
    energy = g.astype(np.longdouble) @ np.diff(u) ** 2
    if wj is not None:
        a_diag, a_off = np.zeros(len(u), np.longdouble), np.zeros(len(g), np.longdouble)
        _accumulate(hw, wj, a_diag, a_off)
        energy += u @ _tridiagonal_times(a_diag, a_off, u)
    return float(energy / (v @ _tridiagonal_times(md, me, v)))


def element_form_quotient(problem, v):
    """v^T K_0 v / v^T M v of nodal values ``v``, summed from the element terms in
    ``np.longdouble``: sum_e g_e (v_{e+1} - v_e)^2 over sum_e hw_e sum_q wm_{e,q} u_q^2,
    u_q the P1 interpolant at Gauss point q."""
    hw, g, wm, _ = _element_forms(problem)
    v = np.asarray(v, dtype=np.longdouble)
    p, q = np.longdouble(_P), np.longdouble(_Q)
    u0 = p * v[:-1] + q * v[1:]
    u1 = q * v[:-1] + p * v[1:]
    num = g.astype(np.longdouble) @ np.diff(v) ** 2
    den = hw.astype(np.longdouble) @ (wm[:, 0] * u0 ** 2 + wm[:, 1] * u1 ** 2)
    return float(num / den)


def element_form_ritz_values(pencil, vectors):
    """Ritz values of a pencil on the columns of ``vectors``, the projected
    stiffness summed from the element terms: sum_e g_e dv_e dv_e^T + V^T A V,
    dv_e the columns' differences across element e.  Unlike V^T K V it keeps
    no cancellation between columns of very different scale, so a column in
    K's kernel projects to an exact zero row."""
    hw, g, _, wj = _element_forms(pencil.problem)
    v = np.asarray(vectors, dtype=float)
    if pencil.problem.pole_constrained:
        v = np.vstack([np.zeros((1, v.shape[1])), v])
    dv = np.diff(v, axis=0)
    k = dv.T @ (g[:, None] * dv)
    if wj is not None:
        a_diag, a_off = np.zeros(len(v)), np.zeros(len(g))
        _accumulate(hw, wj, a_diag, a_off)
        k += v.T @ (a_diag[:, None] * v)
        k += v[:-1].T @ (a_off[:, None] * v[1:])
        k += v[1:].T @ (a_off[:, None] * v[:-1])
    v = v[1:] if pencil.problem.pole_constrained else v
    return sla.eigh(k, v.T @ dense_m(pencil) @ v, eigvals_only=True)


def overlapping_pair(values):
    """The first (i, k), i < k, in lexicographic order, of nodal value arrays whose
    supports share a grid element, by whole-grid element masks; None if none do."""
    masks = [(v[:-1] != 0.0) | (v[1:] != 0.0) for v in values]
    for i in range(len(masks)):
        for k in range(i + 1, len(masks)):
            if np.any(masks[i] & masks[k]):
                return i, k
    return None


def holder_chain_whole_grid(domain, rho, alpha, u, grid):
    """``holder_chain_check`` with each weight integrated over the whole grid
    (``element_integrals``) and then restricted to S."""
    n = domain.n
    alpha = float(alpha)
    v = u.sample(domain, grid)
    h = np.diff(grid.nodes)
    slopes = np.diff(v) / h
    mask = slopes != 0.0

    omega = unit_sphere_area(n)
    theta = domain.profile
    w_vol = omega * element_integrals(grid.nodes, lambda r: theta(r) ** (n - 1))
    w_rho = omega * element_integrals(grid.nodes, lambda r: rho(r) * theta(r) ** (n - 1))
    sig = density_mod.power(rho, alpha)
    w_sig = omega * element_integrals(grid.nodes, lambda r: sig(r) * theta(r) ** (n - 1))
    rex = density_mod.power(rho, n * alpha / (n - 2))
    w_rex = omega * element_integrals(grid.nodes, lambda r: rex(r) * theta(r) ** (n - 1))

    g = np.abs(slopes[mask])
    energy = float(np.sum(g ** 2 * w_sig[mask]))
    grad_n = float(np.sum(g ** n * w_vol[mask]))
    vol_s = float(np.sum(w_vol[mask]))
    mass_s = float(np.sum(w_rho[mask]))
    mass_ex = float(np.sum(w_rex[mask]))

    after_first = grad_n ** (2.0 / n) * mass_ex ** ((n - 2.0) / n)
    after_second = (grad_n ** (2.0 / n) * mass_s ** alpha
                    * vol_s ** ((n - 2.0) / n - alpha))
    return HolderChainReport(energy=energy, after_first=after_first,
                             after_second=after_second,
                             first_slack=after_first - energy,
                             second_slack=after_second - after_first)


def select_small_sets_lexsort(triple, k):
    """``select_small_sets`` by a full sort: survivors ordered by their third
    measure, ties by index, the first K - 3k kept."""
    kk = triple.k_sets
    bounds = triple.totals / (k + 1)
    survivors = np.arange(kk)
    for j in (0, 1):
        keep = triple.values[survivors, j] <= bounds[j]
        survivors = survivors[keep]
    third = triple.values[survivors, 2]
    order = np.lexsort((survivors, third))
    chosen = survivors[order][: kk - 3 * k]
    return sorted(int(i) for i in chosen)
