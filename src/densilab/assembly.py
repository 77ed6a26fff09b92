"""P1 finite element assembly of one angular-mode reduction.

The weighted eigenproblem -div(sigma grad u) = lambda rho u with natural
(Neumann) boundary conditions separates on a manifold of revolution into
radial problems indexed by the spherical-harmonic mode j.  For
u = f(r) Y_j the weak form reduces to the 1D pencil

    K[f, g] = int sigma theta^{n-1} f' g' dr
            + mu_j int sigma theta^{n-3} f g dr
    M[f, g] = int rho theta^{n-1} f g dr

with mu_j = j(j + n - 2).  On an interval theta == 1 and only j = 0
exists.  Piecewise-linear conforming elements with a consistent mass
matrix keep the Rayleigh-quotient structure, but discrete eigenvalues are
upper bounds of the continuous ones only where the quadrature is exact
(coefficients constant per element), not on a Gaussian density.

Boundary conditions: the outer boundary carries no terms (natural); at
the pole, modes j >= 1 get an essential condition f(0) = 0 (regularity
of f Y_j), which also keeps the theta^{n-3} weight integrable.
"""

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import density as density_mod
from .geometry import Interval, RadialGrid, RevolutionManifold, _check_endpoints, sphere_eigenvalue
from .quadrature import _P, _Q, _check_finite, element_sums, gauss_points
# element_integrals is unused here, but the benchmark tracer patches it on this module
from .quadrature import element_integrals  # noqa: F401


@dataclass(frozen=True)
class ModeProblem:
    """One weighted Sturm-Liouville problem (mode j, exponent alpha)."""

    domain: object
    rho: object
    alpha: float
    grid: RadialGrid
    j: int = 0

    def __post_init__(self):
        if isinstance(self.domain, Interval):
            if self.j != 0:
                raise ValueError("interval problems have a single mode j = 0")
        elif isinstance(self.domain, RevolutionManifold):
            if self.j < 0:
                raise ValueError("mode index must be >= 0")
        else:
            raise TypeError(f"unsupported domain type {type(self.domain).__name__}")
        _check_endpoints(self.grid.nodes, self.domain)

    @property
    def stiffness_density(self):
        return density_mod.power(self.rho, float(self.alpha))

    @property
    def pole_constrained(self):
        """True when the r = 0 node is eliminated (Dirichlet at the pole)."""
        return isinstance(self.domain, RevolutionManifold) and self.j >= 1


@dataclass(eq=False)
class Mass:
    """Read-only mass bands, one object per variant of a family (M for j = 0,
    M without the pole row for j >= 1) that every mode of the variant shares;
    ``eigensolver.counter`` caches the mass's equilibration here."""

    diag: np.ndarray
    off: np.ndarray
    _solver: object = field(default=None, repr=False)


@dataclass(eq=False)
class TridiagonalPencil:
    """Symmetric tridiagonal stiffness/mass pair (K, M) and K's energy split.

    ``split`` = (g, a_diag, a_off): v^T K v = sum_i g_i (v_{i+1} - v_i)^2 + v^T A v.
    For a mode of a family (``ModeFamily.mode``) g and A = mu_j A_1 sum nonnegative
    element terms, so v^T K v is evaluated without the cancellation between
    K's diagonal and off-diagonal, or the rounding of G + mu_j A_1 into the bands.
    """

    k_diag: np.ndarray
    k_off: np.ndarray
    mass: Mass
    split: tuple
    problem: ModeProblem = None
    family: "ModeFamily" = field(default=None, repr=False)
    # the record of ``eigensolver.counter``
    _solver: object = field(default=None, init=False, repr=False)

    m_diag = property(lambda self: self.mass.diag)
    m_off = property(lambda self: self.mass.off)

    @classmethod
    def from_bands(cls, k_diag, k_off, m_diag, m_off, problem=None):
        """A pencil of its bands alone: g = -k_off and A = diag(K 1), the row sums."""
        k_diag, k_off, m_diag, m_off = (np.asarray(a, dtype=float)
                                        for a in (k_diag, k_off, m_diag, m_off))
        rows = k_diag.copy()
        rows[:-1] += k_off
        rows[1:] += k_off
        return cls(k_diag, k_off, Mass(m_diag, m_off), (-k_off, rows, np.zeros_like(k_off)),
                   problem)

    @property
    def size(self):
        return len(self.k_diag)


@dataclass(frozen=True, eq=False)
class ModeFamily:
    """The parts every mode j of a ModeProblem shares, assembled once (``assemble``):
    per element the gradient weight g; the read-only bands of G, of the angular
    form A_1 = int sigma theta^{n-3} f g on nodes 1..N (None on an interval), and
    ``masses``, the ``Mass`` of mode 0 and the one of every mode j >= 1."""

    problem: ModeProblem  # mode 0
    g: np.ndarray
    g_diag: np.ndarray
    g_off: np.ndarray
    a_diag: np.ndarray
    a_off: np.ndarray
    masses: tuple

    def mode(self, j):
        """Mode j's pencil K_j = G + mu_j A_1 by band arithmetic alone; A_1 is positive
        semidefinite, so K_{j+1} - K_j = (mu_{j+1} - mu_j) A_1 is too.  For j >= 1 the
        pole node is removed.  The bands are read-only: the pencil's solver record
        (``eigensolver.counter``) is built from them once."""
        problem = replace(self.problem, j=j)
        if not problem.pole_constrained:
            return TridiagonalPencil(self.g_diag, self.g_off, self.masses[0],
                                     (self.g, np.zeros(len(self.g_diag)), np.zeros(len(self.g))),
                                     problem, self)
        mu = sphere_eigenvalue(j, problem.domain.n)
        with np.errstate(over="ignore"):
            a_diag, a_off = mu * self.a_diag, mu * self.a_off
            k_diag, k_off = self.g_diag[1:] + a_diag, self.g_off[1:] + a_off
            a_diag[0] += self.g[0]  # the pole element's g_0 v_1^2, v_0 = 0
        # G is finite and mu_j A_1 nonnegative: K_j is finite iff mu_j A_1 and the sum are
        if not (np.all(np.isfinite(k_diag)) and np.all(np.isfinite(k_off))):
            raise ValueError(f"non-finite angular form of mode {j}: mu_j A_1 overflows")
        return TridiagonalPencil(*_read_only(k_diag, k_off), self.masses[1],
                                 (self.g[1:], a_diag, a_off), problem, self)


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _accumulate(hw, w, diag, off):
    """Add the P1 element mass form of the Gauss-point weights ``w`` to (diag, off)."""
    w0, w1 = w[:, 0], w[:, 1]
    b, t = np.multiply(w0, _P ** 2), np.multiply(w1, _Q ** 2)
    b += t
    b *= hw  # b11 = hw (w0 P^2 + w1 Q^2), left node
    diag[:-1] += b
    np.multiply(w0, _Q ** 2, out=b)
    np.multiply(w1, _P ** 2, out=t)
    b += t
    b *= hw  # b22, right node
    diag[1:] += b
    np.add(w0, w1, out=b)
    b *= hw
    b *= _P * _Q  # b12
    off += b


class ElementForms(NamedTuple):
    """The j = 0 quadratic forms of a ModeProblem, per element and Gauss point.

    v^T K_0 v = sum_e g[e] (v[e+1] - v[e])^2 and v^T M v = sum_e hw[e]
    sum_q wm[e, q] u_q^2, with u_q the P1 interpolant of v at Gauss point q
    of element e.  ``wk`` (sigma at the Gauss points) and ``theta`` (the
    profile there, None on an interval) give the angular form A_1 of ``assemble``.
    """

    hw: np.ndarray     # half element widths: the weight of each Gauss point
    g: np.ndarray      # gradient weight (int_e sigma theta^{n-1}) / h^2
    wm: np.ndarray     # mass weight rho theta^{n-1}, shape (nelem, 2)
    wk: np.ndarray     # sigma, shape (nelem, 2)
    theta: np.ndarray  # shape (nelem, 2), or None


def element_forms(problem, start=0, stop=None):
    """The ``ElementForms`` of a ModeProblem on elements ``start`` to ``stop`` - 1
    (the whole grid by default): the Gauss points, then rho, sigma and
    theta^{n-1} at them, each evaluated once and checked finite."""
    stop = problem.grid.n_elements if stop is None else stop
    pts, hw = gauss_points(problem.grid.nodes[start:stop + 1])
    wm = problem.rho(pts)
    wk = wg = problem.stiffness_density(pts)
    th = None
    if isinstance(problem.domain, RevolutionManifold):
        th = problem.domain.profile(pts)
        vol = th ** (problem.domain.n - 1)
        wg = wk * vol
        wm = np.multiply(wm, vol, out=vol)
    try:  # from finite weights only an overflow or a zero h^2 makes g non-finite
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            g = element_sums(hw, wg, "stiffness weight")
            g /= np.square(2.0 * hw)  # h^2
    except FloatingPointError:
        raise ValueError("non-finite gradient weight: (int_e sigma theta^{n-1}) / h^2 "
                         "overflows") from None
    _check_finite("mass weight", wm)
    return ElementForms(hw, g, wm, wk, th)


def assemble(problem):
    """Assemble the ``ModeFamily`` of a ModeProblem; return its mode ``problem.j``.

    Only the diagonal and one off-diagonal band are built, so K and M are
    exactly symmetric.  For j = 0 the element stiffness has exact zero
    row sums (constants are in the kernel); for j >= 1 the pole node is
    removed.  Densities, profile and Gauss points are evaluated once per
    call (``element_forms``), and the bands of G, A_1 and M built from them;
    ``pencil.family.mode(j)`` derives any other mode from those bands.
    """
    forms = element_forms(problem)
    npts = len(forms.g) + 1
    g_diag, m_diag = np.zeros(npts), np.zeros(npts)
    g_off, m_off = np.zeros(npts - 1), np.zeros(npts - 1)

    # gradient part G: g_e [[1, -1], [-1, 1]]
    g_diag[:-1] += forms.g
    g_diag[1:] += forms.g
    g_off -= forms.g
    _accumulate(forms.hw, forms.wm, m_diag, m_off)
    if np.any(m_diag <= 0):
        raise ValueError("mass matrix not positive definite: "
                         "non-positive density or degenerate grid")
    a_diag = a_off = None
    if forms.theta is not None:
        # A_1 from sigma theta^{n-3}, kept on nodes 1..N; an overflow to inf is
        # left for ``ModeFamily.mode`` to refuse, as mode 0 does not use A_1
        a_diag, a_off = np.zeros(npts), np.zeros(npts - 1)
        with np.errstate(over="ignore"):
            _accumulate(forms.hw, forms.wk * forms.theta ** float(problem.domain.n - 3),
                        a_diag, a_off)
        a_diag, a_off = _read_only(a_diag[1:], a_off[1:])
    _read_only(forms.g, g_diag, g_off, m_diag, m_off)
    family = ModeFamily(replace(problem, j=0), forms.g, g_diag, g_off, a_diag, a_off,
                        (Mass(m_diag, m_off), Mass(m_diag[1:], m_off[1:])))
    return family.mode(problem.j)
