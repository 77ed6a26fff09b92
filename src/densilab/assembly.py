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
matrix keep the Rayleigh-quotient structure, so discrete eigenvalues are
upper bounds of the continuous ones.

Boundary conditions: the outer boundary carries no terms (natural); at
the pole, modes j >= 1 get an essential condition f(0) = 0 (regularity
of f Y_j), which also keeps the theta^{n-3} weight integrable.
"""

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import density as density_mod
from .geometry import Interval, RadialGrid, RevolutionManifold, sphere_eigenvalue
# element_integrals is unused here, but the benchmark tracer patches it on this module
from .quadrature import _GAUSS_OFFSET, element_integrals, gauss_points  # noqa: F401

# P1 basis values at the two Gauss points of the reference element
_P = 0.5 + _GAUSS_OFFSET
_Q = 0.5 - _GAUSS_OFFSET


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
        lo, hi = self.domain.bounds
        nodes = self.grid.nodes
        if abs(nodes[0] - lo) > 1e-12 * max(1.0, abs(lo)) or \
           abs(nodes[-1] - hi) > 1e-12 * max(1.0, abs(hi)):
            raise ValueError("grid does not cover the domain")

    @property
    def stiffness_density(self):
        return density_mod.power(self.rho, float(self.alpha))

    @property
    def pole_constrained(self):
        """True when the r = 0 node is eliminated (Dirichlet at the pole)."""
        return isinstance(self.domain, RevolutionManifold) and self.j >= 1


@dataclass
class TridiagonalPencil:
    """Symmetric tridiagonal stiffness/mass pair (K, M)."""

    k_diag: np.ndarray
    k_off: np.ndarray
    m_diag: np.ndarray
    m_off: np.ndarray
    problem: ModeProblem = field(default=None, repr=False)
    # set by ``assemble``: what every mode shares, (hw, wk, theta, G bands, M bands)
    family: tuple = field(default=None, repr=False)
    # set by ``mode``: ``energy_split()``; and the record of ``eigensolver.counter``
    _split: tuple = field(default=None, repr=False, compare=False)
    _solver: object = field(default=None, init=False, repr=False, compare=False)

    def mode(self, j):
        """Mode j's pencil K_j = G + mu_j A of the family, with no density evaluation.

        The angular form A is positive semidefinite, so K_{j+1} - K_j =
        (mu_{j+1} - mu_j) A is too; for j >= 1 the pole node is removed.
        The bands are read-only: the pencil's solver record
        (``eigensolver.counter``) is built from them once.
        """
        problem = replace(self.problem, j=j)
        hw, _, _, k_diag, g_off, m_diag, m_off = self.family
        k_off, a_diag, a_off = g_off, np.zeros(len(k_diag)), np.zeros(len(g_off))
        if problem.pole_constrained:
            k_diag, k_off = k_diag.copy(), k_off.copy()
            _accumulate(hw, self._angular_weight(j), (k_diag, k_off), (a_diag, a_off))
            a_diag[1] -= g_off[0]  # the pole element's g_0 v_1^2, v_0 = 0
            k_diag, k_off, m_diag, m_off = _read_only(k_diag[1:], k_off[1:],
                                                      m_diag[1:], m_off[1:])
            g_off, a_diag, a_off = g_off[1:], a_diag[1:], a_off[1:]
        if np.any(m_diag <= 0):
            raise ValueError("mass matrix not positive definite: "
                             "non-positive density or degenerate grid")
        return TridiagonalPencil(k_diag, k_off, m_diag, m_off, problem, self.family,
                                 (-g_off, a_diag, a_off))

    def _angular_weight(self, j):
        """Gauss-point weights mu_j sigma theta^{n-3} of mode j's angular form A."""
        _, wk, th, *_ = self.family
        n = self.problem.domain.n
        wj = sphere_eigenvalue(j, n) * wk * th ** float(n - 3)
        _check_finite("angular weight", wj)
        return wj

    def energy_split(self):
        """``(g, a_diag, a_off)`` with v^T K v = sum_i g_i (v_{i+1} - v_i)^2 + v^T A v.

        For a mode of a family, g is the gradient weight of each element
        (G's rows sum to zero by construction) and A the angular form; for
        j >= 1 the pole element's term g_0 v_1^2 moves to A's diagonal.  Both
        parts are then sums of nonnegative element terms, so v^T K v is
        evaluated without the cancellation between K's diagonal and
        off-diagonal, and without the rounding of G + mu_j A into the bands.
        Without a family, g = -k_off and A = diag(K 1).
        """
        if self._split is not None:
            return self._split
        rows = self.k_diag.astype(float)
        rows[:-1] += self.k_off
        rows[1:] += self.k_off
        return -self.k_off, rows, np.zeros_like(self.k_off)

    @property
    def size(self):
        return len(self.k_diag)

    def k_norm1(self):
        return _tri_norm1(self.k_diag, self.k_off)

    def m_norm1(self):
        return _tri_norm1(self.m_diag, self.m_off)


def _tri_norm1(d, e):
    row = np.abs(d).astype(float)
    row[:-1] += np.abs(e)
    row[1:] += np.abs(e)
    return float(row.max(initial=0.0))


def _check_finite(name, vals):
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"non-finite {name} value at a quadrature node")


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _accumulate(hw, w, *bands):
    """Add the P1 element mass form of the Gauss-point weights ``w`` to each (diag, off)."""
    w0, w1 = w[:, 0], w[:, 1]
    b, t = np.multiply(w0, _P ** 2), np.multiply(w1, _Q ** 2)
    b += t
    b *= hw  # b11 = hw (w0 P^2 + w1 Q^2), left node
    for diag, _ in bands:
        diag[:-1] += b
    np.multiply(w0, _Q ** 2, out=b)
    np.multiply(w1, _P ** 2, out=t)
    b += t
    b *= hw  # b22, right node
    for diag, _ in bands:
        diag[1:] += b
    np.add(w0, w1, out=b)
    b *= hw
    b *= _P * _Q  # b12
    for _, off in bands:
        off += b


class ElementForms(NamedTuple):
    """The j = 0 quadratic forms of a ModeProblem, per element and Gauss point.

    v^T K_0 v = sum_e g[e] (v[e+1] - v[e])^2 and v^T M v = sum_e hw[e]
    sum_q wm[e, q] u_q^2, with u_q the P1 interpolant of v at Gauss point q
    of element e.  ``wk`` (sigma at the Gauss points) and ``theta`` (the
    profile there, None on an interval) give every mode's angular form.
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
    _check_finite("stiffness weight", wg)
    _check_finite("mass weight", wm)
    g = np.add(wg[:, 0], wg[:, 1])
    g *= hw
    g /= np.square(2.0 * hw)  # h^2
    return ElementForms(hw, g, wm, wk, th)


def assemble(problem):
    """Assemble the tridiagonal pencil of a ModeProblem.

    Only the diagonal and one off-diagonal band are built, so K and M are
    exactly symmetric.  For j = 0 the element stiffness has exact zero
    row sums (constants are in the kernel); for j >= 1 the pole node is
    removed.  Densities, profile and Gauss points are evaluated once per
    call (``element_forms``); ``mode(j)`` of the result derives any other
    mode from them.
    """
    forms = element_forms(problem)
    npts = len(forms.g) + 1
    k_diag = np.zeros(npts)
    k_off = np.zeros(npts - 1)
    m_diag = np.zeros(npts)
    m_off = np.zeros(npts - 1)

    # gradient part G: g_e [[1, -1], [-1, 1]]
    k_diag[:-1] += forms.g
    k_diag[1:] += forms.g
    k_off -= forms.g
    _accumulate(forms.hw, forms.wm, (m_diag, m_off))
    # the angular forms need hw, wk and theta; g and wm live on in the bands
    family = (forms.hw, forms.wk, forms.theta, *_read_only(k_diag, k_off, m_diag, m_off))
    return TridiagonalPencil(k_diag, k_off, m_diag, m_off, replace(problem, j=0),
                             family).mode(problem.j)
