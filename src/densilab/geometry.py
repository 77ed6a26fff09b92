"""Domains and purely metric computations.

Two kinds of domain cover all experiments: a 1D interval and a manifold of
revolution of dimension n >= 2 described by a radial profile.  On a manifold
of revolution every radially symmetric PDE reduces to one-dimensional mode
problems, which is what the rest of the package exploits.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import element_integrals, integrate

DEFAULT_GRID_N = 2048


@dataclass(frozen=True)
class Interval:
    """The 1D domain (a, b)."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"interval needs a < b, got ({self.a}, {self.b})")

    @property
    def dim(self):
        return 1

    @property
    def bounds(self):
        return (self.a, self.b)

    @property
    def extent(self):
        return self.b - self.a

    @property
    def center(self):
        return 0.5 * (self.a + self.b)


@dataclass(frozen=True)
class RevolutionManifold:
    """Metric dr^2 + profile(r)^2 g_{S^{n-1}} on [0, R] x S^{n-1}.

    The profile must vanish at the pole, be positive for r > 0, and have
    unit slope at r = 0 (smooth pole).  The slope is checked by a
    second-order one-sided finite difference.
    """

    n: int
    R: float
    profile: object  # vectorized callable r -> theta(r)
    pole_slope_tol: float = field(default=1e-6, compare=False)

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {self.n}")
        if not self.R > 0:
            raise ValueError(f"radial extent must be positive, got {self.R}")
        theta = self.profile
        if abs(float(theta(np.array([0.0]))[0])) > 1e-9 * self.R:
            raise ValueError("profile must vanish at the pole")
        r = np.linspace(self.R / 256, self.R, 256)
        if np.min(theta(r)) <= 0:
            raise ValueError("profile must be positive on (0, R]")
        # one-sided second-order FD, error O(delta^2 * theta''')
        d = 1e-5 * self.R
        slope = float((4.0 * theta(np.array([d])) - theta(np.array([2 * d])))[0]) / (2 * d)
        if abs(slope - 1.0) > self.pole_slope_tol:
            raise ValueError(f"profile slope at pole is {slope}, expected 1")

    @property
    def dim(self):
        return self.n

    @property
    def bounds(self):
        return (0.0, self.R)

    @property
    def extent(self):
        return self.R

    @classmethod
    def ball(cls, n, R=1.0):
        """Flat disk (n=2) or flat ball: profile theta(r) = r."""
        return cls(n=n, R=float(R), profile=lambda r: np.asarray(r, dtype=float))

    @classmethod
    def spherical_cap(cls, n, R):
        """Cap of the round sphere: theta(r) = sin r, requires R < pi."""
        if not 0 < R < math.pi:
            raise ValueError("spherical cap needs 0 < R < pi")
        return cls(n=n, R=float(R), profile=np.sin)

    @classmethod
    def tabulated(cls, n, r_nodes, theta_values, pole_slope_tol=1e-5):
        """Profile given by samples, interpolated monotone-cubically."""
        r_nodes = np.asarray(r_nodes, dtype=float)
        spline = pchip(r_nodes, theta_values)
        return cls(n=n, R=float(r_nodes[-1]), profile=spline, pole_slope_tol=pole_slope_tol)


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, kept shape-preserving (Moler, pchiptx)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip(x, y):
    """Monotone piecewise-cubic Hermite interpolant of samples y at nodes x.

    Fritsch-Butland (1984) slopes: zero where the secant slopes change sign
    or vanish, else their weighted harmonic mean.  Returns a vectorized
    callable that extends the end cubics beyond [x_0, x_last].  Bit for bit
    scipy's ``PchipInterpolator`` on 1-D samples: the same slopes, the same
    coefficients, summed in the order its ``_ppoly.evaluate`` uses, and the
    same ``ValueError`` for invalid samples.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1:
        raise ValueError("`x` must be 1-dimensional.")
    if y.ndim != 1:
        raise ValueError("`y` must be 1-dimensional.")
    if x.shape[0] < 2:
        raise ValueError("`x` must contain at least 2 elements.")
    if x.shape[0] != y.shape[0]:
        raise ValueError("The length of `y` along `axis`=0 doesn't match the length of `x`")
    if not np.all(np.isfinite(x)):
        raise ValueError("`x` must contain only finite values.")
    if not np.all(np.isfinite(y)):
        raise ValueError("`y` must contain only finite values.")
    h = np.diff(x)
    if np.any(h <= 0):
        raise ValueError("`x` must be strictly increasing sequence.")
    m = np.diff(y) / h
    if len(x) == 2:
        d = np.array([m[0], m[0]])
    else:
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d = np.zeros_like(y)
        d[1:-1][~flat] = 1.0 / whmean[~flat]
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    # c0 s^3 + c1 s^2 + c2 s + c3 on [x_i, x_i+1), s = q - x_i; the sum starts
    # from 0.0 there, which turns a -0.0 sample into +0.0
    c0, c1, c2, c3 = t / h, (m - d[:-1]) / h - t, d[:-1], 0.0 + y[:-1]
    inner = x[1:-1]

    def interpolant(q):
        q = np.asarray(q, dtype=float)
        flat_q = q.ravel()
        # the cubic of [x_i, x_i+1), of the last one at x_last and beyond, of
        # the first one below x_0
        i = inner.searchsorted(flat_q, side="right")
        s = flat_q - x[i]
        s2 = s * s
        return (((c3[i] + c2[i] * s) + c1[i] * s2) + c0[i] * (s2 * s)).reshape(q.shape)

    return interpolant


def _check_endpoints(nodes, domain):
    """Raise unless the first and last node are the domain's bounds, to 1e-12."""
    lo, hi = domain.bounds
    if abs(nodes[0] - lo) > 1e-12 * max(1.0, abs(lo)) or \
       abs(nodes[-1] - hi) > 1e-12 * max(1.0, abs(hi)):
        raise ValueError("grid does not cover the domain: its endpoints must be its bounds")


class RadialGrid:
    """Sorted nodes covering the radial coordinate range of a domain."""

    def __init__(self, nodes, domain=None):
        nodes = np.array(nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 9:
            raise ValueError("grid needs at least 8 elements")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        if domain is not None:
            _check_endpoints(nodes, domain)
        self.nodes = nodes
        self.nodes.flags.writeable = False

    @property
    def n_elements(self):
        return len(self.nodes) - 1

    @classmethod
    def uniform(cls, domain, n_elements=DEFAULT_GRID_N):
        lo, hi = domain.bounds
        return cls(np.linspace(lo, hi, n_elements + 1), domain)

    @classmethod
    def graded(cls, domain, n_elements=DEFAULT_GRID_N):
        """Grid concentrated where peaked densities live, quadratically graded.

        On a manifold of revolution the nodes accumulate at the pole; on
        an interval they accumulate symmetrically around the center
        (n_elements must be even there).  Doubling n_elements yields a
        nested refinement, which the convergence studies rely on.
        """
        lo, hi = domain.bounds
        if isinstance(domain, Interval):
            if n_elements % 2:
                raise ValueError("graded interval grid needs an even element count")
            t = np.linspace(-1.0, 1.0, n_elements + 1)
            x = domain.center + 0.5 * domain.extent * np.sign(t) * np.abs(t) ** 2.0
            x[0], x[-1] = lo, hi
            return cls(x, domain)
        t = np.linspace(0.0, 1.0, n_elements + 1)
        r = lo + (hi - lo) * t ** 2.0
        r[-1] = hi
        return cls(r, domain)

    @classmethod
    def for_density(cls, domain, n_elements=DEFAULT_GRID_N, m=None):
        """Default grid policy: graded for sharply localized densities."""
        if m is not None and m >= 1e3:
            return cls.graded(domain, n_elements)
        return cls.uniform(domain, n_elements)


def unit_sphere_area(n):
    """Area of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _default_grid(domain, grid):
    if grid is None:
        return RadialGrid.uniform(domain, DEFAULT_GRID_N)
    return grid


def volume(domain, grid=None):
    """Riemannian volume of the domain.

    For manifolds of revolution this is omega_{n-1} * int theta^{n-1} dr,
    evaluated with the package quadrature rule on ``grid``.
    """
    if isinstance(domain, Interval):
        return domain.extent
    grid = _default_grid(domain, grid)
    theta = domain.profile
    w = integrate(grid.nodes, lambda r: theta(r) ** (domain.n - 1))
    return unit_sphere_area(domain.n) * w


def sphere_eigenvalue(j, n):
    """Laplacian eigenvalue j(j + n - 2) of degree-j harmonics on S^{n-1}."""
    if n < 2:
        raise ValueError("sphere modes need dimension n >= 2")
    if j < 0:
        raise ValueError("mode index must be >= 0")
    return float(j * (j + n - 2))


def sphere_multiplicity(j, n):
    """Dimension of the space of degree-j spherical harmonics on S^{n-1}."""
    if n < 2:
        raise ValueError("sphere modes need dimension n >= 2")
    if j < 0:
        raise ValueError("mode index must be >= 0")
    m = math.comb(n + j - 1, j)
    if j >= 2:
        m -= math.comb(n + j - 3, j - 2)
    return m


def homothety(manifold, c):
    """Scale the metric by a factor c > 0.

    Lengths scale by sqrt(c): the radial extent becomes sqrt(c) R and the
    profile becomes sqrt(c) theta(s / sqrt(c)); volume scales by c^{n/2}.
    """
    if not c > 0:
        raise ValueError(f"homothety factor must be positive, got {c}")
    s = math.sqrt(c)
    theta = manifold.profile
    return RevolutionManifold(
        n=manifold.n,
        R=s * manifold.R,
        profile=lambda r, _t=theta, _s=s: _s * _t(np.asarray(r) / _s),
        pole_slope_tol=manifold.pole_slope_tol,
    )


def conformal_reparametrize(manifold, rho, grid=None):
    """Manifold of revolution isometric to (M, rho^{2/n} g) for radial rho.

    New arclength s(r) = int_0^r rho^{1/n} dt and new profile
    theta~(s(r)) = rho(r)^{1/n} theta(r), tabulated on ``grid`` and
    interpolated monotone-cubically.  The volume of the result equals
    int_M rho dV to quadrature accuracy.
    """
    if not getattr(rho, "is_radial", False):
        raise ValueError("conformal reparametrization needs a radial density")
    grid = _default_grid(manifold, grid)
    n = manifold.n
    theta = manifold.profile
    ds = element_integrals(grid.nodes, lambda r: rho(r) ** (1.0 / n))
    s_nodes = np.concatenate([[0.0], np.cumsum(ds)])
    theta_new = rho(grid.nodes) ** (1.0 / n) * theta(grid.nodes)
    theta_new[0] = 0.0
    # the interpolant's endpoint slope carries an O(h^2) tabulation error
    slope_tol = max(1e-6, 10.0 / grid.n_elements ** 2)
    return RevolutionManifold.tabulated(n, s_nodes, theta_new, pole_slope_tol=slope_tol)
