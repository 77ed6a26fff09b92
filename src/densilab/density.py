"""Positive radial densities, their powers, masses and normalization.

A density is a strictly positive function of the radial coordinate: the
signed coordinate x on an interval, the geodesic distance r to the pole
on a manifold of revolution.  Closed-form families stay closed under the
algebra used everywhere else (power, scaling, coordinate stretching), so
identities like (c*rho)^a = c^a * rho^a hold entry-by-entry in the
assembled matrices.

Evaluation is floored to preserve positivity: Gaussian values underflow
to zero once m*r^2 exceeds about 700.  The floor must commute with the
algebra -- rho^a is floored at floor(rho)^a, c*rho at c*floor(rho) --
otherwise the stiffness/mass ratio collapses to 1 wherever both weights
hit a common floor, and the discrete problem grows spurious low
eigenvalues that the continuum problem does not have.
"""

import math

import numpy as np

from . import geometry
from .quadrature import integrate

DENSITY_FLOOR = 1e-300


def _check_range(r, lo, hi, what):
    """Reject points outside [lo, hi] beyond a rounding-level pad."""
    pad = 1e-12 * max(1.0, abs(lo), abs(hi))
    if np.any(r < lo - pad) or np.any(r > hi + pad):
        raise ValueError(f"evaluation point outside {what} [{lo}, {hi}]")


class DensityField:
    """Base class; subclasses implement ``_raw`` (vectorized, unclamped).

    ``evaluate`` floors a fresh array that ``_raw`` returns in place; any
    other result (a view, a scalar, the input itself) is floored into a copy.
    """

    is_radial = True
    floor = DENSITY_FLOOR

    def _raw(self, r):
        raise NotImplementedError

    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        vals = self._raw(r)
        fresh = (isinstance(vals, np.ndarray) and vals.ndim and vals.dtype == float
                 and vals.base is None and vals is not r)
        return np.maximum(vals, self.floor, out=vals if fresh else None)

    def __call__(self, r):
        return self.evaluate(r)


class Constant(DensityField):
    def __init__(self, c=1.0):
        if not 0 < c < math.inf:
            raise ValueError(f"density must be positive and finite, got {c}")
        self.c = float(c)

    def _raw(self, r):
        return np.full_like(np.asarray(r, dtype=float), self.c)

    def __repr__(self):
        return f"Constant({self.c})"


class GaussianRadial(DensityField):
    """exp(-m r^2) with r the radial coordinate (geodesic distance)."""

    def __init__(self, m, floor=DENSITY_FLOOR):
        if not 0 < m < math.inf:
            raise ValueError(f"gaussian width m must be positive and finite, got {m}")
        self.m = float(m)
        self.floor = floor

    def _raw(self, r):
        vals = np.square(np.asarray(r, dtype=float))
        vals *= -self.m
        return np.exp(vals, out=vals if vals.ndim else None)

    def __repr__(self):
        return f"GaussianRadial(m={self.m})"


class CauchyPower(DensityField):
    """The rational bump (2a/(1-a))^{1/(1-a)} * (1 + m x^2)^{-1/(1-a)}.

    Built so that a/(1-a) * (rho^{a-1})'' = m identically; on (-1, 1) this
    forces the first nonzero eigenvalue of the (rho, rho^a) problem to be
    at least m, for every a in (0, 1).
    """

    def __init__(self, m, alpha):
        alpha = float(alpha)
        if not 0.0 < alpha < 1.0:
            raise ValueError("CauchyPower needs alpha strictly inside (0, 1)")
        if not 0 < m < math.inf:
            raise ValueError(f"width parameter m must be positive and finite, got {m}")
        self.m = float(m)
        self.alpha = alpha
        self.amplitude = (2.0 * alpha / (1.0 - alpha)) ** (1.0 / (1.0 - alpha))

    def _raw(self, r):
        r = np.asarray(r, dtype=float)
        return self.amplitude * (1.0 + self.m * r ** 2) ** (-1.0 / (1.0 - self.alpha))

    def __repr__(self):
        return f"CauchyPower(m={self.m}, alpha={self.alpha})"


class Tabulated(DensityField):
    """Samples (r_i, rho_i) interpolated monotone-cubically.

    Evaluation outside [r_0, r_last] raises: the interpolant there is an
    extrapolation that can turn negative and be floored unseen.
    """

    def __init__(self, r_nodes, values):
        r_nodes = np.asarray(r_nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if np.any(values <= 0):
            raise ValueError("tabulated density values must be positive")
        self._spline = geometry.pchip(r_nodes, values)
        self.r_nodes = r_nodes
        self.values = values

    @classmethod
    def from_csv(cls, path):
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        if data.shape[1] != 2:
            raise ValueError(f"{path}: need two columns (r, rho), got {data.shape[1]}")
        return cls(data[:, 0], data[:, 1])

    def _raw(self, r):
        r = np.asarray(r, dtype=float)
        _check_range(r, self.r_nodes[0], self.r_nodes[-1], "the tabulated range")
        return self._spline(r)

    def __repr__(self):
        return f"Tabulated({len(self.r_nodes)} nodes)"


class Scaled(DensityField):
    """c * base, kept as a wrapper so c^alpha factors out exactly.

    The floor scales along: max(c*raw, c*floor) = c*max(raw, floor).  The
    base's width parameter ``m``, if any, carries over: it sets the grid.
    """

    def __init__(self, base, c):
        if not 0 < c < math.inf:
            raise ValueError(f"scale factor must be positive and finite, got {c}")
        self.base = base
        self.c = float(c)
        self.m = getattr(base, "m", None)
        self.floor = c * base.floor

    def _raw(self, r):
        return self.c * self.base._raw(r)

    def __repr__(self):
        return f"Scaled({self.base!r}, c={self.c})"


class PowerDensity(DensityField):
    """base**alpha for families without a closed-form power.

    The power is applied to the floored base, so the ratio base**alpha /
    base stays at floor(base)^(alpha-1) in the underflow region instead
    of collapsing to 1.
    """

    def __init__(self, base, alpha):
        self.base = base
        self.alpha = float(alpha)
        self.floor = base.floor ** self.alpha if self.alpha != 0 else 1.0

    def _raw(self, r):
        return self.base.evaluate(r) ** self.alpha

    def __repr__(self):
        return f"{self.base!r}**{self.alpha}"


def power(rho, alpha):
    """The density rho**alpha, using closed forms where they exist."""
    alpha = float(alpha)
    if alpha == 0.0:
        return Constant(1.0)
    if alpha == 1.0:
        return rho
    if isinstance(rho, Constant):
        return Constant(rho.c ** alpha)
    if isinstance(rho, GaussianRadial):
        return GaussianRadial(alpha * rho.m, floor=rho.floor ** alpha)
    if isinstance(rho, Scaled):
        return Scaled(power(rho.base, alpha), rho.c ** alpha)
    if isinstance(rho, PowerDensity):
        return PowerDensity(rho.base, rho.alpha * alpha)
    return PowerDensity(rho, alpha)


def scale(rho, c):
    """The density c * rho."""
    if isinstance(rho, Constant):
        return Constant(c * rho.c)
    if isinstance(rho, Scaled):
        return Scaled(rho.base, c * rho.c)
    return Scaled(rho, c)


def stretched(rho, s):
    """The density r -> rho(r / s); transports rho under a homothety."""
    if not s > 0:
        raise ValueError("stretch factor must be positive")
    if isinstance(rho, Constant):
        return rho
    if isinstance(rho, GaussianRadial):
        return GaussianRadial(rho.m / s ** 2, floor=rho.floor)
    if isinstance(rho, CauchyPower):
        return CauchyPower(rho.m / s ** 2, rho.alpha)
    if isinstance(rho, Scaled):
        return Scaled(stretched(rho.base, s), rho.c)
    if isinstance(rho, PowerDensity):
        return PowerDensity(stretched(rho.base, s), rho.alpha)
    if isinstance(rho, Tabulated):
        return Tabulated(s * rho.r_nodes, rho.values)
    raise TypeError(f"cannot stretch density of type {type(rho).__name__}")


def total_mass(rho, domain, grid=None):
    """int_M rho dV with the package quadrature rule."""
    grid = geometry._default_grid(domain, grid)
    if isinstance(domain, geometry.Interval):
        return integrate(grid.nodes, rho)
    theta = domain.profile
    w = integrate(grid.nodes, lambda r: rho(r) * theta(r) ** (domain.n - 1))
    return geometry.unit_sphere_area(domain.n) * w


def normalize(rho, domain, grid=None):
    """Rescale so the total mass equals the volume of the domain.

    Idempotent: normalizing twice gives the same scale factor, because
    mass and volume are computed with the same quadrature rule.
    """
    grid = geometry._default_grid(domain, grid)
    c = geometry.volume(domain, grid) / total_mass(rho, domain, grid)
    return scale(rho, c)


def from_config(cfg):
    """The density a ``--density`` spec names: constant, gaussian, cauchy_power, tabulated."""
    kind = cfg["kind"]
    if kind == "constant":
        return Constant(cfg.get("c", 1.0))
    if kind == "gaussian":
        return GaussianRadial(cfg["m"])
    if kind == "cauchy_power":
        return CauchyPower(cfg["m"], cfg["alpha"])
    if kind == "tabulated":
        return Tabulated.from_csv(cfg["path"])
    raise ValueError(f"unknown density kind {kind!r}")
