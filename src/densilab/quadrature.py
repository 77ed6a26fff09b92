"""Composite 2-point Gauss-Legendre quadrature on a 1D node array.

Every integral in the package (masses, volumes, stiffness/mass matrix
entries) goes through the same per-element rule, so algebraic identities
between assembled quantities hold to rounding rather than to quadrature
accuracy.
"""

import numpy as np

# Gauss-Legendre nodes on [-1/2, 1/2]: +/- 1/(2*sqrt(3))
_GAUSS_OFFSET = 0.5 / np.sqrt(3.0)


def gauss_points(nodes):
    """Quadrature points for each element of ``nodes``.

    Returns ``(pts, half_widths)`` where ``pts`` has shape ``(nelem, 2)``
    and each point carries weight ``half_widths[i]`` (i.e. h/2).
    """
    nodes = np.asarray(nodes, dtype=float)
    h = np.diff(nodes)
    mid = nodes[:-1] + nodes[1:]
    mid *= 0.5
    step = _GAUSS_OFFSET * h
    pts = np.empty((len(h), 2))
    np.subtract(mid, step, out=pts[:, 0])
    np.add(mid, step, out=pts[:, 1])
    h *= 0.5
    return pts, h


def element_integrals(nodes, fn):
    """Per-element integrals of ``fn`` over consecutive node pairs.

    The rule is exact for polynomials of degree <= 3 on each element.
    Raises ``ValueError`` if ``fn`` returns a non-finite value at any
    quadrature point.
    """
    pts, hw = gauss_points(nodes)
    vals = np.asarray(fn(pts), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = pts[~np.isfinite(vals).all(axis=1)]
        raise ValueError(f"non-finite weight value at quadrature node(s) {bad[:3]}")
    # the column add is the reduction over axis 1 at a fraction of its cost
    return hw * (vals[:, 0] + vals[:, 1])


def integrate(nodes, fn):
    """Integral of ``fn`` over the full node range."""
    return float(element_integrals(nodes, fn).sum())
