"""Composite 2-point Gauss-Legendre quadrature on a 1D node array.

Every integral in the package (masses, volumes, stiffness/mass matrix
entries, the Hoelder chain's weights) goes through this one per-element
rule: its points, the P1 basis values there and the checked per-element
sum.  So algebraic identities between assembled quantities hold to
rounding rather than to quadrature accuracy.
"""

import numpy as np

# Gauss-Legendre nodes on [-1/2, 1/2]: +/- 1/(2*sqrt(3))
_GAUSS_OFFSET = 0.5 / np.sqrt(3.0)

# P1 basis values at the two Gauss points of the reference element
_P = 0.5 + _GAUSS_OFFSET
_Q = 0.5 - _GAUSS_OFFSET


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


def _check_finite(name, vals):
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"non-finite {name} value at a quadrature node")


def element_sums(hw, vals, name):
    """hw (v_0 + v_1), each element's integral of its Gauss-point values ``vals``
    (shape (nelem, 2)); raises ``ValueError`` naming ``name`` if one is not finite."""
    _check_finite(name, vals)
    # the column add is the reduction over axis 1 at a fraction of its cost
    return hw * (vals[:, 0] + vals[:, 1])


def element_integrals(nodes, fn):
    """Per-element integrals of ``fn`` over consecutive node pairs.

    The rule is exact for polynomials of degree <= 3 on each element; a
    non-finite value of ``fn`` at a quadrature point raises ``ValueError``.
    """
    pts, hw = gauss_points(nodes)
    return element_sums(hw, np.asarray(fn(pts), dtype=float), "weight")


def integrate(nodes, fn):
    """Integral of ``fn`` over the full node range."""
    return float(element_integrals(nodes, fn).sum())
