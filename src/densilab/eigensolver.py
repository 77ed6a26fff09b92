"""Generalized symmetric eigensolver for tridiagonal pencils.

Shift-invert Lanczos in standard form (ARPACK Users' Guide, sec. 3.2): with
M = U^T U from LAPACK ``dpttrf`` (U = D^{1/2} L^T), ARPACK ``eigsh`` runs on
OP = U (K + tau M)^{-1} U^T, one ``dpttrs`` solve per product, whose top
eigenvalues 1/(lambda + tau) give the lowest lambda of K v = lambda M v;
Ritz vectors map back by v = M^{-1} U^T y, eigenvalues are their Rayleigh
quotients.  The inverted pencil keeps lambda at relative accuracy across the
~300 decades of densities like exp(-m r^2), m ~ 1e4, and the unit mass
diagonal of the equilibrated variables keeps eigenvector noise near zero
where the density underflows.

``exceeds`` answers "does every eigenvalue exceed sigma?" without solving:
by Sylvester's law of inertia that holds exactly when K - sigma M is
positive definite, which one O(N) ``dpttrf`` of the equilibrated pencil
decides (``dpttrf`` forms (e/d) e, never e^2, so its pivots do not
overflow where the density underflows).
"""

import numpy as np
import scipy.linalg as sla
from dataclasses import dataclass
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh


class IndefiniteMassError(ValueError):
    """Mass matrix not positive definite (invalid density or grid)."""


class EigenSolveError(RuntimeError):
    """Eigensolve failed or the pencil is out of floating range."""


@dataclass
class EigenPairs:
    """Lowest eigenpairs, sorted nondecreasing, vectors M-orthonormal.

    ``residual_norms``: ||K v - lambda M v||_2 / (||K||_1 + |lambda| ||M||_1) per pair.
    """

    values: np.ndarray
    vectors: np.ndarray  # shape (n, k); column i pairs with values[i]
    residual_norms: np.ndarray


def _tri_mul(d, e, x):
    """The tridiagonal (d, e) times the columns of ``x``."""
    y = d[:, None] * x
    y[:-1] += e[:, None] * x[1:]
    y[1:] += e[:, None] * x[:-1]
    return y


def _quadratic(d, e, x):
    """x^T A x per column of ``x`` for the tridiagonal A = (d, e)."""
    return np.sum(x * _tri_mul(d, e, x), axis=0)


def _equilibrate(kd, ke, md, me):
    """The congruence s (K, M) s with s = 1/sqrt(m_diag): unit mass diagonal.

    Returns ``s`` and the equilibrated ``(k_diag, k_off, m_off)``.
    """
    if np.any(md <= 0):
        raise IndefiniteMassError("mass diagonal has non-positive entries")
    s = 1.0 / np.sqrt(md)
    with np.errstate(over="ignore", invalid="ignore"):
        kd_h = kd * s ** 2
        ke_h = ke * s[:-1] * s[1:]
        me_h = me * s[:-1] * s[1:]
    if not all(np.all(np.isfinite(x)) for x in (kd_h, ke_h, me_h)):
        raise EigenSolveError("pencil dynamic range exceeds double precision after "
                              "equilibration; reduce the density contrast or the grid grading")
    return s, kd_h, ke_h, me_h


def _arrays(pencil):
    return tuple(np.asarray(a, dtype=float) for a in
                 (pencil.k_diag, pencil.k_off, pencil.m_diag, pencil.m_off))


def exceeds(pencil, sigma):
    """True iff every eigenvalue of K v = lambda M v exceeds ``sigma``."""
    _, kd_h, ke_h, me_h = _equilibrate(*_arrays(pencil))
    return dpttrf(kd_h - sigma, ke_h - sigma * me_h)[2] == 0


def solve_generalized(pencil, k_max):
    """Lowest ``k_max + 1`` eigenpairs of the pencil K v = lambda M v.

    Raises ``EigenSolveError`` when a pair's residual exceeds 1e-8 or the
    vectors are not M-orthonormal to 1e-8.
    """
    kd, ke, md, me = _arrays(pencil)
    n = len(kd)
    k_need = k_max + 1
    if not 0 < k_need <= n:
        raise ValueError(f"requested {k_need} pairs from a pencil of size {n}")
    s, kd_h, ke_h, me_h = _equilibrate(kd, ke, md, me)
    # scale of the low end of the spectrum: Rayleigh quotient of a ramp
    ramp = np.linspace(0.0, 1.0, n)[:, None]
    tau = (_quadratic(kd, ke, ramp) / _quadratic(md, me, ramp)).item()
    if not (np.isfinite(tau) and tau > 0):
        raise EigenSolveError(f"could not establish a spectral scale (tau={tau})")
    m_diag, m_low, m_info = dpttrf(np.ones(n), me_h)  # M_h = L D L^T
    a_diag, a_low, a_info = dpttrf(kd_h + tau, ke_h + tau * me_h)
    if m_info or a_info:
        name = "mass matrix" if m_info else "K + tau M"
        raise IndefiniteMassError(f"{name} is not positive definite")
    root = np.sqrt(m_diag)[:, None]  # M_h = U^T U: U = D^{1/2} L^T has diagonal root
    upper = root[:-1] * m_low[:, None]  # and superdiagonal upper

    def u_t(y):  # U^T y per column
        z = root * y
        z[1:] += upper * y[:-1]
        return z

    def op(y):  # U (K + tau M)^{-1} U^T y per column
        x = dpttrs(a_diag, a_low, u_t(y.reshape(n, -1)))[0]
        u = root * x
        u[:-1] += upper * x[1:]
        return u

    if k_need < n:
        try:
            _, y = eigsh(LinearOperator((n, n), matvec=op, dtype=float), k_need,
                         which="LA", tol=0, v0=np.random.default_rng(0).uniform(0.5, 1.5, n))
        except ArpackError as exc:
            raise EigenSolveError(f"shift-invert Lanczos failed: {exc}") from exc
    else:  # ARPACK needs k < n: the whole operator, densely
        _, y = sla.eigh(op(np.eye(n)), check_finite=False)
    w = dpttrs(m_diag, m_low, u_t(y))[0]
    # Rayleigh quotients; M-normalize, then a deterministic sign: largest component positive
    w_mass = _quadratic(np.ones(n), me_h, w)
    values = _quadratic(kd_h, ke_h, w) / w_mass
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = s[:, None] * (w / np.sqrt(w_mass))[:, order]
    vectors *= np.sign(vectors[np.argmax(np.abs(vectors), axis=0), np.arange(k_need)])
    mv = _tri_mul(md, me, vectors)
    residuals = (np.linalg.norm(_tri_mul(kd, ke, vectors) - values * mv, axis=0)
                 / (pencil.k_norm1() + np.abs(values) * pencil.m_norm1()))
    if not np.max(residuals) <= 1e-8:
        raise EigenSolveError(f"eigenpair residual {np.max(residuals):.3g} exceeds 1e-8")
    gram = vectors.T @ mv
    if not np.max(np.abs(gram - np.eye(k_need))) <= 1e-8:
        raise EigenSolveError("M-orthonormality of the computed eigenvectors failed")
    return EigenPairs(values=values, vectors=vectors, residual_norms=residuals)
