"""Generalized symmetric eigensolver for tridiagonal pencils.

Solves K v = lambda M v for the lowest eigenpairs by shift-invert Lanczos
(ARPACK ``eigsh``) on the inverted pencil M v = nu (K + tau M) v with
nu = 1/(lambda + tau); an iteration costs one tridiagonal product and one
banded Cholesky solve.  Densities like exp(-m r^2), m ~ 1e4, give
stiffness/mass ratios spanning ~300 decades: the inverted pencil has norm
1/tau and keeps the sought eigenvalues at relative accuracy, and the unit
mass diagonal of the equilibrated variables keeps eigenvector components
in the underflowed-density region near zero instead of blowing eps-level
noise up by ~1e150.  Eigenvalues are Rayleigh quotients of Ritz vectors.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from dataclasses import dataclass
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


def _tridiagonal(d, e):
    return sp.diags([e, d, e], [-1, 0, 1], format="csr")


def _quadratic(a, x):
    """x^T A x per column of ``x``."""
    return np.sum(x * (a @ x), axis=0)


def _cholesky(d, e, name):
    """Upper banded Cholesky factor of the tridiagonal (d, e)."""
    try:
        return sla.cholesky_banded(np.vstack([np.append(0.0, e), d]),
                                   check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteMassError(f"{name} is not positive definite") from exc


def solve_generalized(pencil, k_max):
    """Lowest ``k_max + 1`` eigenpairs of the pencil K v = lambda M v."""
    kd, ke, md, me = (np.asarray(a, dtype=float) for a in
                      (pencil.k_diag, pencil.k_off, pencil.m_diag, pencil.m_off))
    n = len(kd)
    k_need = k_max + 1
    if not 0 < k_need <= n:
        raise ValueError(f"requested {k_need} pairs from a pencil of size {n}")
    if np.any(md <= 0):
        raise IndefiniteMassError("mass diagonal has non-positive entries")
    k, m = _tridiagonal(kd, ke), _tridiagonal(md, me)

    # scale of the low end of the spectrum: Rayleigh quotient of a ramp
    ramp = np.linspace(0.0, 1.0, n)
    tau = float(_quadratic(k, ramp) / _quadratic(m, ramp))
    if not (np.isfinite(tau) and tau > 0):
        raise EigenSolveError(f"could not establish a spectral scale (tau={tau})")

    # symmetric diagonal equilibration: unit mass diagonal
    s = 1.0 / np.sqrt(md)
    with np.errstate(over="ignore", invalid="ignore"):
        kd_h = kd * s ** 2
        ke_h = ke * s[:-1] * s[1:]
        me_h = me * s[:-1] * s[1:]
    if not all(np.all(np.isfinite(x)) for x in (kd_h, ke_h, me_h)):
        raise EigenSolveError(
            "pencil dynamic range exceeds double precision after equilibration; "
            "reduce the density contrast or the grid grading")
    k_h, m_h = _tridiagonal(kd_h, ke_h), _tridiagonal(np.ones(n), me_h)
    _cholesky(np.ones(n), me_h, "mass matrix")  # positive-definiteness check only
    a_factor = (_cholesky(kd_h + tau, ke_h + tau * me_h, "K + tau M"), False)

    if k_need < n:
        def inverse(x):
            return sla.cho_solve_banded(a_factor, x, check_finite=False)

        try:
            _, w = eigsh(k_h, k_need, M=m_h, sigma=-tau, tol=0,
                         OPinv=LinearOperator((n, n), matvec=inverse, dtype=float),
                         v0=np.random.default_rng(0).uniform(0.5, 1.5, n))
        except ArpackError as exc:
            raise EigenSolveError(f"shift-invert Lanczos failed: {exc}") from exc
    else:
        # ARPACK needs k < n: solve the whole inverted pencil densely
        _, w = sla.eigh(m_h.toarray(), (k_h + tau * m_h).toarray(), check_finite=False)

    values = _quadratic(k_h, w) / _quadratic(m_h, w)
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = s[:, None] * w[:, order]

    # M-normalize, then a deterministic sign: largest component positive
    vectors /= np.sqrt(_quadratic(m, vectors))
    vectors *= np.sign(vectors[np.argmax(np.abs(vectors), axis=0), np.arange(k_need)])
    mv = m @ vectors
    residuals = (np.linalg.norm(k @ vectors - values * mv, axis=0)
                 / (pencil.k_norm1() + np.abs(values) * pencil.m_norm1()))

    gram = vectors.T @ mv
    if not np.max(np.abs(gram - np.eye(k_need))) <= 1e-8:
        raise EigenSolveError("M-orthonormality of the computed eigenvectors failed")
    return EigenPairs(values=values, vectors=vectors, residual_norms=residuals)
