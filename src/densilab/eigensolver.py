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

An unconstrained (j = 0) pencil has the constants in the kernel of K by
construction.  That pair is returned exactly, lambda_0 = 0 with the
M-normalized constant, and Lanczos runs on its M-orthogonal complement.

Given start vectors (eigenvectors of a coarser grid, interpolated), the
solver first tries Rayleigh quotient iteration (Parlett, *The Symmetric
Eigenvalue Problem*, ch. 4): shifted solves of the indefinite K - lambda M
with LAPACK ``dgtsv``.  RQI converges to whichever eigenvalue is nearest,
so each pair i is certified by counting: exactly i eigenvalues lie below
lambda_i (1 - 1e-8) and i + 1 below lambda_i (1 + 1e-8).  An exactly
singular solve ends the iteration: the quotient is then an eigenvalue to
working precision.  A pair that fails the count, a non-finite solve or a
failed gate sends the solve to Lanczos, and the result records why.

``count_below`` counts without solving.  By Sylvester's law
of inertia the number of eigenvalues below sigma is the number of negative
pivots of the LDL^T factorization of K - sigma M, which ``dpttrf`` computes
on the equilibrated pencil in O(N) (it forms (e/d) e, never e^2, so its
pivots do not overflow where the density underflows).
"""

import numpy as np
import scipy.linalg as sla
from dataclasses import dataclass
from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

# relative half-width of the bracket a count certificate checks: no
# eigenvalue may lie within it of the counted value, rounding either way
CERTIFICATE_DELTA = 1e-8
_RQI_MAX_STEPS = 6
# stop once the Rayleigh quotient moves by less than this: the convergence is
# cubic, so the next quotient would differ only by rounding (about 1e-12)
_RQI_RTOL = 1e-10


class IndefiniteMassError(ValueError):
    """Mass matrix not positive definite (invalid density or grid)."""


class EigenSolveError(RuntimeError):
    """Eigensolve failed or the pencil is out of floating range."""


@dataclass
class EigenPairs:
    """Lowest eigenpairs, sorted nondecreasing, vectors M-orthonormal.

    ``residual_norms``: ||K v - lambda M v||_2 / (||K||_1 + |lambda| ||M||_1) per pair.
    ``path``: the solver that produced the pairs, ``"lanczos"``, ``"dense"``
    (every pair of the pencil), ``"rqi"`` (warm start) or ``"zero"`` (the
    deflated zero mode alone, nothing solved); ``refused``: why a given warm
    start was not used, else None.
    """

    values: np.ndarray
    vectors: np.ndarray  # shape (n, k); column i pairs with values[i]
    residual_norms: np.ndarray
    path: str = "lanczos"
    refused: str = None


def _tri_mul(d, e, x):
    """The tridiagonal (d, e) times the columns of ``x``."""
    y = d[:, None] * x
    y[:-1] += e[:, None] * x[1:]
    y[1:] += e[:, None] * x[:-1]
    return y


def _quadratic(d, e, x):
    """x^T A x per column of ``x`` for the tridiagonal A = (d, e)."""
    return np.sum(x * _tri_mul(d, e, x), axis=0)


def _column_norms(x):
    """2-norm of each column, scaled by its largest entry so squares cannot overflow."""
    top = np.max(np.abs(x), axis=0)
    top[top == 0] = 1.0
    return top * np.linalg.norm(x / top, axis=0)


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


def _count(kd_h, ke_h, me_h, sigma):
    """Negative pivots of the equilibrated K - sigma M (unit mass diagonal).

    ``dpttrf`` stops at the first pivot p <= 0 (``info`` is its 1-based row);
    elimination goes on past it on the tail, whose first diagonal entry
    becomes a - (e / p) e.  A zero pivot counts as a tiny negative one, as
    in LAPACK ``dstebz``.  One ``dpttrf`` call per negative pivot, plus one.
    """
    d, e = kd_h - sigma, ke_h - sigma * me_h
    count = 0
    while len(d) > 1:  # the LAPACK wrapper needs n >= 2
        pivots, _, info = dpttrf(d, e)
        if info == 0:
            return count
        count += 1
        if info == len(d):
            return count
        p = min(pivots[info - 1], -np.finfo(float).tiny)
        with np.errstate(over="ignore"):
            d = d[info:].copy()
            d[0] -= (e[info - 1] / p) * e[info - 1]
        e = e[info:]
    return count + int(d[0] <= 0)


def counter(pencil):
    """``count_below`` of one pencil as a function of sigma, equilibrated once."""
    bands = _equilibrate(*_arrays(pencil))[1:]
    return lambda sigma: _count(*bands, sigma)


def count_below(pencil, sigma):
    """Number of eigenvalues of K v = lambda M v below ``sigma`` (Sylvester inertia)."""
    return counter(pencil)(sigma)


def ramp_quotient(pencil):
    """Rayleigh quotient of a linear ramp: the scale of the low end of the spectrum."""
    kd, ke, md, me = _arrays(pencil)
    ramp = np.linspace(0.0, 1.0, len(kd))[:, None]
    return (_quadratic(kd, ke, ramp) / _quadratic(md, me, ramp)).item()


def _energy(pencil, s, w):
    """v^T K v per column of ``w``, v = s w, from ``pencil.energy_split()``.

    Each column is scaled by a power of two (exact) so that its squares
    cannot overflow where ``s`` is huge.
    """
    g, a_diag, a_off = pencil.energy_split()
    v = s[:, None] * w
    top = np.max(np.abs(v), axis=0)
    exp = np.frexp(np.where(top > 0, top, 1.0))[1]
    v = np.ldexp(v, -exp)
    num = g @ np.diff(v, axis=0) ** 2 + _quadratic(a_diag, a_off, v)
    return np.ldexp(num, 2 * exp)


def _has_constant_kernel(pencil):
    """K 1 = 0 by construction: an unconstrained mode (Neumann, j = 0)."""
    return pencil.problem is not None and not pencil.problem.pole_constrained


def _zero_mode(md, me_h):
    """The M-normalized constant in equilibrated variables: sqrt(m_diag) / sqrt(1^T M 1)."""
    w = np.sqrt(md)
    return w / np.sqrt(_quadratic(np.ones(len(md)), me_h, w[:, None]).item())


def _rqi(kd_h, ke_h, me_h, w, zero):
    """Rayleigh quotient iteration from each column of ``w``, with its count certificate.

    With ``zero`` (the known kernel vector) column 0 is replaced by it and
    the others are kept M-orthogonal to it.  Returns the M-normalized
    equilibrated vectors; raises ``EigenSolveError`` when a column fails.
    """
    n, k = w.shape
    ones = np.ones(n)
    w = w.copy()

    def normalized(x):  # M-orthogonal to zero, M-normalized; with M x and the quotient
        if zero is not None:
            x = x - zero * (zero @ _tri_mul(ones, me_h, x[:, None])[:, 0])
        mx = _tri_mul(ones, me_h, x[:, None])[:, 0]
        norm = np.sqrt(x @ mx)
        if not (np.isfinite(norm) and norm > 0):
            raise EigenSolveError("warm start refused: start vector vanishes")
        x, mx = x / norm, mx / norm
        return x, mx, x @ _tri_mul(kd_h, ke_h, x[:, None])[:, 0]

    for i in range(k):
        if zero is not None and i == 0:
            w[:, 0] = zero
            continue
        x, mx, lam = normalized(w[:, i])
        for _ in range(_RQI_MAX_STEPS):
            off = ke_h - lam * me_h
            *_, y, info = dgtsv(off, kd_h - lam, off, mx[:, None])
            if info != 0:  # K - lam M exactly singular: lam is an eigenvalue
                break
            if not np.all(np.isfinite(y)):
                raise EigenSolveError(f"warm start refused: non-finite shifted solve "
                                      f"at pair {i}")
            x, mx, new = normalized(y[:, 0])
            converged = abs(new - lam) <= _RQI_RTOL * abs(new)
            lam = new
            if converged:
                break
        else:
            raise EigenSolveError(f"warm start refused: pair {i} did not settle "
                                  f"in {_RQI_MAX_STEPS} RQI steps")
        below = [_count(kd_h, ke_h, me_h, lam * f)
                 for f in (1 - CERTIFICATE_DELTA, 1 + CERTIFICATE_DELTA)]
        if below != [i, i + 1]:
            raise EigenSolveError(f"warm start refused: pair {i} converged to "
                                  f"{lam:.12g}, which has {below[0]} eigenvalues "
                                  f"below it and {below[1]} up to it (expected {i}, {i + 1})")
        w[:, i] = x
    return w


def _lanczos(pencil, kd_h, ke_h, me_h, k_need, zero):
    """Shift-invert Lanczos (dense when all pairs are asked) on the complement of ``zero``.

    Returns the M-normalized equilibrated vectors and the path.
    """
    n = pencil.size
    tau = ramp_quotient(pencil)
    if not (np.isfinite(tau) and tau > 0):
        raise EigenSolveError(f"could not establish a spectral scale (tau={tau})")
    m_diag, m_low, m_info = dpttrf(np.ones(n), me_h)  # M_h = L D L^T
    a_diag, a_low, a_info = dpttrf(kd_h + tau, ke_h + tau * me_h)
    if m_info or a_info:
        name = "mass matrix" if m_info else "K + tau M"
        raise IndefiniteMassError(f"{name} is not positive definite")
    root = np.sqrt(m_diag)[:, None]  # M_h = U^T U: U = D^{1/2} L^T has diagonal root
    upper = root[:-1] * m_low[:, None]  # and superdiagonal upper

    def u(x):  # U x per column
        z = root * x
        z[:-1] += upper * x[1:]
        return z

    def u_t(y):  # U^T y per column
        z = root * y
        z[1:] += upper * y[:-1]
        return z

    # the kernel vector in standard form, U zero, has unit 2-norm
    y0 = None if zero is None else u(zero[:, None])[:, 0]

    def deflate(y):
        return y if y0 is None else y - y0[:, None] * (y0 @ y)

    def op(y):  # U (K + tau M)^{-1} U^T y per column, projected onto the complement of y0
        return deflate(u(dpttrs(a_diag, a_low, u_t(y.reshape(n, -1)))[0]))

    k_solve = k_need - (zero is not None)
    if k_need < n:
        v0 = deflate(np.random.default_rng(0).uniform(0.5, 1.5, n)[:, None])[:, 0]
        try:
            _, y = eigsh(LinearOperator((n, n), matvec=op, dtype=float), k_solve,
                         which="LA", tol=0, v0=v0)
        except ArpackError as exc:
            raise EigenSolveError(f"shift-invert Lanczos failed: {exc}") from exc
        path = "lanczos"
    else:  # ARPACK needs k < n: the whole operator, densely
        y = sla.eigh(op(deflate(np.eye(n))), check_finite=False)[1][:, n - k_solve:]
        path = "dense"
    w = dpttrs(m_diag, m_low, u_t(y))[0]
    w = w / np.sqrt(_quadratic(np.ones(n), me_h, w))
    if zero is not None:
        w = np.column_stack([zero, w])
    return w, path


def _checked_pairs(pencil, s, me_h, w, zero, path):
    """Eigenvalues of M-normalized ``w``; sorted, un-equilibrated and gated.

    Each eigenvalue is the Rayleigh quotient with its numerator in element
    form (``_energy``), except the deflated zero mode's, which is 0 exactly.
    Gates: residuals and M-orthonormality.
    """
    kd, ke, md, me = _arrays(pencil)
    k = w.shape[1]
    first = int(zero is not None)
    values = np.zeros(k)
    values[first:] = (_energy(pencil, s, w[:, first:])
                      / _quadratic(np.ones(len(s)), me_h, w[:, first:]))
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = s[:, None] * w[:, order]
    # a deterministic sign: largest component positive
    vectors *= np.sign(vectors[np.argmax(np.abs(vectors), axis=0), np.arange(k)])
    mv = _tri_mul(md, me, vectors)
    residuals = (_column_norms(_tri_mul(kd, ke, vectors) - values * mv)
                 / (pencil.k_norm1() + np.abs(values) * pencil.m_norm1()))
    if not np.max(residuals) <= 1e-8:
        raise EigenSolveError(f"eigenpair residual {np.max(residuals):.3g} exceeds 1e-8")
    gram = vectors.T @ mv
    if not np.max(np.abs(gram - np.eye(k))) <= 1e-8:
        raise EigenSolveError("M-orthonormality of the computed eigenvectors failed")
    return EigenPairs(values=values, vectors=vectors, residual_norms=residuals, path=path)


def solve_generalized(pencil, k_max, guess=None):
    """Lowest ``k_max + 1`` eigenpairs of the pencil K v = lambda M v.

    ``guess`` (shape ``(size, k_max + 1)``, e.g. a coarser grid's vectors
    interpolated) starts count-certified Rayleigh quotient iteration; when a
    pair fails, Lanczos runs instead and ``EigenPairs.refused`` says why.
    The zero mode alone (``k_max = 0`` on a pencil with K 1 = 0) needs no
    factorization: it is returned as is, on the path ``"zero"``.
    Raises ``EigenSolveError`` when a pair's residual exceeds 1e-8 or the
    vectors are not M-orthonormal to 1e-8.
    """
    kd, ke, md, me = _arrays(pencil)
    n = len(kd)
    k_need = k_max + 1
    if not 0 < k_need <= n:
        raise ValueError(f"requested {k_need} pairs from a pencil of size {n}")
    s, kd_h, ke_h, me_h = _equilibrate(kd, ke, md, me)
    zero = _zero_mode(md, me_h) if _has_constant_kernel(pencil) else None
    if guess is not None:
        guess = np.asarray(guess, dtype=float)
        if guess.shape != (n, k_need):
            raise ValueError(f"guess has shape {guess.shape}, expected {(n, k_need)}")
    if zero is not None and k_need == 1:
        return _checked_pairs(pencil, s, me_h, zero[:, None], zero, "zero")
    refused = None
    if guess is not None:
        try:
            w = _rqi(kd_h, ke_h, me_h, guess / s[:, None], zero)
            return _checked_pairs(pencil, s, me_h, w, zero, "rqi")
        except EigenSolveError as exc:
            refused = str(exc)
    w, path = _lanczos(pencil, kd_h, ke_h, me_h, k_need, zero)
    pairs = _checked_pairs(pencil, s, me_h, w, zero, path)
    pairs.refused = refused
    return pairs
