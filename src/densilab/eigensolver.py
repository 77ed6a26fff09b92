"""Generalized symmetric eigensolver for tridiagonal pencils: count, then solve.

``counter(pencil)(sigma)``: by Sylvester's law of inertia, the number of
eigenvalues below sigma is the number of negative pivots of K - sigma M,
which ``dpttrf`` computes in O(N) on the pencil equilibrated to a unit mass
diagonal (forming (e/d) e, never e^2, so nothing overflows where the
density underflows).  A cold solve (path ``"sturm"``) bisects a bracket on
those counts until it holds eigenvalue i alone (Barth-Martin-Wilkinson
1967); one inverse-iteration step at its midpoint (``dgtsv``, as in LAPACK
``dstein``) starts Rayleigh quotient iteration (Parlett, ch. 4) whose
shift stays inside the bracket, every iterate M-orthogonal to the pairs
accepted.  Each pair i is certified: exactly i eigenvalues lie below
lambda_i (1 - 1e-8), i + 1 below lambda_i (1 + 1e-8).  Start vectors (a
coarser grid's) run the same iteration (path ``"rqi"``).  The constants,
the kernel of a j = 0 pencil, are returned exactly as lambda_0 = 0.

One record per pencil (``counter``) keeps its equilibrated bands, its zero
mode and a memo of counts, monotone in sigma: a shift between two of equal
count, or below one of 0, costs no ``dpttrf``.  No bracket or shift depends
on it.  The mass's equilibration and check are built once per ``pencil.mass``
and cached on it; every mode j >= 1 of a family shares one, which slices mode 0's.

``dgtsv`` and ``dpttrf`` come from scipy's LAPACK extension, loaded by its
file spec: importing ``scipy.linalg`` for them would cost most of the
package's import time.  ``LAPACK_LOADER`` says which way they were loaded.
"""

import bisect
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# relative half-width of a count certificate's bracket around an eigenvalue
CERTIFICATE_DELTA = 1e-8
_RQI_MAX_STEPS = 6
# stop once the Rayleigh quotient moves by less than this: the convergence is
# cubic, so the next quotient would differ only by rounding (about 1e-12)
_RQI_RTOL = 1e-10
# or by less than rounding moves it: this times x^T |diag K_h| x, 1e7 lambda on graded grids
_RQI_ROUNDING = 4 * np.finfo(float).eps
# bracket steps from the ramp quotient (also the cutoff search's); width of a cluster
BRACKET_STEP = 4.0
_CLUSTER_WIDTH = 1e-13
# a zero pivot counts as this, negated
_TINY = np.finfo(float).tiny


def _flapack_by_file_spec():
    """scipy's ``linalg/_flapack`` extension, without the package inits of
    ``scipy`` and ``scipy.linalg``; the same module they would load."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError("scipy is not an importable package")
    linalg = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(linalg, "_flapack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no _flapack extension in {linalg}")


def _load_lapack():
    """``(dgtsv, dpttrf, loader)``: by file spec, else from ``scipy.linalg.lapack``."""
    try:
        flapack = _flapack_by_file_spec()
        return flapack.dgtsv, flapack.dpttrf, "file spec"
    except (ImportError, OSError, AttributeError):
        from scipy.linalg.lapack import dgtsv, dpttrf
        return dgtsv, dpttrf, "scipy.linalg.lapack"


dgtsv, dpttrf, LAPACK_LOADER = _load_lapack()


class IndefiniteMassError(ValueError):
    """Mass matrix not positive definite (invalid density or grid)."""


class EigenSolveError(RuntimeError):
    """Eigensolve failed or the pencil is out of floating range."""


@dataclass
class EigenPairs:
    """Lowest eigenpairs, sorted nondecreasing, vectors M-orthonormal.

    ``residual_norms``: ||K v - lambda M v||_2 / (||K||_1 + |lambda| ||M||_1) per pair.
    ``path``: the solver that produced the pairs, ``"sturm"`` (cold),
    ``"rqi"`` (warm start) or ``"zero"`` (the zero mode alone, nothing
    solved); ``refused``: why a given warm start was not used, else None.
    """

    values: np.ndarray
    vectors: np.ndarray  # shape (n, k); column i pairs with values[i]
    residual_norms: np.ndarray
    path: str = "sturm"
    refused: str = None


def _tri_mul(d, e, x):
    """The tridiagonal (d, e) times ``x``, a vector or each row of a matrix (d may be 1.0)."""
    y = d * x
    y[..., :-1] += e * x[..., 1:]
    y[..., 1:] += e * x[..., :-1]
    return y


def _quadratic(d, e, x):
    """x^T A x per row of ``x`` (or of the vector ``x``) for the tridiagonal A = (d, e)."""
    return np.sum(x * _tri_mul(d, e, x), axis=-1)


def _norm1(d, e):
    """||A||_1 of the symmetric tridiagonal A = (d, e): its largest absolute row sum."""
    row, e = np.abs(d), np.abs(e)
    row[:-1] += e
    row[1:] += e
    return float(row.max(initial=0.0))


def _row_norms(x):
    """2-norm of each row, scaled by its largest entry so squares cannot overflow."""
    top = np.max(np.abs(x), axis=1)
    top[top == 0] = 1.0
    return top * np.linalg.norm(x / top[:, None], axis=1)


def _count(kd_h, ke_h, me_h, sigma):
    """Negative pivots of the equilibrated K - sigma M (unit mass diagonal).

    ``dpttrf`` stops at the first pivot p <= 0 (``info`` is its 1-based row);
    elimination goes on past it on the tail, whose first diagonal entry
    becomes a - (e / p) e.  A zero pivot counts as a tiny negative one, as
    in LAPACK ``dstebz``.  One ``dpttrf`` call per negative pivot, plus one,
    each in place on the shifted bands: at a failed pivot it has not yet
    touched the rows after it, nor ``e[info - 1:]``.
    """
    d, e = kd_h - sigma, ke_h - sigma * me_h
    count = 0
    with np.errstate(over="ignore"):
        while len(d) > 1:  # the LAPACK wrapper needs n >= 2
            pivots, _, info = dpttrf(d, e, overwrite_d=1, overwrite_e=1)
            if info == 0:
                return count
            count += 1
            if info == len(d):
                return count
            p = min(pivots[info - 1], -_TINY)
            d = d[info:]
            d[0] -= (e[info - 1] / p) * e[info - 1]
            e = e[info:]
    return count + int(d[0] <= 0)


def _equilibrated(*bands):
    if not all(np.all(np.isfinite(x)) for x in bands):
        raise EigenSolveError("pencil dynamic range exceeds double precision after "
                              "equilibration; reduce the density contrast or the grid grading")
    return bands


def _equilibration(mass, family=None):
    """``(s, s2, me_h, norm1)`` of a ``Mass``, built and checked once and cached in
    ``mass._solver``: s = 1/sqrt(m_diag), s2 = s^2, me_h the off-diagonal of
    s M s, norm1 = ||M||_1.

    A ``family``'s j >= 1 mass is the trailing principal submatrix M[1:, 1:] of
    its j = 0 mass M: its s, s2 and me_h are slices of M's (built first if
    need be), equal bit for bit to their own equilibration, which is
    elementwise.  Its checks hold with M's: by induction, each rounded pivot
    of the trailing factorization is at least the matching pivot of the full one.
    """
    if mass._solver is None:
        if family is not None and mass is not family.masses[0]:
            s, s2, me_h, _ = _equilibration(family.masses[0])
            arrays = s[1:], s2[1:], me_h[1:]
        else:
            md, me = mass.diag, mass.off
            if np.any(md <= 0):
                raise IndefiniteMassError("mass diagonal has non-positive entries")
            s = 1.0 / np.sqrt(md)
            with np.errstate(over="ignore", invalid="ignore"):
                me_h, = _equilibrated(me * s[:-1] * s[1:])
            if dpttrf(np.ones(len(md)), me_h)[2]:
                raise IndefiniteMassError("mass matrix is not positive definite")
            arrays = s, s ** 2, me_h
            for a in arrays:
                a.flags.writeable = False  # a j >= 1 mass's slices share them
        mass._solver = (*arrays, _norm1(mass.diag, mass.off))
    return mass._solver


class _Record:
    """One pencil's record: ``s`` of its mass's ``_equilibration``, the ``bands``
    (k_diag, k_off, m_off) of s (K, M) s, the 1-norms of K and M, the count
    memo and ``zero``: on an unconstrained mode (Neumann, j = 0), whose K 1 = 0
    by construction, the M-normalized constant, equilibrated; else None.
    Calling it counts below sigma; ``spent`` is the number of ``_count`` calls."""

    def __init__(self, pencil):
        s, s2, me_h, m_norm1 = _equilibration(pencil.mass, pencil.family)
        with np.errstate(over="ignore", invalid="ignore"):
            self.bands = *_equilibrated(pencil.k_diag * s2,
                                        pencil.k_off * s[:-1] * s[1:]), me_h
        self.s, self.norms = s, (_norm1(pencil.k_diag, pencil.k_off), m_norm1)
        self.sigmas, self.counts, self.spent = [], [], 0  # the memo, by increasing sigma
        self.zero = None
        if pencil.problem and not pencil.problem.pole_constrained:
            w = np.sqrt(pencil.m_diag)  # sqrt(m_diag) / sqrt(1^T M 1)
            self.zero = w / np.sqrt(_quadratic(1.0, me_h, w))
            self.zero.flags.writeable = False  # shared by every solve of the pencil

    def __call__(self, sigma):
        i = bisect.bisect_left(self.sigmas, sigma)
        below = self.counts[i - 1] if i else 0  # no count is negative
        if i < len(self.sigmas) and (self.sigmas[i] == sigma or self.counts[i] == below):
            return self.counts[i]
        count = _count(*self.bands, sigma)
        self.spent += 1
        if not math.isnan(sigma):  # a NaN would break the memo's order
            self.sigmas.insert(i, sigma)
            self.counts.insert(i, count)
        return count


def counter(pencil):
    """The number of eigenvalues of K v = lambda M v below sigma (Sylvester inertia),
    as a function of sigma: the pencil's ``_Record``, built once."""
    if pencil._solver is None:
        pencil._solver = _Record(pencil)
    return pencil._solver


def ramp_quotient(pencil):
    """Rayleigh quotient of a linear ramp: the scale of the low end of the spectrum."""
    ramp = np.linspace(0.0, 1.0, pencil.size)
    return float(_quadratic(pencil.k_diag, pencil.k_off, ramp)
                 / _quadratic(pencil.m_diag, pencil.m_off, ramp))


def _energy(split, s, w):
    """v^T K v per row of ``w``, v = s w, from the pencil's energy ``split``.

    Each row is scaled by a power of two (exact): its squares cannot overflow.
    """
    g, a_diag, a_off = split
    v = s * w
    top = np.max(np.abs(v), axis=1)
    exp = np.frexp(np.where(top > 0, top, 1.0))[1]
    v = np.ldexp(v, -exp[:, None])
    num = np.diff(v, axis=1) ** 2 @ g + _quadratic(a_diag, a_off, v)
    return np.ldexp(num, 2 * exp)


def _rqi(rec, x, w, mw, bracket=None, cluster=False):
    """Rayleigh quotient iteration on ``rec``'s pencil from ``x`` for pair i = len(w), certified.

    Iterates are M-orthogonalized (twice) against the accepted pairs, the
    rows of ``w`` (``mw`` = M_h w), and scaled by a power of two so that
    their squares cannot overflow.  Given the ``bracket`` (lo, hi) of
    eigenvalue i the first shift is its midpoint, and so is every later one
    whose quotient lies outside it (inverse iteration, which cannot wander
    off to a neighbour), the bracket halved on a count first unless it is a
    ``cluster``'s; else the first shift is the quotient of ``x``.
    With ``cluster`` (a bracket as narrow as counts allow) the certificate
    only asks that eigenvalue i lie within delta of lambda.  Returns the
    M-normalized vector and M_h times it; raises ``EigenSolveError``.
    """
    kd_h, ke_h, me_h = rec.bands
    i = len(w)
    kd_abs = np.abs(kd_h)

    def normalized(x):  # with M x, and the M-norm x had as (mantissa, power of two)
        for _ in range(2 if i else 0):
            x = x - (mw @ x) @ w
        top = np.abs(x).max()
        if not (math.isfinite(top) and top > 0):
            raise EigenSolveError(f"pair {i}: the iterate is not finite or vanishes")
        exp = math.frexp(top)[1]
        x = np.ldexp(x, -exp)
        mx = _tri_mul(1.0, me_h, x)
        norm = math.sqrt(x @ mx)
        x /= norm
        mx /= norm
        return x, mx, (norm, exp)

    x, mx, _ = normalized(x)
    lo, hi = (-math.inf, math.inf) if bracket is None else bracket
    mid = math.sqrt(lo) * math.sqrt(hi) if bracket else None  # lo * hi overflows past 1.3e154
    lam = x @ _tri_mul(kd_h, ke_h, x) if bracket is None else None
    sigma = lam if bracket is None else mid
    for _ in range(_RQI_MAX_STEPS):
        off = ke_h - sigma * me_h
        *_, y, info = dgtsv(off, kd_h - sigma, off, mx[:, None])
        if info != 0:  # K - sigma M exactly singular: perturb the shift, as dstein does
            sigma *= 1 + 2.0 ** -40
            continue
        # (K - sigma M) y = M x: the quotient of y is sigma + y^T M x / y^T M y
        y, my, (norm, exp) = normalized(y[:, 0])
        try:
            new = sigma + math.ldexp((y @ mx) / norm, -exp)
        except OverflowError:
            raise EigenSolveError(f"pair {i}: the quotient left the floating range") from None
        settled = max(_RQI_RTOL * abs(new), _RQI_ROUNDING * ((y * y) @ kd_abs))
        converged = lam is not None and abs(new - lam) <= settled
        x, mx, lam = y, my, new
        if converged:
            break
        if not (cluster or lo <= lam <= hi):
            lo, hi = (mid, hi) if rec(mid) <= i else (lo, mid)
            mid = math.sqrt(lo) * math.sqrt(hi)
        sigma = lam if lo <= lam <= hi else mid
    else:
        raise EigenSolveError(f"pair {i} did not settle in {_RQI_MAX_STEPS} RQI steps")
    below = [rec(lam * f) for f in (1 - CERTIFICATE_DELTA, 1 + CERTIFICATE_DELTA)]
    if not (below[0] <= i < below[1] if cluster else below == [i, i + 1]):
        raise EigenSolveError(f"pair {i} converged to {lam:.12g}, which has {below[0]} "
                              f"eigenvalues below it and {below[1]} up to it "
                              f"(expected {i}, {i + 1})")
    return x, mx


@lru_cache(maxsize=8)
def _noise(n):
    """2n - 1 fixed uniform(0.5, 1.5) numbers: pair i starts from the window [i, i + n)."""
    noise = np.random.default_rng(0).uniform(0.5, 1.5, 2 * n - 1)
    noise.flags.writeable = False  # shared by every solve of this size
    return noise


def _cold(pencil, w, mw, first):
    """Rows ``first`` .. of ``w`` (``mw`` = M_h w): each pair isolated by counts, then ``_rqi``.

    The bracket grows from the ramp quotient by factors of 4 until it holds
    every pair; pair i's is bisected until count(lo) = i, count(hi) = i + 1
    (or a cluster is _CLUSTER_WIDTH wide).  A failed pair is bisected to
    _CLUSTER_WIDTH and solved once more, with ``cluster``.  Each count asks the memo.
    """
    rec = counter(pencil)
    counts = {}  # sigma -> count, the shifts of this solve

    def count(sigma):
        if not (math.isfinite(sigma) and sigma > 0):
            raise EigenSolveError(f"the eigenvalue search left the floating range: {sigma}")
        if sigma not in counts:
            counts[sigma] = rec(sigma)
        return counts[sigma]

    def isolated(i, cluster=False):  # a bracket of eigenvalue i
        lo = max(x for x, c in counts.items() if c <= i)
        hi = min(x for x, c in counts.items() if c > i)
        while hi > lo * (1 + _CLUSTER_WIDTH) and (
                cluster or counts[lo] < i or counts[hi] > i + 1):
            mid = math.sqrt(lo) * math.sqrt(hi)
            lo, hi = (mid, hi) if count(mid) <= i else (lo, mid)
        return lo, hi

    k_need, n = w.shape
    tau = ramp_quotient(pencil)
    if not (math.isfinite(tau) and tau > 0):
        raise EigenSolveError(f"could not establish a spectral scale (tau={tau})")
    hi = lo = tau
    while count(hi) < k_need:
        hi *= BRACKET_STEP
    while count(lo) > first:
        lo /= BRACKET_STEP
    noise = _noise(n)
    for i in range(first, k_need):
        try:
            w[i], mw[i] = _rqi(rec, noise[i:i + n], w[:i], mw[:i], isolated(i))
        except EigenSolveError:
            w[i], mw[i] = _rqi(rec, noise[i:i + n], w[:i], mw[:i], isolated(i, True), True)
    return w


def _checked_pairs(pencil, w, path):
    """Eigenvalues of the M-normalized rows of ``w``; sorted, un-equilibrated and gated.

    Each eigenvalue is the Rayleigh quotient with its numerator in element
    form (``_energy``), except the deflated zero mode's, which is 0 exactly.
    Gates: residuals and M-orthonormality.
    """
    kd, ke, md, me = pencil.k_diag, pencil.k_off, pencil.m_diag, pencil.m_off
    rec = counter(pencil)
    s, me_h = rec.s, rec.bands[2]
    k = len(w)
    first = int(rec.zero is not None)
    values = np.zeros(k)
    values[first:] = _energy(pencil.split, s, w[first:]) / _quadratic(1.0, me_h, w[first:])
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = s * w[order]
    # a deterministic sign: largest component positive
    vectors *= np.sign(vectors[np.arange(k), np.argmax(np.abs(vectors), axis=1)])[:, None]
    mv = _tri_mul(md, me, vectors)
    residuals = (_row_norms(_tri_mul(kd, ke, vectors) - values[:, None] * mv)
                 / (rec.norms[0] + np.abs(values) * rec.norms[1]))
    if not np.max(residuals) <= 1e-8:
        raise EigenSolveError(f"eigenpair residual {np.max(residuals):.3g} exceeds 1e-8")
    gram = vectors @ mv.T
    if not np.max(np.abs(gram - np.eye(k))) <= 1e-8:
        raise EigenSolveError("M-orthonormality of the computed eigenvectors failed")
    return EigenPairs(values=values, vectors=np.ascontiguousarray(vectors.T),
                      residual_norms=residuals, path=path)


def solve_generalized(pencil, k_max, guess=None):
    """Lowest ``k_max + 1`` eigenpairs of the pencil K v = lambda M v.

    Each pair is isolated by counts and found by inverse iteration and
    Rayleigh quotient iteration (``_cold``, path ``"sturm"``).  ``guess``
    (shape ``(size, k_max + 1)``, e.g. a coarser grid's vectors
    interpolated) starts the same iteration from its columns instead (path
    ``"rqi"``); when a pair fails, the whole pencil is solved cold and
    ``EigenPairs.refused`` says why.  The zero mode alone (``k_max = 0`` on
    a pencil with K 1 = 0) is returned as is, on the path ``"zero"``.
    Raises ``EigenSolveError`` when a pair's residual exceeds 1e-8 or the
    vectors are not M-orthonormal to 1e-8.
    """
    n = pencil.size
    k_need = k_max + 1
    if not 0 < k_need <= n:
        raise ValueError(f"requested {k_need} pairs from a pencil of size {n}")
    rec = counter(pencil)
    s, me_h, zero = rec.s, rec.bands[2], rec.zero
    if guess is not None:
        guess = np.asarray(guess, dtype=float)
        if guess.shape != (n, k_need):
            raise ValueError(f"guess has shape {guess.shape}, expected {(n, k_need)}")
    if zero is not None and k_need == 1:
        return _checked_pairs(pencil, zero[None], "zero")
    w, mw = np.empty((k_need, n)), np.empty((k_need, n))  # pair i in row i
    first = int(zero is not None)
    if zero is not None:
        w[0], mw[0] = zero, _tri_mul(1.0, me_h, zero)
    refused = None
    if guess is not None:
        try:
            for i in range(first, k_need):
                w[i], mw[i] = _rqi(rec, guess[:, i] / s, w[:i], mw[:i])
            return _checked_pairs(pencil, w, "rqi")
        except EigenSolveError as exc:
            refused = f"warm start refused: {exc}"
    pairs = _checked_pairs(pencil, _cold(pencil, w, mw, first), "sturm")
    pairs.refused = refused
    return pairs
