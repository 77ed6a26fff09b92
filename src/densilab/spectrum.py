"""Full spectra of the weighted problem, Rayleigh quotients, test functions.

``full_spectrum`` merges the angular-mode Sturm-Liouville problems with
their spherical-harmonic multiplicities into the ordered sequence
lambda_0 <= lambda_1 <= ...  The modes are one family, assembled once:
K_j = G + mu_j A (``TridiagonalPencil.mode``).  It counts first, then
solves.  By Sylvester's law of inertia, count_j(sigma), the number of
mode j's eigenvalues below sigma, is the number of negative pivots of
K_j - sigma M_j (``eigensolver.count_below``, O(N), no solve).  A cutoff
sigma is fixed from counts alone, with N(sigma) = sum_j mult_j count_j(sigma)
>= k_max + 1, and mode j is then solved for exactly count_j(sigma) pairs.
The sweep ends at the first mode with count_j(sigma) = 0, and no later mode
can reach sigma either: K_{j+1} - K_j = (mu_{j+1} - mu_j) A with A positive
semidefinite, and a pole-constrained mode's pencil is a principal submatrix
of the unconstrained one, so positive definiteness of K_j - sigma M_j
carries over to every mode after it.  The count is also each solve's
certificate: count_j(sigma) pairs, all below sigma, are exactly the mode's
eigenvalues below sigma, so no eigenvalue below sigma was missed.

Radial plateau ("annulus") test functions give min-max upper bounds:
any k+1 of them with pairwise disjoint supports span a (k+1)-dimensional
subspace on which the Rayleigh quotient is at most the largest individual
quotient.
"""

import csv
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import density as density_mod
from .assembly import ModeProblem, assemble, quadrature_weights
from .eigensolver import (BRACKET_STEP, CERTIFICATE_DELTA, EigenSolveError, counter,
                          ramp_quotient, solve_generalized)
from .geometry import (Interval, RevolutionManifold, sphere_multiplicity,
                       unit_sphere_area, _default_grid)

_HARD_MODE_CAP = 256
# the cutoff search: bracket steps of BRACKET_STEP from a cold start, then
# log-scale bisection down to this ratio (a start's cutoff is already that close)
_BRACKET_RATIO = 1.25


@dataclass(frozen=True)
class SpectrumEntry:
    value: float
    mode_j: int
    multiplicity: int
    vector: np.ndarray = field(repr=False, compare=False)


class SpectrumResult:
    """Merged spectrum with mode provenance; counts multiplicities.

    ``modes`` maps each solved mode j to its ``EigenPairs`` (every pair
    solved, not only those placed in slots, vectors on all of ``nodes``, the
    grid's nodes), which a finer grid's ``full_spectrum(start=...)`` reuses.
    ``cutoff`` is the sigma of the count plan and ``counts[j]`` the number of
    mode j's eigenvalues below it, each certified by its solve.
    """

    def __init__(self, entries, k_max, modes, nodes, cutoff, counts):
        self.entries = []
        self._rows = []  # (k, lambda, mode_j, multiplicity), one per slot
        for ent in sorted(entries, key=lambda t: t.value):
            if len(self._rows) > k_max:
                break
            self.entries.append(ent)
            k = len(self._rows)
            self._rows.extend((k + i, ent.value, ent.mode_j, ent.multiplicity)
                              for i in range(ent.multiplicity))
        del self._rows[k_max + 1:]
        self.k_max = k_max
        self.modes = modes
        self.nodes = nodes
        self.cutoff = cutoff
        self.counts = counts
        self._slots = np.array([row[1] for row in self._rows])
        if len(self._slots) < k_max + 1:
            raise ValueError("not enough eigenvalues computed to fill k_max + 1 slots")
        lam1 = self._slots[1] if k_max >= 1 else None
        if lam1 is not None and abs(self._slots[0]) > 1e-9 * max(lam1, 1e-300):
            raise ValueError(f"zero mode came out as {self._slots[0]}, expected ~0")

    @property
    def paths(self):
        """The solver path of each solved mode: ``{j: "sturm" | "rqi" | "zero"}``."""
        return {j: pairs.path for j, pairs in self.modes.items()}

    @property
    def lambdas(self):
        """Eigenvalues by slot, multiplicity expanded, length k_max + 1."""
        return self._slots

    def slot_entries(self):
        """One (k, lambda, mode_j, multiplicity) row per slot."""
        return self._rows

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "lambda", "mode_j", "multiplicity"])
            w.writerows(self.slot_entries())

    def to_json(self, path=None):
        payload = {
            "k_max": self.k_max,
            "cutoff": self.cutoff,
            "counts": list(self.counts),
            "entries": [
                {"k": k, "lambda": lam, "mode_j": j, "multiplicity": mult}
                for k, lam, j, mult in self.slot_entries()
            ],
        }
        if path is not None:
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=2)
        return payload


def _start_vectors(start, nodes, j, count, pole_constrained):
    """Mode j's first ``count`` vectors from ``start`` interpolated onto ``nodes``,
    if it solved at least ``count`` pairs."""
    pairs = None if start is None else start.modes.get(j)
    if pairs is None or pairs.vectors.shape[1] < count:
        return None
    guess = np.column_stack([np.interp(nodes, start.nodes, v)
                             for v in pairs.vectors[:, :count].T])
    return guess[1:] if pole_constrained else guess


def _solve_mode(pencil, count, start, cutoff):
    """Mode j's ``count`` lowest pairs; raises unless all lie below ``cutoff``."""
    problem = pencil.problem
    guess = _start_vectors(start, problem.grid.nodes, problem.j, count,
                           problem.pole_constrained)
    pairs = solve_generalized(pencil, count - 1, guess=guess)
    below = int(np.sum(pairs.values < cutoff))
    if not len(pairs.values) == below == count:
        raise EigenSolveError(
            f"mode {problem.j} has {count} eigenvalues below the cutoff {cutoff:.6g}, "
            f"but its solve returned {len(pairs.values)} pairs, {below} of them below it")
    if problem.pole_constrained:
        pairs = replace(pairs, vectors=np.vstack([np.zeros(count), pairs.vectors]))
    return pairs


def _cutoff(slots, x, k_need, step):
    """A cutoff sigma with ``slots(sigma) >= k_need``, searched from ``x > 0``.

    ``slots(sigma)``, the number of eigenvalues below sigma, counted with
    multiplicity, is nondecreasing.  The bracket [lo, hi] grows from x by
    factors of ``step``, then is bisected in log scale until
    hi / lo <= _BRACKET_RATIO; a hi with slots(hi) == k_need already gives
    the smallest plan, so the search stops there.
    """
    lo, hi = 0.0, np.inf
    while lo == 0.0 or hi > _BRACKET_RATIO * lo:
        if not (np.isfinite(x) and x > 0):
            raise EigenSolveError(f"the cutoff search for k_max + 1 = {k_need} eigenvalues "
                                  f"left the floating range at {x:.3g}: the counts or "
                                  "the spectral scale are out of double precision")
        count = slots(x)
        if count == k_need:
            return x
        if count > k_need:
            hi = x
        else:
            lo = x
        if lo == 0.0:
            x = hi / step
        elif hi == np.inf:
            x = lo * step
        else:
            x = np.sqrt(lo) * np.sqrt(hi)  # lo * hi overflows past 1.3e154
    return hi


def full_spectrum(domain, rho, alpha, k_max, grid=None, j_max=None, start=None):
    """First k_max + 1 eigenvalues of the full problem, multiplicity-correct.

    Counts first, then solves (see the module docstring): the cutoff sigma
    is searched on counts alone, starting from ``start.cutoff`` or else from
    the ramp quotient of mode 0, until N(sigma) >= k_max + 1 within a factor
    1.25; mode j is then solved for exactly count_j(sigma) pairs and must
    return them all below sigma, or ``EigenSolveError`` is raised.  The
    first mode with count_j(sigma) = 0 ends the sweep, counted, never solved.

    ``start``, a ``SpectrumResult`` of the same problem on another (coarser)
    grid, warm-starts each mode it solved for at least as many pairs: its
    first vectors, interpolated onto ``grid``, seed count-certified Rayleigh
    quotient iteration (``solve_generalized(guess=...)``).
    """
    grid = _default_grid(domain, grid)
    family = assemble(ModeProblem(domain=domain, rho=rho, alpha=float(alpha), grid=grid))
    # an interval's family has the one mode j = 0
    j_last = 0 if isinstance(domain, Interval) else (
        _HARD_MODE_CAP if j_max is None else j_max)
    k_need = k_max + 1
    pencils = {}  # j -> (mode j's pencil, its count_below as a function of sigma)

    def mode(j):
        if j not in pencils:
            pencil = family.mode(j)
            pencils[j] = pencil, counter(pencil)
        return pencils[j]

    def mult(j):
        return sphere_multiplicity(j, domain.n) if j else 1

    def counts_at(sigma, enough=np.inf):
        """count_j(sigma) for j = 0, 1, ... up to the first zero (the stop
        mode), or until their slots, sum_j mult_j count_j, exceed ``enough``;
        and that sum."""
        counts, slots = [], 0
        for j in range(j_last + 1):
            if slots > enough:
                break
            count = mode(j)[1](sigma)
            if count == 0:
                break
            counts.append(count)
            slots += mult(j) * count
        return counts, slots

    # modes 0..j_last must hold k_max + 1 eigenvalues, or no cutoff gathers them
    capacity = 0
    for j in range(j_last + 1):
        capacity += mult(j) * mode(j)[0].size
        if capacity >= k_need:
            break
    else:
        if j_max is not None and isinstance(domain, RevolutionManifold):
            raise ValueError(f"j_max={j_max} insufficient: modes 0 to {j_max} hold "
                             f"{capacity} eigenvalues, fewer than k_max + 1 = {k_need}")
        raise ValueError(f"not enough eigenvalues to fill k_max + 1 = {k_need} slots: "
                         f"modes 0 to {j_last} hold {capacity}")
    x, step = ((ramp_quotient(family), BRACKET_STEP) if start is None
               else (start.cutoff, _BRACKET_RATIO))
    cutoff = _cutoff(lambda sigma: counts_at(sigma, k_need)[1], x, k_need, step)
    # keep every eigenvalue a relative CERTIFICATE_DELTA away from the cutoff,
    # so that rounding in a count or a solve cannot flip its side
    while True:
        counts = counts_at(cutoff * (1 + CERTIFICATE_DELTA))[0]
        if counts == counts_at(cutoff * (1 - CERTIFICATE_DELTA))[0]:
            break
        cutoff *= 1 + 3 * CERTIFICATE_DELTA
    if len(counts) > j_last and isinstance(domain, RevolutionManifold):
        if j_max is not None:
            raise ValueError(
                f"j_max={j_max} insufficient: mode {j_max} still has {counts[-1]} "
                f"eigenvalue(s) below the cutoff {cutoff:.6g} >= lambda_k_max; "
                f"raise j_max until a whole mode clears that value")
        raise RuntimeError(f"mode sweep did not terminate below j={j_last}")
    modes = {}
    entries = []
    for j, count in enumerate(counts):
        pairs = modes[j] = _solve_mode(mode(j)[0], count, start, cutoff)
        entries.extend(SpectrumEntry(v, j, mult(j), pairs.vectors[:, i])
                       for i, v in enumerate(pairs.values))
    return SpectrumResult(entries, k_max, modes, grid.nodes, cutoff, tuple(counts))


@dataclass(frozen=True)
class TestFunction:
    """Piecewise-linear function of the radial distance d(x, center).

    ``knots``/``knot_values`` describe the profile; outside the last knot
    the function vanishes, below the first knot it takes ``left_value``.
    Values must lie in [0, 1].
    """

    knots: tuple
    knot_values: tuple
    left_value: float = 0.0
    center: float = None  # interval only; manifolds are centered at the pole

    __test__ = False  # keep pytest from collecting this as a test class

    def __post_init__(self):
        vals = np.asarray(self.knot_values, dtype=float)
        if np.any(vals < 0) or np.any(vals > 1) or not 0 <= self.left_value <= 1:
            raise ValueError("test function values must lie in [0, 1]")
        if np.any(np.diff(self.knots) < 0):
            raise ValueError("knots must be nondecreasing")

    @classmethod
    def constant(cls):
        return cls(knots=(np.inf,), knot_values=(1.0,), left_value=1.0)

    def distances(self, domain, grid):
        if isinstance(domain, Interval):
            c = domain.center if self.center is None else self.center
            return np.abs(grid.nodes - c)
        return grid.nodes.copy()

    def sample(self, domain, grid):
        """Nodal values of the profile on the grid."""
        d = self.distances(domain, grid)
        if np.isinf(self.knots[0]):
            return np.full_like(d, self.left_value)
        return np.interp(d, self.knots, self.knot_values,
                         left=self.left_value, right=0.0)

    def support_elements(self, domain, grid):
        """Mask of grid elements where the sampled function is not zero."""
        v = self.sample(domain, grid)
        return (v[:-1] != 0.0) | (v[1:] != 0.0)


def build_plateau_function(domain, r, R, center=None):
    """The annulus profile: 1 on {r <= d <= R}, supported in {r/2 <= d <= 2R}.

    Ramps linearly from 0 at d = r/2 up to 1 at d = r (slope 2/r) and back
    down from 1 at d = R to 0 at d = 2R (slope 1/R).  With r = 0 the inner
    ramp is dropped and the function is a cap equal to 1 on [0, R].
    """
    if R < r:
        raise ValueError(f"need r <= R, got r={r}, R={R}")
    if not R > 0:
        raise ValueError("outer plateau radius R must be positive")
    if 2 * R > domain.extent * (1 + 1e-12):
        raise ValueError(f"support radius 2R={2 * R} exceeds the domain extent")
    if r == 0:
        return TestFunction(knots=(0.0, R, 2 * R), knot_values=(1.0, 1.0, 0.0),
                            left_value=1.0, center=center)
    return TestFunction(knots=(r / 2, r, R, 2 * R), knot_values=(0.0, 1.0, 1.0, 0.0),
                        left_value=0.0, center=center)


def build_collar_function(domain, a, r0, center=None):
    """1 on {d <= a}, decaying linearly to 0 across a collar of width r0."""
    if not (a >= 0 and r0 > 0):
        raise ValueError("need a >= 0 and r0 > 0")
    if a + r0 > domain.extent * (1 + 1e-12):
        raise ValueError("collar support exceeds the domain extent")
    return TestFunction(knots=(a, a + r0), knot_values=(1.0, 0.0),
                        left_value=1.0, center=center)


def rayleigh_quotient(domain, rho, alpha, u, grid=None):
    """Rayleigh quotient int sigma |grad u|^2 dV / int rho u^2 dV.

    ``u`` may be a TestFunction (sampled onto the grid) or an array of
    nodal values; radial functions live in the j = 0 sector, whose pencil
    supplies both quadratic forms.
    """
    grid = _default_grid(domain, grid)
    pencil = assemble(ModeProblem(domain=domain, rho=rho, alpha=float(alpha),
                                  grid=grid, j=0))
    return _pencil_quotient(pencil, _nodal(u, domain, grid))


def _nodal(u, domain, grid):
    if isinstance(u, TestFunction):
        return u.sample(domain, grid)
    v = np.asarray(u, dtype=float)
    if len(v) != len(grid.nodes):
        raise ValueError("nodal vector length does not match the grid")
    return v


def _pencil_quotient(pencil, v):
    kd, ke, md, me = pencil.k_diag, pencil.k_off, pencil.m_diag, pencil.m_off
    num = float(v @ (kd * v) + 2.0 * v[:-1] @ (ke * v[1:]))
    den = float(v @ (md * v) + 2.0 * v[:-1] @ (me * v[1:]))
    if den <= 0:
        raise ValueError("test function vanishes in the mass inner product")
    # K is PSD; a negative numerator is pure rounding in the row sums
    return max(num, 0.0) / den


def minmax_bound(domain, rho, alpha, test_functions, grid=None):
    """max_j R(u_j) over disjointly supported functions: an upper bound
    for lambda_k of the full problem (k + 1 functions supplied)."""
    grid = _default_grid(domain, grid)
    masks = [u.support_elements(domain, grid) for u in test_functions]
    for i in range(len(masks)):
        for k in range(i + 1, len(masks)):
            if np.any(masks[i] & masks[k]):
                raise ValueError(f"supports of test functions {i} and {k} overlap")
    pencil = assemble(ModeProblem(domain=domain, rho=rho, alpha=float(alpha),
                                  grid=grid, j=0))
    return max(_pencil_quotient(pencil, _nodal(u, domain, grid))
               for u in test_functions)


@dataclass(frozen=True)
class HolderChainReport:
    energy: float          # int_S |grad u|^2 rho^alpha dV
    after_first: float     # (int_S |grad u|^n)^{2/n} (int_S rho^{n a/(n-2)})^{(n-2)/n}
    after_second: float    # (int_S |grad u|^n)^{2/n} (int_S rho)^a |S|^{(n-2)/n - a}
    first_slack: float
    second_slack: float

    @property
    def holds(self):
        scale = max(abs(self.energy), abs(self.after_second), 1e-300)
        return (self.first_slack >= -1e-12 * scale
                and self.second_slack >= -1e-12 * scale)


def holder_chain_check(domain, rho, alpha, u, grid=None):
    """Numerical check of the two-step Hoelder bound on the energy.

    All five integrals run over the region S where the test function
    varies (the flat plateau contributes nothing to the energy, only
    weakening the bound), with the shared element quadrature, so for
    rho == 1 and constant |grad u| both inequalities are equalities up
    to rounding.  Needs n >= 3 and alpha in (0, (n-2)/n).
    """
    if not isinstance(domain, RevolutionManifold) or domain.n < 3:
        raise ValueError("the chain needs a manifold of dimension n >= 3")
    n = domain.n
    alpha = float(alpha)
    if not 0.0 < alpha < (n - 2) / n:
        raise ValueError(f"alpha must lie in (0, {(n - 2) / n:.6g}), got {alpha}")
    grid = _default_grid(domain, grid)
    v = _nodal(u, domain, grid)
    h = np.diff(grid.nodes)
    slopes = np.diff(v) / h
    mask = slopes != 0.0
    if not np.any(mask):
        raise ValueError("test function has empty gradient support")

    omega = unit_sphere_area(n)
    theta = domain.profile
    w_vol = omega * quadrature_weights(grid, lambda r: theta(r) ** (n - 1))
    w_rho = omega * quadrature_weights(grid, lambda r: rho(r) * theta(r) ** (n - 1))
    sig = density_mod.power(rho, alpha)
    w_sig = omega * quadrature_weights(grid, lambda r: sig(r) * theta(r) ** (n - 1))
    rex = density_mod.power(rho, n * alpha / (n - 2))
    w_rex = omega * quadrature_weights(grid, lambda r: rex(r) * theta(r) ** (n - 1))

    g = np.abs(slopes[mask])
    energy = float(np.sum(g ** 2 * w_sig[mask]))
    grad_n = float(np.sum(g ** n * w_vol[mask]))
    vol_s = float(np.sum(w_vol[mask]))
    mass_s = float(np.sum(w_rho[mask]))
    mass_ex = float(np.sum(w_rex[mask]))

    after_first = grad_n ** (2.0 / n) * mass_ex ** ((n - 2.0) / n)
    after_second = (grad_n ** (2.0 / n) * mass_s ** alpha
                    * vol_s ** ((n - 2.0) / n - alpha))
    return HolderChainReport(
        energy=energy,
        after_first=after_first,
        after_second=after_second,
        first_slack=after_first - energy,
        second_slack=after_second - after_first,
    )
