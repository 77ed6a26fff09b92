"""Full spectra of the weighted problem, Rayleigh quotients, test functions.

``full_spectrum`` merges the angular-mode Sturm-Liouville problems with
their spherical-harmonic multiplicities into the ordered sequence
lambda_0 <= lambda_1 <= ...  The modes are one family, assembled once:
K_j = G + mu_j A_1 (``ModeFamily.mode``).  It counts first, then
solves.  By Sylvester's law of inertia, count_j(sigma), the number of
mode j's eigenvalues below sigma, is the number of negative pivots of
K_j - sigma M_j (``eigensolver.counter``, O(N), no solve).  A cutoff
sigma is fixed from counts alone, with N(sigma) = sum_j mult_j count_j(sigma)
>= k_max + 1, and mode j is then solved for exactly count_j(sigma) pairs.
The sweep ends at the first mode with count_j(sigma) = 0, and no later mode
can reach sigma either: K_{j+1} - K_j = (mu_{j+1} - mu_j) A_1 with A_1 positive
semidefinite, and a pole-constrained mode's pencil is a principal submatrix
of the unconstrained one, so positive definiteness of K_j - sigma M_j
carries over to every mode after it.  On a manifold that first empty mode
exists, and it is the sweep's only bound: A_1 = int rho^alpha theta^(n-3) f g
is positive definite on the nodes 1..N of the modes j >= 1, which share the
mass M_1, so K_j - sigma M_1 is positive definite once mu_j A_1 - sigma M_1
is.  An interval has the one mode j = 0.  The count is also each solve's
certificate: count_j(sigma) pairs, all below sigma, are exactly the mode's
eigenvalues below sigma, so no eigenvalue below sigma was missed.  Search,
clearance and solve share each mode's memo of counts.

Radial plateau ("annulus") test functions give min-max upper bounds:
any k+1 of them with pairwise disjoint supports span a (k+1)-dimensional
subspace on which the Rayleigh quotient is at most the largest individual
quotient.
"""

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import density as density_mod
from . import assembly
from .assembly import ModeProblem, assemble, element_forms
from .eigensolver import (BRACKET_STEP, CERTIFICATE_DELTA, EigenSolveError, counter,
                          ramp_quotient, solve_generalized)
from .geometry import (Interval, RevolutionManifold, sphere_multiplicity,
                       unit_sphere_area, _default_grid)
from .quadrature import _P, _Q, element_sums

# the cutoff search bisects its bracket in log scale down to this ratio
_BRACKET_RATIO = 1.25


class SpectrumResult:
    """Merged spectrum with mode provenance; counts multiplicities.

    ``modes`` maps each solved mode j to its ``EigenPairs`` (every pair
    solved, not only those placed in slots, vectors on all of ``nodes``, the
    grid's nodes), which a finer grid's ``full_spectrum(start=...)`` reuses.
    The k_max + 1 slots (``slot_entries()``, values ``lambdas``) merge the
    values of all modes in one sort, each repeated ``multiplicities[j]``
    times, ties by mode j and then by pair.
    ``cutoff`` is the sigma of the count plan and ``counts[j]``, the number of
    mode j's pairs, its count of eigenvalues below it, certified by its solve.
    ``counts_spent``: counts made in the plan (search, clearance) and in the solves.
    """

    def __init__(self, k_max, modes, multiplicities, nodes, cutoff, counts_spent):
        merged = sorted((v, j) for j, pairs in modes.items() for v in pairs.values)
        slots = [(v, j, multiplicities[j]) for v, j in merged
                 for _ in range(multiplicities[j])][:k_max + 1]
        if len(slots) < k_max + 1:
            raise ValueError("not enough eigenvalues computed to fill k_max + 1 slots")
        self._rows = [(k, *slot) for k, slot in enumerate(slots)]
        self.lambdas = np.array([v for v, _, _ in slots])
        self.modes = modes
        self.nodes = nodes
        self.cutoff = cutoff
        self.counts_spent = counts_spent

    @property
    def counts(self):
        return tuple(len(pairs.values) for pairs in self.modes.values())

    @property
    def paths(self):
        """The solver path of each solved mode: ``{j: "sturm" | "rqi" | "zero"}``."""
        return {j: pairs.path for j, pairs in self.modes.items()}

    def slot_entries(self):
        """One (k, lambda, mode_j, multiplicity) row per slot."""
        return self._rows


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


def _cutoff(slots, x, k_need):
    """A cutoff sigma with ``slots(sigma) >= k_need``, searched from ``x > 0``.

    ``slots(sigma)``, the number of eigenvalues below sigma, counted with
    multiplicity, is nondecreasing.  The bracket [lo, hi] grows from x by
    factors of BRACKET_STEP, then is bisected in log scale until
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
            x = hi / BRACKET_STEP
        elif hi == np.inf:
            x = lo * BRACKET_STEP
        else:
            x = np.sqrt(lo) * np.sqrt(hi)  # lo * hi overflows past 1.3e154
    return hi


def full_spectrum(domain, rho, alpha, k_max, grid=None, start=None):
    """First k_max + 1 eigenvalues of the full problem, multiplicity-correct.

    Counts first, then solves (see the module docstring): the cutoff sigma
    is searched on counts alone, from the ramp quotient of mode 0, until
    N(sigma) >= k_max + 1 within a factor 1.25; mode j is then solved for
    exactly count_j(sigma) pairs and must return them all below sigma, or
    ``EigenSolveError`` is raised.  On a manifold the first mode with
    count_j(sigma) = 0, which always exists, ends the sweep, counted, never
    solved.

    ``start``, a ``SpectrumResult`` of the same problem on another (coarser)
    grid, lends its cutoff as it is or not at all: as it is when every mode
    counts ``start.counts`` at ``start.cutoff`` (1 -+ CERTIFICATE_DELTA) and
    they fill k_max + 1 slots (not searched down to a factor 1.25), else the
    spectrum plans as it would without a start.  It also warm-starts each
    mode it solved for at least as many pairs: its first vectors,
    interpolated onto ``grid``, seed count-certified Rayleigh quotient
    iteration (``solve_generalized(guess=...)``).
    """
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    grid = _default_grid(domain, grid)
    pencils = {0: assemble(ModeProblem(domain=domain, rho=rho, alpha=float(alpha), grid=grid))}
    # j -> mode j's pencil; an interval's family has the one mode j = 0
    one_mode = isinstance(domain, Interval)
    k_need = k_max + 1
    if one_mode and k_need > pencils[0].size:  # no cutoff gathers them
        raise ValueError(f"not enough eigenvalues to fill k_max + 1 = {k_need} slots: "
                         f"modes 0 to 0 hold {pencils[0].size}")

    def mode(j):
        if j not in pencils:
            pencils[j] = pencils[0].family.mode(j)
        return pencils[j]

    def mult(j):
        return sphere_multiplicity(j, domain.n) if j else 1

    def counts_at(sigma, enough=np.inf):
        """count_j(sigma) for j = 0, 1, ... up to the first zero (the stop
        mode), or until their slots, sum_j mult_j count_j, exceed ``enough``;
        and that sum."""
        counts, slots = [], 0
        for j in range(1) if one_mode else itertools.count():
            if slots > enough:
                break
            count = counter(mode(j))(sigma)
            if count == 0:
                break
            counts.append(count)
            slots += mult(j) * count
        return counts, slots

    def cleared(sigma):
        """The mode counts at sigma (1 + delta) if those at sigma (1 - delta) agree, else
        None: then no eigenvalue lies within a relative CERTIFICATE_DELTA of sigma,
        so rounding in a count or a solve cannot flip its side of the cutoff sigma."""
        counts = counts_at(sigma * (1 + CERTIFICATE_DELTA))[0]
        return counts if counts == counts_at(sigma * (1 - CERTIFICATE_DELTA))[0] else None

    # the start's plan, if it fills the slots and its counts hold at its certificate
    if (start is not None and sum(mult(j) * c for j, c in enumerate(start.counts)) >= k_need
            and cleared(start.cutoff) == list(start.counts)):
        cutoff = start.cutoff
    else:
        cutoff = _cutoff(lambda sigma: counts_at(sigma, k_need)[1],
                         ramp_quotient(pencils[0]), k_need)
    while (counts := cleared(cutoff)) is None:
        cutoff *= 1 + 3 * CERTIFICATE_DELTA
    plan = sum(counter(p).spent for p in pencils.values())
    modes = {j: _solve_mode(mode(j), count, start, cutoff) for j, count in enumerate(counts)}
    return SpectrumResult(k_max, modes, [mult(j) for j in modes], grid.nodes, cutoff, {
        "plan": plan, "solve": sum(counter(p).spent for p in pencils.values()) - plan})


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
        knots = np.asarray(self.knots, dtype=float)
        vals = np.asarray(self.knot_values, dtype=float)
        if not 0 < len(knots) == len(vals):
            raise ValueError("a test function needs knots, and one value per knot")
        if not (np.all((vals >= 0) & (vals <= 1)) and 0 <= self.left_value <= 1):
            raise ValueError("test function values must lie in [0, 1]")
        if np.any(np.isnan(knots)) or np.any(np.diff(knots) < 0):
            raise ValueError("knots must be nondecreasing")

    @classmethod
    def constant(cls):
        return cls(knots=(np.inf,), knot_values=(1.0,), left_value=1.0)

    def _origin(self, domain):
        """The point at d = 0: ``center`` or the interval's center, or a manifold's pole."""
        if isinstance(domain, Interval):
            return domain.center if self.center is None else self.center
        if self.center is not None:
            raise ValueError("a test function on a manifold is centered at the pole, "
                             f"got center={self.center}")
        return 0.0

    def _values(self, domain, nodes):
        """The profile at ``nodes``, a run of a grid's nodes."""
        d = np.subtract(nodes, self._origin(domain))
        return np.interp(np.abs(d, out=d), self.knots, self.knot_values,
                         left=self.left_value, right=0.0)

    def _window(self, domain, nodes):
        """Node range [lo, hi) of the sorted ``nodes`` outside which the function is 0:
        d > knots[-1], and d < knots[0] on a manifold if ``left_value`` is 0 (one window
        cannot skip an interval's hole around ``center``), with a pad for rounding."""
        c, reach = self._origin(domain), self.knots[-1]
        pad = 1e-12 * (abs(c) + reach)
        hole = isinstance(domain, RevolutionManifold) and self.left_value == 0
        return (int(np.searchsorted(nodes, (self.knots[0] if hole else c - reach) - pad, "left")),
                int(np.searchsorted(nodes, c + reach + pad, "right")))

    def sample(self, domain, grid):
        """Nodal values of the profile on the grid."""
        return self._values(domain, grid.nodes)


def _support(v):
    """Mask of grid elements where the nodal values ``v`` are not both zero."""
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


# elements per block of the quotient sweep: a (_BLOCK, 2) float array is 64 KB,
# below glibc's mmap threshold, so the heap reuses every temporary of a sweep
_BLOCK = 4096


def _prepared(domain, grid, u):
    """``(lo, hi, values)``: ``u`` is 0 outside nodes [lo, hi) of the grid, and
    ``values(a, b)`` gives its nodal values on nodes a to b - 1.

    ``u`` is a TestFunction or an array of finite nodal values, which spans the grid.
    """
    nodes = grid.nodes
    if isinstance(u, TestFunction):
        return (*u._window(domain, nodes), lambda a, b: u._values(domain, nodes[a:b]))
    v = np.asarray(u, dtype=float)
    if len(v) != len(nodes):
        raise ValueError("nodal vector length does not match the grid")
    if not np.all(np.isfinite(v)):
        raise ValueError("nodal vector has a non-finite value")
    return 0, len(v), lambda a, b: v[a:b]


def _check_disjoint(functions, n_elements):
    """Raise on the first pair (i, k), i < k, of prepared functions whose supports
    share an element; each pair is sampled only where both node windows reach."""
    for i, (lo_i, hi_i, values_i) in enumerate(functions):
        for k in range(i + 1, len(functions)):
            lo_k, hi_k, values_k = functions[k]
            # the elements with a node in both windows
            a, b = max(lo_i, lo_k, 1) - 1, min(hi_i, hi_k, n_elements)
            if a < b and np.any(_support(values_i(a, b + 1)) & _support(values_k(a, b + 1))):
                raise ValueError(f"supports of test functions {i} and {k} overlap")


def _quotients(domain, rho, alpha, functions, grid):
    """v^T K_0 v / v^T M v of each prepared function, in one sweep over the grid.

    The sweep takes _BLOCK elements at a time: their element forms (so the
    densities are evaluated and checked finite on the whole grid), then each
    function sampled on the block's nodes where its window meets them.  Both
    sums have only nonnegative terms, sum_e g_e (v_{e+1} - v_e)^2 and
    sum_e hw_e sum_q wm_{e,q} u_q^2 (u_q the P1 interpolant at the Gauss
    points), and outside a window every term is zero.
    """
    problem = ModeProblem(domain=domain, rho=rho, alpha=float(alpha), grid=grid)
    num, den = [0.0] * len(functions), [0.0] * len(functions)
    n_elements = grid.n_elements
    for start in range(0, n_elements, _BLOCK):
        stop = min(start + _BLOCK, n_elements)
        forms = element_forms(problem, start, stop)
        for i, (lo, hi, values) in enumerate(functions):
            a, b = max(start, lo - 1), min(stop, hi)  # elements with a node in [lo, hi)
            if a >= b:
                continue
            v = values(a, b + 1)
            e = slice(a - start, b - start)
            left, right = v[:-1], v[1:]
            d = right - left
            d *= d
            d *= forms.g[e]
            num[i] += float(d.sum())
            wm = forms.wm[e]
            u = left * _P  # at the left Gauss point
            u += _Q * right
            u *= u
            u *= wm[:, 0]
            w = np.multiply(left, _Q, out=d)  # at the right one
            w += _P * right
            w *= w
            w *= wm[:, 1]
            u += w
            u *= forms.hw[e]
            den[i] += float(u.sum())
    if any(d <= 0 for d in den):
        raise ValueError("test function vanishes in the mass inner product")
    return [n / d for n, d in zip(num, den)]


def rayleigh_quotient(domain, rho, alpha, u, grid=None):
    """Rayleigh quotient int sigma |grad u|^2 dV / int rho u^2 dV.

    ``u`` may be a TestFunction (sampled onto the grid) or an array of
    nodal values; radial functions live in the j = 0 sector, whose element
    forms supply both quadratic forms.
    """
    grid = _default_grid(domain, grid)
    return _quotients(domain, rho, alpha, [_prepared(domain, grid, u)], grid)[0]


def minmax_bound(domain, rho, alpha, test_functions, grid=None):
    """max_j R(u_j) over disjointly supported functions: an upper bound
    for lambda_k of the full problem (k + 1 functions supplied)."""
    grid = _default_grid(domain, grid)
    functions = [_prepared(domain, grid, u) for u in test_functions]
    if not functions:
        raise ValueError("minmax_bound needs at least one test function")
    _check_disjoint(functions, grid.n_elements)
    return max(_quotients(domain, rho, alpha, functions, grid))


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
    weakening the bound), with the element sums of ``quadrature``, so for
    rho == 1 and constant |grad u| both inequalities are equalities up
    to rounding.  Needs n >= 3 and alpha in (0, (n-2)/n).

    The sweep takes _BLOCK elements of the function's node window at a
    time and evaluates every weight, which is elementwise, at the Gauss
    points of the block's part of S alone.
    """
    if not isinstance(domain, RevolutionManifold) or domain.n < 3:
        raise ValueError("the chain needs a manifold of dimension n >= 3")
    n = domain.n
    alpha = float(alpha)
    if not 0.0 < alpha < (n - 2) / n:
        raise ValueError(f"alpha must lie in (0, {(n - 2) / n:.6g}), got {alpha}")
    grid = _default_grid(domain, grid)
    lo, hi, values = _prepared(domain, grid, u)
    omega = unit_sphere_area(n)
    sig = density_mod.power(rho, alpha)
    rex = density_mod.power(rho, n * alpha / (n - 2))

    energy = grad_n = vol_s = mass_s = mass_ex = 0.0
    supported = False
    # S lies in the elements with a node in [lo, hi)
    first, last = max(lo - 1, 0), min(hi, grid.n_elements)
    for start in range(first, last, _BLOCK):
        stop = min(start + _BLOCK, last)
        block = grid.nodes[start:stop + 1]
        slopes = np.diff(values(start, stop + 1)) / np.diff(block)
        mask = slopes != 0.0
        if not mask.any():
            continue
        supported = True
        # the Gauss points are looked up on ``assembly``, where layer tracing sees them
        pts, hw = assembly.gauss_points(block)
        pts, hw = pts[mask], hw[mask]
        vol = domain.profile(pts) ** (n - 1)
        w_vol = omega * element_sums(hw, vol, "weight")
        g = np.abs(slopes[mask])
        mass_s += float(np.sum(omega * element_sums(hw, rho(pts) * vol, "weight")))
        energy += float(np.sum(g ** 2 * (omega * element_sums(hw, sig(pts) * vol, "weight"))))
        mass_ex += float(np.sum(omega * element_sums(hw, rex(pts) * vol, "weight")))
        grad_n += float(np.sum(g ** n * w_vol))
        vol_s += float(np.sum(w_vol))
    if not supported:
        raise ValueError("test function has empty gradient support")

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
