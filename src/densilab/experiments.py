"""Desk-scale experiment harness: scans, fits, convergence studies.

Every scan row carries a Richardson error estimate from three nested
grids, and assertions are made on extrapolated values.  Normalized
eigenvalues are obtained from raw ones through the exact discrete scaling
identity lambda_1(c rho, (c rho)^a) = c^(a-1) lambda_1(rho, rho^a) with
c = |M| / int rho, which ``exp_scaling_identity`` verifies separately.
"""

import csv
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import density as density_mod
from .density import CauchyPower, Constant, GaussianRadial
from .geometry import Interval, RadialGrid, RevolutionManifold, conformal_reparametrize, volume
from .quadrature import integrate
from .spectrum import full_spectrum

DEFAULT_M_GRID = tuple(10.0 ** e for e in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0))
RICHARDSON_WINDOW = (3.5, 4.5)
# e^{-745} rounds to the least subnormal double, e^{-x} to 0 just past it
_EXP_UNDERFLOW = 745.0


class UsageError(ValueError):
    """An experiment's arguments are out of its range; raised before any solve."""


def domain_from_config(cfg):
    kind = cfg.get("kind", "interval")
    if kind == "interval":
        return Interval(cfg.get("a", -1.0), cfg.get("b", 1.0))
    if kind == "ball":
        return RevolutionManifold.ball(cfg.get("n", 2), cfg.get("R", 1.0))
    if kind == "cap":
        return RevolutionManifold.spherical_cap(cfg.get("n", 2), cfg.get("R", math.pi / 2))
    raise ValueError(f"unknown domain kind {kind!r}")


@dataclass
class ExperimentConfig:
    """Everything a subcommand reads; the CLI fills it from flags and a JSON file."""

    experiment: str = "solve"
    domain: dict = field(default_factory=lambda: {"kind": "interval"})
    density: dict = field(default_factory=lambda: {"kind": "gaussian", "m": 1.0})
    alpha_values: tuple = (0.5,)
    m_values: tuple = DEFAULT_M_GRID
    grid_n: int = 2048
    k_max: int = 5
    c_values: tuple = (1e-3, 1.0, 1e3)
    dims: tuple = (1, 2, 3)
    box_half_side: float = 1.0
    out_dir: str = "."
    fmt: str = "csv"
    seed: int = 7
    exploratory: bool = False
    companion_alpha: float = 0.5
    k: int = None  # measure-lemma's k; None draws one in 1..10 per instance
    instances: int = 1000
    csv: str = None  # measure-lemma's one instance, loaded from this CSV file
    grids: tuple = None  # converge's nested grid sizes; None is grid_n / 4, / 2, grid_n

    def __post_init__(self):
        # JSON types first: a float count or a string flag would fail in a solve
        counts = [("grid_n", self.grid_n), ("k_max", self.k_max), ("seed", self.seed),
                  ("instances", self.instances), ("k", 1 if self.k is None else self.k),
                  *(("each grids entry", g) for g in self.grids or ())]
        for name, v in counts:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if not isinstance(self.exploratory, bool):
            raise ValueError(f"exploratory must be true or false, got {self.exploratory!r}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"fmt must be 'csv' or 'json', got {self.fmt!r}")
        for name in ("domain", "density"):
            if not isinstance(getattr(self, name), dict):
                raise ValueError(f"{name} must be a JSON object, got {getattr(self, name)!r}")
        ranges = (self.alpha_values, self.m_values, self.c_values, self.dims)
        if any(len(r) == 0 for r in ranges):
            raise ValueError("parameter ranges must be nonempty")
        # each check is written so that NaN fails it
        for name, values in (("m", self.m_values), ("c", self.c_values),
                             ("box_half_side", (self.box_half_side,))):
            for v in values:
                if not 0 < v < math.inf:
                    raise ValueError(f"{name} must be positive and finite, got {v}")
        for a in (*self.alpha_values, self.companion_alpha):
            if not math.isfinite(a):
                raise ValueError(f"alpha must be finite, got {a}")
        n = self.grid_n
        if n < 64 or n > 65536 or (n & (n - 1)):
            raise ValueError("grid_n must be a power of two in [64, 65536]")
        if self.k_max < 0:
            raise ValueError(f"k_max must be nonnegative, got {self.k_max}")
        if self.k is not None and not self.k >= 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not self.instances >= 1:
            raise ValueError(f"instances must be >= 1, got {self.instances}")
        if not self.seed >= 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not self.exploratory:
            for a in self.alpha_values:
                if not 0.0 <= a <= 1.0:
                    raise ValueError(
                        f"alpha={a} outside [0, 1]; pass exploratory=True to scan it "
                        "(no assertions are made there)")
        # raise here, not in the first solve
        domain = domain_from_config(self.domain)
        if isinstance(domain, Interval) and self.k_max > n:
            raise ValueError(f"an interval grid of {n} elements holds eigenvalues 0 to {n}, "
                             f"got k_max={self.k_max}")
        # a tabulated density raises here unless its nodes cover the domain
        density_mod.from_config(self.density)(np.array(domain.bounds))

    def to_dict(self):
        return {k: (list(v) if isinstance(v, tuple) else v)
                for k, v in self.__dict__.items()}


@dataclass
class ScanReport:
    """Rows plus per-alpha slope fits and run metadata."""

    experiment: str
    rows: list
    fits: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(r.get("passed", True) for r in self.rows) and \
            all(f.get("passed", True) for f in self.fits.values())

    def to_csv(self, path):
        """Header from the first row's keys; a row with another key raises."""
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=self.rows[0].keys())
            w.writeheader()
            w.writerows(self.rows)

    def to_json(self, path):
        payload = {
            "experiment": self.experiment,
            "rows": self.rows,
            "fits": self.fits,
            "metadata": self.metadata,
            "passed": self.passed,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, default=float)
        return payload


def _metadata(config=None, t0=None):
    meta = {"tool_version": __version__}
    if config is not None:
        meta["config"] = config if isinstance(config, dict) else config.to_dict()
    if t0 is not None:
        meta["elapsed_seconds"] = round(time.perf_counter() - t0, 3)
    return meta


def _richardson(coarse, mid, fine):
    """Richardson row of values on three grids nested by doubling.

    A second-order sequence has error about d2 / 3 (d2 = mid - fine) on the
    fine grid, so its limit is about fine - d2 / 3.  ``richardson_error`` =
    |d2| / 3 estimates the error of the raw fine value, not of the
    extrapolated one (which is higher order).  A last difference at rounding
    level counts as resolved, whatever the ratio.
    """
    d1, d2 = coarse - mid, mid - fine
    ratio = float(d1 / d2) if d2 != 0 else math.inf
    at_rounding = abs(d2) <= 1e-10 * abs(fine)
    return {
        "lambda1_extrapolated": fine - d2 / 3.0,
        "richardson_ratio": ratio,
        "richardson_error": abs(d2) / 3.0,
        "resolved": bool(RICHARDSON_WINDOW[0] <= ratio <= RICHARDSON_WINDOW[1]
                         or at_rounding),
    }


def _nested_lambda1(domain, rho, alpha, grids):
    """lambda_1 on each grid; each solve warm-starts from the one before it."""
    lams, prev = [], None
    for grid in grids:
        prev = full_spectrum(domain, rho, alpha, 1, grid=grid, start=prev)
        lams.append(prev.lambdas[1])
    return lams


def lambda1_richardson(domain, rho, alpha, grid_n):
    """lambda_1 on three nested grids with a Richardson error estimate.

    Returns a dict with the raw value at the finest grid, the
    extrapolated value, the ratio (about 4 for a resolved second-order
    discretization) and the error estimate.
    """
    m = getattr(rho, "m", None)
    lams = _nested_lambda1(domain, rho, alpha,
                           [RadialGrid.for_density(domain, n_el, m=m)
                            for n_el in (grid_n // 4, grid_n // 2, grid_n)])
    return {"lambda1_raw": lams[2], **_richardson(*lams)}


def _weighted_slope(log_m, log_lam):
    """Weighted least-squares slope with the two largest-m points doubled.

    Returns (slope, half_width) with the half-width twice the standard
    error of the fitted slope.
    """
    w = np.ones_like(log_m)
    w[np.argsort(log_m)[-2:]] = 2.0
    wx = np.sum(w * log_m) / np.sum(w)
    wy = np.sum(w * log_lam) / np.sum(w)
    sxx = np.sum(w * (log_m - wx) ** 2)
    slope = np.sum(w * (log_m - wx) * (log_lam - wy)) / sxx
    resid = log_lam - wy - slope * (log_m - wx)
    dof = max(len(log_m) - 2, 1)
    se = math.sqrt(np.sum(w * resid ** 2) / dof / sxx)
    return float(slope), 2.0 * se


def _scan(domain, alphas, m_values, density, grid_n):
    """One row per alpha in the given order and m ascending, in the scan CSV's
    column order; ``density(m, a)`` builds the row's density.  A repeated alpha
    or m would solve its rows twice and weigh them twice in the fits."""
    for name, values in (("alpha", alphas), ("m", m_values)):
        if len(set(values)) < len(values):
            raise UsageError(f"repeated {name} value in {list(values)}")
    rows = []
    for a in alphas:
        for m in sorted(m_values):
            rho = density(m, a)
            rich = lambda1_richardson(domain, rho, a, grid_n)
            grid = RadialGrid.for_density(domain, grid_n, m=m)
            mass = density_mod.total_mass(rho, domain, grid)
            factor = (mass / volume(domain, grid)) ** (1.0 - float(a))  # exact normalization
            rows.append({"alpha": a, "m": m, "grid_n": grid_n,
                         "lambda1_raw": rich["lambda1_raw"],
                         "lambda1_extrapolated": rich["lambda1_extrapolated"],
                         "lambda1_normalized": rich["lambda1_extrapolated"] * factor,
                         "mass": mass, "richardson_ratio": rich["richardson_ratio"],
                         "richardson_error": rich["richardson_error"],
                         "resolved": rich["resolved"], "passed": True, "note": ""})
    return rows


def _series(rows, a):
    """(m, normalized lambda_1) of the rows at alpha ``a``, by ascending m."""
    sub = sorted((r for r in rows if r["alpha"] == a), key=lambda r: r["m"])
    return (np.array([r["m"] for r in sub]),
            np.array([r["lambda1_normalized"] for r in sub]))


def exp_one_d_construction(m_values, alpha_values, grid_n=2048):
    """Interval scan on (-1, 1) with the rational-bump family: lambda_1 >= m.

    Asserts the extrapolated lambda_1(rho_m, rho_m^alpha) >= 0.99 m
    for every (m, alpha), and fits the slope of the normalized eigenvalue
    against m per alpha.
    """
    t0 = time.perf_counter()
    for a in alpha_values:
        if not 0.0 < a < 1.0:
            raise UsageError(f"the rational-bump family needs alpha inside (0, 1), got {a}")
    rows = _scan(Interval(-1.0, 1.0), sorted(alpha_values), m_values, CauchyPower, grid_n)
    for row in rows:
        row["passed"] = bool(row["lambda1_extrapolated"] >= 0.99 * row["m"])
        if not row["passed"]:
            row["note"] = f"lambda1 {row['lambda1_extrapolated']:.6g} < {0.99 * row['m']:.6g}"
    return ScanReport("verify-1d", rows, _slope_fits(rows, alpha_values), _metadata(t0=t0))


def _slope_fits(rows, alpha_values, floor=None):
    fits = {}
    for a in alpha_values:
        mm, lam = _series(rows, a)
        if len(mm) < 4:
            fits[str(a)] = {"note": "slope fit needs >= 4 points"}
            continue
        slope, hw = _weighted_slope(np.log(mm), np.log(lam))
        entry = {"slope": slope, "half_width": hw, "points": len(mm)}
        if floor is not None:
            entry["slope_floor"] = floor(a)
            entry["passed"] = bool(slope >= floor(a))
        fits[str(a)] = entry
    return fits


def exp_blowup_scan(domain, alpha_values, m_values=DEFAULT_M_GRID,
                    grid_n=2048, assert_slopes=True):
    """Gaussian-density scan in the supercritical regime alpha > (n-2)/n.

    The fitted log-log slope of the normalized lambda_1 against m must
    reach the growth exponent 1 - (n/2)(1 - alpha) minus a 0.1 slack.
    Also flags the smallest m from which the normalized value increases
    monotonically (the empirical onset of the divergence).
    """
    t0 = time.perf_counter()
    n = domain.dim
    critical = (n - 2) / n
    if assert_slopes:
        for a in alpha_values:
            if not a > critical:
                raise UsageError(f"alpha={a} is not above the critical exponent {critical}")
    rows = _scan(domain, sorted(alpha_values), m_values, lambda m, a: GaussianRadial(m),
                 grid_n)
    floor = (lambda a: 1.0 - (n / 2.0) * (1.0 - a) - 0.1) if assert_slopes else None
    fits = _slope_fits(rows, alpha_values, floor=floor)
    for a in alpha_values:
        mm, lam = _series(rows, a)
        increasing = np.diff(lam) > 0
        m0 = next((mm[i] for i in range(len(lam) - 1) if np.all(increasing[i:])), None)
        fits[str(a)]["m0_empirical"] = m0
        fits[str(a)]["monotone_divergence"] = m0 is not None
    return ScanReport("scan-blowup", rows, fits, _metadata(t0=t0))


def exp_bounded_scan(domain, alpha_values, m_values=DEFAULT_M_GRID,
                     companion_alpha=0.5, grid_n=2048):
    """Subcritical scan: normalized lambda_1 |M|^{2/n} stays bounded.

    Boundedness is operationalized as saturation: the running maximum
    changes by less than 5 % over the last decade of the m grid.  A
    companion supercritical column on the same m grid must grow by a
    factor of 3 over its last two decades, so the contrast is controlled;
    the m grid must span two decades, and the companion alpha must be one
    whose predicted growth 10^(2(1 - (n/2)(1 - a))) reaches 3, and at most 1
    (past 1 the floored region's eigenvalues, near floor^(a - 1), overflow).
    """
    t0 = time.perf_counter()
    n = domain.dim
    critical = (n - 2) / n
    if n < 3:
        raise UsageError("bounded regime needs dimension n >= 3")
    for a in alpha_values:
        if not 0.0 <= a < critical:
            raise UsageError(f"alpha={a} is not below the critical exponent {critical}")
    smallest = 1.0 - (2.0 / n) * (1.0 - math.log10(3.0) / 2.0)  # predicted growth 3
    if not smallest <= companion_alpha <= 1.0:
        raise UsageError(f"companion alpha={companion_alpha} must be supercritical enough to "
                         f"grow by 3 over two decades: alpha >= {smallest:.4f}, and at most 1")
    if min(m_values) > max(m_values) / 100.0:
        raise UsageError("a companion column needs an m grid spanning two decades")

    vol_pow = volume(domain) ** (2.0 / n)
    rows = _scan(domain, [*alpha_values, companion_alpha], m_values,
                 lambda m, a: GaussianRadial(m), grid_n)
    for row in rows:
        row["lambda1_normalized"] *= vol_pow
        if row["alpha"] == companion_alpha:
            row["note"] = "companion"
    fits = {}
    for a in alpha_values:
        mm, lam = _series(rows, a)
        runmax = np.maximum.accumulate(lam)
        before = runmax[mm <= mm[-1] / 10.0]
        change = (runmax[-1] - before[-1]) / runmax[-1]
        fits[str(a)] = {
            "running_max": float(runmax[-1]),
            "plateau_change": float(change),
            "passed": bool(change < 0.05),
        }
    mm, lam = _series(rows, companion_alpha)
    runmax = np.maximum.accumulate(lam)
    growth = runmax[-1] / runmax[mm <= mm[-1] / 100.0][-1]
    fits["companion"] = {
        "alpha": companion_alpha,
        "growth": float(growth),
        "passed": bool(growth >= 3.0),
    }
    return ScanReport("scan-bounded", rows, fits, _metadata(t0=t0))


def exp_conformal_identity(manifold, rho, k_max=5, grid_n=2048):
    """Same spectrum through two pipelines: conformal metric vs weights.

    Left side: reparametrize (M, rho^{2/n} g) as a manifold of revolution
    and solve the unweighted problem on it.  Right side: solve the
    (rho, rho^{(n-2)/n}) problem on the original manifold.  Checks the
    relative eigenvalue differences at half resolution and at ``grid_n``,
    warm-started from it: at most 1e-3 at ``grid_n``, and no larger than
    at half resolution.  A density whose reparametrization cannot be
    tabulated on either grid is a ``UsageError``.
    """
    t0 = time.perf_counter()
    if k_max < 1:
        raise UsageError(f"k_max must be >= 1 (lambda_0 = 0 on both sides), got {k_max}")
    n = manifold.n
    grids = [RadialGrid.uniform(manifold, n_el) for n_el in (grid_n // 2, grid_n)]
    tildes = []
    for grid in grids:  # both tables, before any solve
        try:
            tildes.append(conformal_reparametrize(manifold, rho, grid))
        except ValueError as exc:
            raise UsageError(f"the conformal manifold cannot be tabulated on "
                             f"{grid.n_elements} elements: {exc}") from exc

    def diffs(grid, tilde, starts=(None, None)):
        sides = (full_spectrum(tilde, Constant(1.0), 0.0, k_max,
                               grid=RadialGrid.uniform(tilde, grid.n_elements), start=starts[0]),
                 full_spectrum(manifold, rho, (n - 2) / n, k_max, grid=grid, start=starts[1]))
        left, right = (side.lambdas for side in sides)
        out = np.zeros(k_max + 1)
        out[1:] = np.abs(left[1:] - right[1:]) / np.abs(right[1:])
        return out, left, right, sides

    coarse, _, _, starts = diffs(grids[0], tildes[0])
    fine, left, right, _ = diffs(grids[1], tildes[1], starts)
    rows = [{"k": k, "lambda_conformal": left[k], "lambda_weighted": right[k],
             "rel_diff": fine[k], "rel_diff_coarse": coarse[k]}
            for k in range(k_max + 1)]
    passed = bool(np.max(fine) <= 1e-3 and np.max(fine) <= np.max(coarse))
    return ScanReport("conformal-check", rows,
                      {"summary": {"max_rel_diff": float(np.max(fine)),
                                   "max_rel_diff_coarse": float(np.max(coarse)),
                                   "passed": passed}},
                      _metadata(t0=t0))


def exp_gaussian_integral_lemma(dims, m_values, half_side=1.0, grid_n=2048):
    """(int_{-L}^{L} e^{-m t^2} dt)^n is strictly above e^{-n} m^{-n/2}.

    The integral runs over |t| <= min(L, T_m), T_m = sqrt(745 / m), beyond
    which e^{-m t^2} underflows to 0: the grid resolves the Gaussian's width
    however large L is.
    """
    t0 = time.perf_counter()
    for n in dims:
        if int(n) != n or n < 1:
            raise UsageError(f"dimension must be an integer >= 1, got {n}")
    try:
        boxes = {n: (2.0 * half_side) ** n for n in dims}
    except OverflowError:
        boxes = {}
    if not all(math.isfinite(boxes.get(n, math.inf)) for n in dims):
        raise UsageError(f"the box volume (2 L)^n overflows: L={half_side}, dims={dims}")
    rows = []
    for m in sorted(m_values):
        if not (m > 0 and m ** -0.5 <= half_side):
            raise UsageError(f"need m > 0 and m^(-1/2) <= L: m={m}, L={half_side}")
        cut = min(half_side, math.sqrt(_EXP_UNDERFLOW / m))
        grid = RadialGrid.for_density(Interval(-cut, cut), grid_n, m=m)
        line = integrate(grid.nodes, GaussianRadial(m))
        for n in dims:
            value = line ** n
            bound = math.exp(-n) * m ** (-n / 2.0)
            rows.append({"n": n, "m": m, "L": half_side,
                         "integral": value, "lower_bound": bound,
                         "volume_box": boxes[n],
                         "passed": bool(value > bound)})
    return ScanReport("gaussian-lemma", rows, {}, _metadata(t0=t0))


def exp_weyl_fit(domain, rho, alpha, k_max, grid_n=2048):
    """Least-squares fit of lambda_k against k^{2/n}.

    Reports slope, intercept and R^2 of the growth law, and asserts that the
    fit stays in the resolved range: every mode it draws from uses at most a
    quarter of its pencil's unknowns.  Mode j uses p_j unknowns when its p_j
    lowest pairs fill slots among lambda_0..lambda_k_max; its pencil has
    N + 1 unknowns for j = 0 and N for a pole-constrained j >= 1.  On a
    uniform grid the P1 eigenvalue of index N/4 is already about
    (pi/4)^2 / 12 = 5 % high, so past a quarter the fit reads mesh modes.
    ``largest_share`` is the largest p_j / unknowns of the fit.
    """
    t0 = time.perf_counter()
    if k_max < 20:
        raise UsageError("the fit needs k_max >= 20")
    n = domain.dim
    grid = RadialGrid.for_density(domain, grid_n, m=getattr(rho, "m", None))
    result = full_spectrum(domain, rho, alpha, k_max, grid=grid)
    lams = result.lambdas
    slots = Counter((j, mult) for _, _, j, mult in result.slot_entries())
    share = max(math.ceil(count / mult) / (len(result.nodes) - (j > 0))
                for (j, mult), count in slots.items())
    k = np.arange(1, k_max + 1)
    x = k ** (2.0 / n)
    y = lams[1:]
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    fitted = a @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    rows = [{"k": int(kk), "lambda": float(lam), "k_pow": float(xx),
             "fitted": float(ff)}
            for kk, lam, xx, ff in zip(k, y, x, fitted)]
    return ScanReport("weyl-fit", rows,
                      {"fit": {"slope": float(coef[0]), "intercept": float(coef[1]),
                               "r_squared": r2, "n": n, "largest_share": share,
                               "passed": bool(share <= 0.25)}},
                      _metadata(t0=t0))


def exp_scaling_identity(domain, rho, alpha, c_values=(1e-3, 1.0, 1e3),
                         grid_n=1024):
    """lambda_1(c rho, (c rho)^alpha) = c^(alpha-1) lambda_1(rho, rho^alpha).

    An exact discrete identity (the pencils scale entry-by-entry), so the
    tolerance, a relative 1e-12, is machine-level and independent of the grid.
    A c for which c rho or (c rho)^alpha leaves the range of a density is a
    ``UsageError``, raised before any solve.
    """
    t0 = time.perf_counter()
    scaled = []
    for c in sorted(c_values):
        try:  # c rho and (c rho)^alpha, as the solve builds them
            rho_c = density_mod.scale(rho, c)
            density_mod.power(rho_c, alpha)
        except ValueError as exc:
            raise UsageError(f"c={c:g}: c rho or (c rho)^alpha is not a valid density: "
                             f"{exc}") from exc
        scaled.append((c, rho_c))
    grid = RadialGrid.uniform(domain, grid_n)
    base = full_spectrum(domain, rho, alpha, 1, grid=grid).lambdas[1]
    rows = []
    for c, rho_c in scaled:
        lam = full_spectrum(domain, rho_c, alpha, 1, grid=grid).lambdas[1]
        expected = c ** (float(alpha) - 1.0) * base
        err = abs(lam - expected) / abs(expected)
        rows.append({"c": c, "alpha": float(alpha), "lambda1": lam,
                     "expected": expected, "rel_err": err,
                     "passed": bool(err <= 1e-12)})
    return ScanReport("scaling-check", rows, {}, _metadata(t0=t0))


def exp_convergence(domain, rho, alpha, n_values=(512, 1024, 2048)):
    """Richardson study of lambda_1 over nested grids of the default grid policy.

    Ratios outside [3.5, 4.5] flag under-resolution (density too sharp
    for the grid).
    """
    t0 = time.perf_counter()
    if len(n_values) < 3:
        raise UsageError("need at least 3 nested grids")
    n_values = sorted(n_values)
    for a, b in zip(n_values, n_values[1:]):
        if b != 2 * a:
            raise UsageError("grids must be nested by doubling")
    m = getattr(rho, "m", None)
    try:  # too few elements, or an odd count graded on an interval
        grids = [RadialGrid.for_density(domain, n_el, m=m) for n_el in n_values]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    lams = _nested_lambda1(domain, rho, alpha, grids)
    rows = [{"grid_n": n_values[i], "lambda1": lams[i], **_richardson(*lams[i - 2:i + 1])}
            for i in range(2, len(lams))]
    return ScanReport("converge", rows, {}, _metadata(t0=t0))
