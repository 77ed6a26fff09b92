"""The benchmark workloads: inputs built from a seed, items, correctness gates.

A pass is one workload at its stated input size.  Each item is one call into
densilab's public API, looked up through the owning module at call time so
that ``spans.Tracer`` sees it, plus a check of its result.  ``check_pass``
covers what only a whole pass shows (the fitted blow-up slope).

Why these three: ``scan_blowup_disk`` puts nearly all its time in the
eigensolver with 2 pairs per pencil; ``conformal_many_modes`` uses the same
solver for 41 pairs per pencil and sweeps many modes; ``minmax_bounds`` runs
no eigensolve at all, so an eigensolver change must leave it unchanged.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import jnp_zeros

import densilab as dl
from densilab import experiments, measures, spectrum

BLOWUP_ALPHA = 0.75
EPS = np.finfo(float).eps


@dataclass
class Item:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # a problem description, or None


@dataclass
class Workload:
    name: str
    items: list
    check_pass: Callable[[list], str | None] = lambda results: None


def _late(owner, name, *args, **kwargs):
    """A call of ``owner.name`` that looks the name up when it runs."""
    return lambda: getattr(owner, name)(*args, **kwargs)


def scan_blowup_disk(seed, tiny=False):
    """One row of ``exp_blowup_scan`` per item; the seed orders the rows."""
    disk = dl.RevolutionManifold.ball(2, 1.0)
    grid_n = 64 if tiny else 2048
    m_values = list(experiments.DEFAULT_M_GRID)
    np.random.default_rng(seed).shuffle(m_values)

    def check_row(report):
        r = report.rows[0]
        if not (report.passed and r["passed"]):
            return f"scan row m={r['m']:g} did not pass: {r['note']}"
        lam = r["lambda1_normalized"]
        if not (math.isfinite(lam) and lam > 0):
            return f"scan row m={r['m']:g} has normalized lambda_1 {lam}"
        return None

    floor = 1.0 - (disk.dim / 2.0) * (1.0 - BLOWUP_ALPHA) - 0.1

    def check_slope(reports):
        rows = [rep.rows[0] for rep in reports]
        log_m = np.log([r["m"] for r in rows])
        weight = np.ones(len(rows))
        weight[np.argsort(log_m)[-2:]] = 2.0  # as the package's scan fits do
        slope = np.polyfit(log_m, np.log([r["lambda1_normalized"] for r in rows]),
                           1, w=np.sqrt(weight))[0]
        if not slope >= floor:
            return f"blow-up slope {slope:.4f} below its floor {floor:.4f}"
        return None

    items = [Item(f"m={m:g}", _late(experiments, "exp_blowup_scan", disk,
                                    (BLOWUP_ALPHA,), m_values=(m,), grid_n=grid_n),
                  check_row)
             for m in m_values]
    return Workload("scan_blowup_disk", items, check_slope)


def conformal_many_modes(seed, tiny=False):
    """One two-pipeline conformal check per item.

    The inputs are fixed by the workload's definition, so the seed changes
    nothing here.
    """
    ball = dl.RevolutionManifold.ball(3, 1.0)
    rho = dl.normalize(dl.GaussianRadial(1.0), ball)
    k_max, grid_n = (5, 64) if tiny else (40, 1024)

    def check(report):
        s = report.fits["summary"]
        if not (s["passed"] and s["max_rel_diff"] <= 1e-3
                and s["max_rel_diff"] <= s["max_rel_diff_coarse"]):
            return (f"conformal check failed: rel diff {s['max_rel_diff']:.3g}, "
                    f"coarse {s['max_rel_diff_coarse']:.3g}")
        return None

    call = _late(experiments, "exp_conformal_identity", ball, rho, k_max=k_max,
                 grid_n=grid_n)
    return Workload("conformal_many_modes", [Item("check", call, check)])


def _interval_caps(rng, count):
    """``count`` disjoint caps centered in equal bands of [-1, 1]."""
    iv = dl.Interval(-1.0, 1.0)
    width = 2.0 / count
    return [dl.build_plateau_function(iv, 0.0, width / 4 * rng.uniform(0.5, 0.9),
                                      center=-1.0 + width * (i + 0.5))
            for i in range(count)]


def _radial_family(rng, domain, count):
    """``count`` plateaus in geometric bands from the pole.

    A band [lo, hi] with hi >= 4.5 lo holds the support [1.01 lo, hi / 1.01],
    so neighbouring supports keep a gap.
    """
    q = rng.uniform(4.5, 6.0)
    edges = [0.0] + [q ** (i + 1 - count) for i in range(count)]
    fns = []
    for lo, hi in zip(edges, edges[1:]):
        r = 2.02 * lo
        fns.append(dl.build_plateau_function(domain, r, hi / 2.02))
    return fns


def _finite_positive(what):
    def check(value):
        if not (math.isfinite(value) and value > 0):
            return f"{what} is {value}"
        return None
    return check


def _at_least(what, floor):
    def check(value):
        if not (math.isfinite(value) and value >= floor * (1.0 - 1e-12)):
            return f"{what} {value!r} below {floor!r}"
        return None
    return check


def minmax_bounds(seed, tiny=False):
    """Min-max bounds, Hoelder chains, Rayleigh quotients and set selection.

    Uniform grids of 2^16 elements and 4 * 2^14 + 1 measure sets: O(N) work
    in density, quadrature, assembly and measures, and no eigensolve.
    """
    rng = np.random.default_rng(seed)
    n_el = 2 ** 10 if tiny else 2 ** 16
    k = 4  # the seed moves supports, densities and exponents, not the work done
    iv = dl.Interval(-1.0, 1.0)
    disk = dl.RevolutionManifold.ball(2, 1.0)
    ball = dl.RevolutionManifold.ball(3, 1.0)
    grid_iv = dl.RadialGrid.uniform(iv, n_el)
    grid_disk = dl.RadialGrid.uniform(disk, n_el)
    grid_ball = dl.RadialGrid.uniform(ball, n_el)
    items = []

    # rho == 1 on [-1, 1]: lambda_k = (k pi / 2)^2 bounds every k + 1 caps
    caps = _interval_caps(rng, k + 1)
    items.append(Item(
        "minmax interval constant",
        _late(spectrum, "minmax_bound", iv, dl.Constant(1.0), 0.5, caps, grid_iv),
        _at_least(f"interval bound for lambda_{k}", (k * math.pi / 2) ** 2)))

    caps = _interval_caps(rng, k + 1)
    rho = dl.GaussianRadial(10 ** rng.uniform(0.0, 3.0))
    items.append(Item(
        "minmax interval gaussian",
        _late(spectrum, "minmax_bound", iv, rho, 0.5, caps, grid_iv),
        _finite_positive("interval gaussian bound")))

    # rho == 1 on the unit disk: three functions bound the Neumann
    # lambda_2 = lambda_1 = j'_{1,1}^2
    fns = _radial_family(rng, disk, 3)
    items.append(Item(
        "minmax disk constant",
        _late(spectrum, "minmax_bound", disk, dl.Constant(1.0), 0.5, fns, grid_disk),
        _at_least("disk bound for lambda_2", jnp_zeros(1, 1)[0] ** 2)))

    fns = _radial_family(rng, disk, 3)
    rho = dl.GaussianRadial(10 ** rng.uniform(0.0, 2.0))
    alpha = rng.uniform(0.5, 1.0)
    items.append(Item(
        "minmax disk gaussian",
        _late(spectrum, "minmax_bound", disk, rho, alpha, fns, grid_disk),
        _finite_positive("disk gaussian bound")))

    # a collar with knots on grid nodes has one constant slope, so for rho == 1
    # both Hoelder steps are equalities up to rounding
    a, width = int(rng.integers(4, 25)) / 64, int(rng.integers(8, 33)) / 64
    collar = dl.build_collar_function(ball, a, width)
    alpha = rng.uniform(0.05, 0.3)

    def check_equality(rep):
        worst = max(abs(rep.first_slack), abs(rep.second_slack)) / rep.energy
        if not worst <= 1e-10:
            return f"Hoelder chain for rho == 1 off equality by {worst:.3g}"
        return None

    items.append(Item(
        "holder ball constant",
        _late(spectrum, "holder_chain_check", ball, dl.Constant(1.0), alpha, collar,
              grid_ball),
        check_equality))

    r = rng.uniform(0.05, 0.2)
    plateau = dl.build_plateau_function(ball, r, rng.uniform(r, 0.45))
    rho = dl.GaussianRadial(10 ** rng.uniform(0.0, 1.5))
    alpha = rng.uniform(0.05, 0.3)
    items.append(Item(
        "holder ball gaussian",
        _late(spectrum, "holder_chain_check", ball, rho, alpha, plateau, grid_ball),
        lambda rep: None if rep.holds else
        f"Hoelder chain slack negative: {rep.first_slack:.3g}, {rep.second_slack:.3g}"))

    # the interpolated k-th interval eigenfunction has quotient (k pi / 2)^2 up
    # to the P1 error ~(k pi h)^2 / 48 and the rounding of the stiffness sum,
    # whose rows cancel: bound them by (k pi h)^2 / 6 + N^2 eps
    mode = int(rng.integers(1, 21))
    u = np.cos(mode * math.pi * (grid_iv.nodes + 1.0) / 2.0)
    exact = (mode * math.pi / 2) ** 2
    tol = (mode * math.pi * 2.0 / n_el) ** 2 / 6 + n_el ** 2 * EPS

    def check_quotient(q):
        err = abs(q / exact - 1.0)
        if not err <= tol:
            return f"Rayleigh quotient of mode {mode} off by {err:.3g} > {tol:.3g}"
        return None

    items.append(Item(
        f"rayleigh interval mode {mode}",
        _late(spectrum, "rayleigh_quotient", iv, dl.Constant(1.0),
              rng.uniform(0.0, 1.0), u, grid_iv),
        check_quotient))

    k_sets = n_el // 4
    triple = dl.MeasureTriple.random(k_sets, rng)

    def select_and_verify():
        chosen = measures.select_small_sets(triple, k_sets)
        return measures.brute_force_verify(triple, k_sets, chosen)

    items.append(Item(
        "select small sets", select_and_verify,
        lambda ok: None if ok else "selection failed brute_force_verify"))
    return Workload("minmax_bounds", items)


WORKLOADS = {w.__name__: w for w in (scan_blowup_disk, conformal_many_modes,
                                     minmax_bounds)}


def build(name, seed, tiny=False):
    return WORKLOADS[name](seed, tiny)
