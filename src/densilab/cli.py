"""Command-line harness around the experiments module.

Each subcommand writes its report to ``--out`` in the requested format
and prints a one-line summary; the exit code is 0 iff every per-row and
per-fit assertion passed.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import density as density_mod
from . import experiments as exp
from .geometry import RadialGrid, RevolutionManifold
from .measures import MeasureTriple, brute_force_verify, select_small_sets
from .spectrum import full_spectrum


def _floats(text):
    return tuple(float(tok) for tok in text.split(",") if tok)


def _ints(text):
    return tuple(int(tok) for tok in text.split(",") if tok)


def _density_arg(text):
    """Parse 'kind:params', e.g. constant:2, gaussian:100, cauchy:100,0.5,
    tabulated:/path/to/rho.csv."""
    kind, _, params = text.partition(":")
    if kind == "constant":
        return {"kind": "constant", "c": float(params) if params else 1.0}
    if kind == "gaussian":
        return {"kind": "gaussian", "m": float(params) if params else 1.0}
    if kind in ("cauchy", "cauchy_power"):
        m, alpha = (float(t) for t in params.split(","))
        return {"kind": "cauchy_power", "m": m, "alpha": alpha}
    if kind == "tabulated":
        return {"kind": "tabulated", "path": params}
    raise argparse.ArgumentTypeError(f"unknown density spec {text!r}")


def _add_common(p):
    p.add_argument("--config", help="JSON file with ExperimentConfig defaults")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--n", type=int, help="dimension (2 -> flat disk, 3 -> flat ball)")
    p.add_argument("--alpha", type=_floats, help="comma-separated exponents")
    p.add_argument("--m", type=_floats, help="comma-separated density parameters")
    p.add_argument("--grid", type=int, help="element count N (power of two)")
    p.add_argument("--kmax", type=int, help="number of eigenvalues above the zero mode")
    p.add_argument("--density", type=_density_arg,
                   help="density spec, e.g. constant:1, gaussian:100, cauchy:100,0.5")
    p.add_argument("--format", choices=("csv", "json"), help="report format")
    p.add_argument("--seed", type=int, help="seed for randomized instances")
    p.add_argument("--exploratory", action="store_true",
                   help="allow alpha outside [0, 1]; assertions are skipped")


def _config(args, experiment):
    if args.config:
        try:
            cfg = exp.ExperimentConfig.from_json(args.config)
        except (OSError, ValueError, TypeError) as exc:  # unreadable, not JSON, bad keys or values
            args.parser.error(f"--config {args.config}: {exc}")
        cfg.experiment = experiment
    else:
        cfg = exp.ExperimentConfig(experiment=experiment)
    if args.n is not None:
        cfg.domain = {"kind": "ball", "n": args.n} if args.n >= 2 else {"kind": "interval"}
    if args.alpha is not None:
        cfg.alpha_values = args.alpha
    if args.m is not None:
        cfg.m_values = args.m
    if args.grid is not None:
        cfg.grid_n = args.grid
    if args.kmax is not None:
        cfg.k_max = args.kmax
    if args.density:
        cfg.density = args.density
    if args.format:
        cfg.fmt = args.format
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out:
        cfg.out_dir = args.out
    if args.exploratory:
        cfg.exploratory = True
    # re-run the range validation with the overrides in place
    try:
        cfg.__post_init__()
    except ValueError as exc:
        args.parser.error(str(exc))
    return cfg


def _domain(cfg):
    return exp.domain_from_config(cfg.domain)


def _emit(report, cfg):
    os.makedirs(cfg.out_dir, exist_ok=True)
    report.metadata.update(exp._metadata(config=cfg))
    stem = os.path.join(cfg.out_dir, report.experiment)
    if cfg.fmt == "json":
        report.to_json(stem + ".json")
        path = stem + ".json"
    else:
        report.to_csv(stem + ".csv")
        with open(stem + ".meta.json", "w") as fh:
            json.dump({"fits": report.fits, "metadata": report.metadata},
                      fh, indent=2, default=float)
        path = stem + ".csv"
    status = "PASS" if report.passed else "FAIL"
    print(f"{report.experiment}: {status} ({len(report.rows)} rows) -> {path}")
    return 0 if report.passed else 1


def _cmd_solve(args):
    cfg = _config(args, "solve")
    domain = _domain(cfg)
    rho = density_mod.from_config(cfg.density)
    alpha = cfg.alpha_values[0]
    grid = RadialGrid.for_density(domain, cfg.grid_n, m=getattr(rho, "m", None))
    result = full_spectrum(domain, rho, alpha, cfg.k_max, grid=grid,
                           j_max=cfg.j_max)
    os.makedirs(cfg.out_dir, exist_ok=True)
    stem = os.path.join(cfg.out_dir, "spectrum")
    if cfg.fmt == "json":
        result.to_json(stem + ".json")
    else:
        result.to_csv(stem + ".csv")
    lam = ", ".join(f"{v:.6g}" for v in result.lambdas)
    print(f"solve: lambda_0..{cfg.k_max} = {lam}")
    return 0


def _cmd_scan_blowup(args):
    cfg = _config(args, "scan-blowup")
    report = exp.exp_blowup_scan(_domain(cfg), cfg.alpha_values, cfg.m_values,
                                 cfg.grid_n,
                                 assert_slopes=not cfg.exploratory)
    return _emit(report, cfg)


def _cmd_scan_bounded(args):
    cfg = _config(args, "scan-bounded")
    report = exp.exp_bounded_scan(_domain(cfg), cfg.alpha_values, cfg.m_values,
                                  companion_alpha=args.companion_alpha,
                                  grid_n=cfg.grid_n)
    return _emit(report, cfg)


def _cmd_verify_1d(args):
    cfg = _config(args, "verify-1d")
    report = exp.exp_one_d_construction(cfg.m_values, cfg.alpha_values,
                                        cfg.grid_n)
    return _emit(report, cfg)


def _cmd_conformal(args):
    cfg = _config(args, "conformal-check")
    domain = _domain(cfg)
    if not isinstance(domain, RevolutionManifold):
        args.parser.error("conformal-check needs a manifold of revolution (--n 2 or 3)")
    m = cfg.m_values[0]
    rho = density_mod.normalize(density_mod.GaussianRadial(m), domain)
    report = exp.exp_conformal_identity(domain, rho, cfg.k_max, cfg.grid_n)
    return _emit(report, cfg)


def _cmd_measure(args):
    cfg = _config(args, "measure-lemma")
    if args.k is not None and args.k < 1:
        args.parser.error(f"--k must be >= 1, got {args.k}")
    rng = np.random.default_rng(cfg.seed)
    rows = []
    if args.csv:
        triple = MeasureTriple.from_csv(args.csv)
        k = (triple.k_sets - 1) // 4 if args.k is None else args.k
        sel = select_small_sets(triple, k)
        rows.append({"instance": 0, "k": k, "K": triple.k_sets,
                     "selected": len(sel), "indices": " ".join(map(str, sel)),
                     "passed": brute_force_verify(triple, k, sel)})
    else:
        for i in range(args.instances):
            k = int(rng.integers(1, 11)) if args.k is None else args.k
            triple = MeasureTriple.random(k, rng)
            sel = select_small_sets(triple, k)
            rows.append({"instance": i, "k": k, "K": triple.k_sets,
                         "selected": len(sel), "indices": "",
                         "passed": brute_force_verify(triple, k, sel)})
    report = exp.ScanReport("measure-lemma",
                            ["instance", "k", "K", "selected", "indices", "passed"],
                            rows, {}, exp._metadata())
    return _emit(report, cfg)


def _cmd_gaussian(args):
    cfg = _config(args, "gaussian-lemma")
    dims = cfg.dims if args.dims is None else args.dims
    half_side = cfg.box_half_side if args.L is None else args.L
    report = exp.exp_gaussian_integral_lemma(dims, cfg.m_values, half_side,
                                             cfg.grid_n)
    return _emit(report, cfg)


def _cmd_weyl(args):
    cfg = _config(args, "weyl-fit")
    report = exp.exp_weyl_fit(_domain(cfg), density_mod.from_config(cfg.density),
                              cfg.alpha_values[0], max(cfg.k_max, 20), cfg.grid_n)
    return _emit(report, cfg)


def _cmd_scaling(args):
    cfg = _config(args, "scaling-check")
    c_values = cfg.c_values if args.c is None else args.c
    report = exp.exp_scaling_identity(_domain(cfg),
                                      density_mod.from_config(cfg.density),
                                      cfg.alpha_values[0], c_values,
                                      min(cfg.grid_n, 1024))
    return _emit(report, cfg)


def _cmd_converge(args):
    cfg = _config(args, "converge")
    n_values = (cfg.grid_n // 4, cfg.grid_n // 2, cfg.grid_n) if args.grids is None else args.grids
    report = exp.exp_convergence(_domain(cfg), density_mod.from_config(cfg.density),
                                 cfg.alpha_values[0], n_values)
    return _emit(report, cfg)


def build_parser():
    ap = argparse.ArgumentParser(prog="densilab",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    specs = {
        "solve": ("solve one weighted eigenproblem", _cmd_solve),
        "scan-blowup": ("supercritical m-scan of the normalized lambda_1",
                        _cmd_scan_blowup),
        "scan-bounded": ("subcritical plateau scan with a supercritical companion",
                         _cmd_scan_bounded),
        "verify-1d": ("interval lower-bound construction lambda_1 >= m",
                      _cmd_verify_1d),
        "conformal-check": ("conformal metric vs weighted problem", _cmd_conformal),
        "measure-lemma": ("three-measure pigeonhole selection", _cmd_measure),
        "gaussian-lemma": ("gaussian integral lower bound", _cmd_gaussian),
        "weyl-fit": ("growth-law fit lambda_k ~ k^(2/n)", _cmd_weyl),
        "scaling-check": ("exact scaling identity in the density amplitude",
                          _cmd_scaling),
        "converge": ("Richardson convergence study", _cmd_converge),
    }
    for name, (help_text, fn) in specs.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(fn=fn, parser=p)
        if name == "scan-bounded":
            p.add_argument("--companion-alpha", type=float, default=0.5)
        if name == "measure-lemma":
            p.add_argument("--k", type=int, help="fixed k (random in 1..10 otherwise)")
            p.add_argument("--instances", type=int, default=1000)
            p.add_argument("--csv", help="load one instance from a CSV file")
        if name == "gaussian-lemma":
            p.add_argument("--dims", type=_ints, help="dimensions, e.g. 1,2,3")
            p.add_argument("--L", type=float, help="box half-side, default box_half_side")
        if name == "scaling-check":
            p.add_argument("--c", type=_floats, help="scale factors")
        if name == "converge":
            p.add_argument("--grids", type=_ints, help="nested grid sizes")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except exp.UsageError as exc:  # raised by an experiment's checks, before any solve
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
