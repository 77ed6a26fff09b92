"""Command-line harness around the experiments module.

Each subcommand writes its report to ``--out`` in the requested format
and prints a one-line summary; the exit code is 0 iff every per-row and
per-fit assertion passed.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import density as density_mod
from . import experiments as exp
from .eigensolver import EigenSolveError
from .geometry import RadialGrid, RevolutionManifold
from .measures import MeasureTriple, brute_force_verify, select_small_sets
from .spectrum import full_spectrum


def _floats(text):
    return tuple(float(tok) for tok in text.split(",") if tok)


def _ints(text):
    return tuple(int(tok) for tok in text.split(",") if tok)


def _dimension(text):
    n = int(text)
    return {"kind": "ball", "n": n} if n >= 2 else {"kind": "interval"}


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


def _config(args):
    """The subcommand's defaults, then the --config JSON, then the given flags."""
    raw = dict(COMMANDS[args.command][3])
    try:
        if args.config:
            with open(args.config) as fh:
                raw.update(json.load(fh))
        raw.update((k, v) for k, v in vars(args).items() if k in FIELDS)
        raw["experiment"] = args.command
        return exp.ExperimentConfig(**raw)
    except (OSError, KeyError, TypeError, ValueError) as exc:  # unreadable, bad keys or values
        args.parser.error(str(exc))


def _emit(report, cfg, t0):
    os.makedirs(cfg.out_dir, exist_ok=True)
    # an experiment's own elapsed_seconds, which the Python API reports too, is kept
    report.metadata = {**exp._metadata(config=cfg, t0=t0), **report.metadata}
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


def _one(values, flag):
    if len(values) != 1:
        raise exp.UsageError(f"{flag} takes one value here, got {len(values)}")
    return values[0]


def _cmd_solve(cfg):
    domain = exp.domain_from_config(cfg.domain)
    rho = density_mod.from_config(cfg.density)
    alpha = _one(cfg.alpha_values, "--alpha")
    grid = RadialGrid.for_density(domain, cfg.grid_n, m=getattr(rho, "m", None))
    result = full_spectrum(domain, rho, alpha, cfg.k_max, grid=grid)
    rows = [{"k": k, "lambda": lam, "mode_j": j, "multiplicity": mult}
            for k, lam, j, mult in result.slot_entries()]
    return exp.ScanReport("solve", rows, {}, {"cutoff": result.cutoff, "counts": result.counts,
                                              "counts_spent": result.counts_spent})


def _cmd_scan_blowup(cfg):
    return exp.exp_blowup_scan(exp.domain_from_config(cfg.domain), cfg.alpha_values,
                               cfg.m_values, cfg.grid_n,
                               assert_slopes=not cfg.exploratory)


def _cmd_scan_bounded(cfg):
    return exp.exp_bounded_scan(exp.domain_from_config(cfg.domain), cfg.alpha_values,
                                cfg.m_values, companion_alpha=cfg.companion_alpha,
                                grid_n=cfg.grid_n)


def _cmd_verify_1d(cfg):
    return exp.exp_one_d_construction(cfg.m_values, cfg.alpha_values, cfg.grid_n)


def _cmd_conformal(cfg):
    domain = exp.domain_from_config(cfg.domain)
    if not isinstance(domain, RevolutionManifold):
        raise exp.UsageError("conformal-check needs a manifold of revolution (--n 2 or 3)")
    m = _one(cfg.m_values, "--m")
    rho = density_mod.normalize(density_mod.GaussianRadial(m), domain)
    return exp.exp_conformal_identity(domain, rho, cfg.k_max, cfg.grid_n)


def _cmd_measure(cfg):
    def row(i, triple, k, show_indices):
        sel = select_small_sets(triple, k)
        return {"instance": i, "k": k, "K": triple.k_sets, "selected": len(sel),
                "indices": " ".join(map(str, sel)) if show_indices else "",
                "passed": brute_force_verify(triple, k, sel)}

    if cfg.csv:
        try:
            triple = MeasureTriple.from_csv(cfg.csv)
            k = max((triple.k_sets - 1) // 4, 1) if cfg.k is None else cfg.k
            rows = [row(0, triple, k, show_indices=True)]
        except (OSError, ValueError) as exc:  # missing, not numeric, not a measure, too few sets
            raise exp.UsageError(f"--csv {cfg.csv}: {exc}") from exc
    else:
        rng = np.random.default_rng(cfg.seed)
        rows = []
        for i in range(cfg.instances):
            k = int(rng.integers(1, 11)) if cfg.k is None else cfg.k
            rows.append(row(i, MeasureTriple.random(k, rng), k, show_indices=False))
    return exp.ScanReport("measure-lemma", rows)


def _cmd_gaussian(cfg):
    return exp.exp_gaussian_integral_lemma(cfg.dims, cfg.m_values, cfg.box_half_side,
                                           cfg.grid_n)


def _cmd_weyl(cfg):
    return exp.exp_weyl_fit(exp.domain_from_config(cfg.domain),
                            density_mod.from_config(cfg.density),
                            _one(cfg.alpha_values, "--alpha"), cfg.k_max, cfg.grid_n)


def _cmd_scaling(cfg):
    return exp.exp_scaling_identity(exp.domain_from_config(cfg.domain),
                                    density_mod.from_config(cfg.density),
                                    _one(cfg.alpha_values, "--alpha"), cfg.c_values,
                                    cfg.grid_n)


def _cmd_converge(cfg):
    n_values = (cfg.grid_n // 4, cfg.grid_n // 2, cfg.grid_n) if cfg.grids is None else cfg.grids
    return exp.exp_convergence(exp.domain_from_config(cfg.domain),
                               density_mod.from_config(cfg.density),
                               _one(cfg.alpha_values, "--alpha"), n_values)


# Each flag and the ExperimentConfig field it sets; --config alone sets none.
FLAGS = {
    "--config": (None, {"help": "JSON file with ExperimentConfig values"}),
    "--out": ("out_dir", {"metavar": "OUT", "help": "output directory"}),
    "--format": ("fmt", {"choices": ("csv", "json"), "help": "report format"}),
    "--n": ("domain", {"type": _dimension,
                       "help": "dimension (2 -> flat disk, 3 -> flat ball)"}),
    "--alpha": ("alpha_values", {"type": _floats, "help": "comma-separated exponents"}),
    "--m": ("m_values", {"type": _floats, "help": "comma-separated density parameters"}),
    "--grid": ("grid_n", {"type": int, "help": "element count N (power of two)"}),
    "--kmax": ("k_max", {"type": int,
                         "help": "number of eigenvalues above the zero mode"}),
    "--density": ("density", {"type": _density_arg, "help": "density spec, e.g. "
                              "constant:1, gaussian:100, cauchy:100,0.5"}),
    "--seed": ("seed", {"type": int, "help": "seed for randomized instances"}),
    "--exploratory": ("exploratory", {"action": "store_true", "help":
                                      "allow alpha outside [0, 1]; assertions are skipped"}),
    "--dims": ("dims", {"type": _ints, "help": "dimensions, e.g. 1,2,3"}),
    "--L": ("box_half_side", {"type": float, "help": "box half-side"}),
    "--c": ("c_values", {"type": _floats, "help": "scale factors"}),
    "--companion-alpha": ("companion_alpha", {"type": float, "help": "companion exponent"}),
    "--k": ("k", {"type": int, "help": "fixed k (random in 1..10 otherwise)"}),
    "--instances": ("instances", {"type": int, "help": "number of random instances"}),
    "--csv": ("csv", {"help": "load one instance from a CSV file"}),
    "--grids": ("grids", {"type": _ints, "help": "nested grid sizes"}),
}
FIELDS = {field for field, _ in FLAGS.values() if field}

# Each subcommand: its function, help, the flags it reads besides --config,
# --out and --format, and its defaults where they differ from ExperimentConfig's.
COMMANDS = {
    "solve": (_cmd_solve, "solve one weighted eigenproblem",
              "--n --alpha --grid --kmax --density --exploratory", {}),
    "scan-blowup": (_cmd_scan_blowup, "supercritical m-scan of the normalized lambda_1",
                    "--n --alpha --m --grid --exploratory", {}),
    "scan-bounded": (_cmd_scan_bounded,
                     "subcritical plateau scan with a supercritical companion",
                     "--n --alpha --m --grid --companion-alpha",
                     {"domain": {"kind": "ball", "n": 3}, "alpha_values": (0.2,)}),
    "verify-1d": (_cmd_verify_1d, "interval lower-bound construction lambda_1 >= m",
                  "--alpha --m --grid", {}),
    "conformal-check": (_cmd_conformal, "conformal metric vs weighted problem",
                        "--n --m --kmax --grid",
                        {"domain": {"kind": "ball", "n": 3}, "m_values": (10.0,)}),
    "measure-lemma": (_cmd_measure, "three-measure pigeonhole selection",
                      "--seed --k --instances --csv", {}),
    "gaussian-lemma": (_cmd_gaussian, "gaussian integral lower bound",
                       "--m --grid --dims --L", {}),
    "weyl-fit": (_cmd_weyl, "growth-law fit lambda_k ~ k^(2/n)",
                 "--n --density --alpha --kmax --grid --exploratory", {"k_max": 20}),
    "scaling-check": (_cmd_scaling, "exact scaling identity in the density amplitude",
                      "--n --density --alpha --grid --c --exploratory", {"grid_n": 1024}),
    "converge": (_cmd_converge, "Richardson convergence study",
                 "--n --density --alpha --grid --grids --exploratory", {}),
}


def build_parser():
    ap = argparse.ArgumentParser(prog="densilab",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn, parser=p)
        for flag in ("--config", "--out", "--format", *flags.split()):
            field, kwargs = FLAGS[flag]
            if field:  # absent unless given, so it cannot mask the JSON or a default
                kwargs = {**kwargs, "dest": field, "default": argparse.SUPPRESS}
                if "type" in kwargs:
                    kwargs["metavar"] = flag[2:].upper()
            p.add_argument(flag, **kwargs)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    cfg = _config(args)
    t0 = time.perf_counter()
    try:
        report = args.fn(cfg)
    except exp.UsageError as exc:  # raised by an experiment's checks, before any solve
        args.parser.error(str(exc))
    except EigenSolveError as exc:  # a solve that refused its pencil: one line, exit 1
        print(f"densilab: error: {exc}", file=sys.stderr)
        return 1
    return _emit(report, cfg, t0)


if __name__ == "__main__":
    sys.exit(main())
