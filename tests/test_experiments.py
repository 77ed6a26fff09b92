import csv
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import densilab as dl
from densilab import cli, eigensolver
from densilab import experiments as exp
from densilab.cli import main as cli_main
from densilab.measures import MeasureTriple, select_small_sets

import oracles


def test_config_validation():
    with pytest.raises(ValueError, match="power of two"):
        exp.ExperimentConfig(grid_n=1000)
    with pytest.raises(ValueError, match="nonempty"):
        exp.ExperimentConfig(alpha_values=())
    with pytest.raises(ValueError, match="exploratory"):
        exp.ExperimentConfig(alpha_values=(1.5,))
    with pytest.raises(ValueError, match="k_max"):
        exp.ExperimentConfig(k_max=-1)
    cfg = exp.ExperimentConfig(alpha_values=(1.5,), exploratory=True)
    assert cfg.exploratory
    # NaN fails every range check, and a non-finite alpha is never exploratory
    for bad in ({"m_values": (math.nan,)}, {"c_values": (1.0, math.nan)},
                {"box_half_side": math.inf}, {"companion_alpha": math.nan},
                {"alpha_values": (math.inf,), "exploratory": True},
                {"k": 0}, {"instances": 0}, {"instances": math.nan}):
        with pytest.raises(ValueError):
            exp.ExperimentConfig(**bad)


@pytest.mark.parametrize("command, flags, config", [
    ("solve", ["--kmax", "-1"], None), ("solve", ["--grid", "1000"], None),
    ("solve", ["--grid", "0"], None), ("solve", ["--alpha", ""], None),
    ("solve", ["--m", ""], None),
    ("solve", ["--config", "cfg.json"], '{"grid_n": 1000}'),
    ("solve", ["--config", "cfg.json"], '{"grid_n": 10'),
    ("solve", ["--config", "cfg.json"], '{"gridn": 1024}'),
    ("solve", ["--config", "missing.json"], None),
    ("scan-bounded", ["--n", "1"], None), ("scan-blowup", ["--n", "3", "--alpha", "0.3"], None),
    ("converge", ["--grids", "64,100,200"], None), ("converge", ["--grids", ""], None),
    ("gaussian-lemma", ["--m", "0.5"], None), ("conformal-check", ["--n", "1"], None),
    ("measure-lemma", ["--k", "0"], None), ("scan-blowup", ["--m", ""], None),
    ("verify-1d", ["--alpha", "0", "--m", "1,10", "--grid", "256"], None),
    ("conformal-check", ["--n", "2", "--m", "0", "--grid", "256"], None),
    ("solve", ["--density", "gaussian:0"], None),
    ("solve", ["--density", "tabulated:missing.csv"], None),
    ("solve", ["--config", "cfg.json"], '{"domain": {"kind": "torus"}}'),
    ("solve", ["--config", "cfg.json"], '{"domain": {"kind": "box"}}'),
    ("scaling-check", ["--c", ""], None), ("gaussian-lemma", ["--dims", ""], None),
    ("solve", ["--m", "100"], None), ("verify-1d", ["--n", "3"], None),
    ("conformal-check", ["--n", "2", "--alpha", "0.9", "--grid", "256"], None),
    ("solve", ["--alpha", "0.3,0.9"], None),
    ("solve", ["--config", "cfg.json"], '{"alpha_values": [0.3, 0.9]}'),
    ("conformal-check", ["--n", "2", "--m", "1,10"], None),
    ("weyl-fit", ["--kmax", "5"], None), ("measure-lemma", ["--instances", "0"], None),
    ("scan-bounded", ["--n", "3", "--alpha", "0.2", "--m", "10,100"], None),
    ("converge", ["--grids", "2,4,8"], None), ("converge", ["--grids", "0,0,0"], None),
    ("measure-lemma", ["--csv", "missing.csv"], None),
    ("measure-lemma", ["--csv", "cfg.json"], "a,b,c\n"),
    ("measure-lemma", ["--csv", "cfg.json"], "1,1,1\n" * 4),
    ("measure-lemma", ["--csv", "cfg.json", "--k", "2"], "1,1,1\n" * 5),
    # each column sums to 2.0999999999999996, a third of which is below 0.7
    ("measure-lemma", ["--csv", "cfg.json"],
     "0.7,0,0\n" * 3 + "0,0.7,0\n" * 3 + "0,0,0.7\n" * 3),
    ("converge", ["--density", "gaussian:1000", "--grids", "9,18,36"], None),
    ("solve", ["--kmax", "100", "--grid", "64"], None),
    ("scaling-check", ["--density", "gaussian:10", "--alpha", "0.5", "--c", "0,1"], None),
    ("gaussian-lemma", ["--dims", "0"], None),
    ("conformal-check", ["--n", "2", "--kmax", "0", "--grid", "256"], None),
    ("solve", ["--config", "cfg.json"],
     '{"density": {"kind": "scaled", "c": 2.0, "base": {"kind": "gaussian", "m": 1.0}}}'),
    ("conformal-check", ["--m", "inf"], None), ("solve", ["--density", "gaussian:inf"], None),
    ("solve", ["--density", "constant:inf"], None), ("scaling-check", ["--c", "nan"], None),
    ("scan-blowup", ["--alpha", "0.75", "--m", "nan,10,100"], None),
    ("scan-bounded", ["--companion-alpha", "nan"], None),
    ("solve", ["--alpha", "nan", "--exploratory"], None),
    ("gaussian-lemma", ["--L", "inf"], None),
    ("solve", ["--density", "tabulated:cfg.json"], "0.0\n0.5\n1.0\n"),
    ("solve", ["--density", "tabulated:cfg.json"], "-1.0,1.0\n0.0,2.0\n0.9,1.0\n"),
    ("solve", ["--n", "2", "--density", "tabulated:cfg.json"], "0.0,1.0\n0.5,2.0\n0.9,1.0\n"),
    ("scan-bounded", ["--companion-alpha", "0.4", "--grid", "512"], None),
    ("scan-bounded", ["--companion-alpha", "1.5", "--grid", "64", "--m", "10,1000"], None),
    ("gaussian-lemma", ["--L", "1e300", "--grid", "64"], None),
    ("solve", ["--density", "foo:1"], None),
    ("scan-bounded", ["--n", "3", "--alpha", "0.5"], None),
    ("measure-lemma", ["--seed", "-1"], None),
    ("scan-blowup", ["--n", "2", "--alpha", "0.75,0.75", "--m", "10,100,1000,10000",
                     "--grid", "64"], None),
    ("scan-blowup", ["--n", "2", "--alpha", "0.75", "--m", "10,10,100", "--grid", "64"], None),
    ("solve", ["--config", "cfg.json"], '{"domain": "ball"}'),
    ("measure-lemma", ["--config", "cfg.json"], '{"seed": 1.5}'),
    ("measure-lemma", ["--config", "cfg.json"], '{"instances": 2.5}'),
    ("measure-lemma", ["--config", "cfg.json"], '{"k": 2.5}'),
    ("converge", ["--config", "cfg.json"], '{"grids": [512.0, 1024.0, 2048.0]}'),
    ("solve", ["--config", "cfg.json"], '{"fmt": "xml"}'),
    ("solve", ["--config", "cfg.json"], '{"exploratory": "no", "alpha_values": [2.0]}'),
    ("scaling-check", ["--n", "2", "--density", "constant:1e300", "--alpha", "1",
                       "--c", "1e10", "--grid", "64"], None),
    ("scaling-check", ["--density", "gaussian:10", "--alpha", "2", "--c", "1e-300",
                       "--grid", "64", "--exploratory"], None),
    ("conformal-check", ["--n", "3", "--m", "1e4"], None),
    ("conformal-check", ["--n", "3", "--m", "1e3", "--grid", "64"], None)],
    ids=["kmax-negative", "grid-not-power-of-two", "grid-zero", "alpha-empty", "m-empty",
         "config-grid-not-power-of-two", "config-truncated", "config-unknown-key",
         "config-missing", "scan-bounded-on-interval", "scan-blowup-subcritical",
         "converge-not-nested", "converge-grids-empty", "gaussian-lemma-m-too-small",
         "conformal-check-on-interval", "measure-lemma-k-zero", "scan-blowup-m-empty",
         "verify-1d-alpha-zero", "conformal-check-m-zero", "density-gaussian-zero",
         "density-tabulated-missing", "config-domain-torus", "config-domain-box",
         "scaling-check-c-empty", "gaussian-lemma-dims-empty", "solve-m-undeclared",
         "verify-1d-n-undeclared", "conformal-check-alpha-undeclared", "solve-two-alphas",
         "config-solve-two-alphas", "conformal-check-two-ms", "weyl-fit-kmax-below-20",
         "measure-lemma-no-instances", "scan-bounded-companion-one-decade",
         "converge-grids-too-small", "converge-grids-zero", "measure-lemma-csv-missing",
         "measure-lemma-csv-not-numeric", "measure-lemma-csv-too-few-sets",
         "measure-lemma-csv-k-too-large", "measure-lemma-csv-too-few-small-sets",
         "converge-graded-interval-odd",
         "solve-kmax-above-interval-capacity", "scaling-check-c-zero",
         "gaussian-lemma-dims-zero", "conformal-check-kmax-zero", "config-density-scaled",
         "conformal-check-m-inf", "density-gaussian-inf", "density-constant-inf",
         "scaling-check-c-nan", "scan-blowup-m-nan", "scan-bounded-companion-nan",
         "alpha-nan-exploratory", "gaussian-lemma-L-inf", "density-tabulated-one-column",
         "density-tabulated-short-of-interval", "density-tabulated-short-of-disk",
         "scan-bounded-companion-below-growth-3", "scan-bounded-companion-above-one",
         "gaussian-lemma-box-overflows", "density-unknown-spec",
         "scan-bounded-supercritical", "measure-lemma-seed-negative",
         "scan-blowup-alpha-repeated", "scan-blowup-m-repeated", "config-domain-string",
         "config-seed-float", "config-instances-float", "config-k-float",
         "config-grids-float", "config-fmt-xml", "config-exploratory-string",
         "scaling-check-c-overflows-density", "scaling-check-c-underflows-power",
         "conformal-check-arclength-flat", "conformal-check-arclength-flat-grid-64"])
def test_cli_config_errors_are_usage_errors(command, flags, config, tmp_path, monkeypatch,
                                            capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("a usage error ran a solve")

    monkeypatch.setattr(exp, "full_spectrum", no_solve)
    monkeypatch.setattr(cli, "full_spectrum", no_solve)
    monkeypatch.chdir(tmp_path)
    if config is not None:  # also the CSV of measure-lemma --csv cfg.json
        (tmp_path / "cfg.json").write_text(config)
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--out", str(tmp_path), *flags])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_cli_runs_the_config_it_records(tmp_path, monkeypatch):
    """Each declared flag reaches the experiment unchanged, and so does each
    subcommand default; the report metadata records what ran."""
    calls = {}

    def spy(name):
        def record(*args, **kwargs):
            calls[name] = (args, kwargs)
            if name == "full_spectrum":
                return SimpleNamespace(slot_entries=lambda: [], cutoff=1.0, counts=(1,),
                                       counts_spent={})
            return exp.ScanReport(name, [])
        return record

    for name in ("exp_weyl_fit", "exp_scaling_identity", "exp_conformal_identity",
                 "exp_convergence", "exp_blowup_scan", "exp_bounded_scan"):
        monkeypatch.setattr(exp, name, spy(name))
    monkeypatch.setattr(cli, "full_spectrum", spy("full_spectrum"))

    def run(*argv):
        assert cli_main([*argv, "--out", str(tmp_path), "--format", "json"]) == 0

    run("scaling-check", "--grid", "2048", "--c", "2,3", "--alpha", "0.25")
    args, _ = calls["exp_scaling_identity"]
    assert args[2:] == (0.25, (2.0, 3.0), 2048)
    with open(tmp_path / "exp_scaling_identity.json") as fh:
        assert json.load(fh)["metadata"]["config"]["grid_n"] == 2048
    run("scaling-check")
    assert calls["exp_scaling_identity"][0][4] == 1024
    run("weyl-fit", "--n", "3")
    args, _ = calls["exp_weyl_fit"]
    assert args[0].n == 3 and args[3:] == (20, 2048)
    run("weyl-fit", "--kmax", "25", "--grid", "256")
    assert calls["exp_weyl_fit"][0][3:] == (25, 256)
    run("conformal-check", "--n", "2")
    args, _ = calls["exp_conformal_identity"]
    assert args[1].m == 10.0 and args[2:] == (5, 2048)
    run("converge", "--grid", "512", "--alpha", "1.5", "--exploratory")
    assert calls["exp_convergence"][0][2:] == (1.5, (128, 256, 512))
    run("converge", "--grids", "64,128,256")
    assert calls["exp_convergence"][0][3] == (64, 128, 256)
    with open(tmp_path / "exp_convergence.json") as fh:
        assert json.load(fh)["metadata"]["config"]["grids"] == [64, 128, 256]
    (tmp_path / "cfg.json").write_text('{"companion_alpha": 0.7}')
    run("scan-bounded", "--config", str(tmp_path / "cfg.json"))
    assert calls["exp_bounded_scan"][1]["companion_alpha"] == 0.7
    run("scan-blowup", "--n", "2", "--alpha", "0.6", "--m", "10,100", "--grid", "128")
    args, kwargs = calls["exp_blowup_scan"]
    assert args[1:] == ((0.6,), (10.0, 100.0), 128) and kwargs == {"assert_slopes": True}
    run("solve", "--n", "2", "--density", "gaussian:100", "--alpha", "0.5",
        "--kmax", "3", "--grid", "256")
    args, kwargs = calls["full_spectrum"]
    assert args[1].m == 100.0 and args[2:] == (0.5, 3) and kwargs["grid"].n_elements == 256


def test_domain_from_config():
    assert isinstance(exp.domain_from_config({"kind": "interval"}), dl.Interval)
    ball = exp.domain_from_config({"kind": "ball", "n": 3, "R": 2.0})
    assert ball.n == 3 and ball.R == 2.0
    cap = exp.domain_from_config({"kind": "cap", "n": 2, "R": 1.0})
    assert cap.profile is np.sin
    with pytest.raises(ValueError, match="unknown domain kind 'box'"):
        exp.domain_from_config({"kind": "box", "n": 2, "L": 1.0})
    with pytest.raises(ValueError):
        exp.domain_from_config({"kind": "torus"})


def test_scaling_identity_report():
    iv = dl.Interval(-1.0, 1.0)
    rep = exp.exp_scaling_identity(iv, dl.GaussianRadial(5.0), 0.5,
                                   c_values=(1.0, 10.0), grid_n=256)
    assert rep.passed
    by_c = {r["c"]: r for r in rep.rows}
    assert by_c[1.0]["lambda1"] == by_c[1.0]["expected"]
    assert by_c[10.0]["lambda1"] / by_c[1.0]["lambda1"] == pytest.approx(
        10.0 ** -0.5, rel=1e-12)
    # alpha = 1 leaves the eigenvalue invariant under scaling
    rep1 = exp.exp_scaling_identity(iv, dl.GaussianRadial(5.0), 1.0,
                                    c_values=(1e-3, 1e3), grid_n=256)
    vals = [r["lambda1"] for r in rep1.rows]
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)


def test_gaussian_lemma_rows():
    rep = exp.exp_gaussian_integral_lemma(dims=(1, 2, 3),
                                          m_values=(100.0, 1e4), grid_n=512)
    assert rep.passed
    rows = {(r["n"], r["m"]): r for r in rep.rows}
    assert rows[(1, 100.0)]["integral"] >= math.exp(-1) * 0.1
    assert rows[(2, 100.0)]["integral"] >= math.exp(-2) / 100.0
    assert rows[(3, 1e4)]["integral"] >= math.exp(-3) * 1e-6
    # the 1D integral itself agrees with the series oracle
    line = rows[(1, 100.0)]["integral"]
    assert line == pytest.approx(oracles.gaussian_line_integral(100.0, 1.0), rel=1e-7)
    assert all(r["volume_box"] == 2.0 ** r["n"] for r in rep.rows)
    rep = exp.exp_gaussian_integral_lemma(dims=(1, 2, 3), m_values=(100.0,), half_side=0.3,
                                          grid_n=512)
    assert [r["volume_box"] for r in rep.rows] == [(2.0 * 0.3) ** n for n in (1, 2, 3)]
    with pytest.raises(ValueError, match="m"):
        exp.exp_gaussian_integral_lemma(dims=(1,), m_values=(0.5,), half_side=1.0)
    with pytest.raises(exp.UsageError, match="dimension"):
        exp.exp_gaussian_integral_lemma(dims=(2, 0), m_values=(100.0,))


@pytest.mark.parametrize("half_side", [1.0, 1e3, 1e20, 1e200])
def test_gaussian_lemma_resolves_the_width_on_any_box(half_side):
    # the grid spans |t| <= sqrt(745 / m), not the box: at L = 1e3 and 2048
    # elements a box-wide grid left 3 nodes inside the Gaussian's width
    rep = exp.exp_gaussian_integral_lemma(dims=(1,), m_values=exp.DEFAULT_M_GRID,
                                          half_side=half_side)
    assert rep.passed
    for r in rep.rows:
        exact = math.sqrt(math.pi / r["m"]) * math.erf(math.sqrt(r["m"]) * half_side)
        assert r["integral"] == pytest.approx(exact, rel=0.0, abs=1e-15)


def test_convergence_study_flags():
    iv = dl.Interval(-1.0, 1.0)
    rep = exp.exp_convergence(iv, dl.Constant(1.0), 0.0, (128, 256, 512))
    assert rep.rows[0]["resolved"]
    assert rep.rows[0]["richardson_ratio"] == pytest.approx(4.0, abs=0.5)
    # an m = 900 gaussian is below the grading threshold of the grid policy,
    # so its coarse uniform grids under-resolve it
    rep2 = exp.exp_convergence(iv, dl.GaussianRadial(900.0), 0.5, (32, 64, 128))
    assert rep2.rows[-1]["richardson_ratio"] == pytest.approx(12.8, abs=0.1)
    assert not rep2.rows[-1]["resolved"]
    with pytest.raises(ValueError, match="nested"):
        exp.exp_convergence(iv, dl.Constant(1.0), 0.0, (128, 256, 384))


@pytest.mark.parametrize("grid_n", [256, 1024])
@pytest.mark.parametrize("name", ["interval", "disk"])
def test_extrapolation_of_a_constant_density_reaches_the_exact_value(name, grid_n):
    # the Neumann Laplacian: lambda_1 = (pi/2)^2 on (-1, 1), j'_{1,1}^2 on the
    # unit disk.  The raw fine value is off by richardson_error; the
    # extrapolated one by far less (2e-5 of it at most on these grids)
    domain, exact = {
        "interval": (dl.Interval(-1.0, 1.0), (math.pi / 2) ** 2),
        "disk": (dl.RevolutionManifold.ball(2, 1.0), oracles.bessel_j_prime_zeros(1, 1)[0] ** 2),
    }[name]
    rich = exp.lambda1_richardson(domain, dl.Constant(1.0), 0.0, grid_n)
    assert rich["lambda1_raw"] - exact == pytest.approx(rich["richardson_error"], rel=0.01)
    assert abs(rich["lambda1_extrapolated"] - exact) <= 0.01 * rich["richardson_error"]


def test_convergence_rows_match_lambda1_richardson():
    disk = dl.RevolutionManifold.ball(2, 1.0)
    rho, n = dl.GaussianRadial(100.0), 256
    row = exp.exp_convergence(disk, rho, 0.5, (n // 4, n // 2, n)).rows[0]
    rich = exp.lambda1_richardson(disk, rho, 0.5, n)
    for key in ("lambda1_extrapolated", "richardson_ratio", "richardson_error",
                "resolved"):
        assert row[key] == rich[key]
    assert row["lambda1"] == rich["lambda1_raw"]


def test_convergence_at_rounding_level_is_resolved(monkeypatch):
    # differences at rounding level make the ratio noise, not a resolution flag
    values = iter([2.0 + 4e-15, 2.0 - 1e-15, 2.0])
    monkeypatch.setattr(exp, "full_spectrum",
                        lambda *args, **kwargs: SimpleNamespace(lambdas=[0.0, next(values)]))
    row = exp.exp_convergence(dl.Interval(-1.0, 1.0), dl.Constant(1.0), 0.0,
                              (64, 128, 256)).rows[0]
    assert not 3.5 <= row["richardson_ratio"] <= 4.5
    assert row["resolved"]


def test_convergence_scaled_density_uses_base_grid_policy():
    # exact scaling identity: c rho must get the same (graded) grids as rho
    iv = dl.Interval(-1.0, 1.0)
    alpha, c = 0.5, 10.0
    rho = dl.GaussianRadial(1e4)
    base = exp.exp_convergence(iv, rho, alpha, (256, 512, 1024)).rows
    scaled = exp.exp_convergence(iv, dl.scale(rho, c), alpha, (256, 512, 1024)).rows
    factor = c ** (alpha - 1.0)
    for rb, rs in zip(base, scaled):
        lam = factor * rb["lambda1"]
        assert rs["lambda1"] == pytest.approx(lam, rel=1e-12)
        assert rs["lambda1_extrapolated"] == pytest.approx(
            factor * rb["lambda1_extrapolated"], rel=1e-12)
        # a difference of nearby values: compare on the eigenvalue's scale
        assert rs["richardson_error"] == pytest.approx(
            factor * rb["richardson_error"], abs=1e-12 * lam)
        assert rs["resolved"] == rb["resolved"]


def test_convergence_cauchy_resolved_by_2048():
    iv = dl.Interval(-1.0, 1.0)
    rep = exp.exp_convergence(iv, dl.CauchyPower(1e3, 0.5), 0.5, (512, 1024, 2048))
    assert rep.rows[-1]["resolved"]


def test_weyl_fit_interval():
    iv = dl.Interval(-1.0, 1.0)
    rep = exp.exp_weyl_fit(iv, dl.Constant(1.0), 0.0, k_max=20, grid_n=2048)
    fit = rep.fits["fit"]
    assert fit["slope"] == pytest.approx((math.pi / 2) ** 2, abs=1e-3)
    assert fit["r_squared"] >= 0.999999
    with pytest.raises(ValueError, match="k_max"):
        exp.exp_weyl_fit(iv, dl.Constant(1.0), 0.0, k_max=10)


def test_weyl_fit_disk_two_dimensional_slope():
    disk = dl.RevolutionManifold.ball(2, 1.0)
    rep = exp.exp_weyl_fit(disk, dl.Constant(1.0), 0.0, k_max=30, grid_n=1024)
    fit = rep.fits["fit"]
    weyl_slope = 4.0 * math.pi / math.pi  # 4 pi / |M|
    assert abs(fit["slope"] - weyl_slope) / weyl_slope < 0.15
    assert fit["r_squared"] >= 0.99
    # cross-check the computed spectrum against the Bessel-zero oracle
    lams = np.array([r["lambda"] for r in rep.rows])
    exact = oracles.disk_neumann_spectrum(31)[1:]
    assert np.max(np.abs(lams - exact) / exact) < 1e-3


def test_weyl_fit_ball_growth():
    # the exact ball spectrum fits k^(2/3) with R^2 ~ 0.93 at k <= 30 (the
    # 2l+1 multiplicity staircase); assert the honestly computed level
    ball = dl.RevolutionManifold.ball(3, 1.0)
    rep = exp.exp_weyl_fit(ball, dl.Constant(1.0), 0.0, k_max=30, grid_n=1024)
    fit = rep.fits["fit"]
    assert fit["r_squared"] >= 0.9
    lams = np.array([r["lambda"] for r in rep.rows])
    exact = oracles.ball_neumann_spectrum(31)[1:]
    assert np.max(np.abs(lams - exact) / exact) < 1e-3


def test_one_d_construction_small():
    rep = exp.exp_one_d_construction(m_values=(1.0, 10.0), alpha_values=(0.5,),
                                     grid_n=512)
    assert rep.passed
    assert [r["m"] for r in rep.rows] == [1.0, 10.0]
    assert all(r["lambda1_extrapolated"] >= 0.99 * r["m"] for r in rep.rows)


def test_one_d_construction_notes_a_failing_row(monkeypatch):
    def below(domain, rho, alpha, grid_n):
        lam = 0.5 * rho.m if rho.m > 1.0 else 2.0
        return {"lambda1_raw": lam, "lambda1_extrapolated": lam, "richardson_ratio": 4.0,
                "richardson_error": 0.0, "resolved": True}

    monkeypatch.setattr(exp, "lambda1_richardson", below)
    rep = exp.exp_one_d_construction(m_values=(1.0, 10.0), alpha_values=(0.5,), grid_n=64)
    assert not rep.passed
    assert [(r["passed"], r["note"]) for r in rep.rows] == [(True, ""),
                                                            (False, "lambda1 5 < 9.9")]


def test_blowup_scan_small():
    disk = dl.RevolutionManifold.ball(2, 1.0)
    rep = exp.exp_blowup_scan(disk, (0.5,), m_values=(10.0, 100.0, 1e3, 1e4),
                              grid_n=512)
    fit = rep.fits["0.5"]
    assert fit["passed"] and fit["slope"] >= 0.4
    assert fit["monotone_divergence"]
    with pytest.raises(ValueError, match="critical"):
        exp.exp_blowup_scan(dl.RevolutionManifold.ball(3, 1.0), (0.2,),
                            m_values=(10.0, 100.0, 1e3, 1e4), grid_n=256)


def test_bounded_scan_small():
    ball = dl.RevolutionManifold.ball(3, 1.0)
    m_grid = (10.0, 100.0, 1e3, 1e4)
    rep = exp.exp_bounded_scan(ball, (0.2,), m_values=m_grid,
                               companion_alpha=0.5, grid_n=512)
    assert rep.fits["0.2"]["passed"]
    assert rep.fits["companion"]["growth"] >= 3.0
    with pytest.raises(ValueError, match="n >= 3"):
        exp.exp_bounded_scan(dl.RevolutionManifold.ball(2, 1.0), (0.2,),
                             m_values=m_grid)
    with pytest.raises(ValueError, match="supercritical"):
        exp.exp_bounded_scan(ball, (0.2,), m_values=m_grid, companion_alpha=0.1)
    # predicted growth 10^0.2 = 1.585 over two decades, below the gate's 3
    with pytest.raises(exp.UsageError, match=r"alpha >= 0\.4924"):
        exp.exp_bounded_scan(ball, (0.2,), m_values=m_grid, companion_alpha=0.4)


def test_scan_report_serialization(tmp_path):
    rep = exp.exp_gaussian_integral_lemma(dims=(1,), m_values=(100.0,), grid_n=256)
    csv_path = tmp_path / "out.csv"
    rep.to_csv(csv_path)
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["n"] == "1"
    payload = rep.to_json(tmp_path / "out.json")
    assert payload["passed"] is True
    with open(tmp_path / "out.json") as fh:
        assert json.load(fh)["experiment"] == "gaussian-lemma"


def test_cli_gaussian_lemma(tmp_path, capsys):
    rc = cli_main(["gaussian-lemma", "--m", "100,1000", "--dims", "1,2",
                   "--out", str(tmp_path), "--grid", "256"])
    assert rc == 0
    assert (tmp_path / "gaussian-lemma.csv").exists()
    assert "PASS" in capsys.readouterr().out


def test_cli_measure_lemma(tmp_path, capsys):
    rc = cli_main(["measure-lemma", "--instances", "50", "--seed", "11",
                   "--out", str(tmp_path), "--format", "json"])
    assert rc == 0
    with open(tmp_path / "measure-lemma.json") as fh:
        payload = json.load(fh)
    assert payload["passed"] and len(payload["rows"]) == 50


def test_cli_measure_lemma_csv(tmp_path, capsys):
    path = tmp_path / "sets.csv"
    np.savetxt(path, np.random.default_rng(5).uniform(0.1, 1.0, size=(9, 3)), delimiter=",")
    rc = cli_main(["measure-lemma", "--csv", str(path), "--out", str(tmp_path),
                   "--format", "json"])
    assert rc == 0
    assert "measure-lemma: PASS" in capsys.readouterr().out
    with open(tmp_path / "measure-lemma.json") as fh:
        (row,) = json.load(fh)["rows"]
    assert row["k"] == 2 and row["passed"]
    assert row["indices"] == " ".join(map(str, select_small_sets(MeasureTriple.from_csv(path), 2)))


def test_cli_scaling_check(tmp_path):
    rc = cli_main(["scaling-check", "--alpha", "0.5", "--c", "0.001,1,1000",
                   "--out", str(tmp_path), "--grid", "256"])
    assert rc == 0


def test_cli_solve_writes_spectrum(tmp_path, capsys):
    rc = cli_main(["solve", "--n", "2", "--alpha", "0.0", "--kmax", "3",
                   "--density", "constant:1", "--grid", "256", "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("solve: PASS (4 rows) -> ")
    with open(tmp_path / "solve.csv") as fh:
        assert fh.readline().rstrip("\r\n") == "k,lambda,mode_j,multiplicity"
        rows = list(csv.DictReader(fh, fieldnames=["k", "lambda", "mode_j", "multiplicity"]))
    assert len(rows) == 4
    assert float(rows[1]["lambda"]) == pytest.approx(3.38996, rel=1e-3)
    # the metadata names what ran, with the plan and the counts it spent
    disk = dl.RevolutionManifold.ball(2, 1.0)
    res = dl.full_spectrum(disk, dl.Constant(1.0), 0.0, 3, grid=dl.RadialGrid.uniform(disk, 256))
    with open(tmp_path / "solve.meta.json") as fh:
        meta = json.load(fh)["metadata"]
    assert meta["config"]["domain"] == {"kind": "ball", "n": 2}
    assert meta["config"]["density"] == {"kind": "constant", "c": 1.0}
    assert meta["config"]["alpha_values"] == [0.0]
    assert meta["tool_version"] == dl.__version__
    assert (meta["cutoff"], meta["counts"]) == (res.cutoff, list(res.counts))
    assert meta["counts_spent"] == res.counts_spent


def test_cli_converge(tmp_path):
    rc = cli_main(["converge", "--alpha", "0.0", "--grids", "64,128,256",
                   "--out", str(tmp_path)])
    assert rc == 0


def test_cli_verify_1d(tmp_path):
    rc = cli_main(["verify-1d", "--alpha", "0.5", "--m", "1,10",
                   "--grid", "256", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "verify-1d.csv").exists()


def test_cli_scan_blowup(tmp_path):
    rc = cli_main(["scan-blowup", "--n", "2", "--alpha", "0.5",
                   "--m", "10,100,1000,10000", "--grid", "256",
                   "--out", str(tmp_path)])
    assert rc == 0


def test_cli_scan_bounded(tmp_path):
    rc = cli_main(["scan-bounded", "--n", "3", "--alpha", "0.2",
                   "--m", "10,100,1000,10000", "--grid", "256",
                   "--out", str(tmp_path), "--format", "json"])
    assert rc == 0
    with open(tmp_path / "scan-bounded.json") as fh:
        assert json.load(fh)["passed"]


def test_cli_conformal_check(tmp_path):
    rc = cli_main(["conformal-check", "--n", "2", "--m", "1", "--kmax", "3",
                   "--grid", "256", "--out", str(tmp_path)])
    assert rc == 0


def test_cli_weyl_fit(tmp_path):
    rc = cli_main(["weyl-fit", "--n", "2", "--alpha", "0.0",
                   "--density", "constant:1", "--kmax", "20", "--grid", "256",
                   "--out", str(tmp_path)])
    assert rc == 0


@pytest.mark.parametrize("k_max, code, used", [(1000, 1, 20), (300, 0, 11)])
def test_cli_weyl_fit_stays_in_the_resolved_range(k_max, code, used, tmp_path):
    # disk, Gaussian m 1, alpha 0.5, N 64: mode 1's pencil has 64 unknowns
    rc = cli_main(["weyl-fit", "--n", "2", "--kmax", str(k_max), "--grid", "64",
                   "--out", str(tmp_path)])
    assert rc == code
    with open(tmp_path / "weyl-fit.meta.json") as fh:
        fit = json.load(fh)["fits"]["fit"]
    assert fit["largest_share"] == used / 64 and fit["passed"] == (code == 0)


def test_cli_config_file(tmp_path):
    cfg = {"experiment": "gaussian-lemma", "grid_n": 256,
           "m_values": [100.0], "dims": [1, 2], "box_half_side": 2.0}
    path = tmp_path / "cfg.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    rc = cli_main(["gaussian-lemma", "--config", str(path),
                   "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "gaussian-lemma.csv") as fh:
        assert [float(r["L"]) for r in csv.DictReader(fh)] == [2.0, 2.0]


def test_richardson_grids_warm_start_from_the_coarser_grid(monkeypatch):
    disk = dl.RevolutionManifold.ball(2, 1.0)
    results = []

    def spy(*args, **kwargs):
        results.append(dl.full_spectrum(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(exp, "full_spectrum", spy)
    exp.lambda1_richardson(disk, dl.GaussianRadial(1e4), 0.75, 2048)
    # j = 0 holds the zero mode alone on every grid: nothing to solve or warm-start
    assert [r.paths for r in results] == [{0: "zero", 1: "sturm"},
                                          {0: "zero", 1: "rqi"}, {0: "zero", 1: "rqi"}]
    assert all(p.refused is None for r in results for p in r.modes.values())


def test_cli_scaling_check_passes_with_its_defaults(tmp_path):
    # interval, Gaussian m = 1, alpha 0.5, N = 1024, c in {1e-3, 1, 1e3}
    assert cli_main(["scaling-check", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "scaling-check.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert all(float(r["rel_err"]) <= 1e-12 for r in rows)


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_every_subcommand_passes_at_its_defaults(command, tmp_path, capsys):
    assert cli_main([command, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"{command}: PASS ")


# Each subcommand at a small size, so that a replay of its recorded config is quick.
_SMALL = {
    "solve": ["--grid", "64"],
    "scan-blowup": ["--n", "2", "--m", "10,100", "--grid", "64"],
    "scan-bounded": ["--m", "10,1000", "--grid", "64"],
    "verify-1d": ["--m", "1,10", "--grid", "64"],
    "conformal-check": ["--n", "2", "--m", "1", "--kmax", "3", "--grid", "64"],
    "measure-lemma": ["--instances", "5", "--k", "2"],
    "gaussian-lemma": ["--m", "10,100", "--grid", "64"],
    "weyl-fit": ["--grid", "64"],
    "scaling-check": ["--grid", "64"],
    "converge": ["--grids", "64,128,256"],
}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_recorded_config_reproduces_its_run(command, tmp_path):
    assert set(_SMALL) == set(cli.COMMANDS)
    first, replay = tmp_path / "first", tmp_path / "replay"
    rc = cli_main([command, *_SMALL[command], "--out", str(first), "--format", "json"])
    with open(first / f"{command}.json") as fh:
        ran = json.load(fh)
    (tmp_path / "cfg.json").write_text(json.dumps(ran["metadata"]["config"]))
    assert cli_main([command, "--config", str(tmp_path / "cfg.json"),
                     "--out", str(replay)]) == rc
    with open(replay / f"{command}.json") as fh:
        again = json.load(fh)
    # every report records the version, the config and how long it ran
    for meta in (ran["metadata"], again["metadata"]):
        assert {"tool_version", "config", "elapsed_seconds"} <= set(meta)
        assert meta["tool_version"] == dl.__version__ and meta["elapsed_seconds"] >= 0
    # the timing fields aside, the replay is the run
    assert (again["rows"], again["fits"]) == (ran["rows"], ran["fits"])
    assert again["metadata"]["config"] == {**ran["metadata"]["config"], "out_dir": str(replay)}


def _spectra_of(monkeypatch, run):
    """Every ``SpectrumResult`` that ``run()`` gets from ``full_spectrum``, with its call."""
    results = []

    def spy(*args, **kwargs):
        results.append((dl.full_spectrum(*args, **kwargs), kwargs))
        return results[-1][0]

    monkeypatch.setattr(exp, "full_spectrum", spy)
    return run(), results


def test_conformal_fine_grid_warm_starts_from_the_coarse_grid(monkeypatch):
    # the benchmark's conformal input: each side's N = 1024 spectrum from its N = 512 one
    ball = dl.RevolutionManifold.ball(3, 1.0)
    rho = dl.normalize(dl.GaussianRadial(1.0), ball)
    report, results = _spectra_of(
        monkeypatch, lambda: exp.exp_conformal_identity(ball, rho, k_max=40, grid_n=1024))
    (left_coarse, _), (right_coarse, _), (left, _), (right, _) = results
    assert [kw["start"] for _, kw in results] == [None, None, left_coarse, right_coarse]
    for res in (left, right):
        assert set(res.paths.values()) == {"rqi"}
        assert all(p.refused is None for p in res.modes.values())
    assert f"{report.fits['summary']['max_rel_diff']:.7e}" == "1.5662290e-07"
    assert report.passed


def test_count_tally_of_the_benchmark_inputs(monkeypatch):
    # counts per spectrum, plan (search and clearance) and solve; the totals
    # were 330 (one conformal item) and 322 (one blow-up pass) before the
    # per-pencil memo and the conformal warm start, 199 and 230 before a warm
    # grid kept its start's plan
    ball = dl.RevolutionManifold.ball(3, 1.0)
    rho = dl.normalize(dl.GaussianRadial(1.0), ball)
    _, conformal = _spectra_of(
        monkeypatch, lambda: exp.exp_conformal_identity(ball, rho, k_max=40, grid_n=1024))
    disk = dl.RevolutionManifold.ball(2, 1.0)
    _, blowup = _spectra_of(monkeypatch, lambda: [
        exp.exp_blowup_scan(disk, (0.75,), m_values=(m,), grid_n=2048)
        for m in exp.DEFAULT_M_GRID])
    assert len(conformal) == 4 and len(blowup) == 21
    for spectra, bound in ((conformal, 190), (blowup, 190)):
        tallies = [res.counts_spent for res, _ in spectra]
        assert all(set(t) == {"plan", "solve"} and t["plan"] > 0 for t in tallies)
        assert sum(t["plan"] + t["solve"] for t in tallies) <= bound
    # a warm grid's plan is its start's: modes 0 to 2 counted at the cutoff
    # (1 + 1e-8), modes 0 and 1 at the cutoff (1 - 1e-8)
    warm = [res.counts_spent["plan"] for res, kw in blowup if kw["start"] is not None]
    assert len(warm) == 14 and max(warm) <= 5


def test_dgtsv_tally_of_the_benchmark_inputs(monkeypatch):
    # shifted solves per pass; the totals were 107 (conformal) and 56
    # (blow-up) while RQI stopped once its quotient settled, one solve after
    # each pair had converged
    dgtsv, solves, spectra = eigensolver.dgtsv, [], []

    def spy(*args):
        solves.append(None)
        return dgtsv(*args)

    def spectrum(*args, **kwargs):
        before = len(solves)
        res = dl.full_spectrum(*args, **kwargs)
        spectra.append((res, len(solves) - before))
        return res

    monkeypatch.setattr(eigensolver, "dgtsv", spy)
    monkeypatch.setattr(exp, "full_spectrum", spectrum)
    ball = dl.RevolutionManifold.ball(3, 1.0)
    exp.exp_conformal_identity(ball, dl.normalize(dl.GaussianRadial(1.0), ball),
                               k_max=40, grid_n=1024)
    conformal = spectra[:]
    spectra.clear()
    disk = dl.RevolutionManifold.ball(2, 1.0)
    for m in exp.DEFAULT_M_GRID:
        exp.exp_blowup_scan(disk, (0.75,), m_values=(m,), grid_n=2048)
    assert len(conformal) == 4 and len(spectra) == 21
    assert sum(n for _, n in conformal) <= 82
    assert sum(n for _, n in spectra) <= 38
    # each warm pair of the two N 1024 spectra takes one solve; the zero
    # mode's pair takes none
    for res, n in conformal[2:]:
        assert set(res.paths.values()) == {"rqi"}
        assert n == sum(res.counts) - 1
