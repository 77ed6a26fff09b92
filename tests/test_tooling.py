"""The demos, the benchmark tracer, README's command lines and
``python -m densilab`` still work.

The demos and the tracer live outside ``tests/`` and use the package's
public names; running them here makes a renamed or deleted name fail the
suite instead of only the demo or the traced benchmark run.  The README
command lines are parsed against the subcommands' declared flags.  The
entry point runs as its own process, so its exit code and stderr are what
a shell sees.
"""

import dataclasses
import importlib
import importlib.util
import json
import os
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

import densilab as dl
from densilab import cli, experiments, spectrum

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_present():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_tracer_patches_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    spans = importlib.import_module("perfbench.spans")
    solve = spectrum.solve_generalized
    disk = dl.RevolutionManifold.ball(2, 1.0)
    with spans.Tracer() as tracer:
        res = experiments.full_spectrum(disk, dl.Constant(1.0), 0.0, 3,
                                        grid=dl.RadialGrid.uniform(disk, 64))
    assert spectrum.solve_generalized is solve
    top = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in top] == ["full_spectrum"]
    # one eigensolver span per mode solved, so calls and mode_yield count solves
    solved = 1 + max(row[2] for row in res.slot_entries())
    assert solved >= 2
    assert sum(s.layer == "eigensolver" for s in tracer.spans) == solved
    assert top[0].info["modes_swept"] == top[0].info["modes_used"] == solved
    # the mode family is assembled once: one assembly, rho and rho^alpha once each
    assert sum(s.layer == "assembly" for s in tracer.spans) == 1
    assert sum(s.layer == "density" for s in tracer.spans) == 2


def _perfbench_module(name):
    """A module of ``perfbench/``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_and_see_the_minmax_layers():
    # ``run.py --trace 1`` looks up every target, so a moved helper breaks it
    spans = _perfbench_module("spans")
    workloads = _perfbench_module("workloads")
    for layer, owner, attr, _ in spans.TARGETS:
        assert callable(getattr(owner, attr, None)), (layer, owner.__name__, attr)
    work = workloads.build("minmax_bounds", 3, tiny=True)
    with spans.Tracer() as tracer:
        problems = [item.check(item.call()) for item in work.items]
    assert problems == [None] * len(work.items)
    layers = {s.layer for s in tracer.spans}
    assert {"density", "quadrature", "spectrum", "measures"} <= layers
    # the quotients and the Hoelder chain read element forms: no bands assembled
    assert "assembly" not in layers


@pytest.mark.parametrize("name", list(_perfbench_module("workloads").WORKLOADS))
def test_benchmark_workloads_pass_at_tiny_size(name):
    # every name a workload calls must exist and every gate of it must hold
    work = _perfbench_module("workloads").build(name, 3, tiny=True)
    results = [item.call() for item in work.items]
    assert [item.check(r) for item, r in zip(work.items, results)] == [None] * len(results)
    assert work.check_pass(results) is None


def test_readme_command_lines_parse():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line)[1:] for line in block.splitlines()
             if line.startswith("densilab ")]
    assert {argv[0] for argv in lines} == set(cli.COMMANDS)
    parser = cli.build_parser()
    for argv in lines:
        args = parser.parse_args(argv)
        assert cli._config(args).experiment == argv[0]


def test_scan_csv_header_is_the_readme_schema(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("Scan CSV columns are fixed:", 1)[1].split("```", 2)[1]
    schema = "".join(block.split())
    for argv in (["verify-1d", "--m", "1,10"], ["scan-blowup", "--n", "2", "--m", "10,100"],
                 ["scan-bounded", "--m", "10,1000"]):
        cli.main([*argv, "--grid", "64", "--out", str(tmp_path)])
        with open(tmp_path / f"{argv[0]}.csv") as fh:
            assert fh.readline().rstrip("\r\n") == schema


def test_every_config_field_has_a_flag():
    # a field no flag sets can be changed only through a --config file, and a
    # flag that sets no field would be a side channel the config cannot record
    fields = {f.name for f in dataclasses.fields(experiments.ExperimentConfig)}
    assert fields == cli.FIELDS | {"experiment"}
    assert [flag for flag, (field, _) in cli.FLAGS.items() if field is None] == ["--config"]
    assert len(cli.FIELDS) == len(cli.FLAGS) - 1  # one flag per field


def test_entry_point_reports_usage_errors():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "densilab", "solve", "--grid", "1000"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_entry_point_reports_a_refused_solve():
    # the solver refuses a pencil out of floating range; the entry point says
    # so in one line and exits 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "densilab", "solve", "--n", "2",
                           "--alpha", "1e300", "--exploratory", "--grid", "64"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("densilab: error: the cutoff search")
    assert "floating range" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_failing_property_reports_its_example(tmp_path):
    # a failing @given test imports hypothesis's patch writer, which warns;
    # under the suite's filterwarnings = ["error"] the conftest must keep
    # that from ending the session before the example is printed
    (tmp_path / "conftest.py").write_text((ROOT / "tests" / "conftest.py").read_text())
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 5\n\n\n"
        "def test_after():\n"
        "    pass\n")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                           "test_fails.py"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 1
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


# Each snippet runs in a fresh process after ``import densilab``, leaving its
# result in ``out``; the process prints whether scipy.linalg and
# scipy.interpolate got loaded.
_PCHIP_SNIPPETS = {
    "import": "out = None",
    "help": ("import runpy\nsys.argv = ['densilab', '--help']\n"
             "try:\n    runpy.run_module('densilab', run_name='__main__')\n"
             "except SystemExit:\n    pass\nout = None"),
    "Tabulated": "out = dl.Tabulated([0.0, 0.4, 1.0], [3.0, 2.0, 0.5])(X).tolist()",
    "tabulated": ("r = [i / 256 for i in range(257)]\n"
                  "out = dl.RevolutionManifold.tabulated(2, r, np.sin(r)).profile(X).tolist()"),
    "conformal": ("ball = dl.RevolutionManifold.ball(3, 1.0)\n"
                  "rho = dl.normalize(dl.GaussianRadial(1.0), ball)\n"
                  "t = dl.conformal_reparametrize(ball, rho, dl.RadialGrid.uniform(ball, 64))\n"
                  "out = [t.R] + t.profile([0.1 * t.R, 0.5 * t.R, t.R]).tolist()"),
}


def test_pchip_loads_only_where_it_runs():
    # scipy.linalg and scipy.interpolate take long to import: densilab loads
    # LAPACK's extension alone and interpolates PCHIP in numpy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    procs = {name: subprocess.Popen(
        [sys.executable, "-c", "import json, sys\nimport numpy as np\nimport densilab as dl\n"
         "X = [0.1, 0.3, 0.7]\n"
         + code + "\nprint(json.dumps([[m in sys.modules for m in ('scipy.linalg', "
         "'scipy.interpolate')], out]))"],
        stdout=subprocess.PIPE, text=True, env=env) for name, code in _PCHIP_SNIPPETS.items()}
    outputs = {name: (proc.communicate(timeout=120)[0], proc.returncode)
               for name, proc in procs.items()}
    assert {name: code for name, (_, code) in outputs.items()} == dict.fromkeys(procs, 0)
    results = {name: json.loads(out.splitlines()[-1]) for name, (out, _) in outputs.items()}
    assert {name: loaded for name, (loaded, _) in results.items()} == dict.fromkeys(
        procs, [False, False])
    x = [0.1, 0.3, 0.7]
    tabulated = PchipInterpolator([0.0, 0.4, 1.0], [3.0, 2.0, 0.5])
    assert results["Tabulated"][1] == tabulated(x).tolist()
    r = np.linspace(0.0, 1.0, 257)
    assert results["tabulated"][1] == PchipInterpolator(r, np.sin(r))(x).tolist()
    # the values conformal_reparametrize gave with scipy.interpolate imported up front
    assert np.allclose(results["conformal"][1], [1.0854768830350856, 0.10835254987188957,
                                                 0.5176742022728285, 0.8649934332151431],
                       rtol=1e-15, atol=0.0)
