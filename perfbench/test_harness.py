"""Fast self-test of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

Runs every workload once at a tiny size through the command line, in both
trace modes, and checks that every metric ``BENCHMARK.json`` names is printed
with its unit.  Then forces correctness checks to fail and checks that each
failure is counted against the items attempted.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_cli(root, *args):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_cli(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "item_p90_s" in proc.stdout
    assert "failed_ratio" in proc.stdout and "machine {" in proc.stdout


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(tmp_path, "--workload", WORKLOADS[0], "--seed", "0",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(HERE))
    import run
    run.import_package()
    import workloads
    return run, workloads


def test_failed_check_counts_against_attempted(harness, monkeypatch):
    run, workloads = harness
    from densilab import measures
    workload = workloads.build("minmax_bounds", 3, tiny=True)
    assert run.run_passes(workload, 0)["failed"] == 0
    monkeypatch.setattr(measures, "brute_force_verify", lambda *args: False)
    phase = run.run_passes(workload, 0)
    assert (phase["failed"], phase["attempted"]) == (1, len(workload.items))


def test_raising_item_counts_as_failed(harness, monkeypatch):
    run, workloads = harness
    from densilab import spectrum
    workload = workloads.build("minmax_bounds", 3, tiny=True)

    def broken(*args, **kwargs):
        raise ValueError("forced")

    monkeypatch.setattr(spectrum, "holder_chain_check", broken)
    phase = run.run_passes(workload, 0)
    assert (phase["failed"], phase["attempted"]) == (2, len(workload.items))


def test_failed_pass_check_fails_every_item_of_the_pass(harness, monkeypatch):
    run, workloads = harness
    from densilab import experiments
    original = experiments.exp_blowup_scan

    def flat(*args, **kwargs):
        report = original(*args, **kwargs)
        report.rows[0]["lambda1_normalized"] = 1.0  # slope 0, below the floor
        return report

    monkeypatch.setattr(experiments, "exp_blowup_scan", flat)
    workload = workloads.build("scan_blowup_disk", 3, tiny=True)
    phase = run.run_passes(workload, 0)
    assert phase["failed"] == phase["attempted"] == len(workload.items)
    assert any("slope" in p for p in phase["problems"])
