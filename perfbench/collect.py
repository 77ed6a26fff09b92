"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/collect.py [--seeds 10] [--workloads NAME ...] [--traced]
                                 [--out FILE]

Runs ``BENCHMARK.json``'s command once per workload and seed (seed-major, so
slow drift of the machine spreads over every workload), then prints, per
end-to-end metric, the median, the quartiles as ``statistics.quantiles(n=4)``
gives them, and the interquartile range as a share of the median next to the
metric's bound.  ``--traced`` adds one ``--trace 1`` run per workload (seed
0) for the per-layer figures.  ``--out`` writes everything as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), None)
    return json.loads(lines[-1]), machine


def summarise(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "within_third_of_bound": spread < bound / 3, "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    runs = {name: [] for name in names}
    threads = {}
    for seed in range(args.seeds):
        for name in names:
            result, machine = run_once(spec, name, seed, 0)
            # the BLAS thread count is set per workload; the rest is the machine's
            threads[name] = machine.pop("openblas_threads")
            runs[name].append(result)
            values = ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed; {values}", flush=True)

    machine.pop("seed")  # the seeds are 0 .. seeds - 1, listed below
    report = {"machine": machine, "seeds": list(range(args.seeds)),
              "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        entry = {"openblas_threads": threads[name],
                 "attempted": sum(r["attempted"] for r in runs[name]),
                 "failed": sum(r["failed"] for r in runs[name]),
                 "end_to_end": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs[name]]
            s = summarise(values, metric["bound"])
            entry["end_to_end"][metric["name"]] = dict(s, unit=metric["unit"])
            print(f"{name:22s} {metric['name']:12s} median {s['median']:.5g} "
                  f"{metric['unit']:4s} IQR/median {s['spread']:.4f} "
                  f"(bound {metric['bound']}, third {metric['bound'] / 3:.4f})"
                  f"{'' if s['within_third_of_bound'] else '  <-- too wide'}")
        if args.traced:
            result, _ = run_once(spec, name, 0, 1)
            entry["per_layer_seed0"] = {k: v["value"] for k, v in result["metrics"].items()}
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
