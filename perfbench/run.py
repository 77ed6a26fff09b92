"""densilab benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  The benchmark runs
whole passes of the workload (see ``workloads.py``) until ``--seconds`` have
passed, checks every result, and prints one line per metric, a machine
block, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (median
over fresh processes, from process start until the first item is ready),
``wall_s`` (mean time of one pass), ``items_per_s``, ``item_p50_s`` and
``peak_rss_mb``.  ``item_p90_s`` and ``failed_ratio`` are printed above the
JSON line; ``item_p90_s`` only with at least ten samples beyond it.

With ``--trace 1`` half the time runs untraced and half with ``spans.Tracer``
on; the metrics are the per-layer ones, per pass of the traced half, plus the
tracing overhead (traced minus untraced ``wall_s``) and the time per pass
that no span covers.  The spans go to ``.perfbench_out/``.

``--size tiny`` shrinks every workload for the harness self-test
(``test_harness.py``); ``--setup-only`` is how the ``setup_s`` probes run.
"""

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 120
MAX_REPORTED_PROBLEMS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# minmax_bounds makes only O(N) vector calls into BLAS: a second OpenBLAS
# thread makes them no faster and their time hostage to the scheduler
SINGLE_THREAD_WORKLOADS = ("minmax_bounds",)


class CheckoutError(RuntimeError):
    """The directory the benchmark runs in holds no densilab sources."""


def pin_threads(workload):
    """At most two BLAS threads, set before numpy loads OpenBLAS."""
    cap = 1 if workload in SINGLE_THREAD_WORKLOADS else 2
    threads = str(min(cap, len(os.sched_getaffinity(0))))
    for var in THREAD_VARS:
        os.environ[var] = threads


def import_package():
    """Import densilab from ``ROOT/src``, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "densilab" / "__init__.py").is_file():
        raise CheckoutError(f"no densilab sources under {src}")
    sys.path.insert(0, str(src))
    import densilab
    if Path(densilab.__file__).resolve().parent != src / "densilab":
        raise CheckoutError(f"densilab imported from {densilab.__file__}, not {src}")
    return densilab


def run_passes(workload, seconds, tracer=None):
    """Whole passes until ``seconds`` have gone by (at least one pass).

    Every item counts as attempted.  An item fails when it raises or its
    check reports a problem; when the pass-level check fails, every item of
    that pass not yet failed fails with it.
    """
    pass_times, latencies, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start < seconds:
        t_pass = time.perf_counter()
        results, ok = [], 0
        for item in workload.items:
            attempted += 1
            if tracer is not None:
                tracer.item += 1
            t_item = time.perf_counter()
            try:
                result = item.call()
                latencies.append(time.perf_counter() - t_item)
                problem = item.check(result)
            except Exception:
                problem = f"{item.label} raised:\n{traceback.format_exc()}"
            else:
                results.append(result)
            if problem is None:
                ok += 1
            else:
                failed += 1
                problems.append(f"{item.label}: {problem}")
        if len(results) == len(workload.items):
            problem = workload.check_pass(results)
            if problem is not None:
                failed += ok
                problems.append(f"pass: {problem}")
        pass_times.append(time.perf_counter() - t_pass)
    return {"pass_times": pass_times, "latencies": latencies,
            "attempted": attempted, "failed": failed, "problems": problems}


def percentile_with_tail(samples, q, tail=10):
    """The q-quantile of ``samples`` if at least ``tail`` samples lie above it."""
    ordered = sorted(samples)
    n = len(ordered)
    index = int(q * n)
    if n - index - 1 < tail:
        return None
    return ordered[index]


def end_to_end(phase, setup_times):
    latencies = phase["latencies"]
    busy = sum(phase["pass_times"])
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        # the mean, not the median: other tenants slow whole stretches of a
        # run, which splits pass times into two clusters the median jumps between
        "wall_s": (statistics.fmean(phase["pass_times"]), "s"),
        "items_per_s": (len(latencies) / busy, "1/s"),
        # with every item raising there is no latency; the pass time stands in
        "item_p50_s": (statistics.median(latencies or phase["pass_times"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def probe_setup(args):
    """Seconds from starting a fresh benchmark process until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        if line.strip() != "ready":
            proc.kill()
        proc.communicate(timeout=SETUP_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed (exit {proc.returncode}): {line!r}")
    return elapsed


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _openblas_threads():
    """Thread count each bundled OpenBLAS reports, by the package that ships it."""
    found = {}
    for pkg in ("numpy", "scipy"):
        libdir = Path(importlib.import_module(pkg).__file__).parent.parent / f"{pkg}.libs"
        for path in sorted(libdir.glob("lib*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[pkg] = fn()
                    break
    return found


def _blas(pkg):
    deps = importlib.import_module(pkg).show_config(mode="dicts")["Build Dependencies"]
    return f"{deps['blas']['name']} {deps['blas']['version']}"


def _git_commit():
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_block(seed):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": {"numpy": _blas("numpy"), "scipy": _blas("scipy")},
        "openblas_threads": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "seed": seed,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: minimal grids, for the harness self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print 'ready' and exit (set-up probe)")
    return p, p.parse_args(argv)


def measure(args, setup_times):
    """Run the workload as ``args`` ask; returns (metrics, phases, tracer)."""
    import spans
    import workloads
    workload = workloads.build(args.workload, args.seed, tiny=args.size == "tiny")
    if not args.trace:
        phase = run_passes(workload, args.seconds)
        return end_to_end(phase, setup_times), [phase], None
    plain = run_passes(workload, args.seconds / 2)
    with spans.Tracer() as tracer:
        traced = run_passes(workload, args.seconds / 2, tracer)
    passes = len(traced["pass_times"])
    metrics = spans.layer_metrics(tracer.spans, passes)
    metrics["trace.overhead_s"] = (statistics.fmean(traced["pass_times"])
                                   - statistics.fmean(plain["pass_times"]), "s")
    metrics["trace.uncovered_s"] = ((sum(traced["pass_times"]) - tracer.covered())
                                    / passes, "s/pass")
    return metrics, [plain, traced], tracer


def main(argv=None):
    parser, args = parse_args(argv)
    pin_threads(args.workload)
    try:
        import_package()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.build(args.workload, args.seed, tiny=args.size == "tiny")
        print("ready", flush=True)
        return 0

    setup_times = [] if args.trace else [probe_setup(args) for _ in range(SETUP_RUNS)]
    metrics, phases, tracer = measure(args, setup_times)
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    problems = [p for phase in phases for p in phase["problems"]]
    for problem in problems[:MAX_REPORTED_PROBLEMS]:
        print(f"check failed: {problem}", file=sys.stderr)

    passes = sum(len(p["pass_times"]) for p in phases)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {passes}  items {attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    if not args.trace:
        latencies = phases[0]["latencies"]
        p90 = percentile_with_tail(latencies, 0.9)
        print(f"  {'item_p90_s':32s} " + (f"{p90:.6g} s (n={len(latencies)})" if p90 is not None
              else f"omitted: n={len(latencies)} leaves fewer than 10 samples above p90"))
        print(f"  {'setup_s runs':32s} " + " ".join(f"{t:.4f}" for t in setup_times))
    print(f"  {'failed_ratio':32s} {failed / attempted:.6g} ({failed} of {attempted})")
    print("machine " + json.dumps(machine_block(args.seed)))
    if tracer is not None:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
