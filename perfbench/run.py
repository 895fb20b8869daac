#!/usr/bin/env python3
"""fgrnn benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-cheb-n128 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

One client runs one operation after another (a closed loop) for about
--seconds seconds; it starts another only while the last one would still
fit. Set-up time is measured apart, in fresh processes. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. perfbench/README.md
describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# one BLAS thread keeps the dense stability products steady on a shared
# machine; set in this process's environment only, before numpy loads
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_TIMEOUT_S = 150


def prepare():
    """Pins BLAS threads and makes this checkout's fgrnn the one imported."""
    if not os.path.isfile(os.path.join(SRC, "fgrnn", "__init__.py")):
        raise SystemExit(f"error: no fgrnn package under {SRC}")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import fgrnn
    if not os.path.abspath(fgrnn.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: fgrnn imported from {fgrnn.__file__}, not {SRC}")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_rev() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()[:12]
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def run_record(seed) -> dict:
    import numpy as np
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg['name']} {cfg.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "git_rev": git_rev(), "seed": seed}


def peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest set-up probe."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def probe_setup(name, seed, size, workdir, repeats):
    """Set-up times of `repeats` fresh processes: from spawn to imports done
    and inputs generated. Returns (times, failures)."""
    times, failures = [], 0
    for i in range(repeats):
        probe_dir = os.path.join(workdir, f"probe-{i}")
        os.makedirs(probe_dir)
        cmd = [sys.executable, os.path.abspath(__file__), "--probe", probe_dir,
               "--workload", name, "--seed", str(seed), "--size", size]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures += 1
            print(f"set-up probe {i} timed out", file=sys.stderr)
            continue
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        # time.perf_counter is CLOCK_MONOTONIC on Linux, shared by processes
        words = proc.stdout.split()
        if proc.returncode == 0 and words[-2:-1] == ["ready"]:
            times.append(float(words[-1]) - t0)
        else:
            failures += 1
            print(f"set-up probe {i} exited {proc.returncode}:\n{proc.stderr}",
                  file=sys.stderr)
    return times, failures


def _safe_op(workload, state, op_dir):
    import workloads
    try:
        return workload.op(state, op_dir)
    except Exception:  # the loop goes on; the failure is counted and shown
        traceback.print_exc()
        return workloads.OpResult(0, math.nan, attempted=1, failed=1,
                                  digest="error", problems=["operation raised"])


def _select(values, entries, zero_ok=()):
    """Metrics named in BENCHMARK.json, with their units. A layer in zero_ok
    that this workload never calls reports 0."""
    out = {}
    for m in entries:
        name = m["name"]
        if name in values:
            value = values[name]
        elif name.rsplit(".", 1)[0] in zero_ok:
            value = 0
        else:
            raise KeyError(f"the benchmark computes no metric {name!r}")
        out[name] = {"value": float(value), "unit": m["unit"]}
    return out


def _layer_values(setup_stats, op_stats, traced_s, untraced_s):
    """Per-layer metrics: the one set-up plus the median traced operation."""
    keys = set(setup_stats).union(*op_stats)
    v = {k: setup_stats.get(k, 0) + statistics.median(s.get(k, 0) for s in op_stats)
         for k in keys}
    lap_calls = v.get("graph.build_laplacians.calls", 0)
    v["graph.build_laplacians.converged_ratio"] = (
        v.get("graph.build_laplacians.converged", 0) / lap_calls if lap_calls else 0)
    transitions = v.get("training.bptt.transitions", 0)
    v["training.transitions"] = transitions
    v["training.spmm_per_transition"] = (
        v.get("training.bptt.spmm_calls", 0) / transitions if transitions else 0)
    v["trace.overhead_s"] = traced_s - untraced_s
    v["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
    return v


class Op(NamedTuple):
    traced: bool
    wall_s: float    # wall time of the operation
    ref_s: float     # mean duration of the reference kernel run before and after it
    res: object      # workloads.OpResult
    stats: dict | None  # raw per-layer stats when traced


def _closed_loop(workload, state, op_dir, seconds, trace):
    """Operations one after another for about `seconds` seconds; when
    tracing, untraced and traced operations alternate. The workload's
    reference kernel runs before the first operation and after each one."""
    from tracer import Tracer, aggregate
    ops = []
    start = time.perf_counter()
    ref_before = workload.reference()
    while True:
        traced = bool(trace) and len(ops) % 2 == 1
        stats = None
        t0 = time.perf_counter()
        if traced:
            tracer = Tracer()
            with tracer.installed(), tracer.root("bench.op"):
                res = _safe_op(workload, state, op_dir)
            wall_s = time.perf_counter() - t0
            stats, _, trace_problems = aggregate(tracer.spans)
            res.attempted += 1
            res.failed += bool(trace_problems)
            res.problems += trace_problems
        else:
            res = _safe_op(workload, state, op_dir)
            wall_s = time.perf_counter() - t0
        ref_after = workload.reference()
        ops.append(Op(traced, wall_s, (ref_before + ref_after) / 2, res, stats))
        ref_before = ref_after
        if (len(ops) >= (2 if trace else 1)
                and time.perf_counter() - start + wall_s > seconds):
            return ops


def run_workload(name, seed, seconds, trace, size="full") -> dict:
    """One invocation: checks, set-up, the closed loop; returns the result."""
    import workloads
    from tracer import Tracer, aggregate, layer_functions

    spec = load_spec()
    workload = workloads.WORKLOADS[name](size)
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        print(f"== {name}: seed {seed}, {seconds:g} s, "
              f"{'traced' if trace else 'untraced'}, size {size}")
        print("record " + json.dumps(run_record(seed)))
        fd_errors, problems = workloads.gradient_checks()
        attempted, failed = len(fd_errors), len(problems)
        print("finite-difference rel. error " + ", ".join(
            f"{k} {v:.3g}" for k, v in fd_errors.items()))

        setup_times = []
        if not trace:
            setup_times, probe_failures = probe_setup(
                name, seed, size, workdir, workload.setup_repeats)
            attempted += workload.setup_repeats
            failed += probe_failures
        setup_dir = os.path.join(workdir, "setup")
        os.makedirs(setup_dir)
        setup_stats = {}
        if trace:
            tracer = Tracer()
            with tracer.installed(), tracer.root("bench.setup"):
                state = workload.setup(seed, setup_dir)
            setup_stats, _, trace_problems = aggregate(tracer.spans)
            problems += trace_problems
            failed += bool(trace_problems)
        else:
            state = workload.setup(seed, setup_dir)
        attempted += 1 + bool(trace)

        op_dir = os.path.join(workdir, "op")
        os.makedirs(op_dir)
        ops = _closed_loop(workload, state, op_dir, seconds, trace)
        for op in ops:
            attempted += op.res.attempted
            failed += op.res.failed
            problems += op.res.problems
        digests = sorted({op.res.digest for op in ops})
        attempted += 1
        if len(digests) != 1:
            failed += 1
            problems.append(f"operations disagree: digests {digests}")

        plain = [op for op in ops if not op.traced]
        untraced_s = statistics.median(op.wall_s for op in plain)
        if trace:
            traced_s = statistics.median(op.wall_s for op in ops if op.traced)
            values = _layer_values(setup_stats, [op.stats for op in ops if op.traced],
                                   traced_s, untraced_s)
            metrics = _select(values, spec["per_layer"], set(layer_functions()))
        else:
            values = {"setup_s": statistics.median(setup_times),
                      "op_ref": statistics.median(op.wall_s / op.ref_s for op in plain),
                      "peak_rss_mb": peak_rss_mb(),
                      "op_s": untraced_s,
                      "ref_s": statistics.median(op.ref_s for op in plain)}
            metrics = _select(values, spec["end_to_end"])

        _report(ops, metrics, values, attempted, failed, digests, problems, trace)
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it


def _report(ops, metrics, values, attempted, failed, digests, problems, trace):
    """Human-readable lines; the JSON result follows them."""
    print(f"operations {len(ops)}: " + ", ".join(
        f"{op.wall_s:.3f} s / ref {op.ref_s:.3f} s{' traced' if op.traced else ''}"
        for op in ops))
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    extras = {}
    if not trace:
        extras = {"op_s": ("s", [values["op_s"]]), "ref_s": ("s", [values["ref_s"]])}
    for op in ops:
        if not op.traced:
            for key, (value, unit) in op.res.extras.items():
                extras.setdefault(key, (unit, []))[1].append(value)
    for key, (unit, vals) in extras.items():
        print(f"detail {key} {statistics.median(vals):.6g} {unit}")
    if trace:
        top = sorted(((k[:-len(".self_s")], v) for k, v in values.items()
                      if k.endswith(".self_s")), key=lambda kv: -kv[1])[:12]
        print("self time, one set-up plus the median traced operation: " + ", ".join(
            f"{k} {v:.3f} s" for k, v in top))
    print(f"ops_failed {failed} of ops_attempted {attempted}")
    print(f"digest {','.join(digests)}")
    for p in problems:
        print(f"problem {p}")


def run_all(args) -> int:
    """Every workload, each in its own fresh process, then a summary."""
    import workloads
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        last = ""
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            for line in proc.stdout:
                if last:
                    sys.stdout.write(last)
                last = line
        if proc.returncode != 0:
            print(f"{name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(last)
    print("== summary")
    for name, res in results.items():
        print(f"{name}: correct {res['correct']}, failed {res['failed']} of "
              f"{res['attempted']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    prepare()
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy sizes are for the benchmark's own tests")
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        workloads.WORKLOADS[args.workload](args.size).setup(args.seed, args.probe)
        print("ready", repr(time.perf_counter()))
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
