"""quiverstair benchmark: seeded planted workloads in a closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload chain-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

One caller runs one op at a time in this process; the next op starts when the
previous one returns.  BLAS is pinned to one thread before numpy loads.  The
package is imported from ``src/`` of the checkout this file sits in, never
from an installed copy.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs a short untraced loop, then wraps the package's layers
(see ``tracing.py``) and reports per-layer metrics per solve, the tracing
overhead, and self-checks; the spans go to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it are
a human-readable table and the run metadata.  ``--workload all`` runs every
workload in its own process and prints one table.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile leaves this many samples above it
MIN_OPS = 20
CHILD_TIMEOUT_S = 175


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def closed_loop(wl, pool, workdir, seconds, min_ops, tracer=None):
    """Run ops round-robin over ``pool`` until ``seconds`` pass and ``min_ops`` are done."""
    times, outcomes = [], []
    deadline = time.perf_counter() + seconds
    while len(times) < min_ops or time.perf_counter() < deadline:
        i = len(times)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        out = wl.run_op(pool[i % len(pool)], workdir)
        times.append(time.perf_counter() - t0)
        outcomes.append(out)
    return times, outcomes


def tail(times):
    """Highest order statistic with ``TAIL_BEYOND`` samples above it: (value, percentile)."""
    ranked = sorted(times)
    k = max(len(ranked) - TAIL_BEYOND, 1)
    return ranked[k - 1], 100.0 * k / len(ranked)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "quiverstair").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(args, np, pool, outcomes):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "load_model": "closed loop, 1 caller, 1 op in flight",
        "instances": {
            "pool": len(pool),
            "t": pool[0].truth.shape.t,
            "max_dim": max(max(i.dims) for i in pool),
            "entries_per_instance": statistics.mean(i.entries for i in pool),
            "pool_entries": sum(i.entries for i in pool),
            "file_bytes_per_op": statistics.mean(o.file_bytes for o in outcomes),
        },
    }


def setup(wl, seed, workdir):
    """Build the instance pool and warm up on its first instance; returns (pool, seconds)."""
    t0 = time.perf_counter()
    pool = wl.make_pool(seed)
    wl.run_op(pool[0], workdir)
    return pool, time.perf_counter() - t0


def measure(wl, args, workdir):
    """The untraced run: end-to-end metrics."""
    runs = [setup(wl, args.seed, workdir) for _ in range(SETUP_REPEATS)]
    pool = runs[-1][0]
    times, outcomes = closed_loop(wl, pool, workdir, args.seconds, max(MIN_OPS, len(pool)))
    failed = sum(not o.ok for o in outcomes)
    entries = sum(pool[i % len(pool)].entries for i in range(len(times)))
    tail_s, pct = tail(times)
    metrics = {
        "solve_p50_s": (statistics.median(times), "s"),
        "solve_tail_s": (tail_s, "s"),
        "throughput_entries_per_s": (entries / sum(times), "entries/s"),
        "ok_ratio": ((len(times) - failed) / len(times), "ratio"),
        "setup_s": (statistics.median(t for _, t in runs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"solve_tail_s is p{pct:.1f} of {len(times)} samples ({TAIL_BEYOND} beyond it)",
        f"fail_ratio {failed / len(times)} ({failed} of {len(times)} ops failed)",
    ]
    return pool, outcomes, metrics, notes, []


def measure_traced(wl, args, workdir):
    """The traced run: per-layer metrics, tracing overhead and self-checks."""
    import tracing

    tracer = tracing.Tracer()
    undo, sites = tracing.install(tracer)
    tracer.op = tracing.SETUP
    try:
        pool = wl.make_pool(args.seed)
    finally:
        undo()
        tracer.op = tracing.IDLE
    wl.run_op(pool[0], workdir)
    plain_times, plain = closed_loop(wl, pool, workdir, args.seconds / 3, len(pool))
    undo, sites = tracing.install(tracer)
    try:
        times, traced = closed_loop(wl, pool, workdir, args.seconds * 2 / 3, len(pool), tracer)
    finally:
        undo()
        tracer.op = tracing.IDLE

    summary = tracing.Summary(tracer, len(times), len(pool))
    metrics = tracing.layer_metrics(summary)
    overhead = statistics.median(times) / statistics.median(plain_times)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    problems = [f"{span} was not rebound anywhere" for span, n in sites.items() if not n]
    problems += [f"{span} recorded no call in the first pass" for span in wl.expected_spans
                 if summary.calls(span) == 0]
    problems += [f"op {i}: traced labels differ from untraced ones" for i, o in enumerate(traced)
                 if o.labels != plain[i % len(pool)].labels]
    if tracer.op_id.count(tracing.IDLE):
        problems.append("spans were recorded outside setup and ops")
    tracer.save(OUT / f"spans-{args.workload}.npz")

    notes = [
        f"traced solve_p50_s {statistics.median(times)} s over {len(times)} ops, "
        f"untraced {statistics.median(plain_times)} s over {len(plain_times)} ops",
        f"{len(tracer.start)} spans written to {OUT.name}/spans-{args.workload}.npz",
        "exact counts: " + ", ".join(f"{k}={metrics[k][0]!r}" for k in tracing.EXACT),
    ] + [f"self-check FAILED: {p}" for p in problems]
    return pool, plain + traced, metrics, notes, problems


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np
    import quiverstair

    if Path(quiverstair.__file__).resolve().parent != (SRC / "quiverstair").resolve():
        sys.stderr.write(f"quiverstair was imported from {quiverstair.__file__}, not {SRC}\n")
        return 2
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        sys.stderr.write(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        run = measure_traced if args.trace else measure
        pool, outcomes, metrics, notes, problems = run(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(not o.ok for o in outcomes)

    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:<14.6g} {unit}")
    for line in notes:
        print("  " + line)
    meta = metadata(args, np, pool, outcomes)
    print(json.dumps({"meta": meta}))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process; one table of every metric."""
    sys.path.insert(0, str(SRC))
    import workloads

    rows, status, summary = [], 0, {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            sys.stderr.write(f"{name}: exit code {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        summary[name] = result
        status |= not result["correct"]
        for metric, m in result["metrics"].items():
            rows.append(f"{name:12s} {metric:40s} {m['value']:<14.6g} {m['unit']}")
        rows.append(f"{name:12s} {'attempted / failed':40s} {result['attempted']} / {result['failed']}")
    print("\n".join(rows))
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "quiverstair" / "__init__.py").is_file():
        sys.stderr.write(f"no package source at {SRC}/quiverstair; run from a quiverstair checkout\n")
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
