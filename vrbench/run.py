"""Benchmark entry point.

    python3 vrbench/run.py --workload serve_vr|train_unet|experiment \
        --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` times the workload untraced and
reports the end-to-end metrics; ``--trace 1`` reports the per-layer metrics
of a traced unit of work (see README.md).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every correctness gate held.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import the package from this checkout's sources, never from elsewhere.
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
# One BLAS thread, set before numpy loads: on a small shared machine a second
# thread gains ~12% but doubles the run-to-run spread, and parallelism is
# left for the program to add where a change can show it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

from vrbench import stats, tracing  # noqa: E402  (needs the path above; imports no vrmsi)

SECOND_SEED_OFFSET = 1_000_003


def _program_present() -> bool:
    try:
        import vrmsi
    except ImportError:
        return False
    return Path(vrmsi.__file__).resolve().is_relative_to(ROOT / "src")


def _blas_info() -> tuple[str, str]:
    """BLAS library as numpy's build reports it, and its live thread count."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version')}"
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, str(fn())
    return name, "unknown"


def _os_threads() -> int:
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        for line in packed.read_text().splitlines() if packed.exists() else ():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
        return "unknown"
    return ref


def run_record(args, nproc: int) -> None:
    import numpy as np

    blas, blas_threads = _blas_info()
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"# nproc {nproc}  blas {blas}  blas_threads {blas_threads}")
    print(f"# numpy {np.__version__}  python {platform.python_version()}  commit {_git_commit()}")


# ---------------------------------------------------------------------------
# Timed (untraced) run
# ---------------------------------------------------------------------------


def _run_ops(workload, state, log, deadline, min_ops, tracer=None, between=None):
    """Closed loop: run operations until the deadline (and at least
    ``min_ops``), calling ``between`` after each.  Returns the latency
    samples, slice count and busy seconds of the operations that returned."""
    samples = []
    slices = 0
    busy = 0.0
    done = 0
    while done < min_ops or time.perf_counter() < deadline:
        i = log.attempted
        if tracer is not None:
            with tracer.new_request("op"):
                _, outcome = log.run(workload.op, state, i)
        else:
            _, outcome = log.run(workload.op, state, i)
        done += 1
        if outcome is None:
            continue
        try:
            log.check(i, workload.check(state, i, outcome))
        except Exception as exc:  # a gate that cannot run is a failed gate
            log.fail(i, f"gate raised {exc!r}")
        samples.extend(outcome.get("steps") or [log.latencies[i]])
        slices += outcome["slices"]
        busy += log.latencies[i]
        if between is not None:
            between()
    return samples, slices, busy


def timed_run(workload, seed: int, seconds: float, log) -> dict:
    setup_times = []

    def time_setups(count):
        state = None
        for _ in range(count):
            state = None
            start = time.perf_counter()
            state = workload.setup(seed)
            setup_times.append(time.perf_counter() - start)
        return state

    state = time_setups(workload.setups)
    for i in range(workload.warmup_ops):
        workload.op(state, -1 - i)

    # A set-up of a millisecond varies with the moment it runs, so cheap
    # set-ups are also sampled between operations, across the whole run.
    between = (lambda: time_setups(workload.setups_between_ops)) if workload.setups_between_ops else None
    start = time.perf_counter()
    samples, slices, busy = _run_ops(workload, state, log, start + seconds, workload.min_ops, between=between)
    workload.close(state)
    if not samples:
        return {}

    pct, tail = stats.tail_or_max(samples)
    n = len(samples)
    beyond = sum(1 for v in samples if v > tail)
    names = workload.aliases
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "slices_per_s": (slices / busy, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(samples), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"# samples: p50 over n={n}; tail p{pct:.1f} over n={n} with {beyond} beyond"
          + ("" if pct < 100 else " (20 samples or fewer: the tail is the maximum)"))
    if n <= 40:
        print(f"# samples (ms): {[round(1e3 * v, 1) for v in samples]}")
    print(f"# setup_s: median of {len(setup_times)} set-ups, from {min(setup_times):.4g} to {max(setup_times):.4g} s")
    print(f"# {workload.name}: {names[0]} = {metrics['slices_per_s'][0]:.4f} 1/s")
    print(f"# {workload.name}: {names[1]} = {metrics['latency_p50_ms'][0]:.3f} ms")
    print(f"# {workload.name}: {names[2]} = {metrics['latency_tail_ms'][0]:.3f} ms (p{pct:.1f}, n={n})")
    if workload.name == "experiment":
        print(f"# experiment: run_all_s = {metrics['latency_p50_ms'][0] / 1e3:.4f} s (median cold run)")
    print(f"# error_rate = {log.error_rate:.4f} ({log.failed}/{log.attempted})")
    return metrics


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def traced_unit(cls, seed: int, log, work_dir: Path):
    """One traced set-up plus ``traced_ops`` operations.  Warm-up operations
    run traced too, under their own request kind, which the metrics leave out."""
    tracer = tracing.Tracer()
    workload = cls(tracer, work_dir)
    with tracing.instrument(tracer, tracing.vrmsi_probes()):
        with tracer.new_request("setup"):
            state = workload.setup(seed)
        for i in range(workload.warmup_ops):
            with tracer.new_request("warmup"):
                workload.op(state, -1 - i)
        first = log.attempted
        _run_ops(workload, state, log, 0.0, workload.traced_ops, tracer)
    workload.close(state)
    latencies = log.latencies[first:]
    return tracer, latencies


def traced_run(cls, seed: int, seconds: float, log, work_dir: Path) -> tuple[dict, list]:
    # Untraced baseline for the tracing overhead.
    workload = cls(None, work_dir)
    state = workload.setup(seed)
    for i in range(workload.warmup_ops):
        workload.op(state, -1 - i)
    first = log.attempted
    start = time.perf_counter()
    _run_ops(workload, state, log, start + seconds / 2, workload.traced_ops)
    untraced = log.latencies[first:]
    workload.close(state)
    del state

    tracer, traced = traced_unit(cls, seed, log, work_dir)
    tracer2, _ = traced_unit(cls, seed + SECOND_SEED_OFFSET, log, work_dir)

    problems = []
    per_op = tracing.per_op_computed(tracer) + tracing.per_op_computed(tracer2)
    if any(counts != per_op[0] for counts in per_op):
        problems.append(f"computed counts differ between operations: {per_op}")
    metrics = tracing.layer_metrics(tracer)
    metrics2 = tracing.layer_metrics(tracer2)
    for name, (value, unit) in metrics.items():
        if unit in ("count", "flop", "B") and metrics2[name][0] != value:
            problems.append(f"{name} is {value} on seed {seed} but {metrics2[name][0]} on the second seed")

    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_ms"] = (1e3 * overhead, "ms")
    print(f"# tracing overhead: median op {1e3 * statistics.median(traced):.3f} ms traced "
          f"(n={len(traced)}) vs {1e3 * statistics.median(untraced):.3f} ms untraced (n={len(untraced)})")
    print(f"# second seed {seed + SECOND_SEED_OFFSET}: gates and computed counts checked")

    path = work_dir.parent / f"trace-{cls.name}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, **tracing.dump(tracer, metrics)}, fh)
    print(f"# spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    print("# self time: " + "  ".join(
        f"{layer} {metrics[layer + '.self_s'][0]:.4f} s" for layer in tracing.LAYERS))
    return metrics, problems


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    from vrbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    run_record(args, nproc)
    work_dir = ROOT / ".vrbench_out" / f"work-{os.getpid()}"
    cls = WORKLOADS[args.workload]
    log = stats.OpLog()
    problems = []
    try:
        if args.trace:
            metrics, problems = traced_run(cls, args.seed, args.seconds, log, work_dir)
        else:
            metrics = timed_run(cls(None, work_dir), args.seed, args.seconds, log)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    threads = _os_threads()
    print(f"# os threads in this process: {threads} (nproc {nproc})")
    if threads > nproc:
        problems.append(f"{threads} threads exceed nproc {nproc}")
    for err in log.errors[:5] + problems:
        print(f"# GATE FAILED: {err}", file=sys.stderr)
    correct = bool(metrics) and log.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if not _program_present():
        print(f"vrbench: the vrmsi sources are missing under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
