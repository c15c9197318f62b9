"""One fresh benchmark process: set up, run one workload once, report.

``run.py`` starts this script once per measurement, so every timed run
begins with a cold interpreter, a cold minimisation cache and (for the
sweep) a cold warm pool, as a CLI user would see them::

    python3 perfbench/client.py --workload NAME --seed N --mode MODE \
        --work DIR --t0 MONOTONIC_SPAWN_TIME

Modes: ``prepare`` generates and caches the inputs (never timed);
``setup`` only sets up; ``run`` sets up and runs the workload once;
``trace`` does the same with outside-in spans around every layer.  The
last line of standard output is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import tracing
from workloads import (
    POOL_WORKLOADS,
    WORKLOADS,
    ContextCapture,
    check_points,
    load_inputs,
    prepare_inputs,
    recover_sweep_contexts,
    run_complete_dc,
    run_serial_flows,
    run_sweep,
    sweep_jobs,
    temporary_checkpoints,
)

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference_seed0.json"
POOL_READY_TIMEOUT_S = 60.0
STAGES = tuple(name.split(":", 1)[1] for name in tracing.STAGE_SPANS.values())


def start_pool(jobs: int):
    """Start the warm pool and wait until every worker has run a task."""
    from repro.perf.pool import get_pool

    pool = get_pool(jobs)
    deadline = time.monotonic() + POOL_READY_TIMEOUT_S
    while len(pool.health) < jobs:
        if time.monotonic() > deadline:
            raise RuntimeError(f"only {len(pool.health)} of {jobs} pool workers became ready")
        pool.map(abs, list(range(2 * jobs)), jobs)
    return pool


def stop_pool() -> None:
    """Shut the pool down, then stop and reap the forkserver and resource
    tracker it started, so no process outlives this client."""
    from multiprocessing import forkserver, resource_tracker

    from repro.perf.pool import shutdown_pool

    shutdown_pool()
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def _peak_rss_bytes(pid: int) -> int:
    """High-water resident set size of a process, from /proc."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return 0


def peak_rss_mb(pool) -> float:
    """Peak RSS of this process and of the largest live pool worker
    (``RUSAGE_CHILDREN`` cannot see workers that are still running)."""
    peaks = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024]
    if pool is not None:
        peaks += [_peak_rss_bytes(pid) for pid in pool.health]
    return max(peaks) / 2**20


def _value(delta: dict, name: str) -> float:
    return delta.get(name, {}).get("value", 0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(workload, delta, points, recorder, wall, jobs, timings) -> dict:
    """The per-layer figures of one run (see README.md for definitions)."""
    stage_seconds = {s: _value(delta, f"pipeline.stage_seconds.{s}") for s in STAGES}
    serial = workload not in POOL_WORKLOADS
    if serial and hasattr(recorder, "self_times"):
        spans = recorder.self_times()
        layer = {s: spans.get(f"stage:{s}", 0.0) for s in STAGES}
        layer["espresso"] += spans.get("espresso", 0.0)
        layer["sat"] = spans.get("sat", 0.0)
        stage_total = sum(recorder.total_time(f"stage:{s}") for s in STAGES)
        workers = 1
    else:
        # Pool workers are out of the wrappers' reach: use their shipped
        # stage counters (CPU-seconds summed over workers).
        layer = dict(stage_seconds)
        stage_total = sum(stage_seconds.values())
        workers = 1 if serial else jobs
    results = [p.result for p in points if p.result is not None]
    contexts = [p.ctx for p in points if p.ctx is not None]
    queries = _value(delta, "sat.queries")
    hits, misses = _value(delta, "cache.hits"), _value(delta, "cache.misses")
    ck_hits = _value(delta, "cache.checkpoint_hits")
    ck_misses = _value(delta, "cache.checkpoint_misses")
    busy = sum(stage_seconds.values())
    capacity = jobs * wall if not serial else wall
    return {
        "core.assign_s": layer.get("assign", 0.0),
        "core.dc_assigned_frac": _ratio(sum(r.fraction_assigned for r in results), len(results)),
        "espresso.s": layer.get("espresso", 0.0),
        "espresso.calls": _value(delta, "espresso.calls"),
        "espresso.iterations": _value(delta, "espresso.iterations"),
        "espresso.cubes_in": _value(delta, "espresso.cubes_in"),
        "espresso.cubes_out": _value(delta, "espresso.cubes_out"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "optimize.s": layer.get("optimize", 0.0),
        "optimize.literals_in": sum(
            sum(c.num_literals for c in ctx.require("covers").covers) for ctx in contexts),
        "optimize.literals_out": sum(r.literals for r in results),
        "optimize.nodes_out": sum(len(ctx.require("network").nodes) for ctx in contexts),
        "flexibility.s": layer.get("complete_dc", 0.0),
        "flexibility.confirm_s": _value(delta, "complete_dc.confirm_seconds"),
        "sat.solve_s": layer.get("sat", _value(delta, "sat.solve_seconds")),
        "sat.queries": queries,
        "sat.confirmations": _value(delta, "sat.confirmations"),
        "sat.refutations": _value(delta, "sat.refutations"),
        "sat.refutation_ratio": _ratio(_value(delta, "sat.refutations"), queries),
        "sat.fallbacks": _value(delta, "sat.fallbacks"),
        "sat.cone_cache_hits": _value(delta, "sat.cone_cache_hits"),
        "map.s": layer.get("map", 0.0),
        "map.gates": sum(r.gates for r in results),
        "tune.s": layer.get("tune", 0.0),
        "measure.s": layer.get("measure", 0.0),
        "sim.words": _value(delta, "sim.words"),
        "sim.cone_nodes": _value(delta, "sim.cone_nodes"),
        "checkpoint.stores": _value(delta, "cache.checkpoint_stores"),
        "checkpoint.hits": ck_hits,
        "checkpoint.hit_ratio": _ratio(ck_hits, ck_hits + ck_misses),
        "checkpoint.bytes": timings.get("checkpoint.bytes", 0),
        "sweep.write_pass_s": timings.get("sweep.write_pass_s", 0.0),
        "sweep.read_pass_s": timings.get("sweep.read_pass_s", 0.0),
        "pool.tasks": _value(delta, "pool.completed_tasks"),
        "pool.chunks": _value(delta, "pool.dispatched_chunks"),
        "pool.busy_ratio": _ratio(busy, capacity) if not serial else 0.0,
        "pool.idle_s": max(0.0, capacity - busy) if not serial else 0.0,
        "flow.overhead_s": wall - stage_total / workers,
    }


def run_once(args, specs, pool, jobs) -> dict:
    """The timed phase of one workload run, then its checks."""
    from repro.obs import metrics as obs_metrics

    work = Path(args.work)
    recorder = tracing.SpanRecorder() if args.mode == "trace" else tracing.NullRecorder()
    capture = ContextCapture()
    checkpoints = None
    timings: dict = {}
    before = obs_metrics.metrics_snapshot()
    if args.mode == "trace":
        recorder.install()
    started = time.perf_counter()
    try:
        with recorder.span("workload"):
            if args.workload == "flow-complete-dc":
                points = run_complete_dc(specs, recorder)
            elif args.workload == "sweep-checkpointed":
                checkpoints = temporary_checkpoints(work)
                points = run_sweep(specs, checkpoints.name, jobs, timings)
            else:
                points = run_serial_flows(specs, "delay", recorder, capture)
        wall = time.perf_counter() - started
    finally:
        if args.mode == "trace":
            recorder.uninstall()
        capture.close()
    after = obs_metrics.metrics_snapshot()
    delta = obs_metrics.diff_snapshots(after, before)
    rss = peak_rss_mb(pool)
    try:
        if checkpoints is not None:
            timings["checkpoint.bytes"] = sum(
                p.stat().st_size for p in Path(checkpoints.name).iterdir())
            recover_sweep_contexts(points, checkpoints.name)
        reference = None
        if args.seed == 0:
            reference = json.loads(REFERENCE.read_text())[args.workload]
        failed, failures = check_points(points, reference)
    finally:
        if checkpoints is not None:
            checkpoints.cleanup()
    metrics = layer_metrics(args.workload, delta, points, recorder, wall, jobs, timings)
    report = {
        "wall_s": wall,
        "peak_rss_mb": rss,
        "attempted": len(points),
        "failed": failed,
        "failures": failures[:20],
        "layers": metrics,
    }
    if args.mode == "trace":
        report["self_times"] = recorder.self_times()
        if args.workload in POOL_WORKLOADS:
            report["stage_times"] = {s: _value(delta, f"pipeline.stage_seconds.{s}") for s in STAGES}
        else:
            report["stage_times"] = {s: recorder.total_time(f"stage:{s}") for s in STAGES}
        recorder.write(work / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("prepare", "setup", "run", "trace"), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--t0", type=float, default=None)
    args = parser.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0

    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401 - the import is part of set-up time

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = Path(args.work)
    if args.mode == "prepare":
        prepare_inputs(args.workload, args.seed, work)
        print(json.dumps({"prepared": args.workload}))
        return 0

    load_started = time.perf_counter()
    specs = load_inputs(args.workload, args.seed, work)
    load_s = time.perf_counter() - load_started
    jobs = sweep_jobs() if args.workload in POOL_WORKLOADS else 1
    pool, pool_start_s = None, 0.0
    if jobs > 1:
        pool_started = time.perf_counter()
        pool = start_pool(jobs)
        pool_start_s = time.perf_counter() - pool_started
    report = {
        "setup_s": time.monotonic() - t0,
        "benchgen.load_s": load_s,
        "pool.start_s": pool_start_s,
    }
    try:
        if args.mode != "setup":
            report.update(run_once(args, specs, pool, jobs))
    finally:
        if pool is not None:
            stop_pool()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
