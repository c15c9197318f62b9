"""Flow benchmark for the ``repro`` synthesis flow: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload flow-optimize --seed 0 --seconds 20 --trace 0

Before anything is timed it generates the workload's inputs for the seed
and caches them under ``.perfbench_work/``.  It then starts one fresh
client process per measurement (``client.py``) for ``--seconds``: each
sets up (interpreter start, ``repro`` import, input load and, for the
sweep, warm-pool start) and runs the workload once, closed loop.  A few
extra set-up-only clients give ``setup_s`` more samples.

``--trace 0`` prints the end-to-end metrics (medians over the clients);
``--trace 1`` alternates untraced and traced clients and prints the
per-layer metrics from the traced ones, plus ``trace.overhead_frac``.
Every flow point is checked (see ``checker.py`` and the seed-0 reference),
and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``README.md`` for the workloads, the metrics and their definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
CLIENT_TIMEOUT_S = 150.0
MAX_TMPDIR_CHARS = 60
"""Longest work-area temp path used as TMPDIR: the pool's forkserver puts
a Unix socket under it, and socket paths are limited to 107 bytes."""

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}

LAYER_UNITS = {
    "benchgen.load_s": "s",
    "core.assign_s": "s",
    "core.dc_assigned_frac": "ratio",
    "espresso.s": "s",
    "espresso.calls": "count",
    "espresso.iterations": "count",
    "espresso.cubes_in": "count",
    "espresso.cubes_out": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "optimize.s": "s",
    "optimize.literals_in": "count",
    "optimize.literals_out": "count",
    "optimize.nodes_out": "count",
    "flexibility.s": "s",
    "flexibility.confirm_s": "s",
    "sat.solve_s": "s",
    "sat.queries": "count",
    "sat.confirmations": "count",
    "sat.refutations": "count",
    "sat.refutation_ratio": "ratio",
    "sat.fallbacks": "count",
    "sat.cone_cache_hits": "count",
    "map.s": "s",
    "map.gates": "count",
    "tune.s": "s",
    "measure.s": "s",
    "sim.words": "count",
    "sim.cone_nodes": "count",
    "checkpoint.stores": "count",
    "checkpoint.hits": "count",
    "checkpoint.hit_ratio": "ratio",
    "checkpoint.bytes": "bytes",
    "sweep.write_pass_s": "s",
    "sweep.read_pass_s": "s",
    "pool.start_s": "s",
    "pool.tasks": "count",
    "pool.chunks": "count",
    "pool.busy_ratio": "ratio",
    "pool.idle_s": "s",
    "flow.overhead_s": "s",
    "flow.failed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def client(workload: str, seed: int, mode: str) -> dict:
    """Run one fresh client process and return its report."""
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(WORK / "benchgen")
    env["REPRO_LEDGER_DISABLE"] = "1"
    env.pop("REPRO_POOL_DISABLE", None)
    tmp = WORK / "tmp"
    if len(str(tmp)) <= MAX_TMPDIR_CHARS:
        # Keep multiprocessing's socket directories inside the checkout.
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(tmp)
    command = [sys.executable, str(HERE / "client.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode, "--work", str(WORK)]
    spawned = time.monotonic()
    try:
        done = subprocess.run(command + ["--t0", repr(spawned)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CLIENT_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} client for {workload} timed out") from exc
    if done.returncode != 0:
        raise BenchmarkError(
            f"{mode} client for {workload} exited {done.returncode}:\n{done.stderr[-4000:]}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{mode} client for {workload} printed nothing")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list, list]:
    """Closed-loop clients until *seconds* are used: a new client starts
    only while the last one's duration still fits, and at least one (with
    ``trace``, one untraced and one traced) always runs."""
    runs, traced, setups = [], [], []
    modes = ("run", "trace") if trace else ("run",)
    started = time.monotonic()
    while True:
        for mode in modes:
            began = time.monotonic()
            report = client(workload, seed, mode)
            last = time.monotonic() - began
            (traced if mode == "trace" else runs).append(report)
            setups.append(report["setup_s"])
        if time.monotonic() - started + last * len(modes) > seconds:
            break
    for _ in range(SETUP_PROBES):
        setups.append(client(workload, seed, "setup")["setup_s"])
    return runs, traced, setups


def quartiles(values: list) -> list:
    """First quartile, median and third quartile (all equal for one value)."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def exact_repeats(reports: list) -> dict[str, bool]:
    """Per count metric: did every run read exactly the same value?"""
    exact = {}
    for name, unit in LAYER_UNITS.items():
        if unit in ("count", "bytes") and name in reports[0]["layers"]:
            exact[name] = len({r["layers"][name] for r in reports}) == 1
    return exact


def summarise(runs, traced, setups, trace: bool) -> tuple[dict, dict]:
    """The printed metrics, plus diagnostics for the lines before them."""
    all_runs = runs + traced
    attempted = sum(r["attempted"] for r in all_runs)
    failed = sum(r["failed"] for r in all_runs)
    if not trace:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS
        walls = [r["wall_s"] for r in runs]
        extra = {"runs": len(runs), "wall_s_each": walls, "setup_s_each": setups,
                 "wall_s_quartiles": quartiles(walls), "setup_s_quartiles": quartiles(setups)}
    else:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in LAYER_UNITS if name in traced[0]["layers"]}
        values["benchgen.load_s"] = statistics.median(r["benchgen.load_s"] for r in all_runs)
        values["pool.start_s"] = statistics.median(r["pool.start_s"] for r in all_runs)
        values["flow.failed_frac"] = failed / attempted
        untraced_wall = statistics.median(r["wall_s"] for r in runs)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        units = LAYER_UNITS
        self_times = traced[0]["self_times"]
        stage_times = traced[0]["stage_times"]
        extra = {
            "stage_share": {name: seconds / sum(stage_times.values())
                            for name, seconds in stage_times.items() if seconds},
            "repeat_exact": exact_repeats(all_runs),
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "self_time_s": self_times,
            "self_time_sum_s": sum(self_times.values()),
            # Equals trace.overhead_frac when one traced client ran: the
            # self times account for the untraced wall plus tracing cost.
            "self_time_over_untraced_wall": sum(self_times.values()) / untraced_wall - 1.0,
        }
    extra["failures"] = [f for r in all_runs for f in r["failures"]]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        client(args.workload, args.seed, "prepare")
        runs, traced, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result, extra = summarise(runs, traced, setups, bool(args.trace))
    for failure in extra.pop("failures"):
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **extra}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
