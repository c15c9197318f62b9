"""The four benchmark workloads: their inputs, timed bodies and checks.

Each workload is one closed-loop client: it runs its flows one after
another (the sweep hands its points to the warm pool and waits), through
the library entry points the CLI wraps: ``run_flow``, ``Pipeline.run``
and ``fraction_sweep``.

Inputs come from ``--seed``.  Seed 0 is the Table-1 stand-ins as shipped
(loaded through ``repro.benchgen``'s on-disk cache) and the three seeded
8-input ``nodal0..2`` specs; any other seed regenerates functions of the
same shape with ``generate_spec`` from each Table-1 row's parameters,
with the row seed shifted by ``SEED_STRIDE * seed``.  The program only
ever receives the generated specs.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from checker import check_point

SEED_STRIDE = 1000
THRESHOLD = 0.55
FRACTIONS = tuple(i / 10 for i in range(11))
NODAL = tuple(f"nodal{i}" for i in range(3))
COMPLETE_DC_STAGES = ("assign", "espresso", "optimize", "complete_dc", "map", "tune", "measure")
STUCK_AT = 0

WORKLOADS = {
    "flow-optimize": ("ex1010", "test4"),
    "flow-espresso": ("random2", "random3", "t4", "exam"),
    "sweep-checkpointed": ("bench", "fout", "exam", "exp", "p1", "p3"),
    "flow-complete-dc": ("fout", "bench", "exam") + NODAL,
}
"""Workload name -> the specs it runs, in order."""

POOL_WORKLOADS = {"sweep-checkpointed"}


def sweep_jobs() -> int:
    """Pool size of the sweep: 2, never more than the CPUs available."""
    return max(1, min(2, os.cpu_count() or 1))


# ------------------------------------------------------------------ inputs


def _input_path(work: Path, seed: int, name: str) -> Path:
    return work / "inputs" / f"seed-{seed}" / f"{name}.npz"


def _generate(name: str, seed: int):
    from repro.benchgen import benchmark_info, generate_spec

    if name in NODAL:
        index = NODAL.index(name)
        return generate_spec(name, 8, 5, target_cf=0.45 + 0.02 * index,
                             dc_fraction=0.5, seed=60 + index + SEED_STRIDE * seed)
    info = benchmark_info(name)
    return generate_spec(
        name, info.num_inputs, info.num_outputs, target_cf=info.cf,
        dc_fraction=info.dc_percent / 100.0, expected_cf=info.expected_cf,
        seed=info.seed + SEED_STRIDE * seed, tolerance=0.015,
    )


def _from_benchgen(name: str, seed: int) -> bool:
    return seed == 0 and name not in NODAL


def prepare_inputs(workload: str, seed: int, work: Path) -> None:
    """Generate (once) and cache every input of *workload* at *seed*."""
    from repro.benchgen import mcnc_benchmark

    for name in WORKLOADS[workload]:
        if _from_benchgen(name, seed):
            mcnc_benchmark(name)  # fills the stand-in cache on a cold start
            continue
        path = _input_path(work, seed, name)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp{os.getpid()}.npz")
            np.savez_compressed(tmp, phases=_generate(name, seed).phases)
            os.replace(tmp, path)


def load_inputs(workload: str, seed: int, work: Path) -> list:
    """The specs of *workload* at *seed*, read from the prepared cache."""
    from repro.benchgen import mcnc_benchmark
    from repro.core.spec import FunctionSpec

    specs = []
    for name in WORKLOADS[workload]:
        if _from_benchgen(name, seed):
            specs.append(mcnc_benchmark(name))
        else:
            with np.load(_input_path(work, seed, name)) as data:
                specs.append(FunctionSpec(data["phases"], name=name))
    return specs


# ------------------------------------------------------------ timed bodies


@dataclass
class Point:
    """One flow point: its key, source spec, result and final context."""

    key: str
    source: object
    result: object = None
    ctx: object = None
    error: str | None = None


class ContextCapture:
    """Keeps the context of every flow ``run_flow`` packages, by wrapping
    ``repro.flows.experiment.flow_result`` (which ``run_flow`` calls last)."""

    def __init__(self):
        from repro.flows import experiment

        self._module = experiment
        self._original = experiment.flow_result
        self.contexts: list = []

        def capture(ctx):
            self.contexts.append(ctx)
            return self._original(ctx)

        experiment.flow_result = capture

    def close(self) -> None:
        self._module.flow_result = self._original


def run_serial_flows(specs, objective: str, recorder, capture: ContextCapture) -> list[Point]:
    """``run_flow`` on each spec in turn: cfactor at the fixed threshold."""
    from repro.flows import run_flow

    points = []
    for flow, spec in enumerate(specs):
        key = f"{spec.name}/cfactor/{THRESHOLD}/{objective}"
        recorder.flow = flow
        try:
            with recorder.span("flow"):
                result = run_flow(spec, "cfactor", threshold=THRESHOLD, objective=objective)
            points.append(Point(key, spec, result, capture.contexts[-1]))
        except Exception as exc:  # noqa: BLE001 - a failed point is counted, not fatal
            points.append(Point(key, spec, error=f"{type(exc).__name__}: {exc}"))
    return points


def complete_dc_pipeline():
    from repro.faults import create_fault_model
    from repro.pipeline import Pipeline

    return Pipeline(
        COMPLETE_DC_STAGES,
        name="complete-dc",
        params={
            "policy": "cfactor",
            "threshold": THRESHOLD,
            "objective": "area",
            "fault_model": create_fault_model({"model": "stuck_at", "value": STUCK_AT}).spec_dict(),
            "dc_jobs": 1,
        },
    )


def run_complete_dc(specs, recorder) -> list[Point]:
    """``Pipeline.run`` with ``complete_dc`` between optimize and map."""
    from repro.flows import flow_result

    points = []
    for flow, spec in enumerate(specs):
        key = f"{spec.name}/cfactor/{THRESHOLD}/area/complete_dc/stuck_at{STUCK_AT}"
        recorder.flow = flow
        try:
            with recorder.span("flow"):
                ctx = complete_dc_pipeline().run(spec=spec)
                result = flow_result(ctx)
            points.append(Point(key, spec, result, ctx))
        except Exception as exc:  # noqa: BLE001
            points.append(Point(key, spec, error=f"{type(exc).__name__}: {exc}"))
    return points


def run_sweep(specs, checkpoint_dir: str, jobs: int, timings: dict) -> list[Point]:
    """The Fig. 4/5 ranking sweep: a ``delay`` pass that writes
    checkpoints, then a ``power`` pass that reads assign..map back."""
    from repro.flows import fraction_sweep

    points = []
    for objective, timing in (("delay", "sweep.write_pass_s"), ("power", "sweep.read_pass_s")):
        started = time.perf_counter()
        for spec in specs:
            keys = [f"{spec.name}/ranking/{f}/{objective}" for f in FRACTIONS]
            try:
                results = fraction_sweep(spec, list(FRACTIONS), objective=objective,
                                         jobs=jobs, checkpoint_dir=checkpoint_dir)
                points += [Point(k, spec, r) for k, r in zip(keys, results)]
            except Exception as exc:  # noqa: BLE001
                points += [Point(k, spec, error=f"{type(exc).__name__}: {exc}") for k in keys]
        timings[timing] = time.perf_counter() - started
    return points


def recover_sweep_contexts(points: list[Point], checkpoint_dir: str) -> None:
    """Re-run each sweep point serially against the checkpoints the sweep
    wrote, which loads every stage from disk, to get its final context."""
    from repro.flows import run_flow

    capture = ContextCapture()
    try:
        for point in points:
            if point.result is None:
                continue
            objective = point.result.objective
            try:
                again = run_flow(point.source, "ranking", fraction=point.result.parameter,
                                 objective=objective, checkpoint_dir=checkpoint_dir)
            except Exception as exc:  # noqa: BLE001
                point.error = f"checkpoint reload: {type(exc).__name__}: {exc}"
                continue
            point.ctx = capture.contexts[-1]
            if again != point.result:
                point.error = "result reloaded from checkpoints differs from the sweep's"
    finally:
        capture.close()


def temporary_checkpoints(work: Path):
    """A fresh checkpoint directory inside the benchmark's work area."""
    work.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="checkpoints-", dir=work)


# ------------------------------------------------------------------ checks


def result_record(point: Point) -> dict:
    """The reference-comparable fields of one point, as the JSON reference
    file stores them."""
    record = {"key": point.key, "result": asdict(point.result)}
    report = point.ctx.get("complete_dc_report") if point.ctx is not None else None
    if report is not None:
        record["complete_dc_report"] = asdict(report)
    return json.loads(json.dumps(record))


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and a != a and b != b:
        return True  # both NaN
    return type(a) is type(b) and a == b


def compare_to_reference(record: dict, expected: dict) -> list[str]:
    """Field-by-field exact comparison against the committed reference."""
    problems = []
    for section in ("result", "complete_dc_report"):
        want, got = expected.get(section), record.get(section)
        if want is None and got is None:
            continue
        if want is None or got is None:
            problems.append(f"{section} present on one side only")
            continue
        for field, value in want.items():
            if not _same(got.get(field), value):
                problems.append(f"{section}.{field}: {got.get(field)!r} != reference {value!r}")
    return problems


def check_points(points: list[Point], reference: dict | None) -> tuple[int, list[str]]:
    """Run every independent check (and, at seed 0, the reference
    comparison); returns the number of failed points and the reasons."""
    failures = []
    failed = 0
    for point in points:
        problems = []
        if point.error is not None:
            problems.append(point.error)
        elif point.ctx is None:
            problems.append("no flow context to check")
        else:
            ctx = point.ctx
            stuck = STUCK_AT if ctx.get("complete_dc_report") is not None else None
            problems += check_point(
                point.source, ctx.require("assigned_spec"), ctx.require("netlist"),
                point.result, network=ctx.require("network"), stuck_at=stuck,
            )
            if reference is not None:
                expected = reference.get(point.key)
                if expected is None:
                    problems.append("no reference record")
                else:
                    problems += compare_to_reference(result_record(point), expected)
        if problems:
            failed += 1
            failures.append(f"{point.key}: " + "; ".join(problems))
    return failed, failures
