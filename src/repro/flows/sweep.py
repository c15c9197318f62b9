"""One flow-point executor and the paper's sweeps and tables built on it.

Each evaluation artefact of the paper is a list of flow points —
benchmark × assignment policy × knob — and :func:`run_points` is the one
function that runs such a list.  The artefact builders here shape its
input and output:

* :func:`fraction_sweep` — Figs. 4 and 5 (ranking fraction 0 -> 1);
* :func:`fraction_baselines` — the fraction-0 point Figs. 4-6 normalise
  against, picked from a sweep or run when the grid lacks it;
* :func:`family_tradeoff` — Fig. 6 (area vs error rate per C^f family);
* :func:`table2_rows` — Table 2 (LC^f vs ranking vs complete);
* :func:`table3_rows` — Table 3 (estimate bands and achieved rates).

The LC^f-threshold ablation and the declarative scenarios of
:mod:`repro.scenarios` pass their points to :func:`run_points` directly.

Parallel execution
------------------

Every flow point is an independent ``run_flow`` call — itself a thin
driver over the stage graph of :mod:`repro.pipeline` — so
:func:`run_points` accepts a ``jobs`` argument (an integer or
``"auto"``) and fans the points out over the process-wide warm worker
pool of :mod:`repro.perf.pool` (see :func:`parallel_map`): persistent
preloaded workers and batched work-stealing scheduling.  Results always come back in input
order and synthesis is deterministic across processes, so a parallel
run is bit-identical to the serial one.  ``jobs <= 1`` runs in-process,
which additionally shares the minimisation cache of :mod:`repro.perf`
across points.

Checkpointed sweeps: pass ``checkpoint_dir`` and every point persists
its per-stage outputs content-addressed (see
:mod:`repro.pipeline.checkpoint`).  An interrupted sweep — or a
re-parameterised one whose early stages are unaffected by the changed
knob — resumes from the last valid stage output of each point instead
of recomputing whole flows.  Worker processes share the directory
safely: keys are content digests and writes are atomic.

Observability: each worker task measures its own tracing spans and
metrics delta and ships them back with the result; the parent merges
them into its tracer / registry, so ``--trace`` and ``--metrics-out``
see the whole fleet, not just the parent process.  A ``progress``
callback (``callback(done, total)``) fires as points complete, and a
worker crash surfaces as :class:`SweepPointError` carrying the failing
point's parameters and the worker's traceback instead of a bare pickled
stack.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence, TypeVar

import numpy as np

from ..benchgen.synthetic import generate_spec
from ..core.cfactor import DEFAULT_THRESHOLD
from ..core.complexity import spec_complexity_factor
from ..core.estimates import border_bounds, signal_probability_bounds
from ..core.reliability import ErrorBounds, exact_error_bounds
from ..core.spec import FunctionSpec
from ..obs import span
from ..perf.pool import WorkerTaskError, get_pool, pool_enabled, resolve_jobs
from .experiment import FlowResult, relative_metrics, run_flow

__all__ = [
    "SweepPointError",
    "fraction_baselines",
    "fraction_sweep",
    "family_tradeoff",
    "parallel_map",
    "run_points",
    "table2_rows",
    "Table2Row",
    "table3_rows",
    "Table3Row",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

ProgressCallback = Callable[[int, int], None]
"""``callback(done, total)`` — invoked after every completed point."""


class SweepPointError(RuntimeError):
    """A sweep point failed in a worker process.

    Attributes:
        index: position of the failing point in the task list.
        point: the task that failed (e.g. the ``(spec, policy, kwargs)``
            tuple of a flow sweep), so the parameters that triggered the
            crash are on the exception instead of buried in a pickled
            traceback.
        worker_traceback: the worker-side formatted traceback.
    """

    def __init__(self, index: int, point: Any, message: str,
                 worker_traceback: str):
        self.index = index
        self.point = point
        self.worker_traceback = worker_traceback
        super().__init__(
            f"sweep point {index} ({_describe_point(point)}) failed: "
            f"{message}\n--- worker traceback ---\n{worker_traceback}"
        )


def _describe_point(point: Any) -> str:
    """A compact, parameter-first description of one sweep task."""
    if (
        isinstance(point, tuple)
        and len(point) == 3
        and isinstance(point[1], str)
        and isinstance(point[2], dict)
    ):
        spec, policy, kwargs = point
        name = getattr(spec, "name", spec)
        args = ", ".join(
            f"{key}={value!r}" for key, value in kwargs.items()
            if value is not None
        )
        return f"benchmark={name}, policy={policy}, {args}"
    text = repr(point)
    return text if len(text) <= 120 else text[:117] + "..."


def parallel_map(
    func: Callable[[_T], _R],
    tasks: Sequence[_T],
    jobs: int | str,
    *,
    progress: ProgressCallback | None = None,
) -> list[_R]:
    """Map *func* over *tasks*, optionally across warm worker processes.

    Parallel execution runs on the process-wide warm pool of
    :mod:`repro.perf.pool`: workers persist across successive calls (the
    second sweep in a process pays no spawn or import cost) and points
    are scheduled as work-stealing batches with a bounded in-flight
    window — a thousand-point sweep never holds every payload resident
    at once.

    Args:
        func: a picklable (module-level) callable.
        jobs: worker-process count, or ``"auto"`` for the CPU count;
            ``<= 1`` runs serially in-process.
        progress: optional ``callback(done, total)`` fired as each task
            completes (in completion order, with ``done`` monotonically
            increasing; results still return in input order).

    Returns:
        Results in input order regardless of completion order, so callers
        see deterministic output either way.

    Raises:
        SweepPointError: when a worker task raises; the failing task's
            parameters and the worker traceback ride on the exception,
            and queued-but-unclaimed work is cancelled.
    """
    total = len(tasks)
    jobs = resolve_jobs(jobs, points=total)
    if jobs <= 1 or total <= 1 or not pool_enabled():
        results = []
        for index, task in enumerate(tasks):
            results.append(func(task))
            if progress is not None:
                progress(index + 1, total)
        return results
    pool = get_pool(jobs)
    try:
        return pool.map(func, tasks, jobs, progress=progress)
    except WorkerTaskError as error:
        raise SweepPointError(
            error.index, tasks[error.index], error.message,
            error.worker_traceback,
        ) from None


def _run_flow_task(task: tuple[FunctionSpec, str, dict]) -> FlowResult:
    """Module-level trampoline so sweep points pickle across processes."""
    spec, policy, kwargs = task
    return run_flow(spec, policy, **kwargs)


def run_points(
    points: Sequence[tuple[FunctionSpec, Mapping[str, Any]]],
    *,
    objective: str,
    fault_model: Any = None,
    jobs: int | str = 1,
    progress: ProgressCallback | None = None,
    checkpoint_dir: str | os.PathLike | None = None,
) -> list[FlowResult]:
    """Run every ``(spec, point)`` flow point; results in input order.

    The one executor behind every paper experiment.  *point* is a
    ``Scenario.policies``-style dict: ``policy`` plus, optionally, its
    knob (``fraction`` or ``threshold``; absent knobs take
    :func:`run_flow`'s defaults).  The keyword arguments apply to every
    point; ``jobs`` and ``progress`` are :func:`parallel_map`'s.
    """
    common = {"objective": objective, "fault_model": fault_model,
              "checkpoint_dir": checkpoint_dir}
    tasks = [
        (spec, point["policy"], {
            **{knob: point[knob] for knob in ("fraction", "threshold")
               if knob in point},
            **common,
        })
        for spec, point in points
    ]
    return parallel_map(_run_flow_task, tasks, jobs, progress=progress)


def fraction_sweep(
    spec: FunctionSpec,
    fractions: list[float],
    *,
    objective: str = "delay",
    jobs: int = 1,
    progress: ProgressCallback | None = None,
    checkpoint_dir: str | None = None,
) -> list[FlowResult]:
    """Ranking-based results across assignment fractions (Figs. 4-5)."""
    with span(
        "sweep.fraction", benchmark=spec.name, points=len(fractions), jobs=jobs
    ):
        return run_points(
            [(spec, {"policy": "ranking", "fraction": f}) for f in fractions],
            objective=objective, jobs=jobs, progress=progress,
            checkpoint_dir=checkpoint_dir,
        )


def fraction_baselines(
    specs: Sequence[FunctionSpec],
    fractions: Sequence[float] = (),
    sweeps: Sequence[Sequence[FlowResult]] = (),
    *,
    objective: str,
    jobs: int | str = 1,
    progress: ProgressCallback | None = None,
    checkpoint_dir: str | os.PathLike | None = None,
) -> list[FlowResult]:
    """Each spec's fraction-0 ranking point, which Figs. 4-6 normalise to.

    When *fractions* holds 0.0 the point is picked from each spec's
    sweep (``sweeps[i]`` lists ``specs[i]``'s results over *fractions*);
    otherwise every baseline is run, in one :func:`run_points` pass.
    """
    if 0.0 in fractions:
        index = list(fractions).index(0.0)
        return [results[index] for results in sweeps]
    return run_points(
        [(spec, {"policy": "ranking", "fraction": 0.0}) for spec in specs],
        objective=objective, jobs=jobs, progress=progress,
        checkpoint_dir=checkpoint_dir,
    )


def family_tradeoff(
    *,
    num_inputs: int = 11,
    num_outputs: int = 11,
    complexity_factors: list[float] = (0.45, 0.55, 0.65, 0.75, 0.85),
    functions_per_family: int = 10,
    fractions: list[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    dc_fraction: float = 0.6,
    objective: str = "power",
    seed: int = 0,
    jobs: int = 1,
    progress: ProgressCallback | None = None,
    checkpoint_dir: str | None = None,
) -> dict[float, list[dict[str, float]]]:
    """Fig. 6: normalised (area, error rate) trajectories per C^f family.

    Two :func:`run_points` passes: every member's fraction-0 baseline,
    then the other fractions of the members whose baseline has non-zero
    area (a wire-only member has no overhead signal).  ``progress``
    counts the points of both passes.

    Returns:
        Map from family C^f to a list of ``{fraction, area, error_rate}``
        points averaged over the family's functions, normalised to the
        fraction-0 (conventional) point of each function.
    """
    fractions = tuple(fractions)
    members: list[tuple[float, FunctionSpec]] = []
    for cf in complexity_factors:
        for index in range(functions_per_family):
            members.append(
                (
                    cf,
                    generate_spec(
                        f"fam{cf:.2f}_{index}",
                        num_inputs,
                        num_outputs,
                        target_cf=cf,
                        dc_fraction=dc_fraction,
                        seed=seed * 1000 + int(cf * 100) * 10 + index,
                    ),
                )
            )
    specs = [spec for _, spec in members]
    with span("sweep.family", members=len(members), jobs=jobs):
        baselines = fraction_baselines(
            specs, objective=objective, jobs=jobs, progress=progress,
            checkpoint_dir=checkpoint_dir,
        )
        swept = iter(run_points(
            [
                (spec, {"policy": "ranking", "fraction": fraction})
                for spec, baseline in zip(specs, baselines)
                if baseline.area != 0
                for fraction in fractions
                if fraction != 0.0
            ],
            objective=objective, jobs=jobs, checkpoint_dir=checkpoint_dir,
            progress=None if progress is None else (
                lambda done, total: progress(
                    len(specs) + done, len(specs) + total
                )
            ),
        ))
    accumulators: dict[float, dict[float, list[tuple[float, float]]]] = {
        cf: {fraction: [] for fraction in fractions} for cf in complexity_factors
    }
    for (cf, _), baseline in zip(members, baselines):
        if baseline.area == 0:
            continue
        for fraction in fractions:
            result = baseline if fraction == 0.0 else next(swept)
            rel = relative_metrics(result, baseline)
            accumulators[cf][fraction].append((rel["area"], rel["error_rate"]))
    trajectories: dict[float, list[dict[str, float]]] = {}
    for cf, accumulator in accumulators.items():
        if not any(accumulator.values()):
            continue  # every family member was degenerate; nothing to report
        trajectories[cf] = [
            {
                "fraction": fraction,
                "area": float(np.mean([p[0] for p in points])),
                "error_rate": float(np.mean([p[1] for p in points])),
            }
            for fraction, points in accumulator.items()
        ]
    return trajectories


@dataclass(frozen=True)
class Table2Row:
    """One row of Table 2 (improvements in percent; negative = overhead)."""

    benchmark: str
    cf: float
    lcf_area: float
    lcf_error: float
    ranking_area: float
    ranking_error: float
    complete_area: float
    complete_error: float


def table2_rows(
    specs: Sequence[FunctionSpec],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    objective: str = "area",
    jobs: int | str = 1,
    checkpoint_dir: str | os.PathLike | None = None,
) -> list[Table2Row]:
    """Table 2: LC^f-based vs equal-fraction ranking vs complete.

    The ranking fraction is tied to the fraction the LC^f policy decided,
    exactly as the paper compares them, so the ranking points run in a
    second :func:`run_points` pass once the LC^f results are in.
    """
    policies = (
        {"policy": "conventional"},
        {"policy": "cfactor", "threshold": threshold},
        {"policy": "complete"},
    )
    first = run_points(
        [(spec, point) for spec in specs for point in policies],
        objective=objective, jobs=jobs, checkpoint_dir=checkpoint_dir,
    )
    baselines, lcfs, completes = first[0::3], first[1::3], first[2::3]
    rankings = run_points(
        [
            (spec, {"policy": "ranking",
                    "fraction": min(1.0, lcf.fraction_assigned)})
            for spec, lcf in zip(specs, lcfs)
        ],
        objective=objective, jobs=jobs, checkpoint_dir=checkpoint_dir,
    )
    rows = []
    for spec, baseline, lcf, ranking, complete in zip(
        specs, baselines, lcfs, rankings, completes
    ):
        rel_lcf = relative_metrics(lcf, baseline)
        rel_rank = relative_metrics(ranking, baseline)
        rel_complete = relative_metrics(complete, baseline)
        rows.append(Table2Row(
            benchmark=spec.name,
            cf=spec_complexity_factor(spec),
            lcf_area=rel_lcf["area_improvement_pct"],
            lcf_error=rel_lcf["error_improvement_pct"],
            ranking_area=rel_rank["area_improvement_pct"],
            ranking_error=rel_rank["error_improvement_pct"],
            complete_area=rel_complete["area_improvement_pct"],
            complete_error=rel_complete["error_improvement_pct"],
        ))
    return rows


@dataclass(frozen=True)
class Table3Row:
    """One row of Table 3: bands, achieved rates and gate count."""

    benchmark: str
    gates: int
    exact: ErrorBounds
    signal: ErrorBounds
    border: ErrorBounds
    conventional_rate: float
    conventional_diff_pct: float
    lcf_rate: float
    lcf_diff_pct: float


def table3_rows(
    specs: Sequence[FunctionSpec],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    objective: str = "area",
    jobs: int | str = 1,
    checkpoint_dir: str | os.PathLike | None = None,
) -> list[Table3Row]:
    """Table 3: estimate bands plus conventional and LC^f achieved rates.

    The "% Diff." columns report how far above the exact minimum each
    implementation's rate lands, as in the paper.
    """
    policies = ({"policy": "conventional"},
                {"policy": "cfactor", "threshold": threshold})
    results = run_points(
        [(spec, point) for spec in specs for point in policies],
        objective=objective, jobs=jobs, checkpoint_dir=checkpoint_dir,
    )
    rows = []
    for spec, conventional, lcf in zip(specs, results[0::2], results[1::2]):
        exact = exact_error_bounds(spec)

        def diff_pct(rate: float) -> float:
            return 100.0 * (rate - exact.lo) / exact.lo if exact.lo else 0.0

        rows.append(Table3Row(
            benchmark=spec.name,
            gates=conventional.gates,
            exact=exact,
            signal=signal_probability_bounds(spec),
            border=border_bounds(spec),
            conventional_rate=conventional.error_rate,
            conventional_diff_pct=diff_pct(conventional.error_rate),
            lcf_rate=lcf.error_rate,
            lcf_diff_pct=diff_pct(lcf.error_rate),
        ))
    return rows
