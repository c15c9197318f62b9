"""Outside-in spans around the calls into each layer of ``repro``.

The benchmark places no code inside the program.  For a traced run it
replaces, for the life of the run, the entry points of each layer with
wrappers that record a span: name (the layer), start, end, the span that
was open when the call came in (its parent) and the flow it belongs to.
Spans stay in memory and are written out when the run ends.

A layer's *self time* is the duration of its spans minus the part covered
by their direct children, so the self times of all layers (plus the root
span's own gaps) add up to the traced wall time of a serial workload.
Pool workers run in processes these wrappers never reach; their layer
split comes from the ``pipeline.stage_seconds.*`` counters the workers
ship back instead.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

STAGE_SPANS = {
    "AssignStage": "stage:assign",
    "EspressoStage": "stage:espresso",
    "OptimizeStage": "stage:optimize",
    "CompleteDcStage": "stage:complete_dc",
    "MapStage": "stage:map",
    "TuneStage": "stage:tune",
    "MeasureStage": "stage:measure",
}
"""Pipeline stage class -> name of the span around its ``run`` method."""

ESPRESSO_CALLERS = (
    "repro.espresso.minimize",
    "repro.synth.flexibility",
    "repro.synth.odc",
    "repro.synth.renode",
    "repro.synth.aig",
)
"""Modules whose ``espresso`` binding is wrapped, so two-level
minimisation inside ``optimize`` or ``complete_dc`` is charged to the
espresso layer, not to its caller."""


class NullRecorder:
    """The untraced stand-in: same interface, records nothing."""

    flow: int | None = None

    @contextmanager
    def span(self, name: str):
        yield


class SpanRecorder:
    """In-memory spans: ``(id, parent, flow, name, start, end)``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.flow: int | None = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [index, parent, self.flow, name, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, owner, attribute: str, layer: str) -> None:
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(layer):
                return original(*args, **kwargs)

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def install(self) -> None:
        """Wrap every layer entry point of the imported ``repro`` package."""
        import importlib

        from repro.pipeline import stages
        from repro.sat.solver import SatSolver

        for class_name, name in STAGE_SPANS.items():
            self._wrap(getattr(stages, class_name), "run", name)
        for module_name in ESPRESSO_CALLERS:
            self._wrap(importlib.import_module(module_name), "espresso", "espresso")
        self._wrap(SatSolver, "solve", "sat")

    def uninstall(self) -> None:
        """Put every wrapped entry point back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def self_times(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        covered = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for index, _, _, name, start, end in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start) - covered[index]
        return totals

    def total_time(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return sum(end - start for _, _, _, n, start, end in self.spans if n == name)

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, parent, flow, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": index, "parent": parent, "flow": flow,
                    "name": name, "start": start, "end": end,
                }) + "\n")
