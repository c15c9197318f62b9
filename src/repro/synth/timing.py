"""Static timing analysis and critical-path gate sizing.

Delay model: a gate's output arrival is the worst input-pin arrival plus
the cell's intrinsic delay plus ``resistance * load`` on its output net;
primary inputs are driven through the library's ``input_drive`` resistance.
``upsize_critical`` is the "compile for delay" post-pass: it walks the
critical path swapping cells for higher-drive variants while that improves
the clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import metrics as obs_metrics
from .netlist import GateInstance, MappedNetlist

__all__ = ["TimingReport", "static_timing", "upsize_critical"]


@dataclass(frozen=True)
class TimingReport:
    """Arrival times and the critical path.

    Attributes:
        delay: worst primary-output arrival time.
        arrivals: arrival time per signal.
        critical_path: signal names from a PI to the worst PO.
    """

    delay: float
    arrivals: dict[str, float]
    critical_path: tuple[str, ...]


def static_timing(netlist: MappedNetlist) -> TimingReport:
    """Compute arrival times over the netlist (topological, load-aware)."""
    library = netlist.library
    loads = netlist.loads()
    arrivals: dict[str, float] = {}
    worst_fanin: dict[str, str] = {}
    for name in netlist.primary_inputs:
        arrivals[name] = library.input_drive * loads.get(name, 0.0)
    for name in netlist.constants:
        arrivals[name] = 0.0
    for gate in netlist.gates:
        pin_arrival = 0.0
        pin_signal = ""
        for signal in gate.inputs:
            if arrivals[signal] >= pin_arrival:
                pin_arrival = arrivals[signal]
                pin_signal = signal
        arrivals[gate.output] = (
            pin_arrival + gate.cell.intrinsic + gate.cell.resistance * loads[gate.output]
        )
        worst_fanin[gate.output] = pin_signal

    if netlist.outputs:
        worst_signal = max(netlist.outputs.values(), key=lambda s: arrivals[s])
        delay = arrivals[worst_signal]
    else:
        worst_signal, delay = "", 0.0

    path: list[str] = []
    cursor = worst_signal
    while cursor:
        path.append(cursor)
        cursor = worst_fanin.get(cursor, "")
    return TimingReport(delay, arrivals, tuple(reversed(path)))


def upsize_critical(netlist: MappedNetlist, *, max_rounds: int = 10) -> MappedNetlist:
    """Greedy critical-path gate sizing (in place; returns the netlist).

    Each round walks the current critical path and tries every drive
    variant of every gate on it, keeping the single swap that improves the
    worst delay the most.  Stops when no swap helps or after *max_rounds*.
    """
    library = netlist.library
    drivers = netlist.driver_of()
    rounds = resized = 0
    for _ in range(max_rounds):
        rounds += 1
        report = static_timing(netlist)
        best_delay = report.delay
        best_swap: tuple[GateInstance, object] | None = None
        for signal in report.critical_path:
            gate = drivers.get(signal)
            if gate is None:
                continue
            original = gate.cell
            for variant in library.variants_of(original):
                if variant.name == original.name:
                    continue
                gate.cell = variant
                trial = static_timing(netlist).delay
                if trial < best_delay - 1e-12:
                    best_delay = trial
                    best_swap = (gate, variant)
                gate.cell = original
        if best_swap is None:
            break
        gate, variant = best_swap
        gate.cell = variant  # type: ignore[assignment]
        resized += 1
    obs_metrics.counter("tune.rounds").inc(rounds)
    obs_metrics.counter("tune.cells_resized").inc(resized)
    return netlist
