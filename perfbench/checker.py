"""Independent correctness checks for the flow benchmark.

Nothing here calls the evaluation code under test.  Every signal is a
Python integer holding one bit per minterm of the primary-input space
(bit ``m`` is the signal's value on input vector ``m``, and input ``j`` is
bit ``j`` of ``m``), and every cell is evaluated from a boolean function
written out per cell stem below, not from the library's pattern tables.

Three checks are made per flow point:

* the assigned spec only decides don't-cares of the source spec;
* the mapped netlist matches the assigned spec on its care set;
* the reported error rate equals one recomputed from its definition:
  single-bit input flips (events / (n * 2**n), sources from the source
  spec's care set, mean over outputs), or, for the ``stuck_at`` model,
  the share of (internal node, input vector) pairs where forcing the
  node changes some primary output of the logic network.
"""

from __future__ import annotations

import numpy as np

OFF, ON, DC = 0, 1, 2


CELL_FUNCTIONS = {
    "INV": lambda m, a: m ^ a,
    "NAND2": lambda m, a, b: m ^ (a & b),
    "NAND3": lambda m, a, b, c: m ^ (a & b & c),
    "NOR2": lambda m, a, b: m ^ (a | b),
    "NOR3": lambda m, a, b, c: m ^ (a | b | c),
    "AND2": lambda m, a, b: a & b,
    "OR2": lambda m, a, b: a | b,
    "AOI21": lambda m, a, b, c: m ^ ((a & b) | c),
    "OAI21": lambda m, a, b, c: m ^ ((a | b) & c),
    "XOR2": lambda m, a, b: a ^ b,
    "XNOR2": lambda m, a, b: m ^ a ^ b,
}
"""Cell stem (name without the ``_X<drive>`` suffix) -> function of the
all-ones mask and the pin values, in pin order ``a, b, c``."""


def _bits_to_int(bits: np.ndarray) -> int:
    """Pack a boolean vector (index = minterm) into one integer."""
    return int.from_bytes(np.packbits(bits.astype(bool), bitorder="little").tobytes(), "little")


def input_words(num_inputs: int) -> list[int]:
    """The value of every primary input over all ``2**num_inputs`` vectors."""
    index = np.arange(1 << num_inputs)
    return [_bits_to_int((index >> j) & 1) for j in range(num_inputs)]


def phase_words(phases: np.ndarray) -> tuple[list[int], list[int]]:
    """Per-output on-set and off-set as minterm integers."""
    on = [_bits_to_int(row == ON) for row in phases]
    off = [_bits_to_int(row == OFF) for row in phases]
    return on, off


def netlist_outputs(netlist, spec) -> list[int]:
    """Evaluate a mapped netlist gate by gate; one integer per output of
    *spec*, whose input order fixes the minterm bit of each input."""
    n = spec.num_inputs
    mask = (1 << (1 << n)) - 1
    values = dict(zip(spec.input_names, input_words(n)))
    for name, constant in netlist.constants.items():
        values[name] = mask if constant else 0
    for gate in netlist.gates:
        stem = gate.cell.name.rsplit("_", 1)[0]
        function = CELL_FUNCTIONS.get(stem)
        if function is None:
            raise ValueError(f"no reference function for cell {gate.cell.name}")
        values[gate.output] = function(mask, *(values[s] for s in gate.inputs))
    return [values[netlist.outputs[name]] for name in spec.output_names]


def _compile_cover(cover) -> list[tuple[list[int], list[int]]]:
    """Each cube as (positions of positive literals, of negative ones)."""
    cubes = []
    for cube in cover.cubes.tolist():
        cubes.append((
            [p for p, literal in enumerate(cube) if literal == 1],
            [p for p, literal in enumerate(cube) if literal == 0],
        ))
    return cubes


def _cover_value(cubes, fanin_values: list[int], mask: int) -> int:
    """OR of the cubes, each the AND of its bound literals."""
    total = 0
    for positive, negative in cubes:
        term = mask
        for position in positive:
            term &= fanin_values[position]
        for position in negative:
            term &= ~fanin_values[position]
        total |= term
    return total & mask


def _topological(network) -> list[str]:
    """Nodes in fanin-first order (computed here, not by the network)."""
    order: list[str] = []
    state: dict[str, int] = {}
    for root in network.nodes:
        stack = [(root, 0)]
        while stack:
            name, index = stack.pop()
            if name not in network.nodes or state.get(name) == 2:
                continue
            fanins = network.nodes[name].fanins
            if index == 0:
                if state.get(name) == 1:
                    raise ValueError(f"combinational cycle through {name}")
                state[name] = 1
            if index < len(fanins):
                stack.append((name, index + 1))
                stack.append((fanins[index], 0))
            else:
                state[name] = 2
                order.append(name)
    return order


class _NetworkModel:
    """A logic network compiled for integer-per-signal evaluation."""

    def __init__(self, network, spec):
        n = spec.num_inputs
        self.mask = (1 << (1 << n)) - 1
        self.size = 1 << n
        self.order = _topological(network)
        self.fanins = {name: network.nodes[name].fanins for name in self.order}
        self.cubes = {name: _compile_cover(network.nodes[name].cover) for name in self.order}
        self.outputs = [network.outputs[name] for name in spec.output_names]
        self.good = dict(zip(spec.input_names, input_words(n)))
        for name in self.order:
            self.good[name] = self._node(name, self.good)

    def _node(self, name: str, values: dict[str, int]) -> int:
        return _cover_value(self.cubes[name], [values[f] for f in self.fanins[name]], self.mask)

    def forced_difference(self, target: str, value: int) -> int:
        """Vectors on which holding *target* at *value* changes some output."""
        faulty = {target: value}
        start = self.order.index(target) + 1
        for name in self.order[start:]:
            if any(f in faulty for f in self.fanins[name]):
                fanin_values = [faulty.get(f, self.good[f]) for f in self.fanins[name]]
                new = _cover_value(self.cubes[name], fanin_values, self.mask)
                if new != self.good[name]:
                    faulty[name] = new
        diff = 0
        for signal in self.outputs:
            if signal in faulty:
                diff |= faulty[signal] ^ self.good[signal]
        return diff


def stuck_at_rate(network, spec, value: int) -> float:
    """Exact stuck-at-*value* rate of a logic network over all vectors."""
    nodes = list(network.nodes)
    if not nodes:
        return 0.0
    model = _NetworkModel(network, spec)
    stuck = model.mask if value else 0
    total = sum(bin(model.forced_difference(name, stuck)).count("1") for name in nodes)
    return total / (len(nodes) * model.size)


def network_outputs(network, spec) -> list[int]:
    """Primary-output values of a logic network, one per output of *spec*."""
    model = _NetworkModel(network, spec)
    return [model.good[signal] for signal in model.outputs]


def single_bit_rate(outputs: list[int], source_phases: np.ndarray) -> float:
    """Single-bit input-error rate of an implementation from its definition.

    An event is a pair (source vector x in the output's care set, input
    bit j) whose flip changes the output value; the rate is events over
    ``n * 2**n``, averaged over outputs.
    """
    size = source_phases.shape[1]
    n = size.bit_length() - 1
    care = [_bits_to_int(row != DC) for row in source_phases]
    lows = [_bits_to_int(((np.arange(size) >> j) & 1) == 0) for j in range(n)]
    events = []
    for value, source in zip(outputs, care):
        count = 0
        for j, low in enumerate(lows):
            step = 1 << j
            neighbour = ((value >> step) & low) | ((value & low) << step)
            count += bin((value ^ neighbour) & source).count("1")
        events.append(count)
    return float(np.mean(np.asarray(events, dtype=np.int64) / (n * size)))


def check_point(source, assigned, netlist, result, *, network=None, stuck_at=None) -> list[str]:
    """Every independent check for one flow point; returns the failures.

    Args:
        source: the spec the flow started from.
        assigned: the spec after the assignment policy.
        netlist: the final mapped netlist.
        result: the flow's :class:`FlowResult`.
        network: the optimised logic network (needed for ``stuck_at``).
        stuck_at: the stuck-at value when the flow measured that model.
    """
    problems: list[str] = []
    src, asg = source.phases, assigned.phases
    if src.shape != asg.shape:
        return [f"assigned spec shape {asg.shape} != source {src.shape}"]
    care = src != DC
    if not np.array_equal(src[care], asg[care]):
        problems.append("assignment changed a care minterm of the source spec")
    outputs = netlist_outputs(netlist, assigned)
    on, off = phase_words(asg)
    for index, (value, on_set, off_set) in enumerate(zip(outputs, on, off)):
        if on_set & ~value or off_set & value:
            problems.append(f"netlist output {index} differs from the assigned spec on its care set")
            break
    if stuck_at is None:
        rate = single_bit_rate(outputs, src)
    else:
        if network_outputs(network, assigned) != outputs:
            problems.append("mapped netlist differs from the optimised network")
        rate = stuck_at_rate(network, assigned, stuck_at)
    if rate != result.error_rate:
        problems.append(f"error rate {result.error_rate!r} != recomputed {rate!r}")
    if result.gates != len(netlist.gates):
        problems.append(f"gate count {result.gates} != netlist {len(netlist.gates)}")
    return problems
