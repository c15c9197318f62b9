"""Tests for the node-scope fault models (internal flip, stuck-at)."""

import numpy as np
import pytest

from repro.espresso.minimize import minimize_spec
from repro.faults import NodeFlip, StuckAtNode
from repro.synth.network import LogicNetwork
from repro.synth.odc import _evaluate_with_flip
from repro.synth.optimize import optimize_network

from ..core.conftest import random_spec


@pytest.fixture(scope="module")
def network() -> LogicNetwork:
    spec = random_spec(21, num_inputs=5, num_outputs=2, dc_fraction=0.3)
    minimized = minimize_spec(spec)
    net = LogicNetwork.from_covers(
        list(spec.input_names), minimized.covers, list(spec.output_names)
    )
    optimize_network(net)
    return net


def forced_reference_rate(network: LogicNetwork, value: bool) -> float:
    """Brute-force stuck-at rate: byte-per-vector, full re-evaluation."""
    size = 1 << len(network.primary_inputs)
    idx = np.arange(size, dtype=np.int64)

    def evaluate(forced: str | None) -> np.ndarray:
        values: dict[str, np.ndarray] = {}
        for position, name in enumerate(network.primary_inputs):
            values[name] = ((idx >> position) & 1).astype(bool)
        for name in network.topological_order():
            node = network.nodes[name]
            table = node.cover.evaluate()
            pattern = np.zeros(size, dtype=np.int64)
            for position, fanin in enumerate(node.fanins):
                pattern |= values[fanin].astype(np.int64) << position
            values[name] = table[pattern]
            if name == forced:
                values[name] = np.full(size, value, dtype=bool)
        return np.array(
            [values[signal] for signal in network.outputs.values()]
        )

    base = evaluate(None)
    node_names = list(network.nodes)
    total = 0
    for name in node_names:
        diff = np.any(base != evaluate(name), axis=0)
        total += int(np.count_nonzero(diff))
    return total / (len(node_names) * size)


class TestStuckAt:
    @pytest.mark.parametrize("value", [0, 1])
    def test_matches_brute_force(self, network, value):
        fast = StuckAtNode(value).network_error_rate(network)
        assert fast == pytest.approx(forced_reference_rate(network, bool(value)))

    def test_value_validation(self):
        with pytest.raises(ValueError, match="stuck-at value"):
            StuckAtNode(2)

    def test_stuck_at_bounded_by_flip(self, network):
        """A stuck-at fault is a flip masked to excited vectors."""
        flip = NodeFlip().network_error_rate(network)
        assert StuckAtNode(0).network_error_rate(network) <= flip
        assert StuckAtNode(1).network_error_rate(network) <= flip

    def test_source_mask_restriction(self, network):
        size = 1 << len(network.primary_inputs)
        none = StuckAtNode(0).network_error_rate(
            network, source_mask=np.zeros(size, dtype=bool)
        )
        assert none == 0.0
        all_of_them = StuckAtNode(0).network_error_rate(
            network, source_mask=np.ones(size, dtype=bool)
        )
        assert all_of_them == StuckAtNode(0).network_error_rate(network)


class TestNodeFlip:
    def test_matches_internal_error_rate(self, network):
        """The packed sweep equals the boolean full-walk flip reference."""
        values = network.evaluate_reference()
        base = np.vstack([values[sig] for sig in network.outputs.values()])
        total = 0
        for name in network.nodes:
            flipped = _evaluate_with_flip(network, values, name)
            total += int(np.count_nonzero(np.any(base != flipped, axis=0)))
        expected = total / (len(network.nodes) * base.shape[1])
        assert NodeFlip().network_error_rate(network) == pytest.approx(expected)


class TestMonteCarloAgreement:
    @pytest.mark.parametrize("model", [NodeFlip(), StuckAtNode(0), StuckAtNode(1)])
    def test_estimate_within_ci_of_exact(self, network, model):
        exact = model.network_error_rate(network)
        estimate = model.estimate_network_error_rate(
            network, samples=4096, rng=np.random.default_rng(8)
        )
        assert estimate.samples == 4096 * len(network.nodes)
        assert abs(estimate.rate - exact) <= max(5 * estimate.stderr, 0.01)

    def test_input_scope_operations_rejected(self, network):
        spec = random_spec(3, num_inputs=4, num_outputs=1, dc_fraction=0.0)
        with pytest.raises(ValueError, match="scope"):
            StuckAtNode(0).error_rate(spec)
