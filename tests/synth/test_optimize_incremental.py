"""Differential oracle for the incremental divisor extraction.

``reference_extract_kernels`` / ``reference_extract_cubes`` below are the
from-scratch greedy loops the incremental ones in
:mod:`repro.synth.optimize` replaced: every iteration they rebuild each
node's cube set from its cover, every node's kernels and every 2-literal
count.  On random small SOP networks both versions must make the same
extractions and leave the same network, node for node.
"""

import copy
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.espresso.cube import Cover
from repro.synth.kernels import (
    CubeSet,
    algebraic_divide,
    cover_to_cubes,
    cube_key,
    cube_set_key,
    cube_set_literals,
    cubes_to_cover,
    kernels,
)
from repro.synth.network import LogicNetwork
from repro.synth.optimize import extract_cubes, extract_kernels, optimize_network


def _node_cubes(network: LogicNetwork, name: str) -> CubeSet:
    node = network.nodes[name]
    return cover_to_cubes(node.cover, node.fanins)


def _rewrite_node(
    network: LogicNetwork,
    name: str,
    quotient: CubeSet,
    remainder: CubeSet,
    divisor_signal: str,
) -> None:
    """Replace node *name* with ``quotient * divisor_signal + remainder``."""
    new_cubes = {cube | {(divisor_signal, True)} for cube in quotient} | set(remainder)
    signals = sorted({literal[0] for cube in new_cubes for literal in cube})
    cover = cubes_to_cover(frozenset(new_cubes), signals)
    node = network.nodes[name]
    node.fanins = signals
    node.cover = cover
    # Direct fanin rewrite: the cached topological order / fanout map are
    # stale now (add_node/set_output invalidate automatically, this does
    # not go through them).
    network.invalidate_structure_caches()


def _install_divisor(network: LogicNetwork, divisor: CubeSet, stem: str) -> str:
    signals = sorted({literal[0] for cube in divisor for literal in cube})
    cover = cubes_to_cover(divisor, signals)
    name = network.fresh_name(stem)
    network.add_node(name, signals, cover)
    return name


def reference_extract_kernels(network: LogicNetwork, *, max_extractions: int = 200) -> int:
    """Greedy shared-kernel extraction.

    Returns:
        Number of divisor nodes created.
    """
    created = 0
    for _ in range(max_extractions):
        candidates: set[CubeSet] = set()
        node_cubes: dict[str, CubeSet] = {}
        node_literals: dict[str, frozenset] = {}
        for name in list(network.nodes):
            cubes = _node_cubes(network, name)
            node_cubes[name] = cubes
            node_literals[name] = frozenset(lit for cube in cubes for lit in cube)
            if len(cubes) < 2:
                continue
            candidates.update(kernels(cubes, max_kernels=50))
        if not candidates:
            break
        # Rank candidates by intrinsic value and only try the most promising
        # ones against every node (full cross-division is quadratic).
        # Score ties are broken canonically (cube_set_key), not by set
        # iteration order, so extraction is hash-seed independent.
        ranked = sorted(
            candidates,
            key=lambda k: (
                -(len(k) - 1) * (cube_set_literals(k) - 1),
                cube_set_key(k),
            ),
        )[:60]
        best_kernel: CubeSet | None = None
        best_value = 0
        divisions: dict[CubeSet, list[tuple[str, CubeSet, CubeSet]]] = {}
        for kernel in ranked:
            kernel_literals = frozenset(lit for cube in kernel for lit in cube)
            uses: list[tuple[str, CubeSet, CubeSet]] = []
            saved = 0
            for name, cubes in node_cubes.items():
                if not kernel_literals <= node_literals[name]:
                    continue
                quotient, remainder = algebraic_divide(cubes, kernel)
                if not quotient:
                    continue
                old_literals = cube_set_literals(cubes)
                new_literals = (
                    cube_set_literals(quotient)
                    + len(quotient)
                    + cube_set_literals(remainder)
                )
                if new_literals < old_literals:
                    uses.append((name, quotient, remainder))
                    saved += old_literals - new_literals
            value = saved - cube_set_literals(kernel)
            if len(uses) >= 1 and value > best_value:
                best_kernel, best_value = kernel, value
                divisions[kernel] = uses
        if best_kernel is None:
            break
        divisor_signal = _install_divisor(network, best_kernel, "k")
        for name, quotient, remainder in divisions[best_kernel]:
            _rewrite_node(network, name, quotient, remainder, divisor_signal)
        created += 1
    return created


def reference_extract_cubes(network: LogicNetwork, *, max_extractions: int = 200) -> int:
    """Greedy shared-cube extraction (common sub-cubes across nodes).

    Returns:
        Number of divisor nodes created.
    """
    created = 0
    for _ in range(max_extractions):
        counts: Counter = Counter()
        for name in network.nodes:
            for cube in _node_cubes(network, name):
                if len(cube) >= 2:
                    for other in _subcubes_of_size_two(cube):
                        counts[other] += 1
        best_cube = None
        best_value = 0
        for cube, occurrences in sorted(
            counts.items(), key=lambda item: (-item[1], cube_key(item[0]))
        ):
            # Extracting a 2-literal cube saves one literal per occurrence
            # beyond the new node's own two literals.
            value = occurrences - 2
            if value > best_value:
                best_cube, best_value = cube, value
        if best_cube is None:
            break
        divisor = frozenset({best_cube})
        divisor_signal = _install_divisor(network, divisor, "c")
        for name in list(network.nodes):
            if name == divisor_signal:
                continue
            cubes = _node_cubes(network, name)
            quotient, remainder = algebraic_divide(cubes, divisor)
            if quotient:
                _rewrite_node(network, name, quotient, remainder, divisor_signal)
        created += 1
    return created


def _subcubes_of_size_two(cube: frozenset) -> list[frozenset]:
    literals = sorted(cube)
    return [
        frozenset({literals[i], literals[j]})
        for i in range(len(literals))
        for j in range(i + 1, len(literals))
    ]


def _random_network(seed: int) -> LogicNetwork:
    """2-6 SOP nodes over at most 8 PIs; later nodes may read earlier ones.

    Covers may repeat a cube or hold the all-free cube, as real input can.
    """
    rng = np.random.default_rng(seed)
    inputs = [f"x{i}" for i in range(int(rng.integers(2, 9)))]
    network = LogicNetwork(inputs)
    free = float(rng.uniform(0.2, 0.7))
    for t in range(int(rng.integers(2, 7))):
        signals = inputs + list(network.nodes)
        width = int(rng.integers(1, min(len(signals), 8) + 1))
        fanins = [signals[i] for i in sorted(rng.choice(len(signals), width, replace=False))]
        rows = rng.choice(
            [0, 1, 2], size=(int(rng.integers(1, 9)), width), p=[(1 - free) / 2] * 2 + [free]
        ).astype(np.uint8)
        network.add_node(f"t{t}", fanins, Cover(rows, width))
    names = list(network.nodes)
    for name in names[-int(rng.integers(1, len(names) + 1)):]:
        network.set_output(f"y_{name}", name)
    return network


def _shape(network: LogicNetwork) -> list[tuple]:
    """Node names in order, with fanins and cover bytes."""
    return [
        (name, list(node.fanins), node.cover.cubes.shape, node.cover.cubes.tobytes())
        for name, node in network.nodes.items()
    ] + [sorted(network.outputs.items())]


class TestIncrementalMatchesReference:
    @given(
        st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 200]), st.booleans()
    )
    @settings(max_examples=150, deadline=None)
    def test_extractions_and_network_identical(self, seed, cap, kernels_first):
        incremental = _random_network(seed)
        reference = copy.deepcopy(incremental)
        counts, expected = [], []
        if kernels_first:
            counts.append(extract_kernels(incremental, max_extractions=cap))
            expected.append(reference_extract_kernels(reference, max_extractions=cap))
        counts.append(extract_cubes(incremental, max_extractions=cap))
        expected.append(reference_extract_cubes(reference, max_extractions=cap))
        assert counts == expected
        assert _shape(incremental) == _shape(reference)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_optimize_network_identical(self, seed):
        incremental = _random_network(seed)
        reference = copy.deepcopy(incremental)
        optimize_network(incremental)
        reference_extract_kernels(reference)
        reference_extract_cubes(reference)
        reference.sweep_dangling()
        assert _shape(incremental) == _shape(reference)

    def test_generator_reaches_both_extractions(self):
        """The random networks exercise both loops, not only the no-op path."""
        made = [0, 0]
        for seed in range(60):
            made[0] += reference_extract_kernels(_random_network(seed)) > 0
            made[1] += reference_extract_cubes(_random_network(seed)) > 0
        assert min(made) >= 10, made
