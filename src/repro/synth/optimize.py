"""Multi-level logic optimisation: shared divisor extraction.

The "Design Compiler" stage of the reproduction's flow.  Starting from the
two-level (per-output) network, it repeatedly extracts the best-value
shared algebraic divisor — a kernel or a cube — into a new node and
re-expresses every divisible node through it, shrinking total literal
count.  This is the MIS/SIS ``gkx``/``gcx`` greedy loop; factoring of the
final nodes happens later, during subject-graph construction.

Both loops are incremental (``docs/algorithms.md`` §6).  Every node is
held as an algebraic cube set for the whole call and written back as a
cover once, at the end, if it changed.  Kernel extraction keeps each
node's kernels, the candidates' rank keys and the per-node division
savings between iterations and recomputes them only for rewritten
nodes; cube extraction keeps its 2-literal pair counts up to date the
way SIS ``fx`` does.  The greedy choices are those of a from-scratch
loop, tie-breaks included.
"""

from __future__ import annotations

import heapq
from collections import Counter

from ..obs import metrics as obs_metrics
from .kernels import (
    CubeSet,
    algebraic_divide,
    cover_to_cubes,
    cube_set_key,
    cube_set_literals,
    cubes_to_cover,
    kernels,
)
from .network import LogicNetwork

__all__ = ["extract_kernels", "extract_cubes", "optimize_network"]

_RANKED_KERNELS = 60
"""Kernel candidates tried against every node per extraction."""


class _AlgebraicNetwork:
    """The nodes of a network as algebraic cube sets, for one call.

    Divisor nodes are added to the network as they are created; rewrites
    only touch :attr:`cubes`, and :meth:`commit` writes the changed nodes
    back as covers.
    """

    def __init__(self, network: LogicNetwork):
        self.network = network
        self.cubes: dict[str, CubeSet] = {
            name: cover_to_cubes(node.cover, node.fanins)
            for name, node in network.nodes.items()
        }
        self.changed: set[str] = set()
        # The call's optimize.* counters, published once by publish().
        self.stats = dict.fromkeys(
            (
                "kernel_extractions",
                "cube_extractions",
                "kernel_candidates",
                "divisions",
                "kernel_memo_hits",
            ),
            0,
        )

    def divide(self, name: str, divisor: CubeSet) -> tuple[CubeSet, CubeSet]:
        self.stats["divisions"] += 1
        return algebraic_divide(self.cubes[name], divisor)

    def install(self, divisor: CubeSet, stem: str) -> str:
        """Add *divisor* as a new node; returns its signal name."""
        signals = sorted({literal[0] for cube in divisor for literal in cube})
        name = self.network.fresh_name(stem)
        self.network.add_node(name, signals, cubes_to_cover(divisor, signals))
        self.cubes[name] = divisor
        return name

    def rewrite(
        self, name: str, quotient: CubeSet, remainder: CubeSet, divisor_signal: str
    ) -> None:
        """Make node *name* ``quotient * divisor_signal + remainder``."""
        literal = (divisor_signal, True)
        self.cubes[name] = frozenset({cube | {literal} for cube in quotient}) | remainder
        self.changed.add(name)

    def commit(self) -> None:
        """Write every rewritten node back as a cover over its support."""
        for name in self.changed:
            cubes = self.cubes[name]
            signals = sorted({literal[0] for cube in cubes for literal in cube})
            node = self.network.nodes[name]
            node.fanins = signals
            node.cover = cubes_to_cover(cubes, signals)
        if self.changed:
            # Direct fanin rewrite: the cached topological order / fanout
            # map are stale now (add_node/set_output invalidate
            # automatically, this does not go through them).
            self.network.invalidate_structure_caches()
        self.changed.clear()

    def publish(self) -> None:
        for name, value in self.stats.items():
            obs_metrics.counter(f"optimize.{name}").inc(value)


def _rank_key(kernel: CubeSet) -> tuple:
    # Intrinsic value first; score ties are broken canonically
    # (cube_set_key), not by set iteration order, so extraction is
    # hash-seed independent.  The key is unique per kernel.
    return (
        -(len(kernel) - 1) * (cube_set_literals(kernel) - 1),
        cube_set_key(kernel),
    )


def _division_saving(cubes: CubeSet, kernel: CubeSet) -> int:
    """Literals saved by re-expressing *cubes* through *kernel* (0 if none)."""
    quotient, remainder = algebraic_divide(cubes, kernel)
    if not quotient:
        return 0
    new_literals = (
        cube_set_literals(quotient) + len(quotient) + cube_set_literals(remainder)
    )
    return max(0, cube_set_literals(cubes) - new_literals)


def _extract_kernels(work: _AlgebraicNetwork, max_extractions: int) -> int:
    stats = work.stats
    # Per-node state derived from the node's cube set: it carries over
    # between rounds and is recomputed only when the node is rewritten.
    node_kernels: dict[str, frozenset] = {}
    literals: dict[str, frozenset] = {}
    savings: dict[str, dict[CubeSet, int]] = {}  # node -> kernel -> saving
    holders: Counter = Counter()  # live candidate -> nodes yielding it
    ranks: dict[CubeSet, tuple] = {}  # live candidate -> (rank key, literals)
    # Kernel sets a from-scratch round would enumerate (one per node of two
    # or more cubes), and those enumerated since the last round.
    enumerable = enumerated = 0

    def track(name: str) -> None:
        nonlocal enumerable, enumerated
        cubes = work.cubes[name]
        found: frozenset = frozenset()
        if len(cubes) >= 2:
            found = frozenset(kernels(cubes, max_kernels=50))
            enumerable += 1
            enumerated += 1
        node_kernels[name] = found
        literals[name] = frozenset(lit for cube in cubes for lit in cube)
        savings[name] = {}
        for kernel in found:
            holders[kernel] += 1
            if kernel not in ranks:
                ranks[kernel] = (
                    _rank_key(kernel),
                    frozenset(lit for cube in kernel for lit in cube),
                )

    def untrack(name: str) -> None:
        nonlocal enumerable
        if len(work.cubes[name]) >= 2:
            enumerable -= 1
        for kernel in node_kernels.pop(name):
            holders[kernel] -= 1
            if not holders[kernel]:
                del holders[kernel]
                del ranks[kernel]

    for name in work.cubes:
        track(name)
    created = 0
    for _ in range(max_extractions):
        if not holders:
            break
        # Only the most promising candidates are tried against every node
        # (full cross-division is quadratic).
        ranked = heapq.nsmallest(_RANKED_KERNELS, holders, key=lambda k: ranks[k][0])
        stats["kernel_candidates"] += len(holders)
        stats["kernel_memo_hits"] += enumerable - enumerated
        enumerated = 0
        best_kernel: CubeSet | None = None
        best_value = 0
        best_uses: list[str] = []
        for kernel in ranked:
            kernel_literals = ranks[kernel][1]
            uses: list[str] = []
            saved = 0
            for name, cubes in work.cubes.items():
                if not kernel_literals <= literals[name]:
                    continue
                node_savings = savings[name]
                saving = node_savings.get(kernel)
                if saving is None:
                    stats["divisions"] += 1
                    saving = node_savings[kernel] = _division_saving(cubes, kernel)
                if saving:
                    uses.append(name)
                    saved += saving
            value = saved - cube_set_literals(kernel)
            if uses and value > best_value:
                best_kernel, best_value, best_uses = kernel, value, uses
        if best_kernel is None:
            break
        divisor_signal = work.install(best_kernel, "k")
        for name in best_uses:
            quotient, remainder = work.divide(name, best_kernel)
            untrack(name)
            work.rewrite(name, quotient, remainder, divisor_signal)
            track(name)
        track(divisor_signal)
        created += 1
    stats["kernel_extractions"] += created
    return created


def _pairs(cube: frozenset) -> list[tuple]:
    """The 2-literal sub-cubes of *cube*, each as its sorted literal pair.

    A sorted pair is its own ``cube_key``, so pairs order canonically.
    """
    literals = sorted(cube)
    return [
        (literals[i], literals[j])
        for i in range(len(literals))
        for j in range(i + 1, len(literals))
    ]


def _ordered(one: tuple, other: tuple) -> tuple:
    return (one, other) if one < other else (other, one)


def _extract_cubes(work: _AlgebraicNetwork, max_extractions: int) -> int:
    counts: Counter = Counter()  # pair -> cubes containing it, network-wide
    holders: dict[tuple, dict[str, int]] = {}  # pair -> node -> cubes with it
    position = {name: index for index, name in enumerate(work.cubes)}
    # Max-heap of (-count, pair): the top valid entry is the most frequent
    # pair, ties broken by the smallest pair.  Entries go stale when a
    # count changes and are skipped lazily.
    heap: list[tuple[int, tuple]] = []

    def tally(name: str, delta: Counter) -> None:
        """Apply *delta* (pair -> change in node *name*'s cubes with it)."""
        for pair, change in delta.items():
            if not change:
                continue
            count = counts[pair] + change
            nodes = holders.get(pair)
            if nodes is None:
                nodes = holders[pair] = {}
            left = nodes.get(name, 0) + change
            if left:
                nodes[name] = left
            else:
                del nodes[name]
            if count:
                counts[pair] = count
                heapq.heappush(heap, (-count, pair))
            else:
                del counts[pair], holders[pair]

    for name, cubes in work.cubes.items():
        tally(name, Counter(pair for cube in cubes for pair in _pairs(cube)))
    created = 0
    for _ in range(max_extractions):
        while heap and counts.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        # Extracting a 2-literal cube saves one literal per occurrence
        # beyond the new node's own two literals.
        if not heap or -heap[0][0] - 2 <= 0:
            break
        pair = heap[0][1]
        users = sorted(holders[pair], key=position.__getitem__)
        divisor = frozenset({frozenset(pair)})
        divisor_signal = work.install(divisor, "c")
        position[divisor_signal] = len(position)
        tally(divisor_signal, Counter([pair]))
        first, second = pair
        new = (divisor_signal, True)
        for name in users:
            quotient, remainder = work.divide(name, divisor)
            work.rewrite(name, quotient, remainder, divisor_signal)
            # Cube q*first*second became q*new: only the pairs through
            # first, second or new change; the pairs inside q stay.
            delta: Counter = Counter({pair: -len(quotient)})
            for cube in quotient:
                for literal in cube:
                    delta[_ordered(first, literal)] -= 1
                    delta[_ordered(second, literal)] -= 1
                    delta[_ordered(new, literal)] += 1
            tally(name, delta)
        created += 1
    work.stats["cube_extractions"] += created
    return created


def extract_kernels(network: LogicNetwork, *, max_extractions: int = 200) -> int:
    """Greedy shared-kernel extraction.

    Returns:
        Number of divisor nodes created.
    """
    work = _AlgebraicNetwork(network)
    created = _extract_kernels(work, max_extractions)
    work.commit()
    work.publish()
    return created


def extract_cubes(network: LogicNetwork, *, max_extractions: int = 200) -> int:
    """Greedy shared-cube extraction (common sub-cubes across nodes).

    Returns:
        Number of divisor nodes created.
    """
    work = _AlgebraicNetwork(network)
    created = _extract_cubes(work, max_extractions)
    work.commit()
    work.publish()
    return created


def optimize_network(network: LogicNetwork) -> LogicNetwork:
    """The full technology-independent script: kernels, cubes, cleanup."""
    literals_in = network.num_literals
    work = _AlgebraicNetwork(network)
    _extract_kernels(work, 200)
    _extract_cubes(work, 200)
    work.commit()
    network.sweep_dangling()
    work.publish()
    obs_metrics.counter("optimize.literals_in").inc(literals_in)
    obs_metrics.counter("optimize.literals_out").inc(network.num_literals)
    return network
