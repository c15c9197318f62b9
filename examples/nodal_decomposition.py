"""Nodal decomposition: reassigning *internal* don't cares (Sec. 4).

Builds a multi-level network, extracts every node's satisfiability and
observability don't cares, reassigns them with the complexity-factor-based
algorithm, and measures the internal error masking improvement — the
paper's extension for scaling the technique to large circuits and internal
errors.

Run:  python examples/nodal_decomposition.py
"""

import numpy as np

from repro.benchgen.synthetic import generate_spec
from repro.espresso.minimize import minimize_spec
from repro.faults import NodeFlip
from repro.synth.network import LogicNetwork
from repro.synth.odc import node_flexibility, reassign_internal_dcs
from repro.synth.optimize import optimize_network


def main() -> None:
    # A mid-complexity benchmark through the multi-level flow.
    spec = generate_spec("nodal", 8, 4, target_cf=0.55, dc_fraction=0.5, seed=3)
    minimized = minimize_spec(spec)
    network = LogicNetwork.from_covers(
        list(spec.input_names), minimized.covers, list(spec.output_names)
    )
    optimize_network(network)
    print(f"multi-level network: {len(network.nodes)} nodes, "
          f"{network.num_literals} literals")

    # Inspect the flexibility of a few nodes.
    shown = 0
    for name in network.topological_order():
        local = node_flexibility(network, name)
        dc_count = int(np.count_nonzero(local.phases == 2))
        if dc_count and shown < 5:
            print(f"  node {name}: {len(network.nodes[name].fanins)} fanins, "
                  f"{dc_count}/{local.num_minterms} local patterns are DC "
                  f"(SDC + ODC)")
            shown += 1

    before = NodeFlip().network_error_rate(network)
    report = reassign_internal_dcs(network, policy="cfactor", threshold=0.6)
    print(f"\ninternal error rate (flip of a random node propagates):")
    print(f"  before reassignment: {report.error_rate_before:.4f}")
    print(f"  after  reassignment: {report.error_rate_after:.4f}")
    print(f"  nodes rewritten: {report.nodes_changed}, "
          f"local DC entries decided: {report.dc_entries_assigned}")
    assert abs(before - report.error_rate_before) < 1e-12
    print("\nprimary-output functions are untouched (checked after every "
          "node rewrite).")


if __name__ == "__main__":
    main()
