"""Golden digests of ``optimize_network`` over the Table-1 roster.

For every Table-1 row and each of the four DC-assignment policies the
paper compares, ``optimize_golden.json`` holds two digests recorded from
the reference implementation: the post-espresso network (the optimiser's
input) and the optimised network.  ``optimize_network`` must reproduce
the second exactly.  A changed *input* digest means espresso, the
benchmark generator or a policy moved: re-record the file, it is not an
optimiser failure.

Tier-1 checks the rows that run fast; the full roster x policies matrix
(48 entries) runs as a script::

    PYTHONPATH=src python tests/synth/test_optimize_golden.py --check
    PYTHONPATH=src python tests/synth/test_optimize_golden.py --record
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.benchgen import TABLE1, mcnc_benchmark
from repro.core.policy import apply_policy
from repro.espresso.minimize import minimize_spec
from repro.synth.network import LogicNetwork
from repro.synth.optimize import optimize_network

GOLDEN_PATH = Path(__file__).with_name("optimize_golden.json")

POLICIES = {
    "cfactor": {"threshold": 0.55},
    "ranking": {"fraction": 1.0},
    "conventional": {},
    "complete": {},
}

TIER1_ROWS = ("bench", "fout", "p3", "p1", "exp", "exam", "t4")
"""Rows whose four flows to the optimised network take under a second each."""


def network_digest(network: LogicNetwork) -> str:
    """SHA-256 over the inputs, the nodes in order and the outputs."""
    h = hashlib.sha256()
    h.update(repr(network.primary_inputs).encode())
    for name, node in network.nodes.items():
        h.update(repr((name, node.fanins, node.cover.cubes.shape)).encode())
        h.update(node.cover.cubes.tobytes())
    h.update(repr(sorted(network.outputs.items())).encode())
    return h.hexdigest()


def digests(row: str, policy: str) -> tuple[str, str]:
    """(input digest, optimised digest) for one roster row and policy."""
    assigned, _ = apply_policy(mcnc_benchmark(row), policy, **POLICIES[policy])
    minimized = minimize_spec(assigned)
    network = LogicNetwork.from_covers(
        list(assigned.input_names), minimized.covers, list(assigned.output_names)
    )
    before = network_digest(network)
    optimize_network(network)
    return before, network_digest(network)


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _check(row: str, policy: str, golden: dict) -> str | None:
    recorded = golden[f"{row}/{policy}"]
    before, after = digests(row, policy)
    if before != recorded["input"]:
        return f"{row}/{policy}: input network changed; re-record {GOLDEN_PATH.name}"
    if after != recorded["optimized"]:
        return f"{row}/{policy}: optimize_network output differs from the golden digest"
    return None


@pytest.mark.parametrize("policy", list(POLICIES))
@pytest.mark.parametrize("row", TIER1_ROWS)
def test_optimized_network_matches_golden(row, policy):
    problem = _check(row, policy, _golden())
    assert problem is None, problem


def test_golden_covers_the_full_matrix():
    assert set(_golden()) == {
        f"{info.name}/{policy}" for info in TABLE1 for policy in POLICIES
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare every entry")
    mode.add_argument("--record", action="store_true", help="rewrite the golden file")
    args = parser.parse_args(argv)
    if args.record:
        entries = {}
        for info in TABLE1:
            for policy in POLICIES:
                before, after = digests(info.name, policy)
                entries[f"{info.name}/{policy}"] = {"input": before, "optimized": after}
                print(f"{info.name}/{policy}: recorded", flush=True)
        GOLDEN_PATH.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
        return 0
    golden = _golden()
    failures = 0
    for info in TABLE1:
        for policy in POLICIES:
            problem = _check(info.name, policy, golden)
            print(problem or f"{info.name}/{policy}: ok", flush=True)
            failures += problem is not None
    total = len(TABLE1) * len(POLICIES)
    print(f"{total - failures}/{total} entries match")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
