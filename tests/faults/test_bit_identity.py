"""Differential tests: the fault-model layer must not move any number.

The refactor's acceptance bar — routing the paper's single-bit model
through the ``FaultModel`` abstraction (flows, pipeline, Monte-Carlo)
produces bit-identical results to the legacy hard-wired code path, over
an MCNC stand-in and a synthetic spec, under all four policies.
"""

import numpy as np
import pytest

from repro.benchgen import generate_spec, mcnc_benchmark
from repro.core.montecarlo import estimate_error_rate
from repro.core.reliability import error_rate
from repro.faults import SingleBitInput
from repro.flows.experiment import apply_policy, run_flow
from repro.synth.compile_ import compile_spec

POLICIES = [
    ("conventional", {}),
    ("ranking", {"fraction": 1.0}),
    ("cfactor", {"threshold": 0.55}),
    ("complete", {}),
]


def specs():
    return [
        mcnc_benchmark("bench"),
        generate_spec("syn6", 6, 3, target_cf=0.6, dc_fraction=0.5, seed=7),
    ]


@pytest.mark.parametrize("policy,knobs", POLICIES)
@pytest.mark.parametrize("spec", specs(), ids=lambda s: s.name)
class TestFlowBitIdentity:
    def test_explicit_single_bit_is_identical(self, spec, policy, knobs):
        default = run_flow(spec, policy, objective="area", **knobs)
        explicit = run_flow(
            spec, policy, objective="area", fault_model="single_bit", **knobs
        )
        assert explicit.error_rate == default.error_rate
        assert explicit.area == default.area
        assert explicit.literals == default.literals

    def test_matches_legacy_reliability(self, spec, policy, knobs):
        assigned, _ = apply_policy(spec, policy, **knobs)
        synthesis = compile_spec(assigned, objective="area", source_spec=spec)
        legacy = error_rate(synthesis.implemented, spec=spec)
        flow = run_flow(
            spec, policy, objective="area", fault_model=SingleBitInput(), **knobs
        )
        assert flow.error_rate == legacy


class TestMonteCarloBitIdentity:
    def test_same_seed_same_estimate(self):
        spec = generate_spec(
            "mcid", 6, 2, target_cf=0.6, dc_fraction=0.0, seed=3
        )
        tables = spec.truth_values()

        def evaluate(vectors):
            indices = np.zeros(vectors.shape[0], dtype=np.int64)
            for j in range(spec.num_inputs):
                indices |= vectors[:, j].astype(np.int64) << j
            return tables[:, indices]

        legacy = estimate_error_rate(
            evaluate, spec.num_inputs, samples=5000,
            rng=np.random.default_rng(17),
        )
        via_model = estimate_error_rate(
            evaluate, spec.num_inputs, samples=5000,
            rng=np.random.default_rng(17), fault_model=SingleBitInput(),
        )
        assert via_model == legacy  # rate, stderr and samples all equal

    def test_seeded_estimate_is_pinned(self):
        """The default draw's RNG consumption must never change: this is
        the estimate the historical inline single-bit draw produced."""
        spec = generate_spec(
            "mcid", 6, 2, target_cf=0.6, dc_fraction=0.0, seed=3
        )
        tables = spec.truth_values()

        def evaluate(vectors):
            indices = np.zeros(vectors.shape[0], dtype=np.int64)
            for j in range(spec.num_inputs):
                indices |= vectors[:, j].astype(np.int64) << j
            return tables[:, indices]

        estimate = estimate_error_rate(
            evaluate, spec.num_inputs, samples=5000,
            rng=np.random.default_rng(17),
        )
        assert (estimate.rate, estimate.stderr, estimate.samples) == (
            0.3995, 0.006926756095027456, 5000
        )
