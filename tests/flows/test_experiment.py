"""Tests for the experiment flows."""

import numpy as np
import pytest

from repro.core.spec import FunctionSpec
from repro.core.truthtable import DC, OFF, ON
from repro.flows.experiment import POLICIES, apply_policy, relative_metrics, run_flow
from repro.flows.report import format_table
from repro.flows.sweep import (
    fraction_sweep,
    run_points,
    table2_rows,
    table3_rows,
)


@pytest.fixture(scope="module")
def small_spec() -> FunctionSpec:
    rng = np.random.default_rng(77)
    phases = rng.choice(
        np.array([OFF, ON, DC], dtype=np.uint8), size=(3, 128), p=[0.25, 0.25, 0.5]
    )
    return FunctionSpec(phases, name="small")


class TestApplyPolicy:
    def test_conventional_is_identity(self, small_spec):
        assigned, assignment = apply_policy(small_spec, "conventional")
        assert assigned == small_spec
        assert len(assignment) == 0

    def test_complete_assigns_everything(self, small_spec):
        assigned, assignment = apply_policy(small_spec, "complete")
        assert assigned.is_fully_specified
        assert assignment.fraction_of(small_spec) == pytest.approx(1.0)

    def test_ranking_fraction(self, small_spec):
        half, _ = apply_policy(small_spec, "ranking", fraction=0.5)
        full, _ = apply_policy(small_spec, "ranking", fraction=1.0)
        remaining_half = int(np.count_nonzero(half.phases == DC))
        remaining_full = int(np.count_nonzero(full.phases == DC))
        assert remaining_full < remaining_half

    def test_unknown_policy(self, small_spec):
        with pytest.raises(ValueError, match="unknown policy"):
            apply_policy(small_spec, "mystery")

    def test_policy_roster(self):
        assert POLICIES == ("conventional", "ranking", "cfactor", "complete")


class TestRunFlow:
    def test_complete_reaches_exact_minimum(self, small_spec):
        from repro.core.reliability import exact_error_bounds

        result = run_flow(small_spec, "complete", objective="area")
        assert result.error_rate == pytest.approx(
            exact_error_bounds(small_spec).lo, abs=1e-12
        )

    def test_error_rate_ordering(self, small_spec):
        """Complete <= cfactor/ranking <= within exact bounds."""
        from repro.core.reliability import exact_error_bounds

        bounds = exact_error_bounds(small_spec)
        complete = run_flow(small_spec, "complete", objective="area")
        conventional = run_flow(small_spec, "conventional", objective="area")
        assert complete.error_rate <= conventional.error_rate + 1e-12
        assert bounds.lo - 1e-12 <= conventional.error_rate <= bounds.hi + 1e-12

    def test_fields_populated(self, small_spec):
        result = run_flow(small_spec, "ranking", fraction=0.5, objective="delay")
        assert result.policy == "ranking"
        assert result.parameter == 0.5
        assert result.area > 0
        assert result.delay > 0
        assert result.power > 0
        assert 0 <= result.fraction_assigned <= 1

    def test_relative_metrics(self, small_spec):
        base = run_flow(small_spec, "conventional", objective="area")
        rel = relative_metrics(base, base)
        assert rel["area"] == pytest.approx(1.0)
        assert rel["error_improvement_pct"] == pytest.approx(0.0)


class TestSweeps:
    def test_fraction_sweep_monotone_error(self, small_spec):
        results = fraction_sweep(small_spec, [0.0, 0.5, 1.0], objective="area")
        rates = [r.error_rate for r in results]
        # More reliability assignment should not increase the error rate
        # beyond minimiser noise.
        assert rates[-1] <= rates[0] + 0.02

    def test_cfactor_points_fraction_monotone(self, small_spec):
        results = run_points(
            [(small_spec, {"policy": "cfactor", "threshold": t})
             for t in (0.3, 0.6, 0.9)],
            objective="area",
        )
        fractions = [r.fraction_assigned for r in results]
        assert fractions == sorted(fractions)

    def test_family_tradeoff_matches_direct_flows(self):
        from repro.benchgen.synthetic import generate_spec
        from repro.flows.sweep import family_tradeoff
        from repro.obs import metrics_snapshot, reset_metrics

        fractions = [0.0, 0.5, 1.0]
        reset_metrics()
        try:
            trajectories = family_tradeoff(
                num_inputs=6, num_outputs=2, complexity_factors=[0.5],
                functions_per_family=2, fractions=fractions, objective="area",
            )
            runs = metrics_snapshot()["flow.runs"]["value"]
        finally:
            reset_metrics()
        members = [
            generate_spec(f"fam0.50_{index}", 6, 2, target_cf=0.5,
                          dc_fraction=0.6, seed=500 + index)
            for index in range(2)
        ]
        relative = []
        for spec in members:
            baseline = run_flow(spec, "ranking", fraction=0.0, objective="area")
            assert baseline.area != 0
            relative.append([
                relative_metrics(
                    run_flow(spec, "ranking", fraction=f, objective="area"),
                    baseline,
                )
                for f in fractions
            ])
        assert runs == 2 * len(fractions)  # one baseline plus two fractions each
        assert list(trajectories) == [0.5]
        for index, point in enumerate(trajectories[0.5]):
            assert point["fraction"] == fractions[index]
            assert point["area"] == float(np.mean(
                [rel[index]["area"] for rel in relative]))
            assert point["error_rate"] == float(np.mean(
                [rel[index]["error_rate"] for rel in relative]))

    def test_table2_rows(self, small_spec):
        [row] = table2_rows([small_spec])
        assert row.benchmark == "small"
        # Complete assignment is the reliability ceiling.
        assert row.complete_error >= row.lcf_error - 5.0

    def test_table3_rows(self, small_spec):
        [row] = table3_rows([small_spec])
        assert row.exact.lo <= row.conventional_rate + 1e-9
        assert row.conventional_diff_pct >= -1e-9
        assert row.lcf_rate <= row.conventional_rate + 0.02
        assert row.gates > 0


class TestSampledErrorRate:
    def test_inverter_chain_always_propagates(self):
        from repro.flows.experiment import sampled_error_rate
        from repro.synth.library import generic_70nm_library
        from repro.synth.netlist import GateInstance, MappedNetlist

        lib = generic_70nm_library()
        netlist = MappedNetlist(lib, ["a"])
        inv = lib.cell("INV_X1")
        netlist.gates.append(GateInstance(inv, "n0", ["a"]))
        netlist.gates.append(GateInstance(inv, "n1", ["n0"]))
        netlist.outputs["y"] = "n1"
        estimate = sampled_error_rate(netlist, samples=500)
        # The only pin is the single input of a buffer: every flip shows.
        assert estimate.rate == pytest.approx(1.0)
        assert estimate.samples == 500

    def test_matches_exhaustive_on_synthesised_circuit(self, small_spec):
        from repro.flows.experiment import sampled_error_rate
        from repro.synth.compile_ import compile_spec

        result = compile_spec(small_spec, objective="area")
        netlist = result.netlist
        estimate = sampled_error_rate(
            netlist, samples=30_000, rng=np.random.default_rng(21)
        )
        # An unfiltered sampled rate over the uniform input distribution
        # must sit near the per-pin average propagation probability; the
        # synthesised netlist is small enough that the estimate is tight.
        lo, hi = estimate.confidence_interval(z=5.0)
        assert 0.0 <= lo <= hi <= 1.0
        assert estimate.samples == 30_000


class TestReport:
    def test_format_table(self):
        text = format_table(
            ["name", "value"],
            [["alpha", 1.23456], ["b", 7]],
            precision=2,
        )
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.23" in lines[2]
        assert "7" in lines[3]

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text
