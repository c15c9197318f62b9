"""Tests for divisor extraction and the compile facade."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spec import FunctionSpec
from repro.core.truthtable import DC, OFF, ON
from repro.espresso.cube import Cover
from repro.synth.compile_ import compile_spec
from repro.synth.network import LogicNetwork
from repro.synth.optimize import extract_cubes, extract_kernels, optimize_network


class TestKernelExtraction:
    def test_extracts_shared_kernel(self):
        """Two nodes sharing (a + b): extraction creates a divisor node."""
        net = LogicNetwork(["a", "b", "c", "d"])
        net.add_node("t1", ["a", "b", "c"], Cover.from_strings(["1-1", "-11"]))  # c(a+b)
        net.add_node("t2", ["a", "b", "d"], Cover.from_strings(["1-1", "-11"]))  # d(a+b)
        net.set_output("y1", "t1")
        net.set_output("y2", "t2")
        before = net.to_spec()
        created = extract_kernels(net)
        assert created >= 1
        assert net.to_spec() == before  # function preserved

    def test_literal_count_never_increases(self):
        rng = np.random.default_rng(0)
        net = LogicNetwork([f"x{i}" for i in range(5)])
        for t in range(3):
            rows = rng.choice([0, 1, 2], size=(6, 5), p=[0.3, 0.3, 0.4]).astype(np.uint8)
            net.add_node(f"t{t}", [f"x{i}" for i in range(5)], Cover(rows, 5))
            net.set_output(f"y{t}", f"t{t}")
        before_lits = net.num_literals
        before_spec = net.to_spec()
        optimize_network(net)
        assert net.num_literals <= before_lits
        assert net.to_spec() == before_spec

    def test_cube_extraction(self):
        """Common cube ab in two nodes gets extracted."""
        net = LogicNetwork(["a", "b", "c", "d"])
        net.add_node("t1", ["a", "b", "c"], Cover.from_strings(["111"]))
        net.add_node("t2", ["a", "b", "d"], Cover.from_strings(["111"]))
        net.add_node("t3", ["a", "b", "d"], Cover.from_strings(["110"]))
        net.set_output("y1", "t1")
        net.set_output("y2", "t2")
        net.set_output("y3", "t3")
        before = net.to_spec()
        created = extract_cubes(net)
        assert created >= 1
        assert net.to_spec() == before

    @given(st.integers(0, 10**9))
    @settings(max_examples=15, deadline=None)
    def test_optimization_preserves_function(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        names = [f"x{i}" for i in range(n)]
        net = LogicNetwork(names)
        for t in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, 8))
            rows = rng.choice([0, 1, 2], size=(k, n), p=[0.3, 0.3, 0.4]).astype(np.uint8)
            net.add_node(f"t{t}", names, Cover(rows, n))
            net.set_output(f"y{t}", f"t{t}")
        before = net.to_spec()
        optimize_network(net)
        assert net.to_spec() == before


class TestStageCounters:
    def _flow_counters(self, spec):
        from repro.obs import metrics as obs_metrics

        with obs_metrics.delta_capture(keep_zero=True) as delta:
            result = compile_spec(spec, objective="delay")
        values = {
            name: data["value"]
            for name, data in delta.items()
            if name.split(".")[0] in ("optimize", "map", "tune")
        }
        return values, result

    def test_counters_published_and_repeatable(self):
        spec = FunctionSpec.from_sets(
            5, on_sets=[[1, 3, 5, 7, 9, 11, 27, 31], [3, 7, 11, 15, 19, 23, 27]],
            dc_sets=[[0, 2], [4]],
        )
        first, result = self._flow_counters(spec)
        second, _ = self._flow_counters(spec)
        assert first == second
        assert set(first) == {
            "optimize.kernel_extractions", "optimize.cube_extractions",
            "optimize.kernel_candidates", "optimize.divisions",
            "optimize.kernel_memo_hits", "optimize.literals_in",
            "optimize.literals_out", "map.matches_tried", "tune.rounds",
            "tune.cells_resized",
        }
        assert first["optimize.literals_out"] == result.literals
        assert first["optimize.literals_out"] <= first["optimize.literals_in"]
        assert first["map.matches_tried"] > 0
        assert first["tune.rounds"] == first["tune.cells_resized"] + 1


class TestCompile:
    def test_compile_simple_spec(self):
        spec = FunctionSpec.from_sets(4, on_sets=[[0, 1, 2, 3, 15]], dc_sets=[[7, 11]])
        result = compile_spec(spec, objective="area")
        assert result.area > 0
        assert result.num_gates > 0
        assert spec.equivalent_within_dc(result.implemented)

    def test_objectives_tradeoff(self):
        rng = np.random.default_rng(5)
        phases = rng.choice(
            np.array([OFF, ON, DC], np.uint8), size=(3, 256), p=[0.3, 0.3, 0.4]
        )
        spec = FunctionSpec(phases, name="tradeoff")
        delay_result = compile_spec(spec, objective="delay")
        power_result = compile_spec(spec, objective="power")
        assert delay_result.delay <= power_result.delay + 1e-9
        assert power_result.area <= delay_result.area + 1e-9

    def test_unknown_objective(self):
        spec = FunctionSpec.from_sets(2, on_sets=[[1]])
        with pytest.raises(ValueError, match="objective"):
            compile_spec(spec, objective="speed")

    def test_source_spec_error_rate(self):
        """Error rate must be measured against the *original* care set."""
        from repro.core.ranking import ranking_assignment

        rng = np.random.default_rng(6)
        phases = rng.choice(
            np.array([OFF, ON, DC], np.uint8), size=(2, 128), p=[0.3, 0.3, 0.4]
        )
        spec = FunctionSpec(phases, name="orig")
        assigned = ranking_assignment(spec, 1.0).apply(spec)
        result = compile_spec(assigned, objective="area", source_spec=spec)
        baseline = compile_spec(spec, objective="area")
        # Reliability assignment should not hurt, and typically helps.
        assert result.error_rate <= baseline.error_rate + 0.02

    def test_constant_output_spec(self):
        spec = FunctionSpec.from_sets(3, on_sets=[[], list(range(8))])
        result = compile_spec(spec, objective="area")
        assert result.num_gates == 0
        assert spec.equivalent_within_dc(result.implemented)

    def test_multi_output_sharing(self):
        """Identical outputs must share logic through extraction."""
        spec = FunctionSpec.from_sets(
            4, on_sets=[[1, 2, 3, 9], [1, 2, 3, 9]]
        )
        result = compile_spec(spec, objective="area")
        single = compile_spec(spec.single_output(0), objective="area")
        assert result.area < 2 * single.area
