"""Tests for the opt-in ``complete_dc`` pipeline stage.

The stage's contract: it is absent from the default recipe, it never
changes the network's primary outputs when enabled, leaving it out
leaves the optimised network untouched and no report behind, and its
report artefact survives checkpoint round-trips.
"""

import numpy as np
import pytest

from repro.benchgen.synthetic import generate_spec
from repro.pipeline import DEFAULT_STAGES, Pipeline, default_config, get_stage
from repro.synth.flexibility import CompleteDcReport


@pytest.fixture(scope="module")
def spec():
    return generate_spec("dcstage", 7, 3, target_cf=0.6, dc_fraction=0.4, seed=11)


def _stages_with_complete_dc():
    stages = list(DEFAULT_STAGES)
    stages.insert(stages.index("optimize") + 1, "complete_dc")
    return stages


class TestRegistration:
    def test_registered_but_not_default(self):
        stage = get_stage("complete_dc")
        assert stage.inputs == ("network",)
        assert stage.outputs == ("network", "complete_dc_report")
        assert "complete_dc" not in DEFAULT_STAGES

    def test_declares_only_the_user_knobs(self):
        assert get_stage("complete_dc").params == (
            "dc_policy", "dc_vectors", "dc_window"
        )

    def test_describe_lists_params(self):
        pipe = Pipeline(_stages_with_complete_dc())
        entry = next(e for e in pipe.describe() if e["name"] == "complete_dc")
        assert "dc_policy" in entry["params"]
        assert "dc_window" in entry["params"]
        assert entry["summary"]  # docstring first line survives


class TestPrimaryOutputsPreserved:
    def test_implemented_spec_bit_identical(self, spec):
        """The measured implementation is the same function either way."""
        config = default_config("cfactor", objective="area")
        baseline = Pipeline.from_config(config).run(spec=spec)

        config = dict(config, stages=_stages_with_complete_dc())
        with_dc = Pipeline.from_config(config).run(spec=spec)

        report = with_dc.require("complete_dc_report")
        assert report.nodes_considered > 0
        assert report.dc_delta >= 0
        assert np.array_equal(
            baseline.require("implemented").phases,
            with_dc.require("implemented").phases,
        )

    def test_network_outputs_unchanged_at_stage_boundary(self, spec):
        config = dict(
            default_config("cfactor", objective="area"),
            stages=_stages_with_complete_dc(),
        )
        pipe = Pipeline.from_config(config)
        before = pipe.run(spec=spec, stop_after="optimize")
        after = pipe.run(spec=spec)
        assert np.array_equal(
            before.require("network").to_spec().phases,
            after.require("network").to_spec().phases,
        )


class TestAbsent:
    """Leaving the stage out of the pipeline is its off switch."""

    def test_absent_stage_leaves_no_report(self, spec):
        ctx = Pipeline.from_config(
            default_config("cfactor", objective="area")
        ).run(spec=spec)
        assert "complete_dc_report" not in ctx
        assert "synthesis" in ctx

    def test_absent_stage_maps_the_optimized_network(self, spec):
        config = default_config("ranking", fraction=0.5, objective="area")
        without = Pipeline.from_config(config).run(spec=spec)

        with_stage = dict(config, stages=_stages_with_complete_dc())
        optimized = Pipeline.from_config(with_stage).run(
            spec=spec, stop_after="optimize"
        )

        # The node covers map untouched, not just the POs.
        left = without.require("network")
        right = optimized.require("network")
        assert list(left.nodes) == list(right.nodes)
        for name in left.nodes:
            assert np.array_equal(
                left.nodes[name].cover.cubes, right.nodes[name].cover.cubes
            )


class TestCheckpointRoundTrip:
    def test_report_survives_resume(self, spec, tmp_path):
        config = dict(
            default_config("cfactor", objective="area"),
            stages=_stages_with_complete_dc(),
        )
        store = str(tmp_path / "ckpt")
        first = Pipeline.from_config(config, checkpoint=store).run(spec=spec)
        fresh = Pipeline.from_config(config, checkpoint=store)
        second = fresh.run(spec=spec)
        assert isinstance(second.require("complete_dc_report"), CompleteDcReport)
        assert second.require("complete_dc_report") == first.require(
            "complete_dc_report"
        )
        assert np.array_equal(
            first.require("implemented").phases,
            second.require("implemented").phases,
        )
