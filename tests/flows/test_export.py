"""Tests for CSV export of figure/table data."""

import csv

import pytest

from repro.cli import main
from repro.flows.export import (
    export_all,
    export_fraction_sweep,
    export_table1,
    export_table2,
    export_table3,
)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestExport:
    def test_table1(self, tmp_path):
        path = export_table1(tmp_path, ["bench", "fout"])
        rows = read_csv(path)
        assert rows[0][0] == "name"
        assert {row[0] for row in rows[1:]} == {"bench", "fout"}
        assert all(len(row) == 6 for row in rows)

    def test_fraction_sweep(self, tmp_path):
        path = export_fraction_sweep(tmp_path, ["bench"], [0.0, 1.0], "area")
        rows = read_csv(path)
        assert len(rows) == 3  # header + 2 fractions
        assert float(rows[1][2]) == pytest.approx(1.0)  # fraction 0 baseline

    def test_table2_roundtrip(self, tmp_path):
        """The exported CSV carries exactly the table2_rows measurements."""
        from repro.benchgen import mcnc_benchmark
        from repro.flows.sweep import table2_rows

        path = export_table2(tmp_path, ["bench"])
        rows = read_csv(path)
        assert rows[0] == [
            "name", "cf", "lcf_area_pct", "lcf_error_pct",
            "ranking_area_pct", "ranking_error_pct",
            "complete_area_pct", "complete_error_pct",
        ]
        data = dict(zip(rows[0], rows[1]))
        [row] = table2_rows([mcnc_benchmark("bench")])
        assert data["name"] == "bench"
        assert float(data["cf"]) == pytest.approx(row.cf, abs=1e-4)
        assert float(data["lcf_area_pct"]) == pytest.approx(row.lcf_area, abs=0.01)
        assert float(data["complete_error_pct"]) == pytest.approx(
            row.complete_error, abs=0.01
        )

    def test_table3(self, tmp_path):
        path = export_table3(tmp_path, ["bench"])
        rows = read_csv(path)
        header = rows[0]
        data = dict(zip(header, rows[1]))
        assert float(data["exact_lo"]) <= float(data["conv_rate"]) + 1e-9

    def test_export_all(self, tmp_path):
        paths = export_all(tmp_path, names=["bench"], fractions=[0.0, 1.0])
        assert len(paths) == 4
        for path in paths:
            assert path.exists()
            assert len(read_csv(path)) >= 2

    def test_cli_export(self, tmp_path, capsys):
        assert main(["export", str(tmp_path), "--benchmarks", "bench"]) == 0
        out = capsys.readouterr().out
        assert out.count("wrote") == 4


class TestTablesAgainstDirectFlows:
    """Table 2/3 rows equal values built from direct ``run_flow`` calls."""

    def test_table2_and_table3_match_direct_flows(self):
        from repro.benchgen import mcnc_benchmark
        from repro.core.cfactor import DEFAULT_THRESHOLD, cfactor_assignment
        from repro.core.complexity import spec_complexity_factor
        from repro.core.estimates import border_bounds, signal_probability_bounds
        from repro.core.reliability import exact_error_bounds
        from repro.flows.experiment import relative_metrics, run_flow
        from repro.flows.sweep import table2_rows, table3_rows

        spec = mcnc_benchmark("bench")
        conventional = run_flow(spec, "conventional", objective="area")
        lcf = run_flow(spec, "cfactor", threshold=DEFAULT_THRESHOLD,
                       objective="area")
        lcf_fraction = min(
            1.0, cfactor_assignment(spec, DEFAULT_THRESHOLD).fraction_of(spec)
        )
        ranking = run_flow(spec, "ranking", fraction=lcf_fraction,
                           objective="area")
        complete = run_flow(spec, "complete", objective="area")

        [row2] = table2_rows([spec])
        assert row2.benchmark == "bench"
        assert row2.cf == spec_complexity_factor(spec)
        for prefix, result in (("lcf", lcf), ("ranking", ranking),
                               ("complete", complete)):
            rel = relative_metrics(result, conventional)
            assert getattr(row2, f"{prefix}_area") == rel["area_improvement_pct"]
            assert getattr(row2, f"{prefix}_error") == rel["error_improvement_pct"]

        [row3] = table3_rows([spec])
        exact = exact_error_bounds(spec)
        assert row3.gates == conventional.gates
        assert row3.exact == exact
        assert row3.signal == signal_probability_bounds(spec)
        assert row3.border == border_bounds(spec)
        assert row3.conventional_rate == conventional.error_rate
        assert row3.lcf_rate == lcf.error_rate
        assert row3.conventional_diff_pct == pytest.approx(
            100.0 * (conventional.error_rate - exact.lo) / exact.lo
        )
        assert row3.lcf_diff_pct == pytest.approx(
            100.0 * (lcf.error_rate - exact.lo) / exact.lo
        )
