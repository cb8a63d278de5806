"""Integration tests for the experiment drivers.

Each experiment is exercised on a reduced benchmark set so the whole suite
remains fast.  ``benchmarks/test_bench_figures.py`` checks each figure's
headline paper bound on larger inputs, and full runs go through the command
line (``repro-experiments run all``, or ``run all --smoke`` for the
registered fast subsets; the CLI smoke suite lives in ``test_cli.py``).
"""

import hashlib
import json

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    speedup,
    table2,
)
from repro.machine import MachineConfig
from repro.runtime import EXPERIMENTS, get_experiment


@pytest.fixture(scope="module")
def quick_machine():
    return MachineConfig(name="default")


def result_digest(module, result) -> str:
    """sha256 of the experiment's canonical JSON result."""
    payload = json.dumps(module.to_experiment_result(result).to_dict(),
                         sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestTable2:
    def test_space_has_192_points(self):
        assert table2.run().design_points == 192

    def test_run_and_format(self):
        result = table2.run()
        assert result.design_points == 192
        text = table2.format_result(result)
        assert "192 design points" in text
        assert "branch predictor" in text
        assert result_digest(table2, result) == (
            "9c9490eb6138ed42d95aea8e32a5021e2ee8371dcca38478298ea044bda9cc5a")


class TestFigure3:
    def test_subset_accuracy(self, quick_machine):
        result = figure3.run(benchmarks=["sha", "qsort", "tiff2bw"], machine=quick_machine)
        assert len(result.rows) == 3
        assert result.summary.average_absolute_error < 0.12
        text = figure3.format_result(result)
        assert "sha" in text and "average |error|" in text


class TestFigure4:
    def test_width_scaling_shapes(self, quick_machine):
        result = figure4.run(benchmarks=("sha", "dijkstra"), widths=(1, 4),
                             machine=quick_machine)
        assert len(result.points) == 4
        sha_points = {p.width: p for p in result.for_benchmark("sha")}
        dijkstra_points = {p.width: p for p in result.for_benchmark("dijkstra")}
        # sha gains a lot from width, dijkstra much less (the paper's story).
        sha_gain = sha_points[1].stack.cpi / sha_points[4].stack.cpi
        dijkstra_gain = dijkstra_points[1].stack.cpi / dijkstra_points[4].stack.cpi
        assert sha_gain > dijkstra_gain
        # The dependency component grows with width for dijkstra.
        assert (dijkstra_points[4].stack.grouped().get("dependencies", 0.0)
                > dijkstra_points[1].stack.grouped().get("dependencies", 0.0))
        assert "Figure 4" in figure4.format_result(result)


class TestFigure5:
    def test_reduced_space_error_distribution(self):
        result = figure5.run(full=False, benchmarks=("sha", "qsort"))
        assert result.summary.count == result.design_points * 2
        assert result.summary.average_absolute_error < 0.10
        assert 0.0 <= result.fraction_below_6_percent <= 1.0
        assert result.cdf[-1][1] == pytest.approx(1.0)
        assert "Figure 5" in figure5.format_result(result)
        assert result_digest(figure5, result) == (
            "7e3db1ec9b460c3c1ca451e71dead888d9ec5129ffb4abd36091f58546d550d3")

    def test_error_cdf_within_paper_bounds(self):
        result = figure5.run(full=False, benchmarks=("sha", "dijkstra", "tiff2bw"))
        # Paper: 2.5% average, 9.6% max, 90% of points below 6%.
        assert result.summary.average_absolute_error < 0.08
        assert result.summary.maximum_absolute_error < 0.20
        assert result.fraction_below_6_percent > 0.5


class TestFigure6:
    def test_spec_like_suite(self, quick_machine):
        result = figure6.run(benchmarks=["mcf_like", "libquantum_like"],
                             machine=quick_machine)
        assert len(result.rows) == 2
        assert result.summary.average_absolute_error < 0.15
        # Memory-bound workloads have clearly higher CPI than typical MiBench.
        assert any(row.simulated_cpi > 2.0 for row in result.rows)
        assert "Figure 6" in figure6.format_result(result)


class TestFigure7:
    def test_in_order_vs_out_of_order(self, quick_machine):
        result = figure7.run(benchmarks=("dijkstra", "tiff2bw"), machine=quick_machine)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row.out_of_order.cpi < row.in_order.cpi
            in_order_groups = row.in_order.grouped()
            out_of_order_groups = row.out_of_order.grouped()
            assert in_order_groups.get("dependencies", 0.0) > 0.0
            assert out_of_order_groups.get("dependencies", 0.0) == 0.0
            assert row.out_of_order_simulated_cpi > 0
        assert "Figure 7" in figure7.format_result(result)


class TestFigure8:
    def test_compiler_variants(self, quick_machine):
        result = figure8.run(benchmarks=("sha", "tiffdither"), machine=quick_machine)
        assert len(result.rows) == 6
        for benchmark in ("sha", "tiffdither"):
            rows = {row.variant: row for row in result.for_benchmark(benchmark)}
            assert rows["O3"].normalized_cycles == pytest.approx(1.0)
            assert rows["nosched"].normalized_cycles > 1.0
            assert rows["unroll"].normalized_cycles <= rows["nosched"].normalized_cycles
        assert "Figure 8" in figure8.format_result(result)


class TestFigure9:
    def test_edp_gap_under_5_percent_on_adpcm_d_and_gsm_c(self):
        result = figure9.run(benchmarks=("adpcm_d", "gsm_c"), full=False)
        assert len(result.rows) == 2
        # Paper: the model's pick is the true optimum or within a few
        # percent EDP.
        for row in result.rows:
            assert row.edp_gap < 0.05

    def test_edp_exploration(self):
        result = figure9.run(benchmarks=("gsm_c",), full=False)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.edp_gap >= 0.0
        assert row.edp_gap < 0.10
        assert "Figure 9" in figure9.format_result(result)
        assert result_digest(figure9, result) == (
            "5fd328bc2f54203ab6137c6d5a41d1000edf8b120b6f2efcc60bab51652b5571")


class TestSpeedup:
    def test_model_is_orders_of_magnitude_faster(self):
        result = speedup.run(benchmark="sha", configurations=4)
        assert result.configurations == 4
        assert result.model_seconds < result.simulation_seconds
        assert result.speedup_model_only > 50
        assert "Speedup" in speedup.format_result(result)


class TestRegistry:
    def test_registry_contains_all_figures(self):
        expected = {
            "table2", "figure3", "figure4", "figure5", "figure6",
            "figure7", "figure8", "figure9", "speedup",
        }
        assert set(ALL_EXPERIMENTS) == expected
        assert set(EXPERIMENTS) == expected

    def test_design_space_experiments_declare_full_in_metadata(self):
        # The old CLI hardcoded `name in ("figure5", "figure9")`; the
        # registry metadata is now the single source of truth.
        assert get_experiment("figure5").supports("full")
        assert get_experiment("figure9").supports("full")
        for name in ("table2", "figure3", "figure4", "figure6", "figure7",
                     "figure8", "speedup"):
            assert not get_experiment(name).supports("full")

    def test_smoke_presets_use_declared_options_only(self):
        for name in EXPERIMENTS:
            spec = get_experiment(name)
            assert set(spec.smoke) <= set(spec.options)

    def test_speedup_is_flagged_non_deterministic(self):
        assert not get_experiment("speedup").deterministic
        assert get_experiment("figure3").deterministic
