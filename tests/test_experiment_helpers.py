"""Tests for experiment helpers (table formatting, benchmark selections)
and for the workload registry's optimization switch."""

import pytest

from repro.experiments import common
from repro.experiments.speedup import SpeedupResult
from repro.profiler import collect_dependencies
from repro.runtime.reporters import format_table
from repro.workloads import get_workload, mibench_suite
from repro.workloads.registry import MIBENCH_BUILDERS


class TestFormatTable:
    def test_alignment_and_floats(self):
        text = format_table(
            ("name", "value"),
            [("alpha", 1.23456), ("b", 2.0)],
        )
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "-----" in lines[1]
        assert "1.235" in lines[2]
        assert "2.000" in lines[3]
        # Every row is padded to the same width.
        assert len(set(len(line.rstrip()) for line in lines[:2])) <= 2

    def test_custom_float_format(self):
        text = format_table(("x",), [(0.123456,)], float_format="{:.1f}")
        assert "0.1" in text

    def test_non_float_cells_passed_through(self):
        text = format_table(("a", "b"), [(1, "yes")])
        assert "1" in text and "yes" in text


class TestBenchmarkSelections:
    def test_figure_selections_reference_real_workloads(self):
        for selection in (
            common.FIGURE4_BENCHMARKS,
            common.FIGURE7_BENCHMARKS,
            common.FIGURE8_BENCHMARKS,
            common.FIGURE9_BENCHMARKS,
            common.FIGURE5_FAST_BENCHMARKS,
        ):
            for name in selection:
                assert name in MIBENCH_BUILDERS

    def test_figure7_covers_13_benchmarks_like_the_paper(self):
        assert len(common.FIGURE7_BENCHMARKS) == 13

    def test_default_machine_is_paper_default(self):
        machine = common.default_machine()
        assert machine.width == 4
        assert machine.pipeline_stages == 9


class TestSpeedupResult:
    def test_derived_ratios(self):
        result = SpeedupResult(
            benchmark="sha",
            configurations=10,
            profiling_seconds=1.0,
            model_seconds=0.001,
            simulation_seconds=2.0,
        )
        assert result.speedup_model_only == pytest.approx(2000.0)
        assert result.speedup_including_profiling == pytest.approx(2.0 / 1.001)

    def test_zero_division_guard(self):
        result = SpeedupResult("sha", 1, 0.0, 0.0, 1.0)
        assert result.speedup_model_only > 0
        assert result.speedup_including_profiling > 0


class TestRegistryOptimizationSwitch:
    def test_optimized_and_raw_variants_are_cached_separately(self):
        optimized = get_workload("sha", optimize=True)
        raw = get_workload("sha", optimize=False)
        assert optimized is not raw
        assert get_workload("sha", optimize=True) is optimized
        assert get_workload("sha", optimize=False) is raw

    def test_optimized_kernel_has_fewer_adjacent_dependencies(self):
        raw_trace = get_workload("tiff2bw", optimize=False).trace()
        optimized_trace = get_workload("tiff2bw", optimize=True).trace()
        raw_deps = collect_dependencies(raw_trace)
        optimized_deps = collect_dependencies(optimized_trace)
        assert optimized_deps.count("unit", 1) <= raw_deps.count("unit", 1)
        # Scheduling reorders but never adds or removes instructions.
        assert len(raw_trace) == len(optimized_trace)

    def test_suites_use_optimized_kernels(self):
        workload = mibench_suite(["sha"])[0]
        assert workload is get_workload("sha", optimize=True)

    def test_optimized_program_keeps_name(self):
        workload = get_workload("dijkstra", optimize=True)
        assert workload.program.name == "dijkstra"
        assert workload.name == "dijkstra"
