"""Regenerate every table and figure of the paper and check its shape.

Each test runs one experiment driver on inputs larger than
``tests/test_experiments.py`` uses and asserts the headline property the
paper reports for that artefact:

* Figure 3 — model vs detailed simulation on the 19 MiBench-like kernels.
* Figure 4 — CPI stacks vs width; sha scales, dijkstra saturates.
* Figure 6 — SPEC-like memory-intensive validation.
* Figure 7 — in-order vs out-of-order CPI stacks.
* Figure 8 — compiler optimization cycle stacks.
* Section 5 — model vs detailed-simulation speedup.

Table 2's size and the Figure 5 and Figure 9 bounds live in
``tests/test_experiments.py``.
"""

from __future__ import annotations

from repro.experiments import (
    figure3,
    figure4,
    figure6,
    figure7,
    figure8,
    speedup,
)

#: Reduced benchmark selections keep this module to seconds while still
#: exercising every experiment end to end.  The CLI (``repro-experiments
#: --full``) runs the complete versions.
FIGURE7_BENCHMARKS = ("dijkstra", "patricia", "tiff2bw", "tiff2rgba")


def test_figure3_mibench_validation(default_machine):
    result = figure3.run(machine=default_machine)
    assert len(result.rows) == 19
    # Paper: 3.1% average, 8.4% max on the default configuration.
    assert result.summary.average_absolute_error < 0.08
    assert result.summary.maximum_absolute_error < 0.20


def test_figure4_width_scaling(default_machine):
    result = figure4.run(machine=default_machine)
    sha = {p.width: p.stack.cpi for p in result.for_benchmark("sha")}
    dijkstra = {p.width: p.stack.cpi for p in result.for_benchmark("dijkstra")}
    # sha benefits the most from superscalar processing, dijkstra the least.
    assert sha[1] / sha[4] > dijkstra[1] / dijkstra[4]


def test_figure6_spec_validation(default_machine):
    result = figure6.run(machine=default_machine)
    # Paper: 4.1% average, 10.7% max; SPEC CPIs are much higher than MiBench.
    assert result.summary.average_absolute_error < 0.10
    assert max(row.simulated_cpi for row in result.rows) > 2.0


def test_figure7_inorder_vs_ooo(default_machine):
    result = figure7.run(benchmarks=FIGURE7_BENCHMARKS, machine=default_machine)
    for row in result.rows:
        assert row.out_of_order.cpi < row.in_order.cpi
        assert row.in_order.grouped().get("dependencies", 0.0) > 0.0


def test_figure8_compiler_optimizations(default_machine):
    result = figure8.run(machine=default_machine)
    # Scheduling never hurts on these kernels and unrolling reduces N for
    # at least one of them (the paper's main observations).
    for name in ("sha", "tiffdither", "gsm_c"):
        rows = {row.variant: row for row in result.for_benchmark(name)}
        assert rows["nosched"].normalized_cycles >= 0.99
    assert any(
        row.variant == "unroll" and row.instructions < next(
            other.instructions for other in result.rows
            if other.benchmark == row.benchmark and other.variant == "O3"
        )
        for row in result.rows
    )


def test_speedup_model_vs_simulation():
    result = speedup.run(benchmark="sha")
    # Paper: three orders of magnitude once profiling is amortised.
    assert result.speedup_model_only > 100
