"""Tests for the out-of-order pipeline simulator and interval model."""

import hashlib

import pytest

from repro.core import InOrderMechanisticModel, OutOfOrderIntervalModel
from repro.core.cpi_stack import CPIComponent
from repro.core.ooo import OutOfOrderModelConfig
from repro.dse.space import reduced_design_space
from repro.isa import ProgramBuilder
from repro.machine import MachineConfig
from repro.pipeline import InOrderPipeline, OutOfOrderPipeline
from repro.pipeline.ooo import OutOfOrderConfig
from repro.profiler import profile_machine, profile_program
from repro.trace import FunctionalSimulator
from repro.workloads import get_workload
from repro.workloads.registry import suite_names


def fast_machine(**overrides) -> MachineConfig:
    defaults = dict(width=4, pipeline_stages=5, name="ooo-test",
                    l2_ns=1.0, memory_ns=2.0, tlb_miss_ns=1.0)
    defaults.update(overrides)
    return MachineConfig(**defaults)


class TestOutOfOrderPipeline:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            OutOfOrderConfig(rob_size=0)
        with pytest.raises(ValueError):
            OutOfOrderConfig(mshrs=0)

    def test_independent_multiplies_overlap(self):
        """The key difference from in-order: independent long ops overlap."""
        machine = fast_machine(mul_latency=4)
        b = ProgramBuilder("muls")
        for index in range(60):
            b.muli(1 + (index % 8), 0, 3)
        b.halt()
        trace = FunctionalSimulator(b.build()).run()
        in_order = InOrderPipeline(machine).run(trace)
        out_of_order = OutOfOrderPipeline(machine).run(trace)
        assert out_of_order.cycles < in_order.cycles * 0.6

    def test_dependent_chain_not_accelerated(self):
        machine = fast_machine()
        b = ProgramBuilder("chain")
        b.li(1, 0)
        for _ in range(100):
            b.addi(1, 1, 1)
        b.halt()
        trace = FunctionalSimulator(b.build()).run()
        in_order = InOrderPipeline(machine).run(trace)
        out_of_order = OutOfOrderPipeline(machine).run(trace)
        # A serial dependence chain is the dataflow limit for both cores.
        assert out_of_order.cycles >= 100
        assert out_of_order.cycles <= in_order.cycles + 10

    def test_ooo_not_slower_on_real_workloads(self, default_machine):
        trace = get_workload("tiffdither").trace()
        in_order = InOrderPipeline(default_machine).run(trace)
        out_of_order = OutOfOrderPipeline(default_machine).run(trace)
        assert out_of_order.cycles <= in_order.cycles
        assert out_of_order.instructions == in_order.instructions

    def test_rob_size_matters(self):
        machine = fast_machine(memory_ns=100.0)
        trace = get_workload("mcf_like").trace()
        small_rob = OutOfOrderPipeline(machine, OutOfOrderConfig(rob_size=8)).run(trace)
        large_rob = OutOfOrderPipeline(machine, OutOfOrderConfig(rob_size=128)).run(trace)
        assert large_rob.cycles <= small_rob.cycles

    def test_mshr_limit_throttles_mlp(self):
        machine = fast_machine(memory_ns=100.0)
        trace = get_workload("tiff2rgba").trace()
        one_mshr = OutOfOrderPipeline(machine, OutOfOrderConfig(mshrs=1)).run(trace)
        many_mshrs = OutOfOrderPipeline(machine, OutOfOrderConfig(mshrs=16)).run(trace)
        assert many_mshrs.cycles <= one_mshr.cycles

    def test_mispredictions_counted(self, default_machine):
        trace = get_workload("patricia").trace()
        result = OutOfOrderPipeline(default_machine).run(trace)
        assert result.mispredictions > 0
        assert result.cpi > 0
        assert result.ipc == pytest.approx(1.0 / result.cpi)

    def test_pinned_cycle_digest(self):
        """The column-driven core matches the object-replay one it replaced:
        sha256 over ``"<workload> <machine> <cycles> <mispredictions>\\n"``
        for the 19 MiBench workloads x every 6th reduced-space point."""
        digest = hashlib.sha256()
        machines = reduced_design_space().to_sweep(()).configurations()[::6]
        for name in suite_names("mibench"):
            trace = get_workload(name).trace()
            for machine in machines:
                result = OutOfOrderPipeline(machine).run(trace)
                digest.update(f"{name} {machine.name} {result.cycles} "
                              f"{result.mispredictions}\n".encode())
        assert digest.hexdigest() == (
            "a9c346c5694efc4b0b1fb7099869896f9ece561eee792881528e2c6fa041694b")


class TestOutOfOrderIntervalModel:
    def _stacks(self, name, machine):
        trace = get_workload(name).trace()
        program = profile_program(trace)
        misses = profile_machine(trace, machine)
        in_order = InOrderMechanisticModel(machine).predict(program, misses)
        out_of_order = OutOfOrderIntervalModel(machine).predict(program, misses)
        return in_order, out_of_order

    def test_dependencies_hidden_out_of_order(self, default_machine):
        in_order, out_of_order = self._stacks("dijkstra", default_machine)
        assert in_order.stack.component(CPIComponent.DEP_UNIT) > 0
        assert out_of_order.stack.component(CPIComponent.DEP_UNIT) == 0.0
        assert out_of_order.cpi < in_order.cpi

    def test_muldiv_hidden_out_of_order(self, default_machine):
        in_order, out_of_order = self._stacks("tiff2bw", default_machine)
        assert in_order.stack.component(CPIComponent.MUL) > 0
        assert out_of_order.stack.component(CPIComponent.MUL) == 0.0

    def test_branch_cost_larger_out_of_order(self, default_machine):
        """Per-misprediction cost includes the resolution time out of order."""
        in_order, out_of_order = self._stacks("patricia", default_machine)
        in_order_bpred = in_order.stack.component(CPIComponent.BPRED_MISS)
        out_of_order_bpred = out_of_order.stack.component(CPIComponent.BPRED_MISS)
        assert out_of_order_bpred > in_order_bpred

    def test_icache_component_identical(self, default_machine):
        """I-cache miss penalty only depends on the miss latency (Section 6.1)."""
        in_order, out_of_order = self._stacks("sha", default_machine)
        in_order_il2 = in_order.stack.component(CPIComponent.IL2_MISS)
        out_of_order_il2 = out_of_order.stack.component(CPIComponent.IL2_MISS)
        assert out_of_order_il2 == pytest.approx(in_order_il2, rel=0.05)

    def test_dl2_component_smaller_out_of_order(self, default_machine):
        """Memory-level parallelism shrinks the data L2 miss component."""
        in_order, out_of_order = self._stacks("tiff2rgba", default_machine)
        assert (out_of_order.stack.component(CPIComponent.DL2_MISS)
                <= in_order.stack.component(CPIComponent.DL2_MISS))

    def test_resolution_time_configurable(self, default_machine):
        trace = get_workload("patricia").trace()
        program = profile_program(trace)
        misses = profile_machine(trace, default_machine)
        fast_resolve = OutOfOrderIntervalModel(
            default_machine, OutOfOrderModelConfig(branch_resolution_cycles=1.0)
        ).predict(program, misses)
        slow_resolve = OutOfOrderIntervalModel(
            default_machine, OutOfOrderModelConfig(branch_resolution_cycles=20.0)
        ).predict(program, misses)
        assert slow_resolve.cpi > fast_resolve.cpi

    def test_default_resolution_scales_with_rob(self):
        config = OutOfOrderModelConfig(rob_size=64)
        assert config.resolution(width=4) == pytest.approx(8.0)
        explicit = OutOfOrderModelConfig(branch_resolution_cycles=5.0)
        assert explicit.resolution(width=4) == 5.0
