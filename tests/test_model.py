"""Tests for the mechanistic in-order model: components, accuracy, ablations."""

import time

import pytest

from repro.core import CPIComponent, InOrderMechanisticModel, predict_workload
from repro.machine import MachineConfig
from repro.pipeline import InOrderPipeline
from repro.profiler import profile_machine, profile_program
from repro.workloads import get_workload


class TestModelStructure:
    def test_base_component_is_n_over_w(self, sha_trace, default_machine):
        program = profile_program(sha_trace)
        misses = profile_machine(sha_trace, default_machine)
        result = InOrderMechanisticModel(default_machine).predict(program, misses)
        assert result.stack.component(CPIComponent.BASE) == pytest.approx(
            len(sha_trace) / default_machine.width
        )
        assert result.instructions == len(sha_trace)
        assert result.cycles >= len(sha_trace) / default_machine.width
        assert result.ipc == pytest.approx(1.0 / result.cpi)
        assert result.execution_time_seconds > 0

    def test_mul_component_tracks_instruction_count(self, default_machine):
        workload = get_workload("tiff2bw")
        trace = workload.trace()
        program = profile_program(trace)
        misses = profile_machine(trace, default_machine)
        result = InOrderMechanisticModel(default_machine).predict(program, misses)
        expected = program.multiplies * (
            (default_machine.mul_latency - 1) - 3 / 8
        )
        assert result.stack.component(CPIComponent.MUL) == pytest.approx(expected)

    def test_width_one_has_no_dependency_or_correction(self, sha_trace):
        machine = MachineConfig(width=1, name="scalar")
        program = profile_program(sha_trace)
        misses = profile_machine(sha_trace, machine)
        result = InOrderMechanisticModel(machine).predict(program, misses)
        assert result.stack.component(CPIComponent.DEP_UNIT) == 0.0
        assert result.stack.component(CPIComponent.DEP_LONG) == 0.0
        # Load-use bubbles exist even on a scalar pipeline.
        assert result.stack.component(CPIComponent.DEP_LOAD) >= 0.0
        assert result.cpi >= 1.0

    def test_bpred_miss_component_uses_frontend_depth(self, dijkstra_trace):
        shallow = MachineConfig(pipeline_stages=5, name="shallow")
        deep = MachineConfig(pipeline_stages=9, name="deep")
        program = profile_program(dijkstra_trace)
        shallow_result = InOrderMechanisticModel(shallow).predict(
            program, profile_machine(dijkstra_trace, shallow)
        )
        deep_result = InOrderMechanisticModel(deep).predict(
            program, profile_machine(dijkstra_trace, deep)
        )
        assert (deep_result.stack.component(CPIComponent.BPRED_MISS)
                > shallow_result.stack.component(CPIComponent.BPRED_MISS))

    def test_l1_hit_extra_component_when_l1_is_slow(self, sha_trace):
        machine = MachineConfig(l1_hit_cycles=2, name="slow_l1")
        program = profile_program(sha_trace)
        misses = profile_machine(sha_trace, machine)
        result = InOrderMechanisticModel(machine).predict(program, misses)
        assert result.stack.component(CPIComponent.L1_HIT_EXTRA) > 0

    def test_predict_takes_under_10ms(self, sha_trace, default_machine):
        """The paper's key speed claim: evaluating the formulas is instantaneous."""
        program = profile_program(sha_trace)
        misses = profile_machine(sha_trace, default_machine)
        model = InOrderMechanisticModel(default_machine)
        calls = 50
        start = time.perf_counter()
        for _ in range(calls):
            result = model.predict(program, misses)
        assert (time.perf_counter() - start) / calls < 0.01
        assert result.cpi > 0

    def test_predict_trace_convenience(self, sha_trace, default_machine):
        direct = InOrderMechanisticModel(default_machine).predict_trace(sha_trace)
        assert direct.cpi > 0

    def test_predict_workload_reuses_program_profile(self, sha_workload, default_machine):
        program = profile_program(sha_workload.trace())
        with_profile = predict_workload(sha_workload, default_machine, program=program)
        without_profile = predict_workload(sha_workload, default_machine)
        assert with_profile.cpi == pytest.approx(without_profile.cpi)


class TestModelAblations:
    def test_taken_branch_ablation(self, dijkstra_trace, default_machine):
        program = profile_program(dijkstra_trace)
        misses = profile_machine(dijkstra_trace, default_machine)
        with_penalty = InOrderMechanisticModel(default_machine).predict(program, misses)
        without_penalty = InOrderMechanisticModel(
            default_machine, include_taken_branch_penalty=False
        ).predict(program, misses)
        assert with_penalty.cycles > without_penalty.cycles
        assert without_penalty.stack.component(CPIComponent.BPRED_TAKEN) == 0.0

    def test_slot_correction_ablation(self, sha_trace, default_machine):
        program = profile_program(sha_trace)
        misses = profile_machine(sha_trace, default_machine)
        corrected = InOrderMechanisticModel(default_machine).predict(program, misses)
        uncorrected = InOrderMechanisticModel(
            default_machine, include_slot_correction=False
        ).predict(program, misses)
        # Dropping the (W-1)/2W correction makes every penalty slightly larger.
        assert uncorrected.cycles >= corrected.cycles

    def test_dependency_ablation(self, dijkstra_trace, default_machine):
        program = profile_program(dijkstra_trace)
        misses = profile_machine(dijkstra_trace, default_machine)
        full = InOrderMechanisticModel(default_machine).predict(program, misses)
        no_deps = InOrderMechanisticModel(
            default_machine, include_dependency_penalty=False
        ).predict(program, misses)
        assert full.cycles > no_deps.cycles
        assert no_deps.stack.component(CPIComponent.DEP_UNIT) == 0.0


class TestModelAccuracy:
    """Integration: the model must track the detailed simulator closely."""

    @pytest.mark.parametrize("name", ["sha", "dijkstra", "tiff2bw", "qsort", "gsm_c"])
    def test_default_config_error_within_bounds(self, name, default_machine):
        workload = get_workload(name)
        simulated = InOrderPipeline(default_machine).run(workload.trace())
        model = predict_workload(workload, default_machine)
        error = abs(model.cpi - simulated.cpi) / simulated.cpi
        assert error < 0.15, f"{name}: model {model.cpi:.3f} vs sim {simulated.cpi:.3f}"

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_width_sweep_error_within_bounds(self, width, default_machine):
        machine = default_machine.with_(width=width, name=f"w{width}")
        workload = get_workload("tiffdither")
        simulated = InOrderPipeline(machine).run(workload.trace())
        model = predict_workload(workload, machine)
        error = abs(model.cpi - simulated.cpi) / simulated.cpi
        assert error < 0.15

    def test_model_tracks_width_scaling_trend(self, default_machine):
        """CPI trends across width must match the simulator (Figure 4)."""
        workload = get_workload("sha")
        model_cpis, simulated_cpis = [], []
        for width in (1, 2, 4):
            machine = default_machine.with_(width=width, name=f"w{width}")
            model_cpis.append(predict_workload(workload, machine).cpi)
            simulated_cpis.append(InOrderPipeline(machine).run(workload.trace()).cpi)
        assert model_cpis[0] > model_cpis[1] > model_cpis[2]
        assert simulated_cpis[0] > simulated_cpis[1] > simulated_cpis[2]

    def test_dijkstra_saturates_with_width(self, default_machine):
        """Dependencies keep dijkstra from benefiting much beyond 2-wide."""
        workload = get_workload("dijkstra")
        cpi2 = predict_workload(workload, default_machine.with_(width=2, name="w2")).cpi
        cpi4 = predict_workload(workload, default_machine.with_(width=4, name="w4")).cpi
        assert (cpi2 - cpi4) / cpi2 < 0.10
