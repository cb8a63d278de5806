"""Tests for the mechanistic in-order model: components, accuracy, ablations."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.kernels import PythonKernels
from repro.core import CPIComponent, InOrderMechanisticModel, predict_workload
from repro.core.model import predict_many
from repro.dse import default_design_space
from repro.machine import MachineConfig
from repro.pipeline import InOrderPipeline
from repro.profiler import profile_machine, profile_program
from repro.runtime.session import Session
from repro.trace.trace import Trace
from repro.workloads import get_workload, mibench_suite


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


#: MiBench traces of the Table-2 ablation checks.
ABLATION_BENCHMARKS = ["sha", "dijkstra", "qsort", "tiffdither", "gsm_c", "tiff2bw"]


@pytest.fixture(scope="module")
def ablation_points(default_machine):
    """(program, misses, simulated CPI) of each ablation trace."""
    points = []
    for workload in mibench_suite(ABLATION_BENCHMARKS):
        trace = workload.trace()
        points.append((profile_program(trace),
                       profile_machine(trace, default_machine),
                       InOrderPipeline(default_machine).run(trace).cpi))
    return points


def _average_error(points, machine, **model_flags) -> float:
    model = InOrderMechanisticModel(machine, **model_flags)
    errors = [abs(model.predict(program, misses).cpi - simulated) / simulated
              for program, misses, simulated in points]
    return sum(errors) / len(errors)


class TestAblationErrors:
    """Each ablation disables one ingredient of the model and measures how
    much the error against the simulator degrades on six MiBench traces:
    the taken-branch hit penalty (Section 3.3), the (W-1)/2W
    uniform-placement correction (Eqs. 3, 4, 6) and the inter-instruction
    dependency penalties (Section 3.5)."""

    @pytest.fixture(scope="class")
    def full_model_error(self, ablation_points, default_machine):
        return _average_error(ablation_points, default_machine)

    def test_full_model_average_error_under_8_percent(self, full_model_error):
        assert full_model_error < 0.08

    def test_without_dependencies_error_more_than_doubles(
            self, ablation_points, default_machine, full_model_error):
        error = _average_error(ablation_points, default_machine,
                               include_dependency_penalty=False)
        # Dropping the dependency model is catastrophic for in-order prediction.
        assert error > full_model_error * 2

    def test_without_taken_bubble_error_grows_under_10_points(
            self, ablation_points, default_machine, full_model_error):
        error = _average_error(ablation_points, default_machine,
                               include_taken_branch_penalty=False)
        # The taken-branch bubble is a second-order ingredient: removing it
        # moves the error by a few percentage points at most.
        assert error < full_model_error + 0.10

    def test_without_slot_correction_error_grows_under_10_points(
            self, ablation_points, default_machine, full_model_error):
        error = _average_error(ablation_points, default_machine,
                               include_slot_correction=False)
        assert error < full_model_error + 0.10


#: MiBench traces of the batched-model parity checks.
PARITY_WORKLOADS = ["sha", "dijkstra", "tiff2bw"]


@pytest.fixture(scope="module")
def table2_points():
    """name -> (program, miss profiles, machines) on the 192 Table-2 machines."""
    session = Session()
    machines = default_design_space().to_sweep(()).configurations()
    points = {}
    for name in PARITY_WORKLOADS:
        workload = session.workload(name)
        points[name] = (
            session.program_profile(workload),
            [session.miss_profile(workload, machine) for machine in machines],
            machines,
        )
    return points


def _bits(cycles, stack):
    """Cycles and an ordered stack, with floats as exact bit patterns."""
    return cycles.hex(), [(name, value.hex()) for name, value in stack.items()]


def _assert_matches_predict(columns, program, profiles, machines):
    """``predict_many``'s columns are ``predict`` point by point: cycles
    ``==`` and bit for bit, stack items in stacking order, and the cycles
    exactly the builtin ``sum`` of the stack."""
    cycles, stacks = columns
    assert len(cycles) == len(stacks) == len(machines)
    for point_cycles, stack, misses, machine in zip(cycles, stacks, profiles,
                                                    machines):
        scalar = InOrderMechanisticModel(machine).predict(program, misses)
        expected = [(component.value, value)
                    for component, value in scalar.stack.cycles.items()]
        assert point_cycles == scalar.cycles, machine
        assert list(stack.items()) == expected, machine
        assert _bits(point_cycles, stack) == _bits(scalar.cycles,
                                                   dict(expected)), machine
        assert point_cycles == sum(stack.values())


class TestPredictMany:
    """``predict_many`` is ``predict`` point by point, bit for bit."""

    @pytest.mark.parametrize("name", PARITY_WORKLOADS)
    def test_table2_machines(self, table2_points, name):
        program, profiles, machines = table2_points[name]
        _assert_matches_predict(predict_many(program, profiles, machines),
                                program, profiles, machines)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_table2_machines_per_kernel_backend(self, backend):
        """All 192 Table-2 machines x the parity workloads, with profiles
        built and the model called through each kernel backend."""
        from repro import accel

        if not accel.available_backends()[backend]:
            pytest.skip(f"{backend} kernel backend not installed")
        previous = accel.active_backend()
        accel.set_backend(backend)
        try:
            kernels = accel.get_kernels()
            session = Session()
            machines = default_design_space().to_sweep(()).configurations()
            for name in PARITY_WORKLOADS:
                # A fresh trace object: its engine passes start cold.
                workload = session.adopt_trace(name, "O3", Trace.from_payload(
                    get_workload(name).trace().to_payload()))
                program = session.program_profile(workload)
                profiles = session.miss_profiles(workload, machines)
                _assert_matches_predict(
                    kernels.predict_batch(program, profiles, machines),
                    program, profiles, machines)
        finally:
            accel.set_backend(previous)

    @settings(max_examples=40, deadline=None)
    @given(machines=st.lists(st.builds(
        MachineConfig,
        width=st.integers(1, 8),
        pipeline_stages=st.integers(5, 14),
        frequency_mhz=st.integers(100, 4000),
        mul_latency=st.integers(1, 64),
        div_latency=st.integers(1, 64),
        l1_hit_cycles=st.integers(1, 16),
        l2_ns=st.floats(0.0, 200.0),
        memory_ns=st.floats(0.0, 800.0),
        tlb_miss_ns=st.floats(0.0, 400.0),
    ), min_size=1, max_size=8))
    def test_drawn_machines(self, sha_profiles, machines):
        # The model reads counts, not geometry: one profile serves every
        # drawn timing.
        program, misses = sha_profiles
        profiles = [misses] * len(machines)
        _assert_matches_predict(predict_many(program, profiles, machines),
                                program, profiles, machines)

    def test_mismatched_columns_are_rejected(self, sha_profiles,
                                             default_machine):
        program, misses = sha_profiles
        with pytest.raises(ValueError, match="2 miss profiles for 1"):
            predict_many(program, [misses, misses], [default_machine])

    def test_numpy_backend_has_no_model_copy(self):
        numpy_kernels = pytest.importorskip(
            "repro.accel.np_kernels", reason="NumPy backend not installed"
        )
        assert "predict_batch" not in vars(numpy_kernels.NumpyKernels)

    def test_predict_batch_is_the_same_on_both_backends(self, table2_points):
        numpy_kernels = pytest.importorskip(
            "repro.accel.np_kernels", reason="NumPy backend not installed"
        )
        program, profiles, machines = table2_points["sha"]
        reference = PythonKernels().predict_batch(program, profiles, machines)
        vectorized = numpy_kernels.NumpyKernels().predict_batch(
            program, profiles, machines
        )
        assert ([_bits(*point) for point in zip(*reference)]
                == [_bits(*point) for point in zip(*vectorized)])


#: Machine latencies every model term charges as count x max(0, latency - c).
_LATENCY_FIELDS = {
    "mul_latency": st.integers(1, 64),
    "div_latency": st.integers(1, 64),
    "l1_hit_cycles": st.integers(1, 16),
    "l2_ns": st.floats(0.0, 200.0),
    "memory_ns": st.floats(0.0, 800.0),
    "tlb_miss_ns": st.floats(0.0, 400.0),
}


@pytest.fixture(scope="module")
def sha_profiles(sha_trace, default_machine):
    return (profile_program(sha_trace),
            profile_machine(sha_trace, default_machine))


class TestModelMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(
        base=st.fixed_dictionaries(_LATENCY_FIELDS),
        field=st.sampled_from(sorted(_LATENCY_FIELDS)),
        raise_by=st.floats(0.0, 100.0),
    )
    def test_raising_a_latency_never_lowers_cycles_or_a_component(
            self, sha_profiles, base, field, raise_by):
        program, misses = sha_profiles
        if isinstance(base[field], int):
            raise_by = round(raise_by)
        machine = MachineConfig(**base)
        slower = machine.with_(**{field: base[field] + raise_by})
        before = InOrderMechanisticModel(machine).predict(program, misses)
        after = InOrderMechanisticModel(slower).predict(program, misses)
        assert after.cycles >= before.cycles
        for component in CPIComponent:
            assert (after.stack.component(component)
                    >= before.stack.component(component)), component


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
