"""Unit tests for the cycle-accurate in-order pipeline simulator.

Absolute cycle counts include cold-cache effects, so most tests compare two
runs that differ in exactly one property (dependencies, latencies, width,
prediction) and check the difference against the microarchitectural
expectation.

The simulator is driven from the kernel backend's miss-event columns; the
parity tests at the end hold it bit-identical to the object-replay oracle
in ``inorder_oracle.py``, hold the two kernel backends' event columns
equal, and pin a digest of its cycle counts over the reduced design space.
The batch tests hold ``simulate_many`` equal to per-point ``run``, hold
the events a backend computes with one ``shared`` memo across a Table-2
sweep equal to the reference's, check that the event and timing keys miss
no machine parameter, and pin the work
a Table-2 sweep, a warm Figure 3 rerun and ``speedup`` cost.
"""

import hashlib
from collections import Counter

import pytest
from inorder_oracle import run_oracle

from repro.accel import PythonKernels, get_kernels
from repro.branch.predictors import PREDICTORS, BranchPredictor, predictor_names
from repro.dse.space import default_design_space, reduced_design_space
from repro.isa import ProgramBuilder
from repro.machine import MachineConfig
from repro.pipeline import InOrderPipeline, inorder, simulate_many
from repro.profiler import profile_machine
from repro.runtime import registry
from repro.runtime.session import Session
from repro.trace import FunctionalSimulator, MemoryImage
from repro.trace.trace import Trace
from repro.workloads import get_workload
from repro.workloads.registry import suite_names
from repro.workloads.synthetic import SyntheticWorkloadSpec, generate_synthetic_trace


def run_trace(builder: ProgramBuilder, machine: MachineConfig,
              memory: MemoryImage | None = None):
    trace = FunctionalSimulator(builder.build(), memory=memory).run()
    return InOrderPipeline(machine).run(trace), trace


def straightline_machine(**overrides) -> MachineConfig:
    """A test machine with near-free memory so cold compulsory misses do not
    drown out the effect each test isolates (dependencies, latencies, ...)."""
    defaults = dict(width=4, pipeline_stages=5, name="test",
                    l2_ns=1.0, memory_ns=2.0, tlb_miss_ns=1.0)
    defaults.update(overrides)
    return MachineConfig(**defaults)


def chain_program(length: int) -> ProgramBuilder:
    """``length`` dependent unit-latency instructions (a serial chain)."""
    b = ProgramBuilder("chain")
    b.li(1, 0)
    for _ in range(length):
        b.addi(1, 1, 1)
    b.halt()
    return b


def independent_program(length: int) -> ProgramBuilder:
    """``length`` mutually independent unit-latency instructions."""
    b = ProgramBuilder("independent")
    for index in range(length):
        b.li(1 + (index % 8), index)
    b.halt()
    return b


class TestBasicProperties:
    def test_cycles_at_least_n_over_w(self):
        machine = straightline_machine()
        result, trace = run_trace(independent_program(64), machine)
        assert result.cycles >= len(trace) / machine.width
        assert result.instructions == len(trace)
        assert result.cpi == pytest.approx(result.cycles / len(trace))
        assert result.ipc == pytest.approx(1.0 / result.cpi)

    def test_execution_time_uses_frequency(self):
        machine = straightline_machine(frequency_mhz=1000)
        result, _ = run_trace(independent_program(32), machine)
        assert result.execution_time_seconds == pytest.approx(result.cycles * 1e-9)

    def test_wider_machine_is_not_slower(self):
        narrow = straightline_machine(width=1)
        wide = straightline_machine(width=4)
        program = independent_program(128)
        narrow_cycles = run_trace(program, narrow)[0].cycles
        wide_cycles = run_trace(independent_program(128), wide)[0].cycles
        assert wide_cycles <= narrow_cycles

    def test_miss_counts_match_profiler(self, sha_trace, default_machine):
        """The detailed simulator and the profiler must observe identical misses."""
        simulated = InOrderPipeline(default_machine).run(sha_trace)
        profiled = profile_machine(sha_trace, default_machine)
        stats = simulated.hierarchy_stats
        assert stats.l1i_misses == profiled.l1i_misses
        assert stats.il2_misses == profiled.il2_misses
        assert stats.l1d_misses == profiled.l1d_misses
        assert stats.dl2_misses == profiled.dl2_misses
        assert stats.itlb_misses == profiled.itlb_misses
        assert stats.dtlb_misses == profiled.dtlb_misses
        assert simulated.mispredictions == profiled.mispredictions
        assert simulated.taken_bubbles == profiled.taken_bubbles


class TestDependencies:
    def test_serial_chain_runs_at_one_per_cycle(self):
        machine = straightline_machine(width=4)
        length = 200
        chain_cycles = run_trace(chain_program(length), machine)[0].cycles
        independent_cycles = run_trace(independent_program(length), machine)[0].cycles
        # The chain issues one instruction per cycle; the independent stream
        # runs close to the designed width (modulo cold fetch misses).
        assert chain_cycles >= length
        assert independent_cycles <= length * 0.6
        assert chain_cycles - independent_cycles >= length * 0.5

    def test_scalar_machine_hides_dependencies(self):
        machine = straightline_machine(width=1)
        length = 100
        chain_cycles = run_trace(chain_program(length), machine)[0].cycles
        independent_cycles = run_trace(independent_program(length), machine)[0].cycles
        # At width 1 both run at one instruction per cycle.
        assert abs(chain_cycles - independent_cycles) <= 4


class TestLongLatency:
    def test_dependent_multiply_chain_costs_latency(self):
        machine = straightline_machine(mul_latency=4)
        length = 50
        b_mul = ProgramBuilder("mulchain")
        b_mul.li(1, 3)
        for _ in range(length):
            b_mul.mul(1, 1, 1)
        b_mul.halt()
        b_add = chain_program(length)
        mul_cycles = run_trace(b_mul, machine)[0].cycles
        add_cycles = run_trace(b_add, machine)[0].cycles
        extra = mul_cycles - add_cycles
        assert extra >= length * (machine.mul_latency - 1) * 0.9

    def test_independent_multiplies_still_blocked_in_order(self):
        """In-order commit: even independent multiplies serialise the execute stage."""
        machine = straightline_machine(mul_latency=4)
        length = 50
        b_mul = ProgramBuilder("mulind")
        for index in range(length):
            b_mul.muli(1 + (index % 8), 0, 3)
        b_mul.halt()
        mul_cycles = run_trace(b_mul, machine)[0].cycles
        ind_cycles = run_trace(independent_program(length), machine)[0].cycles
        assert mul_cycles - ind_cycles >= length * (machine.mul_latency - 1) * 0.9

    def test_divide_costs_more_than_multiply(self):
        machine = straightline_machine(mul_latency=4, div_latency=20)
        b_div = ProgramBuilder("divchain")
        b_div.li(1, 1000)
        for _ in range(20):
            b_div.divi(1, 1, 1)
        b_div.halt()
        b_mul = ProgramBuilder("mulchain")
        b_mul.li(1, 1000)
        for _ in range(20):
            b_mul.muli(1, 1, 1)
        b_mul.halt()
        div_cycles = run_trace(b_div, machine)[0].cycles
        mul_cycles = run_trace(b_mul, machine)[0].cycles
        assert div_cycles - mul_cycles >= 20 * (20 - 4) * 0.9


class TestLoads:
    def test_load_use_bubble(self):
        machine = straightline_machine()
        memory = MemoryImage()
        memory.write_array(0x1000, list(range(64)))

        def loads_program(dependent: bool) -> ProgramBuilder:
            b = ProgramBuilder("loads")
            b.li(1, 0x1000)
            for index in range(64):
                b.lw(2, 1, (index % 16) * 4)
                if dependent:
                    b.addi(3, 2, 1)       # consumes the load immediately
                else:
                    b.addi(3, 4, 1)       # independent of the load
            b.halt()
            return b

        dependent_cycles = run_trace(loads_program(True), machine, memory.copy())[0].cycles
        independent_cycles = run_trace(loads_program(False), machine, memory.copy())[0].cycles
        # Each dependent pair pays roughly one load-use bubble.
        assert dependent_cycles > independent_cycles
        assert dependent_cycles - independent_cycles >= 64 * 0.5

    def test_data_cache_misses_block_the_pipeline(self):
        fast_memory = straightline_machine(memory_ns=10.0)
        slow_memory = straightline_machine(memory_ns=200.0)
        memory = MemoryImage()
        memory.write_array(0x1000, list(range(2048)))
        b = ProgramBuilder("stream")
        b.li(1, 0x1000)
        for index in range(128):
            b.lw(2, 1, index * 64)     # a new cache line every load
        b.halt()
        fast_cycles = run_trace(b, fast_memory, memory.copy())[0].cycles
        slow_cycles = run_trace(b, slow_memory, memory.copy())[0].cycles
        assert slow_cycles > fast_cycles + 128 * 50


class TestBranches:
    def _loop_program(self, iterations: int) -> ProgramBuilder:
        b = ProgramBuilder("loop")
        b.li(1, iterations)
        b.label("top")
        b.addi(2, 2, 1)
        b.addi(1, 1, -1)
        b.bne(1, 0, "top")
        b.halt()
        return b

    def test_misprediction_penalty_scales_with_frontend_depth(self):
        # always_not_taken mispredicts every taken loop branch.
        shallow = straightline_machine(pipeline_stages=5,
                                       branch_predictor="always_not_taken")
        deep = straightline_machine(pipeline_stages=9,
                                    branch_predictor="always_not_taken")
        iterations = 100
        shallow_cycles = run_trace(self._loop_program(iterations), shallow)[0].cycles
        deep_cycles = run_trace(self._loop_program(iterations), deep)[0].cycles
        per_branch = (deep_cycles - shallow_cycles) / iterations
        depth_delta = deep.frontend_depth - shallow.frontend_depth
        assert per_branch == pytest.approx(depth_delta, abs=1.5)

    def test_good_prediction_beats_bad_prediction(self):
        good = straightline_machine(branch_predictor="always_taken")
        bad = straightline_machine(branch_predictor="always_not_taken")
        iterations = 200
        good_result = run_trace(self._loop_program(iterations), good)[0]
        bad_result = run_trace(self._loop_program(iterations), bad)[0]
        assert good_result.mispredictions < bad_result.mispredictions
        assert good_result.cycles < bad_result.cycles

    def test_taken_bubbles_counted(self):
        machine = straightline_machine(branch_predictor="always_taken")
        result = run_trace(self._loop_program(50), machine)[0]
        # 49 correctly predicted taken branches.
        assert result.taken_bubbles == 49
        assert result.mispredictions == 1


# ----------------------------------------------------------------------
# Bit identity: oracle, kernel backends, pinned digest.
# ----------------------------------------------------------------------
MIBENCH = suite_names("mibench")
REDUCED_SPACE = tuple(reduced_design_space().to_sweep(()).configurations())

#: Every 6th reduced-space point plus the default machine with each of the
#: registered predictors.
ORACLE_MACHINES = REDUCED_SPACE[::6] + tuple(
    MachineConfig(branch_predictor=spec, name=spec) for spec in predictor_names()
)

#: Geometries and latencies the reduced space fixes, for the event columns.
EVENT_MACHINES = (
    MachineConfig(name="default"),
    MachineConfig(name="tiny_l1", l1i_size=8 * 1024, l1i_associativity=2,
                  l1d_size=8 * 1024, l1d_associativity=2,
                  branch_predictor="always_not_taken"),
    MachineConfig(name="narrow_lines", line_size=32, l2_size=256 * 1024,
                  l1_hit_cycles=2, branch_predictor="hybrid_3.5kb"),
    MachineConfig(name="tiny_tlb", tlb_entries=4, page_size=1024,
                  branch_predictor="always_taken"),
    MachineConfig(name="direct_mapped", l1i_associativity=1,
                  l1d_associativity=1, l2_associativity=1,
                  branch_predictor="bimodal"),
)

#: sha256 over ``"<workload> <machine> <cycles> <mispredictions>
#: <taken_bubbles>\n"`` for the 19 MiBench workloads x the 24 reduced-space
#: points, in that order — recorded from the object-replay simulator.
PINNED_DIGEST = "243688a1d00593a4ce635393f70ad10205efceb4abc3c09cbfdec5c13acec04a"


def _fields(result) -> tuple:
    return (result.cycles, result.mispredictions, result.taken_bubbles,
            result.hierarchy_stats)


def _oracle_copy(trace: Trace) -> Trace:
    """The oracle walks the per-instruction facade, which a trace keeps
    once built: give it a copy, so the shared cached traces stay columnar."""
    return Trace.from_columns(**trace.columns())


@pytest.mark.parametrize("name", MIBENCH)
def test_matches_object_replay_oracle(name):
    trace = get_workload(name).trace()
    oracle_trace = _oracle_copy(trace)
    for machine in ORACLE_MACHINES:
        assert _fields(InOrderPipeline(machine).run(trace)) == _fields(
            run_oracle(machine, oracle_trace)), machine.name


def test_matches_oracle_on_synthetic_traces():
    for seed in (1, 2, 3):
        trace = generate_synthetic_trace(
            SyntheticWorkloadSpec(name=f"synthetic-{seed}", seed=seed,
                                  instructions=4000))
        for machine in EVENT_MACHINES:
            assert _fields(InOrderPipeline(machine).run(trace)) == _fields(
                run_oracle(machine, trace)), (seed, machine.name)


def test_pinned_cycle_digest():
    digest = hashlib.sha256()
    for name in MIBENCH:
        trace = get_workload(name).trace()
        for machine in REDUCED_SPACE:
            result = InOrderPipeline(machine).run(trace)
            digest.update(
                f"{name} {machine.name} {result.cycles} "
                f"{result.mispredictions} {result.taken_bubbles}\n".encode())
    assert digest.hexdigest() == PINNED_DIGEST


@pytest.mark.parametrize("name", MIBENCH)
def test_numpy_events_match_python(name):
    np_kernels = pytest.importorskip("repro.accel.np_kernels",
                                     reason="NumPy backend not installed")
    trace = get_workload(name).trace()
    numpy_backend = np_kernels.NumpyKernels()
    python_backend = PythonKernels()
    for machine in EVENT_MACHINES:
        assert numpy_backend.pipeline_events(trace, machine) == \
            python_backend.pipeline_events(trace, machine), machine.name


def test_third_party_predictor_events_and_oracle():
    """A predictor without a vectorized state falls back to the
    interpreted predictor for the control column only."""
    np_kernels = pytest.importorskip("repro.accel.np_kernels",
                                     reason="NumPy backend not installed")

    @PREDICTORS.register("parity_coinflip")
    class _Coinflip(BranchPredictor):
        name = "parity_coinflip"

        def __init__(self):
            self._last = {}

        def predict(self, pc):
            return self._last.get(pc, (pc >> 2) & 1 == 0)

        def update(self, pc, taken):
            self._last[pc] = not taken

    try:
        trace = get_workload("dijkstra").trace()
        machine = MachineConfig(name="plugin", branch_predictor="parity_coinflip")
        events = np_kernels.NumpyKernels().pipeline_events(trace, machine)
        assert events == PythonKernels().pipeline_events(trace, machine)
        assert _fields(InOrderPipeline(machine).run(trace)) == _fields(
            run_oracle(machine, _oracle_copy(trace)))
    finally:
        PREDICTORS.unregister("parity_coinflip")


# ----------------------------------------------------------------------
# Batch simulation: parity, key completeness, shared results, work counts.
# ----------------------------------------------------------------------
TABLE2_SPACE = tuple(default_design_space().to_sweep(()).configurations())


@pytest.mark.parametrize("name", ("sha", "qsort", "dijkstra", "susan_c"))
def test_simulate_many_matches_per_point_run(name):
    trace = get_workload(name).trace()
    batch = simulate_many(trace, TABLE2_SPACE)
    assert [result.machine.name for result in batch] == \
        [machine.name for machine in TABLE2_SPACE]
    for machine, result in zip(TABLE2_SPACE, batch):
        assert _fields(result) == _fields(InOrderPipeline(machine).run(trace)), \
            machine.name


@pytest.mark.parametrize("name", ("sha", "qsort"))
def test_shared_events_match_reference_on_table2_space(name):
    """One ``shared`` memo across a call's event sets changes no event."""
    trace = get_workload(name).trace()
    kernels = get_kernels()
    reference = PythonKernels()
    shared: dict = {}
    event_keys = set()
    for machine in TABLE2_SPACE:
        key = (machine.memory_hierarchy_config(), machine.branch_predictor)
        if key in event_keys:
            continue
        event_keys.add(key)
        assert kernels.pipeline_events(trace, machine, shared) == \
            reference.pipeline_events(trace, machine), machine.name
    assert len(event_keys) == 48


#: One machine parameter changed at a time, each of which the event key
#: (hierarchy geometry) or the timing key (unit latencies) must see.
KEY_VARIANTS = (
    ("mul_latency", 9),
    ("div_latency", 41),
    ("line_size", 32),
    ("page_size", 1024),
    ("tlb_entries", 4),
)


@pytest.mark.parametrize("field, value", KEY_VARIANTS)
def test_simulate_many_keys_see_every_parameter(field, value):
    base = MachineConfig(name="base")
    variant = base.with_(**{field: value}, name=field)
    for seed in (4, 5):
        trace = generate_synthetic_trace(SyntheticWorkloadSpec(
            name=f"muldiv-{seed}", seed=seed, instructions=4000,
            multiply_fraction=0.06, divide_fraction=0.03,
            data_footprint_bytes=256 * 1024, static_code_size=4000))
        expected = [InOrderPipeline(machine).run(trace)
                    for machine in (base, variant)]
        # The parameter matters on this trace, so a key without it fails.
        assert expected[0].cycles != expected[1].cycles, (field, seed)
        for machines, want in (((base, variant), expected),
                               ((variant, base), expected[::-1])):
            got = simulate_many(trace, machines)
            assert [_fields(result) for result in got] == \
                [_fields(result) for result in want], (field, seed)


def _sha_session():
    """A fresh session holding the cached sha trace, and its workload."""
    session = Session()
    return session, session.adopt_trace("sha", "O3",
                                         get_workload("sha").trace())


def test_shared_results_are_private_and_carry_the_callers_machine():
    session, sha = _sha_session()
    default = MachineConfig(name="default")
    relabelled = MachineConfig(name="W=4")          # equal: names do not compare
    narrow = MachineConfig(width=2, name="W=2")      # same event set
    first, second, third = session.simulate_many(sha, [default, relabelled,
                                                         narrow])
    assert [first.machine.name, second.machine.name, third.machine.name] == \
        ["default", "W=4", "W=2"]
    # Two timing loops; the relabelled duplicate shared the default's.
    assert (session.stats.sim_event_sets_built,
            session.stats.sim_timing_loops_run,
            session.stats.simulations_reused) == (1, 2, 1)
    (hit,) = session.simulate_many(sha, [relabelled])
    assert hit.machine.name == "W=4"
    assert session.stats.sim_timing_loops_run == 2

    # Every result owns its hierarchy counts: mutating one leaks nowhere.
    reference = InOrderPipeline(default).run(get_workload("sha").trace())
    first.hierarchy_stats.l1i_misses += 1000
    for result in (second, third, hit, *session.simulate_many(sha, [default])):
        assert result.hierarchy_stats == reference.hierarchy_stats
    one, two = simulate_many(get_workload("sha").trace(), [default, narrow])
    one.hierarchy_stats.dl2_misses += 1000
    assert two.hierarchy_stats == reference.hierarchy_stats


@pytest.fixture
def counted(monkeypatch):
    """Counts ``pipeline_events`` calls and timing loops of the simulator."""
    counts = Counter()

    class CountingKernels(type(get_kernels())):
        def pipeline_events(self, trace, machine, shared=None):
            counts["events"] += 1
            return super().pipeline_events(trace, machine, shared)

    kernels = CountingKernels()
    simulate = inorder._simulate

    def counting_simulate(machine, trace, events, table):
        counts["loops"] += 1
        return simulate(machine, trace, events, table)

    monkeypatch.setattr(inorder, "get_kernels", lambda: kernels)
    monkeypatch.setattr(inorder, "_simulate", counting_simulate)
    return counts


def test_table2_space_on_sha_costs_48_event_sets_and_12_timing_loops(counted):
    session, sha = _sha_session()
    results = session.simulate_many(sha, TABLE2_SPACE)
    assert len(results) == 192
    assert dict(counted) == {"events": 48, "loops": 12}
    assert (session.stats.sim_event_sets_built,
            session.stats.sim_timing_loops_run,
            session.stats.simulations_reused) == (48, 12, 180)
    # A memo hit computes nothing and counts nothing.
    session.simulate_many(sha, TABLE2_SPACE)
    assert dict(counted) == {"events": 48, "loops": 12}
    assert (session.stats.sim_event_sets_built,
            session.stats.sim_timing_loops_run,
            session.stats.simulations_reused) == (48, 12, 180)


def test_warm_figure3_rerun_simulates_nothing(counted):
    session, _ = _sha_session()
    overrides = {"benchmarks": ("sha",)}
    cold = registry.run_experiment(session, "figure3", overrides=overrides)
    assert dict(counted) == {"events": 1, "loops": 1}
    counted.clear()
    warm = registry.run_experiment(session, "figure3", overrides=overrides)
    assert not counted
    assert warm.to_dict() == cold.to_dict()


def test_speedup_simulates_every_configuration_in_full(counted):
    from repro.experiments import speedup

    session, _ = _sha_session()
    speedup.run("sha", configurations=4, session=session)
    assert dict(counted) == {"events": 4, "loops": 4}
