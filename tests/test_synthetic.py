"""Tests for the statistical (synthetic) trace generator."""

import itertools
import random

import pytest
import synthetic_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import InOrderMechanisticModel
from repro.isa.opcodes import OpClass
from repro.machine import MachineConfig
from repro.pipeline.inorder import InOrderPipeline
from repro.profiler import collect_dependencies, profile_program
from repro.trace.trace_schema import COLUMN_NAMES
from repro.workloads.synthetic import (
    SyntheticTraceGenerator,
    SyntheticWorkloadSpec,
    generate_synthetic_trace,
)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = SyntheticWorkloadSpec()
        assert spec.instructions > 0

    def test_fractions_must_not_exceed_one(self):
        with pytest.raises(ValueError):
            SyntheticWorkloadSpec(load_fraction=0.6, store_fraction=0.5)

    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            SyntheticWorkloadSpec(branch_taken_rate=1.5)
        with pytest.raises(ValueError):
            SyntheticWorkloadSpec(streaming_fraction=-0.1)

    def test_structural_parameters_validated(self):
        with pytest.raises(ValueError):
            SyntheticWorkloadSpec(instructions=0)
        with pytest.raises(ValueError):
            SyntheticWorkloadSpec(static_code_size=0)
        with pytest.raises(ValueError):
            SyntheticWorkloadSpec(data_footprint_bytes=0)
        with pytest.raises(ValueError):
            SyntheticWorkloadSpec(dependency_distances={})
        with pytest.raises(ValueError):
            SyntheticWorkloadSpec(dependency_distances={0: 1.0})

    @pytest.mark.parametrize("distances", [
        {1: -1.0, 2: 2.0},          # negative weight
        {1: 0.0},                   # zero-sum weights
        {1: 0.0, 2: 0.0},
        {1: float("nan")},
        {1: float("inf")},
        {1: 1e308, 2: 1e308},       # finite weights, infinite sum
        {1: "0.5"},
        {1.5: 1.0},                 # non-integer distance
        {True: 1.0},                # bool distance
        {-2: 1.0},
    ])
    def test_dependency_distributions_it_cannot_honour(self, distances):
        with pytest.raises(ValueError, match="dependency"):
            SyntheticWorkloadSpec(dependency_distances=distances)

    @pytest.mark.parametrize("footprint", [0, 2, 3])
    def test_footprint_must_hold_a_word(self, footprint):
        with pytest.raises(ValueError, match="data_footprint_bytes"):
            SyntheticWorkloadSpec(data_footprint_bytes=footprint)

    def test_edge_values_are_accepted(self):
        spec = SyntheticWorkloadSpec(instructions=8, data_footprint_bytes=4,
                                     dependency_distances={1: 0, 64: 3})
        assert len(generate_synthetic_trace(spec)) == 8


class TestGeneratedTraces:
    def test_length_and_name(self):
        trace = generate_synthetic_trace(SyntheticWorkloadSpec(name="x", instructions=5000))
        assert len(trace) == 5000
        assert trace.name == "x"

    def test_deterministic_for_same_seed(self):
        spec = SyntheticWorkloadSpec(instructions=3000, seed=7)
        first = generate_synthetic_trace(spec)
        second = generate_synthetic_trace(spec)
        assert [d.pc for d in first] == [d.pc for d in second]
        assert [d.mem_addr for d in first] == [d.mem_addr for d in second]

    def test_different_seed_differs(self):
        first = generate_synthetic_trace(SyntheticWorkloadSpec(instructions=3000, seed=1))
        second = generate_synthetic_trace(SyntheticWorkloadSpec(instructions=3000, seed=2))
        assert [d.mem_addr for d in first] != [d.mem_addr for d in second]

    def test_instruction_mix_matches_spec(self):
        spec = SyntheticWorkloadSpec(
            instructions=30_000,
            load_fraction=0.25,
            store_fraction=0.10,
            multiply_fraction=0.05,
            branch_fraction=0.15,
        )
        mix = generate_synthetic_trace(spec).instruction_mix()
        total = sum(mix.values())
        assert mix[OpClass.LOAD] / total == pytest.approx(0.25, abs=0.02)
        assert mix[OpClass.STORE] / total == pytest.approx(0.10, abs=0.02)
        assert mix[OpClass.INT_MUL] / total == pytest.approx(0.05, abs=0.01)
        assert mix[OpClass.BRANCH] / total == pytest.approx(0.15, abs=0.02)

    def test_dependency_distances_match_spec(self):
        spec = SyntheticWorkloadSpec(
            instructions=20_000,
            dependency_distances={1: 0.5, 4: 0.5},
            branch_fraction=0.0,
            load_fraction=0.0,
            store_fraction=0.0,
            multiply_fraction=0.0,
            divide_fraction=0.0,
        )
        deps = collect_dependencies(generate_synthetic_trace(spec))
        total = deps.total()
        assert deps.count("unit", 1) / total == pytest.approx(0.5, abs=0.03)
        assert deps.count("unit", 4) / total == pytest.approx(0.5, abs=0.03)

    def test_memory_footprint_respected(self):
        spec = SyntheticWorkloadSpec(instructions=10_000, data_footprint_bytes=4096)
        trace = generate_synthetic_trace(spec)
        addresses = [d.mem_addr for d in trace if d.mem_addr is not None]
        assert addresses
        assert max(addresses) < 0x100000 + 4096
        assert min(addresses) >= 0x100000

    def test_static_code_footprint_respected(self):
        spec = SyntheticWorkloadSpec(instructions=10_000, static_code_size=512)
        trace = generate_synthetic_trace(spec)
        assert max(d.pc for d in trace) < 512 * 4

    def test_branch_taken_rate(self):
        spec = SyntheticWorkloadSpec(instructions=20_000, branch_fraction=0.2,
                                     branch_taken_rate=0.8)
        trace = generate_synthetic_trace(spec)
        branches = [d for d in trace if d.is_branch]
        taken = sum(1 for d in branches if d.taken)
        assert taken / len(branches) == pytest.approx(0.8, abs=0.08)


class TestModelOnSyntheticTraces:
    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_model_tracks_simulator_on_synthetic_traces(self, width):
        machine = MachineConfig(width=width, name=f"synthetic-w{width}")
        trace = generate_synthetic_trace(SyntheticWorkloadSpec(instructions=12_000))
        model = InOrderMechanisticModel(machine).predict_trace(trace)
        simulated = InOrderPipeline(machine).run(trace)
        error = abs(model.cpi - simulated.cpi) / simulated.cpi
        assert error < 0.20

    def test_more_dependencies_means_higher_cpi(self):
        machine = MachineConfig(name="dep-study")
        tight = SyntheticWorkloadSpec(
            instructions=10_000, dependency_distances={1: 1.0}, seed=3
        )
        loose = SyntheticWorkloadSpec(
            instructions=10_000, dependency_distances={16: 1.0}, seed=3
        )
        tight_cpi = InOrderMechanisticModel(machine).predict_trace(
            generate_synthetic_trace(tight)
        ).cpi
        loose_cpi = InOrderMechanisticModel(machine).predict_trace(
            generate_synthetic_trace(loose)
        ).cpi
        assert tight_cpi > loose_cpi

    def test_divides_raise_cpi(self):
        machine = MachineConfig(name="div-study")
        with_div = SyntheticWorkloadSpec(instructions=10_000, divide_fraction=0.05, seed=4)
        without_div = SyntheticWorkloadSpec(instructions=10_000, divide_fraction=0.0, seed=4)
        cpi_with = InOrderMechanisticModel(machine).predict_trace(
            generate_synthetic_trace(with_div)
        ).cpi
        cpi_without = InOrderMechanisticModel(machine).predict_trace(
            generate_synthetic_trace(without_div)
        ).cpi
        assert cpi_with > cpi_without

    @given(
        load_fraction=st.floats(min_value=0.0, max_value=0.3),
        branch_fraction=st.floats(min_value=0.0, max_value=0.25),
        width=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=10, deadline=None)
    def test_cpi_never_below_ideal(self, load_fraction, branch_fraction, width):
        """Property: model CPI >= 1/W for any synthetic workload."""
        spec = SyntheticWorkloadSpec(
            instructions=3_000,
            load_fraction=load_fraction,
            branch_fraction=branch_fraction,
        )
        machine = MachineConfig(width=width, name=f"prop-w{width}")
        trace = SyntheticTraceGenerator(spec).generate()
        model = InOrderMechanisticModel(machine).predict_trace(trace)
        assert model.cpi >= 1.0 / width
        simulated = InOrderPipeline(machine).run(trace)
        assert simulated.cpi >= 1.0 / width

    def test_profile_roundtrip(self):
        trace = generate_synthetic_trace(SyntheticWorkloadSpec(instructions=8_000))
        profile = profile_program(trace)
        assert profile.instructions == 8_000
        assert profile.dependencies.total() > 0


# ----------------------------------------------------------------------
# Parity with the per-record generator (``synthetic_oracle.py``).
# ----------------------------------------------------------------------
def _random_spec(rng: random.Random) -> SyntheticWorkloadSpec:
    fractions = [rng.random() * 0.19 for _ in range(5)]
    distances = rng.sample([1, 2, 3, 4, 5, 8, 16, 31, 32, 64],
                           rng.randint(1, 6))
    return SyntheticWorkloadSpec(
        instructions=rng.randint(1, 1500),
        load_fraction=fractions[0], store_fraction=fractions[1],
        multiply_fraction=fractions[2], divide_fraction=fractions[3],
        branch_fraction=fractions[4],
        branch_taken_rate=rng.random(),
        branch_predictability=rng.random(),
        dependency_distances={d: rng.choice([rng.random(), rng.randint(0, 3),
                                             1.0]) + (d == distances[0])
                              for d in distances},
        static_code_size=rng.randint(1, 600),
        data_footprint_bytes=rng.choice([4, 8, 100, 4096, 65536]),
        streaming_fraction=rng.choice([0.0, 1.0, rng.random()]),
        seed=rng.randrange(10**9),
    )


_EDGE_SPECS = [
    SyntheticWorkloadSpec(instructions=1),
    SyntheticWorkloadSpec(instructions=500, static_code_size=1),
    SyntheticWorkloadSpec(instructions=500, data_footprint_bytes=4,
                          streaming_fraction=0.5),
    SyntheticWorkloadSpec(instructions=500, branch_fraction=1.0,
                          load_fraction=0.0, store_fraction=0.0,
                          multiply_fraction=0.0, divide_fraction=0.0),
    SyntheticWorkloadSpec(instructions=500, streaming_fraction=0.0),
    SyntheticWorkloadSpec(instructions=500, streaming_fraction=1.0),
    SyntheticWorkloadSpec(instructions=500, dependency_distances={3: 2}),
    SyntheticWorkloadSpec(instructions=500,
                          dependency_distances={1: 0.2, 64: 0.8}),
    SyntheticWorkloadSpec(instructions=500, load_fraction=0.0,
                          store_fraction=0.0, multiply_fraction=0.0,
                          divide_fraction=0.0, branch_fraction=0.0),
]


def _columns(trace) -> tuple:
    return (
        tuple((name, memoryview(getattr(trace, name)).format,
               getattr(trace, name).tobytes()) for name in COLUMN_NAMES),
        trace.statics, trace.name, list(trace.seqs),
    )


def _store_files(path) -> dict[str, bytes]:
    return {entry.name: entry.read_bytes()
            for entry in sorted(path.iterdir())}


class TestOracleParity:
    """Columns and statics equal the per-record generator's, byte for byte."""

    @pytest.mark.parametrize(
        "spec",
        _EDGE_SPECS + [_random_spec(random.Random(index))
                       for index in range(32)],
    )
    def test_in_memory_trace_matches_oracle(self, spec):
        assert _columns(SyntheticTraceGenerator(spec).generate()) == \
            _columns(synthetic_oracle.SyntheticTraceGenerator(spec).generate())

    def test_class_draw_subtracts_as_it_compares(self, monkeypatch):
        """0.7999999999999999 - 0.7 < 0.1, yet it is not < 0.7 + 0.1: a
        store under the subtract-and-compare chain, a multiply under
        cumulative thresholds."""
        script = [0.7999999999999999, 0.3, 0.95, 0.05, 0.5, 0.75, 0.81]

        class ScriptedRandom(random.Random):
            def __init__(self, seed=None):
                super().__init__(seed)
                self._draws = itertools.cycle(script)

            def random(self):
                return next(self._draws)

        monkeypatch.setattr(random, "Random", ScriptedRandom)
        spec = SyntheticWorkloadSpec(
            instructions=700, load_fraction=0.7, store_fraction=0.1,
            multiply_fraction=0.05, divide_fraction=0.0,
            branch_fraction=0.1)
        ours = SyntheticTraceGenerator(spec).generate()
        assert _columns(ours) == _columns(
            synthetic_oracle.SyntheticTraceGenerator(spec).generate())
        assert ours.count(OpClass.STORE) > 0

    @pytest.mark.parametrize("chunk_length,scale", [
        (1, 1), (7, 1), (640, 1), (700, 1), (10_000, 1), (640, 3),
    ])
    def test_store_matches_oracle(self, tmp_path, chunk_length, scale):
        spec = SyntheticWorkloadSpec(name="parity", instructions=700, seed=5,
                                     static_code_size=300)
        ours = SyntheticTraceGenerator(spec).generate_store(
            tmp_path / "ours", scale=scale, chunk_length=chunk_length)
        oracle = synthetic_oracle.SyntheticTraceGenerator(spec).generate_store(
            tmp_path / "oracle", scale=scale, chunk_length=chunk_length)
        assert ours.num_chunks == oracle.num_chunks == \
            -(-700 * scale // chunk_length)
        assert ours.statics == oracle.statics
        for mine, theirs in zip(ours.chunks(), oracle.chunks()):
            assert _columns(mine) == _columns(theirs)
        assert _store_files(tmp_path / "ours") == \
            _store_files(tmp_path / "oracle")

    @pytest.mark.parametrize("index", range(4))
    def test_random_spec_store_matches_oracle(self, tmp_path, index):
        spec = _random_spec(random.Random(100 + index))
        for generator, where in (
                (SyntheticTraceGenerator, "ours"),
                (synthetic_oracle.SyntheticTraceGenerator, "oracle")):
            generator(spec).generate_store(tmp_path / where, scale=2,
                                           chunk_length=333)
        assert _store_files(tmp_path / "ours") == \
            _store_files(tmp_path / "oracle")
