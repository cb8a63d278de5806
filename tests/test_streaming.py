"""Streamed (chunk-resumable) profiling is bit-identical to in-memory.

The contract under test: for any chunk geometry — including one-row
chunks and a single chunk larger than the trace — both kernel backends'
chunk-resumable streams produce byte-for-byte the counts the in-memory
:class:`~repro.profiler.single_pass_engine.SinglePassEngine` computes on
the concatenated trace, for every registered branch predictor.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import accel
from repro.branch.predictors import PREDICTORS
from repro.core.model import InOrderMechanisticModel
from repro.machine import DEFAULT_MACHINE, MachineConfig
from repro.profiler.program import profile_program
from repro.profiler.single_pass_engine import SinglePassEngine
from repro.trace.trace import ChunkedTrace
from repro.workloads import get_workload
from repro.workloads.registry import MIBENCH_BUILDERS
from repro.workloads.synthetic import (
    SyntheticWorkloadSpec,
    generate_synthetic_trace,
)

BACKENDS = ("python", "numpy")


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    accel.set_backend("auto")


def _use_backend(backend: str):
    if backend == "numpy":
        pytest.importorskip("repro.accel.np_kernels",
                            reason="NumPy backend not installed")
    accel.set_backend(backend)


def _counts(profile) -> dict[str, int]:
    return {
        field.name: getattr(profile, field.name)
        for field in dataclasses.fields(profile)
        if field.name != "machine"
    }


SMALL = generate_synthetic_trace(
    SyntheticWorkloadSpec(instructions=2_000, seed=41)
)

#: A second geometry so L2/TLB/predictor state carry is exercised off the
#: defaults too.
OFF_SPACE = MachineConfig(
    name="off_space", l1i_size=8 * 1024, l1d_size=8 * 1024,
    l1d_associativity=2, l2_size=128 * 1024, tlb_entries=8,
    branch_predictor="bimodal",
)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("chunk_length", [1, 13, 700, 2_001])
def test_streamed_profile_bit_identical(backend, chunk_length):
    _use_backend(backend)
    chunked = ChunkedTrace.from_trace(SMALL, chunk_length)
    streaming = SinglePassEngine(chunked)
    reference = SinglePassEngine.for_trace(SMALL)
    for machine in (DEFAULT_MACHINE, OFF_SPACE):
        assert (_counts(streaming.miss_profile(machine))
                == _counts(reference.miss_profile(machine)))
    assert streaming.program_profile() == profile_program(SMALL)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(MIBENCH_BUILDERS))
def test_streamed_matches_in_memory_on_mibench(name, backend):
    _use_backend(backend)
    trace = get_workload(name).trace()
    chunked = ChunkedTrace.from_trace(trace, 1024)
    streaming = SinglePassEngine.for_trace(chunked)
    reference = SinglePassEngine.for_trace(trace)
    streamed = streaming.miss_profile(DEFAULT_MACHINE)
    exact = reference.miss_profile(DEFAULT_MACHINE)
    assert _counts(streamed) == _counts(exact)
    # ...and therefore the model's prediction is bit-identical too.
    program = streaming.program_profile()
    model = InOrderMechanisticModel(DEFAULT_MACHINE)
    assert (model.predict(program, streamed).cycles
            == model.predict(profile_program(trace), exact).cycles)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("predictor", PREDICTORS.names())
def test_every_registered_predictor_streams_exactly(backend, predictor):
    _use_backend(backend)
    machine = MachineConfig(name=f"bp_{predictor}",
                            branch_predictor=predictor)
    chunked = ChunkedTrace.from_trace(SMALL, 333)
    streamed = SinglePassEngine(chunked).miss_profile(machine)
    exact = SinglePassEngine.for_trace(SMALL).miss_profile(machine)
    for metric in ("mispredictions", "taken_bubbles",
                   "conditional_branches"):
        assert getattr(streamed, metric) == getattr(exact, metric)


def test_one_walk_covers_a_design_space():
    chunked = ChunkedTrace.from_trace(SMALL, 500)
    engine = SinglePassEngine(chunked)
    machines = [DEFAULT_MACHINE, OFF_SPACE,
                MachineConfig(name="wide", width=4, l2_associativity=16)]
    engine.profile_machines(machines)
    assert engine.walks == 1
    # Everything is answered from the cached passes afterwards.
    engine.profile_machines(machines)
    engine.miss_profile(OFF_SPACE)
    assert engine.walks == 1


def test_state_export_install_round_trip():
    chunked = ChunkedTrace.from_trace(SMALL, 500)
    warm = SinglePassEngine(chunked)
    expected = _counts(warm.miss_profile(DEFAULT_MACHINE))
    warm.program_profile()
    assert warm.walks >= 1

    cold = SinglePassEngine(ChunkedTrace.from_trace(SMALL, 500))
    cold.install_state(warm.export_state())
    assert _counts(cold.miss_profile(DEFAULT_MACHINE)) == expected
    assert cold.program_profile() == warm.program_profile()
    assert cold.walks == 0


def test_for_trace_memoizes_chunked_engine():
    chunked = ChunkedTrace.from_trace(SMALL, 500)
    assert (SinglePassEngine.for_trace(chunked)
            is SinglePassEngine.for_trace(chunked))
