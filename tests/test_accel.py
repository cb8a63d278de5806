"""Parity and behaviour tests for the :mod:`repro.accel` kernel layer.

The contract under test is *bit identity*: whatever the NumPy backend
computes — stack-distance passes, L2 passes, branch replays, dependency
profiles, batched model evaluations — must equal the pure-Python
reference exactly, across the full workload set, randomized synthetic
traces, off-space geometries and every registered branch predictor.

NumPy-specific tests skip cleanly on stdlib-only interpreters (the CI
matrix keeps one leg without NumPy).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

import repro.accel as accel
from repro.accel import BaseGeometry, PythonKernels, count_miss_runs
from repro.accel.passes import L2Pass
from repro.branch.predictors import PREDICTORS, make_predictor
from repro.branch.profiler import profile_control_stream
from repro.dse.space import reduced_design_space
from repro.machine import MachineConfig
from repro.memory.single_pass import StackDistanceProfiler, suffix_counts
from repro.profiler.dependences import MAX_DISTANCE, collect_dependencies
from repro.profiler.single_pass_engine import SinglePassEngine
from repro.workloads import get_workload
from repro.workloads.registry import MIBENCH_BUILDERS
from repro.workloads.synthetic import (
    SyntheticWorkloadSpec,
    generate_synthetic_trace,
)

numpy_kernels = pytest.importorskip(
    "repro.accel.np_kernels", reason="NumPy backend not installed"
)
NumpyKernels = numpy_kernels.NumpyKernels


@pytest.fixture(autouse=True)
def _restore_backend():
    """Tests switch backends freely; put the auto-selected one back."""
    yield
    accel.set_backend("auto")


def _counts(profile) -> dict[str, int]:
    return {
        field.name: getattr(profile, field.name)
        for field in dataclasses.fields(profile)
        if field.name != "machine"
    }


#: Off-space configurations exercising geometry dimensions Table 2 fixes.
OFF_SPACE_CONFIGS = (
    MachineConfig(name="tiny_l1", l1i_size=8 * 1024, l1i_associativity=2,
                  l1d_size=8 * 1024, l1d_associativity=2),
    MachineConfig(name="narrow_lines", line_size=32, l2_size=256 * 1024),
    MachineConfig(name="tiny_tlb", tlb_entries=4, page_size=1024),
    MachineConfig(name="direct_mapped", l1i_associativity=1,
                  l1d_associativity=1, l2_associativity=1,
                  branch_predictor="bimodal"),
)


# ----------------------------------------------------------------------
# Engine-level parity: all 19 MiBench workloads x the Figure-5 space.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(MIBENCH_BUILDERS))
def test_numpy_matches_python_across_figure5_space(name):
    trace = get_workload(name).trace()
    python_engine = SinglePassEngine(trace, PythonKernels())
    numpy_engine = SinglePassEngine(trace, NumpyKernels())
    for machine in reduced_design_space().to_sweep(()).configurations():
        assert _counts(numpy_engine.miss_profile(machine)) == _counts(
            python_engine.miss_profile(machine)
        ), f"{name}: numpy kernels diverge from python on {machine.name}"


@pytest.mark.parametrize("machine", OFF_SPACE_CONFIGS, ids=lambda m: m.name)
def test_numpy_matches_python_off_space(machine):
    trace = get_workload("dijkstra").trace()
    python_engine = SinglePassEngine(trace, PythonKernels())
    numpy_engine = SinglePassEngine(trace, NumpyKernels())
    assert _counts(numpy_engine.miss_profile(machine)) == _counts(
        python_engine.miss_profile(machine)
    )


def test_pass_payloads_are_bit_identical():
    """Not only the answers: the cached pass payloads themselves match,
    so engine state persisted by one backend answers for the other."""
    trace = get_workload("sha").trace()
    geometry = BaseGeometry(32 * 1024, 4, 32 * 1024, 4, 64, 4096)
    python_pass = PythonKernels().base_pass(trace, geometry)
    numpy_pass = NumpyKernels().base_pass(trace, geometry)
    for side in ("l1i", "l1d", "itlb", "dtlb"):
        assert getattr(python_pass, side) == getattr(numpy_pass, side)
    assert python_pass.l2_addrs == numpy_pass.l2_addrs
    assert python_pass.l2_sides == numpy_pass.l2_sides
    assert python_pass.l2_seqs == numpy_pass.l2_seqs
    python_l2 = PythonKernels().l2_pass(python_pass, 1024, 64)
    numpy_l2 = NumpyKernels().l2_pass(numpy_pass, 1024, 64)
    assert python_l2.instruction_histogram == numpy_l2.instruction_histogram
    assert python_l2.data_histogram == numpy_l2.data_histogram
    assert python_l2.data_seqs == numpy_l2.data_seqs
    assert python_l2.data_distances == numpy_l2.data_distances
    assert (python_l2.instruction_cold, python_l2.data_cold) == (
        numpy_l2.instruction_cold, numpy_l2.data_cold
    )


# ----------------------------------------------------------------------
# Randomized property tests.
# ----------------------------------------------------------------------
def _random_spec(rng: random.Random, index: int) -> SyntheticWorkloadSpec:
    return SyntheticWorkloadSpec(
        name=f"accel_prop_{index}",
        instructions=rng.randrange(200, 3000),
        load_fraction=rng.uniform(0.05, 0.3),
        store_fraction=rng.uniform(0.02, 0.15),
        multiply_fraction=rng.uniform(0.0, 0.05),
        divide_fraction=rng.uniform(0.0, 0.01),
        branch_fraction=rng.uniform(0.05, 0.3),
        branch_taken_rate=rng.uniform(0.2, 0.9),
        branch_predictability=rng.uniform(0.0, 1.0),
        static_code_size=rng.randrange(50, 500),
        data_footprint_bytes=rng.choice([4 * 1024, 64 * 1024, 1024 * 1024]),
        seed=rng.randrange(1 << 30),
    )


def _random_machines(rng: random.Random) -> list[MachineConfig]:
    machines = []
    for predictor in PREDICTORS.names():
        machines.append(MachineConfig(
            l1i_size=rng.choice([4, 8, 32]) * 1024,
            l1i_associativity=rng.choice([1, 2, 4]),
            l1d_size=rng.choice([4, 8, 32]) * 1024,
            l1d_associativity=rng.choice([1, 2, 4]),
            l2_size=rng.choice([64, 128, 512]) * 1024,
            l2_associativity=rng.choice([1, 4, 8, 16]),
            line_size=rng.choice([16, 32, 64]),
            page_size=rng.choice([1024, 4096]),
            tlb_entries=rng.choice([2, 8, 32]),
            branch_predictor=predictor,
            name=f"random_{predictor}",
        ))
    return machines


def test_randomized_traces_match_across_backends_and_predictors():
    """Synthetic traces x off-space geometries x every registered predictor:
    the two backends agree bit for bit on every miss profile."""
    rng = random.Random(0xACCE1)
    for index in range(4):
        trace = generate_synthetic_trace(_random_spec(rng, index))
        python_engine = SinglePassEngine(trace, PythonKernels())
        numpy_engine = SinglePassEngine(trace, NumpyKernels())
        for machine in _random_machines(rng):
            window = rng.choice([1, 16, 64, 256])
            assert _counts(
                numpy_engine.miss_profile(machine, window)
            ) == _counts(python_engine.miss_profile(machine, window)), (
                f"trace {index} diverges on {machine.name} (window {window})"
            )


def test_randomized_branch_replay_matches_every_predictor():
    rng = random.Random(0xB4A2C)
    python_kernels, np_kernels = PythonKernels(), NumpyKernels()
    for index in range(3):
        trace = generate_synthetic_trace(_random_spec(rng, 100 + index))
        controls = python_kernels.control_stream(trace)
        assert np_kernels.control_stream(trace) == controls
        for spec in PREDICTORS.names():
            reference = profile_control_stream(
                ((pc, taken == 1, conditional == 1)
                 for pc, taken, conditional in zip(*controls)),
                make_predictor(spec),
            )
            accelerated = np_kernels.branch_profile(controls, spec)
            assert accelerated == reference, (index, spec)


def test_randomized_dependency_profiles_match():
    rng = random.Random(0xDE9)
    np_kernels = NumpyKernels()
    accel.set_backend("python")  # reference walk must not self-dispatch
    for index in range(4):
        trace = generate_synthetic_trace(_random_spec(rng, 200 + index))
        assert np_kernels.dependency_profile(trace, MAX_DISTANCE) == \
            collect_dependencies(trace), index


def test_random_address_streams_match_reference_profiler():
    rng = random.Random(1234)
    for trial in range(40):
        sets = rng.choice([1, 2, 16, 128])
        line = rng.choice([16, 64, 4096])
        addresses = [
            rng.randint(-500, 5000) * rng.choice([1, 7, 64, 100000])
            for _ in range(rng.randrange(0, 400))
        ]
        reference = StackDistanceProfiler(sets, line)
        expected = [reference.access(address) for address in addresses]
        np = numpy_kernels.np
        lines = np.array(addresses, dtype=np.int64) >> (line.bit_length() - 1)
        if sets == 1:
            got = numpy_kernels._stack_distances(lines, lines,
                                                 single_set=True)
        else:
            got = numpy_kernels._stack_distances(lines, lines & (sets - 1))
        assert got.tolist() == expected, (trial, sets, line)


def test_unknown_predictor_falls_back_to_reference_replay():
    trace = get_workload("sha").trace()
    controls = NumpyKernels().control_stream(trace)
    assert NumpyKernels().branch_profile(controls, "no_such_scheme") is None
    engine = SinglePassEngine(trace, NumpyKernels())
    with pytest.raises(ValueError):
        engine.branch_profile("no_such_scheme")


# ----------------------------------------------------------------------
# Suffix sums and miss-run caching.
# ----------------------------------------------------------------------
def test_suffix_counts_match_direct_summation():
    rng = random.Random(7)
    for _ in range(50):
        histogram = {rng.randrange(0, 200): rng.randrange(1, 50)
                     for _ in range(rng.randrange(0, 30))}
        suffix = suffix_counts(histogram)
        for associativity in list(range(1, 210)) + [1000]:
            direct = sum(count for distance, count in histogram.items()
                         if distance >= associativity)
            got = (suffix[associativity] if associativity < len(suffix)
                   else 0)
            assert got == direct, (histogram, associativity)


def test_single_pass_result_misses_O1_after_unpickling():
    import pickle

    profiler = StackDistanceProfiler(4, 64)
    for address in (0, 64, 128, 0, 4096, 64, 8192, 0):
        profiler.access(address)
    result = profiler.result()
    clone = pickle.loads(pickle.dumps(result))
    for associativity in (1, 2, 4, 8, 64):
        assert clone.misses(associativity) == result.misses(associativity)


def test_l2_pass_memoizes_miss_runs():
    from array import array

    calls = []

    def counting(seqs, distances, associativity, window):
        calls.append((associativity, window))
        return count_miss_runs(seqs, distances, associativity, window)

    l2 = L2Pass(
        instruction_cold=0, data_cold=2,
        instruction_histogram={}, data_histogram={0: 1, 9: 1},
        data_seqs=array("q", [3, 10, 200, 210]),
        data_distances=array("q", [-1, 0, 9, -1]),
    )
    first = l2.data_miss_runs(8, 64, counting)
    again = l2.data_miss_runs(8, 64, counting)
    assert first == again
    assert calls == [(8, 64)]  # second query answered from the memo
    l2.data_miss_runs(1, 64, counting)  # new key -> one new computation
    assert len(calls) == 2


def test_count_miss_runs_reference_semantics():
    from array import array

    seqs = array("q", [0, 10, 100, 101, 400])
    distances = array("q", [-1, 3, 9, -1, 2])
    # associativity 8: misses at seq 0 (cold), 100 (>=8) and 101 (cold);
    # 400 is a hit (distance 2).  Window 64 groups 100/101 with each other
    # but not with 0 -> two runs.
    assert count_miss_runs(seqs, distances, 8, 64) == 2
    assert NumpyKernels().count_runs(seqs, distances, 8, 64) == 2
    # A window of 200 merges everything into one run.
    assert count_miss_runs(seqs, distances, 8, 200) == 1
    assert NumpyKernels().count_runs(seqs, distances, 8, 200) == 1


# ----------------------------------------------------------------------
# Backend selection.
# ----------------------------------------------------------------------
def test_env_variable_selects_backend(monkeypatch):
    monkeypatch.setenv(accel.ACCEL_ENV, "python")
    monkeypatch.setattr(accel, "_ACTIVE", None)
    assert accel.active_backend() == "python"


def test_set_backend_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown accel backend"):
        accel.set_backend("fortran")


def test_auto_falls_back_silently_when_numpy_missing(monkeypatch):
    def unavailable():
        raise ImportError("no numpy here")

    monkeypatch.setattr(accel, "_numpy_kernels", unavailable)
    assert accel.set_backend("auto").name == "python"
    with pytest.raises(ValueError, match="requested but unusable"):
        accel.set_backend("numpy")


def test_available_backends_reports_python_always():
    availability = accel.available_backends()
    assert availability["python"] is True
    assert "numpy" in availability


# ----------------------------------------------------------------------
# CLI and service surfaces.
# ----------------------------------------------------------------------
def test_cli_backends_lists_kernel_backends(capsys):
    from repro.cli import main as cli_main

    assert cli_main(["eval", "--backends"]) == 0
    out = capsys.readouterr().out
    assert "kernel backend" in out
    assert "python" in out and "numpy" in out


def test_cli_accel_flag_rejects_unknown(capsys):
    from repro.cli import main as cli_main

    with pytest.raises(SystemExit):
        cli_main(["eval", "--backends", "--accel", "cuda"])


def test_service_metrics_publish_accel_backend(tmp_path):
    from repro.service.client import ServiceClient
    from repro.service.server import ServerThread, ServiceConfig

    with ServerThread(ServiceConfig(port=0, jobs=1,
                                    cache_dir=str(tmp_path))) as running:
        client = ServiceClient(port=running.port)
        metrics = client.metrics()
    assert metrics["accel_backend"] == accel.active_backend()
    assert metrics["accel_backend"] in ("numpy", "python")
