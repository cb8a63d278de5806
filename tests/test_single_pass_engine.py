"""Equivalence suite: single-pass engine vs. the object-replay oracle.

The stack-distance engine must reproduce the *exact* per-configuration
:class:`~repro.profiler.machine_stats.MissProfile` (L1I/L1D/L2/TLB miss
counts, MLP miss runs and branch statistics) of a full replay through the
test oracle's cache hierarchy (``tests/memory_oracle.py``).
The suite sweeps every MiBench workload across the Figure 5 design space
(its reduced form, the one ``figure5.run`` uses by default) and a set of
off-space geometries (smaller L1s, different line size, tiny TLB) that the
design space itself never varies.

The replay side is memoized on the miss-relevant configuration fields —
width/depth/frequency do not influence miss counts — so the suite replays
each distinct hierarchy once while still asserting equality for every
(workload, configuration) pair.
"""

from __future__ import annotations

import dataclasses

import pytest
from memory_oracle import profile_machine_replay

from repro.dse.space import reduced_design_space
from repro.machine import MachineConfig
from repro.profiler.machine_stats import MissProfile, profile_machine
from repro.profiler.single_pass_engine import SinglePassEngine
from repro.workloads import all_workload_names, get_workload
from repro.workloads.registry import MIBENCH_BUILDERS

#: Off-space configurations exercising geometry dimensions Table 2 fixes.
CUSTOM_CONFIGS = (
    MachineConfig(name="tiny_l1", l1i_size=8 * 1024, l1i_associativity=2,
                  l1d_size=8 * 1024, l1d_associativity=2),
    MachineConfig(name="narrow_lines", line_size=32, l2_size=256 * 1024),
    MachineConfig(name="tiny_tlb", tlb_entries=4, page_size=1024),
    MachineConfig(name="direct_mapped", l1i_associativity=1,
                  l1d_associativity=1, l2_associativity=1,
                  branch_predictor="bimodal"),
)


def _counts(profile: MissProfile) -> dict[str, int]:
    """All counter fields (everything except the machine back-reference)."""
    return {
        field.name: getattr(profile, field.name)
        for field in dataclasses.fields(profile)
        if field.name != "machine"
    }


def _replay_key(machine: MachineConfig) -> tuple:
    """The configuration fields that can influence a miss profile."""
    return (
        machine.l1i_size, machine.l1i_associativity,
        machine.l1d_size, machine.l1d_associativity,
        machine.l2_size, machine.l2_associativity,
        machine.line_size, machine.tlb_entries, machine.page_size,
        machine.branch_predictor,
    )


@pytest.mark.parametrize("name", sorted(MIBENCH_BUILDERS))
def test_engine_matches_replay_across_figure5_space(name):
    trace = get_workload(name).trace()
    engine = SinglePassEngine.for_trace(trace)
    replayed: dict[tuple, dict[str, int]] = {}
    for machine in reduced_design_space().to_sweep(()).configurations():
        key = _replay_key(machine)
        if key not in replayed:
            replayed[key] = _counts(profile_machine_replay(trace, machine))
        assert _counts(engine.miss_profile(machine)) == replayed[key], (
            f"{name}: single-pass profile diverges from replay on {machine.name}"
        )


@pytest.mark.parametrize("machine", CUSTOM_CONFIGS, ids=lambda m: m.name)
@pytest.mark.parametrize("name", ("sha", "dijkstra", "tiffmedian"))
def test_engine_matches_replay_off_space(name, machine):
    trace = get_workload(name).trace()
    replayed = profile_machine_replay(trace, machine)
    fast = profile_machine(trace, machine)
    assert _counts(fast) == _counts(replayed)


def test_engine_matches_replay_with_custom_mlp_window():
    trace = get_workload("tiffmedian").trace()
    machine = MachineConfig(l2_size=128 * 1024)
    for window in (1, 16, 256):
        replayed = profile_machine_replay(trace, machine, mlp_window=window)
        fast = profile_machine(trace, machine, mlp_window=window)
        assert fast.dl2_miss_runs == replayed.dl2_miss_runs


def negative_address_trace():
    """Loads from effective address -1 and 0, twice each."""
    from repro.isa import ProgramBuilder
    from repro.trace import FunctionalSimulator

    b = ProgramBuilder("neg_addr")
    b.li(1, 0)
    for _ in range(2):
        b.lw(2, 1, -1)
        b.lw(3, 1, 0)
    b.halt()
    return FunctionalSimulator(b.build()).run()


def test_negative_effective_addresses_match_replay():
    # A raw -1 in the mem_addrs column is a genuine address, not a sentinel;
    # the engine must feed it to the caches exactly like the replay path.
    trace = negative_address_trace()
    machine = MachineConfig()
    assert _counts(profile_machine(trace, machine)) == _counts(
        profile_machine_replay(trace, machine)
    )


def test_engine_is_cached_on_the_trace():
    # A fresh workload: the registry-cached trace may already carry an
    # engine populated by other tests.
    trace = get_workload("sha", use_cache=False).trace()
    engine = SinglePassEngine.for_trace(trace)
    assert SinglePassEngine.for_trace(trace) is engine
    machine = MachineConfig()
    engine.miss_profile(machine)
    base_passes = len(engine._base_passes)
    l2_passes = len(engine._l2_passes)
    branch_profiles = len(engine._branch_profiles)
    # A second configuration differing only in width/depth reuses every pass.
    engine.miss_profile(machine.with_(width=1, pipeline_stages=5))
    assert len(engine._base_passes) == base_passes
    assert len(engine._l2_passes) == l2_passes
    assert len(engine._branch_profiles) == branch_profiles
    # A new L2 geometry adds exactly one (short) L2 pass, no base pass.
    engine.miss_profile(machine.with_(l2_size=128 * 1024))
    assert len(engine._base_passes) == base_passes
    assert len(engine._l2_passes) == l2_passes + 1
    # Same sets, different (size, associativity): 256KB 16-way aliases the
    # 128KB 8-way geometry, so the pass cache answers it for free.
    engine.miss_profile(machine.with_(l2_size=256 * 1024, l2_associativity=16))
    assert len(engine._l2_passes) == l2_passes + 1


def test_spec_suite_smoke_equivalence():
    """The SPEC-like kernels stress the memory system much harder; one
    default-machine equivalence point per workload guards the high-miss
    regime without replaying a whole space."""
    machine = MachineConfig()
    for name in all_workload_names():
        if name in MIBENCH_BUILDERS:
            continue
        trace = get_workload(name).trace()
        assert _counts(profile_machine(trace, machine)) == _counts(
            profile_machine_replay(trace, machine)
        ), name


def _counting_kernels():
    """The active backend, counting every pass stream it starts."""
    from collections import Counter

    from repro.accel import get_kernels

    built = Counter()

    class CountingKernels(type(get_kernels())):
        def base_stream(self, geometry):
            built["base"] += 1
            return super().base_stream(geometry)

        def l2_stream(self, sets, line_size, run_keys=()):
            built["l2"] += 1
            return super().l2_stream(sets, line_size, run_keys)

        def branch_stream(self, predictor_spec):
            built["branch"] += 1
            return super().branch_stream(predictor_spec)

    return CountingKernels(), built


def test_table2_space_costs_one_base_five_l2_two_branch_passes():
    """A resident engine answers all 192 Table-2 machines from 1 base,
    5 L2 and 2 branch passes.  L2 set counts 256, 512 and 1024 are each
    shared by an 8-way and a 16-way point: the second one must reuse the
    kept L2 pass (and any new MLP window its kept data columns), never
    re-stream the geometry."""
    from repro.dse.space import default_design_space

    machines = default_design_space().to_sweep(()).configurations()
    assert len(machines) == 192
    trace = get_workload("sha").trace()
    reference = SinglePassEngine(trace)
    for one_at_a_time in (True, False):
        kernels, built = _counting_kernels()
        engine = SinglePassEngine(trace, kernels)
        if one_at_a_time:
            profiles = [engine.miss_profile(machine) for machine in machines]
        else:
            profiles = engine.profile_machines(machines)
        engine.profile_machines(machines, mlp_window=16)
        assert dict(built) == {"base": 1, "l2": 5, "branch": 2}
        assert engine.walks <= 2  # one per predictor at most
        assert [_counts(profile) for profile in profiles] == [
            _counts(reference.miss_profile(machine)) for machine in machines
        ]
