"""The stdlib simulator events against the object-replay oracle.

:meth:`repro.accel.PythonKernels.pipeline_events` derives every
instruction's fetch latency, data latency and branch outcome from per-access
stack distances.  Every cache and TLB is true LRU, so the columns and the
hierarchy's miss counts must equal a replay through the oracle's
:class:`memory_oracle.CacheHierarchy` and branch predictor
(:func:`memory_oracle.replay_pipeline_events`) bit for bit.
"""

from __future__ import annotations

import pytest
from memory_oracle import replay_pipeline_events
from test_single_pass_engine import CUSTOM_CONFIGS, negative_address_trace

from repro.accel import PythonKernels
from repro.dse.space import reduced_design_space
from repro.machine import MachineConfig
from repro.workloads import get_workload


def _event_machines() -> list[MachineConfig]:
    """One machine per distinct event key of the reduced space, then the
    off-space geometries."""
    machines: dict[tuple, MachineConfig] = {}
    for machine in reduced_design_space().to_sweep(()).configurations():
        machines.setdefault(
            (machine.memory_hierarchy_config(), machine.branch_predictor),
            machine)
    return [*machines.values(), *CUSTOM_CONFIGS]


EVENT_MACHINES = _event_machines()


@pytest.mark.parametrize("name", ("sha", "dijkstra", "tiffmedian"))
def test_events_match_replay(name):
    trace = get_workload(name).trace()
    kernels = PythonKernels()
    for machine in EVENT_MACHINES:
        events = kernels.pipeline_events(trace, machine)
        replayed = replay_pipeline_events(trace, machine)
        assert events.stats == replayed.stats, machine.name
        assert events == replayed, machine.name


def test_negative_effective_addresses_match_replay():
    trace = negative_address_trace()
    for machine in (MachineConfig(), *CUSTOM_CONFIGS):
        assert PythonKernels().pipeline_events(trace, machine) == \
            replay_pipeline_events(trace, machine), machine.name


@pytest.mark.parametrize("name", ("sha", "dijkstra"))
def test_shared_memo_gives_the_events_of_a_fresh_call(name):
    """One ``shared`` dict reused across machines changes no event, and
    holds the work the machines have in common."""
    trace = get_workload(name).trace()
    kernels = PythonKernels()
    shared: dict = {}
    for machine in EVENT_MACHINES:
        assert kernels.pipeline_events(trace, machine, shared) == \
            kernels.pipeline_events(trace, machine), machine.name
    # One control column per predictor, not per machine.
    controls = [key for key in shared if key[0] == "control"]
    assert len(controls) == len({machine.branch_predictor
                                 for machine in EVENT_MACHINES})
