"""Sweep-planner tests: grouping, zero-copy trace shipping, byte identity."""

from __future__ import annotations

import json

import pytest

from repro.api import evaluate, evaluate_many
from repro.api.planner import plan_requests, evaluate_group
from repro.api.spec import EvalRequest, MachineSpec, WorkloadSpec
from repro.dse.space import reduced_design_space
from repro.runtime.session import Session
from repro.trace.trace import Trace
from repro.trace.trace_schema import TRACE_SCHEMA_VERSION
from repro.workloads import get_workload


def _sweep_requests():
    return reduced_design_space().to_sweep(["sha", "dijkstra"]).expand()


def _serialized(results) -> str:
    return json.dumps([result.to_dict() for result in results])


def _unplanned(requests) -> str:
    """Request-by-request answers on a fresh session: the planner's oracle."""
    session = Session()
    return _serialized([evaluate(request, session=session)
                        for request in requests])


# ----------------------------------------------------------------------
# Planning.
# ----------------------------------------------------------------------
def test_groups_cover_the_batch_exactly_once():
    requests = _sweep_requests()
    groups = plan_requests(requests, jobs=1)
    seen = sorted(index for group in groups for index in group.indices)
    assert seen == list(range(len(requests)))
    assert {group.workload for group in groups} == {"sha", "dijkstra"}
    for group in groups:
        assert group.trace_version == TRACE_SCHEMA_VERSION
        for index, request in zip(group.indices, group.requests):
            assert requests[index] is request


def test_group_carries_resolved_machines_and_labels():
    requests = [
        EvalRequest(workload=WorkloadSpec("sha"),
                    machine=MachineSpec.make("paper_default",
                                             l2_size="1MB")),
        EvalRequest(workload=WorkloadSpec("sha")),
    ]
    (group,) = plan_requests(requests, jobs=1)
    labels = {label for _, _, label in group.machines}
    assert "paper_default+l2_size=1MB" in labels
    for spec, machine, _ in group.machines:
        assert spec.resolve() == machine


def test_requests_ordered_by_pass_signature_within_group():
    requests = _sweep_requests()
    (group,) = [g for g in plan_requests(requests, jobs=1)
                if g.workload == "sha"]
    machines = {spec: machine for spec, machine, _ in group.machines}

    def l2_geometry(request):
        machine = machines[request.machine]
        return (machine.l2_size // (machine.l2_associativity
                                    * machine.line_size),
                machine.branch_predictor)

    signatures = [l2_geometry(request) for request in group.requests]
    assert signatures == sorted(signatures)


def test_single_workload_sweep_splits_across_workers():
    requests = reduced_design_space().to_sweep(["sha"]).expand()
    groups = plan_requests(requests, jobs=4)
    assert len(groups) > 1
    seen = sorted(index for group in groups for index in group.indices)
    assert seen == list(range(len(requests)))


# ----------------------------------------------------------------------
# Zero-copy trace transport.
# ----------------------------------------------------------------------
def test_trace_payload_round_trip():
    trace = get_workload("sha").trace()
    payload = trace.to_payload()
    clone = Trace.from_payload(payload)
    assert clone.name == trace.name
    assert clone.pcs == trace.pcs
    assert clone.mem_addrs == trace.mem_addrs
    assert clone.op_classes == trace.op_classes
    assert clone.taken == trace.taken
    assert clone.static_index == trace.static_index
    assert list(clone.seqs) == list(trace.seqs)


def test_trace_payload_schema_mismatch_rejected():
    payload = get_workload("sha").trace().to_payload()
    payload["schema_version"] = -1
    with pytest.raises(ValueError, match="payload schema"):
        Trace.from_payload(payload)


def test_session_trace_payload_never_triggers_compilation():
    session = Session()
    assert session.trace_payload("sha") is None
    assert session.stats.workloads_compiled == 0
    session.workload("sha")
    assert session.trace_payload("sha") is not None


def test_adopted_trace_skips_compilation_in_the_worker():
    parent = Session()
    payload = parent.workload("sha").trace().to_payload()
    requests = tuple(
        EvalRequest(workload=WorkloadSpec("sha"),
                    machine=MachineSpec(preset)) for preset in
        ("paper_default", "big_l2_1mb")
    )
    (group,) = plan_requests(list(requests), jobs=1)
    worker = Session()
    results = evaluate_group(worker, group.with_payload(payload))
    assert len(results) == len(requests)
    assert worker.stats.workloads_compiled == 0
    assert worker.stats.traces_generated == 0


def test_adopt_trace_rejects_unknown_flags():
    trace = get_workload("sha").trace()
    with pytest.raises(ValueError, match="compiler flags"):
        Session().adopt_trace("sha", "O9", trace)


def test_segment_handle_payload_attaches_without_compilation():
    from repro.runtime.dataplane import (
        SegmentRegistry,
        detach_all,
        shared_memory_available,
    )

    if not shared_memory_available():
        pytest.skip("POSIX shared memory unavailable")
    parent = Session()
    registry = SegmentRegistry()
    try:
        handle = registry.publish(parent.workload("sha").trace())
        requests = [
            EvalRequest(workload=WorkloadSpec("sha"),
                        machine=MachineSpec(preset))
            for preset in ("paper_default", "big_l2_1mb")
        ]
        (group,) = plan_requests(requests, jobs=1)
        worker = Session()
        results = evaluate_group(worker, group.with_payload(handle))
        assert len(results) == len(requests)
        assert worker.stats.workloads_compiled == 0
        assert worker.stats.traces_generated == 0
        # Same answers as the payload-dict transport.
        payload_results = evaluate_group(
            Session(), group.with_payload(parent.trace_payload("sha")))
        assert ([r.to_dict() for r in results]
                == [r.to_dict() for r in payload_results])
    finally:
        detach_all()
        registry.close()


def test_segment_handle_schema_mismatch_rejected():
    from dataclasses import replace

    from repro.runtime.dataplane import (
        SegmentRegistry,
        shared_memory_available,
    )

    if not shared_memory_available():
        pytest.skip("POSIX shared memory unavailable")
    parent = Session()
    registry = SegmentRegistry()
    try:
        handle = registry.publish(parent.workload("sha").trace())
        (group,) = plan_requests(
            [EvalRequest(workload=WorkloadSpec("sha"))], jobs=1)
        stale = replace(handle, schema_version=-1)
        with pytest.raises(ValueError, match="mismatched trace segment"):
            evaluate_group(Session(), group.with_payload(stale))
    finally:
        registry.close()


# ----------------------------------------------------------------------
# Byte identity across planning modes and job counts.
# ----------------------------------------------------------------------
def test_planned_output_identical_to_unplanned():
    requests = _sweep_requests()
    planned = _serialized(evaluate_many(requests))
    assert planned == _unplanned(requests)


def test_parallel_planned_output_identical_to_serial():
    requests = _sweep_requests()
    serial = _serialized(evaluate_many(requests, jobs=1))
    parallel = _serialized(evaluate_many(requests, jobs=2))
    assert serial == parallel


def test_mixed_backend_batches_still_plan_correctly():
    requests = [
        EvalRequest(workload=WorkloadSpec("sha"), backend="analytical"),
        EvalRequest(workload=WorkloadSpec("sha"), backend="simulator"),
        EvalRequest(workload=WorkloadSpec("sha"), backend="analytical_exact"),
    ]
    planned = _serialized(evaluate_many(requests))
    assert planned == _unplanned(requests)


def test_with_power_requests_take_the_scalar_path():
    requests = [
        EvalRequest(workload=WorkloadSpec("sha"), with_power=True),
        EvalRequest(workload=WorkloadSpec("sha")),
    ]
    results = evaluate_many(requests)
    assert results[0].energy_joules is not None
    assert results[1].energy_joules is None
    assert _serialized(results) == _unplanned(requests)


def test_simulator_points_are_booked_to_the_simulate_stage():
    from repro.api.planner import evaluate_group_timed

    requests = [
        EvalRequest(workload=WorkloadSpec("sha"), backend="simulator"),
        EvalRequest(workload=WorkloadSpec("sha"), backend="analytical_exact"),
    ]
    session = Session()
    (group,) = plan_requests(requests)
    results, stages = evaluate_group_timed(session, group)
    assert [result.backend for result in results] == [
        "simulator", "analytical_exact"]
    assert stages["simulate"] > 0.0
    assert stages["model"] > 0.0
    # Simulator-only batches book nothing to the model stage.
    (group,) = plan_requests(requests[:1])
    _, stages = evaluate_group_timed(session, group)
    assert set(stages) == {"attach", "simulate"}
