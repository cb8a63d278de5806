"""Sweep-planner tests: grouping, zero-copy trace shipping, byte identity."""

from __future__ import annotations

import contextlib
import json

import pytest

from repro.api import evaluate, evaluate_many
from repro.api.planner import plan_requests, evaluate_group
from repro.api.spec import EvalRequest, MachineSpec, WorkloadSpec
from repro.dse.space import default_design_space, reduced_design_space
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
    labels = {entry.label for entry in group.machines}
    assert "paper_default+l2_size=1MB" in labels
    for entry in group.machines:
        assert entry.spec.resolve() == entry.machine


def test_requests_ordered_by_pass_signature_within_group():
    requests = _sweep_requests()
    (group,) = [g for g in plan_requests(requests, jobs=1)
                if g.workload == "sha"]
    def l2_geometry(position):
        machine = group.machines[group.entries[position]].machine
        return (machine.l2_size // (machine.l2_associativity
                                    * machine.line_size),
                machine.branch_predictor)

    signatures = [l2_geometry(position)
                  for position in range(len(group.requests))]
    assert signatures == sorted(signatures)


def test_single_workload_sweep_splits_across_workers():
    requests = reduced_design_space().to_sweep(["sha"]).expand()
    groups = plan_requests(requests, jobs=4)
    assert len(groups) > 1
    seen = sorted(index for group in groups for index in group.indices)
    assert seen == list(range(len(requests)))


def test_machine_label_does_not_depend_on_the_rest_of_the_batch():
    """``12`` and ``12.0`` are equal specs that label differently; each
    request keeps its own label whatever else its batch holds."""
    def labels(*values):
        requests = [EvalRequest(workload=WorkloadSpec("sha"),
                                machine=MachineSpec.make(l2_ns=value))
                    for value in values]
        (group,) = plan_requests(requests)
        return [group.machines[entry].label for entry in group.entries]

    assert labels(12) == ["paper_default+l2_ns=12"]
    assert labels(12, 12.0) == ["paper_default+l2_ns=12",
                                "paper_default+l2_ns=12.0"]
    assert labels(12.0, 12) == ["paper_default+l2_ns=12.0",
                                "paper_default+l2_ns=12"]
    results = evaluate_many([{"workload": "sha", "machine": {"l2_ns": value}}
                             for value in (12.0, 12)])
    assert [result.machine for result in results] == [
        "paper_default+l2_ns=12.0", "paper_default+l2_ns=12"]


def test_machine_table_holds_each_distinct_spec_once():
    requests = default_design_space().to_sweep(["sha", "dijkstra"]).expand()
    groups = plan_requests(requests)
    (table,) = {group.machines for group in groups}
    assert len(table) == 192
    for group in groups:
        for entry, request in zip(group.entries, group.requests):
            assert table[entry].spec == request.machine
            assert table[entry].machine is request.machine.resolve()


def _mixed_batch():
    """Aliased backends, power on and off, two windows, repeated specs,
    and one machine given as a preset name and as equal overrides."""
    import random

    little = MachineSpec("little_5stage_600mhz")
    specs = [MachineSpec(), little,
             MachineSpec.from_machine(little.resolve()),
             MachineSpec.make(l2_size="1MB", width=2)]
    assert specs[2] != little and specs[2].resolve() == little.resolve()
    requests = [
        EvalRequest(workload=WorkloadSpec(name), machine=spec,
                    backend=backend, with_power=with_power,
                    mlp_window=window)
        for name in ("sha", "dijkstra")
        for spec in specs + specs[:2]
        for backend, with_power, window in (
            ("analytical", False, 64), ("model", True, 64),
            ("analytical", True, 32), ("simulator", False, 64),
            ("simulator", True, 32))
    ]
    random.Random(7).shuffle(requests)
    return requests


def test_mixed_batch_is_byte_identical_to_per_request_answers():
    requests = _mixed_batch()
    planned = evaluate_many(requests, jobs=1)
    session = Session()
    for request, result in zip(requests, planned):
        alone = evaluate(request, session=session)
        assert result.to_json() == alone.to_json()
    assert {result.backend for result in planned} == {"analytical",
                                                      "simulator"}


def test_bad_distinct_spec_names_the_first_request_using_it():
    first, second = MachineSpec(), MachineSpec("little_5stage_600mhz")
    bad = MachineSpec.make(width=0)
    specs = [first, second, first, second, first, bad,
             MachineSpec.make(width=0), second]
    requests = [EvalRequest(workload=WorkloadSpec("sha"), machine=spec)
                for spec in specs]
    # The bad spec is the batch's third distinct one, first used at 5.
    with pytest.raises(ValueError, match=r"^request\[5\]: width must be"):
        evaluate_many(requests)


def test_pickled_spec_carries_no_cached_hash():
    import pickle

    spec = MachineSpec.make(l2_size="1MB", branch_predictor="hybrid_3.5kb")
    hash(spec)
    spec.resolve()
    clone = pickle.loads(pickle.dumps(spec))
    assert "_hash" not in clone.__dict__
    assert "_resolution" not in clone.__dict__
    assert clone == spec and hash(clone) == hash(spec)


# ----------------------------------------------------------------------
# Trace transport: column-bytes payloads.
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


def test_group_payload_schema_mismatch_rejected():
    parent = Session()
    (group,) = plan_requests(
        [EvalRequest(workload=WorkloadSpec("sha"))], jobs=1)
    stale = dict(parent.workload("sha").trace().to_payload(),
                 schema_version=-1)
    with pytest.raises(ValueError, match="mismatched trace payload"):
        evaluate_group(Session(), group.with_payload(stale))


def test_adopt_trace_rejects_unknown_flags():
    trace = get_workload("sha").trace()
    with pytest.raises(ValueError, match="compiler flags"):
        Session().adopt_trace("sha", "O9", trace)


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
        EvalRequest(workload=WorkloadSpec("sha"), backend="analytical"),
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
        EvalRequest(workload=WorkloadSpec("sha"), backend="analytical"),
    ]
    session = Session()
    (group,) = plan_requests(requests)
    results, stages = evaluate_group_timed(session, group)
    assert [result.backend for result in results] == [
        "simulator", "analytical"]
    assert stages["simulate"] > 0.0
    assert stages["model"] > 0.0
    # Simulator-only batches book nothing to the model stage.
    (group,) = plan_requests(requests[:1])
    _, stages = evaluate_group_timed(session, group)
    assert set(stages) == {"attach", "simulate"}


def test_power_sweep_shares_miss_profiles_across_machines():
    requests = default_design_space().to_sweep(
        ["sha"], backends=("analytical",), with_power=True).expand()
    session = Session()
    planned = _serialized(evaluate_many(requests, session=session))
    # One profile per memory hierarchy and predictor: 16 (one per point,
    # 192, when power requests took a per-point loop).
    assert session.stats.miss_profiles_built == 16
    assert planned == _unplanned(requests)


def test_exact_profiling_is_booked_to_the_profile_stage():
    from repro.api.planner import evaluate_group_timed

    requests = [
        EvalRequest(workload=WorkloadSpec("sha"), backend="analytical",
                    machine=MachineSpec.make(width=width))
        for width in (1, 2)
    ]
    (group,) = plan_requests(requests)
    _, stages = evaluate_group_timed(Session(), group)
    assert stages["profile"] > 0.0
    assert stages["model"] > 0.0


# ----------------------------------------------------------------------
# Routing: the pool builds, the parent answers.
# ----------------------------------------------------------------------
def _machines(*l2_sizes):
    return [MachineSpec.make(l2_size=size, width=width)
            for size in l2_sizes for width in (1, 2)]


def _routing_batch(workloads, machines, with_power=False):
    return [
        EvalRequest(workload=WorkloadSpec(name), machine=machine,
                    backend=backend, with_power=with_power)
        for name in workloads
        for machine in machines
        for backend in ("analytical", "simulator")
    ]


class _SubmitCounter:
    """Counts :meth:`WorkerPool.submit_all` calls (it still submits)."""

    def __init__(self, monkeypatch):
        from repro.runtime.scheduler import WorkerPool

        self.calls = 0
        submit_all = WorkerPool.submit_all

        def counted(pool, fn, items):
            self.calls += 1
            return submit_all(pool, fn, items)

        monkeypatch.setattr(WorkerPool, "submit_all", counted)


def _warm_pool_session(stack, names=("sha", "dijkstra")):
    """A 2-worker session that holds ``names``' traces (so it ships
    them, and installs what its workers build for them)."""
    from repro.runtime.session import pooled_session

    session = stack.enter_context(pooled_session(None, 2))
    for name in names:
        session.workload(name)
    return session


@pytest.mark.parametrize("with_power", [False, True])
@pytest.mark.parametrize("kernels", ["python", "numpy"])
def test_routed_batches_are_byte_identical_to_serial(kernels, with_power):
    from repro import accel

    if kernels not in [name for name, usable
                       in accel.available_backends().items() if usable]:
        pytest.skip(f"kernel backend {kernels} unavailable")
    cold = _routing_batch(("sha", "dijkstra"), _machines("128KB"),
                          with_power)
    # sha is warm after ``cold``; dijkstra on new L2 sizes and qsort are
    # not: one group answered here, two built by the pool.
    mixed = (_routing_batch(("sha",), _machines("128KB"), with_power)
             + _routing_batch(("dijkstra", "qsort"), _machines("1MB"),
                              with_power))
    previous = accel.active_backend()
    accel.set_backend(kernels)
    try:
        with contextlib.ExitStack() as stack:
            session = _warm_pool_session(stack, ("sha", "dijkstra", "qsort"))
            routed = []
            for batch in (cold, cold, mixed):
                before = (session.stats.groups_inline,
                          session.stats.groups_pooled)
                routed.append(_serialized(evaluate_many(batch,
                                                        session=session)))
                routed.append((session.stats.groups_inline - before[0],
                               session.stats.groups_pooled - before[1]))
        serial = [_serialized(evaluate_many(batch, session=Session()))
                  for batch in (cold, cold, mixed)]
    finally:
        accel.set_backend(previous)
    # all cold, all warm, mixed: (inline, pooled) groups of each batch.
    assert routed[1::2] == [(0, 2), (2, 0), (1, 2)]
    assert routed[0::2] == serial


def test_warm_batch_makes_no_pool_submission(monkeypatch):
    counter = _SubmitCounter(monkeypatch)
    requests = _routing_batch(("sha", "dijkstra"), _machines("512KB"))
    with contextlib.ExitStack() as stack:
        session = _warm_pool_session(stack)
        evaluate_many(requests, session=session)
        assert counter.calls == 1
        evaluate_many(requests, session=session)
        assert counter.calls == 1


def test_rerun_after_a_pooled_batch_is_answered_in_the_parent():
    requests = default_design_space().to_sweep(["sha", "dijkstra"]).expand()
    with contextlib.ExitStack() as stack:
        session = _warm_pool_session(stack)
        first = _serialized(evaluate_many(requests, session=session))
        assert session.stats.groups_pooled == 2
        # The pool built them (16 miss keys a trace), and they are
        # counted here; the parent profiled nothing itself.
        assert session.stats.miss_profiles_built == 32
        assert session.profile_seconds == 0.0
        again = _serialized(evaluate_many(requests, session=session))
        assert session.stats.groups_inline == 2
        assert session.stats.groups_pooled == 2
        assert session.stats.miss_profiles_built == 32
        assert session.profile_seconds == 0.0
    assert first == again


def test_power_needs_profiles_beyond_the_simulations():
    def simulated(with_power):
        return [EvalRequest(workload=WorkloadSpec(name), machine=machine,
                            backend="simulator", with_power=with_power)
                for name in ("sha", "dijkstra")
                for machine in _machines("512KB")]

    with contextlib.ExitStack() as stack:
        session = _warm_pool_session(stack)
        evaluate_many(simulated(False), session=session)
        # Simulations are warm; the energy's miss profiles are not.
        powered = _serialized(evaluate_many(simulated(True),
                                            session=session))
        assert session.stats.groups_inline == 0
        assert session.stats.groups_pooled == 4
        # The workers built the energy's miss profiles, not the parent.
        assert session.stats.miss_profiles_built == 2
        assert session.profile_seconds == 0.0
    assert powered == _serialized(evaluate_many(simulated(True),
                                                session=Session()))


def test_quarantined_workload_fails_even_when_warm(monkeypatch):
    counter = _SubmitCounter(monkeypatch)
    requests = _routing_batch(("sha", "dijkstra"), _machines("512KB"))
    with contextlib.ExitStack() as stack:
        session = _warm_pool_session(stack)
        evaluate_many(requests, session=session)
        session.health.quarantine("sha", "unit 'sha' quarantined: test")
        results = evaluate_many(requests, session=session)
    assert counter.calls == 1  # the quarantined group was never run
    assert {result.workload for result in results if result.error} == {"sha"}
    assert all("quarantined" in result.error
               for result in results if result.workload == "sha")
    assert not any(result.error for result in results
                   if result.workload == "dijkstra")


def test_third_party_backend_still_goes_to_the_pool(monkeypatch):
    from repro.api.backends import (
        BACKENDS,
        BackendCapabilities,
        EvalBackend,
        SliceAnswer,
        register_backend,
    )

    @register_backend("routing_constant_cpi")
    class ConstantBackend(EvalBackend):
        name = "routing_constant_cpi"
        capabilities = BackendCapabilities(power=False)

        def evaluate(self, session, workload, machines, *,
                     with_power=False, mlp_window=64):
            instructions = len(workload.trace())
            return SliceAnswer(instructions,
                               [2.0 * instructions] * len(machines))

    counter = _SubmitCounter(monkeypatch)
    requests = [
        EvalRequest(workload=WorkloadSpec(name), machine=MachineSpec(preset),
                    backend="routing_constant_cpi")
        for name in ("sha", "dijkstra")
        for preset in ("paper_default", "big_l2_1mb")
    ]
    try:
        with contextlib.ExitStack() as stack:
            session = _warm_pool_session(stack)
            first = _serialized(evaluate_many(requests, session=session))
            again = _serialized(evaluate_many(requests, session=session))
            assert session.stats.groups_inline == 0
            assert session.stats.groups_pooled == 4
    finally:
        BACKENDS.unregister("routing_constant_cpi")
    assert counter.calls == 2
    assert first == again


def test_table2_machines_share_sixteen_miss_memo_entries():
    session = Session()
    workload = session.workload("sha")
    machines = default_design_space().to_sweep(["sha"]).machines
    assert len(machines) == 192
    profiles = [session.miss_profile(workload, machine.resolve())
                for machine in machines]
    assert session.stats.miss_profiles_built == 16
    assert len({id(profile) for profile in profiles}) == 16


def test_worker_returns_its_group_entries_it_built_earlier():
    """A worker that already held a group's entries still sends them."""
    from repro.api.planner import build_group

    requests = _routing_batch(("sha",), _machines("256KB"), with_power=True)
    worker = Session()
    parent = Session()
    parent.workload("sha")
    (group,) = plan_requests(requests)
    shipped = group.with_payload(parent.trace_payload("sha"))
    first = build_group(worker, shipped)
    again = build_group(worker, shipped)
    assert first[0] == again[0]
    program, misses, simulations = again[2]
    assert program == first[2][0] and len(program) == 1
    # One miss key; two simulated machines.
    assert len(misses) == 1 and len(simulations) == 2
    assert build_group(worker, group)[2] is None  # nothing shipped


def test_worker_reports_the_work_it_counted(monkeypatch):
    """A pool worker returns each unit's counter delta with its result; a
    unit run in the parent returns none, since the parent counted it."""
    from repro.api.planner import build_group
    from repro.runtime import scheduler

    requests = _routing_batch(("sha",), _machines("256KB"), with_power=True)
    (group,) = plan_requests(requests)
    parent = Session()
    assert len(build_group(parent, group)) == 3
    assert parent.stats.traces_generated == 1
    worker = Session()
    monkeypatch.setattr(scheduler, "_WORKER_SESSION", worker)
    results, work = scheduler._worker_call((build_group, group, None))
    assert results[0] == build_group(parent, group)[0]
    assert work["traces_generated"] == 1
    assert work["miss_profiles_built"] == 1
    assert "groups_pooled" not in work and "groups_inline" not in work
    # Nothing new to build.
    assert scheduler._worker_call((build_group, group, None))[1] == {}


def _trace_count(session, name: str) -> int:
    """Pool unit: build ``name``'s trace in the worker's session."""
    session.workload(name)
    return session.stats.traces_generated


@pytest.mark.parametrize("jobs", [1, 2])
def test_session_map_counts_every_pooled_units_work(jobs):
    """Plain :meth:`Session.map` units (the experiment drivers) report the
    work their workers did, as a ``jobs=1`` run does."""
    from repro.runtime.session import pooled_session

    with pooled_session(None, jobs) as session:
        session.map(_trace_count, ["sha", "dijkstra"])
        assert session.stats.traces_generated == 2


def _trace_count_or_fail(session, name: str) -> int:
    """Pool unit: build ``name``'s trace, then fail for ``dijkstra``."""
    count = _trace_count(session, name)
    if name == "dijkstra":
        raise RuntimeError(f"{name} failed after its trace was built")
    return count


@pytest.mark.parametrize("jobs", [1, 2])
def test_session_map_counts_a_failing_units_work(jobs):
    """A pooled unit that raises after building a trace still reports
    that work to the parent, as the same unit run inline does."""
    from repro.runtime.session import pooled_session

    with pooled_session(None, jobs) as session:
        with pytest.raises(RuntimeError, match="after its trace was built"):
            session.map(_trace_count_or_fail, ["sha", "dijkstra"])
        assert session.stats.traces_generated == 2


def test_mixed_sweep_group_is_never_split():
    """A group with a simulator slice stays whole at any job count, so its
    trace is built once and its timing loops are shared."""
    requests = reduced_design_space().to_sweep(
        ["sha"], backends=("analytical", "simulator"),
        with_power=True).expand()
    for jobs in (1, 2, 4):
        (group,) = plan_requests(requests, jobs=jobs)
        assert len(group.requests) == len(requests)
    counters = {}
    for jobs in (1, 2):
        from repro.runtime.session import pooled_session

        with pooled_session(None, jobs) as session:
            evaluate_many(requests, session=session)
            counters[jobs] = (session.stats.traces_generated,
                              session.stats.sim_timing_loops_run)
    assert counters[2] == counters[1] == (1, 6)


def test_parent_that_loads_the_trace_later_answers_it_inline():
    from repro.runtime.session import pooled_session

    requests = _routing_batch(("sha",), _machines("256KB"))
    with pooled_session(None, 2) as session:
        cold = _serialized(evaluate_many(requests, session=session))
        session.workload("sha")  # e.g. a later one-request sweep
        evaluate_many(requests, session=session)
        assert (session.stats.groups_inline,
                session.stats.groups_pooled) == (0, 2)
        warm = _serialized(evaluate_many(requests, session=session))
        assert (session.stats.groups_inline,
                session.stats.groups_pooled) == (1, 2)
        assert session.profile_seconds == 0.0  # the pool built them all
    assert warm == cold


def _build_counters(session) -> tuple:
    stats = session.stats
    return (stats.miss_profiles_built, session.profile_seconds,
            stats.sim_event_sets_built, stats.sim_timing_loops_run)


_SLICES = [(backend, with_power, mlp_window)
           for backend in ("analytical", "simulator")
           for with_power in (False, True)
           for mlp_window in (32, 64)]


@pytest.mark.parametrize("backend,with_power,mlp_window", _SLICES)
def test_is_warm_agrees_with_what_evaluate_builds(backend, with_power,
                                                  mlp_window):
    """Whenever a built-in backend says warm, ``evaluate`` builds nothing;
    and after ``evaluate`` it says warm (or its groups stay pooled)."""
    from repro.api.backends import get_backend

    machines = [spec.resolve() for spec in _machines("64KB", "2MB")]
    trace = get_workload("sha").trace()
    target = (backend, with_power, mlp_window)

    def run(session, workload, name, power, window):
        get_backend(name).evaluate(session, workload, machines,
                                   with_power=power, mlp_window=window)

    def warm_after(warmed) -> bool:
        session = Session()
        workload = session.adopt_trace("sha", "O3", trace)
        run(session, workload, *warmed)
        name, power, window = target
        if not get_backend(name).is_warm(session, workload, machines,
                                         with_power=power, mlp_window=window):
            return False
        before = _build_counters(session)
        run(session, workload, *target)
        assert _build_counters(session) == before, warmed
        return True

    # What any other slice leaves in the memos must not fool is_warm.
    for other in _SLICES:
        if other != target:
            warm_after(other)
    assert warm_after(target)
