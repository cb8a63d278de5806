"""Geometry-grouped execution planning for request batches.

``evaluate_many`` used to shard a batch request-by-request: every worker
resolved its own machines and recomputed every profiling pass its shard
touched, so a 192-point sweep sharded four ways paid for the same base
pass four times.  The planner regroups the batch before any work starts:

* requests are grouped by **trace identity** ``(workload name, compiler
  flags)`` — the unit that owns profiling passes — and, within a group,
  ordered by pass signature ``(front-end geometry, L2 geometry, predictor
  spec, mlp window)``, so the engine computes each unique pass exactly
  once per trace *across the whole batch* and in cache-friendly order;
* each group becomes one work item for :meth:`Session.map`; a trace the
  parent session already holds ships to the worker through the active
  data plane — a zero-copy shared-memory
  :class:`~repro.runtime.dataplane.SegmentHandle` the worker attaches, or
  raw column bytes (``array.tobytes``/``frombytes`` — see
  :meth:`~repro.trace.trace.Trace.to_payload`) on platforms without POSIX
  shared memory — instead of a pickled object graph, and cold traces are
  built by the owning worker, keeping cold batches as parallel as before;
* machines are resolved and labelled **once per unique spec** per group
  instead of once per request;
* plain ``analytical`` requests share one miss profile per memory and
  predictor side, and the group's points are answered by one batched
  model evaluation (:func:`~repro.core.model.predict_many`, the same
  code on every kernel backend), byte-identical to per-point backend
  calls.

Groups larger than a fair share are split along pass-signature boundaries
when the batch has fewer groups than workers, so a single-workload sweep
still saturates the pool.

Everything is order-preserving: results are reassembled into request
order, so planned output is byte-identical to the unplanned path at any
job count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.api.backends import BACKENDS, get_backend
from repro.api.spec import EvalRequest, EvalResult, MachineSpec
from repro.machine import MachineConfig
from repro.obs.tracing import emit_span, span
from repro.runtime.dataplane import SegmentHandle, attach_trace
from repro.trace.trace import Trace
from repro.trace.trace_schema import TRACE_SCHEMA_VERSION


def _pass_signature(machine: MachineConfig, request: EvalRequest) -> tuple:
    """Sort key grouping requests that share profiling passes."""
    line = machine.line_size
    return (
        # Front-end geometry (base pass).
        machine.l1i_size, machine.l1i_associativity,
        machine.l1d_size, machine.l1d_associativity, line, machine.page_size,
        # L2 geometry (L2 pass).
        machine.l2_size // (machine.l2_associativity * line), line,
        # Branch pass and miss-run memo key.
        machine.branch_predictor, request.mlp_window,
    )


@dataclass(frozen=True)
class PlannedGroup:
    """One work item: requests sharing a trace, in pass-signature order."""

    workload: str
    flags: str
    #: Trace schema the payload (if any) was packed with.
    trace_version: int
    #: Positions of ``requests`` in the original batch.
    indices: tuple[int, ...]
    requests: tuple[EvalRequest, ...]
    #: Machines resolved and labelled at planning time — (spec, config,
    #: label) triples — so workers do neither per group.
    machines: tuple = ()
    #: Trace transport: a shared-memory ``SegmentHandle``, a column-bytes
    #: payload dict, or ``None`` (the worker builds/loads the trace).
    payload: "SegmentHandle | dict | None" = None

    def with_payload(self, payload) -> "PlannedGroup":
        return PlannedGroup(self.workload, self.flags, self.trace_version,
                            self.indices, self.requests, self.machines,
                            payload)


def plan_requests(requests, *, jobs: int = 1,
                  machines: dict | None = None) -> list[PlannedGroup]:
    """Group a parsed batch into planned work items.

    ``machines`` is an optional shared resolution memo (spec -> config);
    passing the one built during validation avoids resolving every unique
    machine twice.
    """
    from repro.api.batch import _machine_label

    if machines is None:
        machines = {}
    labels: dict[MachineSpec, str] = {}
    by_trace: dict[tuple[str, str], list[int]] = {}
    for index, request in enumerate(requests):
        by_trace.setdefault(
            (request.workload.name, request.workload.flags), []
        ).append(index)

    groups: list[PlannedGroup] = []
    for (name, flags), indices in by_trace.items():
        def signature(index: int) -> tuple:
            request = requests[index]
            machine = machines.get(request.machine)
            if machine is None:
                machine = request.machine.resolve()
                machines[request.machine] = machine
            return _pass_signature(machine, request)

        ordered = sorted(indices, key=signature)
        chunks = _fair_chunks(ordered, signature, len(by_trace), jobs)
        for chunk in chunks:
            specs = {requests[i].machine: requests[i] for i in chunk}
            resolved = []
            for spec, request in specs.items():
                label = labels.get(spec)
                if label is None:
                    label = _machine_label(request, machines[spec])
                    labels[spec] = label
                resolved.append((spec, machines[spec], label))
            groups.append(PlannedGroup(
                workload=name, flags=flags,
                trace_version=TRACE_SCHEMA_VERSION,
                indices=tuple(chunk),
                requests=tuple(requests[i] for i in chunk),
                machines=tuple(resolved),
            ))
    return groups


def _fair_chunks(ordered, signature, group_count: int, jobs: int):
    """Split one group along signature boundaries when workers outnumber
    groups, so small batches of large sweeps still fill the pool."""
    if jobs <= group_count or len(ordered) <= 1:
        return [ordered]
    parts = min(-(-jobs // group_count), len(ordered))
    size = -(-len(ordered) // parts)
    chunks = []
    start = 0
    while start < len(ordered):
        end = min(start + size, len(ordered))
        # Extend to the signature boundary so one worker owns each pass.
        while end < len(ordered) and signature(ordered[end]) == signature(ordered[end - 1]):
            end += 1
        chunks.append(ordered[start:end])
        start = end
    return chunks


# ----------------------------------------------------------------------
# Group execution (module-level: process-pool unit).
# ----------------------------------------------------------------------
def _install_group_trace(session, group: PlannedGroup) -> None:
    """Adopt the group's shipped trace into the session (the attach stage).

    A persistent pool worker that already holds the workload from an
    earlier batch skips the transport entirely — neither the segment
    attach nor the payload deserialization is repeated.
    """
    if group.payload is None or session.has_workload(group.workload,
                                                     group.flags):
        return
    if isinstance(group.payload, SegmentHandle):
        if group.payload.schema_version != group.trace_version:
            raise ValueError("planned group carries a mismatched trace segment")
        trace = attach_trace(group.payload)
    else:
        if group.payload["schema_version"] != group.trace_version:
            raise ValueError("planned group carries a mismatched trace payload")
        trace = Trace.from_payload(group.payload)
    session.adopt_trace(group.workload, group.flags, trace)


def evaluate_group(session, group: PlannedGroup) -> list[EvalResult]:
    """Answer one planned group through a session (results in group order)."""
    results, _ = evaluate_group_timed(session, group)
    return results


def evaluate_group_timed(
    session, group: PlannedGroup
) -> tuple[list[EvalResult], dict[str, float]]:
    """:func:`evaluate_group` plus the per-stage timing breakdown.

    The returned mapping accounts the group's wall time to the data-plane
    stages ``attach`` (trace transport into this session), ``profile``
    (miss profiles + program profiles through the single-pass engine),
    ``model`` (mechanistic-model evaluation; scalar backends fold their
    profiling in here) and ``simulate`` (the cycle-accurate simulator
    backend, all of the group's points in one
    :meth:`~repro.runtime.session.Session.simulate_many` batch).  This is
    the :meth:`Session.map` work unit the
    batch layer dispatches, so stage timings ride back with each group's
    results and are merged into the parent session.  When tracing is
    enabled the group and its stages become spans — children of whatever
    dispatched the group, across the process boundary.
    """
    with span("planner.group", workload=group.workload, flags=group.flags,
              requests=len(group.requests)):
        return _evaluate_group_body(session, group)


def _evaluate_group_body(
    session, group: PlannedGroup
) -> tuple[list[EvalResult], dict[str, float]]:
    from repro.api.batch import _machine_label, _point_result

    stages: dict[str, float] = {}
    started = time.perf_counter()
    _install_group_trace(session, group)
    workload = session.workload(group.workload, group.flags)
    stages["attach"] = time.perf_counter() - started
    emit_span("planner.attach", stages["attach"], workload=group.workload)

    machines: dict[MachineSpec, MachineConfig] = {}
    labels: dict[MachineSpec, str] = {}
    for spec, machine, label in group.machines:
        machines[spec] = machine
        labels[spec] = label
    results: list[EvalResult | None] = [None] * len(group.requests)

    def resolved(request: EvalRequest) -> tuple[MachineConfig, str]:
        machine = machines.get(request.machine)
        if machine is None:
            machine = request.machine.resolve()
            machines[request.machine] = machine
        label = labels.get(request.machine)
        if label is None:
            label = _machine_label(request, machine)
            labels[request.machine] = label
        return machine, label

    # Fast path: plain analytical requests share their miss profiles and
    # are answered by one batched model evaluation.
    batched: list[int] = []
    for position, request in enumerate(group.requests):
        try:
            canonical = BACKENDS.canonical(request.backend)
        except KeyError:
            canonical = None
        if canonical == "analytical" and not request.with_power:
            batched.append(position)

    if batched:
        from repro.accel import get_kernels

        started = time.perf_counter()
        program = session.program_profile(workload)
        pairs = [resolved(group.requests[position]) for position in batched]
        # Miss counts only depend on the memory/predictor side of the
        # configuration — width/depth/frequency variants share one
        # assembled profile, so a 192-point sweep assembles ~16.
        shared: dict[tuple, object] = {}
        profiles = []
        for (machine, _), position in zip(pairs, batched):
            mlp_window = group.requests[position].mlp_window
            key = (
                machine.l1i_size, machine.l1i_associativity,
                machine.l1d_size, machine.l1d_associativity,
                machine.line_size, machine.page_size, machine.tlb_entries,
                machine.l2_size, machine.l2_associativity,
                machine.branch_predictor, mlp_window,
            )
            profile = shared.get(key)
            if profile is None:
                profile = session.miss_profile(workload, machine,
                                               mlp_window=mlp_window)
                shared[key] = profile
            profiles.append(profile)
        stages["profile"] = time.perf_counter() - started
        emit_span("planner.profile", stages["profile"],
                  workload=group.workload, profiles=len(shared))
        started = time.perf_counter()
        predictions = get_kernels().predict_batch(
            program, profiles, [machine for machine, _ in pairs]
        )
        for position, (machine, label), (cycles, cpi_stack) in zip(
            batched, pairs, predictions
        ):
            results[position] = EvalResult(
                request=group.requests[position],
                backend="analytical",
                workload=workload.name,
                machine=label,
                instructions=program.instructions,
                cycles=cycles,
                seconds=cycles * machine.cycle_ns * 1e-9,
                cpi_stack=cpi_stack,
            )
        stages["model"] = time.perf_counter() - started
        emit_span("planner.model", stages["model"],
                  workload=group.workload, points=len(batched))

    # Scalar backends interleave profiling with the model: their whole
    # time is booked to the model stage rather than guessing a split —
    # except the cycle-accurate simulator's, which is the simulate stage.
    by_stage: dict[str, list[int]] = {}
    for position in range(len(group.requests)):
        if results[position] is None:
            canonical = BACKENDS.canonical(group.requests[position].backend)
            stage = "simulate" if canonical == "simulator" else "model"
            by_stage.setdefault(stage, []).append(position)
    for stage, positions in by_stage.items():
        started = time.perf_counter()
        # A live span (not a back-dated one): the backend's own spans —
        # the simulator's run, the session's profiling — nest under it.
        with span(f"planner.{stage}", workload=group.workload,
                  points=len(positions)):
            if stage == "simulate":
                # One batch, so the points share event columns and timing
                # loops; the backend then answers each from the session.
                session.simulate_many(workload, [
                    resolved(group.requests[position])[0]
                    for position in positions
                ])
            for position in positions:
                request = group.requests[position]
                machine, label = resolved(request)
                point = get_backend(request.backend).evaluate(
                    session, workload, machine,
                    with_power=request.with_power,
                    mlp_window=request.mlp_window,
                )
                results[position] = _point_result(request, workload, label,
                                                  point)
        stages[stage] = stages.get(stage, 0.0) + time.perf_counter() - started
    return results, stages
