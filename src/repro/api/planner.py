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
* on a pooled session the pool builds and the parent answers: a group
  the parent session can answer from its memos (:func:`group_is_warm`)
  runs in the parent; every other group becomes one work item
  (:func:`build_group`) for :meth:`Session.map_resilient`.  A trace the
  parent already holds ships to the worker through the active data
  plane — a zero-copy shared-memory
  :class:`~repro.runtime.dataplane.SegmentHandle` the worker attaches, or
  raw column bytes (``array.tobytes``/``frombytes`` — see
  :meth:`~repro.trace.trace.Trace.to_payload`) on platforms without POSIX
  shared memory — instead of a pickled object graph, and the worker sends
  back its profiles and simulations for the group's keys, which the
  parent installs; cold traces are built by the owning worker, keeping cold
  batches as parallel as before;
* machines are resolved and labelled **once per unique spec** per group
  instead of once per request;
* a group is answered by one
  :meth:`~repro.api.backends.EvalBackend.evaluate` call per ``(backend,
  with_power, mlp_window)`` slice, with the slice's machines as a list:
  the analytical backends share one miss profile per memory hierarchy
  and predictor and evaluate the model once for the list, the simulator
  shares event columns and timing loops — byte-identical to one call
  per request.

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
    machines: tuple
    #: Trace transport: a shared-memory ``SegmentHandle``, a column-bytes
    #: payload dict, or ``None`` (the worker builds/loads the trace).
    payload: "SegmentHandle | dict | None" = None

    def with_payload(self, payload) -> "PlannedGroup":
        return PlannedGroup(self.workload, self.flags, self.trace_version,
                            self.indices, self.requests, self.machines,
                            payload)


def plan_requests(requests, *, jobs: int = 1) -> list[PlannedGroup]:
    """Group a parsed batch into planned work items.

    Machines come from the process-wide
    :meth:`~repro.api.spec.MachineSpec.resolve` memo, so the configs
    validation resolved are not resolved again.
    """
    from repro.api.batch import _machine_label

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
            return _pass_signature(request.machine.resolve(), request)

        ordered = sorted(indices, key=signature)
        chunks = _fair_chunks(ordered, signature, len(by_trace), jobs)
        for chunk in chunks:
            specs = {requests[i].machine: requests[i] for i in chunk}
            resolved = []
            for spec, request in specs.items():
                machine = spec.resolve()
                label = labels.get(spec)
                if label is None:
                    label = _machine_label(request, machine)
                    labels[spec] = label
                resolved.append((spec, machine, label))
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


def _slices(group: PlannedGroup) -> dict[tuple, list[int]]:
    """Group positions by ``(backend, with_power, mlp_window)``: one
    :meth:`~repro.api.backends.EvalBackend.evaluate` call each."""
    slices: dict[tuple, list[int]] = {}
    for position, request in enumerate(group.requests):
        key = (BACKENDS.canonical(request.backend), request.with_power,
               request.mlp_window)
        slices.setdefault(key, []).append(position)
    return slices


def group_is_warm(session, group: PlannedGroup) -> bool:
    """Whether ``session`` holds the group's trace and every backend slice
    of it is warm (:meth:`~repro.api.backends.EvalBackend.is_warm`): the
    group can be answered here without building anything."""
    if not session.has_workload(group.workload, group.flags):
        return False
    workload = session.workload(group.workload, group.flags)
    machines = {spec: machine for spec, machine, _ in group.machines}
    return all(
        get_backend(name).is_warm(
            session, workload,
            [machines[group.requests[position].machine]
             for position in positions],
            with_power=with_power, mlp_window=mlp_window)
        for (name, with_power, mlp_window), positions
        in _slices(group).items()
    )


def build_group(session, group: PlannedGroup) -> tuple:
    """The pool's work unit: :func:`evaluate_group_timed` plus its memos.

    Returns ``(results, stages, memos)``.  When the group's trace was
    shipped from the parent, ``memos`` holds this session's entries for
    the group's own keys
    (:meth:`~repro.runtime.session.Session.memo_entries`: the program
    profile, the miss profiles and the simulations it read, whether built
    now or by an earlier group), which the parent installs and then
    answers later requests for itself; ``None`` otherwise (the parent
    does not hold that trace).
    """
    results, stages = evaluate_group_timed(session, group)
    memos = None
    if group.payload is not None:
        machines = {spec: machine for spec, machine, _ in group.machines}
        memos = session.memo_entries(
            group.workload, group.flags,
            [(machines[request.machine], request.mlp_window)
             for request in group.requests])
    return results, stages, memos


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
    (the program and miss profiles any backend call built, read off
    :attr:`Session.profile_seconds`), ``simulate`` (the rest of the calls
    to cycle-accurate backends) and ``model`` (the rest of every other
    backend call).  This is the :meth:`Session.map` work unit the
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
    from repro.api.batch import _point_result

    stages: dict[str, float] = {}
    started = time.perf_counter()
    _install_group_trace(session, group)
    workload = session.workload(group.workload, group.flags)
    stages["attach"] = time.perf_counter() - started
    emit_span("planner.attach", stages["attach"], workload=group.workload)

    resolved = {spec: (machine, label)
                for spec, machine, label in group.machines}
    results: list[EvalResult | None] = [None] * len(group.requests)
    for (name, with_power, mlp_window), positions in _slices(group).items():
        backend = get_backend(name)
        stage = ("simulate" if backend.capabilities.cycle_accurate
                 else "model")
        pairs = [resolved[group.requests[position].machine]
                 for position in positions]
        profiled_before = session.profile_seconds
        started = time.perf_counter()
        # A live span: the backend's own spans — the simulator's timing
        # loops, the session's profiling — nest under it.
        with span(f"planner.{stage}", workload=group.workload,
                  points=len(positions)):
            points = backend.evaluate(
                session, workload, [machine for machine, _ in pairs],
                with_power=with_power, mlp_window=mlp_window,
            )
        elapsed = time.perf_counter() - started
        profiled = session.profile_seconds - profiled_before
        if profiled:
            stages["profile"] = stages.get("profile", 0.0) + profiled
            emit_span("planner.profile", profiled, workload=group.workload)
        stages[stage] = stages.get(stage, 0.0) + elapsed - profiled
        for position, (_, label), point in zip(positions, pairs, points,
                                               strict=True):
            results[position] = _point_result(group.requests[position],
                                              workload, label, point)
    return results, stages
