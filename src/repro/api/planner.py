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
  parent already holds ships to the worker as raw column bytes
  (``array.tobytes``/``frombytes`` — see
  :meth:`~repro.trace.trace.Trace.to_payload`) instead of a pickled
  object graph, and the worker sends back its profiles and simulations
  for the group's keys, which the parent installs; cold traces are built
  by the owning worker, keeping cold batches as parallel as before;
* machines are resolved, labelled and signed **once per distinct spec**
  per batch, into one machine table its groups share, instead of once
  per request;
* a group is answered by one
  :meth:`~repro.api.backends.EvalBackend.evaluate` call per ``(backend,
  with_power, mlp_window)`` slice, found at planning time, with the
  slice's machines as a list:
  the analytical backend reads one miss profile per distinct memory
  hierarchy and predictor and evaluates Eq. 1 once for the list, the
  simulator shares event columns and timing loops — byte-identical to
  one call per request;
* a backend answers a slice in columns (:class:`~repro.api.backends.
  SliceAnswer`: instructions, cycles, stacks, energies) and
  :func:`slice_results` builds each :class:`~repro.api.spec.EvalResult`
  once, reading the label and clock period from the machine table.

Where a warm point's time goes: ``warm_table2_sweep`` in
``BENCH_core.json`` records the per-point microseconds of parsing and
validation, planning, group evaluation (Eq. 1, its stack dict and sum,
and one result per point) and the unattributed rest.

Analytical groups larger than a fair share are split along
pass-signature boundaries when the batch has fewer groups than workers,
so a single-workload sweep still saturates the pool.  A group with a
cycle-accurate slice is never split: its simulations share one trace,
one set of event columns and one set of timing loops, and two workers
would each build them.

Everything is order-preserving: results are reassembled into request
order, so planned output is byte-identical to the unplanned path at any
job count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import repeat
from typing import NamedTuple

from repro.api.backends import BACKENDS, SliceAnswer, get_backend
from repro.api.batch import _machine_label
from repro.api.spec import EvalRequest, EvalResult, MachineSpec
from repro.machine import MachineConfig
from repro.obs.tracing import emit_span, span
from repro.trace.trace import Trace
from repro.trace.trace_schema import TRACE_SCHEMA_VERSION


def _pass_signature(machine: MachineConfig) -> tuple:
    """What decides the profiling passes ``machine`` reads."""
    line = machine.line_size
    return (
        # Front-end geometry (base pass).
        machine.l1i_size, machine.l1i_associativity,
        machine.l1d_size, machine.l1d_associativity, line, machine.page_size,
        # L2 geometry (L2 pass).
        machine.l2_size // (machine.l2_associativity * line), line,
        # Branch pass.
        machine.branch_predictor,
    )


class MachineEntry(NamedTuple):
    """One distinct machine of a batch: resolved, labelled and signed once."""

    #: The first spec of this value (and override types) labelled.
    spec: MachineSpec
    machine: MachineConfig
    #: The result label (:func:`repro.api.batch._machine_label`).
    label: str
    #: :func:`_pass_signature` of ``machine``.
    signature: tuple
    #: ``machine.cycle_ns``, which turns a result's cycles into seconds.
    cycle_ns: float


def machine_entry(spec: MachineSpec) -> MachineEntry:
    """The table entry of ``spec``: its machine, label and signature."""
    machine = spec.resolve()
    return MachineEntry(spec, machine, _machine_label(spec, machine),
                        _pass_signature(machine), machine.cycle_ns)


class Slice(NamedTuple):
    """The requests of a group that one backend call answers."""

    #: Canonical backend name (aliases resolved).
    backend: str
    with_power: bool
    mlp_window: int
    #: Positions in the group's ``requests``.
    positions: tuple[int, ...]


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
    #: The batch's machine table, shared by all of its groups: one
    #: :class:`MachineEntry` per distinct spec, so neither the planner nor
    #: a worker resolves, labels or signs a machine per request.
    machines: tuple[MachineEntry, ...]
    #: Each request's position in ``machines``.
    entries: tuple[int, ...]
    #: One backend call each, computed at planning time.
    slices: tuple[Slice, ...]
    #: The parent-held trace as a column-bytes payload
    #: (:meth:`~repro.trace.trace.Trace.to_payload`), or ``None`` (the
    #: worker builds or cache-loads the trace).
    payload: dict | None = None

    def with_payload(self, payload: dict | None) -> "PlannedGroup":
        return replace(self, payload=payload)

    def slice_machines(self, piece: Slice) -> list[MachineEntry]:
        """The table entries of ``piece``'s requests, in its order."""
        machines, entries = self.machines, self.entries
        return [machines[entries[position]] for position in piece.positions]


def plan_requests(requests, *, jobs: int = 1) -> list[PlannedGroup]:
    """Group a parsed batch into planned work items.

    The batch pays once per distinct machine, not per request: each spec
    is resolved, labelled and given its pass signature once, in one
    machine table.  The table keys a spec by its value and its override
    values' types, so equal specs that label differently (``12`` and
    ``12.0``) keep their own entries.  One pass over the requests builds
    the table and the per-trace index lists; each trace's requests are
    then sorted by pass signature and window, so a group's passes come
    out as contiguous runs.
    """
    table: list[MachineEntry] = []
    by_key: dict[tuple, int] = {}
    # Spec objects by identity: a sweep repeats one spec object per
    # workload, and the batch keeps every object alive while it plans.
    by_object: dict[int, int] = {}
    entry_of: list[int] = []
    by_trace: dict[tuple[str, str], list[int]] = {}
    for index, request in enumerate(requests):
        spec = request.machine
        position = by_object.get(id(spec))
        if position is None:
            key = (spec, tuple(type(value) for _, value in spec.items))
            position = by_key.get(key)
            if position is None:
                position = by_key[key] = len(table)
                table.append(machine_entry(spec))
            by_object[id(spec)] = position
        entry_of.append(position)
        by_trace.setdefault(
            (request.workload.name, request.workload.flags), []
        ).append(index)
    machines = tuple(table)

    # Sort key per request: its machine's signature rank, then its window.
    signatures = sorted({entry.signature for entry in machines})
    rank = {signature: order for order, signature in enumerate(signatures)}
    ranks = [rank[entry.signature] for entry in machines]
    keys = [(ranks[position], request.mlp_window)
            for position, request in zip(entry_of, requests)]

    groups: list[PlannedGroup] = []
    for (name, flags), indices in by_trace.items():
        ordered = sorted(indices, key=keys.__getitem__)
        chunks = [ordered]
        if jobs > len(by_trace) and not _cycle_accurate(
                map(requests.__getitem__, ordered)):
            chunks = _fair_chunks(ordered, keys, len(by_trace), jobs)
        for chunk in chunks:
            members = tuple(map(requests.__getitem__, chunk))
            groups.append(PlannedGroup(
                workload=name, flags=flags,
                trace_version=TRACE_SCHEMA_VERSION,
                indices=tuple(chunk),
                requests=members,
                machines=machines,
                entries=tuple(map(entry_of.__getitem__, chunk)),
                slices=_slices(members),
            ))
    return groups


def _slices(requests) -> tuple[Slice, ...]:
    """Group positions by ``(canonical backend, with_power, mlp_window)``:
    one :meth:`~repro.api.backends.EvalBackend.evaluate` call each."""
    canonical: dict[str, str] = {}
    slices: dict[tuple, list[int]] = {}
    for position, request in enumerate(requests):
        backend = canonical.get(request.backend)
        if backend is None:
            backend = canonical[request.backend] = BACKENDS.canonical(
                request.backend)
        slices.setdefault((backend, request.with_power, request.mlp_window),
                          []).append(position)
    return tuple(Slice(*key, tuple(positions))
                 for key, positions in slices.items())


def _cycle_accurate(requests) -> bool:
    """Whether a cycle-accurate backend answers any of ``requests``: such
    a group stays whole, so its simulations share one trace, one set of
    event columns and one set of timing loops."""
    return any(get_backend(name).capabilities.cycle_accurate
               for name in {request.backend for request in requests})


def _fair_chunks(ordered, keys, group_count: int, jobs: int):
    """Split one analytical group along sort-key boundaries
    (``keys[index]``) when workers outnumber groups, so small batches of
    large sweeps still fill the pool."""
    if len(ordered) <= 1:
        return [ordered]
    parts = min(-(-jobs // group_count), len(ordered))
    size = -(-len(ordered) // parts)
    chunks = []
    start = 0
    while start < len(ordered):
        end = min(start + size, len(ordered))
        # Extend to the signature boundary so one worker owns each pass.
        while end < len(ordered) and keys[ordered[end]] == keys[ordered[end - 1]]:
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
    earlier batch skips the payload deserialization entirely.
    """
    if group.payload is None or session.has_workload(group.workload,
                                                     group.flags):
        return
    if group.payload["schema_version"] != group.trace_version:
        raise ValueError("planned group carries a mismatched trace payload")
    session.adopt_trace(group.workload, group.flags,
                        Trace.from_payload(group.payload))


def group_is_warm(session, group: PlannedGroup) -> bool:
    """Whether ``session`` holds the group's trace and every backend slice
    of it is warm (:meth:`~repro.api.backends.EvalBackend.is_warm`): the
    group can be answered here without building anything."""
    if not session.has_workload(group.workload, group.flags):
        return False
    workload = session.workload(group.workload, group.flags)
    return all(
        get_backend(piece.backend).is_warm(
            session, workload,
            [entry.machine for entry in group.slice_machines(piece)],
            with_power=piece.with_power, mlp_window=piece.mlp_window)
        for piece in group.slices
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
    does not hold that trace).  The work a pool worker counted for the
    group reaches the parent's counters with its result, as for every
    pooled unit (:class:`~repro.runtime.scheduler.WorkerPool`).
    """
    results, stages = evaluate_group_timed(session, group)
    memos = None
    if group.payload is not None:
        memos = session.memo_entries(
            group.workload, group.flags,
            [(group.machines[entry].machine, request.mlp_window)
             for entry, request in zip(group.entries, group.requests)])
    return results, stages, memos


def evaluate_group(session, group: PlannedGroup) -> list[EvalResult]:
    """Answer one planned group through a session (results in group order)."""
    results, _ = evaluate_group_timed(session, group)
    return results


def evaluate_group_timed(
    session, group: PlannedGroup
) -> tuple[list[EvalResult], dict[str, float]]:
    """:func:`evaluate_group` plus the per-stage timing breakdown.

    The returned mapping accounts the group's wall time to the batch
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
    stages: dict[str, float] = {}
    started = time.perf_counter()
    _install_group_trace(session, group)
    workload = session.workload(group.workload, group.flags)
    stages["attach"] = time.perf_counter() - started
    emit_span("planner.attach", stages["attach"], workload=group.workload)

    results: list[EvalResult | None] = [None] * len(group.requests)
    for piece in group.slices:
        backend = get_backend(piece.backend)
        stage = ("simulate" if backend.capabilities.cycle_accurate
                 else "model")
        entries = group.slice_machines(piece)
        profiled_before = session.profile_seconds
        started = time.perf_counter()
        # A live span: the backend's own spans — the simulator's timing
        # loops, the session's profiling — nest under it.
        with span(f"planner.{stage}", workload=group.workload,
                  points=len(entries)):
            answer = backend.evaluate(
                session, workload, [entry.machine for entry in entries],
                with_power=piece.with_power, mlp_window=piece.mlp_window,
            )
        elapsed = time.perf_counter() - started
        profiled = session.profile_seconds - profiled_before
        if profiled:
            stages["profile"] = stages.get("profile", 0.0) + profiled
            emit_span("planner.profile", profiled, workload=group.workload)
        stages[stage] = stages.get(stage, 0.0) + elapsed - profiled
        answers = slice_results(
            [group.requests[position] for position in piece.positions],
            piece.backend, workload.name, entries, answer)
        for position, result in zip(piece.positions, answers):
            results[position] = result
    return results, stages


def slice_results(requests, backend: str, workload: str, entries,
                  answer: SliceAnswer) -> list[EvalResult]:
    """One :class:`~repro.api.spec.EvalResult` per request of a slice,
    from the backend's column ``answer`` (``backend`` is the canonical
    name of the backend that answered, ``entries`` the requests' machine
    table entries)."""
    cycles = answer.cycles
    stacks = answer.cpi_stacks
    energies = answer.energies
    for name, column in (("cycles", cycles), ("cpi_stacks", stacks),
                         ("energies", energies)):
        if column is not None and len(column) != len(entries):
            raise ValueError(
                f"backend {backend!r} answered {len(column)} {name} "
                f"for {len(entries)} machines")
    if stacks is None:
        stacks = repeat(None)
    if energies is None:
        energies = repeat(None)
    instructions = answer.instructions
    return [
        EvalResult(request, backend, workload, entry.label, instructions,
                   point_cycles, point_cycles * entry.cycle_ns * 1e-9,
                   stack, energy)
        for request, entry, point_cycles, stack, energy
        in zip(requests, entries, cycles, stacks, energies)
    ]
