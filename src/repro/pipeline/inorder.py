"""Cycle-accurate superscalar in-order pipeline simulator.

The simulator is trace driven: it replays the committed dynamic instruction
stream produced by the functional simulator and computes, for every
instruction, the cycle in which it is fetched and the cycle in which it
enters the execute stage, honouring

* W-wide fetch, decode and issue (width constraint per cycle),
* a front-end of D stages between fetch and execute,
* finite front-end buffering (fetch stalls when decode backs up),
* instruction cache / ITLB misses stalling fetch,
* a one-cycle fetch bubble for every correctly predicted taken branch,
* branch mispredictions redirecting fetch when the branch executes,
* stall-on-use with full forwarding (dependent instructions wait in decode),
* non-unit execute latencies (multiply/divide) blocking the execute stage,
* data cache / DTLB misses blocking the memory stage (and therefore entry
  into the execute stage), and
* in-order commit.

Wrong-path instructions are not replayed (their effect is modelled as lost
fetch cycles), which is the standard trace-driven simplification and matches
the first-order assumptions of the analytical model being validated.

The miss events come precomputed, one column each, from the active kernel
backend (:meth:`repro.accel.Kernels.pipeline_events`): every instruction's
fetch latency, data-access latency and branch outcome, exactly as a cache
hierarchy and branch predictor consulted once per instruction in trace order
would see them — which is also how the profiler in :mod:`repro.profiler`
counts them, so the detailed simulator and the analytical model observe
identical miss-event counts for a given configuration.  What remains here is
the timing recurrence alone, over those columns and a table of each static
instruction's operands.

:func:`simulate_many` answers a whole design space on one trace and pays
for each distinct problem once.  The event columns depend only on the
*event key* — the memory hierarchy (geometry and latencies in cycles) and
the branch predictor — so machines sharing it share one
:meth:`~repro.accel.Kernels.pipeline_events` call.  Event sets also share
the work they have in common: every call passes one per-call ``shared``
memo, in which a backend keeps what depends on less than the event key —
the L1 and TLB stack distances of each geometry, each predictor's control
column — so on a Table-2 sweep an event set costs little more than its
L2 lookup and latency assembly.  The timing loop is a pure function of
the *timing key* — width, front-end depth, multiply and divide latency,
and a content digest of the three packed event columns — so machines
whose hierarchies differ without changing a single event (on the MiBench
traces, every Table-2 L2 size and associativity) share one loop, and the
per-static operand table is built once per multiply and divide latency.
The 192 Table-2 machines on ``sha`` cost 48 event computations and 12
timing loops.  :meth:`InOrderPipeline.run` is the one-machine case.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.accel import get_kernels
from repro.accel.kernels import CONTROL_MISPREDICT, CONTROL_TAKEN
from repro.isa.opcodes import OpClass
from repro.isa.registers import NUM_INT_REGS
from repro.machine import BACKEND_STAGES, MachineConfig
from repro.memory.hierarchy import HierarchyStats
from repro.obs.tracing import span
from repro.trace.trace import Trace

#: Execute behaviour of a static instruction in :func:`static_table`.
KIND_UNIT = 0       # single-cycle ALU, control or nop
KIND_LONG = 1       # multiply / divide: occupies execute for its latency
KIND_MEMORY = 2     # load / store: latency from the data-event column

#: ``reg_ready`` slot written by instructions without a destination, and
#: the slot read in place of a missing source (never written, always 0).
NO_DEST = NUM_INT_REGS
NO_SOURCE = NUM_INT_REGS + 1


def static_table(statics, machine: MachineConfig) -> list[tuple]:
    """``(source 1, source 2, destination, kind, latency)`` per static.

    Missing operands name the :data:`NO_SOURCE` / :data:`NO_DEST` slots, so
    the simulators read and write registers without a length test; the
    latency is the execute latency of a :data:`KIND_LONG` instruction.
    """
    table = []
    for instruction in statics:
        # An instruction reads at most its two source fields.
        sources = instruction.src_regs() + (NO_SOURCE, NO_SOURCE)
        dests = instruction.dest_regs()
        op_class = instruction.op_class
        if op_class in (OpClass.INT_MUL, OpClass.INT_DIV):
            kind = KIND_LONG
        elif op_class.is_memory:
            kind = KIND_MEMORY
        else:
            kind = KIND_UNIT
        table.append((sources[0], sources[1], dests[0] if dests else NO_DEST,
                      kind, machine.execute_latency(op_class)))
    return table


@dataclass
class InOrderResult:
    """Outcome of one detailed in-order simulation."""

    machine: MachineConfig
    instructions: int
    cycles: int
    mispredictions: int
    taken_bubbles: int
    hierarchy_stats: HierarchyStats = field(repr=False, default_factory=HierarchyStats)

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def execution_time_seconds(self) -> float:
        return self.cycles * self.machine.cycle_ns * 1e-9


class InOrderPipeline:
    """Trace-driven cycle-accurate model of the paper's in-order processor."""

    def __init__(self, machine: MachineConfig):
        self.machine = machine

    def run(self, trace: Trace) -> InOrderResult:
        (result,) = simulate_many(trace, (self.machine,))
        return result


@dataclass
class SimulationWork:
    """What :func:`simulate_many` computed: event sets and timing loops."""

    event_sets: int = 0
    timing_loops: int = 0


def simulate_many(trace: Trace, machines: Sequence[MachineConfig],
                  work: SimulationWork | None = None) -> list[InOrderResult]:
    """Simulate ``trace`` on every machine; results in ``machines`` order.

    Each event key's columns are computed once, and each timing key's loop
    run once (see the module docstring).  Only one event set's latency
    columns are alive at a time; the ``shared`` memo lives for the call.
    Every result carries its own machine and its own copy of the hierarchy
    counts.  ``work``, when given, accumulates what was computed.
    """
    if work is None:
        work = SimulationWork()
    kernels = get_kernels()
    by_events: dict[tuple, list[int]] = {}
    for position, machine in enumerate(machines):
        key = (machine.memory_hierarchy_config(), machine.branch_predictor)
        by_events.setdefault(key, []).append(position)
    results: list[InOrderResult | None] = [None] * len(machines)
    cycles_of: dict[tuple, int] = {}
    # Per-call memos: the kernels' work common to event sets, each
    # predictor's control counts, each (mul, div) latency pair's table.
    shared: dict = {}
    control_counts: dict[str, tuple[int, int]] = {}
    tables: dict[tuple[int, int], list[tuple]] = {}
    for positions in by_events.values():
        first = machines[positions[0]]
        with span("pipeline.events", workload=trace.name,
                  instructions=len(trace)):
            events = kernels.pipeline_events(trace, first, shared)
        work.event_sets += 1
        # Within one event set the columns are the same by construction;
        # only across sets does a timing key need their content.
        digest = _events_digest(events) if len(by_events) > 1 else None
        # The control column depends on the trace and the predictor alone.
        counts = control_counts.get(first.branch_predictor)
        if counts is None:
            counts = control_counts[first.branch_predictor] = (
                events.control.count(CONTROL_MISPREDICT),
                events.control.count(CONTROL_TAKEN))
        mispredictions, taken_bubbles = counts
        for position in positions:
            machine = machines[position]
            timing_key = (machine.width, machine.frontend_depth,
                          machine.mul_latency, machine.div_latency, digest)
            cycles = cycles_of.get(timing_key)
            if cycles is None:
                latencies = (machine.mul_latency, machine.div_latency)
                table = tables.get(latencies)
                if table is None:
                    table = tables[latencies] = static_table(trace.statics,
                                                             machine)
                with span("pipeline.inorder", workload=trace.name,
                          instructions=len(trace)):
                    cycles = _simulate(machine, trace, events, table)
                work.timing_loops += 1
                cycles_of[timing_key] = cycles
            results[position] = InOrderResult(
                machine=machine,
                instructions=len(trace),
                cycles=cycles,
                mispredictions=mispredictions,
                taken_bubbles=taken_bubbles,
                hierarchy_stats=replace(events.stats),
            )
        # Release the columns before the next set is computed.
        del events
    return results


def _events_digest(events) -> bytes:
    """sha256 of the packed fetch, data and control columns."""
    digest = hashlib.sha256(events.fetch)
    digest.update(events.data)
    digest.update(events.control)
    return digest.digest()


def _simulate(machine: MachineConfig, trace: Trace, events,
              table: list[tuple]) -> int:
    """The timing recurrence over the event columns; returns total cycles.

    ``table`` is :func:`static_table` of the trace's statics on a machine
    with ``machine``'s multiply and divide latencies.
    """
    width = machine.width
    depth = machine.frontend_depth
    capacity = max(1, depth * width)

    # Earliest cycle at which a consumer of each register may enter
    # execute, plus the NO_DEST and NO_SOURCE slots.
    reg_ready = [0] * (NUM_INT_REGS + 2)
    # Issue cycles of the most recent `capacity` instructions (front-end
    # backpressure) — a ring buffer.  Its initial zeros never stall fetch,
    # so the first `capacity` instructions need no special case.
    recent_issues = [0] * capacity
    ring = 0

    fetch_cycle = 0          # cycle in which the next instruction is fetched
    fetch_slots = 0          # instructions already fetched in that cycle
    exec_free = 0            # earliest cycle execute accepts a new instruction
    last_issue = -1          # issue cycle of the previous instruction
    issued_in_cycle = 0      # how many instructions issued in `last_issue`
    redirect_at = -1         # pending fetch redirect (branch misprediction)
    issue = 0

    for slot, fetch_latency, data_latency, control in zip(
        trace.static_index, events.fetch, events.data, events.control
    ):
        # --------------------------------------------------------------
        # Fetch.
        # --------------------------------------------------------------
        if redirect_at >= 0:
            # The previous (mispredicted) branch redirects fetch when it
            # resolves at the end of its execute cycle.
            if redirect_at > fetch_cycle or fetch_slots:
                if redirect_at > fetch_cycle:
                    fetch_cycle = redirect_at
                fetch_slots = 0
            redirect_at = -1

        # Front-end buffering: an instruction can only be fetched once the
        # one `capacity` places earlier has left the front end.
        oldest_issue = recent_issues[ring]
        if oldest_issue > fetch_cycle:
            fetch_cycle = oldest_issue
            fetch_slots = 0

        if fetch_latency > 1:
            # The I-cache (or ITLB) miss stalls fetch; this instruction is
            # delivered once the line arrives, starting a fresh group.
            fetch_cycle += fetch_latency - 1 + (1 if fetch_slots else 0)
            fetch_slots = 0

        fetched_at = fetch_cycle
        fetch_slots += 1
        if fetch_slots >= width:
            fetch_cycle += 1
            fetch_slots = 0

        if control == CONTROL_TAKEN:
            # The redirect to the target is known one cycle after the
            # branch was fetched: the next fetch cycle is a bubble.
            if fetched_at + 2 > fetch_cycle:
                fetch_cycle = fetched_at + 2
            fetch_slots = 0

        # --------------------------------------------------------------
        # Issue (decode -> execute).
        # --------------------------------------------------------------
        source1, source2, dest, kind, latency = table[slot]
        issue = fetched_at + depth
        if exec_free > issue:
            issue = exec_free
        if last_issue > issue:
            issue = last_issue
        ready = reg_ready[source1]
        if ready > issue:
            issue = ready
        ready = reg_ready[source2]
        if ready > issue:
            issue = ready
        if issue == last_issue:
            if issued_in_cycle >= width:
                issue += 1
                last_issue = issue
                issued_in_cycle = 1
            else:
                issued_in_cycle += 1
        else:
            last_issue = issue
            issued_in_cycle = 1
        recent_issues[ring] = issue
        ring += 1
        if ring == capacity:
            ring = 0

        # --------------------------------------------------------------
        # Execute / memory behaviour.
        # --------------------------------------------------------------
        if kind == KIND_UNIT:
            reg_ready[dest] = issue + 1
        elif kind == KIND_MEMORY:
            if data_latency > 1 and issue + data_latency > exec_free:
                # The memory stage blocks; nothing may enter execute while
                # the miss (or multi-cycle hit) is outstanding.
                exec_free = issue + data_latency
            # Loads produce their value at the end of the memory stage.
            reg_ready[dest] = issue + 1 + data_latency
        else:
            if issue + latency > exec_free:
                exec_free = issue + latency
            reg_ready[dest] = issue + latency

        if control == CONTROL_MISPREDICT:
            # Fetch restarts at the correct target once the branch has
            # executed (end of its execute cycle).
            redirect_at = issue + 1

    return max(issue, exec_free) + BACKEND_STAGES
