"""Trace-driven out-of-order pipeline model.

Used by the in-order versus out-of-order comparison (Figure 7 of the paper).
The model captures the first-order properties that matter for that
comparison:

* W-wide dispatch and commit, in order, through a reorder buffer,
* out-of-order issue as soon as operands are ready (dataflow limited),
* non-blocking caches: independent load misses overlap (memory-level
  parallelism), bounded by a number of MSHRs,
* branch mispredictions redirect fetch when the branch executes, so the
  penalty includes the branch resolution time plus the front-end refill,
* long-latency arithmetic does not block independent younger instructions.

Like the in-order core it is driven from the active kernel backend's
per-instruction miss-event columns
(:meth:`repro.accel.Kernels.pipeline_events`) and the per-static operand
table of :func:`repro.pipeline.inorder.static_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accel import get_kernels
from repro.accel.kernels import CONTROL_MISPREDICT, CONTROL_TAKEN
from repro.isa.registers import NUM_INT_REGS
from repro.machine import BACKEND_STAGES, MachineConfig
from repro.memory.hierarchy import HierarchyStats
from repro.obs.tracing import span
from repro.pipeline.inorder import KIND_LONG, KIND_MEMORY, static_table
from repro.trace.trace import Trace


@dataclass(frozen=True)
class OutOfOrderConfig:
    """Out-of-order specific parameters layered on a :class:`MachineConfig`."""

    rob_size: int = 64
    mshrs: int = 8

    def __post_init__(self) -> None:
        if self.rob_size < 1:
            raise ValueError("rob_size must be positive")
        if self.mshrs < 1:
            raise ValueError("mshrs must be positive")


@dataclass
class OutOfOrderResult:
    """Outcome of one out-of-order simulation."""

    machine: MachineConfig
    instructions: int
    cycles: int
    mispredictions: int
    hierarchy_stats: HierarchyStats = field(repr=False, default_factory=HierarchyStats)

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class OutOfOrderPipeline:
    """A ROB/dataflow timing model of a superscalar out-of-order core."""

    def __init__(self, machine: MachineConfig, ooo: OutOfOrderConfig | None = None):
        self.machine = machine
        self.ooo = ooo if ooo is not None else OutOfOrderConfig()

    def run(self, trace: Trace) -> OutOfOrderResult:
        machine = self.machine
        with span("pipeline.ooo", workload=trace.name,
                  instructions=len(trace)):
            events = get_kernels().pipeline_events(trace, machine)
            cycles = self._simulate(trace, events)
        return OutOfOrderResult(
            machine=machine,
            instructions=len(trace),
            cycles=cycles,
            mispredictions=events.control.count(CONTROL_MISPREDICT),
            hierarchy_stats=events.stats,
        )

    def _simulate(self, trace: Trace, events) -> int:
        """The timing recurrence over the event columns; returns cycles."""
        machine = self.machine
        width = machine.width
        depth = machine.frontend_depth
        rob_size = self.ooo.rob_size
        mshrs = self.ooo.mshrs
        table = static_table(trace.statics, machine)

        reg_ready = [0] * (NUM_INT_REGS + 2)   # plus the NO_DEST/NO_SOURCE slots
        # Commit cycles, ring buffer.  Its initial zeros never hold back
        # dispatch, so a not-yet-full ROB needs no special case.
        commit_history = [0] * rob_size
        ring = 0
        outstanding_misses: list[int] = []     # completion cycles of in-flight misses

        fetch_cycle = 0
        fetch_slots = 0
        last_dispatch = -1
        dispatched_in_cycle = 0
        last_commit = -1
        committed_in_cycle = 0
        redirect_at = -1
        commit = 0

        for slot, fetch_latency, data_latency, control, taken in zip(
            trace.static_index, events.fetch, events.data, events.control,
            trace.taken,
        ):
            # ---------------- fetch ----------------
            if redirect_at >= 0:
                fetch_cycle = max(fetch_cycle, redirect_at)
                fetch_slots = 0
                redirect_at = -1

            if fetch_latency > 1:
                fetch_cycle += fetch_latency - 1 + (1 if fetch_slots else 0)
                fetch_slots = 0
            fetched_at = fetch_cycle
            fetch_slots += 1
            if fetch_slots >= width:
                fetch_cycle += 1
                fetch_slots = 0

            if control == CONTROL_TAKEN and taken == 1:
                # Taken transfers cost one fetch bubble, as on the in-order
                # core — but here an unconditional jump only if it was taken.
                fetch_cycle = max(fetch_cycle, fetched_at + 2)
                fetch_slots = 0

            # ---------------- dispatch ----------------
            # ROB full: wait until the oldest occupant has committed.
            dispatch = max(fetched_at + depth, last_dispatch,
                           commit_history[ring])
            if dispatch == last_dispatch and dispatched_in_cycle >= width:
                dispatch += 1
            if dispatch == last_dispatch:
                dispatched_in_cycle += 1
            else:
                last_dispatch = dispatch
                dispatched_in_cycle = 1

            # ---------------- issue / execute (dataflow) ----------------
            source1, source2, dest, kind, latency = table[slot]
            ready = max(dispatch, reg_ready[source1], reg_ready[source2])

            if kind == KIND_LONG:
                finish = ready + latency
            elif kind == KIND_MEMORY:
                start = ready
                if data_latency > 1:
                    # Limited MSHRs: a new miss waits until a slot frees up.
                    outstanding_misses = [
                        done for done in outstanding_misses if done > start
                    ]
                    if len(outstanding_misses) >= mshrs:
                        start = max(start, min(outstanding_misses))
                        outstanding_misses = [
                            done for done in outstanding_misses if done > start
                        ]
                    outstanding_misses.append(start + data_latency)
                finish = start + data_latency
            else:
                finish = ready + 1

            reg_ready[dest] = finish

            if control == CONTROL_MISPREDICT:
                redirect_at = finish + 1

            # ---------------- commit ----------------
            commit = max(finish + 1, last_commit)
            if commit == last_commit and committed_in_cycle >= width:
                commit += 1
            if commit == last_commit:
                committed_in_cycle += 1
            else:
                last_commit = commit
                committed_in_cycle = 1
            commit_history[ring] = commit
            ring += 1
            if ring == rob_size:
                ring = 0

        return commit + BACKEND_STAGES
