"""Test-only oracle: the object-replay cache, TLB and hierarchy models.

These are the set-associative LRU caches, TLBs and two-level hierarchy the
profiler and the pipeline simulators replayed every access through before
both took their miss events from stack distances, kept unchanged so the
stack-distance paths can be checked bit for bit against them:
:func:`profile_machine_replay` against
:func:`~repro.profiler.machine_stats.profile_machine`, and
:func:`replay_pipeline_events` against
:meth:`repro.accel.Kernels.pipeline_events`.  Every structure is true LRU,
so by the stack inclusion property [Mattson et al.; Hill & Smith] the two
must agree exactly.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass

from repro.accel.kernels import (
    CONTROL_MISPREDICT,
    CONTROL_NONE,
    CONTROL_TAKEN,
    PipelineEvents,
)
from repro.branch.predictors import make_predictor
from repro.branch.profiler import BranchProfile, profile_branches
from repro.isa.opcodes import OpClass
from repro.machine import MachineConfig
from repro.memory import (
    CacheConfig,
    HierarchyStats,
    MemoryHierarchyConfig,
    TLBConfig,
)
from repro.profiler.machine_stats import MissProfile
from repro.trace.trace import OP_CLASS_IDS, Trace

_LOAD_ID = OP_CLASS_IDS[OpClass.LOAD]
_STORE_ID = OP_CLASS_IDS[OpClass.STORE]
_BRANCH_ID = OP_CLASS_IDS[OpClass.BRANCH]
_JUMP_ID = OP_CLASS_IDS[OpClass.JUMP]


@dataclass
class CacheStats:
    """Hit/miss counters for one cache."""

    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """A set-associative cache with true-LRU replacement.

    Each set is an ordered list of tags, most recently used last.  The model
    is a tag store only: no data is kept because only hit/miss behaviour
    matters for performance modeling.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self._sets: list[list[int]] = [[] for _ in range(config.sets)]
        self._offset_bits = config.line_size.bit_length() - 1
        self._set_mask = config.sets - 1

    def _locate(self, address: int) -> tuple[int, int]:
        line = address >> self._offset_bits
        return line & self._set_mask, line

    def access(self, address: int) -> bool:
        """Access ``address``; return ``True`` on a hit and update LRU state."""
        set_index, tag = self._locate(address)
        ways = self._sets[set_index]
        self.stats.accesses += 1
        try:
            ways.remove(tag)
            hit = True
        except ValueError:
            hit = False
            self.stats.misses += 1
            if len(ways) >= self.config.associativity:
                ways.pop(0)
        ways.append(tag)
        return hit

    def probe(self, address: int) -> bool:
        """Check for a hit without updating LRU state or counters."""
        set_index, tag = self._locate(address)
        return tag in self._sets[set_index]

    def reset(self) -> None:
        """Invalidate all lines and clear statistics."""
        self.stats = CacheStats()
        self._sets = [[] for _ in range(self.config.sets)]

    def resident_lines(self) -> int:
        """Number of valid lines currently cached (useful for invariants)."""
        return sum(len(ways) for ways in self._sets)


class TLB:
    """Fully associative TLB with LRU replacement."""

    def __init__(self, config: TLBConfig):
        self.config = config
        self.stats = CacheStats()
        self._entries: list[int] = []
        self._page_shift = config.page_size.bit_length() - 1

    def access(self, address: int) -> bool:
        """Translate ``address``; return ``True`` on a TLB hit."""
        page = address >> self._page_shift
        self.stats.accesses += 1
        try:
            self._entries.remove(page)
            hit = True
        except ValueError:
            hit = False
            self.stats.misses += 1
            if len(self._entries) >= self.config.entries:
                self._entries.pop(0)
        self._entries.append(page)
        return hit

    def reset(self) -> None:
        self.stats = CacheStats()
        self._entries = []


class AccessOutcome(enum.Enum):
    """Where a memory access was satisfied."""

    L1_HIT = "l1_hit"
    L2_HIT = "l2_hit"
    MEMORY = "memory"


def latency_of(config: MemoryHierarchyConfig, outcome: AccessOutcome) -> int:
    """Total access latency (cycles) for an access with ``outcome``."""
    if outcome is AccessOutcome.L1_HIT:
        return config.l1_hit_cycles
    if outcome is AccessOutcome.L2_HIT:
        return config.l1_hit_cycles + config.l2_hit_cycles
    return config.l1_hit_cycles + config.l2_hit_cycles + config.memory_cycles


class CacheHierarchy:
    """L1 instruction/data caches backed by a unified L2, plus TLBs."""

    def __init__(self, config: MemoryHierarchyConfig):
        self.config = config
        self.l1i = Cache(config.l1i)
        self.l1d = Cache(config.l1d)
        self.l2 = Cache(config.l2)
        self.itlb = TLB(config.itlb)
        self.dtlb = TLB(config.dtlb)
        self.stats = HierarchyStats()

    # ------------------------------------------------------------------
    def access_instruction(self, address: int) -> tuple[AccessOutcome, bool]:
        """Fetch-side access; returns (cache outcome, TLB missed?)."""
        self.stats.instruction_accesses += 1
        tlb_miss = not self.itlb.access(address)
        if tlb_miss:
            self.stats.itlb_misses += 1
        if self.l1i.access(address):
            return AccessOutcome.L1_HIT, tlb_miss
        self.stats.l1i_misses += 1
        if self.l2.access(address):
            return AccessOutcome.L2_HIT, tlb_miss
        self.stats.il2_misses += 1
        return AccessOutcome.MEMORY, tlb_miss

    def access_data(self, address: int, is_store: bool = False) -> tuple[AccessOutcome, bool]:
        """Load/store access; returns (cache outcome, TLB missed?).

        Stores allocate on miss (write-allocate, write-back), which matches
        the blocking behaviour assumed by the in-order pipeline.
        """
        self.stats.data_accesses += 1
        tlb_miss = not self.dtlb.access(address)
        if tlb_miss:
            self.stats.dtlb_misses += 1
        if self.l1d.access(address):
            return AccessOutcome.L1_HIT, tlb_miss
        self.stats.l1d_misses += 1
        if self.l2.access(address):
            return AccessOutcome.L2_HIT, tlb_miss
        self.stats.dl2_misses += 1
        return AccessOutcome.MEMORY, tlb_miss

    def latency_of(self, outcome: AccessOutcome, tlb_miss: bool = False) -> int:
        """Cycles needed to satisfy an access, including a page walk if any."""
        latency = latency_of(self.config, outcome)
        if tlb_miss:
            latency += self.config.tlb_miss_cycles
        return latency

    def reset(self) -> None:
        for component in (self.l1i, self.l1d, self.l2, self.itlb, self.dtlb):
            component.reset()
        self.stats = HierarchyStats()


def profile_machine_replay(trace: Trace, machine: MachineConfig,
                           mlp_window: int = 64) -> MissProfile:
    """Legacy replay: drive the full trace through a fresh hierarchy."""
    hierarchy = CacheHierarchy(machine.memory_hierarchy_config())
    predictor = make_predictor(machine.branch_predictor)

    profile = MissProfile(machine=machine, instructions=len(trace))
    last_dl2_miss_seq: int | None = None

    branch_stats: BranchProfile = profile_branches(trace, predictor)
    profile.mispredictions = branch_stats.mispredictions
    profile.taken_bubbles = branch_stats.taken_bubbles
    profile.conditional_branches = branch_stats.conditional_branches

    for dyn in trace:
        outcome, itlb_miss = hierarchy.access_instruction(dyn.pc)
        if dyn.instruction.is_memory:
            data_outcome, dtlb_miss = hierarchy.access_data(
                dyn.mem_addr or 0, is_store=dyn.is_store
            )
            if data_outcome is AccessOutcome.MEMORY:
                if (last_dl2_miss_seq is None
                        or dyn.seq - last_dl2_miss_seq > mlp_window):
                    profile.dl2_miss_runs += 1
                last_dl2_miss_seq = dyn.seq

    stats = hierarchy.stats
    profile.l1i_misses = stats.l1i_misses
    profile.il2_misses = stats.il2_misses
    profile.itlb_misses = stats.itlb_misses
    profile.l1d_misses = stats.l1d_misses
    profile.dl2_misses = stats.dl2_misses
    profile.dtlb_misses = stats.dtlb_misses
    return profile


def replay_pipeline_events(trace: Trace, machine) -> PipelineEvents:
    """Per-instruction miss-event columns of ``trace`` on ``machine``.

    Replays a fresh :class:`CacheHierarchy` and branch predictor in trace
    order, each instruction's fetch before its data access.
    """
    hierarchy = CacheHierarchy(machine.memory_hierarchy_config())
    predictor = make_predictor(machine.branch_predictor)
    access_instruction = hierarchy.access_instruction
    access_data = hierarchy.access_data
    latency_of = hierarchy.latency_of
    predict = predictor.predict
    update = predictor.update
    fetch: list[int] = []
    data: list[int] = []
    control: list[int] = []
    pcs = trace.pcs
    mem_addrs = trace.mem_addrs
    takens = trace.taken
    for index, class_id in enumerate(trace.op_classes):
        pc = pcs[index]
        fetch.append(latency_of(*access_instruction(pc)))
        if class_id == _LOAD_ID or class_id == _STORE_ID:
            data.append(latency_of(*access_data(
                mem_addrs[index], is_store=class_id == _STORE_ID
            )))
        else:
            data.append(0)
        if class_id == _BRANCH_ID:
            taken = takens[index] == 1
            prediction = predict(pc)
            update(pc, taken)
            control.append(
                CONTROL_MISPREDICT if prediction != taken
                else CONTROL_TAKEN if taken else CONTROL_NONE
            )
        elif class_id == _JUMP_ID:
            control.append(CONTROL_TAKEN)
        else:
            control.append(CONTROL_NONE)
    return PipelineEvents(array("q", fetch), array("q", data),
                          array("q", control), hierarchy.stats)
