"""Two-level cache hierarchy with TLBs.

The hierarchy is the reference for every miss event: the exact replay
profiler walks it, and so does the reference computation of the detailed
pipeline simulators' per-instruction events
(:meth:`repro.accel.Kernels.pipeline_events`), so the profiler and the
simulators observe exactly the same miss events for a given trace and
configuration — the key property the paper relies on when validating the
analytical model against detailed simulation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.memory.cache import Cache, CacheConfig
from repro.memory.tlb import TLB, TLBConfig


class AccessOutcome(enum.Enum):
    """Where a memory access was satisfied."""

    L1_HIT = "l1_hit"
    L2_HIT = "l2_hit"
    MEMORY = "memory"


@dataclass(frozen=True)
class MemoryHierarchyConfig:
    """Cache/TLB geometry plus access latencies (in cycles).

    Latencies follow the paper's default configuration: single-cycle L1
    access, a 10 ns L2 (10 cycles at the default 1 GHz) and main memory an
    order of magnitude further away.  The latencies are expressed in cycles so
    the design-space exploration can rescale them when the clock frequency
    changes (Table 2 varies 600 MHz .. 1 GHz).
    """

    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 4, 64, name="l1i")
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 4, 64, name="l1d")
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(512 * 1024, 8, 64, name="l2")
    )
    itlb: TLBConfig = field(default_factory=lambda: TLBConfig(32, name="itlb"))
    dtlb: TLBConfig = field(default_factory=lambda: TLBConfig(32, name="dtlb"))
    l1_hit_cycles: int = 1
    l2_hit_cycles: int = 10
    memory_cycles: int = 80
    tlb_miss_cycles: int = 30

    def latency_of(self, outcome: AccessOutcome) -> int:
        """Total access latency (cycles) for an access with ``outcome``."""
        if outcome is AccessOutcome.L1_HIT:
            return self.l1_hit_cycles
        if outcome is AccessOutcome.L2_HIT:
            return self.l1_hit_cycles + self.l2_hit_cycles
        return self.l1_hit_cycles + self.l2_hit_cycles + self.memory_cycles


@dataclass
class HierarchyStats:
    """Miss-event counts accumulated over a trace."""

    instruction_accesses: int = 0
    data_accesses: int = 0
    l1i_misses: int = 0
    l1d_misses: int = 0
    il2_misses: int = 0
    dl2_misses: int = 0
    itlb_misses: int = 0
    dtlb_misses: int = 0

    @property
    def l1i_l2_hits(self) -> int:
        """Instruction-side L1 misses that were satisfied by the L2."""
        return self.l1i_misses - self.il2_misses

    @property
    def l1d_l2_hits(self) -> int:
        """Data-side L1 misses that were satisfied by the L2."""
        return self.l1d_misses - self.dl2_misses


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
        latency = self.config.latency_of(outcome)
        if tlb_miss:
            latency += self.config.tlb_miss_cycles
        return latency

    def reset(self) -> None:
        for component in (self.l1i, self.l1d, self.l2, self.itlb, self.dtlb):
            component.reset()
        self.stats = HierarchyStats()
