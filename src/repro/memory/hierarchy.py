"""Memory-hierarchy geometry and miss-event counts.

:class:`MemoryHierarchyConfig` describes the two L1 caches, the unified L2,
the two TLBs and their access latencies; :class:`HierarchyStats` holds the
miss counts one machine sees on one trace.  Miss events themselves come
from stack distances (:class:`~repro.memory.single_pass.StackDistanceProfiler`):
the profiler's histograms and the simulators' per-instruction event columns
(:meth:`repro.accel.Kernels.pipeline_events`) are computed from the same
per-access distances, so the model and the simulators observe exactly the
same miss events for a given trace and configuration — the key property the
paper relies on when validating the analytical model against detailed
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.cache import CacheConfig
from repro.memory.tlb import TLBConfig


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
