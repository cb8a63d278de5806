"""Cache, TLB and memory-hierarchy geometry, and single-pass profiling.

This package provides the program-machine profiling substrate of the paper's
framework (Figure 2): the geometry of the set-associative LRU caches, the
translation lookaside buffers and the two-level hierarchy, the miss counts
one machine sees, and the single-pass (stack-distance) cache profiler in the
spirit of Mattson et al. / Hill & Smith, which the paper cites for collecting
miss rates for many cache configurations in one profiling run.  Every
structure is true LRU, so an access with stack distance ``d`` hits an
``a``-way structure iff ``0 <= d < a``: stack distances are the one source
of miss events, for the model and for the simulators alike.
"""

from repro.memory.cache import CacheConfig
from repro.memory.tlb import TLBConfig
from repro.memory.hierarchy import HierarchyStats, MemoryHierarchyConfig
from repro.memory.single_pass import StackDistanceProfiler

__all__ = [
    "CacheConfig",
    "TLBConfig",
    "HierarchyStats",
    "MemoryHierarchyConfig",
    "StackDistanceProfiler",
]
