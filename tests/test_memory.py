"""Unit and property tests for caches, TLBs, the hierarchy and single-pass profiling.

The object caches, TLBs and hierarchy are the test oracle's
(``tests/memory_oracle.py``); the geometry and the stack-distance profiler
are the package's own.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from memory_oracle import (
    TLB,
    AccessOutcome,
    Cache,
    CacheHierarchy,
    profile_machine_replay,
)

from repro.memory import (
    CacheConfig,
    MemoryHierarchyConfig,
    StackDistanceProfiler,
    TLBConfig,
)
from repro.profiler.machine_stats import profile_machine


class TestCacheConfig:
    def test_sets_computed(self):
        config = CacheConfig(32 * 1024, 4, 64)
        assert config.sets == 128
        assert "32KB" in config.describe()

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 4, 64)           # size not divisible
        with pytest.raises(ValueError):
            CacheConfig(32 * 1024, 0, 64)      # zero associativity
        with pytest.raises(ValueError):
            CacheConfig(32 * 1024, 4, 48)      # non power-of-two line
        with pytest.raises(ValueError):
            CacheConfig(3 * 2 * 64, 2, 64)     # three sets: not a power of two


class TestCache:
    def test_miss_then_hit(self):
        cache = Cache(CacheConfig(1024, 2, 64))
        assert cache.access(0) is False
        assert cache.access(0) is True
        assert cache.access(32) is True       # same line
        assert cache.stats.accesses == 3
        assert cache.stats.misses == 1
        assert cache.stats.hits == 2

    def test_lru_eviction(self):
        # 2-way, 64B lines, 2 sets -> set 0 holds lines 0 and 2 (addresses 0, 128).
        cache = Cache(CacheConfig(256, 2, 64))
        cache.access(0)        # line A
        cache.access(128)      # line B (same set)
        cache.access(0)        # touch A -> B is LRU
        cache.access(256)      # line C evicts B
        assert cache.probe(0) is True
        assert cache.probe(128) is False
        assert cache.probe(256) is True

    def test_reset(self):
        cache = Cache(CacheConfig(256, 2, 64))
        cache.access(0)
        cache.reset()
        assert cache.stats.accesses == 0
        assert cache.resident_lines() == 0

    def test_miss_rate(self):
        cache = Cache(CacheConfig(256, 2, 64))
        assert cache.stats.miss_rate == 0.0
        cache.access(0)
        cache.access(0)
        assert cache.stats.miss_rate == pytest.approx(0.5)

    @given(st.lists(st.integers(min_value=0, max_value=1 << 14), min_size=1, max_size=300))
    @settings(max_examples=40)
    def test_capacity_invariant(self, addresses):
        config = CacheConfig(1024, 2, 64)
        cache = Cache(config)
        for address in addresses:
            cache.access(address)
        assert cache.resident_lines() <= config.sets * config.associativity
        # Re-accessing the most recent address is always a hit.
        assert cache.access(addresses[-1]) is True


class TestTLB:
    def test_hit_after_miss(self):
        tlb = TLB(TLBConfig(entries=4, page_size=4096))
        assert tlb.access(0) is False
        assert tlb.access(100) is True          # same page
        assert tlb.access(4096) is False        # next page

    def test_lru_replacement(self):
        tlb = TLB(TLBConfig(entries=2, page_size=4096))
        tlb.access(0)
        tlb.access(4096)
        tlb.access(0)
        tlb.access(2 * 4096)                    # evicts page 1
        assert tlb.access(0) is True
        assert tlb.access(4096) is False

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TLBConfig(entries=0)
        with pytest.raises(ValueError):
            TLBConfig(page_size=3000)

    def test_reset(self):
        tlb = TLB(TLBConfig(entries=2))
        tlb.access(0)
        tlb.reset()
        assert tlb.stats.accesses == 0
        assert tlb.access(0) is False


class TestHierarchy:
    def _hierarchy(self) -> CacheHierarchy:
        config = MemoryHierarchyConfig(
            l1i=CacheConfig(1024, 2, 64, name="l1i"),
            l1d=CacheConfig(1024, 2, 64, name="l1d"),
            l2=CacheConfig(8 * 1024, 4, 64, name="l2"),
            l2_hit_cycles=10,
            memory_cycles=80,
            tlb_miss_cycles=30,
        )
        return CacheHierarchy(config)

    def test_instruction_access_outcomes(self):
        hierarchy = self._hierarchy()
        outcome, _ = hierarchy.access_instruction(0)
        assert outcome is AccessOutcome.MEMORY       # cold: misses everywhere
        outcome, _ = hierarchy.access_instruction(0)
        assert outcome is AccessOutcome.L1_HIT
        assert hierarchy.stats.l1i_misses == 1
        assert hierarchy.stats.il2_misses == 1

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = self._hierarchy()
        # Fill one L1 set (2 ways, 16 sets of 64B lines -> same set every 1KB).
        hierarchy.access_data(0)
        hierarchy.access_data(1024)
        hierarchy.access_data(2048)      # evicts address 0 from L1, stays in L2
        outcome, _ = hierarchy.access_data(0)
        assert outcome is AccessOutcome.L2_HIT
        assert hierarchy.stats.l1d_l2_hits >= 1

    def test_latency_of(self):
        hierarchy = self._hierarchy()
        config = hierarchy.config
        assert hierarchy.latency_of(AccessOutcome.L1_HIT) == config.l1_hit_cycles
        assert hierarchy.latency_of(AccessOutcome.L2_HIT) == config.l1_hit_cycles + 10
        assert hierarchy.latency_of(AccessOutcome.MEMORY) == config.l1_hit_cycles + 10 + 80
        assert hierarchy.latency_of(AccessOutcome.L1_HIT, tlb_miss=True) == \
            config.l1_hit_cycles + 30

    def test_reset(self):
        hierarchy = self._hierarchy()
        hierarchy.access_data(0)
        hierarchy.reset()
        assert hierarchy.stats.data_accesses == 0
        outcome, _ = hierarchy.access_data(0)
        assert outcome is AccessOutcome.MEMORY

    def test_stats_properties(self):
        hierarchy = self._hierarchy()
        for address in range(0, 4096, 64):
            hierarchy.access_data(address)
        stats = hierarchy.stats
        assert stats.data_accesses == 64
        assert stats.l1d_misses >= stats.dl2_misses
        assert stats.l1d_l2_hits == stats.l1d_misses - stats.dl2_misses


class TestStackDistanceProfiler:
    def test_validation(self):
        with pytest.raises(ValueError):
            StackDistanceProfiler(sets=3)
        with pytest.raises(ValueError):
            StackDistanceProfiler(sets=4, line_size=100)

    def test_simple_stream(self):
        profiler = StackDistanceProfiler(sets=1, line_size=64)
        result = profiler.profile([0, 64, 0, 64, 128, 0])
        assert result.accesses == 6
        assert result.cold_misses == 3
        # With 1-line capacity everything but repeats at distance 0 misses.
        assert result.misses(1) == 6
        # With >= 3 lines only the cold misses remain.
        assert result.misses(3) == 3

    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 13), min_size=1, max_size=400),
        st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_direct_simulation(self, addresses, associativity):
        """Single-pass stack distances give the same miss count as an LRU cache."""
        sets, line = 4, 64
        profiler = StackDistanceProfiler(sets=sets, line_size=line)
        result = profiler.profile(addresses)
        cache = Cache(CacheConfig(sets * associativity * line, associativity, line))
        direct_misses = sum(0 if cache.access(address) else 1 for address in addresses)
        assert result.misses(associativity) == direct_misses

    def test_miss_rate(self):
        profiler = StackDistanceProfiler(sets=1, line_size=64)
        result = profiler.profile([0, 0, 0, 0])
        assert result.miss_rate(1) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            result.misses(0)


# ----------------------------------------------------------------------
# Whole-workload checks on sha.
# ----------------------------------------------------------------------
def test_oracle_hierarchy_throughput(sha_trace, default_machine):
    addresses = [dyn.mem_addr for dyn in sha_trace if dyn.mem_addr is not None]
    config = default_machine.memory_hierarchy_config()
    hierarchy = CacheHierarchy(config)
    for address in addresses:
        hierarchy.access_data(address)
    assert hierarchy.stats.data_accesses == len(addresses)
    # The data side alone is one L1D stream: its misses are the stack
    # distances' misses at the L1D's associativity.
    l1d = StackDistanceProfiler(config.l1d.sets, config.l1d.line_size)
    assert hierarchy.stats.l1d_misses == l1d.profile(addresses).misses(
        config.l1d.associativity)


def test_machine_profiling_on_a_workload(sha_trace, default_machine):
    misses = profile_machine(sha_trace, default_machine)
    assert misses.instructions == len(sha_trace)
    replayed = profile_machine_replay(sha_trace, default_machine)
    assert dataclasses.asdict(misses) == dataclasses.asdict(replayed)
