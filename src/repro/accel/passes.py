"""Cached profiling passes shared by every kernel backend.

These are the payloads the single-pass engine memoizes (and persists
through the artifact cache): one :class:`BasePass` per L1/TLB front-end
geometry and one :class:`L2Pass` per (sets, line size) L2 geometry.  Both
kernel backends produce bit-identical instances, so a pass computed by the
NumPy kernels answers exactly like one computed by the pure-Python
kernels — including after a pickle round trip through the cache.

Miss-count queries are O(1): the per-distance histograms are folded once
into cumulative (suffix-sum) arrays where entry ``a`` holds the number of
accesses with stack distance ``>= a``, so ``misses(associativity)`` is a
single lookup instead of a histogram scan.  Miss-run counts are memoized
per ``(associativity, mlp_window)`` pair.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.memory.single_pass import SinglePassResult, suffix_counts


def count_miss_runs(seqs, distances, associativity: int, mlp_window: int) -> int:
    """Number of miss runs in a (sequence, stack distance) miss stream.

    A run starts at a miss whose distance from the previous miss exceeds
    ``mlp_window`` dynamic instructions; ``distance < 0`` is a cold miss.
    """
    runs, _ = resume_miss_runs(seqs, distances, associativity, mlp_window, None)
    return runs


def resume_miss_runs(seqs, distances, associativity: int, mlp_window: int,
                     last_seq: int | None) -> tuple[int, int | None]:
    """One chunk of miss-run counting: ``(new runs, last miss sequence)``.

    The carried ``last_seq`` is the sequence number of the last miss seen in
    earlier chunks (``None`` before the first miss), so feeding a stream
    chunk by chunk counts exactly the runs :func:`count_miss_runs` counts
    over the concatenation.
    """
    runs = 0
    for seq, distance in zip(seqs, distances):
        if distance < 0 or distance >= associativity:
            if last_seq is None or seq - last_seq > mlp_window:
                runs += 1
            last_seq = seq
    return runs, last_seq


@dataclass(frozen=True)
class BasePass:
    """One walk of the trace for a fixed L1/TLB front-end geometry."""

    l1i: SinglePassResult
    l1d: SinglePassResult
    itlb: SinglePassResult
    dtlb: SinglePassResult
    #: The unified L2's access stream (byte addresses, trace order);
    #: ``None`` when the pass was streamed chunk by chunk and the stream
    #: never kept.
    l2_addrs: array | None
    #: 0 = instruction fetch, 1 = load/store, per ``l2_addrs`` entry.
    l2_sides: array | None
    #: Dynamic sequence number of the instruction that caused each access.
    l2_seqs: array | None

    def with_l2_stream(self, addrs: array, sides: array,
                       seqs: array) -> "BasePass":
        """This pass keeping the L2 access stream its walk produced."""
        return BasePass(self.l1i, self.l1d, self.itlb, self.dtlb,
                        addrs, sides, seqs)


@dataclass(frozen=True)
class L2Pass:
    """Stack distances of the shared L2 stream for one (sets, line) geometry."""

    instruction_cold: int
    data_cold: int
    instruction_histogram: dict[int, int]
    data_histogram: dict[int, int]
    #: Data-side accesses only: (sequence, stack distance) with -1 = cold.
    #: ``None`` when the pass was streamed chunk by chunk: the columns were
    #: never kept, and only the miss-run counts accumulated into ``_runs``
    #: during the walk can be answered.
    data_seqs: array | None
    data_distances: array | None
    #: Miss-run counts per (associativity, mlp_window): accumulated during a
    #: streamed walk, memoized on demand when the data columns are kept.
    _runs: dict = field(default_factory=dict, compare=False, repr=False)

    def with_data(self, data_seqs: array, data_distances: array) -> "L2Pass":
        """This pass keeping the data-side columns its walk produced."""
        return L2Pass(self.instruction_cold, self.data_cold,
                      self.instruction_histogram, self.data_histogram,
                      data_seqs, data_distances, self._runs)

    def _suffix(self, attr: str, histogram: dict[int, int]) -> array:
        # Lazily built so instances unpickled from older cache entries (or
        # constructed directly in tests) stay valid; the arrays are pure
        # functions of the frozen histograms, so they can never go stale.
        cached = self.__dict__.get(attr)
        if cached is None:
            cached = suffix_counts(histogram)
            object.__setattr__(self, attr, cached)
        return cached

    def instruction_misses(self, associativity: int) -> int:
        suffix = self._suffix("_instruction_suffix", self.instruction_histogram)
        conflict = suffix[associativity] if associativity < len(suffix) else 0
        return self.instruction_cold + conflict

    def data_misses(self, associativity: int) -> int:
        suffix = self._suffix("_data_suffix", self.data_histogram)
        conflict = suffix[associativity] if associativity < len(suffix) else 0
        return self.data_cold + conflict

    def answers_runs(self, associativity: int, mlp_window: int) -> bool:
        """Whether :meth:`data_miss_runs` can answer this pair."""
        return (self.data_seqs is not None
                or (associativity, mlp_window) in self._runs)

    def data_miss_runs(self, associativity: int, mlp_window: int,
                       counter=count_miss_runs) -> int:
        """Number of DL2 "miss runs" (see :class:`MissProfile`), memoized.

        A streamed pass answers only the pairs registered before its walk;
        any other pair raises (the silent alternative would be a wrong count).
        """
        key = (associativity, mlp_window)
        cached = self._runs.get(key)
        if cached is None:
            if self.data_seqs is None:
                raise KeyError(
                    f"streamed L2 pass has no miss-run count for "
                    f"associativity={associativity}, mlp_window={mlp_window}; "
                    f"re-stream the trace with this pair in run_keys"
                )
            cached = counter(self.data_seqs, self.data_distances,
                             associativity, mlp_window)
            self._runs[key] = cached
        return cached
