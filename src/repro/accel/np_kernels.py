"""NumPy-vectorized profiling kernels (bit-identical to the reference).

Every kernel reproduces the pure-Python reference
(:class:`~repro.accel.kernels.PythonKernels`) exactly — all counts are
integers computed by exact algorithms, so there is no floating-point
tolerance anywhere, only equality.

Every pass is implemented once, as a chunk-resumable stream
(``base_stream``, ``l2_stream``, ``branch_stream``, ``dependency_stream``,
``mix_stream``); a whole trace is the one-chunk case, driven by the
protocol's whole-trace names (:meth:`~repro.accel.kernels.Kernels.base_pass`
and friends).  The state a stream carries into its next chunk — LRU
last-access positions, counter tables, local histories — is folded in only
when a next chunk arrives, and the carried-state gathers are skipped until
then, so a one-chunk walk pays nothing for resumability.

Vectorization notes
-------------------
**Stack distances.**  The per-set LRU stack walk is replaced by an exact
offline formulation.  Arrange the accesses grouped by set (stable, so
each set's subsequence stays in trace order and occupies a contiguous
block) and collapse runs of consecutive same-line accesses (repeats have
distance 0 and never change a window's *distinct* count).  The stack
distance of a warm access is the number of distinct same-set lines in its
reuse window ``(prev, i)``: give every line one bit of a per-set-dense
bitmask, and the distinct count becomes ``popcount(OR)`` over the window.
ORs over arbitrary windows come from a sparse table of power-of-two
windows built by in-place doubling — OR is idempotent, so two overlapping
power-of-two sub-windows cover any window exactly.  Tiny fully
associative footprints (TLBs) skip the table and count, per line, whether
its latest occurrence falls inside the window.  No Python-level
per-access work remains.

**Branch predictors.**  Two-bit saturating counters are four-state
automata; each outcome is a state map, and maps compose associatively.  A
map packs into one byte (2 bits per state), composition is a 256x256
table lookup, and the per-slot pre-update states come from a segmented
Hillis-Steele scan over the packed maps — grouped by table slot, because
slots evolve independently.  Global (gshare) and per-PC (local) histories
are sliding windows over the taken bits, computed with shifted adds.

**Dependencies.**  Reads and writes fold into composite
register-position keys; one ``searchsorted`` drops each write at its
insertion point in the read sequence and a running maximum forward-fills
every read's latest visible producer.  The shortest-distance/first-source
tie rule is a two-step scatter fold.

**Batched model evaluation.**  ``predict_batch`` evaluates the
mechanistic model for a whole configuration list at once: per-machine
penalty scalars come from the exact scalar code (Python floats), and only
the per-configuration products and the ordered component sum are
vectorized — the same IEEE-754 operations in the same order, so cycles
and CPI stacks match the scalar model bit for bit.
"""

from __future__ import annotations

from array import array
from operator import attrgetter

import numpy as np

from repro.accel.kernels import (
    DATA_SIDE,
    INSTRUCTION_SIDE,
    BaseGeometry,
    ControlStream,
    Kernels,
    MixStream,
)
from repro.accel.passes import BasePass, L2Pass
from repro.branch.predictors import PREDICTORS
from repro.branch.profiler import BranchProfile
from repro.isa.opcodes import OpClass
from repro.isa.registers import NUM_INT_REGS
from repro.memory.single_pass import SinglePassResult
from repro.profiler.dependences import (
    KIND_LOAD,
    KIND_LONG,
    KIND_UNIT,
    DependencyProfile,
)
from repro.trace.trace import OP_CLASS_BY_ID, OP_CLASS_IDS, Trace

_LOAD_ID = OP_CLASS_IDS[OpClass.LOAD]
_STORE_ID = OP_CLASS_IDS[OpClass.STORE]
_BRANCH_ID = OP_CLASS_IDS[OpClass.BRANCH]
_JUMP_ID = OP_CLASS_IDS[OpClass.JUMP]

#: Miss-profile counter fields consumed by the batched model evaluation.
_MISS_FIELDS = attrgetter(
    "l1d_misses", "l1i_misses", "il2_misses", "dl2_misses",
    "itlb_misses", "dtlb_misses", "mispredictions", "taken_bubbles",
)


# ----------------------------------------------------------------------
# Column views.
# ----------------------------------------------------------------------
def _as_i64(column) -> np.ndarray:
    """Zero-copy int64 view of a packed ``array('q')`` column."""
    if isinstance(column, np.ndarray):
        return column.astype(np.int64, copy=False)
    if isinstance(column, range):
        return np.arange(column.start, column.stop, column.step, dtype=np.int64)
    if isinstance(column, array) and column.typecode == "q" and len(column):
        return np.frombuffer(column, dtype=np.int64)
    if isinstance(column, memoryview) and column.format == "q" and len(column):
        # Shared-memory attached trace: the view maps the segment directly.
        return np.frombuffer(column, dtype=np.int64)
    return np.asarray(column, dtype=np.int64)


def _as_i8(column) -> np.ndarray:
    """Zero-copy int8 view of a packed ``array('b')`` column."""
    if isinstance(column, array) and column.typecode == "b" and len(column):
        return np.frombuffer(column, dtype=np.int8)
    if isinstance(column, memoryview) and column.format == "b" and len(column):
        return np.frombuffer(column, dtype=np.int8)
    return np.asarray(column, dtype=np.int8)


def _to_q(values: np.ndarray) -> array:
    out = array("q")
    out.frombytes(values.astype(np.int64, copy=False).tobytes())
    return out


def _to_b(values: np.ndarray) -> array:
    out = array("b")
    out.frombytes(values.astype(np.int8, copy=False).tobytes())
    return out


def _validate_geometry(sets: int, line_size: int) -> None:
    """Mirror :class:`StackDistanceProfiler`'s constructor checks exactly."""
    if sets <= 0 or sets & (sets - 1):
        raise ValueError("sets must be a positive power of two")
    if line_size <= 0 or line_size & (line_size - 1):
        raise ValueError("line_size must be a positive power of two")


def _stable_argsort_ints(values: np.ndarray) -> np.ndarray:
    """Stable argsort of integers, radix-sorted 16 bits at a time.

    NumPy's stable sort only uses radix for 8/16-bit integers; cache lines,
    set indices and predictor-table slots live in tiny ranges, so shifting
    to zero and sorting by 16-bit digits (LSD order, each pass stable) is
    several times faster than a 64-bit merge sort.
    """
    if values.size == 0:
        return np.empty(0, dtype=np.intp)
    low = int(values.min())
    span = int(values.max()) - low
    if span >= (1 << 62):  # subtraction could overflow: take the slow path
        return np.argsort(values, kind="stable")
    if span < (1 << 15):
        return np.argsort((values - low).astype(np.int16), kind="stable")
    shifted = (values - low).astype(np.uint64)
    perm = None
    shift = 0
    while True:
        digit = ((shifted >> np.uint64(shift)) & np.uint64(0xFFFF)).astype(np.uint16)
        if perm is None:
            perm = np.argsort(digit, kind="stable")
        else:
            perm = perm[np.argsort(digit[perm], kind="stable")]
        shift += 16
        if (span >> shift) == 0:
            return perm


# ----------------------------------------------------------------------
# Exact stack distances.
# ----------------------------------------------------------------------
def _stack_distances(lines: np.ndarray, set_ids: np.ndarray,
                     single_set: bool = False) -> np.ndarray:
    """Exact per-set LRU stack distances (-1 = cold), original order.

    The stack distance of a warm access equals the number of distinct
    same-set lines touched inside its reuse window ``(prev, i)``.  Each
    line gets one bit of a per-set-dense bitmask; the distinct count of a
    window is then ``popcount(OR)`` over the window, and ORs over arbitrary
    windows come from a sparse table of power-of-two windows (built with
    log2 in-place doubling steps, since OR is idempotent two overlapping
    power-of-two sub-windows cover any window exactly).

    Work is O(n log n + n * lanes) where ``lanes`` is the per-set distinct
    line count divided by 64 — effectively linear for cache-shaped streams,
    where per-set footprints are small.
    """
    n = int(lines.size)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if single_set:
        arrange = None
        a_lines = lines
        a_sets = None
    else:
        # Group accesses by set; stable, so each set's block keeps trace
        # order and every reuse window stays inside one contiguous block.
        arrange = _stable_argsort_ints(set_ids)
        a_lines = lines[arrange]
        a_sets = set_ids[arrange]

    # Run compression: sequential streams re-touch the same line many times
    # in a row.  A repeat access has distance 0 by definition, and
    # duplicates inside any reuse window never change its *distinct* count,
    # so the core algorithm only needs the first access of every run (equal
    # consecutive lines are the same set, so runs never span set blocks).
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(a_lines[1:], a_lines[:-1], out=starts[1:])
    firsts = np.flatnonzero(starts)
    if firsts.size < n:
        compressed = _grouped_distances(
            a_lines[firsts],
            a_sets[firsts] if a_sets is not None else None, single_set,
        )
        arranged_out = np.zeros(n, dtype=np.int64)
        arranged_out[firsts] = compressed
    else:
        arranged_out = _grouped_distances(a_lines, a_sets, single_set)
    if arrange is None:
        return arranged_out
    out = np.empty(n, dtype=np.int64)
    out[arrange] = arranged_out
    return out


def _grouped_distances(a_lines: np.ndarray, a_sets: np.ndarray | None,
                       single_set: bool) -> np.ndarray:
    """Core stack-distance algorithm over a set-grouped access stream."""
    n = int(a_lines.size)
    # One stable sort by line yields everything: previous-occurrence links
    # (neighbours inside equal-line runs), first occurrences, and the dense
    # line ids (run index) — same line => same set => same block.
    order = _stable_argsort_ints(a_lines)
    ordered = a_lines[order]
    same = np.empty(n, dtype=bool)
    same[0] = False
    same[1:] = ordered[1:] == ordered[:-1]
    prev = np.full(n, -1, dtype=np.int64)
    prev[order[1:]] = np.where(same[1:], order[:-1], -1)
    line_of = np.cumsum(~same) - 1  # dense line id, in sorted order
    first_at = order[np.flatnonzero(~same)]
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = line_of

    # Per-set-dense line ids, so each set's bitmask lanes stay compact.
    if single_set:
        dense = inverse
    else:
        line_sets = a_sets[first_at]
        set_order = _stable_argsort_ints(line_sets)
        grouped = line_sets[set_order]
        boundary = np.empty(grouped.size, dtype=bool)
        boundary[0] = True
        boundary[1:] = grouped[1:] != grouped[:-1]
        starts = np.flatnonzero(boundary)
        rank = np.arange(grouped.size, dtype=np.int64)
        rank -= starts[np.cumsum(boundary) - 1]
        line_rank = np.empty(grouped.size, dtype=np.int64)
        line_rank[set_order] = rank
        dense = line_rank[inverse]

    distances = np.full(n, -1, dtype=np.int64)
    warm = np.flatnonzero(prev >= 0)
    distinct = int(inverse.max()) + 1 if n else 0
    if warm.size and single_set and distinct <= 16:
        # Tiny footprint (TLBs see a handful of pages): count, per line,
        # whether its latest occurrence before i falls inside the window.
        # The re-referenced line's own latest occurrence is prev itself, so
        # it never counts — no special case needed.
        starts = prev[warm]
        totals = np.zeros(warm.size, dtype=np.int64)
        for line_id in range(distinct):
            positions = np.flatnonzero(inverse == line_id)
            slot = np.searchsorted(positions, warm, side="left") - 1
            latest = np.where(slot >= 0, positions[slot.clip(0)], -1)
            totals += latest > starts
        distances[warm] = totals
    elif warm.size:
        length = warm - prev[warm] - 1
        distances[warm] = 0  # empty window: re-reference at stack top
        lanes = (int(dense.max()) >> 6) + 1
        table = np.zeros((n, lanes), dtype=np.uint64)
        table[np.arange(n), dense >> 6] = (
            np.uint64(1) << (dense & 63).astype(np.uint64)
        )
        # Group the windowed queries by floor(log2(length)) up front, so
        # each doubling level answers one contiguous slice.  (Exact for
        # lengths below 2^53: powers of two are exact in float64.)
        windowed = np.flatnonzero(length > 0)
        if windowed.size:
            level_of = np.floor(np.log2(length[windowed])).astype(np.int8)
            level_order = np.argsort(level_of, kind="stable")
            by_level = windowed[level_order]
            bounds = np.searchsorted(level_of[level_order],
                                     np.arange(int(level_of.max()) + 2))

            def _answer(level: int) -> None:
                chunk = by_level[bounds[level]:bounds[level + 1]]
                if chunk.size == 0:
                    return
                width = 1 << level
                queries = warm[chunk]
                rows = table[prev[queries] + 1] | table[queries - width]
                counts = np.bitwise_count(rows)
                distances[queries] = (counts.sum(axis=1) if lanes > 1
                                      else counts[:, 0]).astype(np.int64)

            _answer(0)
            for level in range(1, int(level_of.max()) + 1):
                half = 1 << (level - 1)
                # Doubling: row p ORs row p+half (ufuncs handle overlap).
                np.bitwise_or(table[:-half], table[half:], out=table[:-half])
                _answer(level)

    return distances


def _interleave_l2_stream(pcs, seqs, memory_indices, data_addrs,
                          i_distances, d_distances, i_ways, d_ways):
    """The L2's interleaved L1-miss stream as (addrs, sides, seqs) arrays.

    Interleaves by trace position; an instruction fetch precedes the same
    instruction's data access, exactly like the reference walk.  Both
    halves are already position-sorted, so the merged slots come from two
    searchsorted calls instead of a sort.
    """
    i_miss = (i_distances < 0) | (i_distances >= i_ways)
    d_miss = (d_distances < 0) | (d_distances >= d_ways)
    instruction_at = np.flatnonzero(i_miss)
    data_at = memory_indices[d_miss]
    total = instruction_at.size + data_at.size
    instruction_slots = (np.arange(instruction_at.size, dtype=np.int64)
                         + np.searchsorted(data_at, instruction_at,
                                           side="left"))
    data_slots = (np.arange(data_at.size, dtype=np.int64)
                  + np.searchsorted(instruction_at, data_at,
                                    side="right"))
    addrs = np.empty(total, dtype=np.int64)
    addrs[instruction_slots] = pcs[instruction_at]
    addrs[data_slots] = data_addrs[d_miss]
    sides = np.empty(total, dtype=np.int8)
    sides[instruction_slots] = INSTRUCTION_SIDE
    sides[data_slots] = DATA_SIDE
    stream_seqs = np.empty(total, dtype=np.int64)
    stream_seqs[instruction_slots] = seqs[instruction_at]
    stream_seqs[data_slots] = seqs[data_at]
    return addrs, sides, stream_seqs


class _NpStackState:
    """Carried per-set LRU stack state of one structure across chunks.

    Stack distances only depend on the LRU stacks at the start of a chunk,
    and those stacks are fully determined by each previously-seen line's
    *last* access position.  So the carried state is one dict
    ``line -> last global access position``, and each chunk is answered by
    the offline kernel over ``prologue + chunk``, where the prologue
    replays every carried line once in oldest-first order — after it, every
    set's LRU stack is exactly the true mid-trace stack, making the chunk
    part of the offline answer *identical* to the distances an uninterrupted
    walk would produce (a prologue line's last access becomes its prologue
    slot, and the reuse window from there contains exactly the lines more
    recent than it).  The prologue's own distances are discarded.

    Folding a chunk into the dict is deferred until the next chunk
    arrives, so a one-chunk walk (a whole resident trace) never pays for
    state it does not use.
    """

    def __init__(self, sets: int, line_size: int):
        _validate_geometry(sets, line_size)
        self._sets = sets
        self._shift = line_size.bit_length() - 1
        self._last: dict[int, int] = {}
        self._position = 0
        self._pending: np.ndarray | None = None

    def _fold_pending(self) -> None:
        """Remember the previous chunk's lines' last (global) positions."""
        lines = self._pending
        self._pending = None
        order = _stable_argsort_ints(lines)
        ordered = lines[order]
        last_of_line = np.empty(lines.size, dtype=bool)
        last_of_line[-1] = True
        last_of_line[:-1] = ordered[1:] != ordered[:-1]
        picks = np.flatnonzero(last_of_line)
        self._last.update(zip(
            ordered[picks].tolist(),
            (order[picks] + self._position).tolist(),
        ))
        self._position += int(lines.size)

    def distances(self, addrs: np.ndarray) -> np.ndarray:
        lines = addrs >> self._shift
        if lines.size == 0:
            return np.empty(0, dtype=np.int64)
        if self._pending is not None:
            self._fold_pending()
        self._pending = lines
        if not self._last:
            return self._offline(lines)
        carried = np.fromiter(self._last.keys(), dtype=np.int64,
                              count=len(self._last))
        stamps = np.fromiter(self._last.values(), dtype=np.int64,
                             count=len(self._last))
        prologue = carried[np.argsort(stamps)]  # oldest first
        return self._offline(np.concatenate([prologue, lines]))[prologue.size:]

    def _offline(self, lines: np.ndarray) -> np.ndarray:
        if self._sets == 1:
            return _stack_distances(lines, lines, single_set=True)
        return _stack_distances(lines, lines & (self._sets - 1))


class _DistanceTally:
    """Accumulated accesses / cold misses / distance histogram of a stream."""

    __slots__ = ("accesses", "cold", "histogram")

    def __init__(self):
        self.accesses = 0
        self.cold = 0
        self.histogram: dict[int, int] = {}

    def add(self, distances: np.ndarray) -> None:
        cold = distances < 0
        self.accesses += int(distances.size)
        self.cold += int(np.count_nonzero(cold))
        warm = distances[~cold]
        if warm.size:
            counts = np.bincount(warm)
            present = np.flatnonzero(counts)
            chunk = zip(present.tolist(), counts[present].tolist())
            histogram = self.histogram
            if not histogram:
                histogram.update(chunk)
                return
            for distance, count in chunk:
                histogram[distance] = histogram.get(distance, 0) + count

    def result(self, sets: int, line_size: int) -> SinglePassResult:
        return SinglePassResult(
            sets=sets,
            line_size=line_size,
            accesses=self.accesses,
            cold_misses=self.cold,
            distance_histogram=self.histogram,
        )


class _NpBaseStream:
    """Chunk-resumable vectorized base pass."""

    def __init__(self, geometry: BaseGeometry):
        line = geometry.line_size
        self._geometry = geometry
        self._l1i_sets = geometry.l1i_size // (geometry.l1i_associativity * line)
        self._l1d_sets = geometry.l1d_size // (geometry.l1d_associativity * line)
        self._l1i_state = _NpStackState(self._l1i_sets, line)
        self._l1d_state = _NpStackState(self._l1d_sets, line)
        self._itlb_state = _NpStackState(1, geometry.page_size)
        self._dtlb_state = _NpStackState(1, geometry.page_size)
        self._l1i_tally = _DistanceTally()
        self._l1d_tally = _DistanceTally()
        self._itlb_tally = _DistanceTally()
        self._dtlb_tally = _DistanceTally()

    def update(self, trace: Trace) -> tuple[array, array, array]:
        geometry = self._geometry
        pcs = _as_i64(trace.pcs)
        op_classes = _as_i8(trace.op_classes)
        seqs = _as_i64(trace.seqs)
        i_distances = self._l1i_state.distances(pcs)
        self._l1i_tally.add(i_distances)
        self._itlb_tally.add(self._itlb_state.distances(pcs))
        memory_indices = np.flatnonzero(
            (op_classes == _LOAD_ID) | (op_classes == _STORE_ID)
        )
        data_addrs = _as_i64(trace.mem_addrs)[memory_indices]
        d_distances = self._l1d_state.distances(data_addrs)
        self._l1d_tally.add(d_distances)
        self._dtlb_tally.add(self._dtlb_state.distances(data_addrs))
        addrs, sides, stream_seqs = _interleave_l2_stream(
            pcs, seqs, memory_indices, data_addrs, i_distances, d_distances,
            geometry.l1i_associativity, geometry.l1d_associativity,
        )
        return _to_q(addrs), _to_b(sides), _to_q(stream_seqs)

    def finish(self) -> BasePass:
        geometry = self._geometry
        line = geometry.line_size
        return BasePass(
            l1i=self._l1i_tally.result(self._l1i_sets, line),
            l1d=self._l1d_tally.result(self._l1d_sets, line),
            itlb=self._itlb_tally.result(1, geometry.page_size),
            dtlb=self._dtlb_tally.result(1, geometry.page_size),
            l2_addrs=None,
            l2_sides=None,
            l2_seqs=None,
        )


class _NpL2Stream:
    """Chunk-resumable vectorized L2 pass over base-stream slices."""

    def __init__(self, sets: int, line_size: int, run_keys=()):
        self._state = _NpStackState(sets, line_size)
        self._instruction = _DistanceTally()
        self._data = _DistanceTally()
        self._runs = {(int(a), int(w)): 0 for a, w in run_keys}
        self._last_seq: dict[tuple[int, int], int | None] = {
            key: None for key in self._runs
        }

    def update(self, addrs, sides, seqs) -> tuple[array, array]:
        addrs = _as_i64(addrs)
        sides = _as_i8(sides)
        seqs = _as_i64(seqs)
        distances = self._state.distances(addrs)
        data_side = sides == DATA_SIDE
        self._instruction.add(distances[~data_side])
        data_distances = distances[data_side]
        self._data.add(data_distances)
        data_seqs = seqs[data_side]
        for key, last in self._last_seq.items():
            associativity, window = key
            miss = (data_distances < 0) | (data_distances >= associativity)
            miss_seqs = data_seqs[miss]
            if miss_seqs.size == 0:
                continue
            runs = int((np.diff(miss_seqs) > window).sum())
            if last is None or int(miss_seqs[0]) - last > window:
                runs += 1
            self._runs[key] += runs
            self._last_seq[key] = int(miss_seqs[-1])
        return _to_q(data_seqs), _to_q(data_distances)

    def finish(self) -> L2Pass:
        return L2Pass(
            instruction_cold=self._instruction.cold,
            data_cold=self._data.cold,
            instruction_histogram=self._instruction.histogram,
            data_histogram=self._data.histogram,
            data_seqs=None,
            data_distances=None,
            _runs=dict(self._runs),
        )


# ----------------------------------------------------------------------
# Branch predictors.
# ----------------------------------------------------------------------
def _pack(mapping) -> int:
    return mapping[0] | mapping[1] << 2 | mapping[2] << 4 | mapping[3] << 6


#: Packed state maps of a 2-bit saturating counter (states 0..3, init 2).
_MAP_IDENTITY = _pack((0, 1, 2, 3))
_MAP_INC = _pack((1, 2, 3, 3))
_MAP_DEC = _pack((0, 0, 1, 2))


def _build_compose() -> np.ndarray:
    codes = np.arange(256, dtype=np.uint16)
    digits = np.stack([(codes >> (2 * s)) & 3 for s in range(4)], axis=1)
    # composed[f, g][s] = f[g[s]]  (g applied first).
    composed = digits[:, digits]
    return (composed[..., 0] | composed[..., 1] << 2
            | composed[..., 2] << 4 | composed[..., 3] << 6).astype(np.uint8)


_COMPOSE = _build_compose()


class _CounterTable:
    """A table of 2-bit saturating counters (states 0..3, init 2).

    :meth:`advance` takes one packed state map per event (chronological
    order) and returns each event's pre-update counter state.  Events on
    different slots are independent, so the scan runs segmented over the
    slot-grouped (stable) ordering: a Hillis-Steele doubling pass composes
    the packed maps through the 256x256 composition table.  The first event
    of each slot reads the slot's carried state, and every touched slot's
    final state is written back before the next chunk is scanned — so
    chunk-by-chunk replay matches one replay of the concatenation exactly.
    The write-back is deferred until that next chunk arrives, and until it
    happens every counter holds the init state, which spares the table
    and the carried-state gather: a one-chunk replay pays for neither.
    """

    def __init__(self, entries: int):
        self._entries = entries
        #: Counter states, allocated at the first write-back.
        self._states: np.ndarray | None = None
        self._pending: tuple | None = None

    def _write_back(self) -> None:
        grouped_slots, acc, boundary = self._pending
        self._pending = None
        if self._states is None:
            self._states = np.full(self._entries, 2, dtype=np.int64)
        ends = np.flatnonzero(np.append(boundary[1:], True))
        slots = grouped_slots[ends]
        self._states[slots] = (acc[ends] >> (2 * self._states[slots])) & 3

    def advance(self, slots: np.ndarray, maps: np.ndarray) -> np.ndarray:
        n = int(slots.size)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if self._pending is not None:
            self._write_back()
        order = _stable_argsort_ints(slots)
        grouped_slots = slots[order]
        acc = maps[order].astype(np.int64)
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        boundary[1:] = grouped_slots[1:] != grouped_slots[:-1]
        segment = np.cumsum(boundary) - 1
        longest = int(np.bincount(segment).max())
        step = 1
        while step < longest:
            # acc[i] (later maps) composed after acc[i - step] (earlier
            # maps), except across segment boundaries.
            merged = _COMPOSE[acc[step:], acc[:-step]]
            acc[step:] = np.where(segment[step:] == segment[:-step],
                                  merged, acc[step:])
            step <<= 1
        inner = np.flatnonzero(~boundary)
        if self._states is None:
            # A map applied to init state 2 is its third digit.
            states = np.full(n, 2, dtype=np.int64)
            states[inner] = (acc[inner - 1] >> 4) & 3
        else:
            init = self._states[grouped_slots]  # per-event carried state
            states = init.copy()  # a slot's first event sees it directly
            states[inner] = (acc[inner - 1] >> (2 * init[inner])) & 3
        self._pending = (grouped_slots, acc, boundary)
        out = np.empty(n, dtype=np.int64)
        out[order] = states
        return out


def _global_history(taken: np.ndarray, bits: int) -> np.ndarray:
    """Pre-branch global history (bit ``j`` = outcome of branch ``i-1-j``)."""
    n = int(taken.size)
    history = np.zeros(n, dtype=np.int64)
    outcomes = taken.astype(np.int64)
    for j in range(1, bits + 1):
        history[j:] |= outcomes[:-j] << (j - 1)
    return history


# ----------------------------------------------------------------------
# Chunk-resumable predictor states.
#
# Each class carries a predictor's architectural state (counter tables,
# global/local histories, chooser) across chunk boundaries; one
# ``predict(pcs, taken)`` call per chunk returns the predictions of that
# slice of the full replay.
# ----------------------------------------------------------------------
class _BimodalState:
    def __init__(self, entries: int = 2048):
        self._entries = entries
        self._table = _CounterTable(entries)

    def predict(self, pcs: np.ndarray, taken: np.ndarray) -> np.ndarray:
        maps = np.where(taken, np.uint8(_MAP_INC), np.uint8(_MAP_DEC))
        return self._table.advance((pcs >> 2) & (self._entries - 1),
                                   maps) >= 2


class _GShareState:
    def __init__(self, history_bits: int = 12):
        self._bits = history_bits
        self._mask = (1 << history_bits) - 1
        self._table = _CounterTable(1 << history_bits)
        self._history = 0  # carried global history register

    def predict(self, pcs: np.ndarray, taken: np.ndarray) -> np.ndarray:
        n = int(taken.size)
        history = _global_history(taken, self._bits)
        if n and self._history:
            # Branch i's history bits >= i predate the chunk: bit j of the
            # carried register is the outcome of branch -1-(j-i), so the
            # whole register lands shifted left by i (older bits fall off
            # the mask).
            width = min(n, self._bits)
            history[:width] |= (
                np.int64(self._history) << np.arange(width, dtype=np.int64)
            ) & self._mask
        maps = np.where(taken, np.uint8(_MAP_INC), np.uint8(_MAP_DEC))
        index = ((pcs >> 2) ^ history) & self._mask
        predictions = self._table.advance(index, maps) >= 2
        if n:
            # The last branch's history with its own outcome shifted in.
            self._history = (
                (int(history[-1]) << 1) | int(taken[-1])
            ) & self._mask
        return predictions


class _LocalState:
    def __init__(self, history_bits: int = 10, history_entries: int = 1024):
        self._bits = history_bits
        self._mask = (1 << history_bits) - 1
        self._entries = history_entries
        #: Per-slot histories, allocated at the first write-back.
        self._histories: np.ndarray | None = None
        self._pending: tuple | None = None
        self._table = _CounterTable(1 << history_bits)

    def _write_back(self) -> None:
        """Each touched slot's history after its last event: that event's
        history with its own outcome shifted in (deferred, like
        :meth:`_CounterTable._write_back`)."""
        grouped_slots, history, grouped_taken, boundary = self._pending
        self._pending = None
        if self._histories is None:
            self._histories = np.zeros(self._entries, dtype=np.int64)
        ends = np.flatnonzero(np.append(boundary[1:], True))
        self._histories[grouped_slots[ends]] = (
            (history[ends] << 1) | grouped_taken[ends]
        ) & self._mask

    def predict(self, pcs: np.ndarray, taken: np.ndarray) -> np.ndarray:
        n = int(pcs.size)
        if n == 0:
            return np.zeros(0, dtype=bool)
        if self._pending is not None:
            self._write_back()
        bits = self._bits
        slots = (pcs >> 2) & (self._entries - 1)
        order = _stable_argsort_ints(slots)
        grouped_slots = slots[order]
        grouped_taken = taken[order].astype(np.int64)
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        boundary[1:] = grouped_slots[1:] != grouped_slots[:-1]
        start_positions = np.flatnonzero(boundary)
        segment_start = start_positions[np.cumsum(boundary) - 1]
        positions = np.arange(n, dtype=np.int64)
        history = np.zeros(n, dtype=np.int64)
        for j in range(1, bits + 1):
            source = positions - j
            ok = source >= segment_start
            history[ok] |= grouped_taken[source[ok]] << (j - 1)
        if self._histories is not None:
            # An event at within-slot rank r has only r in-chunk
            # predecessors; the carried per-slot history supplies the rest,
            # shifted past them.
            rank = positions - segment_start
            carried = self._histories[grouped_slots]
            shallow = rank < bits
            history[shallow] |= (
                (carried[shallow] << rank[shallow]) & self._mask
            )
        self._pending = (grouped_slots, history, grouped_taken, boundary)
        out_history = np.empty(n, dtype=np.int64)
        out_history[order] = history
        maps = np.where(taken, np.uint8(_MAP_INC), np.uint8(_MAP_DEC))
        # The shared second-level table is indexed by the history value.
        return self._table.advance(out_history, maps) >= 2


class _HybridState:
    def __init__(self, chooser_entries: int = 1024):
        self._local = _LocalState(history_bits=10, history_entries=1024)
        self._gshare = _GShareState(history_bits=12)
        self._entries = chooser_entries
        self._chooser = _CounterTable(chooser_entries)

    def predict(self, pcs: np.ndarray, taken: np.ndarray) -> np.ndarray:
        local = self._local.predict(pcs, taken)
        global_ = self._gshare.predict(pcs, taken)
        maps = np.where(
            local == global_,
            np.uint8(_MAP_IDENTITY),
            np.where(global_ == taken, np.uint8(_MAP_INC), np.uint8(_MAP_DEC)),
        )
        choose_global = self._chooser.advance(
            (pcs >> 2) & (self._entries - 1), maps
        ) >= 2
        return np.where(choose_global, global_, local)


class _ConstantState:
    def __init__(self, value: bool):
        self._value = value

    def predict(self, pcs: np.ndarray, taken: np.ndarray) -> np.ndarray:
        return np.full(taken.size, self._value, dtype=bool)


#: spec -> (carried-state factory, BranchPredictor.name of the built instance).
_PREDICTOR_STREAM_STATES = {
    "global_1kb": (lambda: _GShareState(history_bits=12), "gshare"),
    "hybrid_3.5kb": (_HybridState, "hybrid"),
    "bimodal": (_BimodalState, "bimodal"),
    "always_taken": (lambda: _ConstantState(True), "always_taken"),
    "always_not_taken": (lambda: _ConstantState(False), "always_not_taken"),
}


class _NpBranchStream:
    """Chunk-resumable vectorized branch replay for one predictor."""

    def __init__(self, state, predictor_name: str):
        self._state = state
        self._profile = BranchProfile(predictor_name=predictor_name)

    def update(self, controls: ControlStream) -> None:
        taken = _as_i8(controls.taken) == 1
        conditional = _as_i8(controls.conditional) == 1
        pcs = _as_i64(controls.pcs)[conditional]
        outcomes = taken[conditional]
        jumps = int((~conditional).sum())
        predictions = self._state.predict(pcs, outcomes)
        correct = predictions == outcomes
        profile = self._profile
        profile.conditional_branches += int(outcomes.size)
        profile.unconditional_jumps += jumps
        profile.taken_branches += int(outcomes.sum()) + jumps
        profile.mispredictions += int((~correct).sum())
        profile.predicted_taken_correct += int((correct & outcomes).sum())

    def finish(self) -> BranchProfile:
        return self._profile


# ----------------------------------------------------------------------
# The backend.
# ----------------------------------------------------------------------
class NumpyKernels(Kernels):
    """Vectorized kernels over the packed trace columns."""

    name = "numpy"

    #: Bound on the per-machine penalty memo: a long-lived server answering
    #: arbitrary override combinations must not grow it without limit.
    _FACTOR_MEMO_LIMIT = 4096

    def __init__(self):
        #: Per-machine penalty scalars (pure functions of the config) reused
        #: across every batch the backend answers.
        self._machine_factors: dict = {}

    def control_stream(self, trace: Trace) -> ControlStream:
        op_classes = _as_i8(trace.op_classes)
        control = np.flatnonzero(
            (op_classes == _BRANCH_ID) | (op_classes == _JUMP_ID)
        )
        taken = _as_i8(trace.taken)[control] == 1
        conditional = op_classes[control] == _BRANCH_ID
        return ControlStream(
            _to_q(_as_i64(trace.pcs)[control]),
            _to_b(taken.astype(np.int8)),
            _to_b(conditional.astype(np.int8)),
        )

    def count_runs(self, seqs, distances, associativity: int,
                   mlp_window: int) -> int:
        distance_values = _as_i64(distances)
        miss = (distance_values < 0) | (distance_values >= associativity)
        miss_seqs = _as_i64(seqs)[miss]
        if miss_seqs.size == 0:
            return 0
        return 1 + int((np.diff(miss_seqs) > mlp_window).sum())

    def predict_batch(self, program, profiles, machines):
        """Vectorized mechanistic-model evaluation (bit-identical).

        Per-machine penalty scalars and dependency totals are computed with
        the exact scalar code (:mod:`repro.core.penalties`) — Python floats
        — and only the per-configuration products and the ordered component
        sum are vectorized.  Every float operation happens in the same
        order, on the same IEEE-754 doubles, as a scalar
        :meth:`~repro.core.model.InOrderMechanisticModel.predict` call, so
        cycles and CPI stacks match bit for bit (excluded components
        contribute an exact ``+0.0``, which is an identity on the positive
        partial sums).
        """
        from repro.core import penalties
        from repro.core.cpi_stack import CPIComponent

        count = len(machines)
        if count == 0:
            return []
        dependencies = program.dependencies
        dependency_totals = {
            width: (
                penalties.unit_dependency_total(dependencies.unit, width),
                penalties.long_dependency_total(dependencies.long, width),
                penalties.load_dependency_total(dependencies.load, width),
            )
            for width in {machine.width for machine in machines}
        }

        data_accesses = program.loads + program.stores
        factor_memo = self._machine_factors
        if len(factor_memo) > self._FACTOR_MEMO_LIMIT:
            factor_memo.clear()  # recomputing a row is cheap; leaking is not
        base = []
        rows = []
        dep_unit, dep_long, dep_load = [], [], []
        for machine in machines:
            base.append(program.instructions / machine.width)
            row = factor_memo.get(machine)
            if row is None:
                correction = penalties.slot_correction(machine.width)

                def miss(latency, correction=correction):
                    return max(0.0, latency - correction)

                def long_latency(latency, correction=correction):
                    return max(0.0, (latency - 1.0) - correction)

                memory = miss(machine.memory_cycles)
                row = (
                    long_latency(machine.mul_latency),
                    long_latency(machine.div_latency),
                    long_latency(machine.l1_hit_cycles)
                    if machine.l1_hit_cycles > 1 else 0.0,
                    long_latency(machine.l1_hit_cycles
                                 + machine.l2_hit_cycles),
                    miss(machine.l2_hit_cycles),
                    memory,
                    memory,
                    miss(machine.tlb_miss_cycles),
                    machine.frontend_depth + correction,
                )
                factor_memo[machine] = row
            rows.append(row)
            unit, long_, load = dependency_totals[machine.width]
            dep_unit.append(unit)
            dep_long.append(long_)
            dep_load.append(load)

        count_rows = np.array([
            _MISS_FIELDS(profile) for profile in profiles
        ], dtype=np.int64)
        count_columns = dict(zip(
            ("l1d_misses", "l1i_misses", "il2_misses", "dl2_misses",
             "itlb_misses", "dtlb_misses", "mispredictions",
             "taken_bubbles"),
            count_rows.T,
        ))

        def counts(field):
            return count_columns[field]

        factor_table = np.array(rows)
        factors = {
            key: factor_table[:, column]
            for column, key in enumerate(
                ("mul", "div", "l1_extra", "dl1", "il1", "il2", "dl2",
                 "tlb", "bpred")
            )
        }
        taken_penalty = penalties.taken_branch_penalty()
        columns = [
            (CPIComponent.BASE, np.array(base)),
            (CPIComponent.MUL, program.multiplies * factors["mul"]),
            (CPIComponent.DIV, program.divides * factors["div"]),
            (CPIComponent.L1_HIT_EXTRA, data_accesses * factors["l1_extra"]),
            (CPIComponent.DL1_MISS, counts("l1d_misses") * factors["dl1"]),
            (CPIComponent.IL1_MISS, counts("l1i_misses") * factors["il1"]),
            (CPIComponent.IL2_MISS, counts("il2_misses") * factors["il2"]),
            (CPIComponent.DL2_MISS, counts("dl2_misses") * factors["dl2"]),
            (CPIComponent.ITLB_MISS, counts("itlb_misses") * factors["tlb"]),
            (CPIComponent.DTLB_MISS, counts("dtlb_misses") * factors["tlb"]),
            (CPIComponent.BPRED_MISS, counts("mispredictions") * factors["bpred"]),
            (CPIComponent.BPRED_TAKEN,
             counts("taken_bubbles") * taken_penalty),
            (CPIComponent.DEP_UNIT, np.array(dep_unit)),
            (CPIComponent.DEP_LONG, np.array(dep_long)),
            (CPIComponent.DEP_LOAD, np.array(dep_load)),
        ]
        total = np.zeros(count, dtype=np.float64)
        for _, values in columns:
            total = total + np.where(values > 0.0, values, 0.0)

        names = [component.value for component, _ in columns]
        value_lists = [values.tolist() for _, values in columns]
        cycle_list = total.tolist()
        results = []
        for index in range(count):
            stack = {}
            for name, values in zip(names, value_lists):
                value = values[index]
                if value > 0:
                    stack[name] = value
            results.append((cycle_list[index], stack))
        return results

    def base_stream(self, geometry: BaseGeometry):
        return _NpBaseStream(geometry)

    def l2_stream(self, sets: int, line_size: int, run_keys=()):
        return _NpL2Stream(sets, line_size, run_keys)

    def branch_stream(self, predictor_spec: str):
        try:
            canonical = PREDICTORS.canonical(predictor_spec.lower())
        except KeyError:
            return None
        entry = _PREDICTOR_STREAM_STATES.get(canonical)
        if entry is None:
            # Third-party predictor registration: no vectorized replay.
            return None
        factory, predictor_name = entry
        return _NpBranchStream(factory(), predictor_name)

    def dependency_stream(self, statics, max_distance: int):
        table = _dependency_static_table(statics)
        if table is None:
            # Outside the two-operand ISA: the reference stream handles it.
            return super().dependency_stream(statics, max_distance)
        return _NpDependencyStream(max_distance, statics, table)

    def mix_stream(self):
        return _NpMixStream()


class _NpMixStream(MixStream):
    """Instruction mix counted with one ``bincount`` per chunk."""

    def _count(self, trace: Trace) -> dict:
        op_classes = _as_i8(trace.op_classes)
        if op_classes.size == 0:
            return {}
        counts = np.bincount(op_classes)
        present, first_at = np.unique(op_classes, return_index=True)
        # The reference histogram lists classes in first-encounter order.
        ordered = present[np.argsort(first_at, kind="stable")]
        return {OP_CLASS_BY_ID[class_id]: int(counts[class_id])
                for class_id in ordered.tolist()}


#: Memo for :func:`_dependency_static_table`, keyed by the identity of the
#: statics tuple.  A chunked trace shares one immutable statics tuple across
#: every chunk, so per-chunk dependency streams (the sampling path builds
#: one per profiled interval) would otherwise rebuild the same operand
#: arrays over and over.  Entries hold a strong reference to their statics
#: tuple, which keeps the id stable for as long as the entry lives; the
#: ``is`` check guards the (now impossible) collision anyway.
_DEP_TABLE_CACHE: dict = {}
_DEP_TABLE_CACHE_MAX = 8


def _dependency_static_table(statics):
    """Per-static operand arrays for the vectorized dependency pass.

    One pass over the (small) static program resolves operands and producer
    kinds; everything after reads only packed columns.  Returns ``None``
    when a static instruction has more than two sources (outside the
    two-operand ISA) — those traces take the reference walk.
    """
    entry = _DEP_TABLE_CACHE.get(id(statics))
    if entry is not None and entry[0] is statics:
        return entry[1]
    table = _build_dependency_static_table(statics)
    if len(_DEP_TABLE_CACHE) >= _DEP_TABLE_CACHE_MAX:
        _DEP_TABLE_CACHE.pop(next(iter(_DEP_TABLE_CACHE)))
    _DEP_TABLE_CACHE[id(statics)] = (statics, table)
    return table


def _build_dependency_static_table(statics):
    first_sources, second_sources, destinations, producer_kinds = \
        [], [], [], []
    for static in statics:
        sources = static.src_regs()
        if len(sources) > 2:
            return None
        first_sources.append(sources[0] if sources else -1)
        second_sources.append(sources[1] if len(sources) > 1 else -1)
        dest_regs = static.dest_regs()
        destinations.append(dest_regs[0] if dest_regs else -1)
        op_class = static.op_class
        producer_kinds.append(
            2 if op_class is OpClass.LOAD
            else 1 if op_class in (OpClass.INT_MUL, OpClass.INT_DIV)
            else 0
        )
    return (
        np.array(first_sources, dtype=np.int64),
        np.array(second_sources, dtype=np.int64),
        np.array(destinations, dtype=np.int64),
        np.array(producer_kinds, dtype=np.int64),
    )


class _NpDependencyStream:
    """Chunk-resumable vectorized dependency profiling.

    The carried state is the reference walk's ``last_writer`` table — per
    register, the sequence number and producer kind of the latest write in
    any earlier chunk.  Within a chunk the offline composite-key fold runs
    unchanged; a read with no in-chunk producer (which the offline fold
    leaves unresolved) falls back to the carried writer of its register,
    and an in-chunk producer is by construction more recent than any
    carried one, so the merged result matches the uninterrupted walk
    exactly.  Sequence numbers are global, so cross-chunk distances are
    too.
    """

    def __init__(self, max_distance: int, statics, table):
        self._max_distance = max_distance
        self._profile = DependencyProfile()
        self._table = table
        self._num_statics = len(statics)
        self._writer_seq = np.full(NUM_INT_REGS, -1, dtype=np.int64)
        self._writer_kind = np.zeros(NUM_INT_REGS, dtype=np.int64)
        self._has_writer = np.zeros(NUM_INT_REGS, dtype=bool)

    def update(self, trace: Trace) -> None:
        statics = trace.statics
        if len(statics) != self._num_statics:
            # The static table of one trace is append-only across chunks.
            table = _dependency_static_table(statics)
            if table is None:
                raise ValueError(
                    "a static instruction with more than two sources "
                    "appeared mid-stream; profile this trace with the "
                    "python backend"
                )
            self._table = table
            self._num_statics = len(statics)
        n = len(trace)
        if n == 0:
            return
        first_sources, second_sources, destinations, producer_kinds = \
            self._table
        static_index = _as_i64(trace.static_index)
        seqs = _as_i64(trace.seqs)
        dest = destinations[static_index]
        kinds = producer_kinds[static_index]
        source_slots = (
            first_sources[static_index],
            second_sources[static_index],
        )

        # Reads and writes fold into composite keys ``(register * (n + 1)
        # + position) * 2 (+ 1 for writes)`` — within a register the key
        # order is program order, reads at a position sort before that
        # position's write, and a larger register's keys dominate a
        # smaller's.  Group both sides by register (stable radix sorts keep
        # positions ascending), drop each write at its insertion point in
        # the read sequence, and a running maximum forward-fills "largest
        # visible write key" per read: that is automatically the latest
        # earlier write of the read's own register when one exists, and
        # decodes to a negative position ("no producer") otherwise.
        # ``searchsorted`` runs writes-into-reads — the cheap direction,
        # since reads outnumber writes.
        stride = np.int64(n + 1)
        write_at = np.flatnonzero(dest >= 0)
        write_order = np.argsort(dest[write_at].astype(np.int8),
                                 kind="stable")
        write_positions = write_at[write_order]
        write_keys = (dest[write_positions] * stride + write_positions) * 2 + 1

        none = np.int64(np.iinfo(np.int64).max)
        best_distance = np.full(n, none, dtype=np.int64)
        best_kind = np.full(n, -1, dtype=np.int64)
        # The paper's convention: shortest distance wins; on ties, the
        # first source operand — so scatter slot 0 first and let slot 1
        # only replace strictly closer producers.
        for slot, sources in enumerate(source_slots):
            reads_at = np.flatnonzero(sources >= 0)
            read_regs = sources[reads_at]
            read_order = np.argsort(read_regs.astype(np.int8), kind="stable")
            consumers = reads_at[read_order]
            read_regs = read_regs[read_order]
            if write_positions.size:
                read_keys = (read_regs * stride + consumers) * 2
                drop_at = np.searchsorted(read_keys, write_keys, side="left")
                visible = np.full(consumers.size + 1, -1, dtype=np.int64)
                # Ascending write keys: the last write dropped at a slot is
                # the largest, and the running maximum carries it forward.
                visible[drop_at] = write_keys
                producers = ((np.maximum.accumulate(visible[:-1]) >> 1)
                             - read_regs * stride)
                valid = producers >= 0
            else:
                producers = np.zeros(consumers.size, dtype=np.int64)
                valid = np.zeros(consumers.size, dtype=bool)
            # An in-chunk producer is always the register's latest writer;
            # only unresolved reads consult the carried writer table.
            carried = ~valid & self._has_writer[read_regs]
            resolved = valid | carried
            distance = np.empty(consumers.size, dtype=np.int64)
            kind = np.empty(consumers.size, dtype=np.int64)
            distance[valid] = seqs[consumers[valid]] - seqs[producers[valid]]
            kind[valid] = kinds[producers[valid]]
            distance[carried] = (seqs[consumers[carried]]
                                 - self._writer_seq[read_regs[carried]])
            kind[carried] = self._writer_kind[read_regs[carried]]
            consumers = consumers[resolved]
            distance = distance[resolved]
            kind = kind[resolved]
            if slot == 0:
                best_distance[consumers] = distance
                best_kind[consumers] = kind
            else:
                closer = distance < best_distance[consumers]
                best_distance[consumers[closer]] = distance[closer]
                best_kind[consumers[closer]] = kind[closer]

        recorded = (best_kind >= 0) & (best_distance <= self._max_distance)
        profile = self._profile
        profile.consumers += int(recorded.sum())
        for kind_id, kind_name in enumerate((KIND_UNIT, KIND_LONG, KIND_LOAD)):
            values = best_distance[recorded & (best_kind == kind_id)]
            if values.size == 0:
                continue
            counts = np.bincount(values)
            histogram = profile.histogram(kind_name)
            for distance_value in np.flatnonzero(counts):
                histogram[int(distance_value)] = (
                    histogram.get(int(distance_value), 0)
                    + int(counts[distance_value])
                )

        # Carry each register's latest in-chunk write out of this chunk.
        if write_positions.size:
            # ``write_positions`` is register-grouped with ascending
            # positions inside each group: the last entry per group is the
            # register's latest write.
            write_regs = dest[write_positions]
            last_in_group = np.empty(write_regs.size, dtype=bool)
            last_in_group[-1] = True
            last_in_group[:-1] = write_regs[1:] != write_regs[:-1]
            picks = write_positions[last_in_group]
            picked_regs = write_regs[last_in_group]
            self._writer_seq[picked_regs] = seqs[picks]
            self._writer_kind[picked_regs] = kinds[picks]
            self._has_writer[picked_regs] = True

    def finish(self) -> DependencyProfile:
        return self._profile
