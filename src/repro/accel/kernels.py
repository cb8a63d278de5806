"""Kernel protocol and the pure-Python reference implementation.

A :class:`Kernels` instance computes the profiling passes of the single-pass
engine over a trace's packed columns.  Every pass is implemented once, as a
chunk-resumable **stream** (``update(chunk...)`` / ``finish()``):

* the **base stream** — per L1/TLB front-end geometry: stack-distance
  histograms for the L1I, the L1D and both TLBs; each update returns the
  chunk's slice of the interleaved L1-miss stream the unified L2 observes;
* the **L2 stream** — stack distances of that stream for one (sets, line
  size) geometry, split into instruction- and data-side histograms; each
  update returns the chunk's data-side ``(seq, distance)`` slice;
* the **branch stream** — branch statistics of the packed control stream
  for one predictor specification;
* the **dependency** and **mix streams** — the machine-independent
  dependency-distance histograms and op-class histogram of the program
  profile;
* **miss-run counting** — grouping DL2 misses into MLP runs.

The whole-trace names (:meth:`Kernels.base_pass`, :meth:`Kernels.l2_pass`,
:meth:`Kernels.branch_profile`, :meth:`Kernels.dependency_profile`,
:meth:`Kernels.instruction_mix`) are defined once, on the protocol, as
one-chunk wrappers over those streams; no backend overrides them.

:class:`PythonKernels` is the stdlib-only reference: its streams define the
contract.  The NumPy backend (:mod:`repro.accel.np_kernels`) must be
bit-identical to it; the parity suite in ``tests/test_accel.py`` asserts
that across the full workload set and randomized traces.

:meth:`Kernels.branch_stream` may return ``None`` to tell the caller "no
accelerated replay for this predictor" — the caller then falls back to
:class:`PredictorBranchStream` around the interpreted predictor, which keeps
third-party branch predictors fully supported.
"""

from __future__ import annotations

import abc
from array import array
from typing import NamedTuple, final

from repro.accel.passes import (
    BasePass,
    L2Pass,
    count_miss_runs,
    resume_miss_runs,
)
from repro.branch.profiler import BranchProfile, profile_control_stream
from repro.isa.opcodes import OpClass
from repro.memory.single_pass import StackDistanceProfiler
from repro.trace.trace import OP_CLASS_IDS, Trace

_LOAD_ID = OP_CLASS_IDS[OpClass.LOAD]
_STORE_ID = OP_CLASS_IDS[OpClass.STORE]
_BRANCH_ID = OP_CLASS_IDS[OpClass.BRANCH]
_JUMP_ID = OP_CLASS_IDS[OpClass.JUMP]

#: Instruction-side / data-side tags in the recorded L2 access stream.
INSTRUCTION_SIDE = 0
DATA_SIDE = 1


class BaseGeometry(NamedTuple):
    """Front-end geometry one base pass is computed for."""

    l1i_size: int
    l1i_associativity: int
    l1d_size: int
    l1d_associativity: int
    line_size: int
    page_size: int


class ControlStream(NamedTuple):
    """Packed control-transfer columns extracted once per trace."""

    pcs: array
    taken: array
    conditional: array

    def __len__(self) -> int:
        return len(self.pcs)


class Kernels(abc.ABC):
    """Profiling kernels over packed trace columns (one backend instance)."""

    name: str = "kernels"

    @abc.abstractmethod
    def control_stream(self, trace: Trace) -> ControlStream:
        """The packed (pc, taken, is conditional) control columns."""

    def count_runs(self, seqs, distances, associativity: int,
                   mlp_window: int) -> int:
        """Number of miss runs in a miss stream (see :class:`MissProfile`)."""
        return count_miss_runs(seqs, distances, associativity, mlp_window)

    def predict_batch(self, program, profiles, machines):
        """Batched mechanistic-model evaluation, or ``None`` to fall back.

        Given one program profile and parallel lists of miss profiles and
        machine configurations, returns ``[(cycles, cpi_stack), ...]``
        bit-identical to scalar
        :meth:`~repro.core.model.InOrderMechanisticModel.predict` calls —
        or ``None`` when the backend has no vectorized model path.
        """
        return None

    # ------------------------------------------------------------------
    # Chunk-resumable streams: the implementation of every pass.  Each
    # factory returns a stateful object with ``update(chunk...)`` /
    # ``finish()`` methods; all carried state (LRU stacks, predictor tables
    # and histories, miss-run cursors, register writers) survives chunk
    # boundaries exactly, so any chunking of a trace gives bit-identical
    # results.  ``finish()`` may be called mid-stream for a cumulative
    # snapshot.  The defaults below are the stdlib reference streams, so
    # any backend streams correctly; backends override them with
    # accelerated ones.
    # ------------------------------------------------------------------

    def base_stream(self, geometry: BaseGeometry):
        """Resumable base pass: ``update(chunk) -> (addrs, sides, seqs)``.

        Each update returns the chunk's slice of the interleaved L2 access
        stream (to be fed to an L2 stream); ``finish()`` returns a
        :class:`BasePass` without L2 stream columns.
        """
        return _PyBaseStream(geometry)

    def l2_stream(self, sets: int, line_size: int, run_keys=()):
        """Resumable L2 pass: ``update(addrs, sides, seqs) -> (seqs, dists)``.

        Each update returns the slice's data-side ``(sequence, stack
        distance)`` columns.  ``run_keys`` is the set of ``(associativity,
        mlp_window)`` pairs whose miss-run counts are accumulated
        incrementally; ``finish()`` returns an :class:`L2Pass` without data
        columns that answers exactly those.
        """
        return _PyL2Stream(sets, line_size, run_keys)

    def branch_stream(self, predictor_spec: str):
        """Resumable branch replay for one predictor, or ``None``.

        ``None`` tells the caller to fall back to
        :class:`PredictorBranchStream` around an interpreted predictor
        object, which supports any registered predictor.
        """
        return None

    def dependency_stream(self, statics, max_distance: int):
        """Resumable dependency-distance profiling (never ``None``).

        ``statics`` is the trace's static-instruction table, available up
        front so a backend can pick its fast path once per stream.
        """
        return _PyDependencyStream(max_distance)

    def mix_stream(self):
        """Resumable instruction-mix histogram (never ``None``)."""
        return MixStream()

    # ------------------------------------------------------------------
    # Whole-trace names: one-chunk wrappers over the streams above.
    # ------------------------------------------------------------------

    @final
    def base_pass(self, trace: Trace, geometry: BaseGeometry) -> BasePass:
        """One walk of ``trace`` for a fixed L1/TLB front-end geometry."""
        stream = self.base_stream(geometry)
        l2_stream = stream.update(trace)
        return stream.finish().with_l2_stream(*l2_stream)

    @final
    def l2_pass(self, base: BasePass, sets: int, line_size: int) -> L2Pass:
        """Stack distances of ``base``'s L2 stream for one (sets, line)."""
        stream = self.l2_stream(sets, line_size)
        data = stream.update(base.l2_addrs, base.l2_sides, base.l2_seqs)
        return stream.finish().with_data(*data)

    @final
    def branch_profile(self, controls: ControlStream,
                       predictor_spec: str) -> BranchProfile | None:
        """Branch statistics for one predictor, or ``None`` to fall back."""
        stream = self.branch_stream(predictor_spec)
        if stream is None:
            return None
        stream.update(controls)
        return stream.finish()

    @final
    def dependency_profile(self, trace: Trace, max_distance: int):
        """Dependency-distance histograms of ``trace``."""
        stream = self.dependency_stream(trace.statics, max_distance)
        stream.update(trace)
        return stream.finish()

    @final
    def instruction_mix(self, trace: Trace):
        """Dynamic op-class histogram of ``trace``."""
        stream = self.mix_stream()
        stream.update(trace)
        return stream.finish()


class PythonKernels(Kernels):
    """The stdlib-only reference implementation (defines the contract)."""

    name = "python"

    def control_stream(self, trace: Trace) -> ControlStream:
        pcs = trace.pcs
        takens = trace.taken
        control_pcs = array("q")
        control_taken = array("b")
        control_conditional = array("b")
        for index, class_id in enumerate(trace.op_classes):
            if class_id == _BRANCH_ID or class_id == _JUMP_ID:
                control_pcs.append(pcs[index])
                control_taken.append(1 if takens[index] == 1 else 0)
                control_conditional.append(1 if class_id == _BRANCH_ID else 0)
        return ControlStream(control_pcs, control_taken, control_conditional)


class _PyBaseStream:
    """Chunk-resumable reference base pass.

    The four stack-distance profilers are ordinary stateful
    :class:`StackDistanceProfiler` objects, so feeding chunks in trace
    order is *literally* the same computation as one offline walk.
    """

    def __init__(self, geometry: BaseGeometry):
        line = geometry.line_size
        self._l1i = StackDistanceProfiler(
            geometry.l1i_size // (geometry.l1i_associativity * line), line
        )
        self._l1d = StackDistanceProfiler(
            geometry.l1d_size // (geometry.l1d_associativity * line), line
        )
        self._itlb = StackDistanceProfiler(1, geometry.page_size)
        self._dtlb = StackDistanceProfiler(1, geometry.page_size)
        self._i_ways = geometry.l1i_associativity
        self._d_ways = geometry.l1d_associativity

    def update(self, trace: Trace) -> tuple[array, array, array]:
        i_access = self._l1i.access
        d_access = self._l1d.access
        itlb_access = self._itlb.access
        dtlb_access = self._dtlb.access
        i_ways = self._i_ways
        d_ways = self._d_ways

        l2_addrs = array("q")
        l2_sides = array("b")
        l2_seqs = array("q")
        addr_append = l2_addrs.append
        side_append = l2_sides.append
        seq_append = l2_seqs.append

        pcs = trace.pcs
        mem_addrs = trace.mem_addrs
        seqs = trace.seqs
        for index, class_id in enumerate(trace.op_classes):
            pc = pcs[index]
            itlb_access(pc)
            distance = i_access(pc)
            if distance < 0 or distance >= i_ways:
                addr_append(pc)
                side_append(INSTRUCTION_SIDE)
                seq_append(seqs[index])
            if class_id == _LOAD_ID or class_id == _STORE_ID:
                # Memory rows always hold the address the memory system sees
                # (a raw -1 is a genuine address, not a sentinel).
                addr = mem_addrs[index]
                dtlb_access(addr)
                distance = d_access(addr)
                if distance < 0 or distance >= d_ways:
                    addr_append(addr)
                    side_append(DATA_SIDE)
                    seq_append(seqs[index])
        return l2_addrs, l2_sides, l2_seqs

    def finish(self) -> BasePass:
        return BasePass(
            l1i=self._l1i.result(),
            l1d=self._l1d.result(),
            itlb=self._itlb.result(),
            dtlb=self._dtlb.result(),
            l2_addrs=None,
            l2_sides=None,
            l2_seqs=None,
        )


class _PyL2Stream:
    """Chunk-resumable reference L2 pass over base-stream slices."""

    def __init__(self, sets: int, line_size: int, run_keys=()):
        self._profiler = StackDistanceProfiler(sets, line_size)
        self._instruction_cold = 0
        self._data_cold = 0
        self._instruction_histogram: dict[int, int] = {}
        self._data_histogram: dict[int, int] = {}
        self._runs = {(int(a), int(w)): 0 for a, w in run_keys}
        self._last_seq: dict[tuple[int, int], int | None] = {
            key: None for key in self._runs
        }

    def update(self, addrs, sides, seqs) -> tuple[array, array]:
        access = self._profiler.access
        instruction_histogram = self._instruction_histogram
        data_histogram = self._data_histogram
        chunk_seqs = array("q")
        chunk_distances = array("q")
        for addr, side, seq in zip(addrs, sides, seqs):
            distance = access(addr)
            if side == INSTRUCTION_SIDE:
                if distance < 0:
                    self._instruction_cold += 1
                else:
                    instruction_histogram[distance] = (
                        instruction_histogram.get(distance, 0) + 1
                    )
            else:
                if distance < 0:
                    self._data_cold += 1
                else:
                    data_histogram[distance] = data_histogram.get(distance, 0) + 1
                chunk_seqs.append(seq)
                chunk_distances.append(distance)
        for (associativity, window), last in self._last_seq.items():
            runs, last = resume_miss_runs(
                chunk_seqs, chunk_distances, associativity, window, last
            )
            self._runs[(associativity, window)] += runs
            self._last_seq[(associativity, window)] = last
        return chunk_seqs, chunk_distances

    def finish(self) -> L2Pass:
        return L2Pass(
            instruction_cold=self._instruction_cold,
            data_cold=self._data_cold,
            instruction_histogram=self._instruction_histogram,
            data_histogram=self._data_histogram,
            data_seqs=None,
            data_distances=None,
            _runs=dict(self._runs),
        )


class PredictorBranchStream:
    """Chunk-resumable branch replay through one persistent predictor object.

    The universal fallback stream: it works for any registered predictor
    because the predictor's own tables *are* the carried state.
    """

    def __init__(self, predictor):
        self._predictor = predictor
        self._profile = BranchProfile(predictor_name=predictor.name)

    def update(self, controls: ControlStream) -> None:
        stream = (
            (pc, taken == 1, conditional == 1)
            for pc, taken, conditional in zip(
                controls.pcs, controls.taken, controls.conditional
            )
        )
        profile_control_stream(stream, self._predictor, self._profile)

    def finish(self) -> BranchProfile:
        return self._profile


class _PyDependencyStream:
    """Chunk-resumable reference dependency profiling.

    Carried state is the ``last_writer`` table of the offline walk —
    sequence numbers are global, so producer distances across chunk
    boundaries come out exactly as in the offline pass.
    """

    def __init__(self, max_distance: int):
        from repro.isa.registers import NUM_INT_REGS
        from repro.profiler.dependences import DependencyProfile

        self._max_distance = max_distance
        self._profile = DependencyProfile()
        self._last_writer: list[tuple[int, str] | None] = [None] * NUM_INT_REGS
        self._operands: list = []

    def update(self, trace: Trace) -> None:
        from repro.profiler.dependences import _producer_kind

        statics = trace.statics
        if len(statics) != len(self._operands):
            # The static table of one trace is append-only across chunks.
            self._operands = [
                (
                    instruction.src_regs(),
                    instruction.dest_regs(),
                    _producer_kind(instruction.op_class),
                )
                for instruction in statics
            ]
        operands = self._operands
        last_writer = self._last_writer
        profile = self._profile
        max_distance = self._max_distance
        seqs = trace.seqs
        for index, static_slot in enumerate(trace.static_index):
            sources, destinations, kind = operands[static_slot]
            seq = seqs[index]
            if sources:
                best: tuple[int, str] | None = None
                for source in sources:
                    producer = last_writer[source]
                    if producer is None:
                        continue
                    distance = seq - producer[0]
                    if best is None or distance < best[0]:
                        best = (distance, producer[1])
                if best is not None and best[0] <= max_distance:
                    profile.consumers += 1
                    profile._record(best[1], best[0])
            for dest in destinations:
                last_writer[dest] = (seq, kind)

    def finish(self):
        return self._profile


class MixStream:
    """Chunk-resumable instruction mix (the reference counting step).

    Each chunk is counted by :meth:`_count` — here the trace's columnar
    histogram, which lists op classes in first-encounter order — and merged
    in chunk order, which preserves the global first-encounter key order.
    Backends override :meth:`_count` only.
    """

    def __init__(self):
        self._total = 0
        self._counts: dict = {}

    def _count(self, trace: Trace) -> dict:
        return trace.instruction_mix()

    def update(self, trace: Trace) -> None:
        self._total += len(trace)
        merged = self._counts
        for op_class, count in self._count(trace).items():
            merged[op_class] = merged.get(op_class, 0) + count

    def finish(self):
        from repro.profiler.instruction_mix import InstructionMix

        return InstructionMix(total=self._total, counts=self._counts)
