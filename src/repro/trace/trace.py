"""Dynamic instruction records and traces.

Storage is columnar (struct of arrays): a :class:`Trace` keeps one packed
``array`` per field of the dynamic stream (``pcs``, ``next_pcs``,
``mem_addrs``, ``op_classes``, ``taken``, ``static_index``) plus the tuple of
distinct static :class:`~repro.isa.instructions.Instruction` objects the
``static_index`` column points into.  The profilers and the design-space
engine walk these arrays directly, and so do the pipeline simulators; the
per-instruction :class:`DynamicInstruction` dataclass is a lazily
materialized facade for record-at-a-time callers, among them the tests'
object-replay oracles.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.isa.instructions import Instruction
from repro.isa.opcodes import OpClass
from repro.trace.trace_schema import (
    COLUMN_NAMES,
    NO_VALUE,
    TRACE_COLUMNS,
    TRACE_SCHEMA_VERSION,
    column_typecode as _typecode,
)

#: Size of one instruction in bytes; fetch addresses are ``index * INSTR_BYTES``.
INSTR_BYTES = 4

#: Stable ordinal assigned to each :class:`OpClass` in the packed
#: ``op_classes`` column (and its inverse mapping).
OP_CLASS_BY_ID: tuple[OpClass, ...] = tuple(OpClass)
OP_CLASS_IDS: dict[OpClass, int] = {op: i for i, op in enumerate(OP_CLASS_BY_ID)}

_LOAD_ID = OP_CLASS_IDS[OpClass.LOAD]
_STORE_ID = OP_CLASS_IDS[OpClass.STORE]
_BRANCH_ID = OP_CLASS_IDS[OpClass.BRANCH]
_JUMP_ID = OP_CLASS_IDS[OpClass.JUMP]


@dataclass(frozen=True)
class DynamicInstruction:
    """One committed instruction of a dynamic execution.

    Attributes
    ----------
    seq:
        Position in the dynamic instruction stream (0-based).
    pc:
        Byte address of the instruction (static index times 4).
    instruction:
        The static :class:`~repro.isa.instructions.Instruction`.
    mem_addr:
        Effective byte address for loads/stores, otherwise ``None``.
    taken:
        Branch outcome for control instructions, otherwise ``None``.
    next_pc:
        Byte address of the next dynamic instruction.
    """

    seq: int
    pc: int
    instruction: Instruction
    mem_addr: int | None = None
    taken: bool | None = None
    next_pc: int | None = None

    @property
    def op_class(self) -> OpClass:
        return self.instruction.op_class

    @property
    def is_load(self) -> bool:
        return self.instruction.is_load

    @property
    def is_store(self) -> bool:
        return self.instruction.is_store

    @property
    def is_branch(self) -> bool:
        return self.instruction.is_branch

    @property
    def is_control(self) -> bool:
        return self.instruction.is_control

    @property
    def is_long_latency(self) -> bool:
        return self.instruction.is_long_latency

    def dest_regs(self) -> tuple[int, ...]:
        return self.instruction.dest_regs()

    def src_regs(self) -> tuple[int, ...]:
        return self.instruction.src_regs()


class Trace:
    """A materialized dynamic instruction trace (columnar storage).

    The trace also remembers the workload name so that downstream reports
    (figures, CPI stacks) can label their rows.

    Columns
    -------
    ``pcs``, ``next_pcs``:
        Byte addresses (``next_pcs`` holds :data:`NO_VALUE` for ``None``).
    ``mem_addrs``:
        Effective address for loads/stores, :data:`NO_VALUE` otherwise.
    ``op_classes``:
        :data:`OP_CLASS_IDS` ordinal of every instruction's class.
    ``taken``:
        ``1``/``0`` for resolved control flow, :data:`NO_VALUE` otherwise.
    ``static_index``:
        Index into :attr:`statics` of the executing static instruction.
    ``seqs``:
        Dynamic sequence numbers (a ``range`` for simulator-built traces).
    """

    def __init__(self, instructions: Iterable[DynamicInstruction] = (),
                 name: str = "trace"):
        self.name = name
        items = list(instructions)
        self._materialized: list[DynamicInstruction] | None = items
        statics: list[Instruction] = []
        static_ids: dict[int, int] = {}
        pcs = array("q")
        next_pcs = array("q")
        mem_addrs = array("q")
        op_classes = array("b")
        taken = array("b")
        static_index = array("q")
        seqs = array("q")
        for dyn in items:
            instruction = dyn.instruction
            slot = static_ids.get(id(instruction))
            if slot is None:
                slot = len(statics)
                static_ids[id(instruction)] = slot
                statics.append(instruction)
            pcs.append(dyn.pc)
            next_pcs.append(NO_VALUE if dyn.next_pc is None else dyn.next_pc)
            if dyn.mem_addr is not None:
                mem_addrs.append(dyn.mem_addr)
            elif instruction.is_memory:
                # A memory record without an address: store the address the
                # memory system would see (the replay oracle uses ``addr or
                # 0``), so profilers reading the column agree with it.
                mem_addrs.append(0)
            else:
                mem_addrs.append(NO_VALUE)
            op_classes.append(OP_CLASS_IDS[instruction.op_class])
            taken.append(NO_VALUE if dyn.taken is None else int(dyn.taken))
            static_index.append(slot)
            seqs.append(dyn.seq)
        self.statics: tuple[Instruction, ...] = tuple(statics)
        self.pcs = pcs
        self.next_pcs = next_pcs
        self.mem_addrs = mem_addrs
        self.op_classes = op_classes
        self.taken = taken
        self.static_index = static_index
        self.seqs: Sequence[int] = seqs

    @classmethod
    def from_columns(cls, *, statics: Sequence[Instruction], pcs: array,
                     next_pcs: array, mem_addrs: array, op_classes: array,
                     taken: array, static_index: array,
                     name: str = "trace", seq_start: int = 0) -> "Trace":
        """Build a trace directly from packed columns (no facade objects).

        ``seq_start`` offsets the dynamic sequence numbers: chunk views of a
        longer stream (:class:`repro.trace.store.ChunkedTrace`) pass the
        chunk's global start position so dependency distances and L2
        interleave ordering stay global.
        """
        trace = cls.__new__(cls)
        trace.name = name
        trace._materialized = None
        trace.statics = tuple(statics)
        trace.pcs = pcs
        trace.next_pcs = next_pcs
        trace.mem_addrs = mem_addrs
        trace.op_classes = op_classes
        trace.taken = taken
        trace.static_index = static_index
        trace.seqs = range(seq_start, seq_start + len(pcs))
        return trace

    def columns(self) -> dict:
        """The packed columns plus statics, as accepted by :meth:`from_columns`.

        This is the trace's serialization surface: everything derived (facade
        objects, attached profiling engines) is excluded, so pickling the
        returned mapping captures exactly the dynamic execution.
        """
        return {
            "statics": self.statics,
            "pcs": self.pcs,
            "next_pcs": self.next_pcs,
            "mem_addrs": self.mem_addrs,
            "op_classes": self.op_classes,
            "taken": self.taken,
            "static_index": self.static_index,
            "name": self.name,
        }

    # ------------------------------------------------------------------
    # Zero-copy column shipping (process-pool transport).
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """The trace as raw column bytes plus statics.

        The packed columns travel as ``(typecode, bytes)`` pairs produced by
        ``array.tobytes`` — a flat buffer copy instead of a pickled object
        graph — which is how the sweep planner ships an already-generated
        trace to pool workers.  :meth:`from_payload` is the inverse.
        """
        payload = {
            "schema_version": TRACE_SCHEMA_VERSION,
            "name": self.name,
            "statics": self.statics,
            "columns": {
                name: (_typecode(getattr(self, name)), getattr(self, name).tobytes())
                for name in COLUMN_NAMES
            },
        }
        seq_start = self.seqs.start if isinstance(self.seqs, range) else (
            self.seqs[0] if len(self.seqs) else 0)
        if seq_start:
            payload["seq_start"] = seq_start
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "Trace":
        """Rebuild a trace from :meth:`to_payload` output (frombytes)."""
        if payload.get("schema_version") != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"trace payload schema {payload.get('schema_version')!r} "
                f"does not match {TRACE_SCHEMA_VERSION}"
            )
        columns = {}
        for name, (typecode, raw) in payload["columns"].items():
            column = array(typecode)
            column.frombytes(raw)
            columns[name] = column
        return cls.from_columns(statics=payload["statics"],
                                name=payload["name"],
                                seq_start=payload.get("seq_start", 0),
                                **columns)

    # ------------------------------------------------------------------
    # Facade materialization.
    # ------------------------------------------------------------------
    def _make(self, index: int) -> DynamicInstruction:
        instruction = self.statics[self.static_index[index]]
        taken = self.taken[index]
        next_pc = self.next_pcs[index]
        return DynamicInstruction(
            seq=self.seqs[index],
            pc=self.pcs[index],
            instruction=instruction,
            # Memory instructions always carry an effective address (so even
            # a raw -1 is an address, not the sentinel); nothing else does.
            mem_addr=self.mem_addrs[index] if instruction.is_memory else None,
            taken=None if taken == NO_VALUE else bool(taken),
            next_pc=None if next_pc == NO_VALUE else next_pc,
        )

    def _materialize(self) -> list[DynamicInstruction]:
        if self._materialized is None:
            self._materialized = [self._make(i) for i in range(len(self.pcs))]
        return self._materialized

    # ------------------------------------------------------------------
    # Sequence protocol.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.pcs)

    def __iter__(self) -> Iterator[DynamicInstruction]:
        return iter(self._materialize())

    def __getitem__(self, index):
        if self._materialized is not None:
            return self._materialized[index]
        if isinstance(index, slice):
            # Materialize only the requested rows, not the whole trace.
            return [self._make(i) for i in range(*index.indices(len(self.pcs)))]
        length = len(self.pcs)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError("trace index out of range")
        return self._make(index)

    @property
    def instructions(self) -> list[DynamicInstruction]:
        return self._materialize()

    # ------------------------------------------------------------------
    # Columnar queries (no facade objects involved).
    # ------------------------------------------------------------------
    def count(self, op_class: OpClass) -> int:
        """Number of dynamic instructions of the given class."""
        column = self.op_classes
        target = OP_CLASS_IDS[op_class]
        counter = getattr(column, "count", None)
        if counter is not None:
            return counter(target)
        # memoryview column (a ChunkedTrace chunk): one byte per element,
        # so counting the raw bytes counts the elements.
        return column.tobytes().count(target.to_bytes(1, "little"))

    def instruction_mix(self) -> dict[OpClass, int]:
        """Histogram of dynamic instruction classes (first-seen order)."""
        return {
            OP_CLASS_BY_ID[class_id]: count
            for class_id, count in Counter(self.op_classes).items()
        }

    def memory_accesses(self) -> Iterator[DynamicInstruction]:
        """Iterate over loads and stores only."""
        materialized = self._materialized
        for index, class_id in enumerate(self.op_classes):
            if class_id == _LOAD_ID or class_id == _STORE_ID:
                yield materialized[index] if materialized is not None else self._make(index)

    def branches(self) -> Iterator[DynamicInstruction]:
        """Iterate over control-flow instructions only."""
        materialized = self._materialized
        for index, class_id in enumerate(self.op_classes):
            if class_id == _BRANCH_ID or class_id == _JUMP_ID:
                yield materialized[index] if materialized is not None else self._make(index)


class ChunkedTrace:
    """A long dynamic trace as a sequence of fixed-size packed-column chunks.

    Each chunk is an ordinary :class:`Trace` sharing the stream's statics
    tuple, with **global** sequence numbers (``seqs = range(start, stop)``),
    so every existing profiler sees exactly the rows it would see in the
    monolithic trace.  Chunks are produced lazily through a loader callable:
    an in-memory chunked trace serves zero-copy ``memoryview`` slices of the
    parent's columns, a spill-store-backed one (:class:`repro.trace.store.TraceStore`)
    memory-maps one file per column per chunk — either way only one chunk
    needs to be resident while streaming.
    """

    def __init__(self, *, name: str, statics: Sequence[Instruction],
                 lengths: Sequence[int], chunk_length: int, loader,
                 digests: "list[str | None] | None" = None):
        if chunk_length <= 0:
            raise ValueError("chunk_length must be positive")
        self.name = name
        self.statics: tuple[Instruction, ...] = tuple(statics)
        self.chunk_length = chunk_length
        self._lengths = list(lengths)
        starts = [0]
        for length in self._lengths:
            starts.append(starts[-1] + length)
        self._starts = starts
        self._loader = loader
        #: Per-chunk content digests (``None`` until computed); spill stores
        #: record them in the manifest, in-memory chunks compute on demand
        #: (see :func:`repro.trace.store.chunk_digest`).
        self.digests: list[str | None] = (
            list(digests) if digests is not None else [None] * len(self._lengths)
        )

    # -- geometry ------------------------------------------------------
    def __len__(self) -> int:
        return self._starts[-1]

    @property
    def num_chunks(self) -> int:
        return len(self._lengths)

    def chunk_bounds(self, index: int) -> tuple[int, int]:
        """Global ``(start, stop)`` row range of one chunk."""
        return self._starts[index], self._starts[index + 1]

    # -- chunk access --------------------------------------------------
    def chunk(self, index: int) -> Trace:
        """Materialize one chunk as a :class:`Trace` with global seqs."""
        if not 0 <= index < len(self._lengths):
            raise IndexError("chunk index out of range")
        trace = self._loader(index)
        if len(trace) != self._lengths[index]:
            raise ValueError(
                f"chunk {index} of {self.name!r} has {len(trace)} rows, "
                f"manifest says {self._lengths[index]}"
            )
        return trace

    def chunks(self) -> Iterator[Trace]:
        """Iterate chunks in stream order (one resident at a time)."""
        for index in range(len(self._lengths)):
            yield self.chunk(index)

    def to_trace(self) -> Trace:
        """Concatenate every chunk into one in-memory :class:`Trace`."""
        columns = {name: array(code) for name, code in TRACE_COLUMNS}
        for chunk in self.chunks():
            for name in COLUMN_NAMES:
                columns[name].frombytes(getattr(chunk, name).tobytes())
        return Trace.from_columns(statics=self.statics, name=self.name,
                                  **columns)

    # -- construction --------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Trace, chunk_length: int) -> "ChunkedTrace":
        """Split an in-memory trace into zero-copy chunk views."""
        if chunk_length <= 0:
            raise ValueError("chunk_length must be positive")
        total = len(trace)
        bounds = [(start, min(start + chunk_length, total))
                  for start in range(0, total, chunk_length)] or [(0, 0)]
        views = {name: memoryview(getattr(trace, name))
                 for name in COLUMN_NAMES}

        def load(index: int) -> Trace:
            start, stop = bounds[index]
            return Trace.from_columns(
                statics=trace.statics, name=trace.name, seq_start=start,
                **{name: views[name][start:stop] for name in COLUMN_NAMES},
            )

        return cls(name=trace.name, statics=trace.statics,
                   lengths=[stop - start for start, stop in bounds],
                   chunk_length=chunk_length, loader=load)
