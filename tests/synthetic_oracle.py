"""Test-only oracle: the per-record synthetic trace generator.

This is the generator :class:`repro.workloads.synthetic.SyntheticTraceGenerator`
ran before it drew rows straight into packed columns, kept unchanged so the
column generator can be checked byte for byte against it, in memory and as
spill stores.  It builds one :class:`~repro.isa.instructions.Instruction`
and one :class:`~repro.trace.trace.DynamicInstruction` per row, interns the
statics by value and samples dependency distances with ``random.choices``.
"""

from __future__ import annotations

import random
from array import array

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.trace.trace import (
    INSTR_BYTES,
    OP_CLASS_IDS,
    DynamicInstruction,
    Trace,
)
from repro.workloads.synthetic import _NUM_REGS, SyntheticWorkloadSpec


class SyntheticTraceGenerator:
    """Generates dynamic instruction traces matching a statistical spec."""

    def __init__(self, spec: SyntheticWorkloadSpec):
        self.spec = spec
        # Static instructions interned by value: the generator materializes
        # a fresh Instruction per dynamic record, but identical ones resolve
        # to one shared object, so the statics table stays proportional to
        # the register/opcode combinations, not the trace length — the
        # property streamed (scaled) generation depends on.
        self._intern: dict[Instruction, Instruction] = {}

    # ------------------------------------------------------------------
    def _choose_class(self, rng: random.Random) -> str:
        spec = self.spec
        draw = rng.random()
        for kind, fraction in (
            ("load", spec.load_fraction),
            ("store", spec.store_fraction),
            ("mul", spec.multiply_fraction),
            ("div", spec.divide_fraction),
            ("branch", spec.branch_fraction),
        ):
            if draw < fraction:
                return kind
            draw -= fraction
        return "alu"

    def _sample_distance(self, rng: random.Random) -> int:
        distances = list(self.spec.dependency_distances)
        weights = [self.spec.dependency_distances[d] for d in distances]
        return rng.choices(distances, weights=weights, k=1)[0]

    def _memory_address(self, rng: random.Random, cursor: int) -> tuple[int, int]:
        """Return (address, new streaming cursor)."""
        spec = self.spec
        base = 0x100000
        if rng.random() < spec.streaming_fraction:
            address = base + cursor
            cursor = (cursor + 4) % spec.data_footprint_bytes
        else:
            address = base + 4 * rng.randrange(spec.data_footprint_bytes // 4)
        return address, cursor

    # ------------------------------------------------------------------
    def generate(self) -> Trace:
        return Trace(self._records(self.spec.instructions),
                     name=self.spec.name)

    def generate_store(self, path, *, scale: int = 1,
                       chunk_length: int = 65536):
        """Stream ``scale * spec.instructions`` records into a spill store.

        Never holds more than one chunk of columns in memory: records are
        packed straight into column arrays and flushed through a
        :class:`~repro.trace.store.TraceStoreWriter` every ``chunk_length``
        rows, with the statics table interned once across the whole stream
        (each flushed chunk carries the table as of its flush, which is the
        prefix-consistent layout the store's manifest expects).  This is
        how 100–1000x workloads are produced without 100–1000x memory.
        """
        from repro.trace.store import TraceStoreWriter
        from repro.trace.trace_schema import NO_VALUE

        if scale < 1:
            raise ValueError("scale must be at least 1")
        spec = self.spec
        total = spec.instructions * scale
        writer = TraceStoreWriter(path, name=spec.name,
                                  chunk_length=chunk_length)
        statics: list[Instruction] = []
        slots: dict[Instruction, int] = {}

        def new_columns() -> dict:
            return {
                "pcs": array("q"), "next_pcs": array("q"),
                "mem_addrs": array("q"), "op_classes": array("b"),
                "taken": array("b"), "static_index": array("q"),
            }

        columns = new_columns()
        start = 0
        for dyn in self._records(total):
            instruction = dyn.instruction
            slot = slots.get(instruction)
            if slot is None:
                slot = len(statics)
                slots[instruction] = slot
                statics.append(instruction)
            columns["pcs"].append(dyn.pc)
            columns["next_pcs"].append(
                NO_VALUE if dyn.next_pc is None else dyn.next_pc)
            if dyn.mem_addr is not None:
                columns["mem_addrs"].append(dyn.mem_addr)
            elif instruction.is_memory:
                columns["mem_addrs"].append(0)
            else:
                columns["mem_addrs"].append(NO_VALUE)
            columns["op_classes"].append(OP_CLASS_IDS[instruction.op_class])
            columns["taken"].append(
                NO_VALUE if dyn.taken is None else int(dyn.taken))
            columns["static_index"].append(slot)
            if len(columns["pcs"]) == chunk_length:
                writer.append(Trace.from_columns(
                    statics=tuple(statics), name=spec.name,
                    seq_start=start, **columns))
                start += chunk_length
                columns = new_columns()
        if len(columns["pcs"]):
            writer.append(Trace.from_columns(
                statics=tuple(statics), name=spec.name,
                seq_start=start, **columns))
        return writer.finalize()

    def _records(self, total: int):
        """Yield ``total`` dynamic records (bounded state, any length)."""
        spec = self.spec
        rng = random.Random(spec.seed)
        cursor = 0
        # The synthetic program walks a static code loop so that the
        # instruction-cache behaviour is realistic (a hot loop of
        # ``static_code_size`` instructions re-executed until the budget runs
        # out).
        static_pc = 0
        # Direction chosen once per static branch location: history-based
        # predictors learn these, so ``branch_predictability`` controls the
        # achievable prediction accuracy while the overall taken rate stays
        # at ``branch_taken_rate``.
        pc_bias: dict[int, bool] = {}

        for seq in range(total):
            kind = self._choose_class(rng)
            # Destination register: rotating allocation guarantees the value
            # written ``d`` instructions ago still lives in a unique register
            # for any d < _NUM_REGS, so dependency distances are exact.
            dest = 1 + (seq % _NUM_REGS)
            distance = min(self._sample_distance(rng), seq) if seq else 0
            source = 1 + ((seq - distance) % _NUM_REGS) if distance else 0

            pc = (static_pc % spec.static_code_size) * INSTR_BYTES
            mem_addr = None
            taken = None
            next_static_pc = static_pc + 1

            if kind == "load":
                mem_addr, cursor = self._memory_address(rng, cursor)
                instruction = Instruction(Opcode.LW, dest=dest, src1=source)
            elif kind == "store":
                mem_addr, cursor = self._memory_address(rng, cursor)
                instruction = Instruction(Opcode.SW, src1=source, src2=source)
            elif kind == "mul":
                instruction = Instruction(Opcode.MUL, dest=dest, src1=source, src2=source)
            elif kind == "div":
                instruction = Instruction(Opcode.DIV, dest=dest, src1=source, src2=source)
            elif kind == "branch":
                predictable = rng.random() < spec.branch_predictability
                if predictable:
                    # Predictable branches always go the same way at a given
                    # pc; the per-pc direction is drawn once with the
                    # specified taken rate.
                    if pc not in pc_bias:
                        pc_bias[pc] = rng.random() < spec.branch_taken_rate
                    taken = pc_bias[pc]
                else:
                    # Unpredictable branches flip per execution (same overall
                    # taken rate, but no learnable pattern).
                    taken = rng.random() < spec.branch_taken_rate
                instruction = Instruction(Opcode.BNE, src1=source, src2=0, target="loop")
            else:
                instruction = Instruction(Opcode.ADD, dest=dest, src1=source, src2=source)

            yield DynamicInstruction(
                seq=seq,
                pc=pc,
                instruction=self._intern.setdefault(instruction, instruction),
                mem_addr=mem_addr,
                taken=taken,
                next_pc=(next_static_pc % spec.static_code_size) * INSTR_BYTES,
            )
            static_pc = next_static_pc
