"""Test-only oracle: the per-instruction dispatch-table interpreter.

This is the interpreter :class:`repro.trace.functional.FunctionalSimulator`
ran before it dispatched per basic block, kept unchanged so the block
interpreter can be checked column for column (and on its final registers
and memory) against it.  Every static instruction is one closure returning
``(next static index, mem_addr, taken)``, and the run loop calls one
closure and appends one row per executed instruction.
"""

from __future__ import annotations

from array import array
from typing import Callable

from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_INT_REGS, ZERO_REG
from repro.trace.functional import (
    _SIGN_BIT,
    _WORD_MASK,
    _WRAP,
    MemoryImage,
    SimulationLimitError,
    _to_signed,
)
from repro.trace.trace import (
    INSTR_BYTES,
    NO_VALUE,
    OP_CLASS_IDS,
    Trace,
)


#: A compiled instruction: () -> (next static index, mem_addr, taken), with
#: ``NO_VALUE`` standing in for "not a memory access" / "not control flow".
_Handler = Callable[[], tuple[int, int, int]]


class FunctionalSimulator:
    """Executes a program and records the dynamic instruction stream."""

    def __init__(self, program: Program, memory: MemoryImage | None = None,
                 max_instructions: int = 2_000_000):
        program.validate()
        self.program = program
        self.memory = memory if memory is not None else MemoryImage()
        self.max_instructions = max_instructions
        self.registers = [0] * NUM_INT_REGS

    # ------------------------------------------------------------------
    # Instruction compilation (one closure per static instruction).
    # ------------------------------------------------------------------
    def _compile(self, index: int, instruction) -> _Handler:
        opcode = instruction.opcode
        regs = self.registers
        nxt = index + 1
        d = instruction.dest
        s1 = instruction.src1 if instruction.src1 is not None else ZERO_REG
        s2 = instruction.src2 if instruction.src2 is not None else ZERO_REG
        imm = instruction.imm
        writes = d is not None and d != ZERO_REG
        N = NO_VALUE
        M, S, W = _WORD_MASK, _SIGN_BIT, _WRAP

        # --- control flow -------------------------------------------------
        if opcode is Opcode.HALT or opcode is Opcode.NOP:
            return lambda: (nxt, N, N)
        if opcode is Opcode.J:
            tgt = self.program.label_address(instruction.target)
            return lambda: (tgt, N, 1)
        if opcode is Opcode.JR:
            return lambda: (regs[s1] // INSTR_BYTES, N, 1)
        if opcode in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE):
            tgt = self.program.label_address(instruction.target)
            if opcode is Opcode.BEQ:
                return lambda: (tgt, N, 1) if regs[s1] == regs[s2] else (nxt, N, 0)
            if opcode is Opcode.BNE:
                return lambda: (tgt, N, 1) if regs[s1] != regs[s2] else (nxt, N, 0)
            if opcode is Opcode.BLT:
                return lambda: (tgt, N, 1) if regs[s1] < regs[s2] else (nxt, N, 0)
            return lambda: (tgt, N, 1) if regs[s1] >= regs[s2] else (nxt, N, 0)

        # --- memory -------------------------------------------------------
        # The word store is inlined for speed: the sparse dict and the word
        # size are MemoryImage's layout (load_word/store_word), and stored
        # register values are already 64-bit-signed so store_word's wrap is
        # a no-op here.
        words = self.memory._words
        word_bytes = self.memory.WORD_BYTES
        if opcode is Opcode.LW:
            if writes:
                def lw() -> tuple[int, int, int]:
                    addr = regs[s1] + imm
                    regs[d] = words.get(addr // word_bytes, 0)
                    return (nxt, addr, N)
                return lw
            return lambda: (nxt, regs[s1] + imm, N)
        if opcode is Opcode.SW:
            def sw() -> tuple[int, int, int]:
                addr = regs[s1] + imm
                words[addr // word_bytes] = regs[s2]
                return (nxt, addr, N)
            return sw
        if opcode is Opcode.LB:
            load_byte = self.memory.load_byte
            if writes:
                def lb() -> tuple[int, int, int]:
                    addr = regs[s1] + imm
                    regs[d] = load_byte(addr)
                    return (nxt, addr, N)
                return lb
            return lambda: (nxt, regs[s1] + imm, N)
        if opcode is Opcode.SB:
            store_byte = self.memory.store_byte
            def sb() -> tuple[int, int, int]:
                addr = regs[s1] + imm
                store_byte(addr, regs[s2])
                return (nxt, addr, N)
            return sb

        # --- arithmetic / logic -------------------------------------------
        # Results are wrapped to 64-bit signed exactly like ``_to_signed``.
        if not writes:
            # The destination is r0 (or absent): the result is discarded and
            # there are no side effects, so the instruction degenerates.
            return lambda: (nxt, N, N)
        if opcode is Opcode.ADD:
            def h():
                v = (regs[s1] + regs[s2]) & M
                regs[d] = v - W if v & S else v
                return (nxt, N, N)
        elif opcode is Opcode.SUB:
            def h():
                v = (regs[s1] - regs[s2]) & M
                regs[d] = v - W if v & S else v
                return (nxt, N, N)
        elif opcode is Opcode.AND:
            def h():
                regs[d] = regs[s1] & regs[s2]
                return (nxt, N, N)
        elif opcode is Opcode.OR:
            def h():
                regs[d] = regs[s1] | regs[s2]
                return (nxt, N, N)
        elif opcode is Opcode.XOR:
            def h():
                regs[d] = regs[s1] ^ regs[s2]
                return (nxt, N, N)
        elif opcode is Opcode.SLL:
            def h():
                v = (regs[s1] << (regs[s2] & 63)) & M
                regs[d] = v - W if v & S else v
                return (nxt, N, N)
        elif opcode is Opcode.SRL:
            def h():
                v = (regs[s1] & M) >> (regs[s2] & 63)
                regs[d] = v - W if v & S else v
                return (nxt, N, N)
        elif opcode is Opcode.SLT:
            def h():
                regs[d] = 1 if regs[s1] < regs[s2] else 0
                return (nxt, N, N)
        elif opcode is Opcode.ADDI:
            def h():
                v = (regs[s1] + imm) & M
                regs[d] = v - W if v & S else v
                return (nxt, N, N)
        elif opcode is Opcode.ANDI:
            def h():
                v = (regs[s1] & imm) & M
                regs[d] = v - W if v & S else v
                return (nxt, N, N)
        elif opcode is Opcode.ORI:
            def h():
                v = (regs[s1] | imm) & M
                regs[d] = v - W if v & S else v
                return (nxt, N, N)
        elif opcode is Opcode.XORI:
            def h():
                v = (regs[s1] ^ imm) & M
                regs[d] = v - W if v & S else v
                return (nxt, N, N)
        elif opcode is Opcode.SLLI:
            shift = imm & 63
            def h():
                v = (regs[s1] << shift) & M
                regs[d] = v - W if v & S else v
                return (nxt, N, N)
        elif opcode is Opcode.SRLI:
            shift = imm & 63
            def h():
                v = (regs[s1] & M) >> shift
                regs[d] = v - W if v & S else v
                return (nxt, N, N)
        elif opcode is Opcode.SLTI:
            def h():
                regs[d] = 1 if regs[s1] < imm else 0
                return (nxt, N, N)
        elif opcode is Opcode.LI:
            value = _to_signed(imm)
            def h():
                regs[d] = value
                return (nxt, N, N)
        elif opcode is Opcode.MOV:
            def h():
                regs[d] = regs[s1]
                return (nxt, N, N)
        elif opcode is Opcode.MUL:
            def h():
                v = (regs[s1] * regs[s2]) & M
                regs[d] = v - W if v & S else v
                return (nxt, N, N)
        elif opcode is Opcode.MULI:
            def h():
                v = (regs[s1] * imm) & M
                regs[d] = v - W if v & S else v
                return (nxt, N, N)
        elif opcode is Opcode.DIV:
            def h():
                b = regs[s2]
                regs[d] = 0 if b == 0 else _to_signed(int(regs[s1] / b))
                return (nxt, N, N)
        elif opcode is Opcode.DIVI:
            if imm == 0:
                def h():
                    regs[d] = 0
                    return (nxt, N, N)
            else:
                def h():
                    regs[d] = _to_signed(int(regs[s1] / imm))
                    return (nxt, N, N)
        elif opcode is Opcode.REM:
            def h():
                a, b = regs[s1], regs[s2]
                regs[d] = 0 if b == 0 else _to_signed(a - int(a / b) * b)
                return (nxt, N, N)
        else:  # pragma: no cover - defensive
            raise NotImplementedError(f"unhandled opcode {opcode}")
        return h

    # ------------------------------------------------------------------
    def run(self) -> Trace:
        """Execute the program to completion and return the columnar trace."""
        program = self.program
        statics = program.instructions
        n_static = len(statics)
        handlers = [self._compile(i, ins) for i, ins in enumerate(statics)]
        halts = [ins.opcode is Opcode.HALT for ins in statics]
        class_ids = bytes(OP_CLASS_IDS[ins.op_class] for ins in statics)

        pcs = array("q")
        next_pcs = array("q")
        mem_addrs = array("q")
        op_classes = array("b")
        taken = array("b")
        static_index = array("q")
        append_pc = pcs.append
        append_next = next_pcs.append
        append_mem = mem_addrs.append
        append_op = op_classes.append
        append_taken = taken.append
        append_static = static_index.append

        pc_index = 0
        executed = 0
        limit = self.max_instructions
        while 0 <= pc_index < n_static:
            if executed >= limit:
                raise SimulationLimitError(
                    f"{program.name}: exceeded {self.max_instructions} dynamic "
                    "instructions; likely an infinite loop"
                )
            nxt, mem, tk = handlers[pc_index]()
            append_pc(pc_index * INSTR_BYTES)
            append_static(pc_index)
            append_op(class_ids[pc_index])
            append_mem(mem)
            append_taken(tk)
            if halts[pc_index]:
                append_next(pc_index * INSTR_BYTES)
                break
            append_next(nxt * INSTR_BYTES)
            executed += 1
            pc_index = nxt

        return Trace.from_columns(
            statics=statics,
            pcs=pcs,
            next_pcs=next_pcs,
            mem_addrs=mem_addrs,
            op_classes=op_classes,
            taken=taken,
            static_index=static_index,
            name=program.name,
        )
