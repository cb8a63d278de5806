"""Functional (instruction-set level) simulator.

The functional simulator executes programs of the reproduction ISA on
concrete data and produces the dynamic instruction trace used everywhere
else.  It plays the role of M5's functional simulator in the paper's
profiling flow (Figure 2).

The interpreter dispatches per basic block, the translation caching of
Shade (Cmelik & Keppel, SIGMETRICS 1994) without code generation.  A block
runs from an entry index up to and including the first branch, jump or
``HALT``, or to the end of the program.  It is built once, on first entry,
and keyed by its entry index, so a ``JR`` target or a label inside
straight-line code gets a block of its own.  Every straight-line
instruction is a closure with its operands and register/memory cells
pre-bound that returns only its memory address (``NO_VALUE`` when it has
none); the block's terminator returns the next entry index together with
the block's ``taken`` and ``next_pcs`` rows for that outcome, prebuilt.
The run loop therefore pays per block, not per instruction: it calls the
body closures, extends the memory column with their addresses and the
static-index, PC and op-class columns with the block's prebuilt arrays,
and checks the instruction budget once.  No per-instruction objects are
allocated while executing; the :class:`~repro.trace.trace.Trace` facade
materializes :class:`~repro.trace.trace.DynamicInstruction` records lazily.

Register values are 64-bit signed; effective addresses must also fit in a
signed 64-bit word (the packed ``mem_addrs`` column enforces this), which
covers the entire address range the workload kernels and the memory models
use.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable

from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_INT_REGS, ZERO_REG
from repro.trace.trace import (
    INSTR_BYTES,
    NO_VALUE,
    OP_CLASS_IDS,
    Trace,
)

#: Values are kept as 64-bit signed integers.
_WORD_MASK = (1 << 64) - 1
_SIGN_BIT = 1 << 63
_WRAP = 1 << 64


class SimulationLimitError(Exception):
    """Raised when a program exceeds the dynamic instruction budget."""


def _to_signed(value: int) -> int:
    value &= _WORD_MASK
    if value & _SIGN_BIT:
        value -= 1 << 64
    return value


class MemoryImage:
    """Sparse word-granular data memory.

    Addresses are byte addresses; storage is per 4-byte word.  ``LB``/``SB``
    address individual bytes within a word.  The image also provides helpers
    to lay out arrays, which the workload kernels use to build their inputs.
    """

    WORD_BYTES = 4

    def __init__(self) -> None:
        self._words: dict[int, int] = {}

    def load_word(self, address: int) -> int:
        return self._words.get(address // self.WORD_BYTES, 0)

    def store_word(self, address: int, value: int) -> None:
        self._words[address // self.WORD_BYTES] = _to_signed(value)

    def load_byte(self, address: int) -> int:
        word = self.load_word(address)
        shift = (address % self.WORD_BYTES) * 8
        return (word >> shift) & 0xFF

    def store_byte(self, address: int, value: int) -> None:
        word_index = address // self.WORD_BYTES
        shift = (address % self.WORD_BYTES) * 8
        word = self._words.get(word_index, 0) & _WORD_MASK
        word &= ~(0xFF << shift)
        word |= (value & 0xFF) << shift
        self._words[word_index] = _to_signed(word)

    # ------------------------------------------------------------------
    # Layout helpers used by workload kernels.
    # ------------------------------------------------------------------
    def write_array(self, base: int, values: Iterable[int]) -> int:
        """Store ``values`` as consecutive words at byte address ``base``.

        Returns the byte address just past the array.
        """
        address = base
        for value in values:
            self.store_word(address, value)
            address += self.WORD_BYTES
        return address

    def read_array(self, base: int, count: int) -> list[int]:
        """Read ``count`` consecutive words starting at ``base``."""
        return [
            self.load_word(base + index * self.WORD_BYTES) for index in range(count)
        ]

    def copy(self) -> "MemoryImage":
        clone = MemoryImage()
        clone._words = dict(self._words)
        return clone

    def __len__(self) -> int:
        return len(self._words)


#: A straight-line instruction: () -> its memory address, or ``NO_VALUE``.
_Body = Callable[[], int]
#: A block terminator: () -> (next entry index, the block's ``taken`` row,
#: the block's ``next_pcs`` row) for the outcome it took.
_Terminator = Callable[[], tuple[int, array, array]]

#: Opcodes that end a basic block.
_TERMINATORS = frozenset((
    Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
    Opcode.J, Opcode.JR, Opcode.HALT,
))


def _no_access() -> int:
    """An instruction with no memory access and no effect (a terminator's
    slot in the body, a NOP, a discarded result)."""
    return NO_VALUE


class FunctionalSimulator:
    """Executes a program and records the dynamic instruction stream.

    :meth:`run` raises :class:`SimulationLimitError` when the trace would
    exceed ``max_instructions``; register and memory state after that
    error is unspecified.
    """

    def __init__(self, program: Program, memory: MemoryImage | None = None,
                 max_instructions: int = 2_000_000):
        program.validate()
        self.program = program
        self.memory = memory if memory is not None else MemoryImage()
        self.max_instructions = max_instructions
        self.registers = [0] * NUM_INT_REGS

    # ------------------------------------------------------------------
    # Block compilation: body closures and one terminator per block.
    # ------------------------------------------------------------------
    def _compile(self, instruction) -> _Body:
        """The closure of a straight-line (non-terminator) instruction."""
        opcode = instruction.opcode
        regs = self.registers
        d = instruction.dest
        s1 = instruction.src1 if instruction.src1 is not None else ZERO_REG
        s2 = instruction.src2 if instruction.src2 is not None else ZERO_REG
        imm = instruction.imm
        writes = d is not None and d != ZERO_REG
        M, S, W = _WORD_MASK, _SIGN_BIT, _WRAP

        if opcode is Opcode.NOP:
            return _no_access

        # --- memory -------------------------------------------------------
        # The word store is inlined for speed: the sparse dict and the word
        # size are MemoryImage's layout (load_word/store_word), and stored
        # register values are already 64-bit-signed so store_word's wrap is
        # a no-op here.
        words = self.memory._words
        word_bytes = self.memory.WORD_BYTES
        if opcode is Opcode.LW:
            if writes:
                def lw() -> int:
                    addr = regs[s1] + imm
                    regs[d] = words.get(addr // word_bytes, 0)
                    return addr
                return lw
            return lambda: regs[s1] + imm
        if opcode is Opcode.SW:
            def sw() -> int:
                addr = regs[s1] + imm
                words[addr // word_bytes] = regs[s2]
                return addr
            return sw
        if opcode is Opcode.LB:
            load_byte = self.memory.load_byte
            if writes:
                def lb() -> int:
                    addr = regs[s1] + imm
                    regs[d] = load_byte(addr)
                    return addr
                return lb
            return lambda: regs[s1] + imm
        if opcode is Opcode.SB:
            store_byte = self.memory.store_byte
            def sb() -> int:
                addr = regs[s1] + imm
                store_byte(addr, regs[s2])
                return addr
            return sb

        # --- arithmetic / logic -------------------------------------------
        # Results are wrapped to 64-bit signed exactly like ``_to_signed``.
        N = NO_VALUE
        if not writes:
            # The destination is r0 (or absent): the result is discarded and
            # there are no side effects, so the instruction degenerates.
            return _no_access
        if opcode is Opcode.ADD:
            def h():
                v = (regs[s1] + regs[s2]) & M
                regs[d] = v - W if v & S else v
                return N
        elif opcode is Opcode.SUB:
            def h():
                v = (regs[s1] - regs[s2]) & M
                regs[d] = v - W if v & S else v
                return N
        elif opcode is Opcode.AND:
            def h():
                regs[d] = regs[s1] & regs[s2]
                return N
        elif opcode is Opcode.OR:
            def h():
                regs[d] = regs[s1] | regs[s2]
                return N
        elif opcode is Opcode.XOR:
            def h():
                regs[d] = regs[s1] ^ regs[s2]
                return N
        elif opcode is Opcode.SLL:
            def h():
                v = (regs[s1] << (regs[s2] & 63)) & M
                regs[d] = v - W if v & S else v
                return N
        elif opcode is Opcode.SRL:
            def h():
                v = (regs[s1] & M) >> (regs[s2] & 63)
                regs[d] = v - W if v & S else v
                return N
        elif opcode is Opcode.SLT:
            def h():
                regs[d] = 1 if regs[s1] < regs[s2] else 0
                return N
        elif opcode is Opcode.ADDI:
            def h():
                v = (regs[s1] + imm) & M
                regs[d] = v - W if v & S else v
                return N
        elif opcode is Opcode.ANDI:
            def h():
                v = (regs[s1] & imm) & M
                regs[d] = v - W if v & S else v
                return N
        elif opcode is Opcode.ORI:
            def h():
                v = (regs[s1] | imm) & M
                regs[d] = v - W if v & S else v
                return N
        elif opcode is Opcode.XORI:
            def h():
                v = (regs[s1] ^ imm) & M
                regs[d] = v - W if v & S else v
                return N
        elif opcode is Opcode.SLLI:
            shift = imm & 63
            def h():
                v = (regs[s1] << shift) & M
                regs[d] = v - W if v & S else v
                return N
        elif opcode is Opcode.SRLI:
            shift = imm & 63
            def h():
                v = (regs[s1] & M) >> shift
                regs[d] = v - W if v & S else v
                return N
        elif opcode is Opcode.SLTI:
            def h():
                regs[d] = 1 if regs[s1] < imm else 0
                return N
        elif opcode is Opcode.LI:
            value = _to_signed(imm)
            def h():
                regs[d] = value
                return N
        elif opcode is Opcode.MOV:
            def h():
                regs[d] = regs[s1]
                return N
        elif opcode is Opcode.MUL:
            def h():
                v = (regs[s1] * regs[s2]) & M
                regs[d] = v - W if v & S else v
                return N
        elif opcode is Opcode.MULI:
            def h():
                v = (regs[s1] * imm) & M
                regs[d] = v - W if v & S else v
                return N
        elif opcode is Opcode.DIV:
            def h():
                b = regs[s2]
                regs[d] = 0 if b == 0 else _to_signed(int(regs[s1] / b))
                return N
        elif opcode is Opcode.DIVI:
            if imm == 0:
                def h():
                    regs[d] = 0
                    return N
            else:
                def h():
                    regs[d] = _to_signed(int(regs[s1] / imm))
                    return N
        elif opcode is Opcode.REM:
            def h():
                a, b = regs[s1], regs[s2]
                regs[d] = 0 if b == 0 else _to_signed(a - int(a / b) * b)
                return N
        else:  # pragma: no cover - defensive
            raise NotImplementedError(f"unhandled opcode {opcode}")
        return h

    def _terminator(self, index: int, instruction, taken: list,
                    next_pcs: list) -> _Terminator:
        """The closure ending a block at ``index``.

        ``taken`` and ``next_pcs`` are the rows of the block's body; each
        outcome's closure returns them with the terminator's row appended.
        """
        opcode = instruction.opcode
        regs = self.registers
        s1 = instruction.src1 if instruction.src1 is not None else ZERO_REG
        s2 = instruction.src2 if instruction.src2 is not None else ZERO_REG

        def outcome(next_index: int, took: int, next_pc: int) -> tuple:
            return (next_index, array("b", taken + [took]),
                    array("q", next_pcs + [next_pc]))

        if opcode is Opcode.HALT:
            # HALT records itself as its successor; index -1 ends the run.
            halted = outcome(-1, NO_VALUE, index * INSTR_BYTES)
            return lambda: halted
        if opcode is Opcode.JR:
            taken_row = array("b", taken + [1])
            body_next = array("q", next_pcs)

            def jr():
                target = regs[s1] // INSTR_BYTES
                return (target, taken_row,
                        body_next + array("q", (target * INSTR_BYTES,)))
            return jr
        tgt = self.program.label_address(instruction.target)
        T = outcome(tgt, 1, tgt * INSTR_BYTES)
        if opcode is Opcode.J:
            return lambda: T
        F = outcome(index + 1, 0, (index + 1) * INSTR_BYTES)
        if opcode is Opcode.BEQ:
            return lambda: T if regs[s1] == regs[s2] else F
        if opcode is Opcode.BNE:
            return lambda: T if regs[s1] != regs[s2] else F
        if opcode is Opcode.BLT:
            return lambda: T if regs[s1] < regs[s2] else F
        return lambda: T if regs[s1] >= regs[s2] else F

    def _block(self, entry: int, class_ids: bytes) -> tuple:
        """The basic block entered at static index ``entry``.

        Returns ``(body closures, terminator, instruction count, static
        indices, pcs, op-class ids)``; the last three are the block's
        prebuilt rows of those columns.
        """
        statics = self.program.instructions
        n_static = len(statics)
        body = []
        index = entry
        while index < n_static and statics[index].opcode not in _TERMINATORS:
            body.append(self._compile(statics[index]))
            index += 1
        taken = [NO_VALUE] * len(body)
        next_pcs = [(k + 1) * INSTR_BYTES for k in range(entry, index)]
        if index < n_static:
            terminator = self._terminator(index, statics[index], taken,
                                          next_pcs)
            body.append(_no_access)
            index += 1
        else:
            # The block runs off the end of the program, ending the run.
            fell_off = (n_static, array("b", taken), array("q", next_pcs))

            def terminator():
                return fell_off
        indices = range(entry, index)
        return (body, terminator, len(indices), array("q", indices),
                array("q", [k * INSTR_BYTES for k in indices]),
                array("b", class_ids[entry:index]))

    # ------------------------------------------------------------------
    def run(self) -> Trace:
        """Execute the program to completion and return the columnar trace."""
        program = self.program
        statics = program.instructions
        n_static = len(statics)
        class_ids = bytes(OP_CLASS_IDS[ins.op_class] for ins in statics)
        blocks: list[tuple | None] = [None] * n_static

        pcs = array("q")
        next_pcs = array("q")
        mem_addrs = array("q")
        op_classes = array("b")
        taken = array("b")
        static_index = array("q")
        extend_pcs = pcs.extend
        extend_next = next_pcs.extend
        extend_mem = mem_addrs.extend
        extend_ops = op_classes.extend
        extend_taken = taken.extend
        extend_static = static_index.extend

        pc_index = 0
        executed = 0
        limit = self.max_instructions
        while 0 <= pc_index < n_static:
            block = blocks[pc_index]
            if block is None:
                block = blocks[pc_index] = self._block(pc_index, class_ids)
            body, terminator, count, block_static, block_pcs, block_ops = block
            # A block always runs to its end, so this is exactly "the trace
            # would exceed the budget".
            executed += count
            if executed > limit:
                raise SimulationLimitError(
                    f"{program.name}: exceeded {self.max_instructions} dynamic "
                    "instructions; likely an infinite loop"
                )
            extend_mem([h() for h in body])
            pc_index, block_taken, block_next = terminator()
            extend_static(block_static)
            extend_pcs(block_pcs)
            extend_ops(block_ops)
            extend_taken(block_taken)
            extend_next(block_next)

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
