"""Unit tests for the functional simulator and memory image.

The parity tests at the end hold the block-dispatched interpreter equal,
column for column and on its final registers and memory, to the
per-instruction interpreter kept in ``functional_oracle.py``, on every
registered workload and on hand-built programs that stress block
boundaries.
"""

import functional_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import ProgramBuilder
from repro.trace import (
    FunctionalSimulator,
    MemoryImage,
    SimulationLimitError,
)
from repro.trace.trace import INSTR_BYTES
from repro.workloads import get_workload
from repro.workloads.compiler import optimization_variants
from repro.workloads.registry import all_workload_names


def run_program(builder: ProgramBuilder, memory: MemoryImage | None = None):
    simulator = FunctionalSimulator(builder.build(), memory=memory)
    trace = simulator.run()
    return simulator, trace


class TestMemoryImage:
    def test_word_roundtrip(self):
        memory = MemoryImage()
        memory.store_word(0x100, 1234)
        assert memory.load_word(0x100) == 1234
        assert memory.load_word(0x200) == 0

    def test_byte_access_within_word(self):
        memory = MemoryImage()
        memory.store_word(0x40, 0x11223344)
        assert memory.load_byte(0x40) == 0x44
        assert memory.load_byte(0x41) == 0x33
        memory.store_byte(0x41, 0xAB)
        assert memory.load_byte(0x41) == 0xAB
        assert memory.load_byte(0x40) == 0x44

    def test_write_and_read_array(self):
        memory = MemoryImage()
        end = memory.write_array(0x80, [1, 2, 3])
        assert end == 0x80 + 3 * MemoryImage.WORD_BYTES
        assert memory.read_array(0x80, 3) == [1, 2, 3]

    def test_copy_is_independent(self):
        memory = MemoryImage()
        memory.store_word(0, 5)
        clone = memory.copy()
        clone.store_word(0, 9)
        assert memory.load_word(0) == 5

    @given(
        address=st.integers(min_value=0, max_value=1 << 20).map(lambda a: a * 4),
        value=st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
    )
    @settings(max_examples=60)
    def test_word_roundtrip_property(self, address, value):
        memory = MemoryImage()
        memory.store_word(address, value)
        assert memory.load_word(address) == value

    @given(address=st.integers(min_value=0, max_value=1 << 16),
           value=st.integers(min_value=0, max_value=255))
    @settings(max_examples=60)
    def test_byte_roundtrip_property(self, address, value):
        memory = MemoryImage()
        memory.store_byte(address, value)
        assert memory.load_byte(address) == value


class TestArithmetic:
    def test_add_sub_logic(self):
        b = ProgramBuilder()
        b.li(1, 10)
        b.li(2, 3)
        b.add(3, 1, 2)
        b.sub(4, 1, 2)
        b.and_(5, 1, 2)
        b.or_(6, 1, 2)
        b.xor(7, 1, 2)
        b.halt()
        simulator, _ = run_program(b)
        assert simulator.registers[3] == 13
        assert simulator.registers[4] == 7
        assert simulator.registers[5] == 10 & 3
        assert simulator.registers[6] == 10 | 3
        assert simulator.registers[7] == 10 ^ 3

    def test_shifts_and_compare(self):
        b = ProgramBuilder()
        b.li(1, 5)
        b.slli(2, 1, 3)
        b.srli(3, 2, 1)
        b.slt(4, 1, 2)
        b.slti(5, 1, 2)
        b.halt()
        simulator, _ = run_program(b)
        assert simulator.registers[2] == 40
        assert simulator.registers[3] == 20
        assert simulator.registers[4] == 1
        assert simulator.registers[5] == 0

    def test_mul_div_rem(self):
        b = ProgramBuilder()
        b.li(1, 7)
        b.li(2, 3)
        b.mul(3, 1, 2)
        b.div(4, 1, 2)
        b.rem(5, 1, 2)
        b.muli(6, 1, -2)
        b.divi(7, 1, 2)
        b.halt()
        simulator, _ = run_program(b)
        assert simulator.registers[3] == 21
        assert simulator.registers[4] == 2
        assert simulator.registers[5] == 1
        assert simulator.registers[6] == -14
        assert simulator.registers[7] == 3

    def test_division_by_zero_yields_zero(self):
        b = ProgramBuilder()
        b.li(1, 7)
        b.div(2, 1, 0)
        b.rem(3, 1, 0)
        b.divi(4, 1, 0)
        b.halt()
        simulator, _ = run_program(b)
        assert simulator.registers[2] == 0
        assert simulator.registers[3] == 0
        assert simulator.registers[4] == 0

    def test_writes_to_r0_are_ignored(self):
        b = ProgramBuilder()
        b.li(0, 42)
        b.add(1, 0, 0)
        b.halt()
        simulator, _ = run_program(b)
        assert simulator.registers[0] == 0
        assert simulator.registers[1] == 0

    def test_mov_and_li(self):
        b = ProgramBuilder()
        b.li(1, -9)
        b.mov(2, 1)
        b.halt()
        simulator, _ = run_program(b)
        assert simulator.registers[2] == -9


class TestMemoryInstructions:
    def test_load_store_word(self):
        memory = MemoryImage()
        memory.store_word(0x100, 77)
        b = ProgramBuilder()
        b.li(1, 0x100)
        b.lw(2, 1, 0)
        b.addi(2, 2, 1)
        b.sw(2, 1, 4)
        b.halt()
        simulator, trace = run_program(b, memory)
        assert simulator.registers[2] == 78
        assert simulator.memory.load_word(0x104) == 78
        loads = [d for d in trace if d.is_load]
        stores = [d for d in trace if d.is_store]
        assert loads[0].mem_addr == 0x100
        assert stores[0].mem_addr == 0x104

    def test_load_store_byte(self):
        b = ProgramBuilder()
        b.li(1, 0x200)
        b.li(2, 0x1FF)
        b.sb(2, 1, 0)
        b.lb(3, 1, 0)
        b.halt()
        simulator, _ = run_program(b)
        assert simulator.registers[3] == 0xFF  # only the low byte is stored


class TestControlFlow:
    def test_loop_executes_expected_iterations(self):
        b = ProgramBuilder()
        b.li(1, 5)
        b.li(2, 0)
        b.label("top")
        b.addi(2, 2, 1)
        b.addi(1, 1, -1)
        b.bne(1, 0, "top")
        b.halt()
        simulator, trace = run_program(b)
        assert simulator.registers[2] == 5
        branches = [d for d in trace if d.is_branch]
        assert len(branches) == 5
        assert sum(1 for d in branches if d.taken) == 4

    def test_branch_variants(self):
        b = ProgramBuilder()
        b.li(1, 2)
        b.li(2, 3)
        b.blt(1, 2, "lt_taken")
        b.li(10, 111)           # skipped
        b.label("lt_taken")
        b.bge(2, 1, "ge_taken")
        b.li(11, 222)           # skipped
        b.label("ge_taken")
        b.beq(1, 1, "eq_taken")
        b.li(12, 333)           # skipped
        b.label("eq_taken")
        b.halt()
        simulator, _ = run_program(b)
        assert simulator.registers[10] == 0
        assert simulator.registers[11] == 0
        assert simulator.registers[12] == 0

    def test_jump_and_jr(self):
        b = ProgramBuilder()
        b.li(1, 5 * INSTR_BYTES)   # address of the label "end"
        b.j("skip")
        b.li(9, 1)                 # never executed
        b.label("skip")
        b.jr(1)
        b.li(9, 2)                 # never executed
        b.label("end")
        b.halt()
        simulator, trace = run_program(b)
        assert simulator.registers[9] == 0
        jumps = [d for d in trace if d.is_control]
        assert all(d.taken for d in jumps)

    def test_next_pc_recorded(self):
        b = ProgramBuilder()
        b.li(1, 1)
        b.beq(1, 1, "target")
        b.nop()
        b.label("target")
        b.halt()
        _, trace = run_program(b)
        branch = next(d for d in trace if d.is_branch)
        assert branch.taken is True
        assert branch.next_pc == 3 * INSTR_BYTES

    def test_simulation_limit(self):
        b = ProgramBuilder()
        b.label("forever")
        b.j("forever")
        simulator = FunctionalSimulator(b.build(), max_instructions=100)
        with pytest.raises(SimulationLimitError):
            simulator.run()

    @pytest.mark.parametrize("ending", ["halt", "fall_off", "loop"])
    def test_simulation_limit_boundary(self, ending):
        """A trace of exactly ``max_instructions`` runs; one more raises."""
        b = ProgramBuilder("bounded")
        if ending == "loop":
            b.li(1, 5)
            b.label("top")
            b.addi(1, 1, -1)
            b.bne(1, 0, "top")
            b.halt()
        else:
            for value in range(6):
                b.li(1, value)
            if ending == "halt":
                b.halt()
        program = b.build()
        length = len(FunctionalSimulator(program).run())
        assert length == (12 if ending == "loop" else
                          7 if ending == "halt" else 6)

        trace = FunctionalSimulator(program, max_instructions=length).run()
        assert len(trace) == length
        with pytest.raises(SimulationLimitError) as raised:
            FunctionalSimulator(program, max_instructions=length - 1).run()
        assert str(raised.value) == (
            f"bounded: exceeded {length - 1} dynamic instructions; "
            "likely an infinite loop")
        with pytest.raises(SimulationLimitError) as expected:
            functional_oracle.FunctionalSimulator(
                program, max_instructions=length - 1).run()
        assert str(raised.value) == str(expected.value)

    def test_halt_ends_trace(self):
        b = ProgramBuilder()
        b.li(1, 1)
        b.halt()
        b.li(2, 2)   # unreachable
        simulator, trace = run_program(b)
        assert simulator.registers[2] == 0
        assert len(trace) == 2


# ----------------------------------------------------------------------
# Parity with the per-instruction interpreter (``functional_oracle.py``).
# ----------------------------------------------------------------------
COLUMNS = ("pcs", "next_pcs", "mem_addrs", "op_classes", "taken",
           "static_index")


def assert_matches_oracle(program, memory: MemoryImage | None = None,
                          max_instructions: int = 2_000_000):
    """Both interpreters give equal columns, registers and memory."""
    memory = memory if memory is not None else MemoryImage()
    simulator = FunctionalSimulator(program, memory.copy(), max_instructions)
    oracle = functional_oracle.FunctionalSimulator(
        program, memory.copy(), max_instructions)
    trace, expected = simulator.run(), oracle.run()
    for column in COLUMNS:
        got, want = getattr(trace, column), getattr(expected, column)
        assert got.typecode == want.typecode, column
        assert got == want, column
    assert simulator.registers == oracle.registers
    assert simulator.memory._words == oracle.memory._words
    return trace


@pytest.mark.parametrize("name", all_workload_names())
def test_workloads_match_oracle(name):
    raw = get_workload(name, use_cache=False, optimize=False)
    for flags, workload in optimization_variants(raw).items():
        trace = assert_matches_oracle(workload.program, workload.memory,
                                      workload.max_instructions)
        assert len(trace) > 0, flags


def test_jr_into_the_middle_of_a_straight_line_run():
    b = ProgramBuilder()
    b.li(5, 2)
    b.li(1, 4 * INSTR_BYTES)
    b.jr(1)                    # enters the run below at its second slot
    b.label("top")
    b.addi(2, 2, 1)
    b.addi(3, 3, 1)            # index 4: the JR target
    b.addi(5, 5, -1)
    b.bne(5, 0, "top")         # re-enters the run at its first slot
    b.halt()
    trace = assert_matches_oracle(b.build())
    assert list(trace.static_index) == [0, 1, 2, 4, 5, 6, 3, 4, 5, 6, 7]


def test_branch_back_to_its_own_block():
    b = ProgramBuilder()
    b.li(1, 4)
    b.label("loop")
    b.sw(1, 0, 0x40)
    b.addi(1, 1, -1)
    b.bne(1, 0, "loop")
    b.halt()
    trace = assert_matches_oracle(b.build())
    assert list(trace.taken).count(1) == 3


def test_halt_followed_by_unreachable_code():
    b = ProgramBuilder()
    b.li(1, 1)
    b.halt()
    b.li(2, 2)
    b.j("end")
    b.label("end")
    b.halt()
    trace = assert_matches_oracle(b.build())
    assert list(trace.next_pcs) == [INSTR_BYTES, INSTR_BYTES]


@pytest.mark.parametrize("last", ["straight_line", "untaken_branch",
                                  "jr_past_the_end"])
def test_falling_off_the_end(last):
    b = ProgramBuilder()
    b.label("start")
    b.li(1, 1)
    b.li(2, 64 * INSTR_BYTES)
    if last == "untaken_branch":
        b.beq(1, 0, "start")
    elif last == "jr_past_the_end":
        b.jr(2)
    trace = assert_matches_oracle(b.build())
    assert trace.next_pcs[-1] == (64 if last == "jr_past_the_end"
                                  else len(trace)) * INSTR_BYTES


def test_r0_destinations():
    memory = MemoryImage()
    memory.store_word(0x80, 9)
    b = ProgramBuilder()
    b.li(1, 0x80)
    b.li(0, 42)
    b.add(0, 1, 1)
    b.mul(0, 1, 1)
    b.lw(0, 1, 0)
    b.lb(0, 1, 0)
    b.add(2, 0, 1)
    b.halt()
    trace = assert_matches_oracle(b.build(), memory)
    assert list(trace.mem_addrs)[4:6] == [0x80, 0x80]


def test_division_by_zero_and_truncation():
    b = ProgramBuilder()
    b.li(1, -7)
    b.li(2, 2)
    b.div(3, 1, 0)
    b.rem(4, 1, 0)
    b.divi(5, 1, 0)
    b.div(6, 1, 2)
    b.rem(7, 1, 2)
    b.divi(8, 1, -2)
    b.halt()
    assert_matches_oracle(b.build())


def test_byte_loads_and_stores():
    memory = MemoryImage()
    memory.store_word(0x100, -1)
    b = ProgramBuilder()
    b.li(1, 0x101)
    b.li(2, 0x1AB)
    b.sb(2, 1, 0)
    b.sb(2, 1, 2)
    b.lb(3, 1, 0)
    b.lb(4, 1, 1)
    b.lw(5, 1, -1)
    b.halt()
    assert_matches_oracle(b.build(), memory)
