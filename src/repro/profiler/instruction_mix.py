"""Instruction mix profiling (machine independent)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import OpClass
from repro.trace.trace import Trace


@dataclass
class InstructionMix:
    """Dynamic instruction counts per operation class."""

    total: int = 0
    counts: dict[OpClass, int] = field(default_factory=dict)

    def count(self, op_class: OpClass) -> int:
        return self.counts.get(op_class, 0)

    @property
    def loads(self) -> int:
        return self.count(OpClass.LOAD)

    @property
    def stores(self) -> int:
        return self.count(OpClass.STORE)

    @property
    def multiplies(self) -> int:
        return self.count(OpClass.INT_MUL)

    @property
    def divides(self) -> int:
        return self.count(OpClass.INT_DIV)

    @property
    def branches(self) -> int:
        return self.count(OpClass.BRANCH)

    @property
    def jumps(self) -> int:
        return self.count(OpClass.JUMP)

    @property
    def control(self) -> int:
        return self.branches + self.jumps

    def fraction(self, op_class: OpClass) -> float:
        return self.count(op_class) / self.total if self.total else 0.0


def collect_instruction_mix(trace: Trace) -> InstructionMix:
    """Histogram the dynamic instruction classes of ``trace``.

    Answered by the active :mod:`repro.accel` kernel backend's mix stream,
    driven over the whole trace as one chunk (one ``bincount`` over the
    packed column on NumPy; the trace's columnar histogram otherwise).
    """
    from repro.accel import get_kernels

    return get_kernels().instruction_mix(trace)
