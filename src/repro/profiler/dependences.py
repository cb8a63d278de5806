"""Inter-instruction dependency-distance profiling (machine independent).

For every dynamic instruction that reads registers, the profiler finds the
producer of each source operand and records the dependency at the *shortest*
distance (the paper's convention when a consumer has two producers).  The
dependency is classified by its producer:

* ``unit``  — produced by a single-cycle ALU instruction (Eq. 11),
* ``long``  — produced by a multi-cycle arithmetic instruction, multiply or
  divide (Eq. 12),
* ``load``  — produced by a load (Eq. 16).

Distances are capped at :data:`MAX_DISTANCE`; the model only ever consults
distances below ``2W - 1``, so the cap is far above anything a realistic
width needs while keeping the histograms compact and machine independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import OpClass
from repro.trace.trace import Trace

#: Dependencies longer than this are irrelevant for any practical width.
MAX_DISTANCE = 64

#: Producer kinds used to classify dependencies.
KIND_UNIT = "unit"
KIND_LONG = "long"
KIND_LOAD = "load"


@dataclass
class DependencyProfile:
    """Histograms of dependency distances per producer kind."""

    unit: dict[int, int] = field(default_factory=dict)
    long: dict[int, int] = field(default_factory=dict)
    load: dict[int, int] = field(default_factory=dict)
    consumers: int = 0

    def histogram(self, kind: str) -> dict[int, int]:
        if kind == KIND_UNIT:
            return self.unit
        if kind == KIND_LONG:
            return self.long
        if kind == KIND_LOAD:
            return self.load
        raise KeyError(f"unknown dependency kind {kind!r}")

    def count(self, kind: str, distance: int) -> int:
        """Number of consumers depending on a ``kind`` producer at ``distance``."""
        return self.histogram(kind).get(distance, 0)

    def total(self, kind: str | None = None) -> int:
        if kind is None:
            return self.total(KIND_UNIT) + self.total(KIND_LONG) + self.total(KIND_LOAD)
        return sum(self.histogram(kind).values())

    def _record(self, kind: str, distance: int) -> None:
        histogram = self.histogram(kind)
        histogram[distance] = histogram.get(distance, 0) + 1


def _producer_kind(op_class: OpClass) -> str:
    if op_class is OpClass.LOAD:
        return KIND_LOAD
    if op_class in (OpClass.INT_MUL, OpClass.INT_DIV):
        return KIND_LONG
    return KIND_UNIT


def collect_dependencies(trace: Trace, max_distance: int = MAX_DISTANCE) -> DependencyProfile:
    """Collect the dependency-distance profile of ``trace``.

    Answered by the active :mod:`repro.accel` kernel backend's dependency
    stream, driven over the whole trace as one chunk (the NumPy kernels
    resolve producers with vectorized searches over the packed columns,
    bit-identically to the reference walk in
    :class:`~repro.accel.kernels.PythonKernels`).
    """
    from repro.accel import get_kernels

    return get_kernels().dependency_profile(trace, max_distance)
