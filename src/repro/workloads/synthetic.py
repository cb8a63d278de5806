"""Statistical (synthetic) trace generation.

The paper's related-work section discusses statistical simulation [Eeckhout
et al.; Oskin et al.]: generating a synthetic instruction trace from a set of
program statistics.  This module provides that capability as an extension of
the workload suite.  It is useful for two things:

* stress-testing the mechanistic model and the detailed simulator on
  workloads with *controlled* characteristics (exact instruction mix,
  dependency-distance distribution, branch behaviour, memory footprint), and
* generating corner cases the hand-written kernels do not cover (e.g. very
  long dependency distances, extreme branch misprediction rates).

The generated object is a :class:`~repro.trace.trace.Trace`, so everything
downstream (profiler, analytical model, pipeline simulators) consumes it
exactly like a trace produced by the functional simulator.

Rows are drawn straight into packed columns, and a spec's trace and its
spill stores are byte-stable across versions because every row consumes
``random.Random(spec.seed)`` in one fixed order: one ``random()`` for the
class (tested by subtract-and-compare down the load, store, multiply,
divide, branch fractions); from the second row on, one ``random()`` for the
dependency distance (``random.choices`` arithmetic over the distances in
dict order); for loads and stores, one ``random()`` for streaming and, when
not streaming, one ``randrange(data_footprint_bytes // 4)``; for branches,
one ``random()`` for predictability, then one for the direction unless a
predictable branch's static slot already has one.  Statics are numbered in
first-appearance order.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, cycle, islice
from typing import Iterator

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.obs.tracing import span
from repro.trace.trace import INSTR_BYTES, NO_VALUE, OP_CLASS_IDS, Trace

#: Registers available to the generator (r0 is the zero register, excluded).
_NUM_REGS = 31
#: Base byte address of the synthetic data footprint.
_DATA_BASE = 0x100000

#: Row kinds (memory kinds first) and the static each one's interning key
#: ``(kind, dest, source)`` or ``(kind, source)`` builds on first appearance.
_LOAD, _STORE, _MUL, _DIV, _BRANCH, _ALU = range(6)
_STATICS = (
    lambda dest, src: Instruction(Opcode.LW, dest=dest, src1=src),
    lambda src: Instruction(Opcode.SW, src1=src, src2=src),
    lambda dest, src: Instruction(Opcode.MUL, dest=dest, src1=src, src2=src),
    lambda dest, src: Instruction(Opcode.DIV, dest=dest, src1=src, src2=src),
    lambda src: Instruction(Opcode.BNE, src1=src, src2=0, target="loop"),
    lambda dest, src: Instruction(Opcode.ADD, dest=dest, src1=src, src2=src),
)


@dataclass(frozen=True)
class SyntheticWorkloadSpec:
    """Statistical description of a synthetic workload.

    Fractions need not sum to one; the remainder becomes plain ALU work.
    ``dependency_distances`` maps distance -> weight and is sampled for every
    instruction that has a register source.
    """

    name: str = "synthetic"
    instructions: int = 20_000
    load_fraction: float = 0.2
    store_fraction: float = 0.08
    multiply_fraction: float = 0.02
    divide_fraction: float = 0.002
    branch_fraction: float = 0.12
    branch_taken_rate: float = 0.6
    #: Probability that a branch follows a fixed (learnable) pattern rather
    #: than being random: 1.0 means perfectly predictable loop-like branches.
    branch_predictability: float = 0.9
    dependency_distances: dict[int, float] = field(
        default_factory=lambda: {1: 0.35, 2: 0.25, 3: 0.15, 4: 0.10, 8: 0.10, 16: 0.05}
    )
    #: Size of the synthetic static code footprint, in instructions.
    static_code_size: int = 2_000
    #: Data working-set size in bytes; addresses are drawn from it.
    data_footprint_bytes: int = 64 * 1024
    #: Fraction of memory accesses that stream sequentially (the rest are
    #: uniform random within the footprint).
    streaming_fraction: float = 0.7
    seed: int = 2012

    def __post_init__(self) -> None:
        fractions = (
            self.load_fraction + self.store_fraction + self.multiply_fraction
            + self.divide_fraction + self.branch_fraction
        )
        if fractions > 1.0:
            raise ValueError("instruction class fractions exceed 1.0")
        for value in (self.load_fraction, self.store_fraction, self.multiply_fraction,
                      self.divide_fraction, self.branch_fraction,
                      self.branch_taken_rate, self.branch_predictability,
                      self.streaming_fraction):
            if not 0.0 <= value <= 1.0:
                raise ValueError("fractions and rates must lie in [0, 1]")
        if self.instructions <= 0:
            raise ValueError("instructions must be positive")
        if self.static_code_size <= 0:
            raise ValueError("static_code_size must be positive")
        if self.data_footprint_bytes < 4:
            raise ValueError("data_footprint_bytes must hold at least one word")
        if not self.dependency_distances:
            raise ValueError("dependency_distances must not be empty")
        if any(isinstance(d, bool) or not isinstance(d, int) or d < 1
               for d in self.dependency_distances):
            raise ValueError("dependency distances must be integers >= 1")
        weights = self.dependency_distances.values()
        if any(not isinstance(w, (int, float)) or not 0.0 <= w < math.inf
               for w in weights) \
                or not 0.0 < sum(weights) < math.inf:
            raise ValueError("dependency weights must be finite and "
                             "non-negative with a positive sum")


class SyntheticTraceGenerator:
    """Generates dynamic instruction traces matching a statistical spec."""

    def __init__(self, spec: SyntheticWorkloadSpec):
        self.spec = spec

    def generate(self) -> Trace:
        rows = self.spec.instructions
        with span("trace.synthetic", workload=self.spec.name, rows=rows,
                  chunks=1):
            (trace,) = self._chunks(rows, rows)
        return trace

    def generate_store(self, path, *, scale: int = 1,
                       chunk_length: int = 65536):
        """Stream ``scale * spec.instructions`` records into a spill store.

        Never holds more than one chunk of columns in memory: each chunk is
        drawn straight into packed columns and flushed through a
        :class:`~repro.trace.store.TraceStoreWriter`, with the statics table
        interned once across the whole stream (each flushed chunk carries
        the table as of its flush, which is the prefix-consistent layout the
        store's manifest expects).  This is how 100–1000x workloads are
        produced without 100–1000x memory.
        """
        from repro.trace.store import TraceStoreWriter

        if scale < 1:
            raise ValueError("scale must be at least 1")
        spec = self.spec
        total = spec.instructions * scale
        with span("trace.synthetic", workload=spec.name,
                  rows=total) as traced:
            writer = TraceStoreWriter(path, name=spec.name,
                                      chunk_length=chunk_length)
            for chunk in self._chunks(total, chunk_length):
                writer.append(chunk)
            chunked = writer.finalize()
            traced.set(chunks=chunked.num_chunks)
        return chunked

    def _chunks(self, total: int, chunk_length: int) -> Iterator[Trace]:
        """Yield ``total`` rows as packed-column chunks of ``chunk_length``."""
        spec = self.spec
        rng = random.Random(spec.seed)
        draw, randrange = rng.random, rng.randrange
        f_load, f_store, f_mul, f_div, f_branch = (
            spec.load_fraction, spec.store_fraction, spec.multiply_fraction,
            spec.divide_fraction, spec.branch_fraction)
        streaming, taken_rate = spec.streaming_fraction, spec.branch_taken_rate
        predictability = spec.branch_predictability
        footprint, code_size = spec.data_footprint_bytes, spec.static_code_size
        words = footprint // 4
        # What ``random.choices(distances, weights)`` computes per draw.
        distances = list(spec.dependency_distances)
        cum = list(accumulate(spec.dependency_distances.values()))
        weight_total, last = cum[-1] + 0.0, len(cum) - 1
        statics: list[Instruction] = []
        classes: list[int] = []
        slots: dict[tuple, int] = {}
        cursor = 0
        # Direction chosen once per static branch location: history-based
        # predictors learn these, so ``branch_predictability`` controls the
        # achievable prediction accuracy while the overall taken rate stays
        # at ``branch_taken_rate``.
        bias: dict[int, bool] = {}
        # The program walks a static code loop (row ``seq`` executes static
        # slot ``seq % static_code_size``), so the instruction-cache
        # behaviour is realistic.
        ring = array("q", range(0, code_size * INSTR_BYTES, INSTR_BYTES))

        for start in range(0, total, chunk_length):
            stop = min(start + chunk_length, total)
            mem_addrs = [NO_VALUE] * (stop - start)
            taken = mem_addrs.copy()
            static_index: list[int] = []
            for seq in range(start, stop):
                u = draw()
                # Rotating destinations keep the value written ``d`` rows
                # ago in a unique register for any d < _NUM_REGS, so
                # dependency distances are exact.
                dest = 1 + seq % _NUM_REGS
                if seq:
                    distance = distances[
                        bisect_right(cum, draw() * weight_total, 0, last)]
                    source = (1 + (seq - distance) % _NUM_REGS
                              if distance < seq else 1)
                else:
                    source = 0
                # Subtract-and-compare, not cumulative thresholds: float
                # rounding must pick the class earlier spill stores drew.
                if u < f_load:
                    key = (_LOAD, dest, source)
                elif (u := u - f_load) < f_store:
                    key = (_STORE, source)
                elif (u := u - f_store) < f_mul:
                    key = (_MUL, dest, source)
                elif (u := u - f_mul) < f_div:
                    key = (_DIV, dest, source)
                elif u - f_div < f_branch:
                    if draw() < predictability:
                        outcome = bias.get(seq % code_size)
                        if outcome is None:
                            outcome = bias[seq % code_size] = (
                                draw() < taken_rate)
                    else:
                        # Unpredictable branches flip per execution.
                        outcome = draw() < taken_rate
                    taken[seq - start] = outcome
                    key = (_BRANCH, source)
                else:
                    key = (_ALU, dest, source)
                if key[0] <= _STORE:
                    # Streaming accesses walk the footprint; the rest are
                    # uniform random words within it.
                    if draw() < streaming:
                        mem_addrs[seq - start] = _DATA_BASE + cursor
                        cursor = (cursor + 4) % footprint
                    else:
                        mem_addrs[seq - start] = (
                            _DATA_BASE + 4 * randrange(words))
                slot = slots.get(key)
                if slot is None:
                    slot = slots[key] = len(statics)
                    statics.append(_STATICS[key[0]](*key[1:]))
                    classes.append(OP_CLASS_IDS[statics[-1].op_class])
                static_index.append(slot)
            pcs = array("q", islice(cycle(ring), start % code_size,
                                    start % code_size + stop - start + 1))
            yield Trace.from_columns(
                statics=tuple(statics), name=spec.name, seq_start=start,
                pcs=pcs[:-1], next_pcs=pcs[1:],
                mem_addrs=array("q", mem_addrs),
                op_classes=array("b", map(classes.__getitem__, static_index)),
                taken=array("b", taken),
                static_index=array("q", static_index))


def generate_synthetic_trace(spec: SyntheticWorkloadSpec | None = None) -> Trace:
    """Convenience wrapper: generate a trace from ``spec`` (or the defaults)."""
    return SyntheticTraceGenerator(spec if spec is not None else SyntheticWorkloadSpec()).generate()


def generate_synthetic_store(path, spec: SyntheticWorkloadSpec | None = None,
                             *, scale: int = 1, chunk_length: int = 65536):
    """Stream a (possibly scaled) synthetic trace into a spill store at ``path``.

    ``scale`` multiplies ``spec.instructions``; peak memory stays bounded by
    one ``chunk_length`` chunk regardless of scale.  Returns the opened
    :class:`~repro.trace.trace.ChunkedTrace` backed by the store.
    """
    generator = SyntheticTraceGenerator(
        spec if spec is not None else SyntheticWorkloadSpec())
    return generator.generate_store(path, scale=scale,
                                    chunk_length=chunk_length)
