"""The mechanistic performance model for superscalar in-order processors.

Implements Eq. 1 of the paper:

    T = N / W + P_misses + P_LL + P_deps

with the penalty terms of Sections 3.3-3.5.  The model consumes

* a machine-independent :class:`~repro.profiler.program.ProgramProfile`
  (instruction mix, dependency-distance histograms),
* a program-machine :class:`~repro.profiler.machine_stats.MissProfile`
  (cache/TLB miss counts, branch misprediction and taken-branch counts), and
* a :class:`~repro.machine.MachineConfig` (width, front-end depth, latencies),

and produces a :class:`ModelResult` with the predicted cycle count and the
CPI stack.  Evaluating the model is a handful of arithmetic operations, which
is what gives the three-orders-of-magnitude speedup over detailed simulation
reported by the paper.

Eq. 1 lives here once, in two parts: a :class:`PenaltyRow` per machine —
the cycles charged per event, built from the :mod:`repro.core.penalties`
functions and cached — and :func:`_components`, which multiplies a
profile's counts by a row's charges in stacking order.
:meth:`InOrderMechanisticModel.predict` evaluates one point and
:func:`predict_many` one program on a list of machines; every kernel
backend answers batches through the latter, and the sampled estimator
reads its per-event charges from the same row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from repro.core import penalties
from repro.core.cpi_stack import CPIComponent, CPIStack
from repro.machine import MachineConfig
from repro.profiler.machine_stats import MissProfile, profile_machine
from repro.profiler.program import ProgramProfile, profile_program


@dataclass
class ModelResult:
    """Prediction of the mechanistic model for one (workload, machine) pair."""

    name: str
    machine: MachineConfig
    instructions: int
    stack: CPIStack

    @property
    def cycles(self) -> float:
        return self.stack.total_cycles

    @property
    def cpi(self) -> float:
        return self.stack.cpi

    @property
    def ipc(self) -> float:
        return 1.0 / self.cpi if self.cpi else 0.0

    @property
    def execution_time_seconds(self) -> float:
        return self.cycles * self.machine.cycle_ns * 1e-9


class PenaltyRow(NamedTuple):
    """The cycles Eq. 1 charges per event on one machine.

    Each charge is named after the count it multiplies and is one
    :mod:`repro.core.penalties` function evaluated at the machine's
    latencies and width.  An ablated ingredient is switched off here and
    nowhere else: the slot correction by evaluating the functions at
    W = 1, where (W - 1)/(2W) is exactly 0.0, the taken-branch bubble by a
    0.0 charge, and the dependency terms by ``dependencies=False``.
    """

    width: int
    #: Eq. 6 at the multiply and divide latencies.
    multiplies: float
    divides: float
    #: Eq. 6 at the L1 hit latency (0.0 for a one-cycle L1).
    data_accesses: float
    #: Eq. 6 at L1 hit + L2 access: a data miss the L2 serves.
    l1d_misses: float
    #: Eq. 3 at the L2, memory and page-walk latencies.
    l1i_misses: float
    il2_misses: float
    dl2_misses: float
    itlb_misses: float
    dtlb_misses: float
    #: Eq. 4.
    mispredictions: float
    #: Section 3.3.
    taken_bubbles: float
    #: Whether the Section 3.5 dependency terms are charged.
    dependencies: bool


@lru_cache(maxsize=4096)
def _penalty_row(machine: MachineConfig, taken_branch: bool,
                 slot_correction: bool, dependencies: bool) -> PenaltyRow:
    width = machine.width if slot_correction else 1
    memory = penalties.cache_miss_penalty(machine.memory_cycles, width)
    tlb = penalties.cache_miss_penalty(machine.tlb_miss_cycles, width)
    return PenaltyRow(
        width=machine.width,
        multiplies=penalties.long_latency_penalty(machine.mul_latency, width),
        divides=penalties.long_latency_penalty(machine.div_latency, width),
        data_accesses=penalties.long_latency_penalty(
            machine.l1_hit_cycles, width
        ),
        l1d_misses=penalties.long_latency_penalty(
            machine.l1_hit_cycles + machine.l2_hit_cycles, width
        ),
        l1i_misses=penalties.cache_miss_penalty(machine.l2_hit_cycles, width),
        il2_misses=memory,
        dl2_misses=memory,
        itlb_misses=tlb,
        dtlb_misses=tlb,
        mispredictions=penalties.branch_misprediction_penalty(
            machine.frontend_depth, width
        ),
        taken_bubbles=penalties.taken_branch_penalty() if taken_branch else 0.0,
        dependencies=dependencies,
    )


def _program_terms(program: ProgramProfile, row: PenaltyRow) -> tuple:
    """What Eq. 1 reads from ``program`` at the row's width: N/W, the
    multiply, divide and data-access counts, and the Eqs. 11, 12 and 16
    dependency totals (0.0 when the row ablates dependencies)."""
    unit = long_ = load = 0.0
    if row.dependencies:
        deps = program.dependencies
        unit = penalties.unit_dependency_total(deps.unit, row.width)
        long_ = penalties.long_dependency_total(deps.long, row.width)
        load = penalties.load_dependency_total(deps.load, row.width)
    return (program.instructions / row.width, program.multiplies,
            program.divides, program.loads + program.stores, unit, long_, load)


#: The CPI-stack components of Eq. 1, in stacking order.
_STACK_ORDER = (
    CPIComponent.BASE, CPIComponent.MUL, CPIComponent.DIV,
    CPIComponent.L1_HIT_EXTRA, CPIComponent.DL1_MISS, CPIComponent.IL1_MISS,
    CPIComponent.IL2_MISS, CPIComponent.DL2_MISS, CPIComponent.ITLB_MISS,
    CPIComponent.DTLB_MISS, CPIComponent.BPRED_MISS, CPIComponent.BPRED_TAKEN,
    CPIComponent.DEP_UNIT, CPIComponent.DEP_LONG, CPIComponent.DEP_LOAD,
)
_STACK_NAMES = tuple(component.value for component in _STACK_ORDER)


def _components(terms: tuple, misses: MissProfile,
                row: PenaltyRow) -> tuple[float, ...]:
    """Eq. 1 term by term, in stacking order: each count times its charge."""
    base, multiplies, divides, data_accesses, unit, long_, load = terms
    return (
        base,
        multiplies * row.multiplies,
        divides * row.divides,
        data_accesses * row.data_accesses,
        misses.l1d_misses * row.l1d_misses,
        misses.l1i_misses * row.l1i_misses,
        misses.il2_misses * row.il2_misses,
        misses.dl2_misses * row.dl2_misses,
        misses.itlb_misses * row.itlb_misses,
        misses.dtlb_misses * row.dtlb_misses,
        misses.mispredictions * row.mispredictions,
        misses.taken_bubbles * row.taken_bubbles,
        unit,
        long_,
        load,
    )


class InOrderMechanisticModel:
    """Analytical CPI model for a W-wide superscalar in-order processor.

    Parameters
    ----------
    machine:
        The processor configuration to model.
    include_taken_branch_penalty:
        Model the one-cycle fetch bubble of predicted-taken branches
        (Section 3.3).  Exposed as a switch so the ablation tests can
        quantify its contribution.
    include_slot_correction:
        Apply the (W-1)/(2W) uniform-placement correction to miss and
        long-latency penalties (Eqs. 3, 4 and 6).
    include_dependency_penalty:
        Model inter-instruction dependencies (Section 3.5).
    """

    def __init__(self, machine: MachineConfig, *,
                 include_taken_branch_penalty: bool = True,
                 include_slot_correction: bool = True,
                 include_dependency_penalty: bool = True):
        self.machine = machine
        self.include_taken_branch_penalty = include_taken_branch_penalty
        self.include_slot_correction = include_slot_correction
        self.include_dependency_penalty = include_dependency_penalty

    @property
    def penalty_row(self) -> PenaltyRow:
        """The per-event charges this model applies (cached per machine)."""
        return _penalty_row(self.machine, self.include_taken_branch_penalty,
                            self.include_slot_correction,
                            self.include_dependency_penalty)

    def predict(self, program: ProgramProfile, misses: MissProfile) -> ModelResult:
        """Evaluate the model (Eq. 1) and return the predicted CPI stack."""
        row = self.penalty_row
        stack = CPIStack(name=program.name, instructions=program.instructions)
        for component, cycles in zip(
            _STACK_ORDER, _components(_program_terms(program, row), misses, row)
        ):
            stack.add(component, cycles)
        return ModelResult(name=program.name, machine=self.machine,
                           instructions=program.instructions, stack=stack)

    def predict_trace(self, trace) -> ModelResult:
        """Profile ``trace`` for this machine and evaluate the model."""
        program = profile_program(trace)
        misses = profile_machine(trace, self.machine)
        return self.predict(program, misses)


def predict_many(program: ProgramProfile, profiles,
                 machines) -> list[tuple[float, dict[str, float]]]:
    """The model for one program on many machines, in served form.

    ``profiles`` and ``machines`` are parallel lists.  Each result is
    ``(cycles, cpi_stack)``, the stack mapping component names to cycles
    in stacking order — bit for bit the cycles and stack of
    :meth:`InOrderMechanisticModel.predict` on that point.  The program's
    terms are computed once per width.
    """
    terms_by_width: dict[int, tuple] = {}
    results = []
    for misses, machine in zip(profiles, machines, strict=True):
        row = _penalty_row(machine, True, True, True)  # the full model
        terms = terms_by_width.get(row.width)
        if terms is None:
            terms = terms_by_width[row.width] = _program_terms(program, row)
        stack = {name: cycles for name, cycles
                 in zip(_STACK_NAMES, _components(terms, misses, row))
                 if cycles > 0}
        results.append((sum(stack.values()), stack))
    return results


def predict_workload(workload, machine: MachineConfig,
                     program: ProgramProfile | None = None) -> ModelResult:
    """Convenience wrapper: profile a workload (if needed) and run the model.

    ``program`` may be passed in to reuse a machine-independent profile across
    many machine configurations, which is exactly the paper's use case: profile
    once, explore the design space analytically.
    """
    trace = workload.trace()
    if program is None:
        program = profile_program(trace)
    misses = profile_machine(trace, machine)
    model = InOrderMechanisticModel(machine)
    return model.predict(program, misses)
