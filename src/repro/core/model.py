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
functions and cached — and :func:`_stack`, which multiplies a profile's
counts by a row's charges in stacking order.
:meth:`InOrderMechanisticModel.predict` evaluates one point and
:func:`predict_many` one program on a list of machines, in columns; every
kernel backend answers batches through the latter, and the sampled
estimator reads its per-event charges from the same row.

A warm design-space sweep pays for Eq. 1 per distinct input, not per
point: :func:`predict_many` reads each machine's row from a memo keyed by
the machine object (a batch's machine table holds one object per distinct
machine, so the read is an ``id()`` instead of a hash over the machine's
fields), each distinct miss profile's counts once, and the program's terms
once per width.  Per point only Eq. 1's products, the filtered stack dict
and its builtin ``sum`` remain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import NamedTuple

from repro.core import penalties
from repro.core.cpi_stack import CPIComponent, CPIStack
from repro.machine import MachineConfig, MachineMemo
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


def _counts(misses: MissProfile) -> tuple:
    """The miss-event counts Eq. 1 charges, in stacking order."""
    return (misses.l1d_misses, misses.l1i_misses, misses.il2_misses,
            misses.dl2_misses, misses.itlb_misses, misses.dtlb_misses,
            misses.mispredictions, misses.taken_bubbles)


def _stack(terms: tuple, counts: tuple, row: PenaltyRow) -> dict[str, float]:
    """Eq. 1 term by term, in stacking order: each count times its charge.

    Returns the CPI stack as :class:`~repro.core.cpi_stack.CPIComponent`
    value -> cycles, keeping only the components above zero.  Written out
    term by term because this runs once per design point: a loop over the
    components costs a warm sweep about half again as much.
    """
    base, multiplies, divides, data_accesses, unit, long_, load = terms
    (l1d_misses, l1i_misses, il2_misses, dl2_misses, itlb_misses,
     dtlb_misses, mispredictions, taken_bubbles) = counts
    (_, per_multiply, per_divide, per_access, per_l1d, per_l1i, per_il2,
     per_dl2, per_itlb, per_dtlb, per_misprediction, per_taken, _) = row
    stack = {}
    if base > 0:
        stack["base"] = base
    if (cycles := multiplies * per_multiply) > 0:
        stack["mul"] = cycles
    if (cycles := divides * per_divide) > 0:
        stack["div"] = cycles
    if (cycles := data_accesses * per_access) > 0:
        stack["l1_hit_extra"] = cycles
    if (cycles := l1d_misses * per_l1d) > 0:
        stack["dl1_miss"] = cycles
    if (cycles := l1i_misses * per_l1i) > 0:
        stack["il1_miss"] = cycles
    if (cycles := il2_misses * per_il2) > 0:
        stack["il2_miss"] = cycles
    if (cycles := dl2_misses * per_dl2) > 0:
        stack["dl2_miss"] = cycles
    if (cycles := itlb_misses * per_itlb) > 0:
        stack["itlb_miss"] = cycles
    if (cycles := dtlb_misses * per_dtlb) > 0:
        stack["dtlb_miss"] = cycles
    if (cycles := mispredictions * per_misprediction) > 0:
        stack["bpred_miss"] = cycles
    if (cycles := taken_bubbles * per_taken) > 0:
        stack["bpred_taken"] = cycles
    if unit > 0:
        stack["dep_unit"] = unit
    if long_ > 0:
        stack["dep_long"] = long_
    if load > 0:
        stack["dep_load"] = load
    return stack


_WIDTH = attrgetter("width")

#: The full model's row of each machine object (see the module docstring).
_full_rows = MachineMemo(
    lambda machine: _penalty_row(machine, True, True, True))


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
        for name, cycles in _stack(_program_terms(program, row),
                                   _counts(misses), row).items():
            stack.add(CPIComponent(name), cycles)
        return ModelResult(name=program.name, machine=self.machine,
                           instructions=program.instructions, stack=stack)

    def predict_trace(self, trace) -> ModelResult:
        """Profile ``trace`` for this machine and evaluate the model."""
        program = profile_program(trace)
        misses = profile_machine(trace, self.machine)
        return self.predict(program, misses)


def predict_many(program: ProgramProfile, profiles, machines
                 ) -> tuple[list[float], list[dict[str, float]]]:
    """The model for one program on many machines, in served form.

    ``profiles`` and ``machines`` are parallel lists.  The answer is two
    columns in machine order: the cycles, and the CPI stacks, each
    mapping component names to cycles in stacking order (components of
    at most zero left out) — bit for bit the cycles and stack of
    :meth:`InOrderMechanisticModel.predict` on that point, the cycles
    being the builtin ``sum`` of the stack.  Each machine's row is read
    from the per-object memo, each distinct miss profile's counts once
    and the program's terms once per width; the columns are lined up with
    ``map``, so per point only Eq. 1's products, the stack and its sum
    cost interpreted work.
    """
    rows = _full_rows(machines)
    if len(rows) != len(profiles):
        raise ValueError(f"{len(profiles)} miss profiles for "
                         f"{len(rows)} machines")
    profile_ids = list(map(id, profiles))
    counts_of = {profile_id: _counts(misses) for profile_id, misses
                 in dict(zip(profile_ids, profiles)).items()}
    widths = list(map(_WIDTH, rows))
    terms_of = {width: _program_terms(program, row)
                for width, row in dict(zip(widths, rows)).items()}
    stacks = list(map(_stack, map(terms_of.__getitem__, widths),
                      map(counts_of.__getitem__, profile_ids), rows))
    return list(map(sum, map(dict.values, stacks))), stacks


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
