"""Program-machine statistics: miss-event counts for one configuration.

The counts are assembled from the single-pass stack-distance engine
(:mod:`repro.profiler.single_pass_engine`), which walks the trace once per
cache geometry and once per branch predictor and answers every machine
configuration from cached histograms.  Every cache and TLB is true LRU, so
by the stack inclusion property the counts are exactly those of replaying
the trace through the hierarchy, and they are the same miss events the
detailed simulators see: the model's prediction error measures modeling
error, not measurement noise.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine import MachineConfig
from repro.trace.trace import Trace


@dataclass
class MissProfile:
    """Miss-event counts for one (trace, machine) pair."""

    machine: MachineConfig
    instructions: int
    # Instruction side.
    l1i_misses: int = 0
    il2_misses: int = 0
    itlb_misses: int = 0
    # Data side (loads and stores).
    l1d_misses: int = 0
    dl2_misses: int = 0
    dtlb_misses: int = 0
    #: DL2 misses that start a new "miss run" (no other DL2 miss in the
    #: preceding ``rob`` instructions) — used by the out-of-order interval
    #: model to estimate memory-level parallelism.
    dl2_miss_runs: int = 0
    # Branches.
    mispredictions: int = 0
    taken_bubbles: int = 0
    conditional_branches: int = 0

    @property
    def l1i_l2_hits(self) -> int:
        return self.l1i_misses - self.il2_misses

    @property
    def l1d_l2_hits(self) -> int:
        return self.l1d_misses - self.dl2_misses

    @property
    def misprediction_rate(self) -> float:
        if self.conditional_branches == 0:
            return 0.0
        return self.mispredictions / self.conditional_branches


def profile_machine(trace: Trace, machine: MachineConfig,
                    mlp_window: int = 64) -> MissProfile:
    """Collect the miss-event counts of ``trace`` on ``machine``.

    ``mlp_window`` is the instruction window used to group data L2 misses
    into overlapping runs (an out-of-order core with a reorder buffer of that
    size could overlap them); the in-order model ignores it.

    The answer comes from the single-pass engine cached on the trace (one
    trace walk per cache geometry, amortized across configurations).
    """
    from repro.profiler.single_pass_engine import SinglePassEngine

    return SinglePassEngine.for_trace(trace).miss_profile(machine, mlp_window)
