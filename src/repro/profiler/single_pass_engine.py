"""Single-pass design-space profiling engine.

The legacy profiler replays the full dynamic trace through a fresh
:class:`~repro.memory.hierarchy.CacheHierarchy` and branch predictor for
*every* machine configuration.  This engine exploits the LRU stack inclusion
property [Hill & Smith; Mattson et al.] to profile each trace **once per
cache geometry** instead:

* one *base pass* per L1/TLB front-end geometry walks the trace once,
  collecting stack-distance histograms for the L1I, the L1D and both
  fully-associative TLBs, and records the interleaved stream of L1 misses —
  exactly the access stream the unified L2 observes;
* one *L2 pass* per (sets, line size) geometry runs stack distances over
  that (much shorter) stream, splitting instruction- and data-side
  histograms and keeping the data-side (sequence, distance) pairs needed for
  the out-of-order model's miss-run (MLP) statistic;
* one *branch pass* per predictor specification replays only the control
  instructions (extracted once into packed arrays) through the predictor.

Because every structure is true-LRU, an access with stack distance ``d``
hits in an ``a``-way cache iff ``d < a`` — so the cached histograms answer
miss counts for *all* associativities, sizes and TLB capacities in a design
space without re-walking the trace, bit-identically to the legacy replay.

The passes themselves are computed by the active :mod:`repro.accel` kernel
backend — vectorized NumPy kernels when available, the stdlib reference
otherwise; both produce bit-identical passes, so engine state is portable
across backends (and across the artifact cache).
"""

from __future__ import annotations

from repro.accel import BaseGeometry, BasePass, Kernels, L2Pass, get_kernels
from repro.branch.predictors import make_predictor
from repro.branch.profiler import BranchProfile, profile_control_stream
from repro.machine import MachineConfig
from repro.profiler.machine_stats import MissProfile
from repro.trace.trace import Trace

#: Version of the engine's cached-pass layout.  The on-disk artifact cache
#: (:mod:`repro.runtime.artifacts`) keys persisted engine state on this
#: number; bump it whenever the pass dataclasses or their keying change.
#: v2: passes moved to :mod:`repro.accel` and carry suffix-sum caches.
ENGINE_SCHEMA_VERSION = 2


class SinglePassEngine:
    """Amortized miss-event profiling of one trace across a design space.

    All passes are cached, so evaluating ``n`` machine configurations that
    share L1/TLB geometry costs one trace walk plus one short L2 pass per
    distinct L2 (sets, line size) geometry and one branch replay per
    distinct predictor — instead of ``n`` full replays.
    """

    def __init__(self, trace: Trace, kernels: Kernels | None = None):
        self.trace = trace
        self.kernels = kernels if kernels is not None else get_kernels()
        self._base_passes: dict[tuple, BasePass] = {}
        self._l2_passes: dict[tuple, L2Pass] = {}
        self._branch_profiles: dict[str, BranchProfile] = {}
        self._control_stream = None

    @classmethod
    def for_trace(cls, trace: Trace) -> "SinglePassEngine":
        """The engine attached to ``trace`` (created and cached on demand)."""
        engine = getattr(trace, "_single_pass_engine", None)
        if engine is None:
            engine = cls(trace)
            trace._single_pass_engine = engine
        return engine

    # ------------------------------------------------------------------
    # Persistence.
    # ------------------------------------------------------------------
    @property
    def pass_count(self) -> int:
        """Number of cached passes (base + L2 + branch); grows monotonically.

        The session layer compares this before and after a profile request to
        decide whether the persisted engine state is stale.
        """
        return (
            len(self._base_passes)
            + len(self._l2_passes)
            + len(self._branch_profiles)
            + (1 if self._control_stream is not None else 0)
        )

    def export_state(self) -> dict:
        """All cached passes as one picklable blob (keys are geometry tuples)."""
        return {
            "base_passes": dict(self._base_passes),
            "l2_passes": dict(self._l2_passes),
            "branch_profiles": dict(self._branch_profiles),
            "control_stream": self._control_stream,
        }

    def install_state(self, state: dict) -> None:
        """Adopt passes previously captured with :meth:`export_state`.

        Passes computed since the export win on key collisions (they are
        bit-identical anyway — the engine is deterministic per trace,
        whichever kernel backend produced them).
        """
        merged_base = dict(state["base_passes"])
        merged_base.update(self._base_passes)
        self._base_passes = merged_base
        merged_l2 = dict(state["l2_passes"])
        merged_l2.update(self._l2_passes)
        self._l2_passes = merged_l2
        merged_branches = dict(state["branch_profiles"])
        merged_branches.update(self._branch_profiles)
        self._branch_profiles = merged_branches
        if self._control_stream is None:
            self._control_stream = state["control_stream"]

    # ------------------------------------------------------------------
    # Passes.
    # ------------------------------------------------------------------
    @staticmethod
    def _base_key(machine: MachineConfig) -> BaseGeometry:
        """Front-end geometry key (stable across processes, unlike ``id``)."""
        return BaseGeometry(
            machine.l1i_size, machine.l1i_associativity,
            machine.l1d_size, machine.l1d_associativity,
            machine.line_size, machine.page_size,
        )

    def _base_pass(self, machine: MachineConfig) -> BasePass:
        key = self._base_key(machine)
        cached = self._base_passes.get(key)
        if cached is None:
            cached = self.kernels.base_pass(self.trace, key)
            self._base_passes[key] = cached
        return cached

    def _l2_pass(self, machine: MachineConfig) -> L2Pass:
        line = machine.line_size
        sets = machine.l2_size // (machine.l2_associativity * line)
        base_key = self._base_key(machine)
        # Keyed on the front-end geometry (not ``id(base)``) so persisted
        # passes stay addressable after a pickle round trip.
        key = (tuple(base_key), sets, line)
        cached = self._l2_passes.get(key)
        if cached is None:
            cached = self.kernels.l2_pass(self._base_pass(machine), sets, line)
            self._l2_passes[key] = cached
        return cached

    def _controls(self):
        """Packed (pc, taken, is conditional) stream of control instructions."""
        if self._control_stream is None:
            self._control_stream = self.kernels.control_stream(self.trace)
        return self._control_stream

    def branch_profile(self, predictor_spec: str) -> BranchProfile:
        """Branch statistics for one predictor configuration (cached)."""
        cached = self._branch_profiles.get(predictor_spec)
        if cached is not None:
            return cached
        controls = self._controls()
        profile = self.kernels.branch_profile(controls, predictor_spec)
        if profile is None:
            # No accelerated replay for this predictor (e.g. a third-party
            # registration): fall back to the interpreted reference replay.
            control_pcs, control_taken, control_conditional = controls
            profile = profile_control_stream(
                (
                    (pc, taken == 1, conditional == 1)
                    for pc, taken, conditional in zip(
                        control_pcs, control_taken, control_conditional
                    )
                ),
                make_predictor(predictor_spec),
            )
        self._branch_profiles[predictor_spec] = profile
        return profile

    # ------------------------------------------------------------------
    # Assembly.
    # ------------------------------------------------------------------
    def miss_profile(self, machine: MachineConfig,
                     mlp_window: int = 64) -> MissProfile:
        """Assemble the :class:`MissProfile` of ``machine`` from cached passes."""
        base = self._base_pass(machine)
        l2 = self._l2_pass(machine)
        branches = self.branch_profile(machine.branch_predictor)
        l2_ways = machine.l2_associativity
        return MissProfile(
            machine=machine,
            instructions=len(self.trace),
            l1i_misses=base.l1i.misses(machine.l1i_associativity),
            il2_misses=l2.instruction_misses(l2_ways),
            itlb_misses=base.itlb.misses(machine.tlb_entries),
            l1d_misses=base.l1d.misses(machine.l1d_associativity),
            dl2_misses=l2.data_misses(l2_ways),
            dtlb_misses=base.dtlb.misses(machine.tlb_entries),
            dl2_miss_runs=l2.data_miss_runs(l2_ways, mlp_window,
                                            self.kernels.count_runs),
            mispredictions=branches.mispredictions,
            taken_bubbles=branches.taken_bubbles,
            conditional_branches=branches.conditional_branches,
        )
