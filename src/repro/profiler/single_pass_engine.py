"""Single-pass design-space profiling engine.

Replaying the full dynamic trace through a cache hierarchy and branch
predictor costs one trace walk for *every* machine configuration.  This
engine exploits the LRU stack inclusion property [Hill & Smith; Mattson et
al.] to profile each trace **once per cache geometry** instead:

* one *base pass* per L1/TLB front-end geometry walks the trace once,
  collecting stack-distance histograms for the L1I, the L1D and both
  fully-associative TLBs, and produces the interleaved stream of L1 misses —
  exactly the access stream the unified L2 observes;
* one *L2 pass* per (sets, line size) geometry runs stack distances over
  that (much shorter) stream, splitting instruction- and data-side
  histograms and producing the data-side (sequence, distance) pairs needed
  for the out-of-order model's miss-run (MLP) statistic;
* one *branch pass* per predictor specification replays only the control
  instructions through the predictor.

Because every structure is true-LRU, an access with stack distance ``d``
hits in an ``a``-way cache iff ``d < a`` — so the cached histograms answer
miss counts for *all* associativities, sizes and TLB capacities in a design
space without re-walking the trace, bit-identically to a full replay (the
object-replay hierarchy of the test suite checks exactly that).

The engine takes either trace form and drives the active :mod:`repro.accel`
backend's chunk-resumable streams over it.  A resident :class:`Trace` is
walked as one chunk, and its passes keep the L1-miss stream and the L2
data-side columns, so a new L2 geometry or ``(associativity, mlp_window)``
pair is answered from them without another walk.  A
:class:`~repro.trace.trace.ChunkedTrace` is streamed one chunk at a time and
keeps neither, so peak memory is one chunk plus state proportional to the
footprint; miss runs are accumulated during the walk for the pairs the
requested machines need, and a streamed walk builds the program profile
alongside the passes when it is still missing.  Both forms answer
bit-identically, on either kernel backend.
"""

from __future__ import annotations

from repro.accel import BaseGeometry, Kernels, get_kernels
from repro.accel.kernels import PredictorBranchStream
from repro.branch.predictors import make_predictor
from repro.branch.profiler import BranchProfile
from repro.machine import MachineConfig, MachineMemo
from repro.profiler.dependences import MAX_DISTANCE
from repro.profiler.machine_stats import MissProfile
from repro.profiler.program import ProgramProfile
from repro.trace.trace import ChunkedTrace, Trace

#: Version of the engine's cached-pass layout.  The on-disk artifact cache
#: (:mod:`repro.runtime.artifacts`) keys persisted engine state on this
#: number; bump it whenever the pass dataclasses or their keying change.
#: v2: passes moved to :mod:`repro.accel` and carry suffix-sum caches.
#: v3: one engine for both trace forms; L2 keys hold the front-end
#: geometry itself, the program profile replaces the control stream.
ENGINE_SCHEMA_VERSION = 3


def pass_keys(machine: MachineConfig) -> tuple[BaseGeometry, tuple]:
    """The (base, L2) pass keys answering ``machine``.

    The base key is the L1/TLB front-end geometry; the L2 key is
    ``(front-end geometry, L2 sets, line size)``.  Both are stable across
    processes (unlike ``id``), so persisted passes stay addressable.
    """
    line = machine.line_size
    base = BaseGeometry(
        machine.l1i_size, machine.l1i_associativity,
        machine.l1d_size, machine.l1d_associativity,
        line, machine.page_size,
    )
    return base, (base, machine.l2_size // (machine.l2_associativity * line),
                  line)


def miss_key(machine: MachineConfig) -> tuple:
    """The fields of ``machine`` that decide its miss events: machines with
    equal keys have equal :class:`MissProfile` counts on a trace."""
    return (
        machine.l1i_size, machine.l1i_associativity,
        machine.l1d_size, machine.l1d_associativity,
        machine.line_size, machine.page_size, machine.tlb_entries,
        machine.l2_size, machine.l2_associativity,
        machine.branch_predictor,
    )


#: :func:`miss_key` of each of a list of machines, memoized per machine
#: object (see :class:`~repro.machine.MachineMemo`).
miss_keys = MachineMemo(miss_key)


def branch_stream(kernels: Kernels, predictor_spec: str):
    """The backend's branch stream, or an interpreted replay of any
    registered predictor (e.g. a third-party registration)."""
    stream = kernels.branch_stream(predictor_spec)
    if stream is None:
        stream = PredictorBranchStream(make_predictor(predictor_spec))
    return stream


def assemble_miss_profile(machine: MachineConfig, instructions: int, base,
                          l2, branches: BranchProfile, mlp_window: int,
                          count_runs) -> MissProfile:
    """The :class:`MissProfile` of ``machine`` from its three passes."""
    l2_ways = machine.l2_associativity
    return MissProfile(
        machine=machine,
        instructions=instructions,
        l1i_misses=base.l1i.misses(machine.l1i_associativity),
        il2_misses=l2.instruction_misses(l2_ways),
        itlb_misses=base.itlb.misses(machine.tlb_entries),
        l1d_misses=base.l1d.misses(machine.l1d_associativity),
        dl2_misses=l2.data_misses(l2_ways),
        dtlb_misses=base.dtlb.misses(machine.tlb_entries),
        dl2_miss_runs=l2.data_miss_runs(l2_ways, mlp_window, count_runs),
        mispredictions=branches.mispredictions,
        taken_bubbles=branches.taken_bubbles,
        conditional_branches=branches.conditional_branches,
    )


class SinglePassEngine:
    """Amortized miss-event profiling of one trace across a design space.

    All passes are cached, so evaluating ``n`` machine configurations that
    share L1/TLB geometry costs one trace walk plus one short L2 pass per
    distinct L2 (sets, line size) geometry and one branch replay per
    distinct predictor — instead of ``n`` full replays.  Each
    :meth:`profile_machines` call walks the trace at most once, updating
    only the streams whose results are not cached yet.
    """

    def __init__(self, trace: Trace | ChunkedTrace,
                 kernels: Kernels | None = None):
        self.trace = trace
        self.kernels = kernels if kernels is not None else get_kernels()
        #: A resident trace is walked as one chunk and its passes keep
        #: their stream columns; a chunked trace is streamed and keeps none.
        self._resident = not isinstance(trace, ChunkedTrace)
        self._base_passes: dict[BaseGeometry, object] = {}
        self._l2_passes: dict[tuple, object] = {}
        self._branch_profiles: dict[str, BranchProfile] = {}
        self._program: ProgramProfile | None = None
        #: Number of trace walks performed (observability / tests).
        self.walks = 0

    @classmethod
    def for_trace(cls, trace: Trace | ChunkedTrace) -> "SinglePassEngine":
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
        """Number of cached passes (base + L2 + branch + program).

        The session layer compares this before and after a profile request to
        decide whether the persisted engine state is stale.
        """
        return (
            len(self._base_passes)
            + len(self._l2_passes)
            + len(self._branch_profiles)
            + (1 if self._program is not None else 0)
        )

    def export_state(self) -> dict:
        """All cached passes as one picklable blob (keys are geometry tuples)."""
        return {
            "base_passes": dict(self._base_passes),
            "l2_passes": dict(self._l2_passes),
            "branch_profiles": dict(self._branch_profiles),
            "program": self._program,
        }

    def install_state(self, state: dict) -> None:
        """Adopt passes previously captured with :meth:`export_state`.

        Passes computed since the export win on key collisions (they are
        bit-identical anyway — the engine is deterministic per trace,
        whichever kernel backend produced them).
        """
        for attr, key in (("_base_passes", "base_passes"),
                          ("_l2_passes", "l2_passes"),
                          ("_branch_profiles", "branch_profiles")):
            merged = dict(state[key])
            merged.update(getattr(self, attr))
            setattr(self, attr, merged)
        if self._program is None:
            self._program = state["program"]

    # ------------------------------------------------------------------
    # The walk.
    # ------------------------------------------------------------------
    def _ensure(self, keyed, mlp_window: int = 64, *, program: bool = False,
                predictors=()) -> None:
        """Build every pass the request still misses, in at most one walk.

        ``keyed`` holds ``(machine, base key, L2 key)`` triples.
        """
        missing_l2: dict[tuple, set] = {}
        missing_branches = set()
        for spec in predictors:
            if spec not in self._branch_profiles:
                missing_branches.add(spec)
        for machine, base_key, l2_key in keyed:
            cached = self._l2_passes.get(l2_key)
            ways = machine.l2_associativity
            if (cached is None or base_key not in self._base_passes
                    or not cached.answers_runs(ways, mlp_window)):
                missing_l2.setdefault(l2_key, set()).add((ways, mlp_window))
            if machine.branch_predictor not in self._branch_profiles:
                missing_branches.add(machine.branch_predictor)
        # A streamed walk is expensive, so it also builds the program
        # profile when that is still missing.
        program = self._program is None and (program or not self._resident)

        kernels = self.kernels
        l2_streams = {}
        for key, run_keys in missing_l2.items():
            cached = self._l2_passes.get(key)
            if self._resident:
                # Kept data columns answer every (associativity, window).
                run_keys = ()
            elif cached is not None:
                # A new (associativity, window) pair: re-stream this L2 with
                # the union so the refreshed pass still answers every
                # previously accumulated pair.
                run_keys = run_keys | set(cached._runs)
            l2_streams[key] = kernels.l2_stream(key[1], key[2],
                                                sorted(run_keys))
        if self._resident:
            # A cached front end's kept L1-miss stream feeds a new L2
            # geometry without walking the trace again.
            for key in [key for key in l2_streams
                        if key[0] in self._base_passes]:
                base = self._base_passes[key[0]]
                stream = l2_streams.pop(key)
                self._finish_l2(key, stream, stream.update(
                    base.l2_addrs, base.l2_sides, base.l2_seqs))
        if not (l2_streams or missing_branches or program):
            return
        # Every other L2 stream is fed by its front end during the walk (a
        # streamed engine keeps no miss stream, so it re-streams a cached
        # front end, bit-identically).
        base_streams = {
            geometry: kernels.base_stream(geometry)
            for geometry in {key[0] for key in l2_streams}
        }
        branch_streams = {
            spec: branch_stream(kernels, spec) for spec in missing_branches
        }
        dependency_stream = mix_stream = None
        if program:
            dependency_stream = kernels.dependency_stream(self.trace.statics,
                                                          MAX_DISTANCE)
            mix_stream = kernels.mix_stream()

        self.walks += 1
        chunks = (self.trace,) if self._resident else self.trace.chunks()
        slices: dict = {}
        data: dict = {}
        for chunk in chunks:
            slices = {geometry: stream.update(chunk)
                      for geometry, stream in base_streams.items()}
            data = {key: stream.update(*slices[key[0]])
                    for key, stream in l2_streams.items()}
            if branch_streams:
                controls = kernels.control_stream(chunk)
                for stream in branch_streams.values():
                    stream.update(controls)
            if program:
                dependency_stream.update(chunk)
                mix_stream.update(chunk)

        # A resident walk is one chunk: its last slices are whole columns.
        for geometry, stream in base_streams.items():
            base = stream.finish()
            if self._resident:
                base = base.with_l2_stream(*slices[geometry])
            self._base_passes.setdefault(geometry, base)
        for key, stream in l2_streams.items():
            self._finish_l2(key, stream, data.get(key))
        for spec, stream in branch_streams.items():
            self._branch_profiles[spec] = stream.finish()
        if program:
            self._program = ProgramProfile(
                name=self.trace.name,
                instructions=len(self.trace),
                mix=mix_stream.finish(),
                dependencies=dependency_stream.finish(),
            )

    def _finish_l2(self, key: tuple, stream, data) -> None:
        l2 = stream.finish()
        self._l2_passes[key] = l2.with_data(*data) if self._resident else l2

    # ------------------------------------------------------------------
    # Answers.
    # ------------------------------------------------------------------
    def profile_machines(self, machines,
                         mlp_window: int = 64) -> list[MissProfile]:
        """Miss profiles for ``machines``; at most one trace walk."""
        keyed = [(machine, *pass_keys(machine)) for machine in machines]
        self._ensure(keyed, mlp_window)
        return [self._assemble(entry, mlp_window) for entry in keyed]

    def miss_profile(self, machine: MachineConfig,
                     mlp_window: int = 64) -> MissProfile:
        """The :class:`MissProfile` of ``machine`` (cached passes)."""
        entry = (machine, *pass_keys(machine))
        self._ensure((entry,), mlp_window)
        return self._assemble(entry, mlp_window)

    def _assemble(self, entry: tuple, mlp_window: int) -> MissProfile:
        machine, base_key, l2_key = entry
        return assemble_miss_profile(
            machine, len(self.trace), self._base_passes[base_key],
            self._l2_passes[l2_key],
            self._branch_profiles[machine.branch_predictor], mlp_window,
            self.kernels.count_runs,
        )

    def branch_profile(self, predictor_spec: str) -> BranchProfile:
        """Branch statistics for one predictor configuration (cached)."""
        self._ensure((), predictors=(predictor_spec,))
        return self._branch_profiles[predictor_spec]

    def program_profile(self) -> ProgramProfile:
        """The machine-independent program profile (one walk, cached)."""
        self._ensure((), program=True)
        return self._program
