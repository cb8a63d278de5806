"""The experiment session: shared workloads, traces and profiling state.

A :class:`Session` is the single owner of everything the experiments used to
rebuild privately: workload compilation, functional-simulation traces,
machine-independent program profiles and the per-trace
:class:`~repro.profiler.single_pass_engine.SinglePassEngine` whose
cache-geometry histograms answer miss profiles for whole design spaces.  All
of it is memoized in process and — when the session is given a cache
directory — persisted through the content-addressed
:class:`~repro.runtime.artifacts.ArtifactCache`, so a trace is generated once
per machine, ever, and a second session against the same directory performs
zero workload compilations and zero trace generations.

Workload identity is ``(name, flags)`` where ``flags`` names the compiler
treatment (:data:`COMPILER_FLAGS`): ``"O3"`` is the instruction-scheduled
default the paper evaluates, ``"nosched"`` the kernel as written and
``"unroll"`` scheduling plus loop unrolling (the Figure 8 variants).

``session.map(fn, items)`` is the parallelism hook: with ``jobs > 1`` it
shards the items across a process pool whose workers run their own sessions
against the same cache directory (see :mod:`repro.runtime.scheduler`).
"""

from __future__ import annotations

import contextlib
import tempfile
import weakref
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

from repro.machine import MachineConfig
from repro.obs.tracing import span
from repro.profiler.machine_stats import MissProfile
from repro.profiler.program import ProgramProfile, profile_program
from repro.profiler.single_pass_engine import ENGINE_SCHEMA_VERSION, SinglePassEngine
from repro.resilience.faults import InjectedFault
from repro.runtime.artifacts import MISSING, ArtifactCache
from repro.trace.trace import Trace
from repro.trace.trace_schema import TRACE_SCHEMA_VERSION
from repro.workloads.base import Workload

#: Compiler treatments a session can build (the Figure 8 variants).
COMPILER_FLAGS = ("O3", "nosched", "unroll")

#: Version of the pickled :class:`ProgramProfile` payload.
PROGRAM_PROFILE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SessionSpec:
    """Everything needed to rebuild an equivalent session in another process."""

    cache_dir: str | None = None
    jobs: int = 1

    def create(self, jobs: int | None = None) -> "Session":
        return Session(cache_dir=self.cache_dir,
                       jobs=self.jobs if jobs is None else jobs)


#: The session's work counters, in report order.
SESSION_EVENTS = (
    "workloads_compiled",
    "traces_generated",
    "trace_cache_hits",
    "engine_state_loads",
    "engine_state_saves",
    "miss_profiles_built",
    "interval_cache_hits",
    "interval_profiles_built",
    "cache_corruptions",
    "sim_event_sets_built",
    "sim_timing_loops_run",
    "simulations_reused",
)


class SessionStats:
    """Work counters; the warm-cache tests assert the zeros directly.

    Historically a dataclass of eight ints; now a thin adapter over a
    :class:`~repro.obs.metrics.MetricsRegistry` counter family
    (``session_events_total{event=...}``) so the same numbers flow into
    the Prometheus exposition.  The fields stay plain attributes
    supporting ``stats.traces_generated += 1`` — each is a generated
    property whose setter installs the new running total.
    """

    __slots__ = ("_family",)

    def __init__(self, registry=None):
        from repro.obs.metrics import MetricsRegistry

        if registry is None:
            registry = MetricsRegistry()
        self._family = registry.counter(
            "session_events_total",
            "Session work counters: compilations, trace generations, "
            "cache hits, profile builds.",
            labels=("event",),
        )

    def as_dict(self) -> dict[str, int]:
        return {event: int(self._family.labels(event=event).value)
                for event in SESSION_EVENTS}


def _session_event_property(event: str) -> property:
    def _get(self) -> int:
        return int(self._family.labels(event=event).value)

    def _set(self, value: int) -> None:
        self._family.labels(event=event).set_total(value)

    return property(_get, _set)


for _event in SESSION_EVENTS:
    setattr(SessionStats, _event, _session_event_property(_event))
del _event


class _IntervalProfileCache:
    """Mapping facade over the artifact cache for warmed interval profiles.

    :func:`~repro.profiler.sampling.sample_evaluate` wants ``get`` +
    ``__setitem__`` keyed by a content address (warming-window digests,
    machine fingerprint, MLP window), so entries are shared across
    sampling rates, sessions and processes with no extra bookkeeping.
    """

    def __init__(self, cache: ArtifactCache):
        self._cache = cache

    def get(self, key: str):
        record = self._cache.load("interval", key=key)
        return None if record is MISSING else record

    def __setitem__(self, key: str, record) -> None:
        self._cache.store(record, "interval", key=key)


class Session:
    """Owns workload/trace/profile reuse for a batch of experiments."""

    def __init__(self, cache_dir=None, jobs: int = 1):
        from repro.obs.metrics import MetricsRegistry
        from repro.runtime.dataplane import StageTimings

        from repro.resilience.containment import PoolHealth, RetryPolicy

        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self.cache = ArtifactCache(cache_dir)
        #: One registry holds every counter this session maintains —
        #: work counters and stage timings alike — so the service's
        #: Prometheus exposition can render it wholesale.
        self.metrics = MetricsRegistry()
        self.stats = SessionStats(self.metrics)
        #: Per-stage (ship/attach/profile/model/collect) wall time of every
        #: batch this session evaluated; surfaced in /v1/metrics and bench.
        self.stages = StageTimings(self.metrics)
        #: Crash accounting, circuit-breaker state and the quarantine list
        #: for this session's pooled maps (``resilience_events_total``).
        self.health = PoolHealth(self.metrics)
        #: Containment budgets (tests and the chaos drill override this).
        self.retry_policy = RetryPolicy()
        # Corrupt cache entries self-heal to misses; count each one.
        self.cache.on_corruption = self._record_cache_corruption
        #: The persistent worker pool (created on first sharded map).
        self._pool = None
        self._pool_finalizer = None
        #: Shared-memory segment registry (created on first publish).
        self._segments = None
        self._segments_finalizer = None
        #: (name, flags) -> SegmentHandle of published traces.
        self._segment_handles: dict[tuple[str, str], object] = {}
        #: Set when shared memory failed at runtime: fall back to payloads.
        self._dataplane_failed = False
        self._workloads: dict[tuple[str, str], Workload] = {}
        #: id(trace) -> (name, flags) for traces this session manages.
        self._trace_tokens: dict[int, tuple[str, str]] = {}
        #: (name, flags) -> engine pass_count at the last load/store, used to
        #: skip rewriting the persisted state when nothing new was computed.
        self._engine_synced: dict[tuple[str, str], int] = {}
        #: token -> (trace, profile); the trace reference pins id() stability.
        self._program_profiles: dict[object, tuple[Trace, ProgramProfile]] = {}
        self._miss_profiles: dict[tuple, tuple[Trace, MissProfile]] = {}
        #: (token, machine) -> (trace, InOrderResult) of simulated points.
        self._simulations: dict[tuple, tuple[Trace, object]] = {}
        #: In-memory interval-profile store used when no cache directory is
        #: configured (same content-addressed keys as the on-disk cache).
        self._interval_memory: dict[str, object] = {}

    @property
    def spec(self) -> SessionSpec:
        cache_dir = str(self.cache.root) if self.cache.enabled else None
        return SessionSpec(cache_dir=cache_dir, jobs=self.jobs)

    # ------------------------------------------------------------------
    # Workloads and traces.
    # ------------------------------------------------------------------
    def _trace_key_fields(self, name: str, flags: str) -> dict:
        return {
            "workload": name,
            "flags": flags,
            "trace_version": TRACE_SCHEMA_VERSION,
        }

    def _compile(self, name: str, flags: str) -> Workload:
        """Build the workload from source (the expensive, cache-miss path)."""
        from repro.workloads import get_workload
        from repro.workloads.compiler import optimization_variants

        self.stats.workloads_compiled += 1
        if flags == "O3":
            return get_workload(name, use_cache=False, optimize=True)
        raw = get_workload(name, use_cache=False, optimize=False)
        if flags == "nosched":
            return raw
        return optimization_variants(raw)[flags]

    def workload(self, name: str, flags: str = "O3") -> Workload:
        """The workload for ``(name, flags)``, with its trace ready.

        On an artifact-cache hit the returned workload is a trace-only shim
        (no program or memory image): everything downstream of compilation —
        the profilers, the models, the detailed simulators — consumes only
        the dynamic trace.
        """
        if flags not in COMPILER_FLAGS:
            raise ValueError(
                f"unknown compiler flags {flags!r}; expected one of {COMPILER_FLAGS}"
            )
        key = (name, flags)
        cached = self._workloads.get(key)
        if cached is not None:
            return cached

        fields = self._trace_key_fields(name, flags)
        columns = self.cache.load("trace", **fields)
        if columns is not MISSING:
            self.stats.trace_cache_hits += 1
            workload = Workload.from_trace(Trace.from_columns(**columns))
            trace = workload.trace()
        else:
            with span("session.trace_generate", workload=name, flags=flags):
                with span("workload.compile", workload=name, flags=flags):
                    workload = self._compile(name, flags)
                with span("trace.functional", workload=name,
                          flags=flags) as functional:
                    trace = workload.trace()
                    functional.set(instructions=len(trace))
            self.stats.traces_generated += 1
            self.cache.store(trace.columns(), "trace", **fields)

        self._workloads[key] = workload
        self._trace_tokens[id(trace)] = key
        return workload

    def workloads(self, names: Sequence[str], flags: str = "O3") -> list[Workload]:
        return [self.workload(name, flags) for name in names]

    def adopt_trace(self, name: str, flags: str, trace: Trace) -> Workload:
        """Register an externally supplied trace as ``(name, flags)``.

        The sweep planner ships already-generated traces to pool workers as
        raw column bytes (:meth:`~repro.trace.trace.Trace.to_payload`); the
        worker adopts the rebuilt trace here so every downstream memo
        (program profiles, engine passes, artifact-cache persistence) keys
        on the session-managed ``(name, flags)`` token — no compilation, no
        cache round trip.  A workload the session already holds wins.
        """
        if flags not in COMPILER_FLAGS:
            raise ValueError(
                f"unknown compiler flags {flags!r}; expected one of {COMPILER_FLAGS}"
            )
        key = (name, flags)
        cached = self._workloads.get(key)
        if cached is not None:
            return cached
        workload = Workload.from_trace(trace)
        self._workloads[key] = workload
        self._trace_tokens[id(trace)] = key
        return workload

    def has_workload(self, name: str, flags: str = "O3") -> bool:
        """Whether this session already holds ``(name, flags)`` in memory."""
        return (name, flags) in self._workloads

    def trace_payload(self, name: str, flags: str = "O3") -> dict | None:
        """Column bytes of an already-loaded trace (``None`` when absent).

        Deliberately does not trigger compilation: the planner only ships a
        trace the parent session holds in memory; otherwise the worker
        builds or cache-loads it itself, which keeps cold batches parallel.
        """
        workload = self._workloads.get((name, flags))
        if workload is None:
            return None
        return workload.trace().to_payload()

    # ------------------------------------------------------------------
    # Data plane: shared-memory publishing.
    # ------------------------------------------------------------------
    def _segment_registry(self):
        from repro.runtime.dataplane import (
            SegmentRegistry,
            shared_memory_available,
        )

        if self._segments is None:
            if self._dataplane_failed or not shared_memory_available():
                self._dataplane_failed = True
                return None
            self._segments = SegmentRegistry()
            self._segments_finalizer = weakref.finalize(
                self, SegmentRegistry.close, self._segments
            )
        return self._segments

    def publish_trace(self, name: str, flags: str = "O3"):
        """The :class:`~repro.runtime.dataplane.SegmentHandle` of a
        parent-held trace, publishing it into shared memory on first use.

        Memoized per ``(name, flags)``: across every later batch — and,
        through the service's shared session, across every later request —
        the same segment is reused and only the tiny handle travels.
        Returns ``None`` when the trace is not loaded (same contract as
        :meth:`trace_payload`) or when shared memory is unusable (the
        caller falls back to payload shipping).
        """
        key = (name, flags)
        handle = self._segment_handles.get(key)
        if handle is not None:
            return handle
        workload = self._workloads.get(key)
        if workload is None:
            return None
        registry = self._segment_registry()
        if registry is None:
            return None
        try:
            handle = registry.publish(workload.trace())
        except (OSError, InjectedFault):
            # /dev/shm full or withdrawn mid-run (or a fault-plan rule at
            # the publish seam): degrade to payloads and report it
            # (dataplane_mode()) instead of failing the batch.
            self._dataplane_failed = True
            return None
        self._segment_handles[key] = handle
        return handle

    def ship_trace(self, name: str, flags: str = "O3"):
        """Transport form of a parent-held trace for pool workers.

        The active data plane decides the form: a shared-memory
        :class:`~repro.runtime.dataplane.SegmentHandle` (``shm``) or raw
        column bytes (``payload``), with automatic degradation when shared
        memory is unavailable or fails.  ``None`` when this session does
        not hold the trace (the worker builds or cache-loads it).
        """
        from repro.runtime.dataplane import active_mode

        if active_mode() == "shm" and not self._dataplane_failed:
            handle = self.publish_trace(name, flags)
            if handle is not None:
                return handle
        return self.trace_payload(name, flags)

    def dataplane_mode(self) -> str:
        """The data plane this session actually uses (``shm``/``payload``).

        Reported in ``/v1/metrics`` and ``repro bench``: ``payload`` once
        publishing a shared-memory segment has failed in this session.
        """
        from repro.runtime.dataplane import active_mode

        return "payload" if self._dataplane_failed else active_mode()

    def trace(self, name: str, flags: str = "O3") -> Trace:
        return self.workload(name, flags).trace()

    # ------------------------------------------------------------------
    # Profiles.
    # ------------------------------------------------------------------
    def _token(self, trace: Trace) -> object:
        """Session-managed traces resolve to (name, flags); others to id()."""
        return self._trace_tokens.get(id(trace), id(trace))

    def program_profile(self, workload: Workload) -> ProgramProfile:
        """The machine-independent profile of ``workload`` (Table 1 stats)."""
        trace = workload.trace()
        token = self._token(trace)
        memo = self._program_profiles.get(token)
        if memo is not None:
            return memo[1]
        if isinstance(token, tuple):
            name, flags = token
            profile, _ = self.cache.load_or_build(
                lambda: profile_program(trace), "program_profile",
                profile_version=PROGRAM_PROFILE_SCHEMA_VERSION,
                **self._trace_key_fields(name, flags),
            )
        else:
            profile = profile_program(trace)
        self._program_profiles[token] = (trace, profile)
        return profile

    def engine(self, name: str, flags: str = "O3") -> SinglePassEngine:
        """The persistent single-pass engine of a session-managed trace."""
        trace = self.trace(name, flags)
        engine = SinglePassEngine.for_trace(trace)
        key = (name, flags)
        if key not in self._engine_synced:
            state = self.cache.load("engine", engine_version=ENGINE_SCHEMA_VERSION,
                                    **self._trace_key_fields(name, flags))
            if state is not MISSING:
                engine.install_state(state)
                self.stats.engine_state_loads += 1
            self._engine_synced[key] = engine.pass_count
        return engine

    def _persist_engine(self, name: str, flags: str,
                        engine: SinglePassEngine) -> None:
        if not self.cache.enabled:
            return
        key = (name, flags)
        if engine.pass_count == self._engine_synced.get(key):
            return
        self.cache.store(engine.export_state(), "engine",
                         engine_version=ENGINE_SCHEMA_VERSION,
                         **self._trace_key_fields(name, flags))
        self._engine_synced[key] = engine.pass_count
        self.stats.engine_state_saves += 1

    def miss_profile(self, workload: Workload | str, machine: MachineConfig,
                     *, flags: str = "O3", mlp_window: int = 64,
                     exact: bool = False) -> MissProfile:
        """Miss-event counts of ``workload`` on ``machine`` (memoized).

        Accepts a workload name (resolved through the session) or any
        :class:`Workload`; profiles of session-managed traces go through the
        persistent engine, so their cache-geometry histograms land on disk
        and are never recomputed by later sessions.  ``exact=True`` answers
        from a full trace replay instead of the stack-distance engine (the
        ``analytical_exact`` backend's fallback); replay results are memoized
        in process but not persisted.
        """
        if isinstance(workload, str):
            workload = self.workload(workload, flags)
        trace = workload.trace()
        token = self._token(trace)
        memo_key = (token, machine, mlp_window, exact)
        memo = self._miss_profiles.get(memo_key)
        if memo is not None:
            return memo[1]

        self.stats.miss_profiles_built += 1
        with span("session.miss_profile", workload=workload.name,
                  exact=exact):
            if exact:
                from repro.profiler.machine_stats import profile_machine

                profile = profile_machine(trace, machine, mlp_window,
                                          exact=True)
            elif isinstance(token, tuple):
                engine = self.engine(*token)
                profile = engine.miss_profile(machine, mlp_window)
                self._persist_engine(*token, engine)
            else:
                profile = SinglePassEngine.for_trace(trace).miss_profile(
                    machine, mlp_window
                )
        self._miss_profiles[memo_key] = (trace, profile)
        return profile

    def simulate_many(self, workload: Workload,
                      machines: Sequence[MachineConfig]) -> list:
        """Cycle-accurate in-order results of ``workload`` on ``machines``.

        Memoized per ``(trace, machine)`` in process: the points this
        session has not simulated yet go to
        :func:`~repro.pipeline.inorder.simulate_many` as one batch, so they
        share event columns and timing loops.  Each returned result is the
        caller's own copy and carries the caller's ``MachineConfig`` (its
        label is not part of machine equality).  ``simulations_reused``
        counts the points simulated here that shared another point's timing
        loop; a memo hit, like a miss-profile memo hit, counts nothing (the
        planner reads each of its points back through here).
        """
        from repro.pipeline.inorder import SimulationWork, simulate_many

        trace = workload.trace()
        token = self._token(trace)
        fresh = [machine for machine in machines
                 if (token, machine) not in self._simulations]
        missing = list(dict.fromkeys(fresh))
        work = SimulationWork()
        for machine, result in zip(missing,
                                   simulate_many(trace, missing, work)):
            self._simulations[(token, machine)] = (trace, result)
        self.stats.sim_event_sets_built += work.event_sets
        self.stats.sim_timing_loops_run += work.timing_loops
        self.stats.simulations_reused += len(fresh) - work.timing_loops
        results = []
        for machine in machines:
            result = self._simulations[(token, machine)][1]
            results.append(replace(
                result, machine=machine,
                hierarchy_stats=replace(result.hierarchy_stats)))
        return results

    def sample_evaluate(self, chunked, machine: MachineConfig, *, rate: int,
                        warmup: int = 4, warming: int = 1,
                        mlp_window: int = 64):
        """Interval-sampled model evaluation of a chunked (spilled) trace.

        Thin session wrapper over
        :func:`~repro.profiler.sampling.sample_evaluate` that wires in the
        artifact cache: every warmed interval profile is persisted
        content-addressed, so re-sampling the same store — at any nested
        rate, from any process sharing the cache directory — reuses the
        expensive per-interval streaming work.  Without a cache directory
        the records are memoized in process instead.
        """
        from repro.profiler.sampling import sample_evaluate

        cache = (_IntervalProfileCache(self.cache) if self.cache.enabled
                 else self._interval_memory)
        evaluation = sample_evaluate(chunked, machine, rate, warmup=warmup,
                                     warming=warming, mlp_window=mlp_window,
                                     cache=cache)
        self.stats.interval_cache_hits += evaluation.cache_hits
        self.stats.interval_profiles_built += evaluation.cache_misses
        return evaluation

    # ------------------------------------------------------------------
    # Parallelism.
    # ------------------------------------------------------------------
    def pool(self):
        """The session's persistent worker pool (created on first use).

        Workers stay alive across every :meth:`map` call — and, for the
        service's shared session, across requests — holding their adopted
        traces, attached shared-memory segments and warm single-pass
        engine state, so only the first batch pays spawn and transport.
        """
        from repro.runtime.scheduler import WorkerPool

        if self._pool is None:
            pool = WorkerPool(self.spec, self.jobs)
            self._pool = pool
            self._pool_finalizer = weakref.finalize(self, WorkerPool.close,
                                                    pool)
        return self._pool

    def reset_pool(self) -> None:
        """Discard the worker pool (crash recovery; a new one spawns lazily)."""
        pool, self._pool = self._pool, None
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        if pool is not None:
            pool.close()

    def close(self) -> None:
        """Release pooled workers and published shared-memory segments.

        Idempotent; also run by GC finalizers and — last resort — the data
        plane's ``atexit`` hook, so segments cannot outlive the process
        even when a caller forgets.  :func:`pooled_session` closes its
        session on exit.
        """
        self.reset_pool()
        segments, self._segments = self._segments, None
        if self._segments_finalizer is not None:
            self._segments_finalizer.detach()
            self._segments_finalizer = None
        self._segment_handles.clear()
        if segments is not None:
            segments.close()

    def map(self, fn: Callable, items: Iterable) -> list:
        """Apply a module-level ``fn(session, item)`` across ``items``.

        Runs inline for ``jobs=1``; otherwise shards across the persistent
        process pool (each worker owns a session on the same cache
        directory).  Results keep item order, so parallel runs are
        byte-identical to serial ones.
        """
        from repro.runtime.scheduler import session_map

        return session_map(self, fn, items)

    def map_resilient(self, fn: Callable, items: Iterable) -> list:
        """:meth:`map` with per-unit failure containment.

        Same sharding and ordering contract, but instead of the
        all-or-nothing strict mode, a unit that fails (its own exception,
        or quarantine after repeatedly breaking the pool) yields a
        :class:`~repro.resilience.containment.UnitFailure` in its slot
        while every other unit's result comes back intact.  The inline
        (``jobs=1``/small-batch) path stays strict: with no pool there is
        no crash to contain, and byte-identity with :meth:`map` holds.
        """
        from repro.resilience.containment import resilient_map

        items = list(items)
        if self.jobs <= 1 or len(items) <= 1:
            return [fn(self, item) for item in items]
        return resilient_map(self, fn, items, strict=False)

    def _record_cache_corruption(self) -> None:
        self.stats.cache_corruptions += 1

    def summary(self) -> dict:
        """Counters for the CLI's end-of-run session report."""
        return {**self.stats.as_dict(),
                "dataplane": self.dataplane_mode(),
                "stages": self.stages.as_dict(),
                "artifact_cache": self.cache.stats.as_dict(),
                "resilience": self.health.as_dict()}


@contextlib.contextmanager
def pooled_session(cache_dir=None, jobs: int = 1) -> Iterator[Session]:
    """A session ready for sharded work, with a cache its workers can share.

    Worker processes exchange traces and profiling passes through the
    artifact cache; without one, every pool worker would redo the work.  So
    when sharding (``jobs > 1``) without an explicit ``cache_dir``, a
    run-scoped temporary directory is created and cleaned up on exit.
    """
    with contextlib.ExitStack() as stack:
        if cache_dir is None and jobs > 1:
            cache_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-cache-")
            )
        session = Session(cache_dir=cache_dir, jobs=jobs)
        # LIFO: the pool and shared-memory segments are released before
        # the temporary cache directory the workers were bound to.
        stack.callback(session.close)
        yield session
