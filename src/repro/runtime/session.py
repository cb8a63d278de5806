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
import time
import weakref
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.machine import MachineConfig
from repro.obs.tracing import span
from repro.profiler.machine_stats import MissProfile
from repro.profiler.program import ProgramProfile, profile_program
from repro.profiler.single_pass_engine import (
    ENGINE_SCHEMA_VERSION,
    SinglePassEngine,
    miss_key,
    miss_keys,
)
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
    "groups_inline",
    "groups_pooled",
)

#: The counters of where a batch ran rather than of work done.
ROUTING_EVENTS = ("groups_inline", "groups_pooled")


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

    def work_since(self, before: Mapping[str, int]) -> dict[str, int]:
        """The work counted since ``before`` (an earlier :meth:`as_dict`),
        non-zero events only; the routing counters are left out, since
        only the session that routes a batch counts them."""
        return {event: count - before[event]
                for event, count in self.as_dict().items()
                if event not in ROUTING_EVENTS and count != before[event]}

    def add(self, counts: Mapping[str, int]) -> None:
        """Add ``counts`` (e.g. a pool worker's :meth:`work_since`)."""
        for event, count in counts.items():
            self._family.labels(event=event).inc(count)


def _session_event_property(event: str) -> property:
    def _get(self) -> int:
        return int(self._family.labels(event=event).value)

    def _set(self, value: int) -> None:
        self._family.labels(event=event).set_total(value)

    return property(_get, _set)


for _event in SESSION_EVENTS:
    setattr(SessionStats, _event, _session_event_property(_event))
del _event


class StageTimings:
    """Accumulated wall time per batch stage.

    Stages: ``ship`` (parent copies parent-held traces into payload
    bytes), ``attach`` (worker rebuilds a shipped trace), ``profile``
    (single-pass engine passes + program profiles), ``model``
    (mechanistic-model evaluation; scalar backends fold their profiling
    in here) and ``collect`` (parent-side result reassembly), plus
    ``simulate`` (the cycle-accurate simulator backend) for batches that
    have simulator points — reported after the canonical five.  Worker
    timings travel back with each group's results and are merged here.

    A thin adapter over a :class:`~repro.obs.metrics.MetricsRegistry`
    counter family (``stage_seconds_total{stage=...}``): passing the
    session's registry makes the stage totals show up in the Prometheus
    exposition for free, while this class keeps the canonical ordering
    and rounding the reports rely on.
    """

    ORDER = ("ship", "attach", "profile", "model", "collect")

    __slots__ = ("_family",)

    def __init__(self, registry=None):
        from repro.obs.metrics import MetricsRegistry

        if registry is None:
            registry = MetricsRegistry()
        self._family = registry.counter(
            "stage_seconds_total",
            "Accumulated wall time per batch stage.",
            labels=("stage",),
        )

    def add(self, stage: str, seconds: float) -> None:
        self._family.labels(stage=stage).inc(seconds)

    def _raw(self) -> dict[str, float]:
        return {child.label_values[0]: child.value
                for child in self._family.children()}

    def merge(self, stages: "Mapping[str, float] | StageTimings | None") -> None:
        if not stages:
            return
        items = stages._raw() if isinstance(stages, StageTimings) else stages
        for stage, seconds in items.items():
            self.add(stage, seconds)

    def clear(self) -> None:
        self._family.reset()

    def __bool__(self) -> bool:
        return any(child.value for child in self._family.children())

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(self.as_dict().items())

    def as_dict(self) -> dict[str, float]:
        """Seconds per stage, canonical order first, rounded for reports."""
        raw = self._raw()
        ordered = [stage for stage in self.ORDER if stage in raw]
        ordered += sorted(set(raw) - set(self.ORDER))
        return {stage: round(raw[stage], 6) for stage in ordered}


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
        #: Seconds spent building program and miss profiles (memo misses
        #: only); callers difference it around a call to book ``profile``.
        self.profile_seconds = 0.0
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
        self._workloads: dict[tuple[str, str], Workload] = {}
        #: id(trace) -> (name, flags) for traces this session manages.
        self._trace_tokens: dict[int, tuple[str, str]] = {}
        #: (name, flags) -> engine pass_count at the last load/store, used to
        #: skip rewriting the persisted state when nothing new was computed.
        self._engine_synced: dict[tuple[str, str], int] = {}
        #: token -> (trace, profile); the trace reference pins id() stability.
        self._program_profiles: dict[object, tuple[Trace, ProgramProfile]] = {}
        #: (token, miss key, mlp window) -> (trace, MissProfile).
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
        started = time.perf_counter()
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
        self.profile_seconds += time.perf_counter() - started
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
                     *, flags: str = "O3", mlp_window: int = 64) -> MissProfile:
        """Miss-event counts of ``workload`` on ``machine`` (memoized).

        Accepts a workload name (resolved through the session) or any
        :class:`Workload`; profiles of session-managed traces go through the
        persistent engine, so their cache-geometry histograms land on disk
        and are never recomputed by later sessions.

        The memo is keyed by
        :func:`~repro.profiler.single_pass_engine.miss_key`, not the whole
        machine: every machine with the same memory hierarchy and predictor
        shares one profile (the 192 Table-2 machines hold 16 per trace),
        whose ``machine`` field names the first of them.
        """
        if isinstance(workload, str):
            workload = self.workload(workload, flags)
        (profile,) = self.miss_profiles(workload, [machine],
                                        mlp_window=mlp_window)
        return profile

    def miss_profiles(self, workload: Workload,
                      machines: Sequence[MachineConfig], *,
                      mlp_window: int = 64) -> list[MissProfile]:
        """:meth:`miss_profile` of each of ``machines``, in order; machines
        with equal :func:`~repro.profiler.single_pass_engine.miss_key` share
        the profile of the first of them.  The memo is looked up once per
        distinct key of the call (16 times for the 192 Table-2 machines)."""
        trace = workload.trace()
        token = self._token(trace)
        keys = miss_keys(machines)
        by_key: dict[tuple, MissProfile] = dict.fromkeys(keys)
        for key in by_key:
            memo_key = (token, key, mlp_window)
            memo = self._miss_profiles.get(memo_key)
            if memo is None:
                memo = (trace, self._build_miss_profile(
                    workload, token, machines[keys.index(key)], mlp_window))
                self._miss_profiles[memo_key] = memo
            by_key[key] = memo[1]
        return list(map(by_key.__getitem__, keys))

    def _build_miss_profile(self, workload: Workload, token,
                            machine: MachineConfig,
                            mlp_window: int) -> MissProfile:
        trace = workload.trace()
        self.stats.miss_profiles_built += 1
        started = time.perf_counter()
        with span("session.miss_profile", workload=workload.name):
            if isinstance(token, tuple):
                engine = self.engine(*token)
                profile = engine.miss_profile(machine, mlp_window)
                self._persist_engine(*token, engine)
            else:
                profile = SinglePassEngine.for_trace(trace).miss_profile(
                    machine, mlp_window
                )
        self.profile_seconds += time.perf_counter() - started
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
        loop; a memo hit, like a miss-profile memo hit, counts nothing.
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

    # ------------------------------------------------------------------
    # Memo queries and the pool's return channel.
    # ------------------------------------------------------------------
    def has_program_profile(self, workload: Workload) -> bool:
        """Whether :meth:`program_profile` would answer from its memo."""
        return self._token(workload.trace()) in self._program_profiles

    def has_miss_profiles(self, workload: Workload,
                          machines: Sequence[MachineConfig], *,
                          mlp_window: int = 64) -> bool:
        """Whether :meth:`miss_profiles` would answer from its memo."""
        token = self._token(workload.trace())
        return all((token, key, mlp_window) in self._miss_profiles
                   for key in set(miss_keys(machines)))

    def has_simulations(self, workload: Workload,
                        machines: Sequence[MachineConfig]) -> bool:
        """Whether :meth:`simulate_many` would answer from its memo."""
        token = self._token(workload.trace())
        return all((token, machine) in self._simulations
                   for machine in machines)

    def memo_entries(self, name: str, flags: str,
                     points: Iterable[tuple[MachineConfig, int]]
                     ) -> tuple[list, list, list]:
        """The memo entries of ``(name, flags)`` that answering ``points``
        (``(machine, mlp_window)`` pairs) reads, as far as this session
        holds them: its program profile, the miss profiles of each point's
        miss key and window and the simulations.

        Returned as ``(key, value)`` lists without their trace pins: the
        picklable form in which a pool worker sends back the entries of
        its group, for the parent's :meth:`install_memos`.  The entries are
        returned whether or not this call built them, so a parent that
        loaded the trace after the worker did still gets them.
        """
        token = (name, flags)
        program = self._program_profiles.get(token)
        misses: dict[tuple, MissProfile] = {}
        simulations: dict[tuple, object] = {}
        for machine, mlp_window in dict.fromkeys(points):
            key = (token, miss_key(machine), mlp_window)
            memo = self._miss_profiles.get(key)
            if memo is not None:
                misses[key] = memo[1]
            memo = self._simulations.get((token, machine))
            if memo is not None:
                simulations[(token, machine)] = memo[1]
        return ([] if program is None else [(token, program[1])],
                list(misses.items()), list(simulations.items()))

    def install_memos(self, name: str, flags: str, memos) -> None:
        """Adopt :meth:`memo_entries` built in another process.

        Each entry is pinned to this session's own trace of ``(name,
        flags)``, so the next request for it is a memo hit here.  Entries
        already held are kept; nothing is installed when this session
        does not hold the trace.
        """
        workload = self._workloads.get((name, flags))
        if workload is None:
            return
        trace = workload.trace()
        for memo, entries in zip((self._program_profiles,
                                  self._miss_profiles, self._simulations),
                                 memos):
            for key, value in entries:
                memo.setdefault(key, (trace, value))

    def sample_evaluate(self, chunked, machine: MachineConfig, *, rate: int,
                        warmup: int = 4, warming: int = 1,
                        mlp_window: int = 64):
        """Interval-sampled model evaluation of a chunked (spilled) trace.

        Thin session wrapper over
        :func:`~repro.profiler.sampling.sample_evaluate` that wires in the
        artifact cache: every warmed interval profile, census chunks
        included, is persisted content-addressed, so re-sampling the same
        store — at any nested rate, from any process sharing the cache
        directory — reuses the expensive per-interval streaming work and
        walks no census chunk.  Without a cache directory the records are
        memoized in process instead.  ``interval_profiles_built`` and
        ``interval_cache_hits`` count census records like any other.
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
        traces and warm single-pass engine state, so only the first batch
        pays spawn and transport.
        """
        from repro.runtime.scheduler import WorkerPool

        if self._pool is None:
            pool = WorkerPool(self.spec, self.jobs, self.stats)
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
        """Release the pooled workers.

        Idempotent; also run by the pool's GC finalizer, so workers do not
        outlive a session a caller forgot to close.  :func:`pooled_session`
        closes its session on exit.
        """
        self.reset_pool()

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
        while every other unit's result comes back intact.  Unlike
        :meth:`map`, a pooled session sends even a single unit to the pool
        (the planner's rule: the pool builds, the parent answers).  The
        inline ``jobs=1`` path stays strict: with no pool there is no
        crash to contain, and byte-identity with :meth:`map` holds.
        """
        from repro.resilience.containment import resilient_map

        items = list(items)
        if self.jobs <= 1:
            return [fn(self, item) for item in items]
        return resilient_map(self, fn, items, strict=False)

    def _record_cache_corruption(self) -> None:
        self.stats.cache_corruptions += 1

    def summary(self) -> dict:
        """Counters for the CLI's end-of-run session report."""
        return {**self.stats.as_dict(),
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
        # LIFO: the pool is released before the temporary cache
        # directory its workers were bound to.
        stack.callback(session.close)
        yield session
