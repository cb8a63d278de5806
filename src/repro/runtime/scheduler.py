"""Persistent process-pool sharding for session work.

The unit of parallelism is ``fn(session, item)`` where ``fn`` is a
module-level function (it is pickled by reference) and ``item`` a picklable
work description — typically a planned sweep group or a benchmark name.
Each worker process owns its own :class:`~repro.runtime.session.Session`
bound to the same cache directory as the parent, so traces and profiling
passes flow between processes through the on-disk artifact cache rather
than through pickled arguments; the one exception is a trace the parent
already holds, which the sweep planner ships as column bytes
(:meth:`~repro.trace.trace.Trace.to_payload`).

The pool is **persistent and pre-warmed**: a session creates its
:class:`WorkerPool` once and reuses it for every subsequent ``map`` call,
so worker sessions keep their adopted traces and warm
:class:`~repro.profiler.single_pass_engine.SinglePassEngine` passes
between batches (a resident engine's kept L1-miss streams answer new L2
geometries without another trace walk) — a later request a
:mod:`repro.service` server sends to the pool pays zero pool spawn, zero
trace transport and zero repeated profiling passes.  Pooled sweep groups
whose trace the parent shipped also send back their profiles and
simulations, so a warm request is answered in the parent and never
reaches the pool (see
:mod:`repro.api.planner`).  This module is the only place in the tree
allowed to construct a ``ProcessPoolExecutor`` (``make lint`` enforces
it), which is what makes the warm-pool guarantee checkable.

``session_map`` preserves item order and degrades to an inline loop for
``jobs=1`` (and for trivially small batches), which is what makes parallel
experiment output byte-identical to serial output.  Failure handling is
:func:`repro.resilience.containment.resilient_map`: a worker killed
mid-batch (OOM, SIGKILL) only voids the units still in flight; the pool
respawns with exponential backoff under a bounded crash budget, units
that repeatedly break the pool alone are quarantined, and a session whose
pool keeps dying trips a circuit breaker into serial in-process execution
(see :class:`~repro.resilience.containment.RetryPolicy`).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable, Iterable

from repro.obs import tracing
from repro.resilience import faults
from repro.resilience.containment import resilient_map, unit_label

#: The per-process session of pool workers (created by the initializer).
_WORKER_SESSION = None
#: The worker's parent-death watcher thread (started once per process).
_WATCHER: threading.Thread | None = None


def start_parent_watch(parent_pid: int, interval: float = 1.0) -> None:
    """Exit when the parent process disappears.

    Pool workers call this from their initializer: a worker orphaned by a
    parent crash re-parents (``getppid`` changes) and exits instead of
    idling forever.
    """
    global _WATCHER
    if _WATCHER is not None or os.getppid() != parent_pid:
        return

    def _watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(interval)
        os._exit(2)

    _WATCHER = threading.Thread(target=_watch, daemon=True,
                                name="repro-parent-watch")
    _WATCHER.start()


def _worker_init(spec, parent_pid: int, obs_config=None,
                 faults_config=None) -> None:
    global _WORKER_SESSION

    # Workers run their shard inline (nested pools would oversubscribe),
    # so they never ship a trace themselves.
    _WORKER_SESSION = spec.create(jobs=1)
    # Pin the span sink and fault plan the parent resolved (spawned
    # workers cannot rely on inherited module state) and watch for the
    # parent disappearing — an orphaned worker exits.
    tracing.apply_worker_config(obs_config)
    faults.apply_worker_config(faults_config)
    start_parent_watch(parent_pid)


def _worker_call(payload):
    """Run one unit in this worker: ``(result, work)``, where ``work`` is
    the unit's :meth:`~repro.runtime.session.SessionStats.work_since`
    delta, which the parent adds to its own counters.  A unit that raises
    carries its delta back on the exception (``worker_work``), so the work
    it did before failing is counted too, as it would be in the parent."""
    # Envelopes carry the parent's trace context (or None) so a worker's
    # spans parent under the span that dispatched the batch.
    fn, item, wire_ctx = payload
    faults.fire("worker.entry", key=unit_label(item))
    stats = _WORKER_SESSION.stats
    before = stats.as_dict()
    try:
        with tracing.attach(tracing.TraceContext.from_wire(wire_ctx)):
            result = fn(_WORKER_SESSION, item)
    except Exception as error:
        error.worker_work = stats.work_since(before)
        raise
    return result, stats.work_since(before)


class _PooledUnit:
    """A submitted unit's future, answering its result (or raising its
    error) without the worker's counters, which it adds to the parent's
    once."""

    __slots__ = ("_future", "_stats")

    def __init__(self, future: Future, stats):
        self._future = future
        self._stats = stats

    def result(self):
        try:
            result, work = self._future.result()
        except Exception as error:
            self._count(getattr(error, "worker_work", {}))
            raise
        self._count(work)
        return result

    def _count(self, work) -> None:
        if self._stats is not None:  # read twice: add once
            self._stats.add(work)
            self._stats = None


class WorkerPool:
    """A long-lived process pool bound to one session spec.

    Wraps the sole ``ProcessPoolExecutor`` of the tree.  Workers are
    initialized once with their own session, then reused across every
    batch until :meth:`close`.
    """

    #: Pools constructed process-wide (the pool-churn regression tests
    #: assert this stays flat across warm service requests).
    created_total = 0

    def __init__(self, spec, jobs: int, stats):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        type(self).created_total += 1
        self.spec = spec
        self.jobs = jobs
        #: The parent's :class:`~repro.runtime.session.SessionStats`, to
        #: which each unit's worker counters are added.
        self.stats = stats
        self._executor: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=jobs, initializer=_worker_init,
            initargs=(spec, os.getpid(), tracing.worker_config(),
                      faults.worker_config()),
        )

    @property
    def alive(self) -> bool:
        return self._executor is not None

    def _wire_context(self):
        ctx = tracing.current_context()
        return ctx.to_wire() if ctx else None

    def submit_all(self, fn: Callable, items: list) -> list[_PooledUnit]:
        """One future per item (same order), so a worker crash only voids
        the units that had not finished — the containment layer's lever:
        completed futures keep their results across a ``BrokenExecutor``,
        pending ones raise it, which is what attributes the crash.
        """
        if self._executor is None:
            raise RuntimeError("worker pool is closed")
        wire_ctx = self._wire_context()
        return [_PooledUnit(self._executor.submit(_worker_call,
                                                  (fn, item, wire_ctx)),
                            self.stats)
                for item in items]

    def close(self) -> None:
        """Shut the workers down (idempotent); safe on a broken pool."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


def session_map(session, fn: Callable, items: Iterable) -> list:
    """Apply ``fn(session, item)`` over ``items``, sharding across processes.

    See :meth:`repro.runtime.session.Session.map` for the contract.  The
    session's persistent pool is created on first use and reused after;
    crashes are contained by :func:`~repro.resilience.containment.
    resilient_map` in strict mode — transient worker deaths are retried
    within budget, but any unit failure still raises (all-or-nothing),
    as a typed :class:`~repro.resilience.containment.PoolCrashError` when
    crash-attributed.
    """
    items = list(items)
    if session.jobs <= 1 or len(items) <= 1:
        return [fn(session, item) for item in items]
    return resilient_map(session, fn, items, strict=True)
