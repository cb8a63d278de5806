"""Persistent process-pool sharding for session work.

The unit of parallelism is ``fn(session, item)`` where ``fn`` is a
module-level function (it is pickled by reference) and ``item`` a picklable
work description — typically a planned sweep group or a benchmark name.
Each worker process owns its own :class:`~repro.runtime.session.Session`
bound to the same cache directory as the parent, so traces and profiling
passes flow between processes through the on-disk artifact cache (or the
shared-memory data plane) rather than through pickled arguments.

The pool is **persistent and pre-warmed**: a session creates its
:class:`WorkerPool` once and reuses it for every subsequent ``map`` call,
so worker sessions keep their attached shared-memory segments, adopted
traces and warm :class:`~repro.profiler.single_pass_engine.SinglePassEngine`
passes between batches (a resident engine's kept L1-miss streams answer new
L2 geometries without another trace walk) — the second request a
:mod:`repro.service` server answers pays zero pool spawn, zero trace
transport and zero repeated profiling passes.  This module is the only place in the tree allowed to
construct a ``ProcessPoolExecutor`` (``make lint`` enforces it), which is
what makes the warm-pool guarantee checkable.

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
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable, Iterable

from repro.obs import tracing
from repro.resilience import faults
from repro.resilience.containment import resilient_map, unit_label

#: The per-process session of pool workers (created by the initializer).
_WORKER_SESSION = None


def _worker_init(spec, parent_pid: int, obs_config=None,
                 faults_config=None) -> None:
    global _WORKER_SESSION
    from repro.runtime import dataplane

    # Workers run their shard inline (nested pools would oversubscribe),
    # so they never ship a trace and need no data plane of their own.
    _WORKER_SESSION = spec.create(jobs=1)
    # Pin the span sink and fault plan the parent resolved (spawned
    # workers cannot rely on inherited module state) and watch for the
    # parent disappearing — an orphaned worker detaches its segments and
    # exits.
    tracing.apply_worker_config(obs_config)
    faults.apply_worker_config(faults_config)
    dataplane.start_parent_watch(parent_pid)


def _worker_call(payload):
    # Envelopes carry the parent's trace context (or None) so a worker's
    # spans parent under the span that dispatched the batch.
    fn, item, wire_ctx = payload
    faults.fire("worker.entry", key=unit_label(item))
    with tracing.attach(tracing.TraceContext.from_wire(wire_ctx)):
        return fn(_WORKER_SESSION, item)


class WorkerPool:
    """A long-lived process pool bound to one session spec.

    Wraps the sole ``ProcessPoolExecutor`` of the tree.  Workers are
    initialized once with their own session, then reused across every
    batch until :meth:`close` — the "pre-warmed" half of the data plane
    refactor.
    """

    #: Pools constructed process-wide (the pool-churn regression tests
    #: assert this stays flat across warm service requests).
    created_total = 0

    def __init__(self, spec, jobs: int):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        type(self).created_total += 1
        self.spec = spec
        self.jobs = jobs
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

    def map(self, fn: Callable, items: list) -> list:
        if self._executor is None:
            raise RuntimeError("worker pool is closed")
        wire_ctx = self._wire_context()
        return list(self._executor.map(
            _worker_call, [(fn, item, wire_ctx) for item in items]
        ))

    def submit_all(self, fn: Callable, items: list) -> list[Future]:
        """One future per item (same order), so a worker crash only voids
        the units that had not finished — the containment layer's lever:
        completed futures keep their results across a ``BrokenExecutor``,
        pending ones raise it, which is what attributes the crash.
        """
        if self._executor is None:
            raise RuntimeError("worker pool is closed")
        wire_ctx = self._wire_context()
        return [self._executor.submit(_worker_call, (fn, item, wire_ctx))
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
