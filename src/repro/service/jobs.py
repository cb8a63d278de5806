"""Bounded job queue feeding the evaluation worker pool.

The server never evaluates on the event loop: parsed requests become
:class:`Job` entries on a bounded :class:`asyncio.Queue` (backpressure —
a full queue is reported as ``503`` rather than buffering without limit),
and ``jobs`` worker tasks drain it, running each batch on a thread pool
through the batch runner of :mod:`repro.api.batch` against the one shared
:class:`~repro.runtime.session.Session`.  Every batch arrives validated,
so it is not validated again.

A lock serializes session access across worker threads: evaluation is
pure-Python CPU work the GIL would serialize anyway, so the lock costs no
throughput while making the session's memoization race-free — every
served answer is byte-identical to a direct in-process ``repro.api``
call.  The worker *pool* still buys pipelining (HTTP parsing and response
serialization overlap evaluation) and bounds in-flight work; when the
session was built with ``jobs > 1``, the groups of a batch that the
session cannot answer from its memos additionally go to its worker
processes.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.api.spec import EvalRequest, EvalResult
from repro.obs import tracing
from repro.resilience import faults


class ServiceOverloaded(Exception):
    """The bounded job queue is full; the caller should retry later (503)."""


class JobCancelled(Exception):
    """A chunked job observed its cancel flag and stopped early."""


#: Requests evaluated per chunk when a job runs under a deadline: small
#: enough that a cancelled sweep releases the session within one chunk,
#: large enough that per-chunk overhead stays negligible.
DEADLINE_CHUNK = 16


@dataclass
class Job:
    """One unit of queued work: a request batch and the future it resolves.

    ``call`` jobs carry an arbitrary session function instead of a request
    batch (the optimize endpoint queues whole searches this way) — same
    queue, same backpressure, same session serialization.  The submitting
    request's trace context rides along (``run_in_executor`` drops
    contextvars) so evaluation spans stay under their request's tree, and
    the submission time feeds the queue-wait metric.

    ``chunked`` jobs evaluate in :data:`DEADLINE_CHUNK`-request slices,
    appending finished results to ``progress`` and checking ``cancel``
    between slices — the machinery behind server-side deadlines: a 504'd
    sweep hands back ``progress`` as its partial envelope and the
    cancelled job releases the session at the next chunk boundary instead
    of computing a full answer nobody is waiting for.
    """

    requests: Sequence[EvalRequest]
    future: asyncio.Future = field(repr=False)
    call: Callable | None = None
    context: "tracing.TraceContext | None" = None
    submitted_at: float = 0.0
    chunked: bool = False
    cancel: threading.Event = field(default_factory=threading.Event,
                                    repr=False)
    #: Results completed so far (chunked jobs only); appended from the
    #: worker thread, snapshotted by the server on deadline expiry.
    progress: list = field(default_factory=list, repr=False)


class EvalExecutor:
    """Worker pool draining a bounded queue of evaluation jobs.

    ``runner`` maps a request batch to its results; the default runs it
    on ``session`` through the batch runner.  It is injectable so
    tests can exercise queue bounds and drain behaviour with a controlled
    (e.g. deliberately blocking) workload.
    """

    def __init__(self, session, jobs: int = 1, max_queue: int = 64,
                 runner: Callable[[Sequence[EvalRequest]],
                                  list[EvalResult]] | None = None,
                 metrics=None):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        self.session = session
        self.jobs = jobs
        self.max_queue = max_queue
        #: Optional ``ServiceMetrics`` fed the queue-wait observations.
        self.metrics = metrics
        #: An injected runner (tests) always gets the whole batch; chunked
        #: (cancellable) execution only applies to the session runner.
        self._runner = runner
        self._session_lock = threading.Lock()
        self._queue: asyncio.Queue[Job] | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._workers: list[asyncio.Task] = []
        #: Jobs submitted but not yet finished (queued + in flight).
        self._pending = 0
        self.jobs_completed = 0

    # ------------------------------------------------------------------
    def _run_with_session(self, job: Job) -> list[EvalResult]:
        from repro.api.batch import _run_batch

        with self._session_lock:
            with tracing.span("service.evaluate", requests=len(job.requests)):
                return _run_batch(self.session, list(job.requests))

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return self._queue.qsize() if self._queue is not None else 0

    def start(self) -> None:
        """Create the queue and worker tasks (call from the event loop)."""
        loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._pool = ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="repro-eval"
        )
        self._workers = [
            loop.create_task(self._worker(), name=f"repro-eval-worker-{index}")
            for index in range(self.jobs)
        ]

    def submit_job(self, requests: Sequence[EvalRequest], *,
                   chunked: bool = False) -> Job:
        """Enqueue a batch and return its :class:`Job` handle.

        The caller has checked ``requests`` with
        :func:`repro.api.batch.validate_requests`; the batch runs without
        a second validation.

        The job's ``future`` resolves to the ``EvalResult`` list; the
        handle additionally exposes ``cancel`` and ``progress`` so a
        deadline-bound caller can stop the work and keep what finished.
        Raises :class:`ServiceOverloaded` immediately when the queue is
        full — the server maps this to ``503`` so clients get an honest
        backpressure signal instead of unbounded latency.  A ``jobs.admit``
        fault rule fires here, before the queue is touched, modelling an
        admission-control failure.
        """
        if self._queue is None:
            raise RuntimeError("executor is not started")
        faults.fire("jobs.admit")
        future = asyncio.get_running_loop().create_future()
        job = Job(
            requests=list(requests), future=future,
            context=tracing.current_context(),
            submitted_at=time.monotonic(),
            chunked=chunked,
        )
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            raise ServiceOverloaded(
                f"job queue is full ({self.max_queue} pending)"
            ) from None
        self._pending += 1
        return job

    def submit_call(self, call: Callable) -> asyncio.Future:
        """Enqueue a session function; the future resolves to its return.

        ``call(session)`` runs on the worker thread pool under the same
        session lock as request batches, so queued searches and queued
        evaluations serialize against each other and stay byte-identical
        to in-process calls.  Backpressure matches :meth:`submit_job`.
        """
        if self._queue is None:
            raise RuntimeError("executor is not started")
        faults.fire("jobs.admit")
        future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait(Job(
                requests=(), future=future, call=call,
                context=tracing.current_context(),
                submitted_at=time.monotonic(),
            ))
        except asyncio.QueueFull:
            raise ServiceOverloaded(
                f"job queue is full ({self.max_queue} pending)"
            ) from None
        self._pending += 1
        return future

    def _run_call(self, call: Callable):
        with self._session_lock:
            return call(self.session)

    def _run_chunked(self, job: Job) -> list[EvalResult]:
        """Evaluate a deadline-bound job in cancellable chunks.

        Results accumulate on ``job.progress`` so a caller whose wait
        expired can still serve what completed; ``job.cancel`` is checked
        between chunks, releasing the session within one chunk of the
        deadline instead of finishing an answer nobody is waiting for.
        Chunking changes only scheduling, not results: each request is
        evaluated exactly as in the unchunked path, so the concatenated
        chunks are byte-identical to a full-batch answer.
        """
        from repro.api.batch import _run_batch

        requests = list(job.requests)
        with self._session_lock:
            with tracing.span("service.evaluate", requests=len(requests),
                              chunked=True):
                for start in range(0, len(requests), DEADLINE_CHUNK):
                    if job.cancel.is_set():
                        raise JobCancelled(
                            f"cancelled after {len(job.progress)}"
                            f"/{len(requests)} results")
                    chunk = requests[start:start + DEADLINE_CHUNK]
                    job.progress.extend(_run_batch(self.session, chunk))
        return list(job.progress)

    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            job = await self._queue.get()
            await self._process(job)

    async def _process(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        if job.submitted_at:
            waited = max(0.0, time.monotonic() - job.submitted_at)
            if self.metrics is not None:
                self.metrics.observe_queue_wait(waited)
            with tracing.attach(job.context):
                tracing.emit_span("service.queue_wait", waited)

        # ``run_in_executor`` does not carry contextvars into the worker
        # thread; re-attach the submitting request's trace context there
        # so evaluation spans parent under the request.
        def _run():
            with tracing.attach(job.context):
                if job.call is not None:
                    return self._run_call(job.call)
                if self._runner is not None:
                    return self._runner(job.requests)
                if job.chunked:
                    return self._run_chunked(job)
                return self._run_with_session(job)

        try:
            results = await loop.run_in_executor(self._pool, _run)
            if not job.future.cancelled():
                job.future.set_result(results)
        except Exception as exc:  # surfaced as a 500 by the server
            if not job.future.cancelled():
                job.future.set_exception(exc)
        finally:
            self.jobs_completed += 1
            self._pending -= 1

    async def drain(self) -> None:
        """Finish every queued job, then stop the workers (graceful path).

        Live workers drain the backlog.  If the event loop's teardown
        already cancelled them — Python 3.10's ``asyncio.run`` cancels
        *every* task on ``KeyboardInterrupt``, 3.11+ only the main one —
        the remaining queued jobs are processed inline here, so the
        no-accepted-request-is-dropped contract holds on every supported
        Python (and Ctrl-C can never hang waiting on dead workers).
        """
        if self._queue is None:
            return
        while self._pending:
            if all(worker.done() for worker in self._workers):
                try:
                    job = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break  # an in-flight job died with its cancelled worker
                await self._process(job)
            else:
                await asyncio.sleep(0.005)
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._queue = None
