"""The asyncio evaluation server: routes, lifecycle and the CLI entry.

Endpoints (all JSON):

* ``POST /v1/eval``   — one :class:`~repro.api.spec.EvalRequest`; the
  response body is **byte-identical** to
  ``repro.api.evaluate(request).to_json()`` run in-process;
* ``POST /v1/sweep``  — one :class:`~repro.api.sweep.SweepRequest`,
  expanded and answered as ``{"schema_version", "count", "results"}``
  (:func:`sweep_body`);
* ``POST /v1/optimize`` — one :class:`~repro.search.optimize.OptimizeRequest`
  (a whole design-space search); the response body is byte-identical to
  ``repro.search.optimize(request).to_json()`` run in-process;
* ``GET /v1/health``  — liveness plus queue/cache occupancy;
* ``GET /v1/metrics`` — request counters, latency percentiles, cache hit
  rate and queue depth (see :mod:`repro.service.metrics`).

Every body the server builds itself — sweep envelopes, 504 partial
envelopes, health, metrics and errors — is compact JSON from the C
encoder (:func:`_json_body`; pipe it through ``python -m json.tool`` to
read it).  ``/v1/eval`` and ``/v1/optimize`` answer with the result's own
``to_json()`` bytes instead, which is their byte contract.

Successful evaluation responses are cached in a TTL+LRU
:class:`~repro.service.cache.ResultCache` keyed by the canonical JSON of
the parsed request, layered above the on-disk artifact cache the shared
session already uses.  The lookup comes straight after the structural
parse: a warm repeat skips sweep expansion, validation and the job queue.

Shutdown is a drain: the listener closes first, in-flight connections
finish, then the job queue empties before the worker pool stops, so no
accepted request is ever dropped.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from dataclasses import dataclass

from repro.api.batch import validate_requests
from repro.api.spec import API_SCHEMA_VERSION, EvalRequest
from repro.api.sweep import SweepRequest
from repro.obs import tracing
from repro.runtime.session import pooled_session
from repro.service.cache import ResultCache, canonical_key
from repro.service.http import (
    HttpError,
    HttpRequest,
    read_request,
    render_response,
)
from repro.service.jobs import EvalExecutor, ServiceOverloaded
from repro.service.metrics import ServiceMetrics
from repro.resilience import faults
from repro.resilience.faults import InjectedFault
from repro.resilience.ratelimit import RateLimiter


@dataclass(frozen=True)
class ServiceConfig:
    """Everything needed to stand up one evaluation server."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (tests, benches); read it back via ``.port``.
    port: int = 8765
    #: Worker tasks/threads; also the shared session's process-pool width.
    jobs: int = 1
    #: Bounded job-queue length; a full queue answers 503.
    max_queue: int = 64
    #: Artifact-cache directory shared with the CLI (None: in-memory only).
    cache_dir: str | None = None
    #: Result-cache entries kept (LRU beyond this).
    cache_capacity: int = 1024
    #: Result-cache entry lifetime in seconds.
    cache_ttl: float = 600.0
    #: Result-cache byte budget across all cached response bodies.
    cache_max_bytes: int = 64 * 1024 * 1024
    #: Seconds a connection may sit without delivering a request before it
    #: is released (bounds idle liveness probes; also keeps drain prompt).
    read_timeout: float = 30.0
    #: Seconds allowed to flush a response to a slow (or stopped) reader;
    #: past it the connection is dropped so shutdown can never hang on a
    #: client that requested a large sweep and stopped consuming it.
    write_timeout: float = 30.0
    #: Server-side deadline per evaluation request (None: unbounded).  A
    #: request that outruns it is answered 504 — for sweeps with a partial
    #: envelope holding the results completed before the deadline — and
    #: the job is cancelled at its next chunk boundary.
    request_timeout: float | None = None
    #: Sustained POST requests/second allowed per client IP (0: unlimited).
    #: Excess requests are answered 429 with a ``Retry-After`` header.
    rate_limit: float = 0.0
    #: Burst allowance above ``rate_limit`` (0: derived from the rate).
    rate_burst: int = 0


#: The routing table: path -> (method, EvalServer handler method name).
ROUTES = {
    "/v1/eval": ("POST", "_handle_eval"),
    "/v1/sweep": ("POST", "_handle_sweep"),
    "/v1/optimize": ("POST", "_handle_optimize"),
    "/v1/health": ("GET", "_handle_health"),
    "/v1/metrics": ("GET", "_handle_metrics"),
}

#: The served endpoints, as metric labels.  Anything else — unknown paths,
#: unknown methods, unparsable requests — is bucketed under ``"other"`` so
#: a client scanning paths cannot grow the metrics tables without bound.
KNOWN_ENDPOINTS = frozenset(
    f"{method} {path}" for path, (method, _) in ROUTES.items()
)
OTHER_ENDPOINT = "other"


def _json_body(payload) -> bytes:
    """A server-built body: compact JSON.

    ``json.dumps`` takes CPython's C encoder only without ``indent``; an
    indented 48-result sweep body costs about three times as much to build.
    """
    return json.dumps(payload).encode("utf-8")


def _error_body(message: str) -> bytes:
    return _json_body({"error": message})


def sweep_body(results) -> bytes:
    """The ``POST /v1/sweep`` body answering a sweep with ``results``."""
    return _json_body({
        "schema_version": API_SCHEMA_VERSION,
        "count": len(results),
        "results": [result.to_dict() for result in results],
    })


@contextlib.contextmanager
def _bad_request():
    """Answer a request that fails to parse or validate with a 400."""
    try:
        yield
    except (ValueError, KeyError, TypeError) as exc:
        raise HttpError(400, str(exc)) from exc


class EvalServer:
    """One listening evaluation service around a shared session."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self._resources = contextlib.ExitStack()
        # pooled_session gives sharded servers (jobs > 1, no cache_dir) a
        # server-lifetime temporary cache directory, so pool workers share
        # traces and profiling state across requests instead of redoing
        # each other's work; released by stop().
        self.session = self._resources.enter_context(
            pooled_session(config.cache_dir, config.jobs)
        )
        self.cache = ResultCache(capacity=config.cache_capacity,
                                 ttl_seconds=config.cache_ttl,
                                 max_bytes=config.cache_max_bytes)
        self.metrics = ServiceMetrics()
        self.executor = EvalExecutor(self.session, jobs=config.jobs,
                                     max_queue=config.max_queue,
                                     metrics=self.metrics)
        self.ratelimiter = RateLimiter(config.rate_limit, config.rate_burst)
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        #: Handler task -> writer for connections still waiting on a
        #: request; they hold no accepted work, so drain closes their
        #: transports rather than waiting them out.
        self._reading: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._draining = False

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self.executor.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port,
        )

    async def stop(self) -> None:
        """Graceful drain: stop accepting, finish connections, empty the queue."""
        try:
            self._draining = True
            if self._server is not None:
                self._server.close()
                # Idle peers (connected, no request yet) hold no accepted
                # work and would otherwise stall the drain until their read
                # deadline; closing their transports ends those handlers as
                # a clean peer-closed read.  Loop until every handler is
                # done — this must happen BEFORE wait_closed(), which on
                # Python 3.12+ itself waits for connection handlers, and
                # the loop also covers connections accepted just before
                # close() that had not reached their read yet.  In-flight
                # requests finish normally: the executor is still live.
                while self._connections:
                    for writer in list(self._reading.values()):
                        writer.close()
                    await asyncio.wait(set(self._connections), timeout=0.1)
                await self._server.wait_closed()
                self._server = None
            # Unconditional: start() launches the workers before binding the
            # listener, so a failed bind must still tear the executor down.
            await self.executor.drain()
        finally:
            self._resources.close()  # idempotent; releases the temp cache dir

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._serve_one(reader, writer)
        finally:
            if task is not None:
                self._connections.discard(task)

    async def _serve_one(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        started = time.perf_counter()
        endpoint = OTHER_ENDPOINT
        status: int | None = None
        content_type = "application/json"
        extra_headers: dict[str, str] = {}
        in_flight = False
        task = asyncio.current_task()
        try:
            try:
                # Chaos seam: a failed accept (error mode) answers 500
                # before any request is read; delay mode stalls the
                # connection; kill mode takes the whole process down.
                await faults.async_fire("http.accept")
                if task is not None:
                    self._reading[task] = writer
                try:
                    await faults.async_fire("http.read")
                    request = await asyncio.wait_for(
                        read_request(reader),
                        timeout=self.config.read_timeout,
                    )
                except asyncio.TimeoutError:
                    request = None  # idle peer: release the connection
                finally:
                    if task is not None:
                        self._reading.pop(task, None)
                if request is not None:
                    label = f"{request.method} {request.path}"
                    if label in KNOWN_ENDPOINTS:
                        endpoint = label
                    retry_after = self._rate_limit_wait(request, writer)
                    if retry_after is not None:
                        self.metrics.count_rate_limited()
                        extra_headers["Retry-After"] = (
                            f"{max(0.001, retry_after):.3f}")
                        status, body = 429, _error_body(
                            "rate limit exceeded; retry after the delay in "
                            "the Retry-After header")
                    else:
                        self.metrics.request_started(endpoint)
                        in_flight = True
                        status, body, content_type = (
                            await self._traced_dispatch(request,
                                                        extra_headers))
            except HttpError as exc:
                status, body = exc.status, _error_body(exc.message)
            except Exception as exc:  # never leak a traceback as a hung socket
                status, body = 500, _error_body(
                    f"internal error: {type(exc).__name__}: {exc}"
                )
            if status is not None:
                try:
                    await faults.async_fire("http.write", key=endpoint)
                    writer.write(render_response(status, body, content_type,
                                                 extra_headers))
                    await asyncio.wait_for(writer.drain(),
                                           timeout=self.config.write_timeout)
                except (ConnectionError, asyncio.TimeoutError):
                    pass  # peer gone or not reading: the finally drops it
                except InjectedFault:
                    pass  # injected write failure: connection drops unanswered
        finally:
            # Always release the transport — including for peers that
            # connect and close without sending a request (liveness
            # probes), which would otherwise leak the socket.
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()
        if status is not None:
            self.metrics.observe(endpoint, status,
                                 time.perf_counter() - started,
                                 started=in_flight)
        elif in_flight:
            # Answered nothing (peer vanished mid-handling): still release
            # the in-flight slot.
            self.metrics.observe(endpoint, 499, time.perf_counter() - started,
                                 started=True)

    def _rate_limit_wait(self, request: HttpRequest,
                         writer: asyncio.StreamWriter) -> float | None:
        """Seconds the peer must wait, or ``None`` when admitted.

        Only POSTs (evaluation work) are limited — health and metrics
        probes stay answerable even from a throttled client, so the
        operator can still see *why* requests are bouncing.
        """
        if request.method != "POST" or not self.ratelimiter.enabled:
            return None
        peer = writer.get_extra_info("peername")
        client = peer[0] if isinstance(peer, (tuple, list)) and peer else "?"
        wait = self.ratelimiter.check(str(client))
        return wait if wait > 0 else None

    async def _traced_dispatch(
        self, request: HttpRequest, extra_headers: dict[str, str]
    ) -> tuple[int, bytes, str]:
        """Dispatch under a root ``service.request`` span.

        An incoming ``X-Repro-Trace-Id`` header (``trace_id`` or
        ``trace_id:parent_span_id``) joins the request to the caller's
        trace; the response always echoes the trace id back, so a client
        can correlate its own spans with the server's even when only one
        side has a sink configured.
        """
        incoming = request.headers.get(tracing.TRACE_HEADER.lower(), "")
        if not tracing.enabled():
            if incoming:
                extra_headers[tracing.TRACE_HEADER] = incoming
            return await self._normalized_dispatch(request)
        parent = tracing.TraceContext.from_header(incoming) if incoming else None
        with tracing.attach(parent):
            with tracing.span("service.request", method=request.method,
                              path=request.path) as root:
                extra_headers[tracing.TRACE_HEADER] = root.context.trace_id
                result = await self._normalized_dispatch(request)
                root.set(status=result[0])
                return result

    async def _normalized_dispatch(
        self, request: HttpRequest
    ) -> tuple[int, bytes, str]:
        answer = await self._dispatch(request)
        if len(answer) == 2:
            status, body = answer
            return status, body, "application/json"
        return answer

    # ------------------------------------------------------------------
    # Routing.
    # ------------------------------------------------------------------
    async def _dispatch(self, request: HttpRequest) -> tuple[int, bytes]:
        route = ROUTES.get(request.path)
        if route is None:
            known = ", ".join(sorted(ROUTES))
            raise HttpError(404, f"unknown path {request.path!r}; known: {known}")
        method, handler_name = route
        if request.method != method:
            raise HttpError(405, f"{request.path} accepts {method} only")
        return await getattr(self, handler_name)(request)

    @staticmethod
    def _parse_json(body: bytes):
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") from exc

    async def _answer(self, key: str, requests: list[EvalRequest],
                      serialize, partial=None) -> tuple[int, bytes]:
        """Shared eval/sweep tail after a cache miss: queue, serialize, fill.

        With ``request_timeout`` configured the job runs chunked and the
        wait is bounded: on expiry the job is cancelled (it releases the
        session at its next chunk boundary) and the answer is ``504`` —
        built by ``partial`` from the results completed so far when the
        endpoint supports partial envelopes (sweeps), a plain error
        otherwise.  Partial answers are never cached.  ``requests`` are
        already validated, so the batch is not validated again when it
        runs.
        """
        timeout = self.config.request_timeout
        try:
            job = self.executor.submit_job(requests,
                                           chunked=timeout is not None)
        except ServiceOverloaded as exc:
            raise HttpError(503, str(exc)) from exc
        except InjectedFault as exc:
            raise HttpError(503, f"admission fault injected: {exc}") from exc
        if timeout is None:
            results = await job.future
        else:
            try:
                results = await asyncio.wait_for(job.future, timeout)
            except asyncio.TimeoutError:
                job.cancel.set()
                self.metrics.count_deadline_timeout()
                message = (f"request exceeded the server deadline of "
                           f"{timeout}s")
                completed = list(job.progress)
                if partial is not None:
                    return 504, partial(message, completed)
                return 504, _error_body(message)
        self.metrics.count_evaluations(len(results))
        body = serialize(results)
        self.cache.put(key, body)
        return 200, body

    async def _handle_eval(self, request: HttpRequest) -> tuple[int, bytes]:
        payload = self._parse_json(request.body)
        with _bad_request():
            parsed = EvalRequest.parse(payload)
            key = canonical_key({"endpoint": "eval",
                                 "request": parsed.to_dict()})
        cached = self.cache.get(key)
        if cached is not None:
            return 200, cached
        with _bad_request():
            validate_requests([parsed])
        # The body is exactly EvalResult.to_json() so a served answer is
        # byte-identical to the same request through repro.api.evaluate.
        return await self._answer(
            key, [parsed],
            lambda results: results[0].to_json().encode("utf-8"),
        )

    async def _handle_sweep(self, request: HttpRequest) -> tuple[int, bytes]:
        payload = self._parse_json(request.body)
        with _bad_request():
            sweep = SweepRequest.from_dict(payload)
            key = canonical_key({"endpoint": "sweep",
                                 "sweep": sweep.to_dict()})
        cached = self.cache.get(key)
        if cached is not None:
            return 200, cached
        with _bad_request():
            expanded = sweep.expand()
            validate_requests(expanded)
        return await self._answer(
            key, expanded, sweep_body,
            # Deadline-expired sweeps still return every result computed
            # before the cut: same entry shape, flagged partial.
            partial=lambda message, completed: _json_body({
                "error": message,
                "schema_version": API_SCHEMA_VERSION,
                "count": len(expanded),
                "completed": len(completed),
                "partial": True,
                "results": [result.to_dict() for result in completed],
            }),
        )

    async def _handle_optimize(self, request: HttpRequest) -> tuple[int, bytes]:
        from repro.search.optimize import (
            OptimizeRequest,
            optimize,
            validate_optimize_request,
        )

        payload = self._parse_json(request.body)
        with _bad_request():
            parsed = OptimizeRequest.parse(payload)
            errors = validate_optimize_request(parsed)
            if errors:
                raise ValueError(
                    "invalid optimize request: " + "; ".join(errors)
                )
        key = canonical_key({"endpoint": "optimize",
                             "request": parsed.to_dict()})
        cached = self.cache.get(key)
        if cached is not None:
            return 200, cached
        # A search is one queue entry (a call job), not one entry per
        # evaluation: backpressure applies to whole searches, and the
        # session lock serializes it against concurrent eval batches.
        try:
            future = self.executor.submit_call(
                lambda session: optimize(parsed, session=session)
            )
        except ServiceOverloaded as exc:
            raise HttpError(503, str(exc)) from exc
        except InjectedFault as exc:
            raise HttpError(503, f"admission fault injected: {exc}") from exc
        result = await future
        self.metrics.count_evaluations(result.evaluations)
        # The body is exactly OptimizeResult.to_json(), so a served answer
        # is byte-identical to `repro optimize --format json` in-process.
        body = result.to_json().encode("utf-8")
        self.cache.put(key, body)
        return 200, body

    async def _handle_health(self, request: HttpRequest) -> tuple[int, bytes]:
        health = self.session.health
        return 200, _json_body({
            "status": "draining" if self._draining else (
                "degraded" if health.breaker_open else "ok"),
            "uptime_seconds": round(self.metrics.uptime_seconds, 3),
            "jobs": self.config.jobs,
            "queue_depth": self.executor.queue_depth,
            "max_queue": self.config.max_queue,
            "result_cache_entries": len(self.cache),
            # Degradation state: breaker open means the pool gave up on
            # parallelism and evaluations run serially in-process.
            "degraded": health.breaker_open,
            "quarantined_units": len(health.quarantined),
            "faults_active": faults.active_plan() is not None,
        })

    async def _handle_metrics(self, request: HttpRequest):
        if request.query.get("format") == "prometheus":
            return self._render_prometheus()
        payload = self.metrics.snapshot()
        payload["cache"] = {**self.cache.stats.as_dict(),
                            "entries": len(self.cache),
                            "capacity": self.cache.capacity,
                            "bytes": self.cache.total_bytes,
                            "max_bytes": self.cache.max_bytes,
                            "ttl_seconds": self.cache.ttl_seconds}
        payload["queue"] = {"depth": self.executor.queue_depth,
                            "max": self.config.max_queue,
                            "jobs_completed": self.executor.jobs_completed}
        payload["jobs"] = self.config.jobs
        payload["session"] = self.session.summary()
        payload["resilience"] = self.session.health.as_dict()
        from repro.accel import active_backend

        payload["accel_backend"] = active_backend()
        return 200, _json_body(payload)

    def _render_prometheus(self) -> tuple[int, bytes, str]:
        """``GET /v1/metrics?format=prometheus``: text exposition.

        Renders the service registry (request/latency/queue instruments)
        and the shared session's registry (work counters, stage seconds)
        in one scrape, refreshing the point-in-time gauges first.
        """
        from repro.obs.metrics import render_prometheus

        registry = self.metrics.registry
        registry.gauge("queue_depth",
                       "Jobs currently queued.").set(self.executor.queue_depth)
        registry.gauge("result_cache_entries",
                       "Result-cache entries held.").set(len(self.cache))
        registry.gauge("result_cache_bytes",
                       "Result-cache bytes held.").set(self.cache.total_bytes)
        registry.gauge("uptime_seconds",
                       "Seconds since server start.").set(
            self.metrics.uptime_seconds)
        text = render_prometheus(registry, self.session.metrics)
        return (200, text.encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8")


# ----------------------------------------------------------------------
# Running the server.
# ----------------------------------------------------------------------
async def serve(config: ServiceConfig, *, ready=None) -> None:
    """Run a server until cancelled, then drain (the CLI entry point).

    ``ready`` is an optional callback invoked with the started server —
    used by the CLI to print the bound address.
    """
    server = EvalServer(config)
    try:
        await server.start()
        if ready is not None:
            ready(server)
        await asyncio.Event().wait()  # until cancelled (Ctrl-C / stop)
    finally:
        await server.stop()


class ServerThread:
    """A server on a background thread — tests, benches, examples, smoke.

    Usage::

        with ServerThread(ServiceConfig(port=0, cache_dir=tmp)) as running:
            client = ServiceClient(port=running.port)
            ...

    Entering the context blocks until the listener is bound (so ``port``
    is valid); exiting performs the graceful drain before returning.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.server: EvalServer | None = None
        self.port: int | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopped: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-service")
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            # The thread has already exited (and closed its loop): reset so
            # a later stop() is a no-op instead of poking the dead loop.
            self._thread.join()
            self._thread = None
            self._loop = None
            self._stopped = None
            raise self._startup_error

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stopped is not None:
            with contextlib.suppress(RuntimeError):  # loop already closed
                self._loop.call_soon_threadsafe(self._stopped.set)
        self._thread.join()
        self._thread = None

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        server = None
        try:
            server = EvalServer(self.config)
            await server.start()
        except BaseException as exc:
            # Construction and bind failures alike must reach start()'s
            # caller — and _ready must always be set, or start() would
            # block forever on a dead thread.
            self._startup_error = exc
            if server is not None:
                await server.stop()  # releases session resources
            self._ready.set()
            return
        self.server = server
        self.port = server.port
        self._ready.set()
        try:
            await self._stopped.wait()
        finally:
            await server.stop()
