"""Blocking client SDK for the evaluation service.

:class:`ServiceClient` wraps the service endpoints in typed calls
mirroring the in-process :mod:`repro.api` facade::

    from repro.service import ServiceClient

    client = ServiceClient(port=8765)
    result = client.evaluate({"workload": "sha", "machine": {"l2_size": "1MB"}})
    print(result.cpi)

    results = client.sweep({"workloads": ["sha", "qsort"],
                            "axes": {"l2_size": ["256KB", "1MB"]}})

Built on :mod:`http.client` (stdlib), one connection per call — the
server answers ``Connection: close``.  Request bodies are compact JSON.

Failures are typed by *what the caller should do about them*:

* :class:`ServiceUnavailable` — the server is not there (connection
  refused / reset) or says it cannot take work right now (503 at
  capacity, 429 rate-limited).  Retryable: back off and try again.
* :class:`ServiceTimeout` — the server *is* there but the request outran
  a deadline (socket read timeout, or a server-side 504).  Retrying may
  help a transient stall but a too-slow request will time out again;
  raise the timeout or shrink the request.
* :class:`ServiceError` — every other non-2xx answer (400 bad request,
  404, 500...), and a sweep answer that does not match its request
  (status 502).  Not retryable: the request itself is the problem.

With ``retries > 0`` the client retries retryable failures itself, with
jittered exponential backoff that honors a ``Retry-After`` header when
the server sends one (429/503).
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Mapping

from repro.api.spec import EvalRequest, EvalResult
from repro.api.sweep import SweepRequest
from repro.obs import tracing


class ServiceError(Exception):
    """A non-2xx service response; ``status`` holds the HTTP status code."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceUnavailable(ServiceError):
    """The server is absent or shedding load (refused/reset, 503, 429).

    Retryable: the request was fine, the service could not take it.
    Transport-level instances carry status 503.
    """


class ServiceTimeout(ServiceError):
    """A deadline expired (socket read timeout, or a server-side 504).

    Transport-level instances carry status 504.  The response body of a
    server-side sweep 504 includes the partial results computed before
    the deadline; this exception only carries the error message.
    """


#: Statuses the retry loop treats as retryable (with ``Retry-After``).
_RETRYABLE_STATUSES = (429, 503)


def decode_sweep(body: bytes,
                 requests: list[EvalRequest]) -> list[EvalResult]:
    """A ``POST /v1/sweep`` body as results, entry *i* answering request *i*.

    ``requests`` is the caller's own expansion of the sweep it sent, so
    no echoed request is parsed again: each entry's ``request`` must
    equal its counterpart's ``to_dict()``, and any mismatch — in count
    or in content — raises :class:`ServiceError` (status 502).
    """
    entries = json.loads(body.decode("utf-8"))["results"]
    if len(entries) != len(requests):
        raise ServiceError(502, f"sweep answered {len(entries)} results "
                                f"for {len(requests)} requests")
    results = []
    for index, (request, entry) in enumerate(zip(requests, entries)):
        if entry["request"] != request.to_dict():
            raise ServiceError(502, f"sweep result {index} answers another "
                                    f"request: {entry['request']!r}")
        results.append(EvalResult.from_dict(entry, request=request))
    return results


class ServiceClient:
    """Blocking HTTP client for one evaluation server.

    ``retries`` enables client-side retry of retryable failures
    (:class:`ServiceUnavailable`, :class:`ServiceTimeout`, and 429/503
    responses): up to ``retries`` re-attempts with jittered exponential
    backoff starting at ``backoff_base`` seconds and capped at
    ``backoff_max``, honoring any server ``Retry-After`` hint.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8765,
                 timeout: float = 120.0, retries: int = 0,
                 backoff_base: float = 0.1, backoff_max: float = 2.0,
                 rng: random.Random | None = None,
                 sleeper=time.sleep):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleeper

    # ------------------------------------------------------------------
    # Transport.
    # ------------------------------------------------------------------
    def _request_full(self, method: str, path: str,
                      body: bytes | None = None
                      ) -> tuple[int, bytes, dict[str, str]]:
        """One exchange: ``(status, body, lower-cased headers)``.

        Raises :class:`ServiceTimeout` when the socket deadline expires
        and :class:`ServiceUnavailable` when the server cannot be
        reached at all.
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            # Propagate the caller's trace context so the server's spans
            # land in the same tree (the header names the trace and the
            # parent span; the server echoes the trace id back).
            ctx = tracing.current_context()
            if ctx is not None:
                headers[tracing.TRACE_HEADER] = ctx.to_header()
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return (response.status, response.read(),
                    {name.lower(): value
                     for name, value in response.getheaders()})
        except TimeoutError as exc:
            raise ServiceTimeout(
                504, f"no response from {self.host}:{self.port} within "
                     f"{self.timeout}s"
            ) from exc
        except (ConnectionError, OSError) as exc:
            raise ServiceUnavailable(
                503, f"cannot reach {self.host}:{self.port}: {exc}"
            ) from exc
        finally:
            connection.close()

    def _request(self, method: str, path: str,
                 body: bytes | None = None) -> tuple[int, bytes]:
        status, payload, _ = self._request_full(method, path, body)
        return status, payload

    def _backoff(self, attempt: int, retry_after: str | None) -> float:
        """Jittered exponential delay, floored by any ``Retry-After``."""
        delay = min(self.backoff_max, self.backoff_base * (2 ** attempt))
        delay *= 0.5 + self._rng.random() * 0.5
        if retry_after:
            try:
                delay = max(delay, float(retry_after))
            except ValueError:
                pass
        return delay

    def _checked(self, method: str, path: str,
                 body: bytes | None = None) -> bytes:
        attempts = self.retries + 1
        for attempt in range(attempts):
            last = attempt == attempts - 1
            try:
                status, payload, headers = self._request_full(method, path,
                                                              body)
            except (ServiceUnavailable, ServiceTimeout):
                if last:
                    raise
                self._sleep(self._backoff(attempt, None))
                continue
            if status == 200:
                return payload
            try:
                message = json.loads(payload.decode("utf-8"))["error"]
            except (ValueError, KeyError, UnicodeDecodeError):
                message = payload.decode("utf-8", errors="replace")
            if status in _RETRYABLE_STATUSES and not last:
                self._sleep(self._backoff(attempt,
                                          headers.get("retry-after")))
                continue
            if status in _RETRYABLE_STATUSES:
                raise ServiceUnavailable(status, message)
            if status == 504:
                raise ServiceTimeout(status, message)
            raise ServiceError(status, message)
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # Endpoints.
    # ------------------------------------------------------------------
    def evaluate_raw(self, request: "EvalRequest | Mapping") -> bytes:
        """``POST /v1/eval`` returning the exact response body bytes.

        The body is byte-identical to ``repro.api.evaluate(request)
        .to_json()`` — this is the method the equivalence tests use.
        """
        parsed = EvalRequest.parse(request)
        return self._checked("POST", "/v1/eval",
                             parsed.to_json(indent=None).encode("utf-8"))

    def evaluate(self, request: "EvalRequest | Mapping") -> EvalResult:
        """``POST /v1/eval`` decoded into an :class:`EvalResult`."""
        return EvalResult.from_json(self.evaluate_raw(request).decode("utf-8"))

    def sweep(self, sweep: "SweepRequest | Mapping") -> list[EvalResult]:
        """``POST /v1/sweep`` decoded into the expanded result list."""
        parsed = sweep if isinstance(sweep, SweepRequest) else SweepRequest.from_dict(sweep)
        body = self._checked("POST", "/v1/sweep",
                             parsed.to_json(indent=None).encode("utf-8"))
        return decode_sweep(body, parsed.expand())

    def optimize_raw(self, request) -> bytes:
        """``POST /v1/optimize`` returning the exact response body bytes.

        The body is byte-identical to ``repro.search.optimize(request)
        .to_json()`` run in-process (and to ``repro optimize --format
        json``) — this is the method the equivalence tests use.
        """
        from repro.search.optimize import OptimizeRequest

        parsed = OptimizeRequest.parse(request)
        return self._checked("POST", "/v1/optimize",
                             parsed.to_json(indent=None).encode("utf-8"))

    def optimize(self, request):
        """``POST /v1/optimize`` decoded into an ``OptimizeResult``."""
        from repro.search.optimize import OptimizeResult

        return OptimizeResult.from_json(
            self.optimize_raw(request).decode("utf-8"))

    def health(self) -> dict:
        """``GET /v1/health`` as a dict."""
        return json.loads(self._checked("GET", "/v1/health").decode("utf-8"))

    def metrics(self) -> dict:
        """``GET /v1/metrics`` as a dict."""
        return json.loads(self._checked("GET", "/v1/metrics").decode("utf-8"))

    def metrics_prometheus(self) -> str:
        """``GET /v1/metrics?format=prometheus`` as exposition text."""
        return self._checked(
            "GET", "/v1/metrics?format=prometheus").decode("utf-8")

    def wait_ready(self, timeout: float = 10.0, interval: float = 0.05) -> dict:
        """Poll ``/v1/health`` until the server answers (startup races).

        Raises :class:`ServiceUnavailable` when the server has not come
        up within ``timeout`` seconds — the "not up yet" case, distinct
        from a :class:`ServiceTimeout` on an established connection.
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except ServiceUnavailable as exc:
                if time.monotonic() >= deadline:
                    raise ServiceUnavailable(
                        503, f"server at {self.host}:{self.port} not ready "
                             f"after {timeout}s: {exc.message}"
                    ) from exc
                time.sleep(interval)
