"""Service observability: request counters and latency percentiles.

Everything ``GET /v1/metrics`` reports is collected here, now as a thin
adapter over one :class:`~repro.obs.metrics.MetricsRegistry` — the same
registry the Prometheus exposition (``?format=prometheus``) renders, so
the JSON and text views can never drift apart.  Latencies are kept per
endpoint in a bounded window (the registry histogram retains the most
recent :data:`~repro.obs.metrics.HISTOGRAM_WINDOW` observations) so the
percentile report tracks current behaviour rather than averaging over
the server's whole lifetime; counters are cumulative.

Two signals the pre-registry implementation could not see:

* ``in_flight`` — requests currently being handled per endpoint (a gauge:
  incremented at accept, decremented at response);
* ``queue_wait_ms`` — time jobs spent queued behind the bounded executor
  before a session thread picked them up.  A saturated server used to
  report healthy handler latencies while requests aged in the queue;
  queue wait makes saturation visible.
"""

from __future__ import annotations

import time

from repro.obs.metrics import MetricsRegistry, percentile

#: Percentiles reported for every endpoint.
PERCENTILES = (50, 90, 99)

__all__ = ["PERCENTILES", "ServiceMetrics", "percentile"]


class ServiceMetrics:
    """Counters and latency windows for one server instance."""

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._started_at = clock()
        self.registry = MetricsRegistry()
        self._requests = self.registry.counter(
            "http_requests_total", "Completed HTTP requests.",
            labels=("endpoint",))
        self._errors = self.registry.counter(
            "http_errors_total", "HTTP responses with status >= 400.",
            labels=("endpoint",))
        self._responses = self.registry.counter(
            "http_responses_total", "HTTP responses by status code.",
            labels=("status",))
        self._latency = self.registry.histogram(
            "http_request_seconds", "End-to-end request handling time.",
            labels=("endpoint",))
        self._in_flight = self.registry.gauge(
            "http_in_flight", "Requests currently being handled.",
            labels=("endpoint",))
        self._queue_wait = self.registry.histogram(
            "queue_wait_seconds",
            "Time jobs spent queued before a session thread picked them up.")
        self._evaluations = self.registry.counter(
            "evaluations_total", "Model evaluations answered.")
        self._rate_limited = self.registry.counter(
            "rate_limited_total",
            "Requests rejected by per-client rate limiting (429).")
        self._deadline_timeouts = self.registry.counter(
            "deadline_timeouts_total",
            "Requests that outran the server-side deadline (504).")

    @property
    def uptime_seconds(self) -> float:
        return self._clock() - self._started_at

    @property
    def evaluations_total(self) -> int:
        return int(self._evaluations.value)

    def request_started(self, endpoint: str) -> None:
        """A request entered handling (pairs with :meth:`observe`)."""
        self._in_flight.labels(endpoint=endpoint).inc()

    def observe(self, endpoint: str, status: int, seconds: float, *,
                started: bool = False) -> None:
        """Record one completed request.

        ``started=True`` also decrements the endpoint's in-flight gauge
        (the caller bracketed handling with :meth:`request_started`).
        """
        self._requests.labels(endpoint=endpoint).inc()
        self._responses.labels(status=str(status)).inc()
        if status >= 400:
            self._errors.labels(endpoint=endpoint).inc()
        self._latency.labels(endpoint=endpoint).observe(seconds)
        if started:
            self._in_flight.labels(endpoint=endpoint).dec()

    def observe_queue_wait(self, seconds: float) -> None:
        """Record how long one job waited in the executor queue."""
        self._queue_wait.observe(seconds)

    def count_evaluations(self, count: int) -> None:
        self._evaluations.inc(count)

    def count_rate_limited(self) -> None:
        self._rate_limited.inc()

    def count_deadline_timeout(self) -> None:
        self._deadline_timeouts.inc()

    def snapshot(self) -> dict:
        """The ``GET /v1/metrics`` payload body (sans queue/cache sections)."""
        counts = {child.label_values[0]: int(child.value)
                  for child in self._requests.children()}
        errors = {child.label_values[0]: int(child.value)
                  for child in self._errors.children()}
        in_flight = {child.label_values[0]: int(child.value)
                     for child in self._in_flight.children()}
        endpoints = {}
        for endpoint in sorted(counts):
            latency = self._latency.labels(endpoint=endpoint)
            percentiles = latency.percentiles(PERCENTILES)
            endpoints[endpoint] = {
                "count": counts[endpoint],
                "errors": errors.get(endpoint, 0),
                "in_flight": in_flight.get(endpoint, 0),
                "latency_ms": {name: round(value * 1000.0, 3)
                               for name, value in percentiles.items()},
            }
        return {
            "uptime_seconds": round(self.uptime_seconds, 3),
            "requests_total": sum(counts.values()),
            "evaluations_total": self.evaluations_total,
            "rate_limited_total": int(self._rate_limited.value),
            "deadline_timeouts_total": int(self._deadline_timeouts.value),
            "responses": {child.label_values[0]: int(child.value)
                          for child in sorted(
                              self._responses.children(),
                              key=lambda c: c.label_values)},
            "queue_wait_ms": {
                name: round(value * 1000.0, 3)
                for name, value in
                self._queue_wait.percentiles(PERCENTILES).items()
            },
            "endpoints": endpoints,
        }
