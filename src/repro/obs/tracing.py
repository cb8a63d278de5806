"""Hierarchical tracing spans with cross-process / cross-HTTP propagation.

A *span* is a named, timed region of work with key/value attributes.  Spans
nest: the planner's ``planner.group`` span is a child of the service's
``service.request`` span even when the group runs in a different process,
because the parent's :class:`TraceContext` (trace id + span id) rides along
in the :class:`~repro.runtime.scheduler.WorkerPool` task envelope and in
the ``X-Repro-Trace-Id`` HTTP header.  One served ``/v1/sweep`` therefore
yields a single coherent tree: request → queue wait → planner groups →
per-worker attach/profile/model → collect.

Design constraints, in order:

1. **Near-free when disabled.**  The module-level sink starts as ``None``
   and :func:`span` returns a shared no-op context manager after one
   attribute load and one ``is None`` test.  No allocation, no contextvar
   traffic.  The ``obs_overhead`` bench gate in :mod:`repro.bench` holds
   this to ≤2% on ``sharded_evaluate_many``.
2. **Cross-process safe.**  The sink appends one JSON line per span with a
   single ``os.write`` to an ``O_APPEND`` descriptor, which POSIX keeps
   atomic across the parent and spawned pool workers writing the same
   file.  Workers are configured through the pool initializer
   (:func:`worker_config` / :func:`apply_worker_config`), like the
   fault plan — spawned children inherit nothing.
3. **Perfetto-ready.**  Each line is a Chrome trace-event ``"X"``
   (complete) event — ``ts`` in wall-clock microseconds, ``dur`` from the
   monotonic clock, ``pid``/``tid`` real, span/trace ids under ``args`` —
   so ``repro obs chrome`` only has to wrap the lines in
   ``{"traceEvents": [...]}`` for ``chrome://tracing`` / Perfetto.

Context flows through a :data:`contextvars.ContextVar`, which follows
asyncio tasks and is captured/restored explicitly at the two boundaries
that drop it: ``loop.run_in_executor`` (service job queue) and the process
pool (scheduler envelopes).
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from dataclasses import dataclass

#: Environment variable carrying the span-sink path into spawned workers
#: and subcommands (the CLI's ``--trace-out`` exports it).
TRACE_ENV = "REPRO_TRACE_OUT"

#: HTTP header carrying the trace context (``<trace_id>`` or
#: ``<trace_id>:<parent_span_id>``) into and out of the service.
TRACE_HEADER = "X-Repro-Trace-Id"


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of an in-progress trace: ids only, no timing."""

    trace_id: str
    span_id: str

    def to_wire(self) -> tuple[str, str]:
        return (self.trace_id, self.span_id)

    @staticmethod
    def from_wire(wire) -> "TraceContext | None":
        if not wire:
            return None
        trace_id, span_id = wire
        return TraceContext(str(trace_id), str(span_id))

    def to_header(self) -> str:
        return f"{self.trace_id}:{self.span_id}"

    @staticmethod
    def from_header(value: str) -> "TraceContext | None":
        """Parse ``trace_id`` or ``trace_id:span_id``; None if malformed."""
        parts = value.strip().split(":")
        if len(parts) == 1:
            trace_id, span_id = parts[0], ""
        elif len(parts) == 2:
            trace_id, span_id = parts
        else:
            return None
        if not trace_id or not all(c.isalnum() or c in "-_"
                                   for c in trace_id + span_id):
            return None
        if len(trace_id) > 64 or len(span_id) > 64:
            return None
        return TraceContext(trace_id, span_id)


_CONTEXT: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_trace_context", default=None
)


def new_id(nbytes: int = 8) -> str:
    return os.urandom(nbytes).hex()


def current_context() -> TraceContext | None:
    """The active trace context, or None when no span is open."""
    return _CONTEXT.get()


class _ContextBinding:
    """Re-enter a shipped :class:`TraceContext` (worker / executor side)."""

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: TraceContext | None):
        self._ctx = ctx
        self._token = None

    def __enter__(self):
        self._token = _CONTEXT.set(self._ctx)
        return self._ctx

    def __exit__(self, *exc):
        _CONTEXT.reset(self._token)
        return False


def attach(ctx: TraceContext | None) -> _ContextBinding:
    """Context manager installing ``ctx`` as the current trace context.

    Used on the far side of a propagation boundary: a pool worker attaches
    the envelope's context before running the task so its spans parent
    correctly; ``attach(None)`` explicitly clears inherited context.
    """
    return _ContextBinding(ctx)


class FileSpanSink:
    """Append Chrome trace events as JSONL via atomic ``O_APPEND`` writes."""

    def __init__(self, path: str):
        self.path = os.fspath(path)
        self._fd = os.open(self.path,
                           os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        self._lock = threading.Lock()

    def write(self, event: dict) -> None:
        line = json.dumps(event, separators=(",", ":")) + "\n"
        with self._lock:
            os.write(self._fd, line.encode("utf-8"))

    def close(self) -> None:
        with self._lock:
            if self._fd >= 0:
                os.close(self._fd)
                self._fd = -1


#: The active sink. ``None`` is the disabled fast path — `span()` tests
#: this once and hands back a shared no-op.
_SINK: FileSpanSink | None = None


class _NullSpan:
    """Shared do-nothing span for the disabled path. Stateless, reentrant."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs) -> None:
        pass


_NULL = _NullSpan()


class Span:
    """A live span: times itself, installs itself as the current context."""

    __slots__ = ("name", "attrs", "_sink", "_ctx", "_token",
                 "_start_wall", "_start_mono")

    def __init__(self, name: str, sink: FileSpanSink, attrs: dict):
        self.name = name
        self.attrs = attrs
        self._sink = sink

    def __enter__(self):
        parent = _CONTEXT.get()
        trace_id = parent.trace_id if parent else new_id()
        self._ctx = TraceContext(trace_id, new_id())
        if parent and parent.span_id:
            self.attrs.setdefault("parent_id", parent.span_id)
        self._token = _CONTEXT.set(self._ctx)
        self._start_wall = time.time()
        self._start_mono = time.perf_counter()
        return self

    @property
    def context(self) -> TraceContext:
        """The span's own trace context (valid after ``__enter__``)."""
        return self._ctx

    def set(self, **attrs) -> None:
        """Attach attributes to the span after entry (e.g. result counts)."""
        self.attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb):
        duration = time.perf_counter() - self._start_mono
        _CONTEXT.reset(self._token)
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        _write_event(self._sink, self.name, self._ctx,
                     self._start_wall, duration, self.attrs)
        return False


def span(name: str, **attrs):
    """A context manager timing ``name`` — a shared no-op when disabled."""
    sink = _SINK
    if sink is None:
        return _NULL
    return Span(name, sink, attrs)


def emit_span(name: str, seconds: float, **attrs) -> None:
    """Record an already-measured region as a child of the current span.

    Lets existing ``perf_counter`` timing blocks (the planner's stage
    timings, the job queue's wait measurement) become spans without being
    restructured: the event's start is back-dated ``seconds`` from now.
    No-op when tracing is disabled.
    """
    sink = _SINK
    if sink is None:
        return
    parent = _CONTEXT.get()
    trace_id = parent.trace_id if parent else new_id()
    if parent and parent.span_id:
        attrs.setdefault("parent_id", parent.span_id)
    ctx = TraceContext(trace_id, new_id())
    _write_event(sink, name, ctx, time.time() - seconds, seconds, attrs)


def _write_event(sink: FileSpanSink, name: str, ctx: TraceContext,
                 start_wall: float, duration: float, attrs: dict) -> None:
    event = {
        "ph": "X",
        "name": name,
        "cat": name.split(".", 1)[0],
        "ts": round(start_wall * 1e6, 1),
        "dur": round(duration * 1e6, 1),
        "pid": os.getpid(),
        "tid": threading.get_ident() % 1_000_000,
        "args": {"trace_id": ctx.trace_id, "span_id": ctx.span_id, **attrs},
    }
    sink.write(event)


def configure(trace_out: str | None) -> None:
    """Install (or with ``None`` remove) the module-level span sink."""
    global _SINK
    previous = _SINK
    _SINK = FileSpanSink(trace_out) if trace_out else None
    if previous is not None:
        previous.close()


def enabled() -> bool:
    return _SINK is not None


def configured_path() -> str | None:
    """The active sink's file path, or None when tracing is disabled."""
    sink = _SINK
    return sink.path if sink is not None else None


def configure_from_env(environ=os.environ) -> None:
    """Honour :data:`TRACE_ENV` if set (CLI startup and spawned tools)."""
    path = environ.get(TRACE_ENV, "").strip()
    if path:
        configure(path)


def worker_config() -> str | None:
    """What a pool initializer must ship so workers write the same file."""
    return configured_path()


def apply_worker_config(config: str | None) -> None:
    """Initializer-side counterpart of :func:`worker_config`."""
    if config:
        configure(config)
