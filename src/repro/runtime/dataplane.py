"""Zero-copy shared-memory data plane for sharded evaluation.

The sweep planner used to ship every parent-held trace to every pool
worker as raw column bytes (:meth:`~repro.trace.trace.Trace.to_payload`):
correct, but each batch re-copies the columns in the parent, pickles the
bytes through the pool pipe and copies them again in the worker
(``array.frombytes``).  This module moves the hot columns into POSIX
shared memory instead:

* the parent lays the packed columns of a trace into **one**
  ``multiprocessing.shared_memory`` segment (:class:`SegmentRegistry`),
  once per trace, ever — repeated batches against a persistent pool ship
  only a tiny picklable :class:`SegmentHandle`;
* workers **attach** (:func:`attach_trace`): the rebuilt
  :class:`~repro.trace.trace.Trace` wraps ``memoryview`` casts of the
  mapped segment, so no column byte is copied or deserialized on the
  worker side, and the attachment is memoized per segment for the
  worker's lifetime;
* a refcounted registry with guaranteed cleanup: segments are unlinked
  when released, on :meth:`SegmentRegistry.close`, at interpreter exit
  (``atexit``), and — should the parent die without running any of those —
  by the ``multiprocessing`` resource tracker, so no ``/dev/shm`` segment
  outlives the run even after a crash;
* worker processes watch a **parent-death sentinel**
  (:func:`start_parent_watch`): an orphaned worker detaches its segments
  and exits instead of holding the mappings (and the CPU) forever.

The plane is chosen by probing the platform: ``shm`` when POSIX shared
memory works, the existing payload shipping otherwise (and, per session,
whenever publishing a segment fails mid-run).  Both planes produce
byte-identical results — only transport cost differs — and the plane in
use is reported in ``/v1/metrics`` and ``repro bench``.  :func:`set_mode`
pins a plane for the benchmarks and parity tests that compare the two.

:class:`StageTimings` is the data plane's instrumentation surface: the
batch layer accounts every sharded evaluation into the five stages
``ship`` (parent publishes/copies trace transport), ``attach`` (worker
maps or rebuilds the trace), ``profile`` (single-pass engine work),
``model`` (mechanistic-model evaluation) and ``collect`` (parent
reassembly), so a speedup claim is a per-stage delta, not a guess.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
import weakref
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

from repro.trace.trace import Trace
from repro.trace.trace_schema import (
    COLUMN_NAMES,
    TRACE_SCHEMA_VERSION,
    column_typecode as _column_typecode,
)

DATAPLANE_CHOICES = ("auto", "shm", "payload")

#: Every segment this module creates is named ``repro-dp-<pid>-<n>-<hex>``;
#: the leak tests (and operators) scan ``/dev/shm`` by this prefix.
SEGMENT_PREFIX = "repro-dp"

#: The trace columns a segment carries, in layout order.  Sourced from the
#: shared trace schema so the segment layout and the payload transport can
#: never disagree about the column set.
COLUMN_FIELDS = COLUMN_NAMES

_SHM_DIR = Path("/dev/shm")

_MODE: str | None = None
_AVAILABLE: bool | None = None
_NAMES = itertools.count()


# ----------------------------------------------------------------------
# Mode selection.
# ----------------------------------------------------------------------
def shared_memory_available() -> bool:
    """Whether POSIX shared memory works on this platform (probed once)."""
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=1)
            probe.close()
            probe.unlink()
            _AVAILABLE = True
        except Exception:
            _AVAILABLE = False
    return _AVAILABLE


def _resolve(choice: str) -> str:
    choice = choice.strip().lower() or "auto"
    if choice not in DATAPLANE_CHOICES:
        raise ValueError(
            f"unknown dataplane {choice!r}; choose from "
            f"{', '.join(DATAPLANE_CHOICES)}"
        )
    if choice == "payload":
        return "payload"
    if choice == "shm":
        if not shared_memory_available():
            raise ValueError(
                "dataplane 'shm' requested but POSIX shared memory is "
                "unavailable on this platform (use 'auto' or 'payload')"
            )
        return "shm"
    return "shm" if shared_memory_available() else "payload"


def set_mode(choice: str) -> str:
    """Select the data plane (``auto`` | ``shm`` | ``payload``).

    Returns the resolved mode (``"shm"`` or ``"payload"``).  Only the
    parent's plane matters: it alone ships traces to pool workers.
    """
    global _MODE
    _MODE = _resolve(choice)
    return _MODE


def active_mode() -> str:
    """The resolved data plane (``auto`` on first use)."""
    global _MODE
    if _MODE is None:
        _MODE = _resolve("auto")
    return _MODE


# ----------------------------------------------------------------------
# Segment layout.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ColumnSpec:
    """Where one packed column lives inside a segment."""

    field: str
    typecode: str
    offset: int
    nbytes: int


@dataclass(frozen=True)
class SegmentHandle:
    """Everything a worker needs to attach a published trace.

    The handle is what actually travels through the pool pipe: segment
    name plus layout plus the (small) static-instruction tuple — a few
    hundred bytes regardless of trace length, versus megabytes of column
    payload.  It is immutable and picklable by construction.
    """

    name: str
    schema_version: int
    trace_name: str
    statics: tuple
    columns: tuple[ColumnSpec, ...]
    nbytes: int
    #: Global dynamic position of the first row.  Whole traces ship with 0;
    #: a :class:`~repro.trace.store.ChunkedTrace` ships one chunk per
    #: segment, and the chunk's sequence numbers must stay global so L2
    #: interleaving and dependency distances agree with the full stream.
    seq_start: int = 0


def _segment_name() -> str:
    # Unique per process AND per call; short enough for every POSIX
    # implementation's name limit (macOS caps at 31 characters).
    return f"{SEGMENT_PREFIX}-{os.getpid() % 100000}-{next(_NAMES)}-" \
           f"{os.urandom(2).hex()}"


def live_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Shared-memory segments currently present, by name prefix.

    Scans ``/dev/shm`` (empty where the platform keeps segments
    elsewhere); the lifecycle tests use this to prove nothing leaked.
    """
    if not _SHM_DIR.is_dir():
        return []
    return sorted(p.name for p in _SHM_DIR.iterdir()
                  if p.name.startswith(prefix))


# ----------------------------------------------------------------------
# Parent side: publishing.
# ----------------------------------------------------------------------
class SegmentRegistry:
    """Owns the shared-memory segments one session publishes.

    Each :meth:`publish` creates one segment holding every packed column
    of a trace and returns its :class:`SegmentHandle`.  Segments are
    refcounted (:meth:`retain`/:meth:`release`); :meth:`close` — also run
    via ``atexit`` and a session finalizer — unlinks everything still
    registered, so the registry can never leak a segment past the process
    even when callers forget to release.
    """

    def __init__(self):
        self._segments: dict[str, object] = {}
        self._refs: dict[str, int] = {}
        _LIVE_REGISTRIES.add(self)

    def __len__(self) -> int:
        return len(self._segments)

    def segment_names(self) -> tuple[str, ...]:
        return tuple(self._segments)

    def refcount(self, name: str) -> int:
        return self._refs.get(name, 0)

    def publish(self, trace: Trace) -> SegmentHandle:
        """Lay a trace's packed columns into one fresh segment."""
        from multiprocessing import shared_memory

        from repro.resilience import faults

        # An injected publish fault degrades the session to payload
        # shipping, the same path a full /dev/shm takes.
        faults.fire("dataplane.publish", key=trace.name or "")

        columns: list[ColumnSpec] = []
        views = []
        offset = 0
        for field in COLUMN_FIELDS:
            column = getattr(trace, field)
            view = memoryview(column).cast("B") if len(column) else None
            nbytes = view.nbytes if view is not None else 0
            columns.append(ColumnSpec(field, _column_typecode(column),
                                      offset, nbytes))
            views.append(view)
            offset += nbytes

        shm = None
        for _ in range(3):  # name collisions are possible, just unlikely
            try:
                shm = shared_memory.SharedMemory(
                    create=True, size=max(1, offset), name=_segment_name()
                )
                break
            except FileExistsError:
                continue
        if shm is None:
            raise OSError("could not allocate a unique shared-memory segment")

        try:
            for spec, view in zip(columns, views):
                if view is not None:
                    shm.buf[spec.offset:spec.offset + spec.nbytes] = view
                    view.release()
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        self._segments[shm.name.lstrip("/")] = shm
        name = shm.name.lstrip("/")
        self._refs[name] = 1
        seqs = trace.seqs
        seq_start = seqs.start if isinstance(seqs, range) else (
            seqs[0] if len(seqs) else 0)
        return SegmentHandle(
            name=name, schema_version=TRACE_SCHEMA_VERSION,
            trace_name=trace.name, statics=trace.statics,
            columns=tuple(columns), nbytes=offset, seq_start=seq_start,
        )

    def retain(self, name: str) -> None:
        if name not in self._segments:
            raise KeyError(f"unknown segment {name!r}")
        self._refs[name] += 1

    def release(self, name: str) -> None:
        """Drop one reference; the last one unlinks the segment."""
        shm = self._segments.get(name)
        if shm is None:
            return
        self._refs[name] -= 1
        if self._refs[name] > 0:
            return
        del self._segments[name]
        del self._refs[name]
        _destroy(shm)

    def close(self) -> None:
        """Unlink every registered segment (idempotent)."""
        for name in list(self._segments):
            self._refs[name] = 1
            self.release(name)


def _destroy(shm) -> None:
    try:
        shm.close()
    except BufferError:  # an exported view survives: unlink regardless
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # already gone (e.g. the tracker beat us)
        pass


# ----------------------------------------------------------------------
# Worker side: attaching.
# ----------------------------------------------------------------------
@dataclass
class _Attachment:
    shm: object
    views: list
    trace: Trace


#: Segment name -> attachment, memoized for the worker's lifetime so a
#: persistent pool attaches each trace exactly once across all batches.
_ATTACHED: dict[str, _Attachment] = {}


def _attach_segment(name: str):
    """Open an existing segment without adopting ownership of it.

    Attaching must not register the segment with the ``multiprocessing``
    resource tracker: the tracker unlinks everything still registered when
    the last process exits, which would tear the creator's segment down
    behind its back — and since forked workers share the parent's tracker
    (whose cache is one *set* of names), an attach-then-unregister would
    erase the creator's own entry.  Python 3.13 grew ``track=False`` for
    exactly this; earlier versions get the registration suppressed around
    the constructor call instead.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker

        registered = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = registered


def attach_trace(handle: SegmentHandle) -> Trace:
    """The trace behind a handle, as zero-copy views of the segment.

    The returned trace's columns are ``memoryview`` casts of the mapped
    shared memory — indexing, iteration and ``numpy.frombuffer`` all see
    the parent's bytes directly; nothing is copied or unpickled.
    Attachments are memoized by segment name until :func:`detach` (or
    worker exit, via ``atexit``/the parent-death sentinel).
    """
    attachment = _ATTACHED.get(handle.name)
    if attachment is not None:
        return attachment.trace
    if handle.schema_version != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"segment {handle.name!r} carries trace schema "
            f"{handle.schema_version!r}, expected {TRACE_SCHEMA_VERSION}"
        )
    shm = _attach_segment(handle.name)
    views = []
    columns = {}
    for spec in handle.columns:
        if spec.nbytes:
            view = shm.buf[spec.offset:spec.offset + spec.nbytes].cast(
                spec.typecode
            )
            views.append(view)
            columns[spec.field] = view
        else:
            columns[spec.field] = array(spec.typecode)
    trace = Trace.from_columns(statics=handle.statics,
                               name=handle.trace_name,
                               seq_start=handle.seq_start, **columns)
    _ATTACHED[handle.name] = _Attachment(shm=shm, views=views, trace=trace)
    # The fault point sits *after* the attachment is memoized: a ``kill``
    # rule here dies between attach and first read, the exact window the
    # orphan-cleanup machinery (parent-death sentinel + registry close)
    # must cover without leaking /dev/shm segments.
    from repro.resilience import faults

    faults.fire("dataplane.attach", key=handle.name)
    return trace


def attached_count() -> int:
    """Segments this process currently has mapped (tests, metrics)."""
    return len(_ATTACHED)


def detach(name: str) -> None:
    """Release one attachment: drop the views, unmap the segment."""
    attachment = _ATTACHED.pop(name, None)
    if attachment is None:
        return
    attachment.trace = None
    for view in attachment.views:
        view.release()
    try:
        attachment.shm.close()
    except BufferError:  # a caller still holds a column view; exit cleans up
        pass


def detach_all() -> None:
    for name in list(_ATTACHED):
        detach(name)


# ----------------------------------------------------------------------
# Cleanup guarantees.
# ----------------------------------------------------------------------
_LIVE_REGISTRIES: "weakref.WeakSet[SegmentRegistry]" = weakref.WeakSet()
_WATCHER: threading.Thread | None = None


@atexit.register
def _cleanup_at_exit() -> None:
    for registry in list(_LIVE_REGISTRIES):
        registry.close()
    detach_all()


def start_parent_watch(parent_pid: int, interval: float = 1.0) -> None:
    """Exit (after detaching) when the parent process disappears.

    Pool workers call this from their initializer: a worker orphaned by a
    parent crash re-parents (``getppid`` changes), detaches its segments
    and exits instead of idling forever with the mappings held open.
    """
    global _WATCHER
    if _WATCHER is not None or os.getppid() != parent_pid:
        return

    def _watch() -> None:
        import time

        while True:
            if os.getppid() != parent_pid:
                detach_all()
                os._exit(2)
            time.sleep(interval)

    _WATCHER = threading.Thread(target=_watch, daemon=True,
                                name="repro-parent-watch")
    _WATCHER.start()


# ----------------------------------------------------------------------
# Per-stage instrumentation.
# ----------------------------------------------------------------------
class StageTimings:
    """Accumulated wall time per data-plane stage.

    Stages: ``ship`` (parent publishes segments / copies payload bytes),
    ``attach`` (worker maps a segment or rebuilds a payload trace),
    ``profile`` (single-pass engine passes + program profiles), ``model``
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
            "Accumulated wall time per data-plane stage.",
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
