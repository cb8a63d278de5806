"""In-memory spans around the program's public calls, for the traced run.

The benchmark, not the program, owns these spans: :class:`Tracer` patches
a fixed list of public functions and methods (:data:`LAYERS`) with timing
wrappers while a traced iteration runs, and removes them afterwards, so
an untraced iteration executes the program's own code unchanged.

Spans are kept in memory and written out once, when the run ends.  One
process-wide stack (not one per thread) gives every span its parent: the
served workload is a closed loop, so the server thread's work always
nests inside the client call that is waiting for it, and that client
call is its parent.  A span's self time is its duration minus the time
its child spans cover; self times of all spans therefore add up to the
time covered by root spans, and whatever is left of the wall clock is
reported as unattributed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class _Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name: str, start: float, parent: "_Span | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0


class Tracer:
    """Records spans and per-layer counters while installed."""

    def __init__(self):
        self._lock = threading.Lock()
        self._stack: list[_Span] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self.spans: list[_Span] = []
        #: Calls per span name, nested calls of the same name not counted.
        self.calls: dict[str, int] = defaultdict(int)
        #: Free-form per-layer counts (instructions, passes, points, ...).
        self.counts: dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------
    # Spans.
    # ------------------------------------------------------------------
    def _open(self, name: str) -> _Span:
        with self._lock:
            parent = self._stack[-1] if self._stack else None
            span = _Span(name, time.perf_counter(), parent)
            self._stack.append(span)
            if parent is None or parent.name != name:
                self.calls[name] += 1
        return span

    def _close(self, span: _Span) -> None:
        end = time.perf_counter()
        with self._lock:
            span.end = end
            if span.parent is not None:
                span.parent.child_s += end - span.start
            # Closed loop: the span is normally on top, but a late close
            # from another thread must not unbalance the stack.
            for index in range(len(self._stack) - 1, -1, -1):
                if self._stack[index] is span:
                    del self._stack[index]
                    break
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """Time one block as span ``name``."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` timed as span ``name``; ``on_result(tracer, result, args)``
        may record counts from the call's result."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_result is not None:
                on_result(self, result, args)
            return result

        return timed

    # ------------------------------------------------------------------
    # Installation.
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` until :meth:`uninstall` restores it."""
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module_name, owner_name, attr, span_name, hook in LAYERS:
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            self.patch(owner, attr,
                       self.wrap(getattr(owner, attr), span_name, hook))
        self._install_kernels()

    def _install_kernels(self) -> None:
        """Wrap the active kernel backend's passes and streams.

        Whole-trace and chunk-stream calls of one pass kind share a span
        name, so a change that merges the two paths keeps the metric.
        """
        from repro.accel import get_kernels

        kernels = get_kernels()
        for attr, (span_name, hook) in KERNEL_PASSES.items():
            self.patch(kernels, attr, self.wrap(getattr(kernels, attr),
                                                span_name, hook))
        for attr, (span_name, hook) in KERNEL_STREAMS.items():
            self.patch(kernels, attr, self._stream_factory(
                getattr(kernels, attr), span_name, hook))

    def _stream_factory(self, factory, span_name: str, on_finish):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            stream = factory(*args, **kwargs)
            if stream is not None:
                stream.update = self.wrap(stream.update, span_name)
                stream.finish = self.wrap(stream.finish, span_name,
                                          on_finish)
            return stream

        return make

    def uninstall(self) -> None:
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += (span.end - span.start) - span.child_s
        return dict(totals)

    def inclusive_times(self) -> dict[str, float]:
        """Duration per span name, nested spans of the same name once."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is None or span.parent.name != span.name:
                totals[span.name] += span.end - span.start
        return dict(totals)

    def write(self, path: Path, origin: float) -> None:
        """All spans as Chrome trace events (one JSON document)."""
        index = {id(span): number for number, span in enumerate(self.spans)}
        events = [
            {"name": span.name, "ph": "X", "pid": 1, "tid": 1,
             "ts": round((span.start - origin) * 1e6, 3),
             "dur": round((span.end - span.start) * 1e6, 3),
             "args": {"id": index[id(span)],
                      "parent": index.get(id(span.parent))}}
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


# ----------------------------------------------------------------------
# What gets wrapped.
# ----------------------------------------------------------------------
def _count(key: str, amount=lambda result, args: 1):
    """A result hook adding ``amount(result, args)`` to ``counts[key]``."""

    def hook(tracer: Tracer, result, args) -> None:
        tracer.counts[key] += amount(result, args)

    return hook


def _count_intervals(tracer: Tracer, evaluation, args) -> None:
    tracer.counts["sampling.intervals_built"] += evaluation.cache_misses
    tracer.counts["sampling.intervals_reused"] += evaluation.cache_hits


_PASS_BUILT = _count("profiler.passes_built")

#: (module, class or "", attribute, span name, result hook).
LAYERS = (
    ("repro.runtime.session", "Session", "workload", "workloads.trace",
     None),
    ("repro.trace.functional", "FunctionalSimulator", "run",
     "workloads.trace",
     _count("workloads.instructions", lambda trace, args: len(trace))),
    ("repro.runtime.session", "Session", "program_profile",
     "profiler.program_profile", None),
    ("repro.runtime.session", "Session", "miss_profile",
     "profiler.miss_profile", None),
    # Each assembly looks up three engine passes: base, L2 and branch.
    ("repro.profiler.single_pass_engine", "SinglePassEngine", "miss_profile",
     "profiler.miss_profile",
     _count("profiler.pass_lookups", lambda result, args: 3)),
    ("repro.runtime.session", "Session", "sample_evaluate",
     "sampling.sample", _count_intervals),
    ("repro.profiler.streaming", "StreamingEngine", "program_profile",
     "profiler.stream_walk", None),
    ("repro.profiler.streaming", "StreamingEngine", "profile_machines",
     "profiler.stream_walk", None),
    ("repro.profiler.streaming", "StreamingEngine", "miss_profile",
     "profiler.stream_walk", None),
    ("repro.pipeline.inorder", "InOrderPipeline", "run", "pipeline.inorder",
     _count("pipeline.instructions", lambda result, args: len(args[1]))),
    ("repro.pipeline.ooo", "OutOfOrderPipeline", "run", "pipeline.ooo", None),
    ("repro.core.model", "InOrderMechanisticModel", "predict", "core.predict",
     _count("core.points")),
    ("repro.api.planner", "", "plan_requests", "api.planner", None),
    # The package re-exports the batch function; callers use either name.
    ("repro.api", "", "evaluate_many", "api.evaluate_many", None),
    ("repro.api.batch", "", "evaluate_many", "api.evaluate_many", None),
    ("repro.trace.store", "TraceStoreWriter", "append", "trace.store_write",
     None),
    ("repro.trace.store", "TraceStoreWriter", "finalize", "trace.store_write",
     None),
    ("repro.service.client", "ServiceClient", "sweep", "service.client",
     None),
)

#: Whole-trace kernel entry points -> (span name, result hook).
KERNEL_PASSES = {
    "base_pass": ("accel.base", _PASS_BUILT),
    "l2_pass": ("accel.l2", _PASS_BUILT),
    "count_runs": ("accel.l2", None),
    "control_stream": ("accel.branch", None),
    "branch_profile": ("accel.branch", _PASS_BUILT),
    "dependency_profile": ("accel.dependency", None),
    "instruction_mix": ("accel.mix", None),
    "predict_batch": ("core.predict",
                      _count("core.points", lambda result, args: len(args[2]))),
}

#: Chunk-stream factories -> (span name of the stream's update and finish
#: calls, hook on finish).
KERNEL_STREAMS = {
    "base_stream": ("accel.base", _PASS_BUILT),
    "l2_stream": ("accel.l2", _PASS_BUILT),
    "branch_stream": ("accel.branch", _PASS_BUILT),
    "dependency_stream": ("accel.dependency", None),
    "mix_stream": ("accel.mix", None),
}
