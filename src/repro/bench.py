"""Core hot-path benchmark: writes ``BENCH_core.json``.

Times the paths every PR is expected to keep fast:

* ``trace_generation``     — functional simulation of the Figure 5 fast
  benchmarks (fresh workloads, no cache),
* ``profile_machine``      — miss-event profiling of those traces on the
  default machine (trace generation excluded),
* ``api_batch_evaluate``   — the public ``repro.api`` facade answering all
  19 MiBench workloads x 4 machine presets through ``evaluate_many`` on a
  cold session (trace generation included),
* ``session_cached_rerun`` — a warm :class:`~repro.runtime.session.Session`
  answering the same workload/profile requests purely from the on-disk
  artifact cache (the hit path: zero compilations, zero trace generations),
* ``service_warm_eval``    — 50 warm ``POST /v1/eval`` round trips through
  a running :mod:`repro.service` server (result-cache hits, HTTP included)
  — the served-request latency a repeat API consumer pays, to compare
  against ``api_batch_evaluate``'s cold per-request cost,
* ``sweep_table2``         — the paper's full 192-point Table-2 design
  space x all 19 MiBench workloads through the geometry-grouped sweep
  planner on a warm-trace session (trace generation excluded; profiling
  passes, program profiles and model evaluation included), using the
  active :mod:`repro.accel` kernel backend,
* ``accel_vs_python``      — the identical sweep forced onto the
  pure-Python kernel backend; ``sweep_table2``'s median divided into this
  one is the kernel-layer speedup (reported as ``accel_speedup``),
* ``sharded_evaluate_many`` — all 19 MiBench workloads x 4 machine
  presets through ``evaluate_many`` sharded across a **persistent 4-worker
  pool**, four consecutive batches over parent-held traces on the active
  data plane (shared memory where available), with the per-stage
  ship/attach/profile/model/collect breakdown recorded next to the median,
* ``sharded_evaluate_many_payload`` — the identical sharded run forced
  onto the column-bytes payload plane; the ship/attach stage deltas
  against ``sharded_evaluate_many`` are the data-plane win,
* ``long_workload_sampled`` — a synthetic workload scaled 100x past the
  in-memory default, generated straight into an on-disk spill store and
  evaluated by warmed interval sampling (:mod:`repro.profiler.sampling`)
  in a subprocess; the entry records the sampling rate, the estimated CPI
  error, the child's peak RSS and the exact-streaming wall time the
  sampled evaluation replaces (``speedup_vs_exact``),
* ``obs_overhead``         — the cost of :mod:`repro.obs` tracing on the
  sharded hot path: one ``sharded_evaluate_many``-shaped batch timed with
  tracing disabled (the median) and again with spans appended to a
  scratch file; the entry records ``enabled_seconds``, ``spans_written``,
  the micro-timed no-op ``span()`` cost (``noop_span_ns``) and the
  disabled-instrumentation overhead it implies per batch
  (``overhead_pct``), which the compare gate holds to
  ``overhead_limit_pct`` (2%),
* ``degraded_mode_evaluate`` — the same 19 workloads x 4 presets batch on
  a 4-worker session whose circuit breaker has tripped
  (:mod:`repro.resilience`): every request drains through the serial
  in-process fallback, so this entry is the throughput floor the service
  guarantees while its worker pool is broken — compare against
  ``sharded_evaluate_many`` for the price of degradation,
* ``search_surrogate_dse`` — :mod:`repro.search` surrogate-guided
  optimization: the Table-2 192-point space searched for the minimum-EDP
  configuration under a budget of a third of the space, checked against
  the (untimed) exhaustive front, plus a budgeted search of a >10^6-point
  synthetic space with machine constraints; the entry records
  ``evals_to_front`` (evaluations spent when the returned best was found)
  and ``matched_exhaustive_best``, both of which the compare gate checks.

Each benchmark runs ``--repeat`` times with the garbage collector paused
around the timed region (collector pauses otherwise dominate the variance
of sub-second runs) and the *median* is reported.  The output schema
(``schema_version`` 7) records the Python version, job count, active
kernel backend, resolved data plane and the per-stage gate floor
(``stage_tolerance_ms``) next to the results; benchmarks with a stage
breakdown carry it (from the median run) in their entry:

.. code-block:: json

    {"schema_version": 5, "python_version": "3.11.7", "jobs": 1,
     "repeats": 3, "accel_backend": "numpy", "accel_speedup": 5.3,
     "dataplane": "shm", "stage_tolerance_ms": 50.0,
     "results": {"trace_generation": {"median": ..., "runs": [...]},
                 "long_workload_sampled": {"median": ..., "runs": [...],
                                           "sampling_rate": 32,
                                           "est_error": ...,
                                           "peak_rss_mb": ...},
                 "sharded_evaluate_many": {"median": ..., "runs": [...],
                                           "dataplane": "shm",
                                           "stages": {"ship": ...}}}}

``--compare REFERENCE.json`` turns the run into a regression gate: after
benchmarking, every benchmark present in both files is checked and the
process exits non-zero when a median regressed more than ``--tolerance``
percent (``make bench-compare`` wires this into CI against the committed
``BENCH_core.json``).  Per-stage timings are gated the same way for
stages both files record above the ``--stage-tolerance-ms`` floor
(default 50ms), so older (v3/v4) references still compare cleanly.
Search-quality figures are gated too: ``evals_to_front`` regressing
beyond the tolerance, or ``matched_exhaustive_best`` flipping from true
to false, fails the gate exactly like a wall-clock regression.  So is
observability overhead: ``obs_overhead``'s ``overhead_pct`` exceeding its
recorded ``overhead_limit_pct`` while being worse than the reference
fails the gate.

Run via ``make bench``, ``PYTHONPATH=src python benchmarks/run_bench.py``,
``repro-bench`` or ``repro-experiments bench``.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import tempfile
import time
from pathlib import Path

from repro.experiments.common import FIGURE5_FAST_BENCHMARKS
from repro.machine import DEFAULT_MACHINE
from repro.profiler.machine_stats import profile_machine
from repro.runtime.session import Session
from repro.workloads import get_workload

#: Version of the BENCH_core.json layout.
BENCH_SCHEMA_VERSION = 8

#: Allowed tracing overhead on the sharded hot path, in percent: the
#: ``obs_overhead`` compare gate fails when ``overhead_pct`` exceeds this
#: while also being worse than the reference run's figure.
OBS_OVERHEAD_LIMIT_PCT = 2.0

#: Default --stage-tolerance-ms: per-stage regressions whose reference time
#: is below this many milliseconds are ignored by the gate — sub-50ms stages
#: (handle pickling, result reassembly) are scheduler noise, not signal.
DEFAULT_STAGE_TOLERANCE_MS = 50.0

#: Long-workload benchmark shape: a synthetic workload scaled 100x past the
#: in-memory default, spilled to disk and evaluated by interval sampling.
LONG_WORKLOAD_SCALE = 100
LONG_WORKLOAD_CHUNK_LENGTH = 16384
LONG_WORKLOAD_RATE = 64
LONG_WORKLOAD_WARMUP = 3
LONG_WORKLOAD_WARMING = 2


def _fresh_workloads():
    """Figure 5 fast-benchmark workloads, bypassing the registry cache."""
    return [get_workload(name, use_cache=False) for name in FIGURE5_FAST_BENCHMARKS]


def bench_trace_generation() -> float:
    workloads = _fresh_workloads()
    start = time.perf_counter()
    for workload in workloads:
        workload.trace()
    return time.perf_counter() - start


def bench_profile_machine() -> float:
    traces = [workload.trace() for workload in _fresh_workloads()]
    start = time.perf_counter()
    for trace in traces:
        profile_machine(trace, DEFAULT_MACHINE)
    return time.perf_counter() - start


def bench_api_batch_evaluate(jobs: int = 1) -> float:
    """The public facade's batch path: 19 workloads x 4 machine presets.

    Every MiBench workload crossed with every built-in machine preset is
    answered by the ``analytical`` backend through ``evaluate_many`` on a
    fresh session — the cost a cold API consumer pays for a full suite
    sweep, trace generation included.
    """
    from repro.api import EvalRequest, MachineSpec, WorkloadSpec, evaluate_many
    from repro.machine import MACHINE_PRESETS
    from repro.workloads.registry import suite_names

    machines = [MachineSpec(preset) for preset in MACHINE_PRESETS.names()]
    requests = [
        EvalRequest(workload=WorkloadSpec(name), machine=machine)
        for name in suite_names("mibench")
        for machine in machines
    ]
    with tempfile.TemporaryDirectory() as cache_dir:
        session = Session(cache_dir=cache_dir if jobs > 1 else None, jobs=jobs)
        start = time.perf_counter()
        evaluate_many(requests, session=session)
        return time.perf_counter() - start


def _warm_profile(session: Session, name: str) -> str:
    """Cache-warming work unit (module-level so process pools can pickle it)."""
    session.miss_profile(name, DEFAULT_MACHINE)
    return name


def bench_session_cached_rerun(jobs: int = 1) -> float:
    """Artifact-cache hit path: a second session against a warmed cache dir.

    The (untimed) warm-up shards across ``jobs`` worker processes; the timed
    rerun is the serial hit path every later session enjoys.
    """
    with tempfile.TemporaryDirectory() as cache_dir:
        warmup = Session(cache_dir=cache_dir, jobs=jobs)
        warmup.map(_warm_profile, list(FIGURE5_FAST_BENCHMARKS))

        session = Session(cache_dir=cache_dir)
        start = time.perf_counter()
        for name in FIGURE5_FAST_BENCHMARKS:
            session.miss_profile(name, DEFAULT_MACHINE)
        elapsed = time.perf_counter() - start
        if session.stats.traces_generated or session.stats.workloads_compiled:
            raise RuntimeError(
                "session_cached_rerun regenerated state; the artifact-cache "
                f"hit path is broken: {session.stats.as_dict()}"
            )
    return elapsed


def bench_service_warm_eval() -> float:
    """Warm served-request latency: 50 cache-hit ``POST /v1/eval`` calls.

    An ephemeral :mod:`repro.service` server answers one cold request
    (untimed: compilation, trace generation, profiling), then the same
    request 50 more times — every repeat is a result-cache hit, so the
    timed loop measures the full HTTP round trip plus the cache lookup,
    i.e. the steady-state latency the service exists to provide.
    """
    from repro.service.client import ServiceClient
    from repro.service.server import ServerThread, ServiceConfig

    request = {"workload": "sha", "machine": {"preset": "paper_default"}}
    with tempfile.TemporaryDirectory() as cache_dir:
        with ServerThread(ServiceConfig(port=0, jobs=1,
                                        cache_dir=cache_dir)) as running:
            client = ServiceClient(port=running.port)
            client.evaluate(request)  # cold: pays the whole pipeline
            start = time.perf_counter()
            for _ in range(50):
                client.evaluate(request)
            return time.perf_counter() - start


#: Trace payloads of the Table-2 sweep workloads, generated once per
#: process (trace generation is backend-independent and benchmarked
#: separately by ``trace_generation``).
_TABLE2_PAYLOADS: dict | None = None


def _table2_session() -> Session:
    """A fresh session, warm on everything machine-independent.

    Traces (adopted from column payloads, rebuilt per run so profiling
    passes start cold) and program profiles are pre-computed: both are
    per-workload artifacts the cache persists forever, amortized across
    every sweep — the timed region is the design-space work itself
    (profiling passes, per-configuration assembly, model evaluation and
    the batch facade).
    """
    from repro.trace.trace import Trace
    from repro.workloads.registry import suite_names

    global _TABLE2_PAYLOADS
    names = suite_names("mibench")
    if _TABLE2_PAYLOADS is None:
        builder = Session()
        _TABLE2_PAYLOADS = {
            name: builder.trace(name).to_payload() for name in names
        }
    session = Session()
    for name in names:
        # A fresh Trace per run: profiling passes must start cold.
        workload = session.adopt_trace(
            name, "O3", Trace.from_payload(_TABLE2_PAYLOADS[name])
        )
        session.program_profile(workload)
    return session


def _timed_table2_sweep(backend: str | None) -> float:
    """Best of three full Table-2 x MiBench sweeps through the planner.

    The best-of repetition (after one untimed allocator warmup) is taken
    *inside* the benchmark so scheduler noise on loaded machines cannot
    skew the recorded kernel-backend speedup; the harness median then
    stacks on top of already-stable samples.
    """
    from repro import accel
    from repro.api import evaluate_many
    from repro.dse.space import default_design_space
    from repro.workloads.registry import suite_names

    requests = default_design_space().to_sweep(suite_names("mibench")).expand()
    previous = accel.active_backend()
    if backend is not None:
        accel.set_backend(backend)
    try:
        evaluate_many(requests, session=_table2_session())  # warmup
        best = None
        for _ in range(3):
            session = _table2_session()
            start = time.perf_counter()
            evaluate_many(requests, session=session)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        return best
    finally:
        accel.set_backend(previous)


def bench_sweep_table2() -> float:
    """Full 192-point x 19-workload Table-2 sweep, active kernel backend."""
    return _timed_table2_sweep(None)


def bench_accel_vs_python() -> float:
    """The identical sweep on the pure-Python kernels (the speedup baseline)."""
    return _timed_table2_sweep("python")


def _timed_sharded_evaluate_many(plane: str) -> tuple[float, dict]:
    """19 workloads x 4 presets, four batches over a persistent 4-way pool.

    The parent session holds every trace before the timed region starts
    (adopted from payloads — trace generation is benchmarked separately),
    so each batch exercises the full data plane: ship from the parent,
    attach in the workers, then the profiling and model work.  Four
    consecutive batches against the *same* pooled session are what the
    persistent pool exists for — batches after the first pay no worker
    spawn and (on ``shm``) re-ship only tiny segment handles.
    """
    from repro.api import EvalRequest, MachineSpec, WorkloadSpec, evaluate_many
    from repro.machine import MACHINE_PRESETS
    from repro.runtime import dataplane
    from repro.runtime.session import pooled_session
    from repro.trace.trace import Trace
    from repro.workloads.registry import suite_names

    names = suite_names("mibench")
    _table2_session()  # populates the shared payload cache
    requests = [
        EvalRequest(workload=WorkloadSpec(name), machine=MachineSpec(preset))
        for name in names
        for preset in MACHINE_PRESETS.names()
    ]
    previous = dataplane.active_mode()
    dataplane.set_mode(plane)
    try:
        with pooled_session(None, 4) as session:
            for name in names:
                session.adopt_trace(
                    name, "O3", Trace.from_payload(_TABLE2_PAYLOADS[name])
                )
            start = time.perf_counter()
            for _ in range(4):
                evaluate_many(requests, session=session)
            elapsed = time.perf_counter() - start
            extras = {"dataplane": session.dataplane_mode(),
                      "stages": session.stages.as_dict()}
    finally:
        dataplane.set_mode(previous)
    return elapsed, extras


def bench_sharded_evaluate_many() -> tuple[float, dict]:
    """Sharded batches on the preferred data plane (shared memory)."""
    return _timed_sharded_evaluate_many("auto")


def bench_sharded_evaluate_many_payload() -> tuple[float, dict]:
    """The identical sharded batches forced onto column-bytes payloads."""
    return _timed_sharded_evaluate_many("payload")


def bench_obs_overhead() -> tuple[float, dict]:
    """Tracing's cost on the sharded hot path — near-free when disabled.

    One ``sharded_evaluate_many``-shaped batch (19 workloads x 4 presets
    over a persistent 4-worker pool, parent-held traces) is timed best-of-3
    with tracing disabled, then again with spans appended to a scratch
    file.  Each phase gets its own pool because workers pick up the span
    sink at spawn through the pool initializer.  The disabled time is the
    reported median.

    The gated figure is ``overhead_pct``: what the instrumentation costs
    when tracing is *disabled* — the per-call price of the ``span()``
    no-op fast path (micro-timed over 100k calls, stable where a wall-time
    diff of two separate runs would be noise) times the spans the batch
    would emit, as a percent of the batch.  ``enabled_seconds`` and
    ``enabled_pct`` (actual span writing, dominated by one ``os.write``
    per span) ride along uncompared.
    """
    import os
    from pathlib import Path as _Path

    from repro.api import EvalRequest, MachineSpec, WorkloadSpec, evaluate_many
    from repro.machine import MACHINE_PRESETS
    from repro.obs import tracing
    from repro.runtime.session import pooled_session
    from repro.trace.trace import Trace
    from repro.workloads.registry import suite_names

    names = suite_names("mibench")
    _table2_session()  # populates the shared payload cache
    requests = [
        EvalRequest(workload=WorkloadSpec(name), machine=MachineSpec(preset))
        for name in names
        for preset in MACHINE_PRESETS.names()
    ]
    timed_rounds = 3

    def timed_batches(session) -> float:
        for name in names:
            session.adopt_trace(
                name, "O3", Trace.from_payload(_TABLE2_PAYLOADS[name])
            )
        evaluate_many(requests, session=session)  # warmup
        best = None
        for _ in range(timed_rounds):
            start = time.perf_counter()
            evaluate_many(requests, session=session)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        return best

    previous = tracing.configured_path()
    with tempfile.TemporaryDirectory() as root:
        span_path = os.path.join(root, "spans.jsonl")
        try:
            tracing.configure(None)
            with pooled_session(None, 4) as session:
                disabled = timed_batches(session)
            # The no-op fast path, alone: what every untraced span site
            # costs.  100k iterations make the figure stable enough to
            # gate at single-digit percent.
            calls = 100_000
            start = time.perf_counter()
            for _ in range(calls):
                with tracing.span("bench.noop", probe=1):
                    pass
            noop_seconds = (time.perf_counter() - start) / calls
            tracing.configure(span_path)
            with pooled_session(None, 4) as session:
                enabled = timed_batches(session)
        finally:
            tracing.configure(previous)
        spans_written = len(
            _Path(span_path).read_text().splitlines()
        ) if os.path.exists(span_path) else 0
    # Spans the enabled phase emitted per batch (warmup included in the
    # line count, so this slightly overstates — the cold batch profiles
    # more).  Their no-op cost as a percent of the disabled batch is the
    # disabled-tracing overhead the gate holds to the limit.
    spans_per_batch = spans_written / (timed_rounds + 1)
    overhead_pct = spans_per_batch * noop_seconds / disabled * 100.0
    return disabled, {
        "enabled_seconds": enabled,
        "enabled_pct": round((enabled / disabled - 1.0) * 100.0, 2),
        "noop_span_ns": round(noop_seconds * 1e9),
        "overhead_pct": round(overhead_pct, 4),
        "overhead_limit_pct": OBS_OVERHEAD_LIMIT_PCT,
        "spans_written": spans_written,
    }


def _reset_peak_rss() -> None:
    """Zero the process's peak-RSS watermark where the kernel allows it.

    A freshly spawned child briefly shares the parent's address space
    (fork/vfork before exec), so its ``ru_maxrss`` starts at the parent's
    RSS — 200+ MB mid-benchmark — rather than zero.  Linux resets the
    ``VmHWM`` watermark on writing ``5`` to ``/proc/self/clear_refs``;
    elsewhere the inherited figure stands (and overstates).
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    """Peak RSS in MB, honouring a :func:`_reset_peak_rss` watermark."""
    import resource

    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _long_workload_child() -> None:
    """Subprocess body of ``long_workload_sampled`` (clean-RSS measurement).

    Generates a ``LONG_WORKLOAD_SCALE``x synthetic workload straight into a
    spill store, evaluates it by interval sampling and once exactly through
    the streaming engine, and prints one JSON line with both wall times,
    the sampled CPI's estimated error and the process peak RSS.  Runs in
    its own process so the peak reflects the streamed evaluation, not
    whatever the parent benchmarked before.
    """
    import sys as _sys
    import tempfile as _tempfile

    from repro.core.model import InOrderMechanisticModel
    from repro.profiler.sampling import sample_evaluate
    from repro.profiler.single_pass_engine import SinglePassEngine
    from repro.workloads.synthetic import (
        SyntheticWorkloadSpec,
        generate_synthetic_store,
    )

    from repro.accel import get_kernels

    _reset_peak_rss()
    spec = SyntheticWorkloadSpec(name="synthetic-long")
    with _tempfile.TemporaryDirectory() as root:
        chunked = generate_synthetic_store(
            Path(root) / "store", spec, scale=LONG_WORKLOAD_SCALE,
            chunk_length=LONG_WORKLOAD_CHUNK_LENGTH,
        )
        # Resolve the kernel backend before either timed phase so neither
        # is charged the one-time import of its implementation module.
        get_kernels()
        # Min over inner repeats on both sides: the phases are ~100ms and
        # ~1s, so a single scheduler hiccup otherwise dominates the ratio.
        sampled_seconds = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            sampled = sample_evaluate(chunked, DEFAULT_MACHINE,
                                      rate=LONG_WORKLOAD_RATE,
                                      warmup=LONG_WORKLOAD_WARMUP,
                                      warming=LONG_WORKLOAD_WARMING)
            sampled_seconds = min(sampled_seconds,
                                  time.perf_counter() - start)

        exact_seconds = float("inf")
        for _ in range(3):
            # A fresh engine each round: ``for_trace`` memoizes its walk
            # on the trace, which would make later rounds free.
            start = time.perf_counter()
            engine = SinglePassEngine(chunked)
            exact = InOrderMechanisticModel(DEFAULT_MACHINE).predict(
                engine.program_profile(),
                engine.miss_profile(DEFAULT_MACHINE),
            )
            exact_seconds = min(exact_seconds, time.perf_counter() - start)

    peak_rss_mb = _peak_rss_mb()
    print(json.dumps({
        "sampled_seconds": sampled_seconds,
        "exact_seconds": exact_seconds,
        "instructions": len(chunked),
        "sampled_cpi": sampled.cpi,
        "exact_cpi": exact.cpi,
        "est_error": sampled.est_rel_error["cpi"],
        "peak_rss_mb": round(peak_rss_mb, 1),
    }))
    _sys.stdout.flush()


def bench_long_workload_sampled() -> tuple[float, dict]:
    """Interval-sampled evaluation of a 100x spilled synthetic workload.

    The reported time is the sampled evaluation alone; the extras record
    the sampling rate, the estimated CPI error, the exact-streaming wall
    time it replaces (``speedup_vs_exact``) and the child's peak RSS —
    the figure the bounded-memory CI leg asserts against.
    """
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "from repro.bench import _long_workload_child; _long_workload_child()"],
        env=env, capture_output=True, text=True, check=True,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    exact = report["exact_seconds"]
    sampled = report["sampled_seconds"]
    return sampled, {
        "sampling_rate": LONG_WORKLOAD_RATE,
        "warmup": LONG_WORKLOAD_WARMUP,
        "warming": LONG_WORKLOAD_WARMING,
        "scale": LONG_WORKLOAD_SCALE,
        "instructions": report["instructions"],
        "est_error": round(report["est_error"], 6),
        "peak_rss_mb": report["peak_rss_mb"],
        "exact_seconds": exact,
        "speedup_vs_exact": round(exact / sampled, 2) if sampled else None,
    }


def bench_degraded_mode_evaluate() -> tuple[float, dict]:
    """Serial-fallback throughput: the batch path with the breaker open.

    A 4-worker session has its circuit breaker tripped before the timed
    region, so ``evaluate_many`` never touches the pool and every request
    drains through :mod:`repro.resilience`'s serial in-process fallback —
    the degraded-mode answer rate the service still guarantees after
    repeated worker crashes.  Traces are parent-held (adopted from
    payloads) exactly like ``sharded_evaluate_many``, making the two
    medians directly comparable: their ratio is what degradation costs.
    """
    from repro.api import EvalRequest, MachineSpec, WorkloadSpec, evaluate_many
    from repro.machine import MACHINE_PRESETS
    from repro.runtime.session import pooled_session
    from repro.trace.trace import Trace
    from repro.workloads.registry import suite_names

    names = suite_names("mibench")
    _table2_session()  # populates the shared payload cache
    requests = [
        EvalRequest(workload=WorkloadSpec(name), machine=MachineSpec(preset))
        for name in names
        for preset in MACHINE_PRESETS.names()
    ]
    with pooled_session(None, 4) as session:
        for name in names:
            session.adopt_trace(
                name, "O3", Trace.from_payload(_TABLE2_PAYLOADS[name])
            )
        evaluate_many(requests, session=session)  # warmup (pooled)
        session.health.trip_breaker()
        start = time.perf_counter()
        evaluate_many(requests, session=session)
        elapsed = time.perf_counter() - start
        extras = {"breaker_open": session.health.breaker_open,
                  "serial_units": len(requests)}
    return elapsed, extras


#: Search-bench shape: the Table-2 surrogate budget is a third of the
#: 192-point space; the synthetic space must exceed a million points.
SEARCH_TABLE2_BUDGET = 64
SEARCH_SYNTH_BUDGET = 36
SEARCH_BATCH = 8
SEARCH_SEED = 2012
SEARCH_WORKLOAD = "dijkstra"


def _synthetic_search_space():
    """A >10^6-point space the surrogate bench searches under budget.

    Ten axes over cache geometry, core shape and latencies — including a
    coupled depth/frequency axis and an associativity axis conditional on
    L2 size — sized so exhaustive enumeration is out of the question
    (the point of :class:`~repro.search.space.SearchSpace`'s indexed,
    never-materialised representation).
    """
    from repro.search import SearchSpace

    return SearchSpace.make([
        {"axis": "pipeline_stages,frequency_mhz",
         "values": [[5, 600], [6, 700], [7, 800], [8, 900], [9, 1000]]},
        {"axis": "width", "values": [1, 2, 3, 4]},
        {"axis": "l2_size", "values": ["128KB", "256KB", "512KB", "1MB"]},
        {"axis": "l2_associativity", "values": [4, 8, 16],
         "when": "l2_size>=256KB"},
        {"axis": "l1i_size", "values": ["8KB", "16KB", "32KB", "64KB"]},
        {"axis": "l1d_size", "values": ["8KB", "16KB", "32KB", "64KB"]},
        {"axis": "l1i_associativity", "values": [2, 4]},
        {"axis": "l1d_associativity", "values": [2, 4]},
        {"axis": "line_size", "values": [32, 64]},
        {"axis": "l1_hit_cycles", "values": [1, 2]},
        {"axis": "tlb_entries", "values": [16, 32, 64]},
        {"axis": "mul_latency", "values": [2, 4, 6]},
        {"axis": "div_latency", "values": [12, 20, 28]},
        {"axis": "branch_predictor", "values": ["global_1kb", "hybrid_3.5kb"]},
    ])


def bench_search_surrogate_dse() -> tuple[float, dict]:
    """Surrogate-guided search vs the exhaustive Table-2 front.

    The (untimed) exhaustive reference evaluates all 192 Table-2 points
    for the minimum-EDP configuration; the timed region is the surrogate
    search of the same space under a third of that budget plus a budgeted
    search of a >10^6-point synthetic space with an area constraint —
    both on a warm-trace session, so what is timed is the search itself
    (per-geometry profiling passes, model evaluation, surrogate fitting
    and proposal).  ``evals_to_front`` and ``matched_exhaustive_best``
    ride along for the quality gate.
    """
    from repro.dse.space import default_design_space
    from repro.search import OptimizeRequest, optimize

    session = _table2_session()
    space = default_design_space()
    base = {"space": space, "workload": {"name": SEARCH_WORKLOAD},
            "objectives": ["edp"]}
    exhaustive = optimize(
        OptimizeRequest.parse({**base, "strategy": "exhaustive",
                               "budget": len(space)}),
        session=session,
    )
    synthetic_space = _synthetic_search_space()
    start = time.perf_counter()
    surrogate = optimize(
        OptimizeRequest.parse({**base, "strategy": "surrogate",
                               "budget": SEARCH_TABLE2_BUDGET,
                               "batch": SEARCH_BATCH, "seed": SEARCH_SEED}),
        session=session,
    )
    synthetic = optimize(
        OptimizeRequest.parse({
            "space": synthetic_space,
            "workload": {"name": SEARCH_WORKLOAD},
            "objectives": ["edp"],
            "constraints": ["area_proxy<=700"],
            "strategy": "surrogate", "budget": SEARCH_SYNTH_BUDGET,
            "batch": SEARCH_BATCH, "seed": SEARCH_SEED,
        }),
        session=session,
    )
    elapsed = time.perf_counter() - start
    extras = {
        "evals_to_front": surrogate.best_found_at_evaluation,
        "matched_exhaustive_best":
            surrogate.best["index"] == exhaustive.best["index"],
        "surrogate_budget": SEARCH_TABLE2_BUDGET,
        "exhaustive_points": exhaustive.evaluations,
        "synthetic_cardinality": synthetic.cardinality,
        "synthetic_evaluations": synthetic.evaluations,
        "synthetic_infeasible_skipped": synthetic.infeasible_skipped,
        "synthetic_trajectory_rounds": len(synthetic.trajectory),
        # The convergence trajectory itself (compact: per surrogate round,
        # cumulative evaluations and the incumbent's objective value).
        "synthetic_trajectory": [
            {"round": entry["round"], "evaluations": entry["evaluations"],
             "best_edp": entry.get("best", {}).get("edp")}
            for entry in synthetic.trajectory
        ],
    }
    return elapsed, extras


BENCHES = {
    "trace_generation": bench_trace_generation,
    "profile_machine": bench_profile_machine,
    "api_batch_evaluate": bench_api_batch_evaluate,
    "session_cached_rerun": bench_session_cached_rerun,
    "service_warm_eval": bench_service_warm_eval,
    "sweep_table2": bench_sweep_table2,
    "accel_vs_python": bench_accel_vs_python,
    "sharded_evaluate_many": bench_sharded_evaluate_many,
    "sharded_evaluate_many_payload": bench_sharded_evaluate_many_payload,
    "obs_overhead": bench_obs_overhead,
    "long_workload_sampled": bench_long_workload_sampled,
    "degraded_mode_evaluate": bench_degraded_mode_evaluate,
    "search_surrogate_dse": bench_search_surrogate_dse,
}

#: Benchmarks whose callable accepts (and honours) the job count.
_JOB_AWARE = {"session_cached_rerun", "api_batch_evaluate"}


def run(output: Path, repeat: int = 3, jobs: int = 1,
        stage_tolerance_ms: float = DEFAULT_STAGE_TOLERANCE_MS) -> dict:
    from repro.accel import active_backend
    from repro.runtime.dataplane import active_mode

    if repeat < 1:
        raise ValueError("repeat must be at least 1")
    results: dict[str, dict] = {}
    for name, bench in BENCHES.items():
        kwargs = {"jobs": jobs} if name in _JOB_AWARE else {}
        runs: list[float] = []
        extras: list[dict | None] = []
        for _ in range(repeat):
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                timed = bench(**kwargs)
            finally:
                if gc_was_enabled:
                    gc.enable()
            # A bench returns either the elapsed seconds, or (elapsed,
            # extras) where extras carries e.g. the per-stage breakdown.
            if isinstance(timed, tuple):
                elapsed, extra = timed
            else:
                elapsed, extra = timed, None
            runs.append(elapsed)
            extras.append(extra)
        median = statistics.median(runs)
        results[name] = {"median": median, "runs": runs}
        # Report the extras of the run the median represents.
        nearest = min(range(len(runs)), key=lambda i: abs(runs[i] - median))
        if extras[nearest]:
            results[name].update(extras[nearest])
        print(f"{name:30s} {median:8.3f} s  (median of {repeat})")
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "python_version": platform.python_version(),
        "jobs": jobs,
        "repeats": repeat,
        "accel_backend": active_backend(),
        "dataplane": active_mode(),
        "stage_tolerance_ms": stage_tolerance_ms,
        "results": results,
    }
    sweep = results.get("sweep_table2", {}).get("median")
    baseline = results.get("accel_vs_python", {}).get("median")
    if sweep and baseline:
        payload["accel_speedup"] = round(baseline / sweep, 2)
        print(f"{'accel_speedup':30s} {payload['accel_speedup']:8.2f} x  "
              f"({payload['accel_backend']} vs python on sweep_table2)")
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    return payload


def compare_results(reference: dict, current: dict, tolerance: float,
                    stage_tolerance_ms: float = DEFAULT_STAGE_TOLERANCE_MS,
                    ) -> list[str]:
    """Regressions of ``current`` vs ``reference`` beyond ``tolerance`` %.

    Only benchmarks present in both payloads are compared (new benchmarks
    pass vacuously; retired ones are ignored), so the gate stays useful
    across schema growth.  Per-stage timings (schema 4+) are gated the same
    way for stages recorded in *both* entries whose reference time clears
    ``stage_tolerance_ms`` — older references without stage breakdowns,
    and stages too small to measure reliably, pass vacuously.  Returns one
    human-readable line per regression.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    if stage_tolerance_ms < 0:
        raise ValueError("stage tolerance must be non-negative")
    limit = 1.0 + tolerance / 100.0
    stage_floor = stage_tolerance_ms / 1000.0
    regressions = []
    reference_results = reference.get("results", {})
    current_results = current.get("results", {})
    for name in sorted(set(reference_results) & set(current_results)):
        old = reference_results[name]["median"]
        new = current_results[name]["median"]
        if old > 0 and new > old * limit:
            regressions.append(
                f"{name}: {new:.3f} s vs reference {old:.3f} s "
                f"(+{(new / old - 1.0) * 100.0:.1f}% > {tolerance:g}%)"
            )
        # Search-quality gates (schema 6+): more evaluations to reach the
        # front is a regression exactly like more seconds; losing the
        # exhaustive-best match is an unconditional one.
        old_evals = reference_results[name].get("evals_to_front")
        new_evals = current_results[name].get("evals_to_front")
        if (isinstance(old_evals, (int, float)) and old_evals > 0
                and isinstance(new_evals, (int, float))
                and new_evals > old_evals * limit):
            regressions.append(
                f"{name}[evals_to_front]: {new_evals:g} vs reference "
                f"{old_evals:g} "
                f"(+{(new_evals / old_evals - 1.0) * 100.0:.1f}% "
                f"> {tolerance:g}%)"
            )
        if (reference_results[name].get("matched_exhaustive_best") is True
                and current_results[name].get("matched_exhaustive_best")
                is False):
            regressions.append(
                f"{name}[matched_exhaustive_best]: false vs reference true "
                "(the surrogate no longer finds the exhaustive best config)"
            )
        # Observability-overhead gate (schema 7+): tracing must stay
        # near-free.  Over the recorded absolute limit *and* worse than
        # the reference fails — the second condition keeps one noisy
        # reference run from blocking every later PR.
        new_pct = current_results[name].get("overhead_pct")
        limit_pct = current_results[name].get("overhead_limit_pct")
        old_pct = reference_results[name].get("overhead_pct")
        if (isinstance(new_pct, (int, float))
                and isinstance(limit_pct, (int, float))
                and new_pct > limit_pct
                and (not isinstance(old_pct, (int, float))
                     or new_pct > old_pct)):
            regressions.append(
                f"{name}[overhead_pct]: {new_pct:g}% vs limit {limit_pct:g}% "
                f"(reference {old_pct if old_pct is not None else 'n/a'})"
            )
        old_stages = reference_results[name].get("stages") or {}
        new_stages = current_results[name].get("stages") or {}
        for stage in sorted(set(old_stages) & set(new_stages)):
            old_stage = old_stages[stage]
            new_stage = new_stages[stage]
            if (old_stage >= stage_floor
                    and new_stage > old_stage * limit):
                regressions.append(
                    f"{name}[{stage}]: {new_stage:.3f} s vs reference "
                    f"{old_stage:.3f} s "
                    f"(+{(new_stage / old_stage - 1.0) * 100.0:.1f}% "
                    f"> {tolerance:g}%)"
                )
    return regressions


def gate(payload: dict, reference_path: Path, tolerance: float,
         stage_tolerance_ms: float = DEFAULT_STAGE_TOLERANCE_MS) -> int:
    """Load a reference file, report regressions, return the exit code.

    The shared tail of both bench entry points (``repro-bench`` and
    ``repro-experiments bench``): clean :class:`SystemExit` on unreadable
    references, one line per regression, 1 when anything regressed.
    """
    try:
        reference = json.loads(reference_path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"--compare {reference_path}: {exc}") from exc
    regressions = compare_results(reference, payload, tolerance,
                                  stage_tolerance_ms)
    if regressions:
        print(f"REGRESSIONS vs {reference_path}:")
        for line in regressions:
            print(f"  {line}")
        return 1
    print(f"no regressions vs {reference_path} (tolerance {tolerance:g}%, "
          f"stage floor {stage_tolerance_ms:g}ms)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=Path.cwd() / "BENCH_core.json",
        help="where to write the results (default: ./BENCH_core.json)",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="timed repetitions per benchmark; the median is reported",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the job-aware benchmarks "
             "(session_cached_rerun warm-up); recorded in the output",
    )
    parser.add_argument(
        "--compare", type=Path, default=None, metavar="REFERENCE",
        help="reference BENCH json; exit non-zero when any shared "
             "benchmark's median regresses beyond --tolerance",
    )
    parser.add_argument(
        "--tolerance", type=float, default=25.0, metavar="PCT",
        help="allowed regression vs --compare, in percent (default: 25)",
    )
    parser.add_argument(
        "--stage-tolerance-ms", type=float,
        default=DEFAULT_STAGE_TOLERANCE_MS, metavar="MS",
        help="per-stage gate floor: stages whose reference time is below "
             "this many milliseconds are not gated (default: 50)",
    )
    parser.add_argument(
        "--accel", choices=("auto", "numpy", "python"), default=None,
        help="kernel backend for this run (default: REPRO_ACCEL or auto)",
    )
    parser.add_argument(
        "--dataplane", choices=("auto", "shm", "payload"), default=None,
        help="trace transport for sharded benches "
             "(default: REPRO_DATAPLANE or auto)",
    )
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        raise SystemExit("--tolerance must be non-negative")
    if args.stage_tolerance_ms < 0:
        raise SystemExit("--stage-tolerance-ms must be non-negative")
    if args.accel:
        import os

        from repro.accel import ACCEL_ENV, set_backend

        try:
            set_backend(args.accel)
        except ValueError as exc:
            raise SystemExit(f"--accel: {exc}") from exc
        # Exported so --jobs worker processes resolve the same backend.
        os.environ[ACCEL_ENV] = args.accel
    if args.dataplane:
        import os

        from repro.runtime.dataplane import DATAPLANE_ENV, set_mode

        try:
            set_mode(args.dataplane)
        except ValueError as exc:
            raise SystemExit(f"--dataplane: {exc}") from exc
        os.environ[DATAPLANE_ENV] = args.dataplane
    payload = run(args.output, repeat=args.repeat, jobs=args.jobs,
                  stage_tolerance_ms=args.stage_tolerance_ms)
    if args.compare is not None:
        return gate(payload, args.compare, args.tolerance,
                    args.stage_tolerance_ms)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
