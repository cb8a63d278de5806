"""The observability layer: spans, metrics registry, logger and report.

The acceptance-criteria checks: a trace context survives the WorkerPool's
crash-reset-and-retry path (worker spans after a SIGKILL still land in
the parent's tree), and evaluation output is byte-identical with tracing
on and off — on both kernel backends and both data planes.
"""

from __future__ import annotations

import json
import os
import signal

import pytest

import repro.accel as accel
from repro.api import EvalRequest, MachineSpec, WorkloadSpec, evaluate_many
from repro.machine import DEFAULT_MACHINE
from repro.obs import tracing
from repro.obs.log import Logger
from repro.obs.metrics import (
    MetricsRegistry,
    percentile,
    render_prometheus,
)
from repro.obs.report import (
    load_events,
    render_report,
    summarize,
    to_chrome_trace,
)
from repro.obs.tracing import TraceContext
from repro.runtime.session import pooled_session


@pytest.fixture(autouse=True)
def _tracing_disabled_after():
    """Every test leaves tracing off and the env unset, however it exits."""
    yield
    tracing.configure(None)
    os.environ.pop(tracing.TRACE_ENV, None)


def _events(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ----------------------------------------------------------------------
# Trace context.
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_header_round_trip(self):
        ctx = TraceContext("abc123", "def456")
        assert TraceContext.from_header(ctx.to_header()) == ctx

    def test_header_with_trace_id_only(self):
        parsed = TraceContext.from_header("deadbeef")
        assert parsed == TraceContext("deadbeef", "")

    @pytest.mark.parametrize("header", [
        "", ":", "a:b:c", "bad id:x", "<script>:x", "a" * 65,
    ])
    def test_malformed_headers_are_rejected(self, header):
        assert TraceContext.from_header(header) is None

    def test_wire_round_trip(self):
        ctx = TraceContext("t", "s")
        assert TraceContext.from_wire(ctx.to_wire()) == ctx
        assert TraceContext.from_wire(None) is None


# ----------------------------------------------------------------------
# Spans.
# ----------------------------------------------------------------------
class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        tracing.configure(None)
        assert not tracing.enabled()
        first = tracing.span("a", x=1)
        second = tracing.span("b")
        assert first is second  # one shared object: no per-call allocation
        with first as live:
            live.set(anything="goes")

    def test_nested_spans_share_a_trace_and_link_parents(self, tmp_path):
        out = tmp_path / "spans.jsonl"
        tracing.configure(str(out))
        with tracing.span("outer", kind="test") as outer:
            with tracing.span("inner"):
                pass
        events = {event["name"]: event for event in _events(out)}
        assert set(events) == {"outer", "inner"}
        inner, root = events["inner"]["args"], events["outer"]["args"]
        assert inner["trace_id"] == root["trace_id"]
        assert inner["parent_id"] == root["span_id"]
        assert "parent_id" not in root
        assert root["kind"] == "test"
        assert outer.context.trace_id == root["trace_id"]

    def test_events_are_chrome_complete_events(self, tmp_path):
        out = tmp_path / "spans.jsonl"
        tracing.configure(str(out))
        with tracing.span("planner.demo"):
            pass
        (event,) = _events(out)
        assert event["ph"] == "X"
        assert event["cat"] == "planner"
        assert event["pid"] == os.getpid()
        assert event["dur"] >= 0 and event["ts"] > 0

    def test_exception_is_recorded_and_reraised(self, tmp_path):
        out = tmp_path / "spans.jsonl"
        tracing.configure(str(out))
        with pytest.raises(ValueError):
            with tracing.span("boom"):
                raise ValueError("no")
        (event,) = _events(out)
        assert event["args"]["error"] == "ValueError"

    def test_emit_span_backdates_and_parents(self, tmp_path):
        out = tmp_path / "spans.jsonl"
        tracing.configure(str(out))
        with tracing.span("outer"):
            tracing.emit_span("stage", 0.25, stage="ship")
        events = {event["name"]: event for event in _events(out)}
        stage, outer = events["stage"], events["outer"]
        assert stage["args"]["parent_id"] == outer["args"]["span_id"]
        assert stage["dur"] == pytest.approx(250_000, rel=0.01)
        assert stage["ts"] < outer["ts"] + outer["dur"]

    def test_simulators_and_simulate_stage_emit_spans(self, tmp_path):
        from repro.pipeline import InOrderPipeline, OutOfOrderPipeline
        from repro.workloads import get_workload

        out = tmp_path / "spans.jsonl"
        tracing.configure(str(out))
        trace = get_workload("sha").trace()
        InOrderPipeline(DEFAULT_MACHINE).run(trace)
        OutOfOrderPipeline(DEFAULT_MACHINE).run(trace)
        evaluate_many([
            EvalRequest(workload=WorkloadSpec("sha"), backend="simulator",
                        machine=MachineSpec.make(width=width))
            for width in (1, 2)
        ])
        events = _events(out)
        names = [event["name"] for event in events]
        assert names.count("pipeline.inorder") == 3
        assert names.count("pipeline.ooo") == 1
        assert "planner.model" not in names
        (simulate,) = [e for e in events if e["name"] == "planner.simulate"]
        # The simulator's own span nests under the planner stage.
        nested = [e for e in events if e["name"] == "pipeline.inorder"
                  and e["args"].get("parent_id")
                  == simulate["args"]["span_id"]]
        assert len(nested) == 2

    def test_experiment_and_trace_generation_spans(self, tmp_path):
        from repro.runtime import registry
        from repro.runtime.session import Session
        from repro.workloads import get_workload

        out = tmp_path / "spans.jsonl"
        tracing.configure(str(out))
        registry.run_experiment(Session(cache_dir=None), "figure3",
                                overrides={"benchmarks": ("sha",)})
        events = _events(out)

        def only(name):
            (event,) = [e for e in events if e["name"] == name]
            return event

        def parent(event):
            return event["args"].get("parent_id")

        experiment = only("experiment.figure3")
        generate = only("session.trace_generate")
        compile_, functional = only("workload.compile"), only("trace.functional")
        # The interpreter's share is its own child of trace generation.
        assert parent(generate) == experiment["args"]["span_id"]
        assert parent(compile_) == parent(functional) == \
            generate["args"]["span_id"]
        assert functional["args"]["workload"] == "sha"
        assert functional["args"]["instructions"] == \
            len(get_workload("sha").trace())
        assert compile_["dur"] + functional["dur"] <= generate["dur"]

    def test_synthetic_generation_spans(self, tmp_path):
        from repro.workloads.synthetic import (
            SyntheticWorkloadSpec,
            generate_synthetic_store,
            generate_synthetic_trace,
        )

        out = tmp_path / "spans.jsonl"
        tracing.configure(str(out))
        spec = SyntheticWorkloadSpec(name="synth-obs", instructions=500)
        generate_synthetic_trace(spec)
        generate_synthetic_store(tmp_path / "store", spec, scale=3,
                                 chunk_length=400)
        spans = [e["args"] for e in _events(out)
                 if e["name"] == "trace.synthetic"]
        assert [(a["workload"], a["rows"], a["chunks"]) for a in spans] == \
            [("synth-obs", 500, 1), ("synth-obs", 1500, 4)]

    def test_configure_from_env(self, tmp_path):
        out = tmp_path / "spans.jsonl"
        os.environ[tracing.TRACE_ENV] = str(out)
        tracing.configure_from_env()
        assert tracing.enabled()
        assert tracing.configured_path() == str(out)
        tracing.configure(None)
        assert tracing.configured_path() is None

    def test_attach_installs_and_restores_context(self):
        ctx = TraceContext("t1", "s1")
        assert tracing.current_context() is None
        with tracing.attach(ctx):
            assert tracing.current_context() == ctx
        assert tracing.current_context() is None


# ----------------------------------------------------------------------
# Metrics registry.
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_inc_and_set_total(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "things that happened")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        counter.set_total(7)
        assert counter.value == 7
        with pytest.raises(ValueError):
            counter.set_total(3)  # counters never go down
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labeled_family_children(self):
        registry = MetricsRegistry()
        family = registry.counter("hits_total", "hits", labels=("kind",))
        family.labels(kind="a").inc()
        family.labels(kind="a").inc()
        family.labels(kind="b").inc(5)
        values = {child.label_values[0]: child.value
                  for child in family.children()}
        assert values == {"a": 2, "b": 5}

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth", "queue depth")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 3

    def test_histogram_percentiles_and_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_seconds", "latency",
                                       buckets=(0.1, 1.0))
        assert histogram.percentiles((50,)) == {}
        for value in (0.05, 0.5, 2.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(2.55)
        stats = histogram.percentiles((50, 100))
        assert stats["p50"] == pytest.approx(0.5)
        assert stats["p100"] == pytest.approx(2.0)

    def test_get_or_create_and_kind_conflicts(self):
        registry = MetricsRegistry()
        counter = registry.counter("n_total", "n")
        assert registry.counter("n_total", "n") is counter
        with pytest.raises(ValueError):
            registry.gauge("n_total", "same name, different kind")
        with pytest.raises(ValueError):
            registry.counter("n_total", "same name, different labels",
                             labels=("x",))

    def test_percentile_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50) == 20.0
        assert percentile(values, 99) == 40.0

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "served requests",
                         labels=("endpoint",)).labels(
                             endpoint="/v1/eval").inc(3)
        registry.gauge("depth", "queue depth").set(2)
        histogram = registry.histogram("wait_seconds", "queue wait",
                                       buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        text = registry.render_prometheus()
        assert "# HELP repro_requests_total served requests" in text
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{endpoint="/v1/eval"} 3' in text
        assert "repro_depth 2" in text
        assert 'repro_wait_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_wait_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_wait_seconds_count 2" in text

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", "odd", labels=("k",)).labels(
            k='a"b\\c\nd').inc()
        text = registry.render_prometheus()
        assert '{k="a\\"b\\\\c\\nd"}' in text

    def test_module_level_concatenation(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("a_total", "a").inc()
        second.counter("b_total", "b").inc()
        text = render_prometheus(first, second)
        assert "repro_a_total 1" in text and "repro_b_total 1" in text


# ----------------------------------------------------------------------
# Structured logging.
# ----------------------------------------------------------------------
class TestLogger:
    @pytest.fixture(autouse=True)
    def _restore_log_env(self):
        yield
        os.environ.pop("REPRO_LOG", None)
        os.environ.pop("REPRO_LOG_LEVEL", None)

    def test_json_lines_carry_fields_and_trace_id(self, tmp_path, capsys):
        os.environ["REPRO_LOG"] = "json"
        logger = Logger("repro.test")
        tracing.configure(str(tmp_path / "spans.jsonl"))
        with tracing.span("op") as span:
            logger.info("did a thing", count=3)
            trace_id = span.context.trace_id
        record = json.loads(capsys.readouterr().err.strip())
        assert record["event"] == "did a thing"
        assert record["count"] == 3
        assert record["name"] == "repro.test"
        assert record["level"] == "info"
        assert record["trace_id"] == trace_id

    def test_text_format_is_key_value(self, capsys):
        logger = Logger("repro.test")
        logger.warning("odd state", retries=2)
        line = capsys.readouterr().err.strip()
        assert line.startswith("repro.test: odd state")
        assert "retries=2" in line

    def test_level_filtering(self, capsys):
        os.environ["REPRO_LOG_LEVEL"] = "warning"
        logger = Logger("repro.test")
        logger.info("too quiet")
        logger.error("loud")
        err = capsys.readouterr().err
        assert "too quiet" not in err
        assert "loud" in err


# ----------------------------------------------------------------------
# Report and Chrome export.
# ----------------------------------------------------------------------
class TestReport:
    def _write(self, path, events):
        with open(path, "w", encoding="utf-8") as fh:
            for event in events:
                fh.write(json.dumps(event) + "\n")

    def _event(self, name, span_id, parent_id=None, dur=1000.0, pid=1):
        args = {"trace_id": "t", "span_id": span_id}
        if parent_id:
            args["parent_id"] = parent_id
        return {"ph": "X", "name": name, "cat": name.split(".")[0],
                "ts": 0.0, "dur": dur, "pid": pid, "tid": 1, "args": args}

    def test_load_events_skips_truncated_lines(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        good = self._event("a", "s1")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(good) + "\n")
            fh.write('{"ph": "X", "name": "tru\n')  # crash mid-write
            fh.write("\n")
        assert load_events(str(path)) == [good]

    def test_self_time_subtracts_direct_children(self, tmp_path):
        events = [
            self._event("root", "s1", dur=1000.0),
            self._event("child", "s2", parent_id="s1", dur=600.0, pid=2),
        ]
        stats = {entry.name: entry for entry in summarize(events)}
        assert stats["root"].total_us == 1000.0
        assert stats["root"].self_us == 400.0
        assert stats["child"].self_us == 600.0
        assert stats["child"].pids == {2}

    def test_render_report_header_and_rows(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        self._write(path, [self._event("planner.group", "s1")])
        report = render_report(load_events(str(path)))
        assert "1 spans, 1 trace(s), 1 process(es)" in report
        assert "planner.group" in report

    def test_to_chrome_trace_wraps_events(self):
        events = [self._event("a", "s1")]
        document = to_chrome_trace(events)
        assert document["traceEvents"] == events
        assert document["displayTimeUnit"] == "ms"


# ----------------------------------------------------------------------
# Cross-process propagation, including through a pool crash.
# ----------------------------------------------------------------------
def _profile_one(session, name):
    profile = session.miss_profile(name, DEFAULT_MACHINE)
    return (name, profile.instructions)


def _crash_once_then_profile(session, item):
    """SIGKILL this worker unless the marker file says we already did."""
    marker, name = item
    if marker and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    return _profile_one(session, name)


class TestWorkerPropagation:
    def test_worker_spans_join_the_parent_trace(self, tmp_path):
        out = tmp_path / "spans.jsonl"
        tracing.configure(str(out))  # before the pool: workers inherit it
        with pooled_session(None, 2) as session:
            with tracing.span("test.batch") as root:
                session.map(_profile_one, ["sha", "qsort", "dijkstra"])
                trace_id = root.context.trace_id
        events = _events(out)
        worker_pids = {event["pid"] for event in events
                       if event["pid"] != os.getpid()}
        assert worker_pids, "no spans from worker processes"
        assert {event["args"]["trace_id"] for event in events} == {trace_id}

    def test_context_survives_pool_crash_reset_and_retry(self, tmp_path):
        out = tmp_path / "spans.jsonl"
        marker = str(tmp_path / "crashed")
        tracing.configure(str(out))
        with pooled_session(None, 2) as session:
            items = [(marker if index == 0 else "", name)
                     for index, name in enumerate(("sha", "qsort",
                                                   "dijkstra"))]
            with tracing.span("test.batch") as root:
                results = session.map(_crash_once_then_profile, items)
                trace_id = root.context.trace_id
        assert os.path.exists(marker)  # the crash really happened
        assert [name for name, _ in results] == ["sha", "qsort", "dijkstra"]
        events = _events(out)
        retry_pids = {event["pid"] for event in events
                      if event["pid"] != os.getpid()}
        assert retry_pids, "no spans from the respawned pool"
        # Every span — including those from the fresh post-crash pool —
        # still parents into the same trace.
        assert {event["args"]["trace_id"] for event in events} == {trace_id}


# ----------------------------------------------------------------------
# Tracing must not change results.
# ----------------------------------------------------------------------
def _requests():
    return [
        EvalRequest(workload=WorkloadSpec(name), machine=MachineSpec(preset))
        for name in ("sha", "dijkstra")
        for preset in ("paper_default", "big_l2_1mb")
    ]


def _serialized(results) -> str:
    return json.dumps([result.to_dict() for result in results])


class TestTracingInvariance:
    @pytest.fixture(autouse=True)
    def _restore_backends(self):
        previous_accel = accel.active_backend()
        yield
        accel.set_backend(previous_accel)

    def _on_off(self, tmp_path, run):
        tracing.configure(None)
        off = run()
        tracing.configure(str(tmp_path / "spans.jsonl"))
        on = run()
        tracing.configure(None)
        return off, on

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_serial_output_identical_on_both_backends(self, tmp_path,
                                                      backend):
        if backend == "numpy":
            pytest.importorskip("numpy")
        accel.set_backend(backend)
        requests = _requests()
        off, on = self._on_off(
            tmp_path, lambda: _serialized(evaluate_many(requests))
        )
        assert off == on

    def test_pooled_output_identical(self, tmp_path):
        requests = _requests()

        def run():
            with pooled_session(None, 2) as session:
                return _serialized(evaluate_many(requests, session=session))

        off, on = self._on_off(tmp_path, run)
        assert off == on
