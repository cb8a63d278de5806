"""The evaluation service: HTTP layer, cache, queue, server and client.

The acceptance-criteria checks live in :class:`TestServedEval`: a served
``POST /v1/eval`` body is byte-identical to the JSON of the same request
through ``repro.api.evaluate``, and a repeated identical request is
served from the warm result cache at least 10x faster than the cold
first hit.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro import api
from repro.service import (
    EvalExecutor,
    EvalServer,
    ResultCache,
    ServerThread,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceMetrics,
    ServiceOverloaded,
    ServiceUnavailable,
    canonical_key,
    percentile,
)
from repro.service.http import HttpError, read_request, render_response


# ----------------------------------------------------------------------
# Unit layers (no sockets).
# ----------------------------------------------------------------------
class TestResultCache:
    def _cache(self, **kwargs):
        clock = {"now": 0.0}
        cache = ResultCache(clock=lambda: clock["now"], **kwargs)
        return cache, clock

    def test_hit_and_miss_counting(self):
        cache, _ = self._cache(capacity=4, ttl_seconds=10.0)
        assert cache.get("a") is None
        cache.put("a", b"1")
        assert cache.get("a") == b"1"
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_entries_expire_after_ttl(self):
        cache, clock = self._cache(capacity=4, ttl_seconds=10.0)
        cache.put("a", b"1")
        clock["now"] = 9.999
        assert cache.get("a") == b"1"
        clock["now"] = 10.0
        assert cache.get("a") is None
        assert cache.stats.expirations == 1
        assert len(cache) == 0

    def test_least_recently_used_is_evicted_first(self):
        cache, _ = self._cache(capacity=2, ttl_seconds=10.0)
        cache.put("a", b"1")
        cache.put("b", b"2")
        assert cache.get("a") == b"1"  # touches "a": "b" is now LRU
        cache.put("c", b"3")
        assert cache.get("b") is None
        assert cache.get("a") == b"1" and cache.get("c") == b"3"
        assert cache.stats.evictions == 1

    def test_overwrite_refreshes_value_and_position(self):
        cache, _ = self._cache(capacity=2, ttl_seconds=10.0)
        cache.put("a", b"1")
        cache.put("b", b"2")
        cache.put("a", b"updated")  # "b" becomes LRU
        cache.put("c", b"3")
        assert cache.get("a") == b"updated"
        assert cache.get("b") is None

    def test_byte_budget_evicts_least_recently_used(self):
        cache, _ = self._cache(capacity=100, ttl_seconds=10.0, max_bytes=10)
        cache.put("a", b"xxxx")  # 4 bytes
        cache.put("b", b"xxxx")  # 8 bytes total
        cache.put("c", b"xxxx")  # 12 > 10: "a" is evicted
        assert cache.get("a") is None
        assert cache.get("b") == b"xxxx" and cache.get("c") == b"xxxx"
        assert cache.total_bytes == 8
        assert cache.stats.evictions == 1

    def test_oversized_body_is_not_cached(self):
        cache, _ = self._cache(capacity=100, ttl_seconds=10.0, max_bytes=4)
        cache.put("small", b"ok")
        cache.put("big", b"x" * 5)  # larger than the whole budget: skipped
        assert cache.get("big") is None
        assert cache.get("small") == b"ok"  # nothing was evicted for it
        assert len(cache) == 1

    def test_byte_accounting_tracks_overwrites_and_expiry(self):
        cache, clock = self._cache(capacity=4, ttl_seconds=10.0, max_bytes=100)
        cache.put("a", b"12345678")
        cache.put("a", b"12")  # overwrite shrinks the footprint
        assert cache.total_bytes == 2
        clock["now"] = 10.0
        assert cache.get("a") is None  # expiry releases the bytes
        assert cache.total_bytes == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)
        with pytest.raises(ValueError):
            ResultCache(ttl_seconds=0)
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)

    def test_canonical_key_is_order_insensitive(self):
        assert (canonical_key({"b": 1, "a": [1, 2]})
                == canonical_key({"a": [1, 2], "b": 1}))
        assert canonical_key({"a": 1}) != canonical_key({"a": 2})


class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert percentile(values, 50) == 30.0
        assert percentile(values, 90) == 50.0
        assert percentile(values, 99) == 50.0
        assert percentile([7.0], 50) == 7.0
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile(values, 0)

    def test_snapshot_counts_and_latencies(self):
        metrics = ServiceMetrics()
        for seconds in (0.010, 0.020, 0.030):
            metrics.observe("POST /v1/eval", 200, seconds)
        metrics.observe("POST /v1/eval", 400, 0.001)
        metrics.count_evaluations(3)
        snapshot = metrics.snapshot()
        assert snapshot["requests_total"] == 4
        assert snapshot["evaluations_total"] == 3
        assert snapshot["responses"] == {"200": 3, "400": 1}
        endpoint = snapshot["endpoints"]["POST /v1/eval"]
        assert endpoint["count"] == 4 and endpoint["errors"] == 1
        assert endpoint["latency_ms"]["p50"] == pytest.approx(10.0)


class TestHttpPlumbing:
    def _parse(self, raw: bytes):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await read_request(reader)

        return asyncio.run(run())

    def test_parses_post_with_body(self):
        request = self._parse(
            b"POST /v1/eval?x=1 HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 4\r\n\r\nbody"
        )
        assert request.method == "POST"
        assert request.path == "/v1/eval"
        assert request.headers["content-type"] == "application/json"
        assert request.body == b"body"

    def test_closed_peer_returns_none(self):
        assert self._parse(b"") is None

    def test_malformed_request_line_is_400(self):
        with pytest.raises(HttpError) as info:
            self._parse(b"NONSENSE\r\n\r\n")
        assert info.value.status == 400

    def test_bad_content_length_is_400(self):
        with pytest.raises(HttpError) as info:
            self._parse(b"POST / HTTP/1.1\r\nContent-Length: ZZZ\r\n\r\n")
        assert info.value.status == 400

    def test_oversized_request_line_is_431_not_500(self):
        # Longer than StreamReader's 64KB line limit: must map to a clean
        # 431, not escape as a ValueError the server reports as a 500.
        with pytest.raises(HttpError) as info:
            self._parse(b"GET /" + b"x" * (70 * 1024) + b" HTTP/1.1\r\n\r\n")
        assert info.value.status == 431

    def test_oversized_header_line_is_431(self):
        raw = (b"GET / HTTP/1.1\r\nx-padding: " + b"y" * (70 * 1024)
               + b"\r\n\r\n")
        with pytest.raises(HttpError) as info:
            self._parse(raw)
        assert info.value.status == 431

    def test_response_bytes_are_complete_http(self):
        raw = render_response(200, b'{"ok": true}')
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 12" in head
        assert b"Connection: close" in head
        assert body == b'{"ok": true}'


class TestExecutor:
    """Queue bounds and drain, with an injected (controllable) runner."""

    def test_bounded_queue_overload_and_drain(self):
        release = threading.Event()
        processed = []

        def runner(requests):
            release.wait(timeout=10)
            processed.append(len(requests))
            return list(requests)

        async def scenario():
            executor = EvalExecutor(session=None, jobs=1, max_queue=1,
                                    runner=runner)
            executor.start()
            # picked up by the worker
            first = executor.submit_job(["a"]).future
            await asyncio.sleep(0.05)         # let the worker dequeue it
            # fills the bounded queue
            second = executor.submit_job(["b"]).future
            with pytest.raises(ServiceOverloaded):
                # queue full -> backpressure
                executor.submit_job(["c"])
            release.set()
            results = await asyncio.gather(first, second)
            await executor.drain()            # drains cleanly, workers gone
            return results

        results = asyncio.run(scenario())
        assert results == [["a"], ["b"]]
        assert processed == [1, 1]

    def test_runner_exception_surfaces_on_future(self):
        def runner(requests):
            raise RuntimeError("boom")

        async def scenario():
            executor = EvalExecutor(session=None, jobs=1, max_queue=4,
                                    runner=runner)
            executor.start()
            with pytest.raises(RuntimeError, match="boom"):
                await executor.submit_job(["a"]).future
            await executor.drain()

        asyncio.run(scenario())

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            EvalExecutor(session=None, jobs=0)
        with pytest.raises(ValueError):
            EvalExecutor(session=None, max_queue=0)

    def test_drain_finishes_backlog_even_after_workers_were_cancelled(self):
        """Python 3.10's asyncio.run cancels *all* tasks on Ctrl-C.

        drain() must not wait on dead workers: it processes the queued
        jobs inline, so the graceful-shutdown contract (no accepted
        request dropped, no hang) holds on every supported Python.
        """

        async def scenario():
            executor = EvalExecutor(session=None, jobs=2, max_queue=4,
                                    runner=lambda requests: list(requests))
            executor.start()
            # Kill the workers out from under the executor, as the 3.10
            # event-loop teardown would.
            for worker in executor._workers:
                worker.cancel()
            await asyncio.gather(*executor._workers, return_exceptions=True)
            future = executor.submit_job(["a"]).future
            await asyncio.wait_for(executor.drain(), timeout=10)
            return await future

        assert asyncio.run(scenario()) == ["a"]


class TestSweepDecoding:
    """``ServiceClient.sweep`` pairs each answer with its own request."""

    SWEEP = {"workloads": ["sha"], "axes": {"l2_size": ["256KB", "1MB"]}}

    @staticmethod
    def _entry(request):
        return api.EvalResult(request=request, backend="analytical",
                              workload=request.workload.name,
                              machine="m", instructions=10, cycles=12.0,
                              seconds=1e-8).to_dict()

    def _client(self, entries):
        client = ServiceClient(port=1)
        body = json.dumps({"schema_version": 1, "count": len(entries),
                           "results": entries}).encode("utf-8")
        client._checked = lambda method, path, body_=None: body
        return client

    def test_answers_decode_onto_the_expanded_requests(self):
        expanded = api.SweepRequest.from_dict(self.SWEEP).expand()
        client = self._client([self._entry(r) for r in expanded])
        results = client.sweep(self.SWEEP)
        assert [result.request for result in results] == expanded
        assert [result.cycles for result in results] == [12.0, 12.0]

    def test_an_answer_to_another_request_raises(self):
        expanded = api.SweepRequest.from_dict(self.SWEEP).expand()
        entries = [self._entry(r) for r in reversed(expanded)]
        with pytest.raises(ServiceError) as info:
            self._client(entries).sweep(self.SWEEP)
        assert info.value.status == 502
        assert "result 0" in info.value.message

    @pytest.mark.parametrize("kept", [1, 3])
    def test_a_result_count_mismatch_raises(self, kept):
        expanded = api.SweepRequest.from_dict(self.SWEEP).expand()
        entries = [self._entry(r) for r in (expanded * 2)[:kept]]
        with pytest.raises(ServiceError) as info:
            self._client(entries).sweep(self.SWEEP)
        assert info.value.status == 502
        assert f"{kept} results for 2 requests" in info.value.message


# ----------------------------------------------------------------------
# Live server (module-scoped: one server for every HTTP test).
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServiceConfig(
        port=0, jobs=2, max_queue=16,
        cache_dir=str(tmp_path_factory.mktemp("service-cache")),
    )
    with ServerThread(config) as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    client = ServiceClient(port=server.port)
    client.wait_ready()
    return client


class TestServedEval:
    def test_response_is_byte_identical_to_direct_api_call(self, client):
        request = {"workload": "sha", "machine": {"l2_size": "1MB"},
                   "backend": "analytical", "tag": "equivalence"}
        served = client.evaluate_raw(request)
        direct = api.evaluate(api.EvalRequest.parse(request)).to_json()
        assert served == direct.encode("utf-8")

    def test_warm_repeat_is_at_least_10x_faster_than_cold(self, client):
        # A request nothing else in this module issues, so the first hit
        # pays compilation, trace generation and profiling.
        request = {"workload": "dijkstra",
                   "machine": {"preset": "mid_7stage_800mhz",
                               "l2_size": "256KB"}}
        start = time.perf_counter()
        cold_body = client.evaluate_raw(request)
        cold = time.perf_counter() - start

        warm_times = []
        for _ in range(5):
            start = time.perf_counter()
            warm_body = client.evaluate_raw(request)
            warm_times.append(time.perf_counter() - start)
            assert warm_body == cold_body  # cache returns the same bytes
        warm = min(warm_times)
        assert cold >= 10 * warm, (
            f"warm hit not 10x faster: cold={cold * 1000:.2f} ms, "
            f"warm={warm * 1000:.2f} ms"
        )

    def test_tag_and_request_round_trip_through_result(self, client):
        result = client.evaluate({"workload": "sha", "tag": "corr-42"})
        assert result.request.tag == "corr-42"
        assert result.workload == "sha"
        assert result.cycles > 0 and result.cpi > 0

    def test_sweep_matches_in_process_evaluate_many(self, client):
        sweep = {"workloads": ["sha"],
                 "axes": {"l2_size": ["256KB", "1MB"]}}
        served = client.sweep(sweep)
        direct = api.evaluate_many(api.SweepRequest.from_dict(sweep).expand())
        assert [r.to_dict() for r in served] == [r.to_dict() for r in direct]
        assert [r.machine for r in served] == ["l2_size=256KB", "l2_size=1MB"]

    def test_sweep_body_is_compact_json_of_in_process_results(self, client):
        sweep = api.SweepRequest.from_dict(
            {"workloads": ["sha", "qsort"],
             "axes": {"l2_size": ["128KB", "2MB"]}})
        body = client._checked("POST", "/v1/sweep",
                               sweep.to_json().encode("utf-8"))
        direct = api.evaluate_many(sweep.expand())
        assert body == json.dumps({
            "schema_version": api.API_SCHEMA_VERSION,
            "count": len(direct),
            "results": [result.to_dict() for result in direct],
        }).encode("utf-8")

    def test_repeated_sweep_is_one_cache_hit_and_no_miss(self, client):
        sweep = {"workloads": ["sha"], "axes": {"l2_size": ["64KB", "4MB"]}}
        first = client.sweep(sweep)
        before = client.metrics()["cache"]
        assert client.sweep(sweep) == first
        after = client.metrics()["cache"]
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_invalid_sweep_is_400_after_a_valid_one_was_cached(self,
                                                               client):
        sweep = {"workloads": ["sha"], "axes": {"l2_size": ["256KB"]}}
        client.sweep(sweep)
        client.sweep(sweep)  # now a result-cache hit
        for invalid in ({**sweep, "workloads": ["sha", "no_such_workload"]},
                        {**sweep, "machine": {"preset": "warp_drive"}},
                        {**sweep, "axes": {"l2_size": ["1.5B"]}}):
            with pytest.raises(ServiceError) as info:
                client.sweep(invalid)
            assert info.value.status == 400

    def test_unknown_workload_is_400_listing_choices(self, client):
        with pytest.raises(ServiceError) as info:
            client.evaluate({"workload": "nonesuch"})
        assert info.value.status == 400
        assert "unknown workload" in info.value.message
        assert "sha" in info.value.message  # valid choices are listed

    def test_wrongly_typed_sweep_override_is_400_naming_its_request(
            self, client):
        sweep = {"workloads": ["sha"],
                 "axes": {"l2_size": ["512KB", 1.5e6]}}
        status, reply = client._request("POST", "/v1/sweep",
                                        json.dumps(sweep).encode())
        assert status == 400
        assert json.loads(reply)["error"].startswith(
            "request[1]: size must be an int or a string")

    def test_replay_backend_name_is_400(self, client):
        body = json.dumps({"workload": "sha", "backend": "exact"})
        status, reply = client._request("POST", "/v1/eval", body.encode())
        assert status == 400
        assert "unknown evaluation backend" in json.loads(reply)["error"]

    def test_unknown_preset_is_400_listing_choices(self, client):
        with pytest.raises(ServiceError) as info:
            client.evaluate({"workload": "sha", "machine": "warp_drive"})
        assert info.value.status == 400
        assert "paper_default" in info.value.message

    def test_string_with_power_is_400_naming_the_field(self, client):
        # Raw body: the client SDK would reject it before sending.
        body = json.dumps({"workload": "sha", "with_power": "false"})
        status, reply = client._request("POST", "/v1/eval", body.encode())
        assert status == 400
        assert "with_power" in json.loads(reply)["error"]

    def test_malformed_json_is_400(self, client):
        status, body = client._request("POST", "/v1/eval", b"{not json")
        assert status == 400
        assert "not valid JSON" in json.loads(body)["error"]

    def test_unknown_path_is_404(self, client):
        status, body = client._request("GET", "/v2/nope")
        assert status == 404
        assert "/v1/eval" in json.loads(body)["error"]

    def test_wrong_method_is_405(self, client):
        status, _ = client._request("GET", "/v1/eval")
        assert status == 405

    def test_silent_connections_are_released_and_not_counted(self, server,
                                                             client):
        import socket

        before = client.metrics()["requests_total"]
        # Liveness-probe behaviour: connect, send nothing, disconnect.
        for _ in range(3):
            probe = socket.create_connection(("127.0.0.1", server.port),
                                             timeout=5)
            probe.close()
        after = client.metrics()["requests_total"]
        # Only the metrics call itself was counted; the server kept working.
        assert after == before + 1
        assert client.health()["status"] == "ok"

    def test_unknown_endpoints_bucket_under_one_metric_label(self, client):
        # Path scans must not grow the metrics tables without bound.
        for path in ("/scan/1", "/scan/2", "/scan/3"):
            status, _ = client._request("GET", path)
            assert status == 404
        endpoints = client.metrics()["endpoints"]
        assert not any(name.endswith("/scan/1") for name in endpoints)
        assert endpoints["other"]["count"] >= 3

    def test_io_deadlines_are_configured(self, server):
        # Both directions are bounded: a peer that never sends a request
        # and a peer that never reads its response each get dropped, so
        # the drain can always finish.
        assert server.config.read_timeout > 0
        assert server.config.write_timeout > 0

    def test_health_reports_server_shape(self, client, server):
        health = client.health()
        assert health["status"] == "ok"
        assert health["jobs"] == 2 and health["max_queue"] == 16
        assert health["queue_depth"] == 0
        assert health["uptime_seconds"] >= 0

    def test_metrics_report_traffic_and_cache(self, client):
        client.evaluate({"workload": "sha"})
        client.evaluate({"workload": "sha"})  # guaranteed cache hit
        metrics = client.metrics()
        assert metrics["requests_total"] >= 2
        assert metrics["evaluations_total"] >= 1
        assert metrics["cache"]["hits"] >= 1
        assert 0 < metrics["cache"]["hit_rate"] <= 1
        eval_endpoint = metrics["endpoints"]["POST /v1/eval"]
        assert eval_endpoint["count"] >= 2
        assert eval_endpoint["latency_ms"]["p50"] > 0
        assert metrics["queue"]["max"] == 16
        assert metrics["session"]["workloads_compiled"] >= 1

    def test_metrics_report_stage_breakdown(self, client):
        client.sweep({"workloads": ["sha"],
                      "axes": {"l1d_size": ["4KB", "8KB"]}})
        metrics = client.metrics()
        stages = metrics["session"]["stages"]
        assert isinstance(stages, dict)
        # The sharded sweep above accounted its wall time to the stages.
        assert {"profile", "model", "collect"} <= set(stages)

    def test_distinct_sweeps_share_one_warm_worker_pool(self, client,
                                                        server):
        """Request N+1 pays zero pool spawn (the pool-churn regression).

        Two *different* sweeps (no result-cache hit possible) against the
        jobs=2 server must run through the same persistent worker pool,
        and the warm one — no pool spawn, no compilation, traces already
        adopted by the workers — must not be slower than the cold one.
        """
        from repro.runtime.scheduler import WorkerPool

        session = server.server.session
        start = time.perf_counter()
        client.sweep({"workloads": ["qsort"],
                      "axes": {"l2_size": ["256KB", "1MB"]}})
        cold = time.perf_counter() - start
        pool = session._pool
        created = WorkerPool.created_total
        assert pool is not None and pool.alive

        start = time.perf_counter()
        client.sweep({"workloads": ["qsort"],
                      "axes": {"l2_size": ["128KB", "512KB"]}})
        warm = time.perf_counter() - start
        assert session._pool is pool  # same pool object, still alive
        assert WorkerPool.created_total == created  # zero new pools
        assert warm < cold, (
            f"warm sweep slower than cold: warm={warm * 1000:.1f} ms, "
            f"cold={cold * 1000:.1f} ms"
        )


class TestServedRouting:
    """A jobs=2 server answers warm work in its own process, once-validated."""

    SWEEP = {"workloads": ["sha", "dijkstra"],
             "axes": {"l2_size": ["128KB", "1MB"]}}

    @pytest.fixture
    def running(self, tmp_path):
        config = ServiceConfig(port=0, jobs=2, max_queue=16,
                               cache_dir=str(tmp_path / "cache"))
        with ServerThread(config) as running:
            yield running

    @staticmethod
    def _counting_validation(monkeypatch):
        import repro.api.batch as batch
        import repro.service.server as server_module

        calls = []
        validate = batch.validate_requests

        def counted(requests, **kwargs):
            calls.append(len(requests))
            return validate(requests, **kwargs)

        monkeypatch.setattr(batch, "validate_requests", counted)
        monkeypatch.setattr(server_module, "validate_requests", counted)
        return calls

    def test_served_requests_are_validated_once(self, running, monkeypatch):
        calls = self._counting_validation(monkeypatch)
        client = ServiceClient(port=running.port)
        client.wait_ready()
        client.sweep(self.SWEEP)
        assert calls == [4]
        client.evaluate({"workload": "sha", "machine": "big_l2_1mb"})
        assert calls == [4, 1]
        # A result-cache hit is answered before validation, so it is
        # neither validated nor evaluated.
        client.sweep(self.SWEEP)
        assert calls == [4, 1]

    def test_served_requests_are_validated_once_under_a_deadline(
            self, tmp_path, monkeypatch):
        calls = self._counting_validation(monkeypatch)
        config = ServiceConfig(port=0, jobs=2, request_timeout=120.0,
                               cache_dir=str(tmp_path / "cache"))
        with ServerThread(config) as running:
            client = ServiceClient(port=running.port)
            client.wait_ready()
            results = client.sweep(self.SWEEP)
        assert calls == [4]
        assert not any(result.error for result in results)

    def test_warm_served_sweep_moves_only_groups_inline(self, running,
                                                        monkeypatch):
        client = ServiceClient(port=running.port)
        client.wait_ready()
        # One-request sweeps run in the server process: it now holds the
        # traces, so it ships them and keeps what its workers build.
        for name in self.SWEEP["workloads"]:
            client.sweep({"workloads": [name], "machines": ["paper_default"]})
        cold = client.sweep(self.SWEEP)
        before = client.metrics()["session"]
        assert before["groups_pooled"] == 2
        # Same machines, another sweep body: a result-cache miss that the
        # server answers from its memos without the pool.
        warm = client.sweep({"workloads": ["sha", "dijkstra"],
                             "axes": {"l2_size": ["1MB", "128KB"]}})
        after = client.metrics()["session"]
        assert after["groups_inline"] == before["groups_inline"] + 2
        assert after["groups_pooled"] == before["groups_pooled"]
        assert after["miss_profiles_built"] == before["miss_profiles_built"]
        expected = api.evaluate_many(
            api.SweepRequest.from_dict(self.SWEEP).expand())
        by_key = {(r.workload, r.machine): r.to_dict() for r in cold}
        assert [r.to_dict() for r in expected] == [r.to_dict() for r in cold]
        assert all(by_key[(r.workload, r.machine)] == r.to_dict()
                   for r in warm)
        text = client.metrics_prometheus()
        assert 'repro_session_events_total{event="groups_inline"}' in text
        assert 'repro_session_events_total{event="groups_pooled"}' in text

    def test_traces_the_server_never_loaded_stay_on_the_pool(self, running):
        """Without a one-request sweep the server process holds no trace:
        every group is built and answered in a worker, as before routing,
        and the answers are unchanged."""
        client = ServiceClient(port=running.port)
        client.wait_ready()
        first = client.sweep(self.SWEEP)
        again = client.sweep({"workloads": ["sha", "dijkstra"],
                              "axes": {"l2_size": ["1MB", "128KB"]}})
        session = client.metrics()["session"]
        assert (session["groups_inline"], session["groups_pooled"]) == (0, 4)
        by_key = {(r.workload, r.machine): r.to_dict() for r in first}
        assert all(by_key[(r.workload, r.machine)] == r.to_dict()
                   for r in again)


class TestShutdown:
    def test_drain_finishes_in_flight_work_then_closes_port(self, tmp_path):
        config = ServiceConfig(port=0, jobs=1, cache_dir=str(tmp_path))
        running = ServerThread(config)
        running.start()
        client = ServiceClient(port=running.port)
        client.wait_ready()

        # An uncached sweep (real work) issued just before shutdown...
        outcome: dict = {}

        def slow_request():
            try:
                outcome["results"] = client.sweep(
                    {"workloads": ["qsort"],
                     "axes": {"l2_size": ["128KB", "512KB", "2MB"]}}
                )
            except Exception as exc:  # pragma: no cover - failure detail
                outcome["error"] = exc

        thread = threading.Thread(target=slow_request)
        thread.start()
        time.sleep(0.05)  # let the request reach the queue
        running.stop()    # graceful drain
        thread.join(timeout=30)

        # ...still completes with a full answer: drained, not dropped.
        assert "error" not in outcome, outcome.get("error")
        assert len(outcome["results"]) == 3

        # And the listener is really gone: the client reports the refused
        # connection as the retryable ServiceUnavailable.
        with pytest.raises(ServiceUnavailable):
            ServiceClient(port=running.port, timeout=2.0).health()

    def test_stop_is_idempotent(self, tmp_path):
        running = ServerThread(ServiceConfig(port=0, cache_dir=str(tmp_path)))
        running.start()
        running.stop()
        running.stop()  # second stop is a no-op

    def test_failed_start_surfaces_bind_error_and_stop_is_noop(self, server):
        running = ServerThread(ServiceConfig(port=server.port))  # taken
        with pytest.raises(OSError):
            running.start()
        running.stop()  # must not mask the error with a closed-loop crash

    def test_invalid_config_raises_from_start_instead_of_hanging(self):
        running = ServerThread(ServiceConfig(port=0, cache_ttl=0))
        with pytest.raises(ValueError, match="ttl_seconds"):
            running.start()
        running.stop()

    def test_failed_bind_still_tears_down_the_executor(self, server):
        async def scenario():
            failed = EvalServer(ServiceConfig(port=server.port))  # taken
            with pytest.raises(OSError):
                await failed.start()
            await failed.stop()
            # The worker tasks and thread pool launched by start() are gone.
            assert failed.executor._queue is None
            assert failed.executor._pool is None
            assert failed.executor._workers == []

        asyncio.run(scenario())

    def test_stop_is_not_stalled_by_an_idle_open_connection(self, tmp_path):
        import socket

        running = ServerThread(ServiceConfig(port=0, cache_dir=str(tmp_path)))
        running.start()
        ServiceClient(port=running.port).wait_ready()
        # A liveness probe that connects and just sits there: it holds no
        # accepted work, so the drain cancels it instead of waiting.
        probe = socket.create_connection(("127.0.0.1", running.port),
                                         timeout=5)
        try:
            start = time.perf_counter()
            running.stop()
            assert time.perf_counter() - start < 5.0
        finally:
            probe.close()


def test_serve_smoke_passes():
    from repro.service import smoke

    assert smoke.main() == 0


class TestSessionProvisioning:
    def test_sharded_server_auto_provisions_a_shared_cache_dir(self):
        # jobs > 1 without a cache_dir: pool workers must share state, so
        # the server gets a temporary artifact-cache directory for its
        # lifetime (exactly the run/eval pooled_session behaviour)...
        server = EvalServer(ServiceConfig(port=0, jobs=2))
        cache_root = server.session.cache.root
        assert server.session.cache.enabled
        assert cache_root.is_dir()
        asyncio.run(server.stop())
        assert not cache_root.exists()  # released with the server

    def test_serial_server_defaults_to_in_memory_session(self):
        server = EvalServer(ServiceConfig(port=0, jobs=1))
        assert not server.session.cache.enabled
        asyncio.run(server.stop())

    def test_explicit_cache_dir_is_used_and_kept(self, tmp_path):
        server = EvalServer(ServiceConfig(port=0, jobs=2,
                                          cache_dir=str(tmp_path)))
        assert server.session.cache.root == tmp_path
        asyncio.run(server.stop())
        assert tmp_path.is_dir()  # a caller-owned directory is not deleted
