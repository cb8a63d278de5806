"""Fault injection, containment, self-healing caches, client retries, chaos.

The acceptance-criteria check lives in :class:`TestChaosInvariants`: a
seeded fault plan injecting worker kills, artifact-cache corruption and
slowed reads into a served full-suite sweep (19 workloads x 4 presets)
must yield (a) no server hang, (b) every non-quarantined result
byte-identical to the fault-free run, (c) quarantined items as
structured per-item errors, and (d) serial degradation after the
circuit breaker trips — on both accelerator backends.
"""

from __future__ import annotations

import asyncio
import pickle
import random
import time
from concurrent.futures import BrokenExecutor

import pytest

from repro import accel
from repro.resilience import faults
from repro.resilience.chaos import run_chaos
from repro.resilience.containment import (
    PoolCrashError,
    PoolHealth,
    RetryPolicy,
    UnitFailure,
    resilient_map,
    unit_label,
)
from repro.resilience.faults import (
    FAULTS_ENV,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.resilience.ratelimit import RateLimiter, TokenBucket
from repro.runtime.artifacts import MISSING, ArtifactCache
from repro.service.cache import EVICTION_REASONS, ResultCache
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceTimeout,
    ServiceUnavailable,
)


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    """Every test starts and ends without an installed fault plan."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    faults.clear()
    yield
    faults.clear()


# ----------------------------------------------------------------------
# Fault specs and plans.
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultSpec(point="disk.write")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            FaultSpec(point="worker.entry", mode="explode")

    def test_dict_round_trip(self):
        spec = FaultSpec(point="cache.read", mode="delay", match="sha",
                         after=2, count=3, delay_s=0.01)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-spec keys"):
            FaultSpec.from_dict({"point": "worker.entry", "mean_time": 3})


def _advance_many(payload, count, queue):
    """Child-process body: advance a shared hit counter ``count`` times."""
    plan = FaultPlan.from_dict(payload)
    queue.put([plan._advance(0, "hits") for _ in range(count)])


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(specs=(
            FaultSpec(point="worker.entry", mode="kill", match="sha"),
            FaultSpec(point="cache.write", mode="corrupt", count=2),
        ), seed=7, state_dir=str(tmp_path / "state"))
        again = FaultPlan.from_json(plan.to_json())
        assert again.to_dict() == plan.to_dict()
        assert again.seed == 7

    def test_after_count_window(self):
        plan = FaultPlan(specs=(
            FaultSpec(point="jobs.admit", after=1, count=2),
        ))
        faults.install(plan)
        faults.fire("jobs.admit")  # hit 0: skipped by after=1
        with pytest.raises(InjectedFault):
            faults.fire("jobs.admit")  # hit 1: fires
        with pytest.raises(InjectedFault):
            faults.fire("jobs.admit")  # hit 2: fires
        faults.fire("jobs.admit")  # hit 3: window exhausted
        rule = plan.report()["rules"][0]
        assert (rule["hits"], rule["fires"]) == (4, 2)

    def test_match_restricts_to_key_substring(self):
        faults.install(FaultPlan(specs=(
            FaultSpec(point="worker.entry", match="sha", count=-1),
        )))
        faults.fire("worker.entry", key="qsort")  # no match: silent
        with pytest.raises(InjectedFault) as info:
            faults.fire("worker.entry", key="sha")
        assert info.value.point == "worker.entry"
        assert info.value.key == "sha"

    def test_state_dir_shares_the_window_across_plan_copies(self, tmp_path):
        payload = FaultPlan(specs=(
            FaultSpec(point="jobs.admit", count=1),
        ), state_dir=str(tmp_path)).to_dict()
        first = FaultPlan.from_dict(payload)
        second = FaultPlan.from_dict(payload)  # a worker's own copy
        faults.install(first)
        with pytest.raises(InjectedFault):
            faults.fire("jobs.admit")
        faults.install(second)
        faults.fire("jobs.admit")  # the single fleet-wide fire is spent
        assert second.report()["rules"][0]["fires"] == 1

    def test_concurrent_processes_never_share_an_ordinal(self, tmp_path):
        """Two processes advancing one shared window at once each get
        their own ordinals, so a ``count=1`` rule fires exactly once."""
        import multiprocessing

        context = multiprocessing.get_context("fork")
        payload = FaultPlan(specs=(FaultSpec(point="jobs.admit"),),
                            state_dir=str(tmp_path)).to_dict()
        queue = context.Queue()
        workers = [context.Process(target=_advance_many,
                                   args=(payload, 2000, queue))
                   for _ in range(2)]
        for worker in workers:
            worker.start()
        ordinals = queue.get(timeout=60) + queue.get(timeout=60)
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive()
        assert sorted(ordinals) == list(range(4000))

    def test_delay_mode_sleeps(self):
        faults.install(FaultPlan(specs=(
            FaultSpec(point="http.read", mode="delay", delay_s=0.02),
        )))
        started = time.perf_counter()
        faults.fire("http.read")
        assert time.perf_counter() - started >= 0.015

    def test_async_fire_error_and_delay(self):
        faults.install(FaultPlan(specs=(
            FaultSpec(point="http.accept", mode="delay", delay_s=0.0),
            FaultSpec(point="http.write", mode="error"),
        )))

        async def scenario():
            await faults.async_fire("http.accept")  # delay: awaits, no raise
            with pytest.raises(InjectedFault):
                await faults.async_fire("http.write")

        asyncio.run(scenario())

    def test_no_plan_is_a_no_op(self):
        faults.fire("worker.entry", key="anything")
        assert faults.corrupt_bytes("cache.read", b"data") == b"data"

    def test_worker_config_round_trip(self):
        faults.install(FaultPlan(specs=(
            FaultSpec(point="worker.entry", mode="kill"),
        ), seed=3))
        config = faults.worker_config()
        faults.clear()
        faults.apply_worker_config(config)
        plan = faults.active_plan()
        assert plan is not None and plan.seed == 3
        assert plan.specs[0].mode == "kill"

    def test_install_from_env_inline_and_file(self, tmp_path, monkeypatch):
        inline = FaultPlan(specs=(
            FaultSpec(point="cache.read"),
        ), seed=11).to_json()
        monkeypatch.setenv(FAULTS_ENV, inline)
        plan = faults.install_from_env()
        assert plan is not None and plan.seed == 11
        path = tmp_path / "plan.json"
        path.write_text(inline, encoding="utf-8")
        monkeypatch.setenv(FAULTS_ENV, str(path))
        plan = faults.install_from_env()
        assert plan is not None and plan.seed == 11


class TestCorruptBytes:
    def test_flips_exactly_one_byte_deterministically(self):
        data = bytes(range(64))
        plan_dict = FaultPlan(specs=(
            FaultSpec(point="cache.write", mode="corrupt"),
        ), seed=5).to_dict()
        mutations = []
        for _ in range(2):
            faults.install(FaultPlan.from_dict(plan_dict))
            mutations.append(faults.corrupt_bytes("cache.write", data))
        assert mutations[0] == mutations[1]  # same seed, same byte
        differing = [index for index in range(len(data))
                     if mutations[0][index] != data[index]]
        assert len(differing) == 1

    def test_corrupt_rules_do_not_raise_from_fire(self):
        faults.install(FaultPlan(specs=(
            FaultSpec(point="cache.write", mode="corrupt", count=-1),
        )))
        faults.fire("cache.write")  # control-flow hook ignores corrupt rules

    def test_window_applies_to_corruption(self):
        faults.install(FaultPlan(specs=(
            FaultSpec(point="cache.write", mode="corrupt", count=1),
        )))
        data = b"payload-bytes"
        assert faults.corrupt_bytes("cache.write", data) != data
        assert faults.corrupt_bytes("cache.write", data) == data  # spent


# ----------------------------------------------------------------------
# Containment: resilient_map against a scripted pool (no subprocesses).
# ----------------------------------------------------------------------
class _Future:
    def __init__(self, value=None, error=None):
        self._value = value
        self._error = error

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value


class _ScriptedPool:
    """Breaks like a real process pool: one crash event voids the batch."""

    def __init__(self, session):
        self.session = session

    def submit_all(self, fn, items):
        labels = [unit_label(item) for item in items]
        for label in labels:
            if self.session.crashes_left.get(label, 0) > 0:
                self.session.crashes_left[label] -= 1
                return [_Future(error=BrokenExecutor("worker died"))
                        for _ in items]
        futures = []
        for item in items:
            try:
                futures.append(_Future(value=fn(self.session, item)))
            except Exception as exc:
                futures.append(_Future(error=exc))
        return futures


class _FakeSession:
    def __init__(self, crashes=None, breaker_threshold=99):
        self.crashes_left = dict(crashes or {})
        self.pool_calls = 0
        self.resets = 0
        self.health = PoolHealth()
        self.retry_policy = RetryPolicy(
            backoff_base=0.0, backoff_max=0.0,
            breaker_threshold=breaker_threshold)

    def pool(self):
        self.pool_calls += 1
        return _ScriptedPool(self)

    def reset_pool(self):
        self.resets += 1


def _shout(session, item):
    if item == "boom":
        raise ValueError("unit exploded")
    return item.upper()


class TestResilientMap:
    def test_clean_map_preserves_order(self):
        session = _FakeSession()
        assert resilient_map(session, _shout, ["a", "b", "c"]) == [
            "A", "B", "C"]
        assert session.health.pool_crashes == 0
        assert session.health.consecutive_crashes == 0

    def test_unit_exception_raises_in_strict_mode(self):
        with pytest.raises(ValueError, match="unit exploded"):
            resilient_map(_FakeSession(), _shout, ["a", "boom"])

    def test_unit_exception_becomes_unit_failure_when_not_strict(self):
        outcomes = resilient_map(_FakeSession(), _shout, ["a", "boom"],
                                 strict=False)
        assert outcomes[0] == "A"
        failure = outcomes[1]
        assert isinstance(failure, UnitFailure)
        assert failure.label == "boom" and "unit exploded" in failure.error

    def test_transient_crash_is_retried_with_backoff(self):
        session = _FakeSession(crashes={"b": 1})
        sleeps = []
        results = resilient_map(session, _shout, ["a", "b", "c"],
                                sleeper=sleeps.append)
        assert results == ["A", "B", "C"]
        assert session.health.pool_crashes == 1
        assert session.resets == 1
        assert len(sleeps) == 1  # one respawn, one backoff

    def test_poison_unit_is_quarantined_and_reported(self):
        session = _FakeSession(crashes={"b": 99})
        outcomes = resilient_map(session, _shout, ["a", "b", "c"],
                                 strict=False, sleeper=lambda _: None)
        assert outcomes[0] == "A" and outcomes[2] == "C"
        failure = outcomes[1]
        assert isinstance(failure, UnitFailure)
        assert "quarantined" in failure.error
        assert failure.crashes == RetryPolicy().unit_crash_limit
        assert "b" in session.health.quarantined
        # A later map fails the unit immediately, without pooling it.
        crashes_before = session.health.pool_crashes
        again = resilient_map(session, _shout, ["b"], strict=False)
        assert isinstance(again[0], UnitFailure)
        assert session.health.pool_crashes == crashes_before

    def test_strict_poison_raises_pool_crash_error_naming_the_unit(self):
        session = _FakeSession(crashes={"b": 99})
        with pytest.raises(PoolCrashError, match="suspect units: b"):
            resilient_map(session, _shout, ["a", "b", "c"],
                          sleeper=lambda _: None)

    def test_crash_budget_bounds_the_retries(self):
        session = _FakeSession(crashes={"a": 99, "b": 99, "c": 99})
        policy = RetryPolicy(backoff_base=0.0, backoff_max=0.0,
                             max_pool_crashes=2, breaker_threshold=99)
        with pytest.raises(PoolCrashError, match="exceeding the budget"):
            resilient_map(session, _shout, ["a", "b", "c"],
                          policy=policy, sleeper=lambda _: None)
        assert session.health.pool_crashes == 3  # budget + the fatal one

    def test_breaker_trips_to_serial_and_stays_tripped(self):
        session = _FakeSession(crashes={"a": 9, "b": 9}, breaker_threshold=2)
        results = resilient_map(session, _shout, ["a", "b", "c"],
                                sleeper=lambda _: None)
        assert results == ["A", "B", "C"]  # serial fallback still answers
        assert session.health.breaker_open
        # The next map never touches the pool.
        calls_before = session.pool_calls
        assert resilient_map(session, _shout, ["d"]) == ["D"]
        assert session.pool_calls == calls_before

    def test_bisection_isolates_the_culprit_in_a_wide_batch(self):
        items = [f"unit{index}" for index in range(12)] + ["b"]
        session = _FakeSession(crashes={"b": 99})
        outcomes = resilient_map(session, _shout, items, strict=False,
                                 sleeper=lambda _: None)
        failures = [out for out in outcomes if isinstance(out, UnitFailure)]
        assert [failure.label for failure in failures] == ["b"]
        assert [out for out in outcomes
                if not isinstance(out, UnitFailure)] == [
            item.upper() for item in items if item != "b"]


class TestRealPoolContainment:
    """The same contract against a real process pool and kill faults."""

    def test_injected_worker_kill_quarantines_only_the_poison_unit(self):
        from repro.api.batch import evaluate_many
        from repro.api.spec import EvalRequest
        from repro.runtime.session import Session

        faults.install(FaultPlan(specs=(
            FaultSpec(point="worker.entry", mode="kill", match="adpcm_c",
                      count=99),
        ), seed=2012))
        session = Session(jobs=2)
        session.retry_policy = RetryPolicy(
            backoff_base=0.01, backoff_max=0.02, breaker_threshold=99)
        requests = [
            EvalRequest.parse({"workload": name,
                               "machine": {"preset": "paper_default"}})
            for name in ("adpcm_c", "adpcm_d", "dijkstra", "gsm_c")
        ]
        results = evaluate_many(requests, session=session)
        errors = {result.workload: result.error for result in results
                  if result.error}
        assert set(errors) == {"adpcm_c"}
        assert "quarantined" in errors["adpcm_c"]
        assert "adpcm_c" in session.health.quarantined
        faults.clear()
        # The healthy units answered byte-identically to a clean session.
        clean = evaluate_many(requests[1:], session=Session())
        assert [r.to_dict() for r in results[1:]] == [
            r.to_dict() for r in clean]


# ----------------------------------------------------------------------
# Artifact-cache self-healing.
# ----------------------------------------------------------------------
class TestArtifactSelfHealing:
    def _cache(self, tmp_path):
        return ArtifactCache(root=tmp_path / "cache")

    def test_round_trip_and_stats(self, tmp_path):
        cache = self._cache(tmp_path)
        cache.store({"cpi": 1.25}, "profile", workload="sha")
        assert cache.load("profile", workload="sha") == {"cpi": 1.25}
        assert cache.stats.as_dict() == {
            "hits": 1, "misses": 0, "stores": 1,
            "corruptions": 0, "store_failures": 0}

    def test_truncated_entry_heals_to_a_miss_and_deletes(self, tmp_path):
        healed = []
        cache = self._cache(tmp_path)
        cache.on_corruption = lambda: healed.append(True)
        cache.store(list(range(100)), "trace", workload="sha")
        path = cache.path_for("trace", workload="sha")
        path.write_bytes(path.read_bytes()[:-20])
        assert cache.load("trace", workload="sha") is MISSING
        assert cache.stats.corruptions == 1
        assert healed == [True]
        assert not path.exists()  # healed: the corpse is gone
        # The rebuilt entry is trusted again.
        cache.store(list(range(100)), "trace", workload="sha")
        assert cache.load("trace", workload="sha") == list(range(100))

    def test_flipped_payload_byte_fails_the_digest(self, tmp_path):
        cache = self._cache(tmp_path)
        cache.store(b"x" * 256, "trace", workload="sha")
        path = cache.path_for("trace", workload="sha")
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert cache.load("trace", workload="sha") is MISSING
        assert cache.stats.corruptions == 1

    def test_legacy_two_pickle_entry_still_loads(self, tmp_path):
        cache = self._cache(tmp_path)
        path = cache.path_for("profile", workload="sha")
        path.parent.mkdir(parents=True)
        with path.open("wb") as handle:
            pickle.dump({"kind": "profile", "workload": "sha"}, handle)
            pickle.dump({"cpi": 2.5}, handle)  # pre-digest format
        assert cache.load("profile", workload="sha") == {"cpi": 2.5}
        assert cache.stats.hits == 1

    def test_injected_write_corruption_is_healed_on_read(self, tmp_path):
        cache = self._cache(tmp_path)
        faults.install(FaultPlan(specs=(
            FaultSpec(point="cache.write", mode="corrupt", count=1),
        ), seed=9))
        cache.store({"value": 42}, "profile", workload="sha")
        assert cache.stats.stores == 1  # the torn write itself "succeeded"
        assert cache.load("profile", workload="sha") is MISSING
        assert cache.stats.corruptions == 1
        cache.store({"value": 42}, "profile", workload="sha")  # window spent
        assert cache.load("profile", workload="sha") == {"value": 42}

    def test_injected_read_error_misses_without_deleting(self, tmp_path):
        cache = self._cache(tmp_path)
        cache.store("payload", "profile", workload="sha")
        faults.install(FaultPlan(specs=(
            FaultSpec(point="cache.read", mode="error", count=1),
        )))
        assert cache.load("profile", workload="sha") is MISSING
        assert cache.stats.corruptions == 0  # transient, entry kept
        assert cache.load("profile", workload="sha") == "payload"

    def test_injected_write_error_counts_a_store_failure(self, tmp_path):
        cache = self._cache(tmp_path)
        faults.install(FaultPlan(specs=(
            FaultSpec(point="cache.write", mode="error", count=1),
        )))
        cache.store("payload", "profile", workload="sha")
        assert cache.stats.store_failures == 1
        assert cache.load("profile", workload="sha") is MISSING


# ----------------------------------------------------------------------
# Result-cache digest verification and eviction labels.
# ----------------------------------------------------------------------
class TestResultCacheCorruption:
    def test_tampered_entry_serves_a_miss_and_counts_corrupt(self):
        cache = ResultCache(capacity=4, ttl_seconds=60.0)
        cache.put("key", b"the answer")
        assert cache.get("key") == b"the answer"
        expires_at, _, digest = cache._entries["key"]
        cache._entries["key"] = (expires_at, b"the answEr", digest)
        assert cache.get("key") is None  # never serve unverified bytes
        assert cache.stats.evicted["corrupt"] == 1
        assert cache.stats.corruptions == 1
        assert len(cache) == 0

    def test_eviction_reasons_have_distinct_labels(self):
        clock = [0.0]
        cache = ResultCache(capacity=1, ttl_seconds=10.0,
                            clock=lambda: clock[0])
        cache.put("a", b"1")
        cache.put("b", b"2")  # capacity evicts "a"
        clock[0] = 11.0
        assert cache.get("b") is None  # expired
        assert cache.stats.evicted == {
            "capacity": 1, "expired": 1, "corrupt": 0}
        assert tuple(cache.stats.evicted) == EVICTION_REASONS
        # Flat-counter compatibility readings.
        assert cache.stats.evictions == 1
        assert cache.stats.expirations == 1
        assert cache.stats.as_dict()["evictions"] == {
            "capacity": 1, "expired": 1, "corrupt": 0}


# ----------------------------------------------------------------------
# Client retries and typed failures.
# ----------------------------------------------------------------------
class _ScriptedClient(ServiceClient):
    """A client whose transport replays a scripted exchange sequence."""

    def __init__(self, script, retries=0):
        super().__init__(retries=retries, backoff_base=0.01,
                         backoff_max=0.05, rng=random.Random(0),
                         sleeper=self._sleep)
        self.script = list(script)
        self.sleeps: list[float] = []

    def _sleep(self, seconds):
        self.sleeps.append(seconds)

    def _request_full(self, method, path, body=None):
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


class TestClientRetries:
    def test_retryable_503_is_retried_then_succeeds(self):
        client = _ScriptedClient([
            (503, b'{"error": "queue full"}', {}),
            (200, b"fine", {}),
        ], retries=1)
        assert client._checked("GET", "/v1/health") == b"fine"
        assert len(client.sleeps) == 1

    def test_retry_after_header_floors_the_backoff(self):
        client = _ScriptedClient([
            (429, b'{"error": "limited"}', {"retry-after": "1.5"}),
            (200, b"fine", {}),
        ], retries=1)
        assert client._checked("GET", "/v1/health") == b"fine"
        assert client.sleeps[0] >= 1.5

    def test_exhausted_retries_raise_service_unavailable(self):
        client = _ScriptedClient([
            (429, b'{"error": "limited"}', {}),
            (429, b'{"error": "limited"}', {}),
        ], retries=1)
        with pytest.raises(ServiceUnavailable) as info:
            client._checked("GET", "/v1/health")
        assert info.value.status == 429
        assert info.value.message == "limited"

    def test_transport_failures_are_retried(self):
        client = _ScriptedClient([
            ServiceUnavailable(503, "connection refused"),
            ServiceTimeout(504, "socket deadline"),
            (200, b"fine", {}),
        ], retries=2)
        assert client._checked("GET", "/v1/health") == b"fine"
        assert len(client.sleeps) == 2

    def test_server_504_raises_service_timeout_without_retry(self):
        client = _ScriptedClient([
            (504, b'{"error": "deadline exceeded"}', {}),
            (200, b"never reached", {}),
        ], retries=3)
        with pytest.raises(ServiceTimeout) as info:
            client._checked("POST", "/v1/sweep", b"{}")
        assert info.value.status == 504
        assert len(client.script) == 1  # the 200 was never consumed

    def test_non_retryable_errors_raise_immediately(self):
        client = _ScriptedClient([
            (400, b'{"error": "bad request"}', {}),
        ], retries=3)
        with pytest.raises(ServiceError) as info:
            client._checked("POST", "/v1/eval", b"{}")
        assert info.value.status == 400
        assert not isinstance(info.value, (ServiceUnavailable,
                                           ServiceTimeout))
        assert client.sleeps == []

    def test_typed_exceptions_are_service_errors(self):
        assert issubclass(ServiceUnavailable, ServiceError)
        assert issubclass(ServiceTimeout, ServiceError)


# ----------------------------------------------------------------------
# Token-bucket rate limiting.
# ----------------------------------------------------------------------
class TestRateLimiting:
    def test_token_bucket_admits_burst_then_waits(self):
        bucket = TokenBucket(rate=2.0, burst=1, now=0.0)
        assert bucket.take(0.0) == 0.0
        wait = bucket.take(0.0)
        assert wait == pytest.approx(0.5)
        assert bucket.take(1.0) == 0.0  # refilled

    def test_limiter_is_per_client(self):
        clock = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1, clock=lambda: clock[0])
        assert limiter.check("10.0.0.1") == 0.0
        assert limiter.check("10.0.0.2") == 0.0  # separate bucket
        assert limiter.check("10.0.0.1") > 0.0
        clock[0] = 2.0
        assert limiter.check("10.0.0.1") == 0.0

    def test_zero_rate_disables_limiting(self):
        assert not RateLimiter(0.0).enabled
        assert RateLimiter(2.5).enabled


# ----------------------------------------------------------------------
# Server edges: deadlines, rate limits, admission faults.
# ----------------------------------------------------------------------
def _serve(config):
    from repro.service.server import ServerThread

    return ServerThread(config)


class TestServerResilience:
    def test_rate_limited_posts_answer_429_with_retry_after(self):
        from repro.service.server import ServiceConfig

        with _serve(ServiceConfig(port=0, rate_limit=0.5,
                                  rate_burst=1)) as running:
            client = ServiceClient(port=running.port, timeout=30.0)
            client.wait_ready()
            body = b'{"workload": "sha", "machine": {"preset": "paper_default"}}'
            status, _, _ = client._request_full("POST", "/v1/eval", body)
            assert status == 200
            status, payload, headers = client._request_full(
                "POST", "/v1/eval", body)
            assert status == 429
            assert float(headers["retry-after"]) > 0.0
            assert b"rate limit" in payload
            # GET endpoints stay answerable from the throttled client.
            health = client.health()
            assert health["status"] == "ok"
            assert client.metrics()["rate_limited_total"] >= 1

    def test_request_deadline_answers_504_with_partial_sweep(self):
        import json as json_module

        from repro.api.sweep import SweepRequest
        from repro.machine import MACHINE_PRESETS
        from repro.service.server import ServiceConfig
        from repro.workloads.registry import suite_names

        sweep = SweepRequest.make(
            suite_names("mibench"),
            machines=[{"preset": name} for name in MACHINE_PRESETS.names()])
        with _serve(ServiceConfig(port=0, request_timeout=0.05)) as running:
            client = ServiceClient(port=running.port, timeout=60.0)
            client.wait_ready()
            status, payload, _ = client._request_full(
                "POST", "/v1/sweep", sweep.to_json().encode("utf-8"))
            assert status == 504
            envelope = json_module.loads(payload.decode("utf-8"))
            assert envelope["partial"] is True
            assert "deadline" in envelope["error"]
            assert envelope["count"] == len(sweep.expand())
            assert envelope["completed"] == len(envelope["results"])
            assert envelope["completed"] < envelope["count"]
            assert client.metrics()["deadline_timeouts_total"] >= 1
            # The typed client surface raises ServiceTimeout.
            with pytest.raises(ServiceTimeout):
                client.sweep(sweep)

    def test_admission_fault_answers_503_and_client_retry_recovers(self):
        from repro.service.server import ServiceConfig

        faults.install(FaultPlan(specs=(
            FaultSpec(point="jobs.admit", mode="error", count=1),
        )))
        with _serve(ServiceConfig(port=0)) as running:
            client = ServiceClient(port=running.port, timeout=30.0,
                                   retries=2, backoff_base=0.01)
            assert client.wait_ready()["faults_active"] is True
            result = client.evaluate({"workload": "sha",
                                      "machine": {"preset": "paper_default"}})
            assert result.error is None and result.cycles > 0

    def test_health_reports_resilience_state(self):
        from repro.service.server import ServiceConfig

        with _serve(ServiceConfig(port=0)) as running:
            client = ServiceClient(port=running.port, timeout=30.0)
            health = client.wait_ready()
            assert health["degraded"] is False
            assert health["quarantined_units"] == 0
            assert health["faults_active"] is False
            resilience = client.metrics()["resilience"]
            assert resilience["pool_crashes"] == 0
            assert resilience["breaker_open"] is False


# ----------------------------------------------------------------------
# The acceptance criterion: the full chaos drill, both backends.
# ----------------------------------------------------------------------
class TestChaosInvariants:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_full_drill_passes(self, backend, monkeypatch):
        if backend == "numpy" and not accel.available_backends().get("numpy"):
            pytest.skip("numpy backend unavailable")
        previous = accel.active_backend()
        monkeypatch.setenv(accel.ACCEL_ENV, backend)
        accel.set_backend(backend)
        try:
            report = run_chaos(jobs=2, timeout=120.0)
        finally:
            accel.set_backend(previous)
        assert report.requests == 76  # 19 workloads x 4 presets
        assert report.passed, "\n" + report.render()
        names = {check.name for check in report.checks}
        # (a) no hang, (b) no wrong bytes, (c) quarantine as structured
        # errors, (d) breaker-tripped serial degradation.
        assert {"act1.no_hang", "act1.no_wrong_bytes",
                "act1.poison_quarantined", "act2.breaker_tripped",
                "act2.all_correct"} <= names
