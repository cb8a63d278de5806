"""Tests for the session runtime: artifact cache, session, scheduler, results."""

from __future__ import annotations

import dataclasses
import json
import os
import signal

import pytest

from repro import accel
from repro.api import evaluate_many
from repro.machine import DEFAULT_MACHINE, MachineConfig
from repro.runtime import ArtifactCache, ExperimentResult, Session
from repro.runtime.artifacts import MISSING
from repro.runtime.reporters import render, render_csv, render_text
from repro.runtime.scheduler import session_map
from repro.runtime.session import StageTimings, pooled_session


# ----------------------------------------------------------------------------
# Artifact cache.
# ----------------------------------------------------------------------------
class TestArtifactCache:
    def test_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store({"payload": [1, 2, 3]}, "thing", name="x", version=1)
        assert cache.load("thing", name="x", version=1) == {"payload": [1, 2, 3]}
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_miss_on_absent_and_different_key(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.load("thing", name="x", version=1) is MISSING
        cache.store("value", "thing", name="x", version=1)
        # A different version is a different artifact.
        assert cache.load("thing", name="x", version=2) is MISSING

    def test_disabled_cache_never_hits(self):
        cache = ArtifactCache(None)
        cache.store("value", "thing", name="x")
        assert cache.load("thing", name="x") is MISSING
        assert not cache.enabled

    def test_corrupt_entry_is_dropped_and_rebuilt(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("value", "thing", name="x")
        path = cache.path_for("thing", name="x")
        path.write_bytes(b"not a pickle")
        assert cache.load("thing", name="x") is MISSING
        assert not path.exists()
        value, cached = cache.load_or_build(lambda: "rebuilt", "thing", name="x")
        assert value == "rebuilt" and not cached
        value, cached = cache.load_or_build(lambda: "unused", "thing", name="x")
        assert value == "rebuilt" and cached

    def test_disk_stats_and_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store([1] * 100, "trace", workload="sha", flags="O3",
                    trace_version=1)
        cache.store({"h": 2}, "engine", workload="sha", flags="O3",
                    trace_version=1, engine_version=3)
        stats = cache.disk_stats()
        assert stats["entries"] == 2 and stats["bytes"] > 0
        assert set(stats["kinds"]) == {"trace", "engine"}
        assert stats["schema_versions"] == {"engine_version": [3],
                                            "trace_version": [1]}
        assert stats["corrupt"] == 0
        assert cache.clear() == 2
        assert cache.disk_stats()["entries"] == 0

    def test_disk_stats_counts_unreadable_entries(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("value", "thing", name="x")
        cache.path_for("thing", name="x").write_bytes(b"junk")
        stats = cache.disk_stats()
        assert stats["entries"] == 1 and stats["corrupt"] == 1

    def test_legacy_single_pickle_entry_is_dropped_and_rebuilt(self, tmp_path):
        import pickle

        cache = ArtifactCache(tmp_path)
        path = cache.path_for("thing", name="x")
        path.parent.mkdir(parents=True)
        with path.open("wb") as handle:  # pre-two-part on-disk layout
            pickle.dump({"fields": {"kind": "thing", "name": "x"},
                         "value": "stale"}, handle)
        assert cache.load("thing", name="x") is MISSING
        assert not path.exists()
        value, cached = cache.load_or_build(lambda: "fresh", "thing", name="x")
        assert value == "fresh" and not cached
        assert cache.load("thing", name="x") == "fresh"


def _racing_store(args) -> int:
    """Hammer one cache key from a worker process (atomic-write race test)."""
    cache_dir, worker_id, rounds = args
    cache = ArtifactCache(cache_dir)
    # Big enough that a non-atomic write would be observably torn.
    value = {"worker": worker_id, "blob": bytes(range(256)) * 1024}
    for _ in range(rounds):
        cache.store(value, "race", name="contended", version=1)
    return worker_id


class TestConcurrentArtifactCacheWriters:
    def test_racing_writers_never_corrupt_an_entry(self, tmp_path):
        """Two processes storing the same key concurrently both succeed.

        Writes go through tmp-file + ``os.replace``, so every concurrent
        read must see either a miss (before the first write lands) or one
        writer's complete, unpickleable-without-error value — never a
        torn pickle.  The loader treats corruption as a miss *and deletes
        the entry*, so a fresh cache asserting a hit at the end proves
        the final artifact is intact.
        """
        from concurrent.futures import ProcessPoolExecutor

        rounds = 20
        expected_blob = bytes(range(256)) * 1024
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(_racing_store, (tmp_path, worker_id, rounds))
                for worker_id in (0, 1)
            ]
            # Read concurrently with the racing writers: every observation
            # must be a complete value from one of the two writers.
            observed_workers = set()
            while not all(future.done() for future in futures):
                value = ArtifactCache(tmp_path).load("race", name="contended",
                                                     version=1)
                if value is not MISSING:
                    assert value["blob"] == expected_blob
                    observed_workers.add(value["worker"])
            assert sorted(future.result() for future in futures) == [0, 1]

        final = ArtifactCache(tmp_path)
        value = final.load("race", name="contended", version=1)
        assert value is not MISSING, "final entry was corrupt or missing"
        assert value["worker"] in (0, 1)
        assert value["blob"] == expected_blob
        assert observed_workers <= {0, 1}
        # No stray tmp files left behind by either writer.
        leftovers = [path for path in (tmp_path / "race").iterdir()
                     if path.suffix != ".pkl"]
        assert leftovers == []


# ----------------------------------------------------------------------------
# Session.
# ----------------------------------------------------------------------------
class TestSession:
    def test_cold_session_compiles_and_generates(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        workload = session.workload("sha")
        assert len(workload.trace()) > 0
        assert session.stats.workloads_compiled == 1
        assert session.stats.traces_generated == 1

    def test_warm_session_performs_zero_compilations_and_generations(self, tmp_path):
        cold = Session(cache_dir=tmp_path)
        cold_profile = cold.miss_profile("sha", DEFAULT_MACHINE)
        cold_trace = cold.trace("sha")

        warm = Session(cache_dir=tmp_path)
        warm_trace = warm.trace("sha")
        warm_profile = warm.miss_profile("sha", DEFAULT_MACHINE)
        assert warm.stats.workloads_compiled == 0
        assert warm.stats.traces_generated == 0
        assert warm.stats.trace_cache_hits == 1
        # The cached trace is the same dynamic execution, column for column.
        assert warm_trace.pcs == cold_trace.pcs
        assert warm_trace.mem_addrs == cold_trace.mem_addrs
        assert warm_trace.op_classes == cold_trace.op_classes
        assert warm_profile == cold_profile

    def test_engine_state_is_persisted_across_sessions(self, tmp_path):
        cold = Session(cache_dir=tmp_path)
        cold.miss_profile("sha", DEFAULT_MACHINE)
        assert cold.stats.engine_state_saves == 1

        warm = Session(cache_dir=tmp_path)
        engine = warm.engine("sha")
        # Base + L2 + branch passes (and the control stream) came from disk,
        # before any profiling request was made.
        assert warm.stats.engine_state_loads == 1
        assert engine.pass_count >= 3
        before = engine.pass_count
        warm.miss_profile("sha", DEFAULT_MACHINE)
        assert engine.pass_count == before  # nothing recomputed
        assert warm.stats.engine_state_saves == 0  # nothing rewritten

    def test_new_geometry_extends_persisted_state(self, tmp_path):
        first = Session(cache_dir=tmp_path)
        first.miss_profile("sha", DEFAULT_MACHINE)

        second = Session(cache_dir=tmp_path)
        other = DEFAULT_MACHINE.with_(l2_size=128 * 1024, name="small-l2")
        second.miss_profile("sha", other)
        assert second.stats.engine_state_saves == 1  # new L2 pass persisted

        third = Session(cache_dir=tmp_path)
        third.miss_profile("sha", DEFAULT_MACHINE)
        third.miss_profile("sha", other)
        assert third.stats.engine_state_saves == 0

    def test_compiler_flags_are_distinct_artifacts(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        scheduled = session.trace("tiff2bw", flags="O3")
        raw = session.trace("tiff2bw", flags="nosched")
        assert len(scheduled) == len(raw)  # scheduling only reorders
        # Straight-line fetch addresses are identical; what scheduling moves
        # is which instruction occupies each slot.
        assert scheduled.op_classes != raw.op_classes

        warm = Session(cache_dir=tmp_path)
        warm.trace("tiff2bw", flags="O3")
        warm.trace("tiff2bw", flags="nosched")
        assert warm.stats.traces_generated == 0
        assert warm.stats.trace_cache_hits == 2

    def test_trace_only_shim_fails_loudly_on_program_operations(self, tmp_path):
        from repro.workloads.base import WorkloadBuildError

        Session(cache_dir=tmp_path).trace("sha")
        warm = Session(cache_dir=tmp_path)
        shim = warm.workload("sha")
        assert shim.is_trace_only
        assert len(shim.trace()) > 0  # the cached trace is served
        with pytest.raises(WorkloadBuildError, match="trace-only"):
            shim.trace(force=True)
        with pytest.raises(WorkloadBuildError, match="trace-only"):
            shim.with_program(program=None, suffix="x")

    def test_unknown_flags_rejected(self):
        with pytest.raises(ValueError, match="flags"):
            Session().workload("sha", flags="O2")

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            Session(jobs=0)

    def test_miss_profiles_memoized_per_frozen_config(self):
        session = Session()
        workload = session.workload("sha")
        first = session.miss_profile(workload, DEFAULT_MACHINE)
        again = session.miss_profile(workload, DEFAULT_MACHINE)
        assert first is again
        assert session.stats.miss_profiles_built == 1

    def test_unmanaged_workload_profiles_still_work(self):
        from repro.workloads import get_workload

        session = Session()
        workload = get_workload("sha")  # registry, not session-managed
        profile = session.miss_profile(workload, DEFAULT_MACHINE)
        assert profile.instructions == len(workload.trace())
        program = session.program_profile(workload)
        assert program.instructions == len(workload.trace())


# ----------------------------------------------------------------------------
# Scheduler.
# ----------------------------------------------------------------------------
def _trace_fingerprint(session: Session, item) -> tuple[str, int, int]:
    """Module-level work unit (process pools pickle functions by reference)."""
    name, machine = item
    profile = session.miss_profile(name, machine)
    return (name, profile.instructions, profile.mispredictions)


class TestScheduler:
    def test_parallel_map_matches_serial(self, tmp_path):
        items = [(name, DEFAULT_MACHINE) for name in ("sha", "qsort", "dijkstra")]
        serial = session_map(Session(cache_dir=tmp_path, jobs=1),
                             _trace_fingerprint, items)
        parallel = session_map(Session(cache_dir=tmp_path, jobs=2),
                               _trace_fingerprint, items)
        assert parallel == serial
        assert [entry[0] for entry in parallel] == ["sha", "qsort", "dijkstra"]

    def test_single_item_runs_inline(self):
        session = Session(jobs=4)
        results = session.map(_trace_fingerprint, [("sha", DEFAULT_MACHINE)])
        assert len(results) == 1
        # Inline execution used the parent session, observable via its stats.
        assert session.stats.miss_profiles_built == 1


# ----------------------------------------------------------------------------
# Sharded evaluation over the persistent pool.
# ----------------------------------------------------------------------------
def _requests(workloads=("sha", "dijkstra"),
              presets=("paper_default", "big_l2_1mb")):
    from repro.api.spec import EvalRequest, MachineSpec, WorkloadSpec

    return [
        EvalRequest(workload=WorkloadSpec(name), machine=MachineSpec(preset))
        for name in workloads
        for preset in presets
    ]


def _serialized(results) -> str:
    return json.dumps([result.to_dict() for result in results])


class TestShardedParity:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_sharded_evaluate_many_is_byte_identical_to_serial(self, backend):
        if backend not in [name for name, usable
                           in accel.available_backends().items() if usable]:
            pytest.skip(f"kernel backend {backend} unavailable")
        requests = _requests()
        previous = accel.active_backend()
        accel.set_backend(backend)
        try:
            serial = _serialized(evaluate_many(requests, session=Session()))
            with pooled_session(None, 4) as session:
                for name in ("sha", "dijkstra"):
                    session.workload(name)  # parent-held: exercises ship
                sharded = _serialized(evaluate_many(requests,
                                                    session=session))
            assert sharded == serial
        finally:
            accel.set_backend(previous)

    def test_stage_breakdown_recorded_for_sharded_batches(self):
        with pooled_session(None, 2) as session:
            for name in ("sha", "dijkstra"):
                session.workload(name)
            evaluate_many(_requests(), session=session)
            stages = session.stages.as_dict()
        assert set(StageTimings.ORDER) <= set(stages)
        assert list(stages)[:5] == list(StageTimings.ORDER)
        assert all(seconds >= 0.0 for seconds in stages.values())

    def test_warm_pool_persists_across_batches(self):
        from repro.runtime.scheduler import WorkerPool

        with pooled_session(None, 2) as session:
            # The parent does not hold the trace, so it cannot answer the
            # second batch itself: both batches go to the pool.
            requests = _requests(workloads=("sha",))
            first = _serialized(evaluate_many(requests, session=session))
            pool = session.pool()
            created = WorkerPool.created_total
            second = _serialized(evaluate_many(requests, session=session))
            assert first == second
            assert session.pool() is pool  # same workers, still warm
            assert WorkerPool.created_total == created


def _crash_once(session, item):
    """SIGKILL this worker unless the marker file says we already did."""
    marker, name = item
    if marker and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    profile = session.miss_profile(name, DEFAULT_MACHINE)
    return (name, profile.instructions, profile.mispredictions)


class TestCrashSafety:
    def test_sigkilled_worker_mid_batch_retries(self, tmp_path):
        marker = str(tmp_path / "crashed")
        with pooled_session(None, 2) as session:
            session.workload("sha")
            items = [(marker if index == 0 else "", name)
                     for index, name in enumerate(("sha", "qsort",
                                                   "dijkstra"))]
            results = session.map(_crash_once, items)
            assert os.path.exists(marker)  # the crash really happened
            expected = [_crash_once(Session(), ("", name))
                        for _, name in items]
            assert results == expected

    def test_fresh_pool_after_reset_pool_answers_the_same(self):
        with pooled_session(None, 2) as session:
            session.workload("sha")
            # Another MLP window: the profiles this batch builds do not
            # answer the batch below, which must reach the fresh pool.
            evaluate_many([dataclasses.replace(request, mlp_window=32)
                           for request in _requests(workloads=("sha",))],
                          session=session)
            pool = session.pool()
            session.reset_pool()  # all workers exit
            again = _serialized(
                evaluate_many(_requests(workloads=("sha",)),
                              session=session))
            assert session.pool() is not pool
            assert session.stats.groups_inline == 0  # both reached a pool
            assert again == _serialized(
                evaluate_many(_requests(workloads=("sha",)),
                              session=Session()))


class TestStageTimings:
    def test_accumulates_and_orders_canonically(self):
        timings = StageTimings()
        assert not timings
        timings.add("model", 0.25)
        timings.add("ship", 0.5)
        timings.add("ship", 0.25)
        timings.merge({"attach": 0.125})
        assert timings
        assert timings.as_dict() == {"ship": 0.75, "attach": 0.125,
                                     "model": 0.25}

    def test_merge_accepts_other_timings_and_none(self):
        first = StageTimings()
        first.add("profile", 1.0)
        second = StageTimings()
        second.merge(first)
        second.merge(None)
        second.merge({})
        assert second.as_dict() == {"profile": 1.0}

    def test_clear_resets(self):
        timings = StageTimings()
        timings.add("collect", 1.0)
        timings.clear()
        assert timings.as_dict() == {}


# ----------------------------------------------------------------------------
# Results and reporters.
# ----------------------------------------------------------------------------
def _sample_result() -> ExperimentResult:
    return ExperimentResult(
        experiment="sample",
        title="Sample — a tiny table",
        headers=("name", "value", "ok"),
        rows=((u"alpha", 1.25, True), ("beta", 2, False), ("gamma", None, True)),
        footnotes=("a footnote",),
        metadata={"answer": 42, "ratio": 0.5},
    )


class TestExperimentResult:
    def test_json_round_trip_is_lossless(self):
        result = _sample_result()
        assert ExperimentResult.from_json(result.to_json()) == result

    def test_text_rendering(self):
        text = render_text(_sample_result())
        assert text.startswith("Sample — a tiny table")
        assert "1.250" in text          # floats get 3 decimals
        assert "yes" in text and "no" in text  # bools render as yes/no
        assert text.rstrip().endswith("a footnote")

    def test_csv_rendering(self):
        csv_text = render_csv(_sample_result())
        lines = csv_text.splitlines()
        assert lines[0] == "name,value,ok"
        assert lines[1] == "alpha,1.25,True"
        assert lines[3] == "gamma,,True"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown format"):
            render(_sample_result(), "yaml")

    def test_machine_config_round_trips_through_with_(self):
        # Guard for the scheduler: configurations cross process boundaries.
        import pickle

        machine = MachineConfig(name="x").with_(width=2)
        assert pickle.loads(pickle.dumps(machine)) == machine
