"""The shared-memory data plane: segments, lifecycle, parity, crash safety.

The acceptance-criteria checks live in :class:`TestShardedParity`
(``evaluate_many`` sharded over the persistent pool is byte-identical to
serial on both kernel backends, on both the ``shm`` and ``payload``
planes) and :class:`TestCrashSafety` (a worker SIGKILLed mid-batch costs
a retry, never results, and no ``/dev/shm`` segment is ever orphaned).
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal

import pytest

from repro import accel
from repro.api import evaluate_many
from repro.api.spec import EvalRequest, MachineSpec, WorkloadSpec
from repro.machine import DEFAULT_MACHINE
from repro.runtime import dataplane
from repro.runtime.dataplane import (
    SegmentRegistry,
    StageTimings,
    attach_trace,
    attached_count,
    detach_all,
    live_segments,
)
from repro.runtime.session import Session, pooled_session
from repro.workloads import get_workload

pytestmark = pytest.mark.skipif(
    not dataplane.shared_memory_available(),
    reason="POSIX shared memory unavailable on this platform",
)


@pytest.fixture(autouse=True)
def _restore_dataplane():
    """Pin and restore the module-level mode; leave no attachments behind."""
    previous = dataplane._MODE
    yield
    dataplane._MODE = previous
    detach_all()


def _requests(workloads=("sha", "dijkstra"),
              presets=("paper_default", "big_l2_1mb")):
    return [
        EvalRequest(workload=WorkloadSpec(name), machine=MachineSpec(preset))
        for name in workloads
        for preset in presets
    ]


def _serialized(results) -> str:
    return json.dumps([result.to_dict() for result in results])


# ----------------------------------------------------------------------
# Mode selection.
# ----------------------------------------------------------------------
class TestModeSelection:
    def test_auto_resolves_to_shm_when_available(self):
        assert dataplane.set_mode("auto") == "shm"
        assert dataplane.active_mode() == "shm"

    def test_payload_is_always_accepted(self):
        assert dataplane.set_mode("payload") == "payload"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown dataplane"):
            dataplane.set_mode("rdma")

    def test_shm_request_fails_loudly_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(dataplane, "_AVAILABLE", False)
        with pytest.raises(ValueError, match="unavailable"):
            dataplane.set_mode("shm")

    def test_auto_degrades_to_payload_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(dataplane, "_AVAILABLE", False)
        assert dataplane.set_mode("auto") == "payload"


# ----------------------------------------------------------------------
# Segment round trip and lifecycle.
# ----------------------------------------------------------------------
class TestSegmentLifecycle:
    def test_published_trace_attaches_byte_identical(self):
        trace = get_workload("sha").trace()
        registry = SegmentRegistry()
        try:
            handle = registry.publish(trace)
            assert handle.name.startswith(dataplane.SEGMENT_PREFIX)
            assert handle.nbytes > 0
            attached = attach_trace(handle)
            assert attached.name == trace.name
            assert attached.statics == trace.statics
            for field in dataplane.COLUMN_FIELDS:
                ours = getattr(attached, field)
                theirs = getattr(trace, field)
                assert len(ours) == len(theirs)
                assert ours.tobytes() == theirs.tobytes()
            # The attachment is a mapping of the segment, not a copy.
            assert isinstance(attached.pcs, memoryview)
        finally:
            detach_all()
            registry.close()

    def test_attachments_memoized_per_segment(self):
        registry = SegmentRegistry()
        try:
            handle = registry.publish(get_workload("sha").trace())
            first = attach_trace(handle)
            assert attach_trace(handle) is first
            assert attached_count() == 1
        finally:
            detach_all()
            registry.close()

    def test_refcount_reaches_zero_unlinks_the_segment(self):
        registry = SegmentRegistry()
        handle = registry.publish(get_workload("sha").trace())
        assert registry.refcount(handle.name) == 1
        registry.retain(handle.name)
        assert registry.refcount(handle.name) == 2
        registry.release(handle.name)
        assert handle.name in live_segments()
        registry.release(handle.name)
        assert registry.refcount(handle.name) == 0
        assert handle.name not in live_segments()

    def test_close_unlinks_everything(self):
        registry = SegmentRegistry()
        names = [registry.publish(get_workload(name).trace()).name
                 for name in ("sha", "dijkstra")]
        assert all(name in live_segments() for name in names)
        registry.close()
        assert all(name not in live_segments() for name in names)
        registry.close()  # idempotent

    def test_schema_mismatch_rejected_on_attach(self):
        from dataclasses import replace

        registry = SegmentRegistry()
        try:
            handle = registry.publish(get_workload("sha").trace())
            stale = replace(handle, schema_version=-1)
            with pytest.raises(ValueError, match="schema"):
                attach_trace(stale)
        finally:
            registry.close()

    def test_session_publish_is_memoized_and_closed(self):
        dataplane.set_mode("shm")
        session = Session()
        assert session.publish_trace("sha") is None  # not held yet
        session.workload("sha")
        handle = session.publish_trace("sha")
        assert handle is not None
        assert session.publish_trace("sha") is handle
        assert handle.name in live_segments()
        session.close()
        assert handle.name not in live_segments()

    def test_ship_trace_follows_the_active_plane(self):
        session = Session()
        session.workload("sha")
        dataplane.set_mode("payload")
        assert isinstance(session.ship_trace("sha"), dict)
        dataplane.set_mode("shm")
        shipped = session.ship_trace("sha")
        assert shipped is session.publish_trace("sha")
        session.close()

    def test_publish_failure_degrades_to_payload(self, monkeypatch):
        dataplane.set_mode("shm")
        session = Session()
        session.workload("sha")

        def exploding_publish(self, trace):
            raise OSError("no space left on /dev/shm")

        monkeypatch.setattr(SegmentRegistry, "publish", exploding_publish)
        shipped = session.ship_trace("sha")
        assert isinstance(shipped, dict)  # payload fallback
        assert session.dataplane_mode() == "payload"
        session.close()


# ----------------------------------------------------------------------
# Parity: sharded == serial, on both planes and both kernel backends.
# ----------------------------------------------------------------------
class TestShardedParity:
    @pytest.mark.parametrize("plane", ["shm", "payload"])
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_sharded_evaluate_many_is_byte_identical_to_serial(
            self, plane, backend):
        if backend not in [name for name, usable
                           in accel.available_backends().items() if usable]:
            pytest.skip(f"kernel backend {backend} unavailable")
        requests = _requests()
        previous = accel.active_backend()
        accel.set_backend(backend)
        try:
            serial = _serialized(evaluate_many(requests, session=Session()))
            dataplane.set_mode(plane)
            with pooled_session(None, 4) as session:
                for name in ("sha", "dijkstra"):
                    session.workload(name)  # parent-held: exercises ship
                sharded = _serialized(evaluate_many(requests,
                                                    session=session))
                assert session.dataplane_mode() == plane
            assert sharded == serial
        finally:
            accel.set_backend(previous)
        assert live_segments() == []

    def test_stage_breakdown_recorded_for_sharded_batches(self):
        dataplane.set_mode("shm")
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

        dataplane.set_mode("shm")
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


# ----------------------------------------------------------------------
# Crash safety.
# ----------------------------------------------------------------------
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
    def test_sigkilled_worker_mid_batch_retries_and_leaks_nothing(
            self, tmp_path):
        dataplane.set_mode("shm")
        marker = str(tmp_path / "crashed")
        with pooled_session(None, 2) as session:
            session.workload("sha")
            handle = session.publish_trace("sha")
            assert handle.name in live_segments()
            items = [(marker if index == 0 else "", name)
                     for index, name in enumerate(("sha", "qsort",
                                                   "dijkstra"))]
            results = session.map(_crash_once, items)
            assert os.path.exists(marker)  # the crash really happened
            expected = [_crash_once(Session(), ("", name))
                        for _, name in items]
            assert results == expected
            # The parent's segment survived its workers' death.
            assert handle.name in live_segments()
        assert live_segments() == []

    def test_sigkill_between_attach_and_first_read_leaks_no_segment(
            self, tmp_path):
        """The orphan-cleanup window: die right after mapping a segment.

        A ``dataplane.attach`` kill fault SIGKILLs the first worker that
        attaches a published trace — after the segment is mapped, before
        the first read.  The batch must still complete via retry, the
        parent's segment must survive its worker's death, and closing the
        session must drain every attachment and ``/dev/shm`` entry.
        """
        from repro.resilience import faults
        from repro.resilience.faults import FaultPlan, FaultSpec

        dataplane.set_mode("shm")
        # state_dir shares the firing window across the worker fleet:
        # exactly ONE kill, not one per respawned worker.
        plan = FaultPlan(specs=(
            FaultSpec(point="dataplane.attach", mode="kill", count=1),
        ), seed=7, state_dir=str(tmp_path / "faults"))
        faults.install(plan)
        try:
            with pooled_session(None, 2) as session:
                session.workload("sha")
                handle = session.publish_trace("sha")
                assert handle.name in live_segments()
                results = _serialized(
                    evaluate_many(_requests(workloads=("sha",)),
                                  session=session))
                # The kill really happened and was contained as a retry.
                assert plan.report()["rules"][0]["fires"] == 1
                assert session.health.pool_crashes >= 1
                # Results survived the crash, byte-identical to serial.
                assert results == _serialized(
                    evaluate_many(_requests(workloads=("sha",)),
                                  session=Session()))
                # The parent's segment survived its worker's death.
                assert handle.name in live_segments()
        finally:
            faults.clear()
        # Session closed: nothing attached, nothing published, and no
        # orphaned /dev/shm/repro-dp-* entry from the killed worker.
        assert live_segments() == []
        assert attached_count() == 0
        shm_root = "/dev/shm"
        if os.path.isdir(shm_root):
            leaked = [name for name in os.listdir(shm_root)
                      if name.startswith("repro-dp-")]
            assert leaked == []

    def test_worker_exit_does_not_unlink_parent_segments(self):
        dataplane.set_mode("shm")
        with pooled_session(None, 2) as session:
            session.workload("sha")
            handle = session.publish_trace("sha")
            # Another MLP window: the profiles this batch builds do not
            # answer the batch below, which must reach the fresh pool.
            evaluate_many([dataclasses.replace(request, mlp_window=32)
                           for request in _requests(workloads=("sha",))],
                          session=session)
            session.reset_pool()  # all workers exit, segments stay
            assert handle.name in live_segments()
            # A fresh pool re-attaches the same segment.
            again = _serialized(
                evaluate_many(_requests(workloads=("sha",)),
                              session=session))
            assert again == _serialized(
                evaluate_many(_requests(workloads=("sha",)),
                              session=Session()))
        assert live_segments() == []


# ----------------------------------------------------------------------
# Stage timings.
# ----------------------------------------------------------------------
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
