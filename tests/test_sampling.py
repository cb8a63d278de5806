"""Interval sampling: estimator accuracy, error bars, caching, scale.

The headline contract (the paper-repro acceptance bar): on every MiBench
kernel, at every tested sampling rate, each estimated metric lies within
its *own reported* error bar of the exact streamed value — the bar is
centered on the estimate, so the check is ``|est - true| <= bar * est``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import fields

import pytest

from repro.core.model import InOrderMechanisticModel
from repro.machine import DEFAULT_MACHINE
from repro.profiler import sampling
from repro.profiler.sampling import (
    MISS_METRICS,
    SAMPLING_SCHEMA_VERSION,
    IntervalRecord,
    interval_cache_key,
    profile_interval,
    sample_evaluate,
    systematic_plan,
)
from repro.profiler.single_pass_engine import SinglePassEngine
from repro.runtime.session import Session
from repro.trace.store import TraceStore
from repro.trace.trace import ChunkedTrace
from repro.workloads import get_workload
from repro.workloads.registry import MIBENCH_BUILDERS
from repro.workloads.synthetic import (
    SyntheticWorkloadSpec,
    generate_synthetic_store,
    generate_synthetic_trace,
)

CHUNK_LENGTH = 1024
WARMUP = 4
WARMING = 2
RATES = (4, 10, 32)


# ----------------------------------------------------------------------
# Plans.
# ----------------------------------------------------------------------
def test_systematic_plan_geometry():
    plan = systematic_plan(100, 10, warmup=4)
    assert plan.census == (0, 1, 2, 3)
    assert plan.selected == tuple(range(4, 100, 10))
    assert plan.weight * len(plan.selected) == pytest.approx(96)
    assert not plan.exact
    assert 0.0 < plan.fraction < 1.0


def test_rate_one_plan_is_exact():
    plan = systematic_plan(12, 1, warmup=4)
    assert plan.exact
    assert plan.intervals_profiled == 12
    assert plan.weight == 1.0


def test_short_trace_degenerates_to_census():
    plan = systematic_plan(3, 10, warmup=4)
    assert plan.census == (0, 1, 2)
    assert plan.selected == ()
    assert plan.exact


def test_plan_rejects_bad_parameters():
    with pytest.raises(ValueError, match="rate"):
        systematic_plan(10, 0)
    with pytest.raises(ValueError, match="warmup"):
        systematic_plan(10, 2, warmup=-1)


# ----------------------------------------------------------------------
# The acceptance bar: every kernel, every rate, inside its own error bar.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(MIBENCH_BUILDERS))
def test_error_bars_bracket_truth_on_mibench(name):
    trace = get_workload(name).trace()
    chunked = ChunkedTrace.from_trace(trace, CHUNK_LENGTH)
    engine = SinglePassEngine.for_trace(chunked)
    exact_misses = engine.miss_profile(DEFAULT_MACHINE)
    exact = InOrderMechanisticModel(DEFAULT_MACHINE).predict(
        engine.program_profile(), exact_misses
    )
    cache: dict = {}
    for rate in RATES:
        sampled = sample_evaluate(chunked, DEFAULT_MACHINE, rate,
                                  warmup=WARMUP, warming=WARMING,
                                  cache=cache)
        assert sampled.instructions == len(trace)
        bar = sampled.est_rel_error["cpi"] * sampled.cpi
        assert abs(sampled.cpi - exact.cpi) <= bar + 1e-12, (
            f"{name} rate={rate}: cpi {sampled.cpi:.4f} vs {exact.cpi:.4f} "
            f"outside +-{bar:.4f}"
        )
        for metric in MISS_METRICS:
            estimate = getattr(sampled.misses, metric)
            truth = getattr(exact_misses, metric)
            radius = sampled.est_rel_error[metric] * max(estimate, 1.0)
            assert abs(estimate - truth) <= radius + 1e-9, (
                f"{name} rate={rate} {metric}: {estimate:.1f} vs {truth} "
                f"outside +-{radius:.1f}"
            )


def test_census_only_trace_is_answered_exactly():
    """A trace no longer than the warmup prefix has zero sampling error."""
    trace = generate_synthetic_trace(
        SyntheticWorkloadSpec(instructions=3 * CHUNK_LENGTH, seed=3)
    )
    chunked = ChunkedTrace.from_trace(trace, CHUNK_LENGTH)
    sampled = sample_evaluate(chunked, DEFAULT_MACHINE, 10, warmup=WARMUP)
    engine = SinglePassEngine.for_trace(chunked)
    exact_misses = engine.miss_profile(DEFAULT_MACHINE)
    assert sampled.plan.exact
    for metric in MISS_METRICS:
        assert getattr(sampled.misses, metric) == pytest.approx(
            getattr(exact_misses, metric))
        assert sampled.est_rel_error[metric] == 0.0
    exact = InOrderMechanisticModel(DEFAULT_MACHINE).predict(
        engine.program_profile(), exact_misses)
    # Counts are exact; CPI carries only the dependency edges truncated at
    # chunk boundaries (a per-boundary effect, vanishing with chunk size).
    assert sampled.cpi == pytest.approx(exact.cpi, rel=1e-3)
    assert sampled.est_rel_error["cpi"] == 0.0


# ----------------------------------------------------------------------
# Interval-record caching.
# ----------------------------------------------------------------------
def test_nested_rates_share_cached_intervals():
    trace = get_workload("adpcm_c").trace()
    chunked = ChunkedTrace.from_trace(trace, CHUNK_LENGTH)
    cache: dict = {}
    coarse = sample_evaluate(chunked, DEFAULT_MACHINE, 32, warmup=WARMUP,
                             warming=WARMING, cache=cache)
    assert coarse.cache_hits == 0 and coarse.cache_misses > 0
    # Rate 4 selects a superset of rate 32's chunks (32 is a multiple of
    # 4), so every coarse interval is reused.
    fine = sample_evaluate(chunked, DEFAULT_MACHINE, 4, warmup=WARMUP,
                           warming=WARMING, cache=cache)
    assert fine.cache_hits >= len(coarse.plan.selected)
    # And re-running the same plan is answered entirely from cache.
    again = sample_evaluate(chunked, DEFAULT_MACHINE, 4, warmup=WARMUP,
                            warming=WARMING, cache=cache)
    assert again.cache_misses == 0
    assert again.cpi == fine.cpi


# ----------------------------------------------------------------------
# Pinned answers: a 13-chunk store (ragged last chunk), every output of
# ``sample_evaluate`` compared exactly, keyed by (warmup, warming, rate).
# The values do not depend on the kernel backend.
# ----------------------------------------------------------------------
_PARENT_GOLDEN = {
    (3, 2, 8): {
        "cpi": 8.603493757463085,
        "misses": {
            "instructions": 12588.0,
            "l1i_misses": 125.0,
            "il2_misses": 125.0,
            "itlb_misses": 2.0,
            "l1d_misses": 930.033203125,
            "dl2_misses": 930.033203125,
            "dtlb_misses": 16.0,
            "dl2_miss_runs": 2.0,
            "mispredictions": 581.001953125,
            "taken_bubbles": 877.21484375,
            "conditional_branches": 1470.509765625,
        },
        "est_rel_error": {
            "l1i_misses": 3.1425730124821993,
            "il2_misses": 3.1425730124821993,
            "itlb_misses": 9.29296875,
            "l1d_misses": 0.3316261573915426,
            "dl2_misses": 0.3316261573915426,
            "dtlb_misses": 1.16162109375,
            "mispredictions": 0.3858868610340512,
            "taken_bubbles": 0.2742438056927044,
            "conditional_branches": 0.10838311685036632,
            "cpi": 0.5187308437853229,
        },
        "interval_cpis": (8.54498291015625, 6.4425048828125),
        "cold_bias_fraction": 0.1485520882870619,
        "plan": {
            "num_chunks": 13,
            "intervals_profiled": 5,
            "fraction": 0.38461538461538464,
        },
    },
    (4, 1, 4): {
        "cpi": 9.774939295180047,
        "misses": {
            "instructions": 12588.0,
            "l1i_misses": 294.98466780238505,
            "il2_misses": 294.98466780238505,
            "itlb_misses": 2.0,
            "l1d_misses": 922.0975494751439,
            "dl2_misses": 922.0975494751439,
            "dtlb_misses": 16.0,
            "dl2_miss_runs": 2.0,
            "mispredictions": 625.9369676320273,
            "taken_bubbles": 885.671209540034,
            "conditional_branches": 1523.8415672913118,
        },
        "est_rel_error": {
            "l1i_misses": 1.8215124326454142,
            "il2_misses": 1.8215124326454142,
            "itlb_misses": 7.2333901192504255,
            "l1d_misses": 0.47810940041886396,
            "dl2_misses": 0.47810940041886396,
            "dtlb_misses": 0.9041737649063032,
            "mispredictions": 0.46361632498215377,
            "taken_bubbles": 0.4350810623780865,
            "conditional_branches": 0.2785265957029891,
            "cpi": 0.7671884113888385,
        },
        "interval_cpis": (13.638427734375, 13.27618408203125, 14.223541666666666),
        "cold_bias_fraction": 0.31386376064037935,
        "plan": {
            "num_chunks": 13,
            "intervals_profiled": 7,
            "fraction": 0.5384615384615384,
        },
    },
    (4, 2, 10): {
        "cpi": 8.355209228917952,
        "misses": {
            "instructions": 12588.0,
            "l1i_misses": 125.0,
            "il2_misses": 125.0,
            "itlb_misses": 2.0,
            "l1d_misses": 895.5433926841085,
            "dl2_misses": 895.5433926841085,
            "dtlb_misses": 16.0,
            "dl2_miss_runs": 10.29296875,
            "mispredictions": 569.35546875,
            "taken_bubbles": 895.80078125,
            "conditional_branches": 1486.7421875,
        },
        "est_rel_error": {
            "l1i_misses": 3.966029375,
            "il2_misses": 3.966029375,
            "itlb_misses": 16.5859375,
            "l1d_misses": 0.3519566057154777,
            "dl2_misses": 0.3519566057154777,
            "dtlb_misses": 2.0732421875,
            "mispredictions": 0.4365291756715035,
            "taken_bubbles": 0.30332773704641314,
            "conditional_branches": 0.14306824070402874,
            "cpi": 0.5902829832307579,
        },
        "interval_cpis": (7.27490234375,),
        "cold_bias_fraction": 0.13203504612247577,
        "plan": {
            "num_chunks": 13,
            "intervals_profiled": 5,
            "fraction": 0.38461538461538464,
        },
    },
    (1, 0, 4): {
        "cpi": 8.82383974501799,
        "misses": {
            "instructions": 12588.0,
            "l1i_misses": 425.375,
            "il2_misses": 425.375,
            "itlb_misses": 12.29296875,
            "l1d_misses": 640.4733072916666,
            "dl2_misses": 640.4733072916666,
            "dtlb_misses": 106.34375,
            "dl2_miss_runs": 12.29296875,
            "mispredictions": 286.3274739583333,
            "taken_bubbles": 1224.4720052083333,
            "conditional_branches": 1518.328125,
        },
        "est_rel_error": {
            "l1i_misses": 1.0548865057659527,
            "il2_misses": 1.0548865057659527,
            "itlb_misses": 3.183076306956465,
            "l1d_misses": 1.0239813411146552,
            "dl2_misses": 1.0239813411146552,
            "dtlb_misses": 1.3310238686187896,
            "mispredictions": 1.1369887945547743,
            "taken_bubbles": 0.3217060308490585,
            "conditional_branches": 0.10364058076156278,
            "cpi": 1.3526659034640482,
        },
        "interval_cpis": (14.6187744140625, 15.99749755859375, 16.50701904296875),
        "cold_bias_fraction": 0.7772159086958953,
        "plan": {
            "num_chunks": 13,
            "intervals_profiled": 4,
            "fraction": 0.3076923076923077,
        },
    },
}


@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    spec = SyntheticWorkloadSpec(instructions=12 * CHUNK_LENGTH + 300, seed=13)
    chunked = generate_synthetic_store(
        tmp_path_factory.mktemp("small") / "store", spec,
        chunk_length=CHUNK_LENGTH)
    assert chunked.num_chunks == 13
    return chunked


@pytest.mark.parametrize("warmup, warming, rate", sorted(_PARENT_GOLDEN))
def test_sampled_answers_match_pinned_golden(small_store, warmup, warming,
                                             rate):
    golden = _PARENT_GOLDEN[(warmup, warming, rate)]
    sampled = sample_evaluate(small_store, DEFAULT_MACHINE, rate,
                              warmup=warmup, warming=warming)
    assert sampled.cpi == golden["cpi"]
    assert {name: getattr(sampled.misses, name)
            for name in golden["misses"]} == golden["misses"]
    assert sampled.est_rel_error == golden["est_rel_error"]
    assert sampled.interval_cpis == golden["interval_cpis"]
    assert sampled.cold_bias_fraction == golden["cold_bias_fraction"]
    assert sampled.to_dict() == {
        "schema_version": SAMPLING_SCHEMA_VERSION,
        "num_chunks": golden["plan"]["num_chunks"],
        "rate": rate,
        "warmup": warmup,
        "warming": warming,
        "intervals_profiled": golden["plan"]["intervals_profiled"],
        "fraction": golden["plan"]["fraction"],
        "cold_bias_fraction": golden["cold_bias_fraction"],
        "est_rel_error": golden["est_rel_error"],
    }


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_census_records_are_warmed_intervals_from_the_start(small_store,
                                                           backend):
    """Census chunk ``i`` is the warmed interval with window ``0..i``, and
    a sampled call caches it under that interval's key."""
    from repro import accel

    if not accel.available_backends()[backend]:
        pytest.skip(f"{backend} kernel backend not installed")
    previous = accel.active_backend()
    accel.set_backend(backend)
    try:
        cache: dict = {}
        sample_evaluate(small_store, DEFAULT_MACHINE, 4, warmup=5,
                        warming=1, cache=cache)
        census = sampling._census_records(
            small_store, tuple(range(small_store.num_chunks)),
            DEFAULT_MACHINE, 64)
        for index, record in enumerate(census):
            expected = profile_interval(small_store, index, DEFAULT_MACHINE,
                                        64, warming=index)
            for spec in fields(IntervalRecord):
                assert (getattr(record, spec.name)
                        == getattr(expected, spec.name)), (index, spec.name)
            if index < 5:
                key = interval_cache_key(small_store, index, DEFAULT_MACHINE,
                                         64, warming=index)
                assert cache[key] == expected
    finally:
        accel.set_backend(previous)


@pytest.fixture
def stream_updates(monkeypatch):
    """Counts chunk updates of every interval stream set."""
    calls = [0]
    update = sampling._StreamSet.update

    def counted(self, chunk):
        calls[0] += 1
        return update(self, chunk)

    monkeypatch.setattr(sampling._StreamSet, "update", counted)
    return calls


def test_census_walk_serves_witnesses_and_resamples(small_store,
                                                    stream_updates):
    """Rate 8, warmup 3, warming 2 on 13 chunks: the census walks chunks
    0-2 once and serves the witnesses at 1 and 2; the two selected chunks
    walk 3 each.  A nested re-sample walks nothing."""
    cache: dict = {}
    cold = sample_evaluate(small_store, DEFAULT_MACHINE, 8, warmup=3,
                           warming=2, cache=cache)
    assert stream_updates[0] == 9
    # Three census records and two selected intervals built.
    assert (cold.cache_hits, cold.cache_misses) == (0, 5)

    stream_updates[0] = 0
    nested = sample_evaluate(small_store, DEFAULT_MACHINE, 16, warmup=3,
                             warming=2, cache=cache)
    assert stream_updates[0] == 0
    assert (nested.cache_hits, nested.cache_misses) == (4, 0)

    stream_updates[0] = 0
    uncached = sample_evaluate(small_store, DEFAULT_MACHINE, 8, warmup=3,
                               warming=2)
    assert stream_updates[0] == 9
    assert (uncached.cache_hits, uncached.cache_misses) == (0, 5)
    assert uncached.cpi == cold.cpi


def test_partial_census_hit_rewalks_the_census(small_store, stream_updates):
    cache: dict = {}
    first = sample_evaluate(small_store, DEFAULT_MACHINE, 8, warmup=3,
                            warming=2, cache=cache)
    del cache[interval_cache_key(small_store, 1, DEFAULT_MACHINE, 64,
                                 warming=1)]
    stream_updates[0] = 0
    again = sample_evaluate(small_store, DEFAULT_MACHINE, 8, warmup=3,
                            warming=2, cache=cache)
    assert stream_updates[0] == 3
    assert (again.cache_hits, again.cache_misses) == (2, 3)
    assert again.cpi == first.cpi


def test_interval_cache_key_is_content_addressed():
    trace = generate_synthetic_trace(
        SyntheticWorkloadSpec(instructions=8 * CHUNK_LENGTH, seed=5))
    a = ChunkedTrace.from_trace(trace, CHUNK_LENGTH)
    b = ChunkedTrace.from_trace(trace, CHUNK_LENGTH)
    key = interval_cache_key(a, 5, DEFAULT_MACHINE, 64, WARMING)
    assert key == interval_cache_key(b, 5, DEFAULT_MACHINE, 64, WARMING)
    assert str(SAMPLING_SCHEMA_VERSION) in key
    # Different warming window, machine or MLP window -> different record.
    assert key != interval_cache_key(a, 5, DEFAULT_MACHINE, 64, WARMING + 1)
    assert key != interval_cache_key(a, 5, DEFAULT_MACHINE, 32, WARMING)
    assert key != interval_cache_key(a, 6, DEFAULT_MACHINE, 64, WARMING)


def test_session_persists_interval_profiles(tmp_path):
    store_path = tmp_path / "store"
    spec = SyntheticWorkloadSpec(instructions=20_000, seed=9)
    generate_synthetic_store(store_path, spec, chunk_length=CHUNK_LENGTH)

    cold = Session(cache_dir=tmp_path / "cache")
    first = cold.sample_evaluate(TraceStore.open(store_path),
                                 DEFAULT_MACHINE, rate=8, warming=WARMING)
    assert cold.stats.interval_profiles_built > 0
    assert cold.stats.interval_cache_hits == 0

    warm = Session(cache_dir=tmp_path / "cache")
    second = warm.sample_evaluate(TraceStore.open(store_path),
                                  DEFAULT_MACHINE, rate=8, warming=WARMING)
    assert warm.stats.interval_profiles_built == 0
    assert warm.stats.interval_cache_hits == first.cache_misses
    assert second.cpi == first.cpi
    assert second.est_rel_error == first.est_rel_error


def test_session_without_cache_dir_memoizes_in_process():
    trace = generate_synthetic_trace(
        SyntheticWorkloadSpec(instructions=12 * CHUNK_LENGTH, seed=11))
    session = Session()
    chunked = ChunkedTrace.from_trace(trace, CHUNK_LENGTH)
    session.sample_evaluate(chunked, DEFAULT_MACHINE, rate=4)
    built = session.stats.interval_profiles_built
    assert built > 0
    session.sample_evaluate(chunked, DEFAULT_MACHINE, rate=4)
    assert session.stats.interval_profiles_built == built
    assert session.stats.interval_cache_hits == built


# ----------------------------------------------------------------------
# API surface.
# ----------------------------------------------------------------------
def test_to_eval_result_round_trips():
    from repro.api.spec import EvalResult

    trace = get_workload("adpcm_c").trace()
    chunked = ChunkedTrace.from_trace(trace, CHUNK_LENGTH)
    sampled = sample_evaluate(chunked, DEFAULT_MACHINE, 10, warmup=WARMUP,
                              warming=WARMING)
    result = sampled.to_eval_result()
    assert result.backend == "analytical_sampled"
    assert result.cpi == pytest.approx(sampled.cpi)
    assert result.sampling["rate"] == 10
    assert result.sampling["est_rel_error"] == sampled.est_rel_error
    assert sum(result.cpi_stack.values()) == pytest.approx(result.cycles)
    clone = EvalResult.from_json(result.to_json())
    assert clone == result


def test_sampling_metadata_shape():
    trace = get_workload("adpcm_c").trace()
    chunked = ChunkedTrace.from_trace(trace, CHUNK_LENGTH)
    sampled = sample_evaluate(chunked, DEFAULT_MACHINE, 10)
    payload = sampled.to_dict()
    assert payload["schema_version"] == SAMPLING_SCHEMA_VERSION
    assert payload["num_chunks"] == chunked.num_chunks
    assert 0.0 < payload["fraction"] < 1.0
    assert set(payload["est_rel_error"]) == set(MISS_METRICS) | {"cpi"}


# ----------------------------------------------------------------------
# Long workloads at bounded memory (the 100x acceptance check).
# ----------------------------------------------------------------------
_RSS_CHILD = r"""
import json, resource, sys, tempfile
from repro.workloads.synthetic import (
    SyntheticWorkloadSpec, generate_synthetic_store)
from repro.profiler.sampling import sample_evaluate
from repro.profiler.single_pass_engine import SinglePassEngine
from repro.machine import DEFAULT_MACHINE

baseline = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
with tempfile.TemporaryDirectory() as tmp:
    chunked = generate_synthetic_store(
        tmp + "/store", SyntheticWorkloadSpec(instructions=10_000, seed=1),
        scale=100, chunk_length=8192)
    sampled = sample_evaluate(chunked, DEFAULT_MACHINE, 32, warmup=4,
                              warming=1)
    exact = SinglePassEngine.for_trace(chunked).miss_profile(
        DEFAULT_MACHINE)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "instructions": len(chunked),
        "cpi": sampled.cpi,
        "dl2_exact": exact.dl2_misses,
        "delta_mb": peak - baseline,
    }))
"""


def test_100x_workload_profiles_at_bounded_rss():
    """Generate + sample + exactly stream a 100x workload in a child
    process and assert the resident-set growth stays bounded (far below
    the in-memory trace footprint)."""
    env = {**os.environ,
           "REPRO_ACCEL": "numpy",
           "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    proc = subprocess.run([sys.executable, "-c", _RSS_CHILD], env=env,
                          capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["instructions"] == 1_000_000
    assert report["cpi"] > 1.0
    assert report["dl2_exact"] >= 0
    # The 1M-row column set alone is ~34MB and a materialized in-memory
    # trace several times that; streamed processing must stay well under.
    assert report["delta_mb"] < 64.0, report
