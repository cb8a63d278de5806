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

import pytest

from repro.core.model import InOrderMechanisticModel
from repro.machine import DEFAULT_MACHINE
from repro.profiler.sampling import (
    MISS_METRICS,
    SAMPLING_SCHEMA_VERSION,
    interval_cache_key,
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
