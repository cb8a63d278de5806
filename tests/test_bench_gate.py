"""Unit tests for the benchmark regression gate (``repro bench --compare``)."""

from __future__ import annotations

import json

import pytest

from repro.bench import compare_results


def _payload(**medians) -> dict:
    return {"results": {name: {"median": value, "runs": [value]}
                        for name, value in medians.items()}}


def test_within_tolerance_passes():
    reference = _payload(a=1.0, b=0.5)
    current = _payload(a=1.2, b=0.55)
    assert compare_results(reference, current, 25.0) == []


def test_regression_beyond_tolerance_reported():
    reference = _payload(a=1.0, b=0.5)
    current = _payload(a=1.26, b=0.4)
    regressions = compare_results(reference, current, 25.0)
    assert len(regressions) == 1
    assert regressions[0].startswith("a:")
    assert "+26.0%" in regressions[0]


def test_only_shared_benchmarks_compared():
    reference = _payload(retired=1.0)
    current = _payload(brand_new=99.0)
    assert compare_results(reference, current, 0.0) == []


def test_improvements_never_flag():
    assert compare_results(_payload(a=2.0), _payload(a=0.1), 0.0) == []


def test_negative_tolerance_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        compare_results(_payload(a=1.0), _payload(a=1.0), -1.0)


def _staged(median: float, **stages) -> dict:
    return {"results": {"sharded": {"median": median, "runs": [median],
                                    "stages": stages}}}


def test_stage_regression_beyond_tolerance_reported():
    reference = _staged(1.0, ship=0.2, profile=0.8)
    current = _staged(1.0, ship=0.3, profile=0.8)
    regressions = compare_results(reference, current, 25.0)
    assert len(regressions) == 1
    assert regressions[0].startswith("sharded[ship]:")
    assert "+50.0%" in regressions[0]


def test_stage_below_noise_floor_ignored():
    # A 0.01 s -> 0.04 s jump is 300% but under the measurable floor.
    reference = _staged(1.0, collect=0.01)
    current = _staged(1.0, collect=0.04)
    assert compare_results(reference, current, 25.0) == []


def test_older_reference_without_stages_passes_vacuously():
    reference = _payload(sharded=1.0)  # schema v3: medians only
    current = _staged(1.0, ship=9.0, profile=9.0)
    assert compare_results(reference, current, 0.0) == []
    # And the other direction: a staged reference vs a stage-less current.
    assert compare_results(current, reference, 0.0) == []


def test_stage_only_present_on_one_side_ignored():
    reference = _staged(1.0, ship=0.2)
    current = _staged(1.0, attach=99.0)
    assert compare_results(reference, current, 0.0) == []


def _search(median: float, evals: float | None = None,
            matched: bool | None = None) -> dict:
    entry: dict = {"median": median, "runs": [median]}
    if evals is not None:
        entry["evals_to_front"] = evals
    if matched is not None:
        entry["matched_exhaustive_best"] = matched
    return {"results": {"search_dse": entry}}


def test_evals_to_front_regression_reported():
    reference = _search(1.0, evals=15, matched=True)
    current = _search(1.0, evals=40, matched=True)
    regressions = compare_results(reference, current, 25.0)
    assert len(regressions) == 1
    assert regressions[0].startswith("search_dse[evals_to_front]:")
    assert "40 vs reference 15" in regressions[0]


def test_evals_to_front_within_tolerance_passes():
    reference = _search(1.0, evals=16, matched=True)
    current = _search(1.0, evals=18, matched=True)
    assert compare_results(reference, current, 25.0) == []


def test_losing_exhaustive_best_match_is_unconditional():
    reference = _search(1.0, evals=15, matched=True)
    current = _search(1.0, evals=15, matched=False)
    regressions = compare_results(reference, current, 1000.0)
    assert len(regressions) == 1
    assert "matched_exhaustive_best" in regressions[0]


def test_search_quality_absent_on_one_side_passes_vacuously():
    # Older (pre-v6) references carry no search-quality figures.
    reference = _search(1.0)
    current = _search(1.0, evals=99, matched=False)
    assert compare_results(reference, current, 0.0) == []
    assert compare_results(current, reference, 0.0) == []


def _routed(median: float, pooled: int | None = None) -> dict:
    entry = {"median": median}
    if pooled is not None:
        entry.update(groups_inline=20 - pooled, groups_pooled=pooled)
    return {"results": {"warm_served_batches": entry}}


def test_warm_groups_reaching_the_pool_are_a_regression():
    regressions = compare_results(_routed(0.03, 0), _routed(0.03, 3), 1000.0)
    assert regressions == [
        "warm_served_batches[groups_pooled]: 3 vs reference 0 "
        "(warm groups went to the worker pool)"]
    assert compare_results(_routed(0.03, 3), _routed(0.03, 0), 0.0) == []


def test_routing_absent_on_one_side_passes_vacuously():
    assert compare_results(_routed(0.03), _routed(0.03, 3), 0.0) == []
    assert compare_results(_routed(0.03, 0), _routed(0.03), 0.0) == []


def _sampled(median: float, true_error: float | None = None) -> dict:
    entry = {"median": median}
    if true_error is not None:
        entry.update(sampled_cpi=1.0 + true_error, exact_cpi=1.0,
                     true_error=true_error)
    return {"results": {"long_workload_sampled": entry}}


def test_larger_sampled_true_error_is_a_regression():
    regressions = compare_results(_sampled(0.5, 0.1), _sampled(0.5, 0.125),
                                  1000.0)
    assert regressions == [
        "long_workload_sampled[true_error]: 0.125 vs reference 0.1 "
        "(the sampled estimate moved away from the exact answer)"]
    # Compared exactly: no tolerance applies to a deterministic value.
    assert compare_results(_sampled(0.5, 0.1), _sampled(0.5, 0.1 + 1e-12),
                           1000.0) != []
    assert compare_results(_sampled(0.5, 0.125), _sampled(0.5, 0.1),
                           0.0) == []
    assert compare_results(_sampled(0.5, 0.1), _sampled(0.5, 0.1), 0.0) == []


def test_true_error_absent_on_one_side_passes_vacuously():
    assert compare_results(_sampled(0.5), _sampled(0.5, 0.125), 0.0) == []
    assert compare_results(_sampled(0.5, 0.1), _sampled(0.5), 0.0) == []


def _walked(median: float, walks: int | None = None) -> dict:
    entry: dict = {"median": median}
    if walks is not None:
        entry["chunk_walks"] = walks
    return {"results": {"long_workload_sampled": entry}}


def test_more_chunk_walks_are_a_regression():
    regressions = compare_results(_walked(0.5, 9), _walked(0.5, 14), 1000.0)
    assert regressions == [
        "long_workload_sampled[chunk_walks]: 14 vs reference 9 "
        "(the sampled evaluation streams more chunks)"]
    assert compare_results(_walked(0.5, 14), _walked(0.5, 9), 0.0) == []
    assert compare_results(_walked(0.5, 9), _walked(0.5, 9), 0.0) == []


def test_chunk_walks_absent_on_one_side_passes_vacuously():
    assert compare_results(_walked(0.5), _walked(0.5, 14), 0.0) == []
    assert compare_results(_walked(0.5, 9), _walked(0.5), 0.0) == []


def _obs(median: float, pct: float | None = None,
         limit: float | None = 2.0) -> dict:
    entry: dict = {"median": median, "runs": [median]}
    if pct is not None:
        entry["overhead_pct"] = pct
    if limit is not None:
        entry["overhead_limit_pct"] = limit
    return {"results": {"obs_overhead": entry}}


def test_obs_overhead_under_limit_passes():
    reference = _obs(1.0, pct=0.2)
    current = _obs(1.0, pct=1.9)
    assert compare_results(reference, current, 25.0) == []


def test_obs_overhead_over_limit_reported():
    reference = _obs(1.0, pct=0.2)
    current = _obs(1.0, pct=2.5)
    regressions = compare_results(reference, current, 1000.0)
    assert len(regressions) == 1
    assert regressions[0].startswith("obs_overhead[overhead_pct]:")
    assert "2.5% vs limit 2%" in regressions[0]


def test_obs_overhead_noisy_reference_escape():
    # The reference itself was over the limit and we did not get worse:
    # the gate must not wedge CI shut on a noisy committed reference.
    reference = _obs(1.0, pct=3.0)
    current = _obs(1.0, pct=2.5)
    assert compare_results(reference, current, 1000.0) == []


def test_obs_overhead_missing_reference_still_gates():
    # Older (pre-v7) references carry no overhead figure; the limit is
    # absolute, so the gate still fails.
    reference = _obs(1.0)
    current = _obs(1.0, pct=2.5)
    regressions = compare_results(reference, current, 1000.0)
    assert len(regressions) == 1
    assert "reference n/a" in regressions[0]


def test_obs_overhead_absent_on_current_passes_vacuously():
    reference = _obs(1.0, pct=0.2)
    current = _obs(1.0, limit=None)
    assert compare_results(reference, current, 0.0) == []


def test_cli_gate_exit_codes(tmp_path, monkeypatch):
    """End-to-end: the bench subcommand compares and gates on exit code."""
    from repro import bench
    from repro.cli import main

    reference_file = tmp_path / "ref.json"
    reference_file.write_text(json.dumps(_payload(fake=1.0)))

    def fake_run(output, repeat=3, jobs=1, stage_tolerance_ms=50.0):
        payload = {"schema_version": bench.BENCH_SCHEMA_VERSION,
                   **_payload(fake=5.0)}
        output.write_text(json.dumps(payload))
        return payload

    monkeypatch.setattr(bench, "run", fake_run)
    args = ["bench", "--output", str(tmp_path / "out.json"), "--repeat", "1",
            "--compare", str(reference_file)]
    assert main(args) == 1
    assert main(args + ["--tolerance", "1000"]) == 0
    for flag in ("--tolerance", "--stage-tolerance-ms"):
        with pytest.raises(SystemExit, match="non-negative"):
            main(args + [flag, "-1"])


def test_cli_gate_missing_reference(tmp_path, monkeypatch):
    from repro import bench
    from repro.cli import main

    monkeypatch.setattr(
        bench, "run",
        lambda output, repeat=3, jobs=1, stage_tolerance_ms=50.0: _payload(fake=1.0),
    )
    with pytest.raises(SystemExit):
        main(["bench", "--output", str(tmp_path / "o.json"),
              "--compare", str(tmp_path / "missing.json")])
