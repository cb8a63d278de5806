"""Fast self-test of the benchmark: every workload at its minimal size.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Runs each workload with ``--quick`` for one second, untraced and traced,
and checks that every run is correct, that it emits exactly the metrics
BENCHMARK.json names for its mode, and that a traced run's self times
plus ``unattributed_s`` add up to ``traced_wall_s``.  Exits non-zero on
the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, SELF_METRICS, catalogue  # noqa: E402


def run_one(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, trace: int, bench: dict) -> None:
    result = run_one(workload, trace)
    kind = "per_layer" if trace else "end_to_end"
    names = {metric["name"] for metric in bench[kind]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    assert set(result["metrics"]) == names, (
        sorted(names ^ set(result["metrics"])))
    values = {name: metric["value"]
              for name, metric in result["metrics"].items()}
    if trace:
        attributed = sum(values[name] for name in SELF_METRICS)
        attributed += values["experiments.self_s"] + values["unattributed_s"]
        wall = values["traced_wall_s"]
        assert abs(attributed - wall) <= 1e-9 * max(1.0, wall), (
            attributed, wall)
    print(f"ok  {workload:13s} trace={trace}  "
          f"{len(values)} metrics, {result['attempted']} checks")


def main() -> int:
    bench = catalogue()
    for workload in (entry["name"] for entry in bench["workloads"]):
        for trace in (0, 1):
            check(workload, trace, bench)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
