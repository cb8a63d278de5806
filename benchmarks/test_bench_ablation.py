"""Ablation checks for the model's design choices.

Each ablation disables one ingredient of the model and measures how much the
prediction error against detailed simulation degrades, quantifying how much
that ingredient matters:

* the taken-branch hit penalty (Section 3.3),
* the (W-1)/2W uniform-placement correction (Eqs. 3, 4, 6),
* the inter-instruction dependency penalties (Section 3.5).
"""

from __future__ import annotations

import pytest

from repro.core.model import InOrderMechanisticModel
from repro.pipeline.inorder import InOrderPipeline
from repro.profiler.machine_stats import profile_machine
from repro.profiler.program import profile_program
from repro.workloads import mibench_suite

ABLATION_BENCHMARKS = ["sha", "dijkstra", "qsort", "tiffdither", "gsm_c", "tiff2bw"]


def _average_error(machine, **model_flags) -> float:
    errors = []
    for workload in mibench_suite(ABLATION_BENCHMARKS):
        trace = workload.trace()
        simulated = InOrderPipeline(machine).run(trace)
        program = profile_program(trace)
        misses = profile_machine(trace, machine)
        model = InOrderMechanisticModel(machine, **model_flags).predict(program, misses)
        errors.append(abs(model.cpi - simulated.cpi) / simulated.cpi)
    return sum(errors) / len(errors)


@pytest.fixture(scope="module")
def full_model_error(default_machine):
    return _average_error(default_machine)


def test_full_model_error(full_model_error):
    assert full_model_error < 0.08


def test_ablation_without_dependency_penalty(default_machine, full_model_error):
    error = _average_error(default_machine, include_dependency_penalty=False)
    # Dropping the dependency model is catastrophic for in-order prediction.
    assert error > full_model_error * 2


def test_ablation_without_taken_branch_penalty(default_machine, full_model_error):
    error = _average_error(default_machine, include_taken_branch_penalty=False)
    # The taken-branch bubble is a second-order ingredient: removing it moves
    # the error by a few percentage points at most.
    assert error < full_model_error + 0.10


def test_ablation_without_slot_correction(default_machine, full_model_error):
    error = _average_error(default_machine, include_slot_correction=False)
    assert error < full_model_error + 0.10
