"""Shared fixtures for the paper-bound checks under ``benchmarks/``.

Each module here reruns experiments or subsystems on inputs larger than the
unit tests use and asserts the headline property the paper reports for them
(see the module docstring of ``test_bench_figures.py``).  The timed
benchmarks live in ``repro.bench`` (``repro-experiments bench``).
"""

from __future__ import annotations

import pytest

from repro.machine import MachineConfig
from repro.workloads import get_workload


@pytest.fixture(scope="session")
def default_machine() -> MachineConfig:
    return MachineConfig(name="default")


@pytest.fixture(scope="session")
def sha_trace():
    return get_workload("sha").trace()
