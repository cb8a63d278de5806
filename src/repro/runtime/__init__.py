"""Session runtime: shared artifact cache, parallel scheduler and registry.

This package is the layer between the analytical core and the experiment
drivers:

* :mod:`repro.runtime.artifacts` — content-addressed on-disk cache for
  traces, program profiles and single-pass engine state;
* :mod:`repro.runtime.session` — the :class:`Session` owning workload
  compilation, trace generation and miss-profile reuse, and its
  per-stage batch timings;
* :mod:`repro.runtime.scheduler` — persistent pre-warmed process-pool
  sharding of session work across workloads/configurations (``--jobs N``);
* :mod:`repro.runtime.registry` — the declarative ``@experiment`` registry
  the CLI is built on;
* :mod:`repro.runtime.result` / :mod:`repro.runtime.reporters` — the typed
  :class:`ExperimentResult` and its text/JSON/CSV renderers.
"""

from repro.runtime.artifacts import ArtifactCache
from repro.runtime.registry import (
    EXPERIMENTS,
    ExperimentSpec,
    experiment,
    experiment_names,
    get_experiment,
    run_experiment,
)
from repro.runtime.reporters import render, render_many
from repro.runtime.result import ExperimentResult
from repro.runtime.scheduler import WorkerPool, session_map
from repro.runtime.session import (
    Session,
    SessionSpec,
    SessionStats,
    StageTimings,
    pooled_session,
)

__all__ = [
    "ArtifactCache",
    "StageTimings",
    "WorkerPool",
    "EXPERIMENTS",
    "ExperimentSpec",
    "ExperimentResult",
    "Session",
    "SessionSpec",
    "SessionStats",
    "experiment",
    "experiment_names",
    "get_experiment",
    "run_experiment",
    "render",
    "render_many",
    "pooled_session",
    "session_map",
]
