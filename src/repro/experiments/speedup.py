"""Section 5: model-versus-simulation speedup.

The paper reports that exploring the 192-point design space takes 290 days of
detailed simulation but only 4.5 hours with the mechanistic model (profiling
dominates; evaluating the formulas takes seconds) — a speedup of roughly three
orders of magnitude.  This experiment measures the same ratio on our
infrastructure: time to evaluate the analytical model across a set of machine
configurations (excluding the one-off profiling pass, reported separately)
versus time to run the detailed simulator on the same configurations.

Profiling is timed on a *fresh* single-pass engine so a warm artifact cache
(which can satisfy the trace without regenerating it) does not hide the cost
being measured, and every simulation runs uncached.  The result names the
simulator it timed and the kernel backend its miss-event columns came from:
a faster reference simulator lowers the ratio, and the lower ratio is the
one to report.  The measurements are wall-clock, so this experiment is
registered as non-deterministic.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

from repro.accel import get_kernels
from repro.core.model import InOrderMechanisticModel
from repro.dse.space import reduced_design_space
from repro.experiments.common import ensure_session
from repro.pipeline.inorder import InOrderPipeline
from repro.profiler.program import profile_program
from repro.profiler.single_pass_engine import SinglePassEngine
from repro.runtime import ExperimentResult, Session, experiment


#: Model passes averaged into ``model_seconds``.  One pass over a handful of
#: configurations takes well under a millisecond, so a single pass would
#: mostly time the scheduler.
MODEL_PASSES = 10


@dataclass
class SpeedupResult:
    benchmark: str
    configurations: int
    profiling_seconds: float
    model_seconds: float
    simulation_seconds: float
    #: The simulator timed, with the kernel backend of its event columns.
    simulator: str = "InOrderPipeline"

    @property
    def speedup_model_only(self) -> float:
        """Simulation time over pure model-evaluation time."""
        return self.simulation_seconds / max(self.model_seconds, 1e-9)

    @property
    def speedup_including_profiling(self) -> float:
        """Simulation time over profiling + model time (the paper's 4.5 hours)."""
        total = self.profiling_seconds + self.model_seconds
        return self.simulation_seconds / max(total, 1e-9)


def run(benchmark: str = "sha", configurations: int | None = None,
        session: Session | None = None) -> SpeedupResult:
    session = ensure_session(session)
    workload = session.workload(benchmark)
    trace = workload.trace()
    machines = reduced_design_space().to_sweep(()).configurations()
    if configurations is not None:
        machines = machines[:configurations]

    # The collector is paused over the timed regions, as in the benchmark
    # harness: one full collection over a heap of materialized traces takes
    # tens of milliseconds, longer than the model takes for every point.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # A fresh engine (not the session-persisted one): the profiling
        # pass is exactly what this experiment wants to time.
        engine = SinglePassEngine(trace)
        start = time.perf_counter()
        program = profile_program(trace)
        miss_profiles = [engine.miss_profile(machine) for machine in machines]
        profiling_seconds = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(MODEL_PASSES):
            for machine, misses in zip(machines, miss_profiles):
                InOrderMechanisticModel(machine).predict(program, misses)
        model_seconds = (time.perf_counter() - start) / MODEL_PASSES

        start = time.perf_counter()
        for machine in machines:
            InOrderPipeline(machine).run(trace)
        simulation_seconds = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()

    return SpeedupResult(
        benchmark=benchmark,
        configurations=len(machines),
        profiling_seconds=profiling_seconds,
        model_seconds=model_seconds,
        simulation_seconds=simulation_seconds,
        simulator=f"InOrderPipeline ({get_kernels().name} events)",
    )


def to_experiment_result(result: SpeedupResult) -> ExperimentResult:
    rows = (
        ("profiling (one-off)", f"{result.profiling_seconds:.3f} s"),
        ("model evaluation", f"{result.model_seconds:.4f} s"),
        ("detailed simulation", f"{result.simulation_seconds:.3f} s"),
        ("speedup (model only)", f"{result.speedup_model_only:,.0f}x"),
        ("speedup (incl. profiling)", f"{result.speedup_including_profiling:.1f}x"),
    )
    return ExperimentResult(
        experiment="speedup",
        title=(
            f"Speedup — {result.benchmark} across "
            f"{result.configurations} configurations"
        ),
        headers=("quantity", "value"),
        rows=rows,
        footnotes=(
            f"detailed simulation: {result.simulator}, uncached; "
            f"model evaluation: mean of {MODEL_PASSES} passes",
            "(paper: ~3 orders of magnitude once the one-off profiling "
            "is amortised)",
        ),
        metadata={
            "benchmark": result.benchmark,
            "configurations": result.configurations,
            "profiling_seconds": result.profiling_seconds,
            "model_seconds": result.model_seconds,
            "simulation_seconds": result.simulation_seconds,
            "simulator": result.simulator,
            "model_passes": MODEL_PASSES,
            "speedup_model_only": result.speedup_model_only,
            "speedup_including_profiling": result.speedup_including_profiling,
        },
        deterministic=False,
    )


def format_result(result: SpeedupResult) -> str:
    from repro.runtime.reporters import render_text

    return render_text(to_experiment_result(result))


@experiment(
    "speedup",
    title="Section 5 — model vs detailed-simulation speedup",
    options=("benchmark", "configurations"),
    smoke={"configurations": 4},
    deterministic=False,
)
def speedup_experiment(session: Session, benchmark: str = "sha",
                       configurations: int | None = None) -> ExperimentResult:
    return to_experiment_result(run(benchmark=benchmark,
                                    configurations=configurations,
                                    session=session))
