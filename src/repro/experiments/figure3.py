"""Figure 3: model CPI versus detailed-simulation CPI on MiBench (default config).

The paper reports an average absolute CPI prediction error of 3.1% and a
maximum of 8.4% for the 19 MiBench benchmarks on the default configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.model import InOrderMechanisticModel
from repro.experiments.common import default_machine, ensure_session, mibench_names
from repro.machine import MachineConfig
from repro.runtime import ExperimentResult, Session, experiment
from repro.validation.compare import ValidationRow, ValidationSummary, summarize


@dataclass
class Figure3Result:
    machine: MachineConfig
    rows: list[ValidationRow]
    summary: ValidationSummary


def _validation_row(session: Session, item: tuple[str, MachineConfig]) -> ValidationRow:
    """One benchmark's model-vs-simulation point (a parallel work unit)."""
    name, machine = item
    workload = session.workload(name)
    program = session.program_profile(workload)
    misses = session.miss_profile(workload, machine)
    model = InOrderMechanisticModel(machine).predict(program, misses)
    (simulated,) = session.simulate_many(workload, [machine])
    return ValidationRow(
        name=workload.name,
        configuration=machine.name or "default",
        predicted_cpi=model.cpi,
        simulated_cpi=simulated.cpi,
    )


def run(benchmarks: list[str] | None = None,
        machine: MachineConfig | None = None,
        session: Session | None = None) -> Figure3Result:
    session = ensure_session(session)
    machine = machine if machine is not None else default_machine()
    names = mibench_names(benchmarks)
    rows = session.map(_validation_row, [(name, machine) for name in names])
    return Figure3Result(machine=machine, rows=rows, summary=summarize(rows))


def to_experiment_result(result: Figure3Result) -> ExperimentResult:
    summary = result.summary
    return ExperimentResult(
        experiment="figure3",
        title=(
            "Figure 3 — CPI predicted by the model vs detailed simulation "
            f"({result.machine.describe()})"
        ),
        headers=("benchmark", "model CPI", "detailed CPI", "error"),
        rows=tuple(
            (row.name, row.predicted_cpi, row.simulated_cpi, f"{row.error:+.1%}")
            for row in result.rows
        ),
        footnotes=(
            f"average |error| = {summary.average_absolute_error:.1%}  "
            f"max |error| = {summary.maximum_absolute_error:.1%}  "
            "(paper: 3.1% average, 8.4% max)",
        ),
        metadata={
            "machine": result.machine.describe(),
            "benchmarks": [row.name for row in result.rows],
            "average_absolute_error": summary.average_absolute_error,
            "maximum_absolute_error": summary.maximum_absolute_error,
        },
    )


def format_result(result: Figure3Result) -> str:
    from repro.runtime.reporters import render_text

    return render_text(to_experiment_result(result))


@experiment(
    "figure3",
    title="Figure 3 — model vs detailed simulation, MiBench, default config",
    options=("benchmarks",),
    smoke={"benchmarks": ("sha", "qsort", "tiff2bw")},
)
def figure3_experiment(session: Session,
                       benchmarks: tuple[str, ...] | None = None) -> ExperimentResult:
    return to_experiment_result(run(benchmarks=benchmarks, session=session))
