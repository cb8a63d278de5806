"""Figure 4: CPI stacks as a function of superscalar width (W = 1..4).

The paper contrasts three benchmarks: ``sha`` scales well with width (plenty
of ILP), ``dijkstra`` barely benefits beyond 2-wide because the shrinking base
component is offset by a growing dependency component, and ``tiffdither`` sits
in between.  The detailed-simulation CPI is shown as a reference line.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cpi_stack import CPIStack
from repro.core.model import InOrderMechanisticModel
from repro.experiments.common import FIGURE4_BENCHMARKS, default_machine, ensure_session
from repro.machine import MachineConfig
from repro.runtime import ExperimentResult, Session, experiment


@dataclass
class WidthPoint:
    benchmark: str
    width: int
    stack: CPIStack
    simulated_cpi: float


@dataclass
class Figure4Result:
    machine: MachineConfig
    widths: tuple[int, ...]
    points: list[WidthPoint]

    def for_benchmark(self, name: str) -> list[WidthPoint]:
        return [point for point in self.points if point.benchmark == name]


def _width_sweep(session: Session, item) -> list[WidthPoint]:
    """All width points of one benchmark (a parallel work unit)."""
    name, widths, base_machine = item
    workload = session.workload(name)
    program = session.program_profile(workload)
    machines = [base_machine.with_(width=width, name=f"W={width}")
                for width in widths]
    # One batch: the widths share one event set.
    simulations = session.simulate_many(workload, machines)
    points = []
    for width, configured, simulated in zip(widths, machines, simulations):
        misses = session.miss_profile(workload, configured)
        model = InOrderMechanisticModel(configured).predict(program, misses)
        points.append(
            WidthPoint(
                benchmark=name,
                width=width,
                stack=model.stack,
                simulated_cpi=simulated.cpi,
            )
        )
    return points


def run(benchmarks: tuple[str, ...] = FIGURE4_BENCHMARKS,
        widths: tuple[int, ...] = (1, 2, 3, 4),
        machine: MachineConfig | None = None,
        session: Session | None = None) -> Figure4Result:
    session = ensure_session(session)
    base_machine = machine if machine is not None else default_machine()
    sweeps = session.map(
        _width_sweep, [(name, tuple(widths), base_machine) for name in benchmarks]
    )
    points = [point for sweep in sweeps for point in sweep]
    return Figure4Result(machine=base_machine, widths=tuple(widths), points=points)


def to_experiment_result(result: Figure4Result) -> ExperimentResult:
    # Collect every stack component that shows up so the table has stable columns.
    labels: list[str] = []
    for point in result.points:
        for label in point.stack.grouped():
            if label not in labels:
                labels.append(label)
    rows = []
    for point in result.points:
        grouped = point.stack.grouped()
        rows.append(
            tuple([f"{point.benchmark} W={point.width}"]
                  + [grouped.get(label, 0.0) for label in labels]
                  + [point.stack.cpi, point.simulated_cpi])
        )
    return ExperimentResult(
        experiment="figure4",
        title="Figure 4 — CPI stacks vs superscalar width",
        headers=tuple(["configuration"] + labels + ["model CPI", "detailed CPI"]),
        rows=tuple(rows),
        metadata={
            "benchmarks": sorted({point.benchmark for point in result.points}),
            "widths": list(result.widths),
        },
    )


def format_result(result: Figure4Result) -> str:
    from repro.runtime.reporters import render_text

    return render_text(to_experiment_result(result))


@experiment(
    "figure4",
    title="Figure 4 — CPI stacks vs superscalar width",
    options=("benchmarks", "widths"),
    smoke={"benchmarks": ("sha", "dijkstra"), "widths": (1, 4)},
)
def figure4_experiment(session: Session,
                       benchmarks: tuple[str, ...] = FIGURE4_BENCHMARKS,
                       widths: tuple[int, ...] = (1, 2, 3, 4)) -> ExperimentResult:
    return to_experiment_result(run(benchmarks=benchmarks, widths=widths,
                                    session=session))
