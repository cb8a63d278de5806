"""Figure 9: energy-delay-product design-space exploration.

For each benchmark, every design point of Table 2 is evaluated with the
analytical model plus the power model (estimated EDP) and with the detailed
simulator plus the power model (detailed EDP).  The paper's finding: for most
benchmarks the model identifies the same EDP-optimal configuration as detailed
simulation, and when it does not the EDP difference is below a few percent.

The default invocation uses the reduced design space to keep the detailed
simulations affordable; pass ``full=True`` for the complete 192-point space.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dse.space import default_design_space, reduced_design_space
from repro.experiments.common import FIGURE9_BENCHMARKS, ensure_session
from repro.runtime import ExperimentResult, Session, experiment


@dataclass
class Figure9Row:
    benchmark: str
    model_best: str
    simulated_best: str
    same_choice: bool
    edp_gap: float


@dataclass
class Figure9Result:
    rows: list[Figure9Row]
    design_points: int

    @property
    def matching_choices(self) -> int:
        return sum(1 for row in self.rows if row.same_choice)


def _edp_exploration(session: Session, item) -> Figure9Row:
    """One benchmark's EDP sweep over the space (a parallel work unit).

    Every point is answered twice in one :mod:`repro.api` batch — model
    and simulator, both with power — and each backend's EDP optimum is
    the first point of least EDP.  The gap is how much more EDP the
    model's pick costs in simulation than the simulated optimum.
    """
    from repro.api import evaluate_many

    name, full = item
    space = default_design_space() if full else reduced_design_space()
    sweep = space.to_sweep((name,), backends=("analytical", "simulator"),
                           with_power=True)
    results = evaluate_many(sweep.expand(), session=session)
    estimated, detailed = results[0::2], results[1::2]
    model_pick = min(range(len(estimated)), key=lambda i: estimated[i].edp)
    simulated_pick = min(range(len(detailed)), key=lambda i: detailed[i].edp)
    optimum = detailed[simulated_pick].edp
    return Figure9Row(
        benchmark=name,
        model_best=estimated[model_pick].machine,
        simulated_best=detailed[simulated_pick].machine,
        same_choice=model_pick == simulated_pick,
        edp_gap=(detailed[model_pick].edp - optimum) / optimum,
    )


def run(benchmarks: tuple[str, ...] = FIGURE9_BENCHMARKS,
        full: bool = False,
        session: Session | None = None) -> Figure9Result:
    session = ensure_session(session)
    space = default_design_space() if full else reduced_design_space()
    rows = session.map(_edp_exploration, [(name, full) for name in benchmarks])
    return Figure9Result(rows=rows, design_points=len(space))


def to_experiment_result(result: Figure9Result) -> ExperimentResult:
    return ExperimentResult(
        experiment="figure9",
        title=(
            f"Figure 9 — EDP exploration over {result.design_points} design points"
        ),
        headers=("benchmark", "model optimum", "detailed optimum", "same?", "EDP gap"),
        rows=tuple(
            (
                row.benchmark,
                row.model_best,
                row.simulated_best,
                row.same_choice,
                f"{row.edp_gap:.2%}",
            )
            for row in result.rows
        ),
        footnotes=(
            f"model picks the detailed optimum for {result.matching_choices}/"
            f"{len(result.rows)} benchmarks "
            "(paper: 12/19 exact, 6 more within 0.5% EDP, worst case <5%)",
        ),
        metadata={
            "design_points": result.design_points,
            "benchmarks": [row.benchmark for row in result.rows],
            "matching_choices": result.matching_choices,
        },
    )


def format_result(result: Figure9Result) -> str:
    from repro.runtime.reporters import render_text

    return render_text(to_experiment_result(result))


@experiment(
    "figure9",
    title="Figure 9 — EDP design-space exploration",
    options=("full", "benchmarks"),
    smoke={"benchmarks": ("gsm_c",)},
)
def figure9_experiment(session: Session, full: bool = False,
                       benchmarks: tuple[str, ...] = FIGURE9_BENCHMARKS) -> ExperimentResult:
    return to_experiment_result(run(benchmarks=benchmarks, full=full,
                                    session=session))
