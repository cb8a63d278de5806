"""Table 2: the architecture design space and the default configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.dse.space import default_design_space
from repro.experiments.common import default_machine
from repro.machine import MachineConfig
from repro.runtime import ExperimentResult, Session, experiment
from repro.search.space import SearchSpace


@dataclass
class Table2Result:
    """The default configuration plus the enumerated design space."""

    default: MachineConfig
    space: SearchSpace

    @property
    def design_points(self) -> int:
        return len(self.space)


def run(session: Session | None = None) -> Table2Result:
    return Table2Result(default=default_machine(), space=default_design_space())


def to_experiment_result(result: Table2Result) -> ExperimentResult:
    default = result.default
    values = {axis.key: axis.values for axis in result.space.axes}
    rows = (
        ("I-cache", f"{default.l1i_size // 1024}KB {default.l1i_associativity}-way",
         "fixed"),
        ("D-cache", f"{default.l1d_size // 1024}KB {default.l1d_associativity}-way",
         "fixed"),
        ("L2 cache", f"{default.l2_size // 1024}KB {default.l2_associativity}-way",
         " / ".join(f"{size // 1024}KB" for size in values["l2_size"])
         + f"; {' vs '.join(str(a) for a in values['l2_associativity'])}-way"),
        ("pipeline depth", f"{default.pipeline_stages} stages",
         " / ".join(f"{stages} stages @ {freq}MHz"
                    for stages, freq in values["pipeline_stages,frequency_mhz"])),
        ("frequency", f"{default.frequency_mhz} MHz", "tied to depth"),
        ("width", f"{default.width} slots",
         " / ".join(str(width) for width in values["width"])),
        ("branch predictor", default.branch_predictor,
         " / ".join(values["branch_predictor"])),
    )
    return ExperimentResult(
        experiment="table2",
        title=f"Table 2 — design space ({result.design_points} design points)",
        headers=("parameter", "default", "range"),
        rows=rows,
        metadata={"design_points": result.design_points,
                  "default_machine": default.describe()},
    )


def format_result(result: Table2Result) -> str:
    from repro.runtime.reporters import render_text

    return render_text(to_experiment_result(result))


@experiment(
    "table2",
    title="Table 2 — architecture design space",
)
def table2_experiment(session: Session) -> ExperimentResult:
    return to_experiment_result(run(session=session))
