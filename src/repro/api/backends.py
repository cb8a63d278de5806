"""Pluggable evaluation backends behind one protocol.

A backend answers "how long does workload W take on machine M" from
already-resolved objects (a :class:`~repro.workloads.base.Workload` and a
:class:`~repro.machine.MachineConfig`), drawing every profile through the
shared :class:`~repro.runtime.session.Session` so repeated questions hit
the memoized (and, with a cache directory, persisted) state.

Three estimators ship by default, unified for the first time behind the
same call:

* ``analytical`` — the mechanistic model fed by the single-pass
  stack-distance engine (fast path: one trace walk per cache geometry);
* ``analytical_exact`` — the same model fed by a full trace replay
  through the cache hierarchy (the engine's cross-check fallback);
* ``simulator`` — the cycle-accurate in-order pipeline, memoized per
  point by the session.

Backends register with :func:`register_backend` and are addressable by
string from :class:`~repro.api.spec.EvalRequest`, so third-party
estimators (a different core model, a learned predictor, an RPC proxy)
plug in without touching this module.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.machine import MachineConfig
from repro.registry import Registry
from repro.runtime.session import Session
from repro.workloads.base import Workload


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can answer; consumed by callers and the docs matrix."""

    #: Produces a per-component CPI decomposition.
    cpi_stack: bool = False
    #: Cycles come from cycle-accurate simulation, not a model.
    cycle_accurate: bool = False
    #: Miss events come from exact replay rather than stack-distance math.
    exact_miss_events: bool = False
    #: Honours ``with_power`` by attaching the power model.
    power: bool = True

    def to_dict(self) -> dict:
        return {
            "cpi_stack": self.cpi_stack,
            "cycle_accurate": self.cycle_accurate,
            "exact_miss_events": self.exact_miss_events,
            "power": self.power,
        }


@dataclass
class PointEvaluation:
    """In-process outcome of one backend call (pre-serialization).

    The :mod:`repro.api.batch` facade and the planner flatten it into the
    JSON-round-trippable :class:`~repro.api.spec.EvalResult`.
    """

    machine: MachineConfig
    instructions: int
    cycles: float
    #: CPI component name -> cycles (None for cycle-accurate backends).
    cpi_stack: dict[str, float] | None = None
    energy_joules: float | None = None

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def execution_time_seconds(self) -> float:
        return self.cycles * self.machine.cycle_ns * 1e-9

    @property
    def edp(self) -> float | None:
        if self.energy_joules is None:
            return None
        return self.energy_joules * self.execution_time_seconds


#: Registry of backend *instances* (backends are stateless; all state lives
#: in the session passed to every call).
BACKENDS = Registry("evaluation backend")


def register_backend(name: str, *, aliases: tuple[str, ...] = ()):
    """Class decorator: instantiate and register an :class:`EvalBackend`."""

    def adder(cls):
        BACKENDS.register(name, aliases=aliases)(cls())
        return cls

    return adder


def get_backend(name: str) -> "EvalBackend":
    """The backend instance registered under ``name`` (or an alias)."""
    return BACKENDS.get(name)


def backend_names() -> list[str]:
    return BACKENDS.names()


def capability_matrix() -> list[tuple[str, BackendCapabilities]]:
    """(name, capabilities) for every registered backend, sorted by name."""
    return [(name, backend.capabilities) for name, backend in BACKENDS.items()]


class EvalBackend(abc.ABC):
    """Protocol every evaluation backend implements."""

    name: str = "backend"
    capabilities: BackendCapabilities = BackendCapabilities()

    @abc.abstractmethod
    def evaluate(self, session: Session, workload: Workload,
                 machine: MachineConfig, *, with_power: bool = False,
                 mlp_window: int = 64) -> PointEvaluation:
        """Answer one (workload, machine) question through the session."""


class _MechanisticBackend(EvalBackend):
    """Shared body of the two analytical backends (exact flag differs)."""

    exact = False

    def evaluate(self, session: Session, workload: Workload,
                 machine: MachineConfig, *, with_power: bool = False,
                 mlp_window: int = 64) -> PointEvaluation:
        from repro.core.model import InOrderMechanisticModel
        from repro.power.model import PowerModel

        program = session.program_profile(workload)
        misses = session.miss_profile(workload, machine,
                                      mlp_window=mlp_window, exact=self.exact)
        model = InOrderMechanisticModel(machine).predict(program, misses)
        energy = None
        if with_power:
            energy = PowerModel(machine).energy(program, misses, model.cycles).total
        return PointEvaluation(
            machine=machine,
            instructions=model.instructions,
            cycles=model.cycles,
            cpi_stack={component.value: cycles
                       for component, cycles in model.stack.cycles.items()},
            energy_joules=energy,
        )


@register_backend("analytical", aliases=("model",))
class AnalyticalBackend(_MechanisticBackend):
    """Mechanistic model over single-pass stack-distance histograms."""

    name = "analytical"
    capabilities = BackendCapabilities(cpi_stack=True)
    exact = False


@register_backend("analytical_exact", aliases=("exact",))
class AnalyticalExactBackend(_MechanisticBackend):
    """Mechanistic model over an exact cache/branch replay (fallback path)."""

    name = "analytical_exact"
    capabilities = BackendCapabilities(cpi_stack=True, exact_miss_events=True)
    exact = True


@register_backend("simulator", aliases=("detailed",))
class SimulatorBackend(EvalBackend):
    """Cycle-accurate in-order pipeline simulation (the reference)."""

    name = "simulator"
    capabilities = BackendCapabilities(cycle_accurate=True, exact_miss_events=True)

    def evaluate(self, session: Session, workload: Workload,
                 machine: MachineConfig, *, with_power: bool = False,
                 mlp_window: int = 64) -> PointEvaluation:
        from repro.power.model import PowerModel

        (simulated,) = session.simulate_many(workload, [machine])
        energy = None
        if with_power:
            # Energy uses the same profile-driven activity counts as the
            # analytical estimate, scaled by the simulated cycle count —
            # identical to the paper's detailed-EDP procedure.
            program = session.program_profile(workload)
            misses = session.miss_profile(workload, machine, mlp_window=mlp_window)
            energy = PowerModel(machine).energy(program, misses, simulated.cycles).total
        return PointEvaluation(
            machine=machine,
            instructions=simulated.instructions,
            cycles=float(simulated.cycles),
            cpi_stack=None,
            energy_joules=energy,
        )
