"""Pluggable evaluation backends behind one protocol.

A backend answers "how long does workload W take on each of these
machines" from already-resolved objects (a
:class:`~repro.workloads.base.Workload` and a list of
:class:`~repro.machine.MachineConfig`), one :class:`PointEvaluation` per
machine in order, drawing every profile through the shared
:class:`~repro.runtime.session.Session`.  A list is the unit because the
paper's amortization lives there: the planner hands a backend all of a
group's machines at once, and a single request is a one-machine list.

Two estimators ship by default:

* ``analytical`` — the mechanistic model fed by the single-pass
  stack-distance engine;
* ``simulator`` — the cycle-accurate in-order pipeline, one
  :meth:`~repro.runtime.session.Session.simulate_many` batch per call.

Both take their miss events from the same per-access stack distances:
every cache and TLB is true LRU, so those are exact.

Backends register with :func:`register_backend` and are addressable by
string from :class:`~repro.api.spec.EvalRequest`, so third-party
estimators (a different core model, a learned predictor, an RPC proxy)
plug in without touching this module.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

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
    #: Honours ``with_power`` by attaching the power model.
    power: bool = True

    def to_dict(self) -> dict:
        return {
            "cpi_stack": self.cpi_stack,
            "cycle_accurate": self.cycle_accurate,
            "power": self.power,
        }


@dataclass(slots=True)
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
                 machines: Sequence[MachineConfig], *,
                 with_power: bool = False,
                 mlp_window: int = 64) -> list[PointEvaluation]:
        """Answer ``workload`` on each of ``machines`` through the session,
        one :class:`PointEvaluation` per machine, in order."""

    def is_warm(self, session: Session, workload: Workload,
                machines: Sequence[MachineConfig], *,
                with_power: bool = False, mlp_window: int = 64) -> bool:
        """Whether :meth:`evaluate` would build nothing: the session's
        memos already hold every profile and simulation it reads.

        The planner answers warm slices in the parent process and sends
        the rest to the worker pool.  A backend that cannot tell says
        ``False``, so its work always goes to the pool.
        """
        return False


def _with_energy(points: list[PointEvaluation], program,
                 profiles) -> list[PointEvaluation]:
    """Attach the power model's energy at each point's cycle count."""
    from repro.power.model import PowerModel

    for point, misses in zip(points, profiles, strict=True):
        point.energy_joules = PowerModel(point.machine).energy(
            program, misses, point.cycles).total
    return points


@register_backend("analytical", aliases=("model",))
class AnalyticalBackend(EvalBackend):
    """Mechanistic model over single-pass stack-distance histograms."""

    name = "analytical"
    capabilities = BackendCapabilities(cpi_stack=True)

    def evaluate(self, session: Session, workload: Workload,
                 machines: Sequence[MachineConfig], *,
                 with_power: bool = False,
                 mlp_window: int = 64) -> list[PointEvaluation]:
        from repro.accel import get_kernels

        program = session.program_profile(workload)
        profiles = session.miss_profiles(workload, machines,
                                         mlp_window=mlp_window)
        predictions = get_kernels().predict_batch(program, profiles, machines)
        points = [PointEvaluation(machine, program.instructions, cycles,
                                  cpi_stack)
                  for machine, (cycles, cpi_stack) in zip(machines,
                                                          predictions)]
        return _with_energy(points, program, profiles) if with_power else points

    def is_warm(self, session: Session, workload: Workload,
                machines: Sequence[MachineConfig], *,
                with_power: bool = False, mlp_window: int = 64) -> bool:
        return (session.has_program_profile(workload)
                and session.has_miss_profiles(workload, machines,
                                              mlp_window=mlp_window))


@register_backend("simulator", aliases=("detailed",))
class SimulatorBackend(EvalBackend):
    """Cycle-accurate in-order pipeline simulation (the reference)."""

    name = "simulator"
    capabilities = BackendCapabilities(cycle_accurate=True)

    def evaluate(self, session: Session, workload: Workload,
                 machines: Sequence[MachineConfig], *,
                 with_power: bool = False,
                 mlp_window: int = 64) -> list[PointEvaluation]:
        points = [PointEvaluation(machine, simulated.instructions,
                                  float(simulated.cycles))
                  for machine, simulated in zip(
                      machines, session.simulate_many(workload, machines))]
        if not with_power:
            return points
        # Energy uses the same profile-driven activity counts as the
        # analytical estimate, scaled by the simulated cycle count —
        # identical to the paper's detailed-EDP procedure.
        return _with_energy(points, session.program_profile(workload),
                            session.miss_profiles(workload, machines,
                                                  mlp_window=mlp_window))

    def is_warm(self, session: Session, workload: Workload,
                machines: Sequence[MachineConfig], *,
                with_power: bool = False, mlp_window: int = 64) -> bool:
        return session.has_simulations(workload, machines) and (
            not with_power
            or (session.has_program_profile(workload)
                and session.has_miss_profiles(workload, machines,
                                              mlp_window=mlp_window)))
