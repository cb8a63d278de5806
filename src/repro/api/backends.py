"""Pluggable evaluation backends behind one protocol.

A backend answers "how long does workload W take on each of these
machines" from already-resolved objects (a
:class:`~repro.workloads.base.Workload` and a list of
:class:`~repro.machine.MachineConfig`), as one :class:`SliceAnswer` —
columns in machine order — drawing every profile through the shared
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
from typing import NamedTuple, Sequence

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


class SliceAnswer(NamedTuple):
    """A backend's answer for a list of machines, as columns in their order.

    The planner turns it into one :class:`~repro.api.spec.EvalResult` per
    machine; the columns are parallel to the machines the backend was
    given.
    """

    #: Dynamic instruction count of the workload (one trace per call).
    instructions: int
    #: Predicted or simulated cycles, one per machine.
    cycles: list[float]
    #: CPI component name -> cycles, one per machine (``None`` for
    #: cycle-accurate backends).
    cpi_stacks: list[dict[str, float]] | None = None
    #: Energy in joules, one per machine (``None`` without power).
    energies: list[float] | None = None


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
                 mlp_window: int = 64) -> SliceAnswer:
        """Answer ``workload`` on each of ``machines`` through the session,
        as one :class:`SliceAnswer` whose columns follow ``machines``."""

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


def _energies(machines, program, profiles, cycles) -> list[float]:
    """The power model's energy of each machine at its cycle count."""
    from repro.power.model import PowerModel

    return [PowerModel(machine).energy(program, misses, point_cycles).total
            for machine, misses, point_cycles
            in zip(machines, profiles, cycles, strict=True)]


@register_backend("analytical", aliases=("model",))
class AnalyticalBackend(EvalBackend):
    """Mechanistic model over single-pass stack-distance histograms."""

    name = "analytical"
    capabilities = BackendCapabilities(cpi_stack=True)

    def evaluate(self, session: Session, workload: Workload,
                 machines: Sequence[MachineConfig], *,
                 with_power: bool = False,
                 mlp_window: int = 64) -> SliceAnswer:
        from repro.accel import get_kernels

        program = session.program_profile(workload)
        profiles = session.miss_profiles(workload, machines,
                                         mlp_window=mlp_window)
        cycles, stacks = get_kernels().predict_batch(program, profiles,
                                                     machines)
        energies = (_energies(machines, program, profiles, cycles)
                    if with_power else None)
        return SliceAnswer(program.instructions, cycles, stacks, energies)

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
                 mlp_window: int = 64) -> SliceAnswer:
        instructions = len(workload.trace())  # what the simulator retires
        cycles = [float(result.cycles)
                  for result in session.simulate_many(workload, machines)]
        if not with_power:
            return SliceAnswer(instructions, cycles)
        # Energy uses the same profile-driven activity counts as the
        # analytical estimate, scaled by the simulated cycle count —
        # identical to the paper's detailed-EDP procedure.
        return SliceAnswer(instructions, cycles, None, _energies(
            machines, session.program_profile(workload),
            session.miss_profiles(workload, machines, mlp_window=mlp_window),
            cycles))

    def is_warm(self, session: Session, workload: Workload,
                machines: Sequence[MachineConfig], *,
                with_power: bool = False, mlp_window: int = 64) -> bool:
        return session.has_simulations(workload, machines) and (
            not with_power
            or (session.has_program_profile(workload)
                and session.has_miss_profiles(workload, machines,
                                              mlp_window=mlp_window)))
