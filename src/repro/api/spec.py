"""Typed, JSON-round-trippable request and result objects.

The schema is the public contract of :mod:`repro.api`:

* :class:`WorkloadSpec` — a workload by registry name plus compiler-flag
  treatment (``"O3"``, ``"nosched"``, ``"unroll"``);
* :class:`MachineSpec` — a machine as a named preset plus keyword
  overrides, e.g. ``{"preset": "paper_default", "l2_size": "1MB",
  "branch_predictor": "hybrid_3.5kb"}``;
* :class:`EvalRequest` — "evaluate workload W on machine M with backend B";
* :class:`EvalResult` — the answer, carrying the predicted/simulated cycle
  count, the CPI stack (when the backend produces one) and optional energy.

Every object round-trips losslessly through ``to_dict``/``from_dict`` (and
JSON), which is what makes evaluations addressable from request files, the
CLI and remote callers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping

from repro.machine import (
    MACHINE_PRESETS,
    MachineConfig,
    machine_from_factory,
    machine_from_spec,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.runtime.session import Session
    from repro.workloads.base import Workload

#: Version stamped into every serialized request/result.
API_SCHEMA_VERSION = 1


def _reject_unknown_keys(payload: Mapping, allowed: set[str], what: str) -> None:
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; allowed: {sorted(allowed)}")


def power_and_window(payload: Mapping, *,
                     power_default: bool | None = False) -> tuple:
    """The ``with_power`` and ``mlp_window`` of a request payload, checked.

    No coercion (``bool("false")`` is true): ``with_power`` is a JSON
    boolean, or ``null`` where that is the default; ``mlp_window`` an
    integer of at least 1.
    """
    with_power = payload.get("with_power", power_default)
    if not (isinstance(with_power, bool)
            or with_power is None and power_default is None):
        raise ValueError(f"with_power must be a boolean, got {with_power!r}")
    window = payload.get("mlp_window", 64)
    if isinstance(window, bool) or not isinstance(window, int) or window < 1:
        raise ValueError(
            f"mlp_window must be an integer of at least 1, got {window!r}")
    return with_power, window


# ----------------------------------------------------------------------
# Workload specification.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """A workload by name plus its compiler-flag treatment."""

    name: str
    flags: str = "O3"

    @classmethod
    def parse(cls, value: "WorkloadSpec | str | Mapping") -> "WorkloadSpec":
        """Coerce a name string or mapping into a :class:`WorkloadSpec`."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            _reject_unknown_keys(value, {"name", "flags"}, "workload spec")
            return cls(name=value["name"], flags=value.get("flags", "O3"))
        raise TypeError(f"cannot parse workload spec from {value!r}")

    def resolve(self, session: "Session") -> "Workload":
        """The (trace-ready) workload this spec names, via the session."""
        return session.workload(self.name, self.flags)

    def to_dict(self) -> dict:
        return {"name": self.name, "flags": self.flags}


# ----------------------------------------------------------------------
# Machine specification.
# ----------------------------------------------------------------------
@lru_cache(maxsize=4096)
def _resolved(factory, items: tuple, types: tuple) -> MachineConfig:
    """The machine of one (preset factory, override items) pair.

    Process-wide and bounded: a served sweep, its planner and its error
    envelopes all resolve the same few hundred specs, each once.  The key
    is the registered factory object, not the preset name, so a preset
    re-registered under its old name never answers from the entry of the
    factory it replaced; an unregistered preset fails its registry lookup
    before reaching the memo, and a spec that raises is never stored.
    ``types`` (the override values' types) is only part of the key: equal
    values of another type (``1``, ``1.0``, ``True``) may build another
    config, so they never share an entry.
    """
    return machine_from_factory(factory, dict(items))


@dataclass(frozen=True)
class MachineSpec:
    """A machine as a named preset plus keyword overrides.

    Overrides are stored as a sorted tuple of ``(field, value)`` pairs so
    specs are hashable and equality is order-insensitive; byte-count fields
    accept size strings (``"1MB"``), which are preserved verbatim through
    serialization and parsed only at :meth:`resolve` time.
    """

    preset: str = "paper_default"
    items: tuple[tuple[str, object], ...] = ()

    @classmethod
    def make(cls, preset: str = "paper_default", **overrides) -> "MachineSpec":
        return cls(preset=preset, items=tuple(sorted(overrides.items())))

    @classmethod
    def parse(cls, value: "MachineSpec | MachineConfig | str | Mapping") -> "MachineSpec":
        """Coerce a preset name, override mapping or config into a spec."""
        if isinstance(value, cls):
            return value
        if isinstance(value, MachineConfig):
            return cls.from_machine(value)
        if isinstance(value, str):
            return cls(preset=value)
        if isinstance(value, Mapping):
            payload = dict(value)
            preset = payload.pop("preset", "paper_default")
            return cls(preset=preset, items=tuple(sorted(payload.items())))
        raise TypeError(f"cannot parse machine spec from {value!r}")

    @classmethod
    def from_machine(cls, machine: MachineConfig,
                     preset: str = "paper_default") -> "MachineSpec":
        """Express an explicit config as ``preset`` + minimal overrides.

        The overrides are exactly the fields on which ``machine`` differs
        from the preset (the display ``name`` included), so
        ``spec.resolve()`` reproduces ``machine`` bit-for-bit.
        """
        from dataclasses import fields as dataclass_fields

        base = machine_from_spec(preset)
        overrides = {
            f.name: getattr(machine, f.name)
            for f in dataclass_fields(MachineConfig)
            if getattr(machine, f.name) != getattr(base, f.name)
        }
        return cls.make(preset, **overrides)

    @property
    def overrides(self) -> dict:
        return dict(self.items)

    def with_overrides(self, **overrides) -> "MachineSpec":
        """A copy with additional overrides layered on top (sweep expansion)."""
        merged = {**self.overrides, **overrides}
        return MachineSpec.make(self.preset, **merged)

    def resolve(self) -> MachineConfig:
        """Materialise the :class:`MachineConfig` this spec describes.

        Memoized per process (see :func:`_resolved`) and, for as long as
        the preset's factory stays registered, on the spec itself: a
        sweep's planner and validation resolve each spec object several
        times.  Configs are frozen, so every caller may share one.
        """
        factory = MACHINE_PRESETS.get(self.preset)
        known = self.__dict__.get("_resolution")
        if known is None or known[0] is not factory:
            known = (factory, _resolved(
                factory, self.items,
                tuple(type(value) for _, value in self.items)))
            object.__setattr__(self, "_resolution", known)
        return known[1]

    def __hash__(self) -> int:
        """The fields' hash, computed once per spec object: a batch looks
        its specs up in several tables."""
        known = self.__dict__.get("_hash")
        if known is None:
            known = hash((self.preset, self.items))
            object.__setattr__(self, "_hash", known)
        return known

    def __getstate__(self) -> dict:
        """Pickle the fields only: a factory need not be picklable, and a
        string's hash differs between processes."""
        state = dict(self.__dict__)
        state.pop("_resolution", None)
        state.pop("_hash", None)
        return state

    def to_dict(self) -> dict:
        return {"preset": self.preset, **self.overrides}


# ----------------------------------------------------------------------
# Evaluation request.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EvalRequest:
    """One evaluation: workload W on machine M answered by backend B."""

    workload: WorkloadSpec
    machine: MachineSpec = field(default_factory=MachineSpec)
    backend: str = "analytical"
    with_power: bool = False
    mlp_window: int = 64
    #: Opaque caller correlation tag, carried through to the result.
    tag: str = ""

    @classmethod
    def parse(cls, value: "EvalRequest | Mapping") -> "EvalRequest":
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise TypeError(f"cannot parse evaluation request from {value!r}")

    def to_dict(self) -> dict:
        return {
            "schema_version": API_SCHEMA_VERSION,
            "workload": self.workload.to_dict(),
            "machine": self.machine.to_dict(),
            "backend": self.backend,
            "with_power": self.with_power,
            "mlp_window": self.mlp_window,
            "tag": self.tag,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "EvalRequest":
        _reject_unknown_keys(
            payload,
            {"schema_version", "workload", "machine", "backend",
             "with_power", "mlp_window", "tag"},
            "evaluation request",
        )
        if "workload" not in payload:
            raise ValueError("evaluation request needs a 'workload' entry")
        with_power, mlp_window = power_and_window(payload)
        return cls(
            workload=WorkloadSpec.parse(payload["workload"]),
            machine=MachineSpec.parse(payload.get("machine", {})),
            backend=payload.get("backend", "analytical"),
            with_power=with_power,
            mlp_window=mlp_window,
            tag=payload.get("tag", ""),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "EvalRequest":
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Evaluation result.
# ----------------------------------------------------------------------
@dataclass
class EvalResult:
    """The backend's answer to one :class:`EvalRequest`.

    ``cycles`` is the predicted (analytical backends) or measured
    (simulator) cycle count; ``cpi_stack`` maps CPI-component names to
    cycle counts for backends that decompose their prediction, and is
    ``None`` for the cycle-accurate simulator.  ``energy_joules`` is
    ``None`` unless the request asked for power.  ``sampling`` carries the
    interval-sampling metadata (plan geometry, fraction profiled,
    per-metric estimated relative errors) when the result came from a
    sampled evaluation of a chunked trace, and is ``None`` for exact
    evaluations.

    ``error`` is the structured per-item failure channel: ``None`` on
    every successful evaluation, a human-readable message on a unit that
    was quarantined or failed while the rest of its batch succeeded (see
    :func:`repro.api.batch.evaluate_many`).  A failed result carries
    zeroed metrics; check ``error`` before consuming them.
    """

    request: EvalRequest
    backend: str
    workload: str
    machine: str
    instructions: int
    cycles: float
    seconds: float
    cpi_stack: dict[str, float] | None = None
    energy_joules: float | None = None
    sampling: dict | None = None
    schema_version: int = API_SCHEMA_VERSION
    error: str | None = None

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def edp(self) -> float | None:
        """Energy-delay product in joule-seconds (``None`` without power)."""
        if self.energy_joules is None:
            return None
        return self.energy_joules * self.seconds

    # ------------------------------------------------------------------
    # Metric paths.
    # ------------------------------------------------------------------
    def _machine_config(self):
        """The resolved machine config, memoized per result."""
        machine = getattr(self, "_resolved_machine", None)
        if machine is None:
            machine = self.request.machine.resolve()
            object.__setattr__(self, "_resolved_machine", machine)
        return machine

    def metric_paths(self) -> list[str]:
        """Every metric path :meth:`metric` answers for *this* result.

        The stable vocabulary shared by search objectives, constraints and
        reporters: scalar result metrics (``"cpi"``, ``"cycles"``, ...),
        energy/EDP when the evaluation carried power, the CPI-stack
        components the backend produced (``"cpi_stack.base"``), and the
        machine's own parameters (``"machine.l2_size"``, plus the
        ``"frequency"``/``"area_proxy"`` shorthands).
        """
        from dataclasses import fields as dataclass_fields

        machine = self._machine_config()
        paths = ["cpi", "ipc", "cycles", "instructions", "seconds",
                 "frequency", "area_proxy"]
        if self.energy_joules is not None:
            paths += ["energy", "energy.total", "edp"]
        if self.cpi_stack:
            paths += [f"cpi_stack.{name}" for name in self.cpi_stack]
        # Only numeric machine parameters are metrics (branch_predictor is
        # a label — constrain it with ``branch_predictor==...`` instead).
        paths += [
            f"machine.{f.name}" for f in dataclass_fields(type(machine))
            if f.name != "name"
            and isinstance(getattr(machine, f.name), (int, float))
            and not isinstance(getattr(machine, f.name), bool)
        ]
        paths += ["machine.area_proxy", "machine.frontend_depth"]
        return paths

    def metric(self, path: str) -> float:
        """Look up one scalar metric by its stable path name.

        Unknown paths — and paths this result cannot answer, like
        ``"edp"`` on an evaluation run without power — raise a
        :class:`KeyError` listing every valid path, so objectives,
        constraints and reporters share one clear failure mode instead of
        ad-hoc attribute digging.
        """
        from repro.machine import area_proxy

        scalars = {
            "cpi": lambda: self.cpi,
            "ipc": lambda: self.ipc,
            "cycles": lambda: float(self.cycles),
            "instructions": lambda: float(self.instructions),
            "seconds": lambda: self.seconds,
            "frequency": lambda: float(self._machine_config().frequency_mhz),
            "area_proxy": lambda: area_proxy(self._machine_config()),
        }
        if path in scalars:
            return scalars[path]()
        if path in ("energy", "energy.total", "edp"):
            if self.energy_joules is None:
                raise KeyError(
                    f"metric {path!r} needs power data; re-evaluate with "
                    f"with_power=True (valid paths here: "
                    f"{', '.join(self.metric_paths())})"
                )
            return self.energy_joules if path != "edp" else self.edp
        if path.startswith("cpi_stack."):
            component = path[len("cpi_stack."):]
            if self.cpi_stack and component in self.cpi_stack:
                return float(self.cpi_stack[component])
            known = sorted(self.cpi_stack) if self.cpi_stack else []
            raise KeyError(
                f"unknown CPI-stack component {component!r}; this result "
                f"has: {', '.join(known) or '<none>'}"
            )
        if path.startswith("machine."):
            field_name = path[len("machine."):]
            machine = self._machine_config()
            if field_name == "area_proxy":
                return area_proxy(machine)
            value = getattr(machine, field_name, None)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return float(value)
        raise KeyError(
            f"unknown metric path {path!r}; valid paths: "
            f"{', '.join(self.metric_paths())}"
        )

    def to_dict(self) -> dict:
        payload = {
            "schema_version": self.schema_version,
            "request": self.request.to_dict(),
            "backend": self.backend,
            "workload": self.workload,
            "machine": self.machine,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "seconds": self.seconds,
            "cpi_stack": self.cpi_stack,
            "energy_joules": self.energy_joules,
            "sampling": self.sampling,
        }
        # Only failed results carry the key: success payloads stay
        # byte-identical to every earlier schema generation.
        if self.error is not None:
            payload["error"] = self.error
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping, *,
                  request: EvalRequest | None = None) -> "EvalResult":
        """Decode a result; ``request`` stands in for parsing the echoed one.

        A caller that already holds the request the payload answers (a
        client decoding its own sweep) passes it and has checked that it
        equals ``payload["request"]``.
        """
        if request is None:
            request = EvalRequest.from_dict(payload["request"])
        return cls(
            request=request,
            backend=payload["backend"],
            workload=payload["workload"],
            machine=payload["machine"],
            instructions=payload["instructions"],
            cycles=payload["cycles"],
            seconds=payload["seconds"],
            cpi_stack=payload.get("cpi_stack"),
            energy_joules=payload.get("energy_joules"),
            sampling=payload.get("sampling"),
            schema_version=payload.get("schema_version", API_SCHEMA_VERSION),
            error=payload.get("error"),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "EvalResult":
        return cls.from_dict(json.loads(text))
