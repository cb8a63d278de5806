"""Batch sweep grammar: parameter grids expanded into evaluation requests.

A :class:`SweepRequest` names a list of workloads, a base machine and a
grid of machine-parameter axes, and expands into the cross product of
:class:`~repro.api.spec.EvalRequest` objects.  Two grid forms exist:

* ``axes`` — a mapping from machine field to a list of values.  A key may
  couple several comma-separated fields (``"pipeline_stages,frequency_mhz"``)
  whose values are then tuples of matching arity, expressing correlated
  parameters (the paper couples pipeline depth and clock frequency);
* ``machines`` — an explicit list of :class:`~repro.api.spec.MachineSpec`
  entries, used when the grid is irregular or the caller wants to control
  the generated configuration names (this is how
  :meth:`repro.search.space.SearchSpace.to_sweep` carries the paper's
  Table 2 space with its 192 point names).

The ``axes`` grid expands through :class:`~repro.search.space.SearchSpace`,
the one owner of grid expansion: a field on two axes, an axis without
values and a coupled value of the wrong arity are all :class:`ValueError`.
Expansion order is deterministic — workloads outermost, then grid points
in axis order, then backends — so batch output is reproducible
byte-for-byte regardless of the job count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.api.spec import (API_SCHEMA_VERSION, EvalRequest, MachineSpec,
                             WorkloadSpec, power_and_window)
from repro.machine import MachineConfig


def _freeze(value):
    """Tuples all the way down, so sweep requests stay hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


@dataclass(frozen=True)
class SweepRequest:
    """A parameter-grid batch of evaluations."""

    workloads: tuple[WorkloadSpec, ...]
    base: MachineSpec = field(default_factory=MachineSpec)
    #: ((axis key, (value, ...)), ...); an axis key may couple fields:
    #: ``"pipeline_stages,frequency_mhz"`` with pair-valued entries.
    axes: tuple[tuple[str, tuple], ...] = ()
    #: Explicit machine grid; mutually exclusive with ``axes``/``base``.
    machines: tuple[MachineSpec, ...] = ()
    backends: tuple[str, ...] = ("analytical",)
    with_power: bool = False
    mlp_window: int = 64

    @classmethod
    def make(cls, workloads: Sequence, *, base=None, axes: Mapping | None = None,
             machines: Sequence = (), backends: Sequence[str] = ("analytical",),
             with_power: bool = False, mlp_window: int = 64) -> "SweepRequest":
        """Build a sweep from friendly inputs (names, dicts, lists)."""
        return cls(
            workloads=tuple(WorkloadSpec.parse(w) for w in workloads),
            base=MachineSpec.parse(base if base is not None else {}),
            axes=tuple((key, _freeze(values))
                       for key, values in (axes or {}).items()),
            machines=tuple(MachineSpec.parse(m) for m in machines),
            backends=tuple(backends),
            with_power=with_power,
            mlp_window=mlp_window,
        )

    # ------------------------------------------------------------------
    # Grid expansion.
    # ------------------------------------------------------------------
    def machine_grid(self) -> list[MachineSpec]:
        """The machine specs this sweep covers, in deterministic order."""
        if self.machines:
            if self.axes or self.base != MachineSpec():
                raise ValueError(
                    "a sweep takes either an explicit 'machines' list or a "
                    "base 'machine' plus an 'axes' grid, not both"
                )
            return list(self.machines)
        if not self.axes:
            return [self.base]
        # repro.search imports repro.api, so the import waits for the call.
        from repro.search.space import SearchSpace

        space = SearchSpace.make(
            [{"axis": key, "values": values} for key, values in self.axes],
            base=self.base,
        )
        grid = []
        for index in range(space.cardinality()):
            overrides = space.overrides(index)
            if "name" not in overrides:
                overrides["name"] = ",".join(
                    f"{field_name}={value}"
                    for field_name, value in overrides.items()
                )
            grid.append(self.base.with_overrides(**overrides))
        return grid

    def configurations(self) -> list[MachineConfig]:
        """Resolved :class:`MachineConfig` objects of the grid."""
        return [spec.resolve() for spec in self.machine_grid()]

    def expand(self) -> list[EvalRequest]:
        """The full request batch: workloads × machine grid × backends."""
        grid = self.machine_grid()
        return [
            EvalRequest(
                workload=workload,
                machine=machine,
                backend=backend,
                with_power=self.with_power,
                mlp_window=self.mlp_window,
            )
            for workload in self.workloads
            for machine in grid
            for backend in self.backends
        ]

    def __len__(self) -> int:
        return len(self.workloads) * len(self.machine_grid()) * len(self.backends)

    # ------------------------------------------------------------------
    # Serialization.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        payload: dict = {
            "schema_version": API_SCHEMA_VERSION,
            "workloads": [workload.to_dict() for workload in self.workloads],
            "machine": self.base.to_dict(),
            "backends": list(self.backends),
            "with_power": self.with_power,
            "mlp_window": self.mlp_window,
        }
        if self.machines:
            payload["machines"] = [machine.to_dict() for machine in self.machines]
        else:
            payload["axes"] = {
                key: [list(v) if isinstance(v, tuple) else v for v in values]
                for key, values in self.axes
            }
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SweepRequest":
        allowed = {"schema_version", "workloads", "machine", "axes",
                   "machines", "backends", "with_power", "mlp_window"}
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise ValueError(f"unknown sweep keys {unknown}; allowed: {sorted(allowed)}")
        if "workloads" not in payload:
            raise ValueError("sweep request needs a 'workloads' list")
        with_power, mlp_window = power_and_window(payload)
        return cls.make(
            payload["workloads"],
            base=payload.get("machine", {}),
            axes=payload.get("axes"),
            machines=payload.get("machines", ()),
            backends=tuple(payload.get("backends", ("analytical",))),
            with_power=with_power,
            mlp_window=mlp_window,
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepRequest":
        return cls.from_dict(json.loads(text))
