"""Combinatorial design spaces declared without materialisation.

A :class:`SearchSpace` generalises the sweep grammar to spaces far too
large to expand: an ordered list of axes over a base
:class:`~repro.api.spec.MachineSpec`, where each axis is

* a plain parameter axis (``l2_size`` over a value list),
* a **coupled** axis binding several fields at once
  (``"pipeline_stages,frequency_mhz"`` with tuple values — the paper ties
  depth to clock), or
* a **conditional** axis that only opens up when a ``when`` clause over
  earlier axes holds (``l2_associativity`` choices only for large L2s,
  say); while inactive it contributes exactly one choice (the base
  machine's value).

Points are addressed by a single integer index with the leftmost axis
most significant — the same row-major order ``itertools.product`` (and
the sweep grammar) uses — so ``space.spec(i)`` is deterministic,
:meth:`~SearchSpace.cardinality` is exact without enumerating anything,
and :meth:`~SearchSpace.sample` draws reproducible seeded subsets of
million-point spaces in O(sample size).
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.api.spec import MachineSpec, WorkloadSpec
from repro.api.sweep import SweepRequest
from repro.machine import SIZE_FIELDS, parse_size
from repro.search.objectives import Constraint

#: Version stamped into serialized spaces.
SPACE_SCHEMA_VERSION = 1


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


@dataclass(frozen=True)
class SpaceAxis:
    """One axis of a search space (plain, coupled or conditional)."""

    key: str
    values: tuple
    #: Constraint source over *earlier* axes' fields (or base values);
    #: while it does not hold the axis is inactive (one choice: the base).
    when: str | None = None

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"axis {self.key!r} has no values")
        for field_name in self.fields:
            if not field_name:
                raise ValueError(f"malformed axis key {self.key!r}")
        if len(self.fields) > 1:
            for value in self.values:
                if not isinstance(value, tuple) or len(value) != len(self.fields):
                    raise ValueError(
                        f"coupled axis {self.key!r} needs "
                        f"{len(self.fields)}-tuples, got {value!r}"
                    )

    @property
    def fields(self) -> tuple[str, ...]:
        return tuple(self.key.split(","))

    @property
    def condition(self) -> Constraint | None:
        if self.when is None:
            return None
        condition = Constraint.parse(self.when)
        if not condition.on_machine:
            raise ValueError(
                f"axis {self.key!r}: 'when' must test a machine parameter, "
                f"got {self.when!r}"
            )
        return condition

    def active(self, bindings: Mapping[str, object]) -> bool:
        """Whether the axis opens up under the earlier axes' assignment."""
        condition = self.condition
        if condition is None:
            return True
        if condition.path not in bindings:
            raise ValueError(
                f"axis {self.key!r}: 'when' tests {condition.path!r}, which "
                "no earlier axis or base override assigns"
            )
        return condition.admits_value(bindings[condition.path])

    def overrides_for(self, value) -> dict[str, object]:
        """The machine overrides one chosen value contributes."""
        names = self.fields
        if len(names) == 1:
            return {names[0]: value}
        return dict(zip(names, value))

    def to_dict(self) -> dict:
        payload: dict = {
            "axis": self.key,
            "values": [list(v) if isinstance(v, tuple) else v
                       for v in self.values],
        }
        if self.when is not None:
            payload["when"] = self.when
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SpaceAxis":
        unknown = sorted(set(payload) - {"axis", "values", "when"})
        if unknown:
            raise ValueError(
                f"unknown axis keys {unknown}; allowed: "
                "['axis', 'values', 'when']"
            )
        return cls(key=payload["axis"], values=_freeze(payload["values"]),
                   when=payload.get("when"))


@dataclass(frozen=True)
class SearchSpace:
    """An indexable cross product of axes over a base machine spec."""

    axes: tuple[SpaceAxis, ...]
    base: MachineSpec = field(default_factory=MachineSpec)
    #: Optional point-name template over axis fields; ``{field}`` expands
    #: to the chosen value, ``{field_kb}`` to ``value // 1024`` — enough
    #: to spell the Table 2 point names (:mod:`repro.dse.space`).
    name_template: str | None = None

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for axis in self.axes:
            for field_name in axis.fields:
                if field_name in seen:
                    raise ValueError(
                        f"field {field_name!r} appears on more than one axis"
                    )
                seen.add(field_name)

    @classmethod
    def make(cls, axes: "Mapping | Sequence", *, base=None,
             name_template: str | None = None) -> "SearchSpace":
        """Build a space from friendly inputs.

        ``axes`` is either a mapping ``{key: values}`` (the sweep-grammar
        shape, all axes unconditional) or a sequence of axis dicts
        (``{"axis": ..., "values": ..., "when": ...}``) /
        :class:`SpaceAxis` objects.
        """
        if isinstance(axes, Mapping):
            parsed = tuple(SpaceAxis(key=key, values=_freeze(values))
                           for key, values in axes.items())
        else:
            parsed = tuple(
                axis if isinstance(axis, SpaceAxis) else SpaceAxis.from_dict(axis)
                for axis in axes
            )
        return cls(axes=parsed,
                   base=MachineSpec.parse(base if base is not None else {}),
                   name_template=name_template)

    # ------------------------------------------------------------------
    # Counting and indexing.
    # ------------------------------------------------------------------
    def _base_bindings(self) -> dict[str, object]:
        """Field values ``when`` clauses may read before any axis binds them."""
        paths = [axis.condition.path for axis in self.axes
                 if axis.when is not None]
        paths = [path for path in paths if path != "area_proxy"]
        if not paths:
            return {}
        machine = self.base.resolve()
        return {path: getattr(machine, path) for path in paths}

    @functools.cached_property
    def _counts(self) -> dict:
        """Subtree point counts, shared by every count and decode."""
        return {}

    @functools.cached_property
    def _referenced(self) -> frozenset[str]:
        """Fields any ``when`` clause reads (the memo key vocabulary)."""
        names = set()
        for axis in self.axes:
            condition = axis.condition
            if condition is not None:
                names.add(condition.path)
        return frozenset(names)

    def _choices(self, axis: SpaceAxis,
                 bindings: Mapping[str, object]) -> tuple:
        """The axis's effective choices under the bindings so far.

        An inactive conditional axis contributes exactly one choice —
        ``None`` — meaning "no override, keep the base value".
        """
        return axis.values if axis.active(bindings) else (None,)

    def _count_from(self, axis_index: int, bindings: dict[str, object],
                    memo: dict) -> int:
        if axis_index == len(self.axes):
            return 1
        referenced = self._referenced
        key = (axis_index,
               tuple(sorted((name, bindings[name]) for name in referenced
                            if name in bindings)))
        cached = memo.get(key)
        if cached is not None:
            return cached
        axis = self.axes[axis_index]
        total = 0
        for value in self._choices(axis, bindings):
            child = bindings
            if value is not None and referenced & set(axis.fields):
                child = {**bindings, **{k: v
                                        for k, v in axis.overrides_for(value).items()
                                        if k in referenced}}
            total += self._count_from(axis_index + 1, child, memo)
        memo[key] = total
        return total

    def cardinality(self) -> int:
        """Exact number of points, computed without enumeration."""
        if not self.axes:
            return 1
        return self._count_from(0, self._base_bindings(), self._counts)

    def __len__(self) -> int:
        return self.cardinality()

    def overrides(self, index: int) -> dict[str, object]:
        """Decode a point index into its machine overrides (no name)."""
        cardinality = self.cardinality()
        if not 0 <= index < cardinality:
            raise IndexError(
                f"point index {index} out of range for a space of "
                f"{cardinality} points"
            )
        memo = self._counts
        bindings = self._base_bindings()
        referenced = self._referenced
        overrides: dict[str, object] = {}
        remaining = index
        for axis_index, axis in enumerate(self.axes):
            for value in self._choices(axis, bindings):
                child = dict(bindings)
                if value is not None:
                    assignment = axis.overrides_for(value)
                    child.update({k: v for k, v in assignment.items()
                                  if k in referenced})
                subtree = self._count_from(axis_index + 1, child, memo)
                if remaining < subtree:
                    if value is not None:
                        overrides.update(axis.overrides_for(value))
                    bindings = child
                    break
                remaining -= subtree
        return overrides

    def point_name(self, overrides: Mapping[str, object]) -> str | None:
        """Render the name template for one decoded point (if any)."""
        if self.name_template is None:
            return None
        machine = self.base.resolve()
        values: dict[str, object] = {}
        for axis in self.axes:
            for field_name in axis.fields:
                value = overrides.get(field_name,
                                      getattr(machine, field_name, None))
                if field_name in SIZE_FIELDS and value is not None:
                    value = parse_size(value)
                values[field_name] = value
                if isinstance(value, int):
                    values[f"{field_name}_kb"] = value // 1024
        return self.name_template.format(**values)

    def spec(self, index: int) -> MachineSpec:
        """The :class:`MachineSpec` of one point (named via the template)."""
        overrides = self.overrides(index)
        name = self.point_name(overrides)
        if name is not None:
            overrides = {**overrides, "name": name}
        return self.base.with_overrides(**overrides)

    def specs(self, indices: Iterable[int]) -> list[MachineSpec]:
        return [self.spec(index) for index in indices]

    def to_sweep(self, workloads: Iterable[str], *,
                 backends: Sequence[str] = ("analytical",),
                 with_power: bool = False, flags: str = "O3") -> SweepRequest:
        """Every point, in index order, as an explicit sweep machine grid.

        Each point is carried as the preset plus *minimal* overrides (the
        fields where its resolved config differs from the preset, name
        included), so ``space.to_sweep(names).expand()`` is a declarative,
        JSON-serializable batch for :func:`repro.api.evaluate_many`.
        """
        return SweepRequest(
            workloads=tuple(WorkloadSpec(name, flags) for name in workloads),
            machines=tuple(MachineSpec.from_machine(self.spec(index).resolve())
                           for index in range(self.cardinality())),
            backends=tuple(backends),
            with_power=with_power,
        )

    # ------------------------------------------------------------------
    # Seeded sampling.
    # ------------------------------------------------------------------
    def sample(self, count: int, seed: int | str, *,
               exclude: Iterable[int] = ()) -> list[int]:
        """``count`` distinct point indices, deterministic given ``seed``.

        Indices in ``exclude`` are never drawn.  Small spaces fall back to
        a seeded shuffle of the full remainder; large spaces use rejection
        sampling, so the cost is O(count), not O(cardinality).  Asking for
        more points than remain returns every remaining index (ascending).
        """
        if count < 0:
            raise ValueError("sample count must be non-negative")
        cardinality = self.cardinality()
        excluded = set(exclude)
        remaining = cardinality - len(excluded)
        rng = random.Random(seed)
        if count >= remaining:
            return [index for index in range(cardinality)
                    if index not in excluded]
        if cardinality <= max(4 * (count + len(excluded)), 4096):
            pool = [index for index in range(cardinality)
                    if index not in excluded]
            rng.shuffle(pool)
            return pool[:count]
        picked: list[int] = []
        seen = set(excluded)
        while len(picked) < count:
            candidate = rng.randrange(cardinality)
            if candidate in seen:
                continue
            seen.add(candidate)
            picked.append(candidate)
        return picked

    # ------------------------------------------------------------------
    # Serialization.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        payload: dict = {
            "schema_version": SPACE_SCHEMA_VERSION,
            "base": self.base.to_dict(),
            "axes": [axis.to_dict() for axis in self.axes],
        }
        if self.name_template is not None:
            payload["name_template"] = self.name_template
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SearchSpace":
        unknown = sorted(set(payload)
                         - {"schema_version", "base", "axes", "name_template"})
        if unknown:
            raise ValueError(
                f"unknown search-space keys {unknown}; allowed: "
                "['axes', 'base', 'name_template', 'schema_version']"
            )
        if "axes" not in payload:
            raise ValueError("search space needs an 'axes' list")
        return cls.make(payload["axes"], base=payload.get("base", {}),
                        name_template=payload.get("name_template"))

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SearchSpace":
        return cls.from_dict(json.loads(text))
