"""Machine (microarchitecture) configuration shared by models and simulators.

A :class:`MachineConfig` captures every machine parameter the mechanistic
model needs (Table 1 of the paper) plus the parameters the detailed
simulators and the power model need: superscalar width, front-end pipeline
depth, clock frequency, functional-unit latencies, the cache/TLB hierarchy
and the branch predictor.

The same object drives the analytical model, the cycle-accurate in-order
simulator and the power model, which guarantees that a validation experiment
compares apples to apples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace
from operator import itemgetter
from typing import Mapping

from repro.isa.opcodes import OpClass
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import MemoryHierarchyConfig
from repro.memory.tlb import TLBConfig
from repro.registry import Registry

#: Total pipeline stages = front-end depth + execute + memory + write-back.
BACKEND_STAGES = 3


@dataclass(frozen=True)
class MachineConfig:
    """A superscalar in-order processor configuration.

    Parameters mirror Table 2 of the paper: the default is a 4-wide, 9-stage,
    1 GHz core with 32KB L1 caches, a 512KB 8-way L2 (10 ns) and a 1KB
    global-history branch predictor.
    """

    width: int = 4
    pipeline_stages: int = 9
    frequency_mhz: int = 1000
    mul_latency: int = 4
    div_latency: int = 20
    l1i_size: int = 32 * 1024
    l1i_associativity: int = 4
    l1d_size: int = 32 * 1024
    l1d_associativity: int = 4
    l2_size: int = 512 * 1024
    l2_associativity: int = 8
    line_size: int = 64
    l1_hit_cycles: int = 1
    l2_ns: float = 10.0
    memory_ns: float = 80.0
    tlb_entries: int = 32
    page_size: int = 4096
    tlb_miss_ns: float = 30.0
    branch_predictor: str = "global_1kb"
    #: Display label only: excluded from equality and hashing, so two
    #: identical geometries with different labels share every profile
    #: memo, engine pass and artifact-cache key.
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.width < 1:
            raise ValueError("width must be at least 1")
        if self.pipeline_stages < BACKEND_STAGES + 2:
            raise ValueError(
                f"pipeline needs at least {BACKEND_STAGES + 2} stages "
                "(fetch, decode, execute, memory, write-back)"
            )
        if self.frequency_mhz <= 0:
            raise ValueError("frequency must be positive")
        if self.mul_latency < 1 or self.div_latency < 1:
            raise ValueError("functional-unit latencies must be at least 1 cycle")
        if self.l1_hit_cycles < 1:
            raise ValueError("l1_hit_cycles must be at least 1 cycle")
        if self.tlb_entries < 1:
            raise ValueError("tlb_entries must be at least 1")
        for name in ("l2_ns", "memory_ns", "tlb_miss_ns"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")

    # ------------------------------------------------------------------
    # Derived quantities.
    # ------------------------------------------------------------------
    @property
    def frontend_depth(self) -> int:
        """Number of front-end (fetch/decode) stages — the D of Eq. 4."""
        return self.pipeline_stages - BACKEND_STAGES

    @property
    def cycle_ns(self) -> float:
        return 1000.0 / self.frequency_mhz

    def _cycles(self, nanoseconds: float) -> int:
        return max(1, round(nanoseconds / self.cycle_ns))

    @property
    def l2_hit_cycles(self) -> int:
        return self._cycles(self.l2_ns)

    @property
    def memory_cycles(self) -> int:
        return self._cycles(self.memory_ns)

    @property
    def tlb_miss_cycles(self) -> int:
        return self._cycles(self.tlb_miss_ns)

    def execute_latency(self, op_class: OpClass) -> int:
        """Execute-stage occupancy in cycles for an instruction class."""
        if op_class is OpClass.INT_MUL:
            return self.mul_latency
        if op_class is OpClass.INT_DIV:
            return self.div_latency
        return 1

    def memory_hierarchy_config(self) -> MemoryHierarchyConfig:
        """Build the cache/TLB configuration implied by this machine."""
        return MemoryHierarchyConfig(
            l1i=CacheConfig(self.l1i_size, self.l1i_associativity, self.line_size, name="l1i"),
            l1d=CacheConfig(self.l1d_size, self.l1d_associativity, self.line_size, name="l1d"),
            l2=CacheConfig(self.l2_size, self.l2_associativity, self.line_size, name="l2"),
            itlb=TLBConfig(self.tlb_entries, self.page_size, name="itlb"),
            dtlb=TLBConfig(self.tlb_entries, self.page_size, name="dtlb"),
            l1_hit_cycles=self.l1_hit_cycles,
            l2_hit_cycles=self.l2_hit_cycles,
            memory_cycles=self.memory_cycles,
            tlb_miss_cycles=self.tlb_miss_cycles,
        )

    def with_(self, **overrides) -> "MachineConfig":
        """Return a copy with some fields replaced (convenience for sweeps)."""
        return replace(self, **overrides)

    def describe(self) -> str:
        return (
            f"{self.width}-wide, {self.pipeline_stages}-stage, "
            f"{self.frequency_mhz} MHz, L2 {format_size(self.l2_size)} "
            f"{self.l2_associativity}-way, bpred {self.branch_predictor}"
        )


#: Fields that hold whole numbers (cycles, bytes, entries, ways, MHz): a
#: float or bool there is a malformed machine, not a rounding to make.
_INT_FIELDS = tuple(f.name for f in fields(MachineConfig) if f.type == "int")


#: The paper's default configuration (Table 2, middle column).
DEFAULT_MACHINE = MachineConfig(name="default")


class MachineMemo:
    """A value derived from a machine, memoized per machine *object*.

    Calling the memo with a list of machines returns ``derive(machine)``
    of each, in order.  Hashing a :class:`MachineConfig` hashes all of its
    fields, once per lookup; a batch's machine table resolves each
    distinct machine to one object (and
    :meth:`~repro.api.spec.MachineSpec.resolve` shares it across
    batches), so a lookup by ``id()`` answers every point of a sweep
    after the first batch.  Each entry pins its machine, so an id is
    never reused while cached; the memo is emptied when it holds
    ``maxsize`` entries.  Nothing is stored on the machine, so nothing
    rides along when it is pickled.
    """

    def __init__(self, derive, maxsize: int = 4096):
        self._derive = derive
        self._maxsize = maxsize
        #: id(machine) -> (machine, derive(machine)).
        self._memo: dict[int, tuple[MachineConfig, object]] = {}

    def __call__(self, machines: list) -> list:
        ids = list(map(id, machines))
        found = list(map(self._memo.get, ids))
        if None in found:
            for position, known in enumerate(found):
                if known is None:
                    machine = machines[position]
                    found[position] = (self._memo.get(id(machine))
                                       or self._add(machine))
        return list(map(itemgetter(1), found))

    def _add(self, machine: MachineConfig) -> tuple:
        if len(self._memo) >= self._maxsize:
            self._memo.clear()
        known = (machine, self._derive(machine))
        self._memo[id(machine)] = known
        return known


def area_proxy(machine: MachineConfig) -> float:
    """A crude silicon-area proxy in KB-equivalents, for search objectives.

    SRAM estate dominates small in-order cores, so the proxy is the cache
    estate in KB plus a per-slot and per-stage core term.  It is *not* a
    calibrated area model — it exists so design-space searches can trade
    performance against a monotonic cost axis (``area_proxy`` grows with
    every parameter a designer pays area for).
    """
    return ((machine.l1i_size + machine.l1d_size + machine.l2_size) / 1024.0
            + 4.0 * machine.width + float(machine.pipeline_stages))


# ----------------------------------------------------------------------
# Size-string parsing ("1MB" -> 1048576).
# ----------------------------------------------------------------------
_SIZE_UNITS = {
    "": 1, "b": 1,
    "k": 1024, "kb": 1024, "kib": 1024,
    "m": 1024 ** 2, "mb": 1024 ** 2, "mib": 1024 ** 2,
    "g": 1024 ** 3, "gb": 1024 ** 3, "gib": 1024 ** 3,
}

_SIZE_PATTERN = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([a-zA-Z]*)\s*$")

#: MachineConfig fields whose values are byte counts and therefore accept
#: size strings wherever a machine spec is parsed.
SIZE_FIELDS = frozenset({"l1i_size", "l1d_size", "l2_size", "line_size", "page_size"})


def parse_size(value: int | str) -> int:
    """Parse a byte count: an int passes through, a string may carry a unit.

    Accepted units (case-insensitive, binary multiples): ``B``, ``KB``/``KiB``/
    ``K``, ``MB``/``MiB``/``M``, ``GB``/``GiB``/``G``.  ``"512KB"`` -> 524288,
    ``"1MB"`` -> 1048576, ``"0.5MB"`` -> 524288.
    """
    if isinstance(value, bool):
        raise TypeError(f"size must be an int or a string, got {value!r}")
    if isinstance(value, int):
        return value
    if not isinstance(value, str):
        raise TypeError(f"size must be an int or a string, got {value!r}")
    match = _SIZE_PATTERN.match(value)
    if not match:
        raise ValueError(f"malformed size string {value!r} (expected e.g. '512KB', '1MB')")
    number, unit = match.groups()
    try:
        multiplier = _SIZE_UNITS[unit.lower()]
    except KeyError:
        known = ", ".join(sorted(unit for unit in _SIZE_UNITS if unit))
        raise ValueError(f"unknown size unit {unit!r} in {value!r}; known units: {known}") from None
    total = float(number) * multiplier
    if total != int(total):
        raise ValueError(f"size {value!r} is not a whole number of bytes")
    return int(total)


def format_size(value: int) -> str:
    """Render a byte count with the largest unit that divides it evenly.

    The inverse of :func:`parse_size`: ``524288`` -> ``"512KB"``,
    ``1048576`` -> ``"1MB"``, ``1536`` -> ``"1536B"`` (no fractional
    renderings, so ``parse_size(format_size(n)) == n`` for every
    non-negative ``n``).  This is the one spelling presets, override
    labels and cache reports all use.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"size must be an int, got {value!r}")
    if value < 0:
        raise ValueError(f"size must be non-negative, got {value}")
    for unit, multiplier in (("GB", 1024 ** 3), ("MB", 1024 ** 2), ("KB", 1024)):
        if value and value % multiplier == 0:
            return f"{value // multiplier}{unit}"
    return f"{value}B"


# ----------------------------------------------------------------------
# Named machine presets and spec parsing.
# ----------------------------------------------------------------------
MACHINE_PRESETS = Registry("machine preset")


def register_machine_preset(name: str, *, aliases: tuple[str, ...] = (),
                            description: str = ""):
    """Register a zero-argument factory returning a :class:`MachineConfig`."""
    return MACHINE_PRESETS.register(name, aliases=aliases, description=description)


@register_machine_preset(
    "paper_default", aliases=("default",),
    description="Table 2 default: 4-wide, 9-stage, 1 GHz, 512KB 8-way L2",
)
def _preset_paper_default() -> MachineConfig:
    return DEFAULT_MACHINE


@register_machine_preset(
    "little_5stage_600mhz",
    description="design-space low end: scalar, 5-stage, 600 MHz",
)
def _preset_little() -> MachineConfig:
    return MachineConfig(width=1, pipeline_stages=5, frequency_mhz=600,
                         name="little_5stage_600mhz")


@register_machine_preset(
    "mid_7stage_800mhz",
    description="design-space midpoint: 2-wide, 7-stage, 800 MHz",
)
def _preset_mid() -> MachineConfig:
    return MachineConfig(width=2, pipeline_stages=7, frequency_mhz=800,
                         name="mid_7stage_800mhz")


@register_machine_preset(
    "big_l2_1mb",
    description="default core with a 1MB 16-way L2 and the hybrid predictor",
)
def _preset_big_l2() -> MachineConfig:
    return MachineConfig(l2_size=1024 * 1024, l2_associativity=16,
                         branch_predictor="hybrid_3.5kb", name="big_l2_1mb")


_FIELD_NAMES = frozenset(f.name for f in fields(MachineConfig))


def machine_from_spec(spec: "MachineConfig | str | Mapping") -> MachineConfig:
    """Resolve a machine specification to a :class:`MachineConfig`.

    Accepted forms:

    * a :class:`MachineConfig` — returned unchanged;
    * a preset name (``"paper_default"``);
    * a mapping of keyword overrides with an optional ``"preset"`` entry,
      e.g. ``{"preset": "paper_default", "l2_size": "1MB",
      "branch_predictor": "hybrid_3.5kb"}``.  Byte-count fields
      (:data:`SIZE_FIELDS`) accept size strings.
    """
    if isinstance(spec, MachineConfig):
        return spec
    if isinstance(spec, str):
        return MACHINE_PRESETS.get(spec)()
    if not isinstance(spec, Mapping):
        raise TypeError(
            f"machine spec must be a MachineConfig, a preset name or a "
            f"mapping, got {type(spec).__name__}"
        )
    overrides = dict(spec)
    preset = overrides.pop("preset", "paper_default")
    return machine_from_factory(MACHINE_PRESETS.get(preset), overrides)


def machine_from_factory(factory, overrides: Mapping) -> MachineConfig:
    """``factory()`` (a preset's factory) with keyword ``overrides`` applied.

    Override names are checked, and size strings parsed, before the
    factory runs.
    """
    overrides = dict(overrides)
    unknown = sorted(set(overrides) - _FIELD_NAMES)
    if unknown:
        raise ValueError(
            f"unknown machine parameters {unknown}; "
            f"valid parameters: {sorted(_FIELD_NAMES)}"
        )
    for size_field in SIZE_FIELDS & set(overrides):
        overrides[size_field] = parse_size(overrides[size_field])
    machine = factory()
    return machine.with_(**overrides) if overrides else machine
