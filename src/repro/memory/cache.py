"""Geometry of one set-associative cache level."""

from __future__ import annotations

from dataclasses import dataclass


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    Sizes are in bytes.  ``size = sets * associativity * line_size`` must hold
    with power-of-two sets and line size, as for the caches in the paper's
    design space (Table 2).
    """

    size: int
    associativity: int
    line_size: int = 64
    name: str = "cache"

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.line_size):
            raise ValueError(f"{self.name}: line size must be a power of two")
        if self.associativity <= 0:
            raise ValueError(f"{self.name}: associativity must be positive")
        if self.size % (self.line_size * self.associativity) != 0:
            raise ValueError(
                f"{self.name}: size {self.size} is not divisible by "
                f"associativity*line ({self.associativity}x{self.line_size})"
            )
        if not _is_power_of_two(self.sets):
            raise ValueError(f"{self.name}: number of sets must be a power of two")

    @property
    def sets(self) -> int:
        return self.size // (self.line_size * self.associativity)

    def describe(self) -> str:
        kib = self.size // 1024
        return f"{kib}KB {self.associativity}-way {self.line_size}B lines"
