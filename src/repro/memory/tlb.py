"""Translation lookaside buffer geometry (fully associative, LRU)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TLBConfig:
    """TLB geometry: number of entries and page size in bytes."""

    entries: int = 32
    page_size: int = 4096
    name: str = "tlb"

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ValueError(f"{self.name}: needs at least one entry")
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError(f"{self.name}: page size must be a power of two")
