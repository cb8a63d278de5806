"""Shared helpers for the experiment drivers."""

from __future__ import annotations

from repro.machine import DEFAULT_MACHINE, MachineConfig
from repro.runtime.session import Session

#: Benchmarks highlighted in Figure 4 (width scaling behaviour).
FIGURE4_BENCHMARKS = ("sha", "tiffdither", "dijkstra")

#: Benchmarks shown in Figure 7 (in-order vs out-of-order CPI stacks); the
#: paper's cjpeg/djpeg/toast map onto our jpeg_c/jpeg_d/gsm_c kernels.
FIGURE7_BENCHMARKS = (
    "jpeg_c", "dijkstra", "jpeg_d", "lame", "patricia",
    "susan_c", "susan_e", "susan_s", "tiff2bw", "tiff2rgba",
    "tiffdither", "tiffmedian", "gsm_c",
)

#: Benchmarks shown in Figure 8 (largest compiler-optimization impact).
FIGURE8_BENCHMARKS = ("gsm_c", "sha", "stringsearch", "susan_s", "tiffdither")

#: Benchmarks shown in Figure 9 (EDP exploration).
FIGURE9_BENCHMARKS = ("adpcm_d", "gsm_c", "lame", "patricia")

#: Workload subset used by default for design-space validation (Figure 5)
#: when running the fast configuration; the full run uses all 19.
FIGURE5_FAST_BENCHMARKS = (
    "sha", "dijkstra", "qsort", "tiff2bw", "tiffdither", "patricia",
)


def default_machine() -> MachineConfig:
    """The paper's default processor configuration (Table 2)."""
    return DEFAULT_MACHINE


def ensure_session(session: Session | None) -> Session:
    """The given session, or a fresh ephemeral (uncached, serial) one.

    Every experiment's ``run`` accepts ``session=None`` so the modules stay
    usable as plain libraries; the CLI always passes its configured session.
    """
    return session if session is not None else Session()


def _validated_names(suite: str, label: str, names) -> list[str]:
    from repro.workloads.registry import suite_names

    known = suite_names(suite)
    if names is None:
        return known
    unknown = [name for name in names if name not in known]
    if unknown:
        raise KeyError(f"not {label} workloads: {unknown}")
    return list(names)


def mibench_names(names=None) -> list[str]:
    """Validated MiBench benchmark selection (default: all 19, sorted)."""
    return _validated_names("mibench", "MiBench", names)


def spec_names(names=None) -> list[str]:
    """Validated SPEC-like benchmark selection (default: all, sorted)."""
    return _validated_names("spec", "SPEC", names)
