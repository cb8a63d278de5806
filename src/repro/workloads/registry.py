"""Workload registry: name → builder lookup and suite definitions.

Workload builders live in the shared :class:`~repro.registry.Registry`
pattern: every builder is registered under its benchmark name with a
``suite`` metadata tag (``"mibench"``, ``"spec"``, or anything a plugin
chooses), and third-party workloads plug in without editing this module::

    from repro.workloads.registry import register_workload

    @register_workload("my_kernel", suite="custom")
    def build_my_kernel() -> Workload:
        ...

A registered workload is immediately addressable everywhere a workload
name is consumed: :func:`get_workload`, the experiment drivers, the
``repro.api`` evaluation facade and the CLI.
"""

from __future__ import annotations

from typing import Callable

from repro.registry import Registry
from repro.workloads.base import Workload
from repro.workloads.kernels import (
    automotive,
    consumer,
    network,
    office,
    security,
    speclike,
    telecom,
)

#: Registry of zero-argument builders returning a fresh :class:`Workload`.
WORKLOADS = Registry("workload")


def register_workload(name: str, *, suite: str = "misc",
                      aliases: tuple[str, ...] = ()):
    """Register a zero-argument workload builder under ``name``."""
    return WORKLOADS.register(name, aliases=aliases, suite=suite)


#: The 19 MiBench-like workloads evaluated in the paper (Figure 3).
MIBENCH_BUILDERS: dict[str, Callable[[], Workload]] = {
    "adpcm_c": telecom.build_adpcm_c,
    "adpcm_d": telecom.build_adpcm_d,
    "dijkstra": network.build_dijkstra,
    "gsm_c": telecom.build_gsm_c,
    "jpeg_c": consumer.build_jpeg_c,
    "jpeg_d": consumer.build_jpeg_d,
    "lame": consumer.build_lame,
    "patricia": network.build_patricia,
    "qsort": automotive.build_qsort,
    "rsynth": office.build_rsynth,
    "sha": security.build_sha,
    "stringsearch": office.build_stringsearch,
    "susan_c": automotive.build_susan_c,
    "susan_e": automotive.build_susan_e,
    "susan_s": automotive.build_susan_s,
    "tiff2bw": consumer.build_tiff2bw,
    "tiff2rgba": consumer.build_tiff2rgba,
    "tiffdither": consumer.build_tiffdither,
    "tiffmedian": consumer.build_tiffmedian,
}

#: SPEC CPU2006-like memory-intensive workloads (Figure 6).
SPEC_BUILDERS: dict[str, Callable[[], Workload]] = {
    "mcf_like": speclike.build_mcf_like,
    "libquantum_like": speclike.build_libquantum_like,
    "lbm_like": speclike.build_lbm_like,
    "milc_like": speclike.build_milc_like,
    "soplex_like": speclike.build_soplex_like,
    "bzip2_like": speclike.build_bzip2_like,
}

for _name, _builder in MIBENCH_BUILDERS.items():
    register_workload(_name, suite="mibench")(_builder)
for _name, _builder in SPEC_BUILDERS.items():
    register_workload(_name, suite="spec")(_builder)

#: Built workloads are cached because their traces are expensive to produce
#: and every experiment reuses the same dynamic instruction stream.
_CACHE: dict[tuple[str, bool], Workload] = {}


def _build(name: str, optimize: bool) -> Workload:
    workload = WORKLOADS.get(name)()
    if optimize:
        # The paper evaluates binaries compiled with -O3, i.e. *scheduled*
        # code.  The kernels are written naturally (dependent instructions
        # adjacent), which corresponds to -fno-schedule-insns, so the default
        # workload applies the library's list scheduler — the raw form stays
        # available via optimize=False (used by the compiler case study).
        from repro.workloads.compiler import InstructionScheduler

        scheduled = InstructionScheduler().run(workload.program)
        scheduled.name = workload.program.name
        workload = Workload(
            name=workload.name,
            program=scheduled,
            memory=workload.memory,
            category=workload.category,
            description=workload.description,
            max_instructions=workload.max_instructions,
        )
    return workload


def get_workload(name: str, use_cache: bool = True, optimize: bool = True) -> Workload:
    """Return the workload registered under ``name``.

    ``optimize=True`` (the default) returns the instruction-scheduled form of
    the kernel, mirroring the paper's use of ``-O3``-compiled binaries;
    ``optimize=False`` returns the kernel exactly as written (the
    ``-fno-schedule-insns`` equivalent used by the Figure 8 case study).

    Workload construction (and the functional-simulation trace) is cached per
    (name, optimize); pass ``use_cache=False`` to force a fresh instance, e.g.
    when the caller is going to mutate the program.
    """
    if name not in WORKLOADS:
        known = ", ".join(WORKLOADS.names())
        raise KeyError(f"unknown workload {name!r}; known workloads: {known}")
    name = WORKLOADS.canonical(name)
    if not use_cache:
        return _build(name, optimize)
    key = (name, optimize)
    if key not in _CACHE:
        _CACHE[key] = _build(name, optimize)
    return _CACHE[key]


def all_workload_names() -> list[str]:
    """All registered workload names (MiBench-like, SPEC-like and plugins)."""
    return WORKLOADS.names()


def suite_names(suite: str) -> list[str]:
    """Registered workload names belonging to ``suite`` (sorted)."""
    return WORKLOADS.names(suite=suite)


def _suite(suite: str, names: list[str] | None) -> list[Workload]:
    known = suite_names(suite)
    selected = names if names is not None else known
    unknown = [name for name in selected if name not in known]
    if unknown:
        raise KeyError(f"not {suite} workloads: {unknown}")
    return [get_workload(name) for name in selected]


def mibench_suite(names: list[str] | None = None) -> list[Workload]:
    """Return the MiBench-like suite (optionally restricted to ``names``)."""
    return _suite("mibench", names)


def spec_suite(names: list[str] | None = None) -> list[Workload]:
    """Return the SPEC-like suite (optionally restricted to ``names``)."""
    return _suite("spec", names)


def clear_cache() -> None:
    """Drop all cached workloads (mostly useful in tests)."""
    _CACHE.clear()

