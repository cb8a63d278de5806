"""Program and program-machine profiling (Figure 2 of the paper).

Two kinds of statistics are collected from a dynamic trace:

* **Program statistics** (machine independent, collected once per binary):
  instruction mix and inter-instruction dependency-distance profiles —
  :func:`profile_program`.
* **Program–machine statistics** (depend on the cache/TLB/branch-predictor
  configuration): miss-event counts — :func:`profile_machine`, answered by
  the amortized single-pass :class:`SinglePassEngine` (one trace walk per
  cache geometry, one branch replay per predictor); every structure is
  true LRU, so its stack-distance counts are exact.

Every pass runs through the active :mod:`repro.accel` backend's
chunk-resumable streams, which are the only implementation of each pass.
:class:`SinglePassEngine` drives them over either trace form — a resident
trace as one chunk, a :class:`~repro.trace.trace.ChunkedTrace` chunk by
chunk — and the whole-trace collectors (:func:`collect_instruction_mix`,
:func:`collect_dependencies`) are one-chunk wrappers over the same streams.

Together with the machine parameters (:class:`repro.machine.MachineConfig`)
these are the inputs of Table 1 of the paper.
"""

from repro.profiler.instruction_mix import InstructionMix, collect_instruction_mix
from repro.profiler.dependences import DependencyProfile, collect_dependencies
from repro.profiler.program import ProgramProfile, profile_program
from repro.profiler.machine_stats import MissProfile, profile_machine
from repro.profiler.single_pass_engine import SinglePassEngine

__all__ = [
    "SinglePassEngine",
    "InstructionMix",
    "collect_instruction_mix",
    "DependencyProfile",
    "collect_dependencies",
    "ProgramProfile",
    "profile_program",
    "MissProfile",
    "profile_machine",
]
