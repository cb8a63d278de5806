"""Checks of the individual subsystems on a full workload trace.

Each test runs one stage of the framework (functional simulation,
profiling, cache simulation, detailed simulation, the compiler passes) on
the sha kernel rather than the unit tests' toy programs.  Their timings,
the basis of the paper's speedup argument, are measured by ``repro.bench``
(``repro-experiments bench``).
"""

from __future__ import annotations

from repro.branch.predictors import make_predictor
from repro.branch.profiler import profile_branches
from repro.memory.single_pass import StackDistanceProfiler
from repro.pipeline.inorder import InOrderPipeline
from repro.pipeline.ooo import OutOfOrderPipeline
from repro.profiler.program import profile_program
from repro.workloads import get_workload
from repro.workloads.compiler import InstructionScheduler, LoopUnroller


def test_functional_simulation_throughput():
    result = get_workload("sha").trace(force=True)
    assert len(result) > 10_000


def test_program_profiling(sha_trace):
    profile = profile_program(sha_trace)
    assert profile.instructions == len(sha_trace)


def test_single_pass_profiler_throughput(sha_trace):
    addresses = [dyn.mem_addr for dyn in sha_trace if dyn.mem_addr is not None]
    result = StackDistanceProfiler(sets=128, line_size=64).profile(addresses)
    assert result.accesses == len(addresses)


def test_branch_predictor_throughput(sha_trace):
    profile = profile_branches(sha_trace, make_predictor("hybrid_3.5kb"))
    assert profile.conditional_branches > 0


def test_detailed_inorder_simulation(sha_trace, default_machine):
    result = InOrderPipeline(default_machine).run(sha_trace)
    assert result.cycles > 0


def test_detailed_ooo_simulation(sha_trace, default_machine):
    result = OutOfOrderPipeline(default_machine).run(sha_trace)
    assert result.cycles > 0


def test_instruction_scheduler():
    program = get_workload("sha", use_cache=False, optimize=False).program
    scheduled = InstructionScheduler().run(program)
    assert len(scheduled) == len(program)


def test_loop_unroller():
    program = get_workload("tiff2bw", use_cache=False, optimize=False).program
    unrolled = LoopUnroller(factor=2).run(program)
    assert len(unrolled) >= len(program)
