"""Test-only oracle: the object-replay in-order pipeline simulator.

This is the cycle-accurate loop :class:`repro.pipeline.inorder.InOrderPipeline`
ran before it was driven from precomputed event columns, kept unchanged so
the column-driven simulator can be checked bit for bit against it.  It
replays every instruction through a fresh
:class:`memory_oracle.CacheHierarchy` and branch predictor and
walks the trace's :class:`~repro.trace.trace.DynamicInstruction` facade.
"""

from __future__ import annotations

from memory_oracle import CacheHierarchy

from repro.branch.predictors import make_predictor
from repro.isa.opcodes import OpClass
from repro.isa.registers import NUM_INT_REGS
from repro.machine import BACKEND_STAGES, MachineConfig
from repro.pipeline.inorder import InOrderResult
from repro.trace.trace import Trace


def run_oracle(machine: MachineConfig, trace: Trace) -> InOrderResult:
    width = machine.width
    depth = machine.frontend_depth
    capacity = max(1, depth * width)

    hierarchy = CacheHierarchy(machine.memory_hierarchy_config())
    predictor = make_predictor(machine.branch_predictor)

    # Earliest cycle at which a consumer of each register may enter execute.
    reg_ready = [0] * NUM_INT_REGS
    # Issue cycles of the most recent `capacity` instructions (front-end
    # backpressure) — a ring buffer indexed by sequence number.
    recent_issues = [0] * capacity

    fetch_cycle = 0          # cycle in which the next instruction is fetched
    fetch_slots = 0          # instructions already fetched in that cycle
    exec_free = 0            # earliest cycle execute accepts a new instruction
    last_issue = -1          # issue cycle of the previous instruction
    issued_in_cycle = 0      # how many instructions issued in `last_issue`
    redirect_at = -1         # pending fetch redirect (branch misprediction)

    mispredictions = 0
    taken_bubbles = 0
    issue = 0

    for index, dyn in enumerate(trace):
        instruction = dyn.instruction

        # ----------------------------------------------------------
        # Fetch.
        # ----------------------------------------------------------
        if redirect_at >= 0:
            # The previous (mispredicted) branch redirects fetch when it
            # resolves at the end of its execute cycle.
            if redirect_at > fetch_cycle or fetch_slots:
                fetch_cycle = max(fetch_cycle, redirect_at)
                fetch_slots = 0
            redirect_at = -1

        # Front-end buffering: instruction `index` can only be fetched
        # once instruction `index - capacity` has left the front end.
        if index >= capacity:
            oldest_issue = recent_issues[index % capacity]
            if oldest_issue > fetch_cycle:
                fetch_cycle = oldest_issue
                fetch_slots = 0

        outcome, itlb_miss = hierarchy.access_instruction(dyn.pc)
        fetch_latency = hierarchy.latency_of(outcome, itlb_miss)
        if fetch_latency > 1:
            # The I-cache (or ITLB) miss stalls fetch; this instruction is
            # delivered once the line arrives, starting a fresh group.
            fetch_cycle += fetch_latency - 1 + (1 if fetch_slots else 0)
            fetch_slots = 0

        fetched_at = fetch_cycle
        fetch_slots += 1
        if fetch_slots >= width:
            fetch_cycle += 1
            fetch_slots = 0

        available = fetched_at + depth

        # Branch prediction happens alongside fetch/decode.
        taken_bubble = False
        mispredicted = False
        if dyn.is_control:
            actually_taken = bool(dyn.taken)
            if instruction.is_branch:
                prediction = predictor.predict(dyn.pc)
                predictor.update(dyn.pc, actually_taken)
                mispredicted = prediction != actually_taken
                taken_bubble = (not mispredicted) and actually_taken
            else:
                # Unconditional jumps are always predicted taken.
                taken_bubble = True
            if taken_bubble:
                taken_bubbles += 1
                # The redirect to the target is known one cycle after the
                # branch was fetched: the next fetch cycle is a bubble.
                fetch_cycle = max(fetch_cycle, fetched_at + 2)
                fetch_slots = 0
            if mispredicted:
                mispredictions += 1

        # ----------------------------------------------------------
        # Issue (decode -> execute).
        # ----------------------------------------------------------
        issue = max(available, exec_free, last_issue)
        for source in instruction.src_regs():
            ready = reg_ready[source]
            if ready > issue:
                issue = ready
        if issue == last_issue and issued_in_cycle >= width:
            issue += 1
        if issue == last_issue:
            issued_in_cycle += 1
        else:
            last_issue = issue
            issued_in_cycle = 1
        recent_issues[index % capacity] = issue

        # ----------------------------------------------------------
        # Execute / memory behaviour.
        # ----------------------------------------------------------
        op_class = dyn.op_class
        if op_class in (OpClass.INT_MUL, OpClass.INT_DIV):
            latency = machine.execute_latency(op_class)
            exec_free = max(exec_free, issue + latency)
            for dest in instruction.dest_regs():
                reg_ready[dest] = issue + latency
        elif op_class.is_memory:
            data_outcome, dtlb_miss = hierarchy.access_data(
                dyn.mem_addr or 0, is_store=dyn.is_store
            )
            access_latency = hierarchy.latency_of(data_outcome, dtlb_miss)
            if access_latency > 1:
                # The memory stage blocks; nothing may enter execute while
                # the miss (or multi-cycle hit) is outstanding.
                exec_free = max(exec_free, issue + access_latency)
            for dest in instruction.dest_regs():
                # Loads produce their value at the end of the memory stage.
                reg_ready[dest] = issue + 1 + access_latency
        else:
            for dest in instruction.dest_regs():
                reg_ready[dest] = issue + 1

        if mispredicted:
            # Fetch restarts at the correct target once the branch has
            # executed (end of its execute cycle).
            redirect_at = issue + 1

    total_cycles = max(issue, exec_free) + BACKEND_STAGES
    return InOrderResult(
        machine=machine,
        instructions=len(trace),
        cycles=total_cycles,
        mispredictions=mispredictions,
        taken_bubbles=taken_bubbles,
        hierarchy_stats=hierarchy.stats,
    )
