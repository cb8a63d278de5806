"""Cycle-accurate pipeline simulators.

:mod:`repro.pipeline.inorder` implements the superscalar in-order processor
described in Section 2.2 of the paper (W-wide fetch/decode/execute/memory/
write-back pipeline with forwarding, stall-on-use and in-order commit).  It
plays the role of M5's detailed cycle-accurate simulator: the reference
against which the mechanistic model is validated;
:func:`~repro.pipeline.inorder.simulate_many` runs it over a whole design
space, computing each distinct miss-event set and timing problem once.

:mod:`repro.pipeline.ooo` implements a ROB-based out-of-order core used by
the in-order versus out-of-order comparison (Figure 7).
"""

from repro.pipeline.inorder import InOrderPipeline, InOrderResult, simulate_many
from repro.pipeline.ooo import OutOfOrderConfig, OutOfOrderPipeline, OutOfOrderResult

__all__ = [
    "InOrderPipeline",
    "InOrderResult",
    "OutOfOrderPipeline",
    "OutOfOrderConfig",
    "OutOfOrderResult",
    "simulate_many",
]
