"""The former name of the chunked-trace profiling engine.

:class:`~repro.profiler.single_pass_engine.SinglePassEngine` profiles both
trace forms; a :class:`~repro.trace.trace.ChunkedTrace` is streamed one
chunk at a time.  The alias stays only because the repository benchmark
imports ``StreamingEngine`` and wraps its ``program_profile``,
``profile_machines`` and ``miss_profile`` methods by this name.
"""

from repro.profiler.single_pass_engine import SinglePassEngine

StreamingEngine = SinglePassEngine
