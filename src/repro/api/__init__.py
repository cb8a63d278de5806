"""``repro.api`` — the public evaluation facade.

One entry point for "evaluate workload W on machine M with backend B",
declaratively and batchable::

    from repro import api

    request = api.EvalRequest(
        workload=api.WorkloadSpec("sha"),
        machine=api.MachineSpec.make("paper_default", l2_size="1MB",
                                     branch_predictor="hybrid_3.5kb"),
        backend="analytical",
    )
    result = api.evaluate(request)
    print(result.cpi, result.cpi_stack)

    # The identical question, cycle-accurately:
    detailed = api.evaluate(api.EvalRequest(request.workload, request.machine,
                                            backend="simulator"))

Batches shard through the session scheduler and stay byte-identical to a
serial run::

    results = api.evaluate_many(sweep.expand(), jobs=4, cache_dir=".cache")

Requests, results and sweeps round-trip losslessly through JSON, which is
what the ``repro-experiments eval`` subcommand consumes.  Backends,
machine presets, branch predictors and workloads are all string-addressed
registries with ``register()`` decorators, so new components plug in
without touching the core modules.
"""

from repro.api.backends import (
    BACKENDS,
    BackendCapabilities,
    EvalBackend,
    SliceAnswer,
    backend_names,
    capability_matrix,
    get_backend,
    register_backend,
)
from repro.api.batch import (
    evaluate,
    evaluate_many,
    load_requests,
    parse_request_payload,
    validate_requests,
)
from repro.api.spec import (
    API_SCHEMA_VERSION,
    EvalRequest,
    EvalResult,
    MachineSpec,
    WorkloadSpec,
)
from repro.api.sweep import SweepRequest

__all__ = [
    "API_SCHEMA_VERSION",
    "BACKENDS",
    "BackendCapabilities",
    "EvalBackend",
    "EvalRequest",
    "EvalResult",
    "MachineSpec",
    "SliceAnswer",
    "SweepRequest",
    "WorkloadSpec",
    "backend_names",
    "capability_matrix",
    "evaluate",
    "evaluate_many",
    "get_backend",
    "load_requests",
    "parse_request_payload",
    "register_backend",
    "validate_requests",
]
