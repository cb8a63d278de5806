"""The evaluation facade: single calls, batches, and request files.

:func:`evaluate` answers one :class:`~repro.api.spec.EvalRequest`;
:func:`evaluate_many` shards a batch across the
:class:`~repro.runtime.session.Session` process pool (``jobs=N``) while
keeping the output order — and therefore the serialized output bytes —
identical to a serial run.  :func:`parse_request_payload` turns the JSON
request-file forms the ``repro-experiments eval`` subcommand accepts into
a flat request list.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Sequence

from repro.api.backends import BACKENDS, get_backend
from repro.api.spec import EvalRequest, EvalResult
from repro.api.sweep import SweepRequest
from repro.runtime.session import Session


def _machine_label(request: EvalRequest, machine) -> str:
    """A result label that distinguishes override-modified machines.

    A spec that overrides geometry fields without renaming the machine
    would otherwise report the base preset's display name, making e.g. a
    ``{"l2_size": "1MB"}`` variant indistinguishable from the plain preset
    in a results table.  Byte-count overrides are normalized through
    :func:`~repro.machine.format_size`, so ``1048576``, ``"1024KB"`` and
    ``"1MB"`` all label as ``l2_size=1MB``.
    """
    from repro.machine import SIZE_FIELDS, format_size, parse_size

    overrides = request.machine.overrides
    if "name" in overrides or not overrides:
        return machine.name
    rendered = {
        key: format_size(parse_size(value)) if key in SIZE_FIELDS else value
        for key, value in overrides.items()
    }
    return (request.machine.preset + "+"
            + ",".join(f"{key}={value}" for key, value in sorted(rendered.items())))


def _failed_result(request: EvalRequest, machines: dict,
                   error: str) -> EvalResult:
    """The structured per-item error envelope of a contained failure.

    A quarantined or crashed unit keeps its slot in the batch: same
    request/workload/machine labels as a success, zeroed metrics, and the
    failure message in ``error`` — so a 76-point sweep with one poison
    workload returns 72 answers plus 4 addressable errors instead of
    nothing.
    """
    machine = machines.get(request.machine)
    if machine is None:
        machine = request.machine.resolve()
    return EvalResult(
        request=request,
        backend=BACKENDS.canonical(request.backend),
        workload=request.workload.name,
        machine=_machine_label(request, machine),
        instructions=0,
        cycles=0.0,
        seconds=0.0,
        error=error,
    )


def _evaluate_one(session: Session, request: EvalRequest) -> EvalResult:
    """One request through its backend (module-level: process-pool unit)."""
    backend = get_backend(request.backend)
    workload = request.workload.resolve(session)
    machine = request.machine.resolve()
    point = backend.evaluate(
        session, workload, machine,
        with_power=request.with_power, mlp_window=request.mlp_window,
    )
    return EvalResult(
        request=request,
        backend=BACKENDS.canonical(request.backend),
        workload=workload.name,
        machine=_machine_label(request, machine),
        instructions=point.instructions,
        cycles=point.cycles,
        seconds=point.execution_time_seconds,
        cpi_stack=point.cpi_stack,
        energy_joules=point.energy_joules,
    )


def evaluate(request: "EvalRequest | Mapping", *,
             session: Session | None = None) -> EvalResult:
    """Answer one evaluation request (a fresh ephemeral session if none given)."""
    return _evaluate_one(session if session is not None else Session(),
                         EvalRequest.parse(request))


def validate_requests(requests: Sequence[EvalRequest], *,
                      machines: dict | None = None) -> None:
    """Fail fast on unresolvable requests, before any evaluation work.

    Checks every backend name, machine spec (preset, override fields, size
    strings) and workload name/flags against their registries, so a typo
    surfaces as one clear error instead of a traceback out of a worker
    process mid-batch.  ``machines`` (spec -> resolved config) memoizes
    resolution across the batch — a 192-point sweep resolves 192 machines,
    not one per request — and is shared with the sweep planner.
    """
    from repro.runtime.session import COMPILER_FLAGS
    from repro.search.optimize import (
        OptimizeRequest,
        validate_optimize_request,
    )
    from repro.workloads.registry import WORKLOADS

    if machines is None:
        machines = {}
    checked: set[tuple] = set()
    for index, request in enumerate(requests):
        if isinstance(request, OptimizeRequest):
            # Whole-search requests validate structurally (named-field
            # errors for infeasible constraints, zero-cardinality spaces,
            # bad strategies/budgets) instead of per-evaluation.
            errors = validate_optimize_request(request)
            if errors:
                message = "; ".join(errors)
                if len(requests) > 1:
                    message = f"request[{index}]: {message}"
                raise ValueError(message)
            continue
        # A sweep repeats the same (backend, workload, machine) coordinates
        # thousands of times; validate each distinct combination once.
        key = (request.backend, request.workload.name,
               request.workload.flags, request.machine)
        if key in checked:
            continue
        try:
            get_backend(request.backend)
            if request.machine not in machines:
                machines[request.machine] = request.machine.resolve()
            if request.workload.name not in WORKLOADS:
                known = ", ".join(WORKLOADS.names())
                raise ValueError(
                    f"unknown workload {request.workload.name!r}; known: {known}"
                )
            if request.workload.flags not in COMPILER_FLAGS:
                known = ", ".join(COMPILER_FLAGS)
                raise ValueError(
                    f"unknown compiler flags {request.workload.flags!r}; "
                    f"known: {known}"
                )
        except (ValueError, KeyError) as exc:
            # Every message names the bad value AND lists the valid choices
            # (the registries do this for presets/backends); add which
            # request of the batch failed so a bad sweep is a one-read fix.
            message = str(exc)
            if len(requests) > 1:
                message = f"request[{index}]: {message}"
            raise type(exc)(message) from exc
        checked.add(key)


def evaluate_many(requests: Iterable["EvalRequest | Mapping"], *,
                  session: Session | None = None, jobs: int | None = None,
                  cache_dir=None) -> list[EvalResult]:
    """Answer a batch of requests, optionally sharded across processes.

    The batch runs through the sweep planner (:mod:`repro.api.planner`):
    requests are grouped by workload and ordered by pass signature, so
    each profiling pass is computed exactly once per trace across the
    whole batch — also under sharding, where each group goes to one worker
    and traces the parent already holds ship through the data plane.
    Planning only changes *where* work happens: the results equal
    request-by-request :func:`evaluate`, byte for byte.

    With ``jobs > 1`` the batch is distributed over a process pool whose
    workers share the session's artifact-cache directory (a run-scoped
    temporary directory when no ``cache_dir`` is given, so workers never
    redo each other's compilations); results keep request order, so
    parallel output is byte-identical to serial output.  Pass either an
    existing ``session`` or ``jobs``/``cache_dir`` to build one — not both.
    """
    from repro.runtime.session import pooled_session

    parsed = [EvalRequest.parse(request) for request in requests]
    machines: dict = {}
    validate_requests(parsed, machines=machines)
    if session is not None:
        if jobs is not None or cache_dir is not None:
            raise ValueError(
                "pass either an existing session or jobs/cache_dir, not both "
                "(the session already fixes its job count and cache directory)"
            )
        return _run_batch(session, parsed, machines)
    with pooled_session(cache_dir, jobs if jobs is not None else 1) as pooled:
        return _run_batch(pooled, parsed, machines)


def _run_batch(session: Session, parsed: list[EvalRequest],
               machines: dict) -> list[EvalResult]:
    import time

    from repro.api.planner import evaluate_group_timed, plan_requests
    from repro.obs.tracing import emit_span, span
    from repro.resilience.containment import UnitFailure

    if len(parsed) <= 1:
        return session.map(_evaluate_one, parsed)
    with span("planner.plan", requests=len(parsed)) as plan_span:
        groups = plan_requests(parsed, jobs=session.jobs, machines=machines)
        plan_span.set(groups=len(groups))
    if session.jobs > 1:
        # Ship traces the parent already holds through the active data
        # plane — a shared-memory segment handle the workers attach
        # zero-copy, or raw column bytes on platforms without POSIX shared
        # memory; cold traces are built (or cache-loaded) by the worker
        # that owns them.
        started = time.perf_counter()
        groups = [
            group.with_payload(session.ship_trace(group.workload,
                                                  group.flags))
            for group in groups
        ]
        elapsed = time.perf_counter() - started
        session.stages.add("ship", elapsed)
        emit_span("planner.ship", elapsed, groups=len(groups))
    with span("planner.dispatch", groups=len(groups), jobs=session.jobs):
        # Resilient dispatch: a group whose unit is quarantined (or whose
        # worker failed) comes back as a UnitFailure instead of sinking
        # the whole batch; its requests become per-item error results.
        grouped = session.map_resilient(evaluate_group_timed, groups)
    started = time.perf_counter()
    results: list[EvalResult | None] = [None] * len(parsed)
    for group, outcome in zip(groups, grouped):
        if isinstance(outcome, UnitFailure):
            for index in group.indices:
                results[index] = _failed_result(parsed[index], machines,
                                                outcome.error)
            continue
        answers, stages = outcome
        session.stages.merge(stages)
        for index, answer in zip(group.indices, answers):
            results[index] = answer
    elapsed = time.perf_counter() - started
    session.stages.add("collect", elapsed)
    emit_span("planner.collect", elapsed, requests=len(parsed))
    return results


# ----------------------------------------------------------------------
# Request files.
# ----------------------------------------------------------------------
def parse_request_payload(payload) -> list[EvalRequest]:
    """Flatten a decoded request file into a list of evaluation requests.

    Accepted top-level forms:

    * a single request object (has a ``"workload"`` key);
    * a list of request objects;
    * a sweep object (has ``"workloads"`` plus ``"axes"``/``"machines"``);
    * an envelope ``{"requests": [...], "sweeps": [...]}`` combining both.
    """
    if isinstance(payload, Sequence) and not isinstance(payload, (str, bytes, Mapping)):
        return [EvalRequest.parse(item) for item in payload]
    if not isinstance(payload, Mapping):
        raise ValueError(f"cannot interpret request payload of type {type(payload).__name__}")
    if "requests" in payload or "sweeps" in payload:
        extra = sorted(set(payload) - {"requests", "sweeps", "schema_version"})
        if extra:
            raise ValueError(f"unknown request-envelope keys {extra}")
        requests = [EvalRequest.parse(item) for item in payload.get("requests", ())]
        for sweep in payload.get("sweeps", ()):
            requests.extend(SweepRequest.from_dict(sweep).expand())
        return requests
    if "workloads" in payload:
        return SweepRequest.from_dict(payload).expand()
    return [EvalRequest.parse(payload)]


def load_requests(text: str) -> list[EvalRequest]:
    """Parse a JSON request-file body into evaluation requests."""
    return parse_request_payload(json.loads(text))


def results_table(results: Sequence[EvalResult]):
    """Batch results as an :class:`~repro.runtime.result.ExperimentResult`.

    This is the bridge to the existing reporters: the ``repro-experiments
    eval`` subcommand renders the returned table through the same
    text/json/csv renderers the experiments use, and the full per-result
    payloads ride along in ``metadata["results"]`` so the JSON form stays
    lossless.
    """
    from repro.runtime.result import ExperimentResult

    def _scientific(value: float | None) -> str | None:
        return None if value is None else f"{value:.4e}"

    rows = tuple(
        (
            result.workload,
            result.request.workload.flags,
            result.machine,
            result.backend,
            result.instructions,
            result.cycles,
            result.cpi,
            _scientific(result.energy_joules),
            _scientific(result.edp),
        )
        for result in results
    )
    backends = sorted({result.backend for result in results})
    return ExperimentResult(
        experiment="eval",
        title=f"repro.api evaluation — {len(rows)} request(s)",
        headers=("workload", "flags", "machine", "backend", "instructions",
                 "cycles", "cpi", "energy (J)", "EDP (J*s)"),
        rows=rows,
        metadata={
            "requests": len(rows),
            "backends": backends,
            "results": [result.to_dict() for result in results],
        },
    )
