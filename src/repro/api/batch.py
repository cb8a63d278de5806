"""The evaluation facade: single calls, batches, and request files.

:func:`evaluate` answers one :class:`~repro.api.spec.EvalRequest`;
:func:`evaluate_many` shards the part of a batch the parent session
cannot answer from its memos across the
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
from repro.api.spec import EvalRequest, EvalResult, MachineSpec
from repro.api.sweep import SweepRequest
from repro.machine import SIZE_FIELDS, format_size, parse_size
from repro.runtime.session import Session


def _machine_label(spec: MachineSpec, machine) -> str:
    """A result label that distinguishes override-modified machines.

    A spec that overrides geometry fields without renaming the machine
    would otherwise report the base preset's display name, making e.g. a
    ``{"l2_size": "1MB"}`` variant indistinguishable from the plain preset
    in a results table.  Byte-count overrides are normalized through
    :func:`~repro.machine.format_size`, so ``1048576``, ``"1024KB"`` and
    ``"1MB"`` all label as ``l2_size=1MB``.
    """
    overrides = spec.overrides
    if "name" in overrides or not overrides:
        return machine.name
    rendered = {
        key: format_size(parse_size(value)) if key in SIZE_FIELDS else value
        for key, value in overrides.items()
    }
    return (spec.preset + "+"
            + ",".join(f"{key}={value}" for key, value in sorted(rendered.items())))


def _failed_result(request: EvalRequest, error: str) -> EvalResult:
    """The structured per-item error envelope of a contained failure.

    A quarantined or crashed unit keeps its slot in the batch: same
    request/workload/machine labels as a success, zeroed metrics, and the
    failure message in ``error`` — so a 76-point sweep with one poison
    workload returns 72 answers plus 4 addressable errors instead of
    nothing.
    """
    return EvalResult(
        request=request,
        backend=BACKENDS.canonical(request.backend),
        workload=request.workload.name,
        machine=_machine_label(request.machine, request.machine.resolve()),
        instructions=0,
        cycles=0.0,
        seconds=0.0,
        error=error,
    )


def _evaluate_one(session: Session, request: EvalRequest) -> EvalResult:
    """One request through its backend (module-level: process-pool unit)."""
    from repro.api.planner import machine_entry, slice_results

    backend = get_backend(request.backend)
    workload = request.workload.resolve(session)
    entry = machine_entry(request.machine)
    answer = backend.evaluate(
        session, workload, [entry.machine],
        with_power=request.with_power, mlp_window=request.mlp_window,
    )
    (result,) = slice_results([request], BACKENDS.canonical(request.backend),
                              workload.name, [entry], answer)
    return result


def evaluate(request: "EvalRequest | Mapping", *,
             session: Session | None = None) -> EvalResult:
    """Answer one evaluation request (a fresh ephemeral session if none given)."""
    return _evaluate_one(session if session is not None else Session(),
                         EvalRequest.parse(request))


def validate_requests(requests: Sequence[EvalRequest]) -> None:
    """Fail fast on unresolvable requests, before any evaluation work.

    Checks every backend name, machine spec (preset, override fields, size
    strings) and workload name/flags against their registries, so a typo
    surfaces as one clear error instead of a traceback out of a worker
    process mid-batch.  A sweep repeats the same few names and machines
    thousands of times, so each distinct backend name, spec object and
    ``(workload, flags)`` pair is checked once; an error still names the
    first request that carries the bad value.  Machines resolve through
    the :meth:`~repro.api.spec.MachineSpec.resolve` memo, so the planner
    reuses every config resolved here.
    """
    from repro.runtime.session import COMPILER_FLAGS
    from repro.search.optimize import (
        OptimizeRequest,
        validate_optimize_request,
    )
    from repro.workloads.registry import WORKLOADS

    backends: set[str] = set()
    # Spec objects by identity (the batch keeps them alive): equal specs
    # whose override values differ in type (2, 2.0) may resolve
    # differently, so equality must not let one vouch for another.
    specs: set[int] = set()
    workloads: set[tuple[str, str]] = set()
    for index, request in enumerate(requests):
        if isinstance(request, OptimizeRequest):
            # Whole-search requests validate structurally (named-field
            # errors for infeasible constraints, zero-cardinality spaces,
            # bad budgets) instead of per-evaluation.
            errors = validate_optimize_request(request)
            if errors:
                message = "; ".join(errors)
                if len(requests) > 1:
                    message = f"request[{index}]: {message}"
                raise ValueError(message)
            continue
        try:
            if request.backend not in backends:
                get_backend(request.backend)
                backends.add(request.backend)
            if id(request.machine) not in specs:
                request.machine.resolve()
                specs.add(id(request.machine))
            workload = (request.workload.name, request.workload.flags)
            if workload not in workloads:
                if workload[0] not in WORKLOADS:
                    known = ", ".join(WORKLOADS.names())
                    raise ValueError(
                        f"unknown workload {workload[0]!r}; known: {known}")
                if workload[1] not in COMPILER_FLAGS:
                    known = ", ".join(COMPILER_FLAGS)
                    raise ValueError(
                        f"unknown compiler flags {workload[1]!r}; "
                        f"known: {known}"
                    )
                workloads.add(workload)
        except (ValueError, KeyError, TypeError) as exc:
            # Every message names the bad value AND lists the valid choices
            # (the registries do this for presets/backends); add which
            # request of the batch failed so a bad sweep is a one-read fix.
            message = str(exc)
            if len(requests) > 1:
                message = f"request[{index}]: {message}"
            raise type(exc)(message) from exc


def evaluate_many(requests: Iterable["EvalRequest | Mapping"], *,
                  session: Session | None = None, jobs: int | None = None,
                  cache_dir=None) -> list[EvalResult]:
    """Answer a batch of requests, optionally sharded across processes.

    The batch runs through the sweep planner (:mod:`repro.api.planner`):
    requests are grouped by workload and ordered by pass signature, so
    each profiling pass is computed exactly once per trace across the
    whole batch — also under sharding, where each group goes to one worker
    and traces the parent already holds ship to it as column bytes.
    Planning only changes *where* work happens: the results equal
    request-by-request :func:`evaluate`, byte for byte.

    With ``jobs > 1`` the groups the session cannot answer from its memos
    are distributed over a process pool whose workers share the session's
    artifact-cache directory (a run-scoped temporary directory when no
    ``cache_dir`` is given, so workers never redo each other's
    compilations); results keep request order, so
    parallel output is byte-identical to serial output.  Pass either an
    existing ``session`` or ``jobs``/``cache_dir`` to build one — not both.
    """
    from repro.runtime.session import pooled_session

    parsed = [EvalRequest.parse(request) for request in requests]
    validate_requests(parsed)
    if session is not None:
        if jobs is not None or cache_dir is not None:
            raise ValueError(
                "pass either an existing session or jobs/cache_dir, not both "
                "(the session already fixes its job count and cache directory)"
            )
        return _run_batch(session, parsed)
    with pooled_session(cache_dir, jobs if jobs is not None else 1) as pooled:
        return _run_batch(pooled, parsed)


def _run_batch(session: Session,
               parsed: list[EvalRequest]) -> list[EvalResult]:
    """Answer a validated batch.

    On a pooled session the pool builds and the parent answers: a group
    whose trace and every profile or simulation it reads are already in
    the parent session's memos runs here, in process; every other group
    is shipped to the worker pool, which sends back what it built so the
    next request for it is answered here too, and the work it counted
    (compilations, profiles, event sets), which is added to this
    session's counters.  A ``jobs=1`` session runs
    every group in process and never routes.
    """
    import time

    from repro.api.planner import (
        build_group,
        evaluate_group_timed,
        group_is_warm,
        plan_requests,
    )
    from repro.obs.tracing import emit_span, span
    from repro.resilience.containment import UnitFailure

    if len(parsed) <= 1:
        return session.map(_evaluate_one, parsed)
    with span("planner.plan", requests=len(parsed)) as plan_span:
        groups = plan_requests(parsed, jobs=session.jobs)
        plan_span.set(groups=len(groups))
    results: list[EvalResult | None] = [None] * len(parsed)

    def collect(group, answers, stages) -> None:
        session.stages.merge(stages)
        for index, answer in zip(group.indices, answers):
            results[index] = answer

    pooled = groups
    if session.jobs > 1:
        # A quarantined unit is never answered here: it goes to the
        # resilient map, which fails it without running it.
        pooled = []
        for group in groups:
            if (group.workload not in session.health.quarantined
                    and group_is_warm(session, group)):
                collect(group, *evaluate_group_timed(session, group))
            else:
                pooled.append(group)
        session.stats.groups_inline += len(groups) - len(pooled)
        session.stats.groups_pooled += len(pooled)
        # Ship traces the parent already holds as raw column bytes; cold
        # traces are built (or cache-loaded) by the worker that owns them.
        # With the circuit breaker open every group runs here, in the
        # session that holds the trace, so nothing ships.
        if pooled and not session.health.breaker_open:
            started = time.perf_counter()
            pooled = [
                group.with_payload(session.trace_payload(group.workload,
                                                         group.flags))
                for group in pooled
            ]
            elapsed = time.perf_counter() - started
            session.stages.add("ship", elapsed)
            emit_span("planner.ship", elapsed, groups=len(pooled))
    built = []
    if pooled:
        with span("planner.dispatch", groups=len(pooled), jobs=session.jobs):
            # Resilient dispatch: a group whose unit is quarantined (or
            # whose worker failed) comes back as a UnitFailure instead of
            # sinking the whole batch; its requests become per-item error
            # results.
            built = session.map_resilient(build_group, pooled)
    started = time.perf_counter()
    for group, outcome in zip(pooled, built):
        if isinstance(outcome, UnitFailure):
            for index in group.indices:
                results[index] = _failed_result(parsed[index], outcome.error)
            continue
        answers, stages, memos = outcome
        collect(group, answers, stages)
        if memos is not None:
            session.install_memos(group.workload, group.flags, memos)
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
