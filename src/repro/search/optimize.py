"""The serving layer of :mod:`repro.search`: request/result envelopes.

An :class:`OptimizeRequest` bundles everything one design-space search
needs — the space, the workload, objectives, constraints and an
evaluation budget — into one JSON-round-trippable object, so
the same search is addressable from Python, the ``repro optimize`` CLI
subcommand and ``POST /v1/optimize`` (and cacheable under one canonical
key).  :func:`optimize` answers it with an :class:`OptimizeResult`:
the Pareto front, the single best configuration, and the convergence
trajectory, all as plain JSON-stable structures so the CLI and the
service emit byte-identical payloads for the same request and seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Mapping, Sequence

from repro.api.spec import WorkloadSpec, power_and_window
from repro.machine import MachineConfig
from repro.search.objectives import (
    Constraint,
    Objective,
    needs_power,
    split_constraints,
)
from repro.search.space import SearchSpace
from repro.search.strategies import (
    SearchDriver,
    exhaustive_strategy,
    random_strategy,
)

#: Version stamped into serialized optimize requests/results.
SEARCH_SCHEMA_VERSION = 1

#: MachineConfig fields an axis may sweep (everything but the label).
_AXIS_FIELDS = frozenset(
    f.name for f in dataclass_fields(MachineConfig) if f.name != "name"
)


@dataclass(frozen=True)
class OptimizeRequest:
    """One design-space search: optimise objectives over a space."""

    space: SearchSpace
    workload: WorkloadSpec
    objectives: tuple[Objective, ...]
    constraints: tuple[Constraint, ...] = ()
    budget: int = 64
    batch: int = 8
    seed: int = 0
    backend: str = "analytical"
    #: ``None`` means "whatever the objectives/constraints need".
    with_power: bool | None = None
    mlp_window: int = 64
    #: Opaque caller correlation tag, carried through to the result.
    tag: str = ""

    @property
    def strategy(self) -> str:
        """The search policy, decided by size alone: ``"exhaustive"``
        when the budget covers the space, else ``"random"``."""
        if self.budget >= self.space.cardinality():
            return "exhaustive"
        return "random"

    @property
    def effective_with_power(self) -> bool:
        """Power is evaluated when asked for or when any objective or
        constraint touches energy/EDP."""
        if self.with_power is not None:
            return self.with_power
        return needs_power(self.objectives, self.constraints)

    @classmethod
    def parse(cls, value: "OptimizeRequest | Mapping") -> "OptimizeRequest":
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise TypeError(f"cannot parse optimize request from {value!r}")

    def to_dict(self) -> dict:
        return {
            "schema_version": SEARCH_SCHEMA_VERSION,
            "space": self.space.to_dict(),
            "workload": self.workload.to_dict(),
            "objectives": [objective.to_dict()
                           for objective in self.objectives],
            "constraints": [constraint.to_dict()
                            for constraint in self.constraints],
            "budget": self.budget,
            "batch": self.batch,
            "seed": self.seed,
            "backend": self.backend,
            "with_power": self.effective_with_power,
            "mlp_window": self.mlp_window,
            "tag": self.tag,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "OptimizeRequest":
        allowed = {"schema_version", "space", "workload", "objectives",
                   "constraints", "budget", "batch", "seed",
                   "backend", "with_power", "mlp_window", "tag"}
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise ValueError(
                f"unknown optimize-request keys {unknown}; allowed: "
                f"{sorted(allowed)}"
            )
        for required in ("space", "workload", "objectives"):
            if required not in payload:
                raise ValueError(
                    f"optimize request needs a {required!r} entry"
                )
        space = payload["space"]
        if not isinstance(space, SearchSpace):
            space = SearchSpace.from_dict(space)
        objectives = payload["objectives"]
        if isinstance(objectives, (str, Mapping)):
            objectives = [objectives]
        with_power, mlp_window = power_and_window(payload, power_default=None)
        return cls(
            space=space,
            workload=WorkloadSpec.parse(payload["workload"]),
            objectives=tuple(Objective.parse(objective)
                             for objective in objectives),
            constraints=tuple(Constraint.parse(constraint)
                              for constraint in payload.get("constraints", ())),
            budget=int(payload.get("budget", 64)),
            batch=int(payload.get("batch", 8)),
            seed=int(payload.get("seed", 0)),
            backend=payload.get("backend", "analytical"),
            with_power=with_power,
            mlp_window=mlp_window,
            tag=payload.get("tag", ""),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "OptimizeRequest":
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Upfront validation (named-field errors, no evaluation spent).
# ----------------------------------------------------------------------
def _axis_candidate_values(request: OptimizeRequest,
                           field_name: str) -> list:
    """Every value ``field_name`` can take anywhere in the space.

    Axis values, plus the base machine's value when the field sits on a
    conditional axis (inactive means "keep the base") or on no axis.
    """
    base = request.space.base.resolve()
    for axis in request.space.axes:
        if field_name in axis.fields:
            position = axis.fields.index(field_name)
            values = [value[position] if len(axis.fields) > 1 else value
                      for value in axis.values]
            if axis.when is not None:
                values.append(getattr(base, field_name))
            return values
    return [getattr(base, field_name)]


def validate_optimize_request(request: OptimizeRequest) -> list[str]:
    """Every problem with the request, each error naming its field.

    Returns an empty list for a well-formed request.  Checks are purely
    structural — nothing is evaluated — and include the two classes of
    request that *would* burn budget before failing: zero-cardinality
    spaces and machine constraints no candidate value can satisfy.
    """
    errors: list[str] = []
    for axis in request.space.axes:
        for field_name in axis.fields:
            if field_name not in _AXIS_FIELDS:
                errors.append(
                    f"space: axis field {field_name!r} is not a machine "
                    f"parameter; valid fields: {sorted(_AXIS_FIELDS)}"
                )
    try:
        cardinality = request.space.cardinality()
    except ValueError as exc:
        errors.append(f"space: {exc}")
        cardinality = None
    if cardinality == 0:
        errors.append("space: has zero points (nothing to search)")
    if not request.objectives:
        errors.append("objectives: need at least one objective")
    if request.with_power is False and needs_power(request.objectives,
                                                   request.constraints):
        errors.append(
            "objectives: energy/EDP metrics need power data, but the "
            "request pins with_power to false"
        )
    if request.budget < 1:
        errors.append(f"budget: must be at least 1, got {request.budget}")
    if request.batch < 1:
        errors.append(f"batch: must be at least 1, got {request.batch}")
    machine_constraints, _ = split_constraints(request.constraints)
    for index, constraint in enumerate(request.constraints):
        if constraint not in machine_constraints:
            continue
        if constraint.path == "area_proxy":
            continue  # derived from several axes; checked per point
        candidates = _axis_candidate_values(request, constraint.path)
        if not any(constraint.admits_value(value) for value in candidates):
            errors.append(
                f"constraints[{index}]: {constraint.source!r} is infeasible "
                f"— no candidate value of {constraint.path!r} "
                f"({sorted(set(candidates), key=str)}) satisfies it"
            )
    if cardinality:
        # Borrow the batch validator for backend/workload/machine names so
        # a typo'd preset or workload fails here, not mid-search.
        from repro.api.batch import validate_requests
        from repro.api.spec import EvalRequest

        try:
            validate_requests([EvalRequest(
                workload=request.workload, machine=request.space.spec(0),
                backend=request.backend,
            )])
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(f"request: {exc}")
    return errors


# ----------------------------------------------------------------------
# Result envelope.
# ----------------------------------------------------------------------
@dataclass
class OptimizeResult:
    """The answer to one :class:`OptimizeRequest`.

    ``front``/``best``/``trajectory`` are plain JSON-stable structures
    (each front entry carries the point's space index, display label,
    machine spec, objective values and the full evaluation payload), so
    serializing a result is a pure dump — the CLI and the service emit
    the same bytes for the same request.
    """

    request: OptimizeRequest
    cardinality: int
    evaluations: int
    infeasible_skipped: int
    front: list[dict]
    best: dict | None
    #: How many evaluations had been spent when the returned best point
    #: was evaluated — the "evals to front" convergence figure.
    best_found_at_evaluation: int | None
    trajectory: list[dict] = field(default_factory=list)
    schema_version: int = SEARCH_SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "request": self.request.to_dict(),
            "cardinality": self.cardinality,
            "evaluations": self.evaluations,
            "infeasible_skipped": self.infeasible_skipped,
            "front": self.front,
            "best": self.best,
            "best_found_at_evaluation": self.best_found_at_evaluation,
            "trajectory": self.trajectory,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "OptimizeResult":
        return cls(
            request=OptimizeRequest.from_dict(payload["request"]),
            cardinality=payload["cardinality"],
            evaluations=payload["evaluations"],
            infeasible_skipped=payload.get("infeasible_skipped", 0),
            front=list(payload.get("front", ())),
            best=payload.get("best"),
            best_found_at_evaluation=payload.get("best_found_at_evaluation"),
            trajectory=list(payload.get("trajectory", ())),
            schema_version=payload.get("schema_version",
                                       SEARCH_SCHEMA_VERSION),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "OptimizeResult":
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# The entry point.
# ----------------------------------------------------------------------
def _point_entry(driver: SearchDriver, index: int) -> dict:
    result = driver.evaluated[index]
    return {
        "index": index,
        "machine": result.machine,
        "config": result.request.machine.to_dict(),
        "objectives": {str(objective): objective.value(result)
                       for objective in driver.objectives},
        "result": result.to_dict(),
    }


def optimize(request: "OptimizeRequest | Mapping", *, session=None,
             jobs: int | None = None, cache_dir=None) -> OptimizeResult:
    """Run one design-space search and return its result envelope.

    Validates upfront (:func:`validate_optimize_request`; any problem
    raises one ``ValueError`` listing every named-field error), then
    hands a :class:`~repro.search.strategies.SearchDriver` to the policy
    :attr:`OptimizeRequest.strategy` picks.  Evaluation runs through
    :func:`repro.api.evaluate_many` on the given session (or a fresh
    pooled one built from ``jobs``/``cache_dir``), so batches share
    profiling passes and the result is byte-identical across job counts
    and accel backends.
    """
    parsed = OptimizeRequest.parse(request)
    errors = validate_optimize_request(parsed)
    if errors:
        raise ValueError("invalid optimize request: " + "; ".join(errors))
    if session is None:
        from repro.runtime.session import pooled_session

        with pooled_session(cache_dir, jobs if jobs is not None else 1) as owned:
            return _optimize_on(parsed, owned)
    if jobs is not None or cache_dir is not None:
        raise ValueError(
            "pass either an existing session or jobs/cache_dir, not both "
            "(the session already fixes its job count and cache directory)"
        )
    return _optimize_on(parsed, session)


def _optimize_on(request: OptimizeRequest, session) -> OptimizeResult:
    driver = SearchDriver(
        request.space, request.workload, request.objectives,
        request.constraints, budget=request.budget, backend=request.backend,
        with_power=request.effective_with_power,
        mlp_window=request.mlp_window, session=session,
    )
    search = (exhaustive_strategy if request.strategy == "exhaustive"
              else random_strategy)
    search(driver, request.seed, request.batch)
    best_index = driver.best()
    return OptimizeResult(
        request=request,
        cardinality=driver.cardinality,
        evaluations=len(driver.evaluated),
        infeasible_skipped=len(driver.infeasible),
        front=[_point_entry(driver, index) for index in driver.front()],
        best=None if best_index is None else _point_entry(driver, best_index),
        best_found_at_evaluation=(
            None if best_index is None
            else driver.order.index(best_index) + 1),
        trajectory=driver.trajectory,
    )
