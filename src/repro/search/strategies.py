"""Search strategies: exhaustive, seeded random, surrogate-guided.

A strategy decides *which* points of a :class:`~repro.search.space.SearchSpace`
to spend the evaluation budget on; the shared :class:`SearchDriver` owns
everything else — feasibility filtering against machine constraints,
batched evaluation through the geometry-grouped planner
(:func:`repro.api.evaluate_many`, so every batch shares profiling passes
and shards byte-identically across ``--jobs``), the running Pareto front,
and the convergence trajectory.

Strategies register by name in :data:`STRATEGIES` (the same
string-addressed registry pattern as backends and predictors):

* ``exhaustive`` — every feasible point, in index order.  The reference
  answer for small spaces; refuses spaces larger than the budget.
* ``random`` — a seeded uniform sample of the space.  The baseline any
  smarter strategy has to beat.
* ``surrogate`` — active learning: seed with a random batch, fit a
  k-nearest-neighbour surrogate over one-hot + log-scaled axis features
  on everything evaluated so far, score a seeded candidate pool by
  expected improvement over the current front plus an exploration bonus,
  evaluate the top batch, repeat until the budget is spent.  Pure stdlib
  float arithmetic end to end, so the whole trajectory is deterministic
  given (seed, backend) — and byte-identical across accel backends and
  job counts, like every other subsystem here.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.api.batch import evaluate_many
from repro.api.spec import EvalRequest, EvalResult, WorkloadSpec
from repro.registry import Registry
from repro.search.objectives import (
    Constraint,
    Objective,
    objective_vector,
    pareto_indices,
    split_constraints,
)
from repro.search.space import SearchSpace

#: Registry of strategy callables: ``fn(driver, seed, batch)``.
STRATEGIES = Registry("search strategy")


def register_strategy(name: str, *, aliases: tuple[str, ...] = (),
                      description: str = ""):
    """Decorator registering a search strategy under ``name``."""
    return STRATEGIES.register(name, aliases=aliases, description=description)


def strategy_names() -> list[str]:
    return STRATEGIES.names()


class SearchDriver:
    """Budgeted evaluation state shared by every strategy."""

    def __init__(self, space: SearchSpace, workload: WorkloadSpec,
                 objectives: Sequence[Objective],
                 constraints: Sequence[Constraint] = (), *,
                 budget: int, backend: str = "analytical",
                 with_power: bool = False, mlp_window: int = 64,
                 session=None):
        if budget < 1:
            raise ValueError("budget must be at least 1")
        self.space = space
        self.workload = workload
        self.objectives = list(objectives)
        self.machine_constraints, self.metric_constraints = (
            split_constraints(constraints))
        self.budget = budget
        self.backend = backend
        self.with_power = with_power
        self.mlp_window = mlp_window
        self.session = session
        self.cardinality = space.cardinality()
        #: point index -> EvalResult, in evaluation order.
        self.evaluated: dict[int, EvalResult] = {}
        #: point indices in the order they were evaluated.
        self.order: list[int] = []
        #: indices found infeasible (machine constraints), never evaluated.
        self.infeasible: set[int] = set()
        self.trajectory: list[dict] = []
        self._rounds = 0

    # ------------------------------------------------------------------
    @property
    def budget_left(self) -> int:
        return self.budget - len(self.evaluated)

    def feasible(self, index: int) -> bool:
        """Machine-constraint check; infeasible indices are remembered so
        samplers can exclude them without re-resolving configs."""
        if index in self.infeasible:
            return False
        if index in self.evaluated:
            return True
        if not self.machine_constraints:
            return True
        machine = self.space.spec(index).resolve()
        if all(con.admits_machine(machine)
               for con in self.machine_constraints):
            return True
        self.infeasible.add(index)
        return False

    def evaluate(self, indices: Sequence[int]) -> list[EvalResult]:
        """Evaluate new feasible indices (budget-truncated) in one batch.

        One :func:`~repro.api.evaluate_many` call per batch keeps the
        planner's pass sharing and the byte-identical-under-sharding
        guarantee; results land in :attr:`evaluated` in request order.
        """
        fresh: list[int] = []
        for index in indices:
            if index in self.evaluated or not self.feasible(index):
                continue
            if len(fresh) >= self.budget_left:
                break
            fresh.append(index)
        if not fresh:
            return []
        requests = [
            EvalRequest(workload=self.workload, machine=self.space.spec(index),
                        backend=self.backend, with_power=self.with_power,
                        mlp_window=self.mlp_window)
            for index in fresh
        ]
        results = evaluate_many(requests, session=self.session)
        for index, result in zip(fresh, results):
            self.evaluated[index] = result
            self.order.append(index)
        return results

    # ------------------------------------------------------------------
    def admitted(self) -> list[int]:
        """Evaluated indices that also satisfy the metric constraints."""
        return [
            index for index in sorted(self.evaluated)
            if all(con.admits_result(self.evaluated[index])
                   for con in self.metric_constraints)
        ]

    def front(self) -> list[int]:
        """Current Pareto front, as ascending point indices."""
        admitted = self.admitted()
        if not admitted:
            return []
        vectors = [objective_vector(self.evaluated[index], self.objectives)
                   for index in admitted]
        return [admitted[i] for i in pareto_indices(vectors)]

    def best(self) -> int | None:
        """The front point minimising the objective vector lexicographically
        (ties to the lowest point index) — the single-config answer."""
        front = self.front()
        if not front:
            return None
        return min(front, key=lambda index: (
            objective_vector(self.evaluated[index], self.objectives), index))

    def record_round(self) -> None:
        """Append one trajectory entry (call after each strategy round)."""
        self._rounds += 1
        best = self.best()
        entry: dict = {
            "round": self._rounds,
            "evaluations": len(self.evaluated),
            "front_size": len(self.front()),
        }
        if best is not None:
            result = self.evaluated[best]
            entry["best"] = {str(objective): objective.value(result)
                             for objective in self.objectives}
            entry["best_machine"] = result.machine
        self.trajectory.append(entry)


# ----------------------------------------------------------------------
# Strategies.
# ----------------------------------------------------------------------
@register_strategy(
    "exhaustive",
    description="every feasible point in index order (small spaces)",
)
def exhaustive_strategy(driver: SearchDriver, seed: int, batch: int) -> None:
    """Evaluate the whole space (the budget must cover it; validated
    upfront by :func:`repro.search.optimize.validate_optimize_request`)."""
    del seed, batch  # deterministic by construction
    feasible = [index for index in range(driver.cardinality)
                if driver.feasible(index)]
    driver.evaluate(feasible)
    driver.record_round()


#: Most sampling rounds the ``random`` strategy draws.
_RANDOM_ROUNDS = 64


def _round_seed(seed: int, attempt: int) -> int:
    """The sample seed of round ``attempt`` (``0 <= attempt < 64``).

    Injective in ``(seed, attempt)``, so no round of one seed redraws a
    round of another seed.
    """
    return seed * _RANDOM_ROUNDS + attempt


@register_strategy(
    "random",
    description="seeded uniform sample of the space (the baseline)",
)
def random_strategy(driver: SearchDriver, seed: int, batch: int) -> None:
    """Spend the budget on a seeded uniform sample, in ``batch``-sized
    rounds so the trajectory shows convergence like the surrogate's."""
    attempts = 0
    while driver.budget_left > 0 and attempts < _RANDOM_ROUNDS:
        exclude = set(driver.evaluated) | driver.infeasible
        want = min(batch, driver.budget_left)
        candidates = driver.space.sample(want, _round_seed(seed, attempts),
                                         exclude=exclude)
        if not candidates:
            break
        before = len(driver.evaluated)
        driver.evaluate(candidates)
        if len(driver.evaluated) > before:
            driver.record_round()
        attempts += 1


# ----------------------------------------------------------------------
# Surrogate machinery (pure stdlib, deterministic).
# ----------------------------------------------------------------------
class _FeatureMap:
    """Axis values -> a fixed-width numeric feature vector.

    Numeric axis values are log2-scaled then min-max normalised over the
    axis's own value range; string values are one-hot encoded.  Coupled
    axes contribute one feature (block) per coupled field.  Fields the
    axes never touch are constant across the space and carry no signal,
    so they are skipped.
    """

    def __init__(self, space: SearchSpace):
        self._encoders: list[tuple[str, Callable[[object], list[float]]]] = []
        base = space.base.resolve()
        for axis in space.axes:
            for position, field_name in enumerate(axis.fields):
                observed = sorted(
                    {value[position] if len(axis.fields) > 1 else value
                     for value in axis.values},
                    key=lambda v: (str(type(v)), v),
                )
                base_value = getattr(base, field_name, None)
                if base_value is not None and base_value not in observed:
                    observed.append(base_value)  # inactive-conditional fallback
                if all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in observed):
                    self._encoders.append(
                        (field_name, self._numeric_encoder(observed)))
                else:
                    self._encoders.append(
                        (field_name, self._onehot_encoder(observed)))

    @staticmethod
    def _numeric_encoder(observed: list) -> Callable[[object], list[float]]:
        scaled = {value: math.log2(float(value)) if value > 0 else 0.0
                  for value in observed}
        low, high = min(scaled.values()), max(scaled.values())
        span = (high - low) or 1.0

        def encode(value) -> list[float]:
            return [(scaled.get(value,
                                math.log2(float(value)) if value else 0.0)
                     - low) / span]
        return encode

    @staticmethod
    def _onehot_encoder(observed: list) -> Callable[[object], list[float]]:
        slots = {value: position for position, value in
                 enumerate(sorted(observed, key=str))}

        def encode(value) -> list[float]:
            vector = [0.0] * len(slots)
            slot = slots.get(value)
            if slot is not None:
                vector[slot] = 1.0
            return vector
        return encode

    def encode(self, space: SearchSpace, index: int) -> tuple[float, ...]:
        overrides = space.overrides(index)
        base = space.base.resolve()
        features: list[float] = []
        for field_name, encoder in self._encoders:
            value = overrides.get(field_name, getattr(base, field_name, None))
            features.extend(encoder(value))
        return tuple(features)


def _knn_predict(features: tuple[float, ...],
                 points: list[tuple[tuple[float, ...], tuple[float, ...]]],
                 k: int) -> tuple[tuple[float, ...], float]:
    """Distance-weighted k-NN prediction plus a novelty estimate.

    Returns ``(predicted objective vector, mean neighbour distance)`` —
    the latter is the exploration signal: far from everything evaluated
    means the prediction is a guess worth testing.
    """
    scored = sorted(
        (math.dist(features, other), vector)
        for other, vector in points
    )[:k]
    total_weight = 0.0
    width = len(scored[0][1])
    accumulated = [0.0] * width
    for distance, vector in scored:
        weight = 1.0 / (distance + 1e-9)
        total_weight += weight
        for j in range(width):
            accumulated[j] += weight * vector[j]
    predicted = tuple(value / total_weight for value in accumulated)
    novelty = sum(distance for distance, _ in scored) / len(scored)
    return predicted, novelty


def _neighbor_indices(space: SearchSpace, index: int) -> list[int]:
    """Indices differing from ``index`` along exactly one axis.

    The incumbent's one-axis neighbourhood — the exploitation moves a
    local search would try.  Neighbour assignments that name no valid
    point (a conditional axis opening or closing under the change) are
    skipped.
    """
    overrides = space.overrides(index)
    neighbors: list[int] = []
    for axis in space.axes:
        if not all(field_name in overrides for field_name in axis.fields):
            continue  # axis inactive at this point
        current = (overrides[axis.fields[0]] if len(axis.fields) == 1
                   else tuple(overrides[field_name]
                              for field_name in axis.fields))
        for value in axis.values:
            if value == current:
                continue
            candidate = dict(overrides)
            candidate.update(axis.overrides_for(value))
            try:
                neighbors.append(space.index_of(candidate))
            except KeyError:
                continue
    return neighbors


@register_strategy(
    "surrogate",
    description="k-NN active learning: propose by expected improvement "
                "over the current front",
)
def surrogate_strategy(driver: SearchDriver, seed: int, batch: int) -> None:
    """Active-learning search under the evaluation budget.

    Round 0 seeds the surrogate with a random batch; each later round
    fits k-NN on everything evaluated, scores a seeded candidate pool by
    the additive-epsilon improvement its *predicted* objective vector
    achieves over the current front (plus a novelty bonus), and spends
    one batch on the top scorers.  Scores are scale-normalised per
    objective so CPI and EDP mix without dwarfing each other.
    """
    space = driver.space
    feature_map = _FeatureMap(space)
    knn_k = 5
    explore_weight = 0.35
    pool_size = min(max(64 * batch, 512), 4096)

    initial = min(driver.budget_left, max(2 * batch, 8))
    driver.evaluate(space.sample(initial, seed,
                                 exclude=driver.infeasible))
    driver.record_round()

    round_number = 0
    stalls = 0
    while driver.budget_left > 0 and stalls < 8:
        round_number += 1
        admitted = driver.admitted() or sorted(driver.evaluated)
        if not admitted:
            break
        training = [
            (feature_map.encode(space, index),
             objective_vector(driver.evaluated[index], driver.objectives))
            for index in admitted
        ]
        # Per-objective scale: interquartile-ish spread over the training
        # values, so the epsilon indicator is unit-free.
        width = len(driver.objectives)
        scales = []
        for j in range(width):
            values = sorted(vector[j] for _, vector in training)
            spread = values[-1] - values[0]
            scales.append(spread if spread > 0 else 1.0)
        front_vectors = [
            tuple(objective_vector(driver.evaluated[index],
                                   driver.objectives)[j] / scales[j]
                  for j in range(width))
            for index in driver.front()
        ] or [tuple(min(vector[j] for _, vector in training) / scales[j]
                    for j in range(width))]

        exclude = set(driver.evaluated) | driver.infeasible
        pool = space.sample(pool_size, seed + 7919 * round_number,
                            exclude=exclude)
        if not pool:
            break
        scored: list[tuple[float, int]] = []
        for index in pool:
            features = feature_map.encode(space, index)
            predicted, novelty = _knn_predict(features, training, knn_k)
            normalised = tuple(predicted[j] / scales[j] for j in range(width))
            # Additive-epsilon indicator to the front: how far the
            # prediction pushes past (negative: falls short of) the
            # closest front point, uniformly over objectives.
            epsilon = min(
                max(normalised[j] - front[j] for j in range(width))
                for front in front_vectors
            )
            scored.append((-epsilon + explore_weight * novelty, index))
        scored.sort(key=lambda item: (-item[0], item[1]))
        # Exploit around the incumbent: its unevaluated one-axis
        # neighbours lead the proposal (local search polishing the last
        # axis or two the global surrogate gets wrong), the top pool
        # scorers fill the rest of the batch (global exploration).
        want = min(batch, driver.budget_left)
        proposal: list[int] = []
        incumbent = driver.best()
        if incumbent is not None:
            fresh_neighbors = [
                index for index in _neighbor_indices(space, incumbent)
                if index not in exclude and driver.feasible(index)
            ]
            proposal = fresh_neighbors[:max(1, want // 2)]
        for _, index in scored:
            if len(proposal) >= want:
                break
            if index not in proposal:
                proposal.append(index)
        before = len(driver.evaluated)
        driver.evaluate(proposal)
        if len(driver.evaluated) == before:
            stalls += 1
            continue
        stalls = 0
        driver.record_round()
