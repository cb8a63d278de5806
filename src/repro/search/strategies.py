"""The two search policies: exhaustive and seeded random.

A policy decides *which* points of a :class:`~repro.search.space.SearchSpace`
to spend the evaluation budget on; the shared :class:`SearchDriver` owns
everything else — feasibility filtering against machine constraints,
batched evaluation through the geometry-grouped planner
(:func:`repro.api.evaluate_many`, so every batch shares profiling passes
and shards byte-identically across ``--jobs``), the running Pareto front,
and the convergence trajectory.

Which policy runs is decided in one place,
:attr:`repro.search.optimize.OptimizeRequest.strategy`:

* ``exhaustive`` — every feasible point, in index order, when the budget
  covers the space.  A warm point costs microseconds of model
  evaluation, so this is the answer for any space the budget can hold.
* ``random`` — a seeded uniform sample otherwise, drawn in
  ``batch``-sized rounds until the budget is spent or the space runs
  out.  Deterministic given the seed, and byte-identical across accel
  backends and job counts, like every other subsystem here.
"""

from __future__ import annotations

from typing import Sequence

from repro.api.batch import evaluate_many
from repro.api.spec import EvalRequest, EvalResult, WorkloadSpec
from repro.search.objectives import (
    Constraint,
    Objective,
    objective_vector,
    pareto_indices,
    split_constraints,
)
from repro.search.space import SearchSpace


class SearchDriver:
    """Budgeted evaluation state shared by both policies."""

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
        """Append one trajectory entry (call after each search round)."""
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
# Policies.
# ----------------------------------------------------------------------
def exhaustive_strategy(driver: SearchDriver, seed: int, batch: int) -> None:
    """Evaluate every feasible point, in index order, in one batch (the
    budget covers the space: see ``OptimizeRequest.strategy``)."""
    del seed, batch  # deterministic by construction
    feasible = [index for index in range(driver.cardinality)
                if driver.feasible(index)]
    driver.evaluate(feasible)
    driver.record_round()


#: Rounds whose sample seed is the integer ``seed * 64 + round``; later
#: rounds take string seeds (see :func:`_round_seed`).
_INT_SEED_ROUNDS = 64

#: Consecutive rounds that evaluate nothing (every drawn point failed a
#: machine constraint) before ``random`` search gives up on the budget.
_IDLE_ROUNDS = 64


def _round_seed(seed: int, attempt: int) -> int | str:
    """The sample seed of round ``attempt`` (``attempt >= 0``).

    Injective in ``(seed, attempt)``, so no round of one seed redraws a
    round of another seed.  The integers ``seed * 64 + attempt`` of the
    first 64 rounds already cover every integer, so later rounds take
    the string ``"seed:attempt"``, which :class:`random.Random` hashes
    into a stream of its own.
    """
    if attempt < _INT_SEED_ROUNDS:
        return seed * _INT_SEED_ROUNDS + attempt
    return f"{seed}:{attempt}"


def random_strategy(driver: SearchDriver, seed: int, batch: int) -> None:
    """Spend the budget on a seeded uniform sample, in ``batch``-sized
    rounds so the trajectory shows convergence.

    Stops when the budget is spent, when the space has no unseen point
    left, or after :data:`_IDLE_ROUNDS` rounds in a row that evaluated
    nothing.  Every round marks the points it drew as evaluated or
    infeasible, so the pool shrinks and the loop ends.
    """
    attempt = 0
    idle = 0
    while driver.budget_left > 0 and idle < _IDLE_ROUNDS:
        exclude = set(driver.evaluated) | driver.infeasible
        want = min(batch, driver.budget_left)
        candidates = driver.space.sample(want, _round_seed(seed, attempt),
                                         exclude=exclude)
        if not candidates:
            break
        before = len(driver.evaluated)
        driver.evaluate(candidates)
        if len(driver.evaluated) > before:
            driver.record_round()
            idle = 0
        else:
            idle += 1
        attempt += 1
