"""Design-space search: objectives, spaces, policies, serving.

The four layers stack bottom-up:

* :mod:`repro.search.objectives` — :class:`Objective` (any
  :meth:`~repro.api.spec.EvalResult.metric` path, min or max),
  :class:`Constraint` (the ``"l2_size<=1MB"`` / ``"cpi<1.8"`` grammar)
  and exact :func:`pareto_front` extraction;
* :mod:`repro.search.space` — :class:`SearchSpace`, an indexable,
  never-materialised cross product of plain / coupled / conditional
  axes over a base machine spec;
* :mod:`repro.search.strategies` — the two search policies over a shared
  budgeted :class:`SearchDriver`: ``exhaustive`` when the budget covers
  the space, seeded ``random`` otherwise;
* :mod:`repro.search.optimize` — the :class:`OptimizeRequest` /
  :class:`OptimizeResult` envelopes behind ``repro optimize`` and
  ``POST /v1/optimize``, plus :func:`optimize` itself.

Every layer is pure stdlib arithmetic, so a whole search trajectory is
byte-identical for a given seed across accel backends and job counts.
"""

from repro.search.objectives import (
    Constraint,
    Objective,
    dominates,
    needs_power,
    objective_vector,
    pareto_front,
    pareto_indices,
    split_constraints,
)
from repro.search.optimize import (
    SEARCH_SCHEMA_VERSION,
    OptimizeRequest,
    OptimizeResult,
    optimize,
    validate_optimize_request,
)
from repro.search.space import SPACE_SCHEMA_VERSION, SearchSpace, SpaceAxis
from repro.search.strategies import SearchDriver

__all__ = [
    "Constraint",
    "Objective",
    "OptimizeRequest",
    "OptimizeResult",
    "SEARCH_SCHEMA_VERSION",
    "SPACE_SCHEMA_VERSION",
    "SearchDriver",
    "SearchSpace",
    "SpaceAxis",
    "dominates",
    "needs_power",
    "objective_vector",
    "optimize",
    "pareto_front",
    "pareto_indices",
    "split_constraints",
    "validate_optimize_request",
]
