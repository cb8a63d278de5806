#!/usr/bin/env python3
"""Surrogate-guided EDP optimization over the Table-2 design space.

Instead of enumerating all 192 configurations, the ``surrogate``
strategy fits a cheap k-NN model on the points evaluated so far and
spends a budget of one third of the space — then the script checks the
pick against the exhaustive optimum.  The same request, sent as JSON to
``POST /v1/optimize`` or ``repro optimize --format json``, answers the
same bytes.

Run with:  python examples/optimize_edp.py [workload ...]
"""

import sys

from repro.dse import default_design_space
from repro.runtime.session import Session
from repro.search import OptimizeRequest, optimize

DEFAULT_WORKLOADS = ("dijkstra", "sha", "qsort")


def main(names: list[str]) -> None:
    space = default_design_space()
    session = Session()  # one session: traces/profiles shared across searches
    print(f"Searching {space.cardinality()} design points "
          f"(budget {space.cardinality() // 3} per workload)\n")

    for name in names:
        surrogate = optimize(OptimizeRequest.from_dict({
            "space": space.to_dict(),
            "workload": name,
            "objectives": ["edp"],
            "constraints": ["area_proxy<=700"],
            "strategy": "surrogate",
            "budget": space.cardinality() // 3,
            "batch": 8,
            "seed": 2012,
        }), session=session)
        exhaustive = optimize(OptimizeRequest.from_dict({
            "space": space.to_dict(),
            "workload": name,
            "objectives": ["edp"],
            "constraints": ["area_proxy<=700"],
            "strategy": "exhaustive",
            "budget": space.cardinality(),
        }), session=session)

        matched = surrogate.best["machine"] == exhaustive.best["machine"]
        print(f"=== {name} ===")
        print(f"  surrogate pick : {surrogate.best['machine']}")
        print(f"      EDP {surrogate.best['objectives']['edp']:.3e} J*s, "
              f"found after {surrogate.best_found_at_evaluation} of "
              f"{surrogate.evaluations} evaluations "
              f"({surrogate.infeasible_skipped} pruned by the area constraint)")
        print(f"  exhaustive best: {exhaustive.best['machine']} "
              f"({exhaustive.evaluations} evaluations)")
        print(f"  match: {'yes' if matched else 'NO'}; "
              f"front size {len(surrogate.front)}\n")


if __name__ == "__main__":
    main(sys.argv[1:] or list(DEFAULT_WORKLOADS))
