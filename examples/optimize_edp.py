#!/usr/bin/env python3
"""EDP optimization over the Table-2 design space.

A warm design point costs microseconds of model evaluation, so a budget
that covers the 192 configurations makes the search exhaustive: the
answer is the true minimum-EDP point.  The script checks it against a
seeded random search at a third of that budget, the policy a space too
large for its budget gets.  The same request, sent as JSON to
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
    points = space.cardinality()
    print(f"Searching {points} design points (exhaustive, then random "
          f"with budget {points // 3} per workload)\n")

    for name in names:
        request = {
            "space": space.to_dict(),
            "workload": name,
            "objectives": ["edp"],
            "constraints": ["area_proxy<=700"],
            "batch": 8,
            "seed": 2012,
        }
        exhaustive = optimize(OptimizeRequest.from_dict(
            {**request, "budget": points}), session=session)
        sampled = optimize(OptimizeRequest.from_dict(
            {**request, "budget": points // 3}), session=session)

        best = exhaustive.best["objectives"]["edp"]
        found = sampled.best["objectives"]["edp"]
        print(f"=== {name} ===")
        print(f"  {exhaustive.request.strategy:<10} best: "
              f"{exhaustive.best['machine']}")
        print(f"      EDP {best:.3e} J*s over {exhaustive.evaluations} "
              f"evaluations ({exhaustive.infeasible_skipped} pruned by the "
              f"area constraint); front size {len(exhaustive.front)}")
        print(f"  {sampled.request.strategy:<10} best: "
              f"{sampled.best['machine']}")
        print(f"      EDP {found:.3e} J*s (+{(found / best - 1) * 100:.1f}%), "
              f"found after {sampled.best_found_at_evaluation} of "
              f"{sampled.evaluations} evaluations\n")
        if found < best:
            raise SystemExit(f"{name}: random search beat the exhaustive "
                             "optimum, which cannot happen")


if __name__ == "__main__":
    main(sys.argv[1:] or list(DEFAULT_WORKLOADS))
