#!/usr/bin/env python3
"""Design-space exploration with the analytical model (the paper's use case).

Profiling is done once per workload; after that, evaluating a new processor
configuration costs microseconds, so sweeping the full 192-point design space
of Table 2 is interactive.  The script finds, per workload, the configuration
with the best performance and the one with the best energy-delay product.

Run with:  python examples/design_space_exploration.py [workload ...]
"""

import sys

from repro.api import evaluate_many
from repro.dse import default_design_space
from repro.workloads import get_workload

DEFAULT_WORKLOADS = ("sha", "dijkstra", "gsm_c")


def main(names: list[str]) -> None:
    space = default_design_space()
    print(f"Exploring {len(space)} design points analytically "
          f"(no detailed simulation involved)\n")

    for name in names:
        workload = get_workload(name)
        points = evaluate_many(space.to_sweep((name,), with_power=True).expand())

        fastest = min(points, key=lambda point: point.seconds)
        best_edp = min(points, key=lambda point: point.edp)

        print(f"=== {name} ({workload.dynamic_instruction_count:,} instructions) ===")
        print(f"  fastest configuration : {fastest.machine}")
        print(f"      CPI {fastest.cpi:.3f}, {fastest.seconds * 1e6:.1f} us")
        print(f"  best EDP configuration: {best_edp.machine}")
        print(f"      CPI {best_edp.cpi:.3f}, EDP {best_edp.edp:.3e} J*s")
        slowest = max(points, key=lambda point: point.seconds)
        print(f"  performance spread across the space: "
              f"{slowest.seconds / fastest.seconds:.2f}x")
        print()


if __name__ == "__main__":
    main(sys.argv[1:] or list(DEFAULT_WORKLOADS))
