"""The paper's architecture design space (Table 2) as data.

The full space crosses

* pipeline depth / frequency: (5 stages, 600 MHz), (7, 800 MHz), (9, 1 GHz),
* processor width: 1, 2, 3, 4,
* L2 size: 128 KB, 256 KB, 512 KB, 1 MB, with 8- or 16-way associativity,
* branch predictor: 1 KB global history or 3.5 KB hybrid,

for 3 x 4 x 8 x 2 = 192 design points, all sharing 32 KB 4-way L1 caches.
Both spaces below are :class:`~repro.search.space.SearchSpace` literals:
depth/frequency is the most significant axis and the predictor the least,
and every point is named like ``w1_d5_f600_l2-128k-8w_global_1kb``.
``space.to_sweep(workloads)`` turns a space into the :mod:`repro.api`
batch that Figures 5 and 9 run.
"""

from __future__ import annotations

from repro.search.space import SearchSpace


def _table2_space(depth_frequency, widths, l2_sizes, l2_associativities,
                  branch_predictors) -> SearchSpace:
    return SearchSpace.make(
        {
            "pipeline_stages,frequency_mhz": depth_frequency,
            "width": widths,
            "l2_size": l2_sizes,
            "l2_associativity": l2_associativities,
            "branch_predictor": branch_predictors,
        },
        name_template=("w{width}_d{pipeline_stages}_f{frequency_mhz}"
                       "_l2-{l2_size_kb}k-{l2_associativity}w"
                       "_{branch_predictor}"),
    )


def default_design_space() -> SearchSpace:
    """The paper's full 192-point design space."""
    return _table2_space(((5, 600), (7, 800), (9, 1000)), (1, 2, 3, 4),
                         (128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024),
                         (8, 16), ("global_1kb", "hybrid_3.5kb"))


def reduced_design_space() -> SearchSpace:
    """A 24-point subsample: the default for the simulator experiments.

    Detailed simulation of all 192 points is affordable but not free.
    Measured on a 2-CPU host with the NumPy kernels: ``simulate_many``
    answers the full space on sha and qsort in about 0.46 s (48 event sets
    per trace; the ``simulate_table2_space`` bench), less than these 24
    points cost simulated one at a time (about 0.71 s,
    ``simulate_table2``), and ``run figure5 --full --jobs 2`` (192 points
    x 19 workloads) takes 2.5-2.7 s.  The subsample keeps the extremes
    and the default of every dimension, so error statistics computed on
    it are representative of the full space.
    """
    return _table2_space(((5, 600), (9, 1000)), (1, 2, 4),
                         (128 * 1024, 512 * 1024), (8,),
                         ("global_1kb", "hybrid_3.5kb"))
