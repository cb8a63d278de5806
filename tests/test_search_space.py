"""SearchSpace: exact counting, integer indexing, sampling, adapters.

The load-bearing invariant is the indexing — ``overrides(i)`` decodes
every index of the space to a distinct point, including coupled and
conditional axes — because searches address points by index alone
(exhaustive search walks them in order, random search samples them).
The Table-2 golden pins the sweep the
:mod:`repro.dse.space` literals emit to the legacy enumeration
byte-for-byte, names included.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.dse.space import default_design_space, reduced_design_space
from repro.machine import MachineConfig
from repro.search import SearchSpace, SpaceAxis


def _conditional_space() -> SearchSpace:
    """L2 associativity only opens up for the larger L2 sizes."""
    return SearchSpace.make([
        {"axis": "width", "values": [1, 2]},
        {"axis": "l2_size", "values": [128 * 1024, 512 * 1024]},
        {"axis": "l2_associativity", "values": [8, 16],
         "when": "l2_size>=512KB"},
    ])


class TestAxes:
    def test_plain_mapping_form(self):
        space = SearchSpace.make({"width": [1, 2, 4], "l2_size": ["1MB"]})
        assert space.cardinality() == 3
        assert space.overrides(2) == {"width": 4, "l2_size": "1MB"}

    def test_coupled_axis_binds_all_fields(self):
        space = SearchSpace.make([
            {"axis": "pipeline_stages,frequency_mhz",
             "values": [[5, 600], [9, 1000]]},
        ])
        assert space.cardinality() == 2
        assert space.overrides(1) == {"pipeline_stages": 9,
                                      "frequency_mhz": 1000}

    def test_coupled_axis_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="needs 2-tuples"):
            SpaceAxis(key="pipeline_stages,frequency_mhz", values=((5,),))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="has no values"):
            SpaceAxis(key="width", values=())

    def test_duplicate_field_rejected(self):
        with pytest.raises(ValueError, match="more than one axis"):
            SearchSpace.make([
                {"axis": "width", "values": [1]},
                {"axis": "width,pipeline_stages", "values": [[2, 5]]},
            ])

    def test_when_must_test_machine_parameter(self):
        with pytest.raises(ValueError, match="must test a machine parameter"):
            SearchSpace.make([
                {"axis": "width", "values": [1, 2], "when": "cpi<2"},
            ]).cardinality()

    def test_when_on_unbound_field_names_the_problem(self):
        space = SearchSpace.make([
            {"axis": "l2_associativity", "values": [8, 16],
             "when": "area_proxy<=100"},
        ])
        with pytest.raises(ValueError, match="no earlier axis or base"):
            space.cardinality()


class TestIndexing:
    def test_cardinality_counts_conditional_collapse(self):
        # width(2) x [l2=128K -> 1 assoc choice; l2=512K -> 2] = 2 * 3 = 6.
        assert _conditional_space().cardinality() == 6

    def test_string_size_values_activate_conditions_by_byte_count(self):
        # "256KB" axis spellings must compare as bytes, not as strings —
        # a lexicographic comparison would activate the wrong branches.
        space = SearchSpace.make([
            {"axis": "l2_size", "values": ["128KB", "256KB", "512KB", "1MB"]},
            {"axis": "l2_associativity", "values": [8, 16],
             "when": "l2_size>=256KB"},
        ])
        assert space.cardinality() == 1 + 3 * 2
        active = {space.overrides(i)["l2_size"]
                  for i in range(len(space))
                  if "l2_associativity" in space.overrides(i)}
        assert active == {"256KB", "512KB", "1MB"}

    def test_points_are_distinct_over_the_whole_space(self):
        space = _conditional_space()
        seen = {tuple(sorted(space.overrides(index).items()))
                for index in range(len(space))}
        assert len(seen) == len(space)

    def test_inactive_axis_contributes_no_override(self):
        space = _conditional_space()
        small = [space.overrides(i) for i in range(len(space))
                 if space.overrides(i).get("l2_size") == 128 * 1024]
        assert small and all("l2_associativity" not in o for o in small)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError, match="out of range"):
            _conditional_space().overrides(6)

    def test_leftmost_axis_most_significant(self):
        space = SearchSpace.make({"width": [1, 2], "l2_hit_cycles": [10, 20]})
        decoded = [space.overrides(i) for i in range(4)]
        assert [d["width"] for d in decoded] == [1, 1, 2, 2]
        assert [d["l2_hit_cycles"] for d in decoded] == [10, 20, 10, 20]

    def test_name_template_with_kb_helper(self):
        space = SearchSpace.make(
            [{"axis": "l2_size", "values": ["256KB", "1MB"]},
             {"axis": "width", "values": [2]}],
            name_template="w{width}_l2-{l2_size_kb}k",
        )
        assert space.spec(0).resolve().name == "w2_l2-256k"
        assert space.spec(1).resolve().name == "w2_l2-1024k"


class TestSampling:
    def test_deterministic_and_distinct(self):
        space = _conditional_space()
        first = space.sample(4, seed=7)
        assert first == space.sample(4, seed=7)
        assert len(set(first)) == 4
        assert first != space.sample(4, seed=8)

    def test_exclusion_is_respected(self):
        space = _conditional_space()
        exclude = {0, 1, 2}
        drawn = space.sample(3, seed=3, exclude=exclude)
        assert not set(drawn) & exclude

    def test_overdraw_returns_ascending_remainder(self):
        space = _conditional_space()
        assert space.sample(99, seed=0, exclude=[1, 4]) == [0, 2, 3, 5]

    def test_rejection_sampling_path_on_large_space(self):
        # Seven 4-value axes: 16384 points — beyond the shuffle threshold.
        fields = ["l1i_size", "l1d_size", "l2_size", "width",
                  "pipeline_stages", "l2_hit_cycles", "mul_latency"]
        space = SearchSpace.make({name: [1, 2, 3, 4] for name in fields})
        assert space.cardinality() == 4 ** 7
        drawn = space.sample(32, seed=11, exclude=range(100))
        assert drawn == space.sample(32, seed=11, exclude=range(100))
        assert len(set(drawn)) == 32
        assert all(100 <= index < 4 ** 7 for index in drawn)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            _conditional_space().sample(-1, seed=0)


class TestSerialization:
    def test_json_round_trip_preserves_decode(self):
        space = _conditional_space()
        clone = SearchSpace.from_json(space.to_json())
        assert clone.cardinality() == space.cardinality()
        for index in range(len(space)):
            assert clone.overrides(index) == space.overrides(index)

    def test_base_and_template_survive(self):
        space = SearchSpace.make(
            [{"axis": "width", "values": [1, 2]}],
            base={"preset": "paper_default", "l2_size": "1MB"},
            name_template="w{width}",
        )
        clone = SearchSpace.from_dict(space.to_dict())
        assert clone.base == space.base
        assert clone.spec(1).resolve().name == "w2"
        assert clone.spec(1).resolve().l2_size == 1024 * 1024

    def test_unknown_space_key_rejected(self):
        with pytest.raises(ValueError, match="unknown search-space keys"):
            SearchSpace.from_dict({"axes": [], "points": 5})

    def test_unknown_axis_key_rejected(self):
        with pytest.raises(ValueError, match="unknown axis keys"):
            SpaceAxis.from_dict({"axis": "width", "values": [1],
                                 "unless": "x"})

    def test_missing_axes_rejected(self):
        with pytest.raises(ValueError, match="needs an 'axes' list"):
            SearchSpace.from_dict({"base": {}})


class TestDesignSpaceAdapter:
    """The Table-2 spaces must replay the legacy enumeration byte-for-byte."""

    @pytest.mark.parametrize("factory, expected", [
        (default_design_space,
         "2307b56adb83b742c266d04bf759d4076b36c8a8ac988f0eadc11ca5040cef45"),
        (reduced_design_space,
         "934ca5e33f9ef7199e853188ecacece77f2fe47e1cd98398e6f4521e1b749cd9"),
    ], ids=["full", "reduced"])
    def test_golden_against_legacy_enumeration(self, factory, expected):
        machines = [machine.to_dict()
                    for machine in factory().to_sweep(()).machines]
        payload = json.dumps(machines, sort_keys=True).encode("utf-8")
        assert hashlib.sha256(payload).hexdigest() == expected

    def test_base_spec_matches_design_base(self):
        # Table 2 varies five axes around the default machine; every
        # other field (the L1 caches, memory latency, ...) comes from it.
        base = default_design_space().base.resolve()
        assert base.with_(name="") == MachineConfig()
