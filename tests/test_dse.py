"""Tests for the Table 2 design space and exploring it through the planner."""

from dataclasses import replace

import pytest

from repro import api
from repro.dse import default_design_space, reduced_design_space
from repro.machine import MachineConfig
from repro.runtime.session import Session
from repro.validation.compare import ValidationRow, summarize


class TestDesignSpace:
    def test_full_space_has_192_points(self):
        space = default_design_space()
        assert len(space) == 192
        configurations = space.to_sweep(()).configurations()
        assert len(configurations) == 192
        assert len({machine.name for machine in configurations}) == 192

    def test_reduced_space_is_subset_sized(self):
        space = reduced_design_space()
        assert 0 < len(space) < 192
        assert len(space.to_sweep(()).configurations()) == len(space)

    def test_configurations_cover_table2_ranges(self):
        configurations = default_design_space().to_sweep(()).configurations()
        assert {machine.width for machine in configurations} == {1, 2, 3, 4}
        assert {machine.pipeline_stages for machine in configurations} == {5, 7, 9}
        assert {machine.frequency_mhz for machine in configurations} == {600, 800, 1000}
        assert {machine.l2_size for machine in configurations} == {
            128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024
        }
        assert {machine.l2_associativity for machine in configurations} == {8, 16}
        assert {machine.branch_predictor for machine in configurations} == {
            "global_1kb", "hybrid_3.5kb"
        }

    def test_depth_frequency_coupled(self):
        for machine in default_design_space().to_sweep(()).configurations():
            if machine.pipeline_stages == 5:
                assert machine.frequency_mhz == 600
            elif machine.pipeline_stages == 9:
                assert machine.frequency_mhz == 1000

    def test_custom_base_config_propagates(self):
        space = replace(default_design_space(),
                        base=api.MachineSpec.make(l1d_size=16 * 1024))
        assert all(machine.l1d_size == 16 * 1024
                   for machine in space.to_sweep(()).configurations())

    def test_iteration(self):
        # The sweep's minimal-override specs resolve to the indexed points.
        space = reduced_design_space()
        assert space.to_sweep(()).configurations() == [
            space.spec(index).resolve() for index in range(len(space))
        ]


#: A 4-point space, small enough to simulate in tests.
TINY_MACHINES = tuple(
    api.MachineSpec.from_machine(MachineConfig(
        width=width, pipeline_stages=stages, frequency_mhz=freq,
        name=f"w{width}_d{stages}"))
    for width, stages, freq in [(1, 5, 600), (2, 5, 600), (4, 9, 1000), (2, 9, 1000)]
)


def tiny_sweep(workload: str = "sha", **options) -> list[api.EvalRequest]:
    return api.SweepRequest(workloads=(api.WorkloadSpec(workload),),
                            machines=TINY_MACHINES, **options).expand()


@pytest.fixture(scope="module")
def session():
    return Session()


class TestExplorer:
    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="has no values"):
            api.SweepRequest.make(["sha"], axes={"width": []}).expand()

    def test_evaluate_model_only(self, session):
        results = api.evaluate_many(tiny_sweep(), session=session)
        assert len(results) == 4
        assert all(result.backend == "analytical" for result in results)
        assert all(result.cpi > 0 for result in results)
        # Wider configurations should not have a higher predicted CPI... but a
        # deeper pipeline can; just check the scalar machine is the slowest.
        scalar = next(result for result in results if result.machine == "w1_d5")
        assert all(scalar.cpi >= result.cpi for result in results)

    def test_evaluate_with_simulation_and_power(self, session):
        results = api.evaluate_many(
            tiny_sweep(backends=("analytical", "simulator"), with_power=True),
            session=session,
        )
        assert [result.backend for result in results[:2]] == \
            ["analytical", "simulator"]
        for result in results:
            assert result.cpi > 0
            assert result.energy_joules > 0
            assert result.edp > 0

    def test_validation_summary(self, session):
        results = api.evaluate_many(
            tiny_sweep(backends=("analytical", "simulator")), session=session)
        summary = summarize([
            ValidationRow(name=predicted.workload,
                          configuration=predicted.machine,
                          predicted_cpi=predicted.cpi,
                          simulated_cpi=simulated.cpi)
            for predicted, simulated in zip(results[0::2], results[1::2])
        ])
        assert summary.count == 4
        assert 0 <= summary.average_absolute_error < 0.2
        assert summary.maximum_absolute_error < 0.3

    def test_best_by_model_without_power_is_a_clear_error(self, session):
        result = api.evaluate_many(tiny_sweep(), session=session)[0]
        assert result.edp is None
        with pytest.raises(KeyError, match="with_power"):
            result.metric("edp")

    def test_edp_exploration(self, session):
        results = api.evaluate_many(
            tiny_sweep("gsm_c", backends=("analytical", "simulator"),
                       with_power=True),
            session=session,
        )
        estimated, detailed = results[0::2], results[1::2]
        model_pick = min(range(4), key=lambda i: estimated[i].edp)
        optimum = min(result.edp for result in detailed)
        assert estimated[model_pick].machine in {spec.to_dict()["name"]
                                                 for spec in TINY_MACHINES}
        assert detailed[model_pick].edp >= optimum

    def test_profiles_are_cached_in_the_session(self):
        session = Session()
        api.evaluate_many(tiny_sweep(), session=session)
        built = session.stats.miss_profiles_built
        # The four machines share one memory hierarchy: one profile.
        assert built == 1
        api.evaluate_many(tiny_sweep(), session=session)
        # The second sweep is answered entirely from the session memo.
        assert session.stats.miss_profiles_built == built

    def test_same_name_configs_do_not_collide(self):
        # Two distinct configurations sharing a name (here: empty) must get
        # distinct miss profiles — the session memo is keyed on the frozen
        # config itself.
        small = MachineConfig(l2_size=128 * 1024)
        big = MachineConfig(l2_size=1024 * 1024)
        assert small.name == big.name == ""
        session = Session()
        api.evaluate_many(api.SweepRequest(
            workloads=(api.WorkloadSpec("sha"),),
            machines=(api.MachineSpec.from_machine(small),
                      api.MachineSpec.from_machine(big)),
        ).expand(), session=session)
        workload = session.workload("sha")
        small_profile = session.miss_profile(workload, small)
        big_profile = session.miss_profile(workload, big)
        assert session.stats.miss_profiles_built == 2
        assert small_profile.machine.l2_size != big_profile.machine.l2_size
