"""End-to-end design-space search: policies, envelopes, validation.

The anchor results: a search whose budget covers the space is
exhaustive and reproduces the EDP optima the per-point design-space
explorer picked (reduced space, sha) and the Table-2 sweep shows
(dijkstra), pinned by name and EDP; a smaller budget is a seeded random
search that spends exactly its budget — deterministically,
byte-identical across job counts.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.dse import default_design_space, reduced_design_space
from repro.machine import area_proxy
from repro.runtime.session import Session
from repro.search import (
    OptimizeRequest,
    OptimizeResult,
    optimize,
    validate_optimize_request,
)


@pytest.fixture(scope="module")
def session():
    """One shared in-memory session so traces/profiles memoize across tests."""
    return Session()


@pytest.fixture(scope="module")
def sha_result(session):
    return api.evaluate({"workload": "sha", "with_power": True},
                        session=session)


@pytest.fixture(scope="module")
def sha_result_no_power(session):
    return api.evaluate({"workload": "sha"}, session=session)


# ----------------------------------------------------------------------
# The metric accessor (the vocabulary objectives/constraints read).
# ----------------------------------------------------------------------
class TestMetricAccessor:
    def test_scalar_paths(self, sha_result):
        assert sha_result.metric("cpi") == sha_result.cpi
        assert sha_result.metric("ipc") == pytest.approx(1 / sha_result.cpi)
        assert sha_result.metric("cycles") == float(sha_result.cycles)
        assert sha_result.metric("seconds") == sha_result.seconds

    def test_power_paths(self, sha_result):
        assert sha_result.metric("energy") == sha_result.energy_joules
        assert sha_result.metric("edp") == pytest.approx(
            sha_result.energy_joules * sha_result.seconds)

    def test_machine_paths(self, sha_result):
        machine = sha_result.request.machine.resolve()
        assert sha_result.metric("machine.l2_size") == float(machine.l2_size)
        assert sha_result.metric("machine.area_proxy") == \
            pytest.approx(area_proxy(machine))
        assert sha_result.metric("frequency") == float(machine.frequency_mhz)

    def test_cpi_stack_paths(self, sha_result):
        component = next(iter(sha_result.cpi_stack))
        assert sha_result.metric(f"cpi_stack.{component}") == \
            float(sha_result.cpi_stack[component])

    def test_unknown_path_lists_vocabulary(self, sha_result):
        with pytest.raises(KeyError, match="valid paths.*cpi"):
            sha_result.metric("latency")

    def test_power_path_without_power_advises_with_power(
            self, sha_result_no_power):
        with pytest.raises(KeyError, match="with_power=True"):
            sha_result_no_power.metric("edp")
        assert "edp" not in sha_result_no_power.metric_paths()

    def test_unknown_stack_component_lists_components(self, sha_result):
        with pytest.raises(KeyError, match="this result has"):
            sha_result.metric("cpi_stack.nonexistent")

    def test_metric_paths_all_resolve(self, sha_result):
        for path in sha_result.metric_paths():
            value = sha_result.metric(path)
            assert isinstance(value, float)


# ----------------------------------------------------------------------
# Exhaustive golden: the legacy EDP optimum through the new machinery.
# ----------------------------------------------------------------------
#: sha's model EDP optimum over the reduced Table-2 space, as the
#: per-point explorer that preceded ``optimize`` picked it.
LEGACY_SHA_OPTIMUM = ("w2_d9_f1000_l2-128k-8w_global_1kb", 2.5863697060857807e-11)


class TestExhaustiveGolden:
    def test_matches_legacy_explorer_optimum(self, session):
        design = reduced_design_space()
        result = optimize(OptimizeRequest(
            space=design, workload=api.WorkloadSpec("sha"),
            objectives=(api_objective("edp"),), budget=len(design),
        ), session=session)

        assert result.evaluations == result.cardinality == len(design)
        assert result.best is not None
        assert (result.best["machine"], result.best["objectives"]["edp"]) \
            == LEGACY_SHA_OPTIMUM

    def test_front_is_subset_of_evaluations_and_contains_best(self, session):
        design = reduced_design_space()
        result = optimize(OptimizeRequest(
            space=design, workload=api.WorkloadSpec("sha"),
            objectives=(api_objective("edp"), api_objective("max:ipc")),
            budget=len(design),
        ), session=session)
        indices = [entry["index"] for entry in result.front]
        assert indices == sorted(indices)
        assert result.best["index"] in indices
        assert 1 <= len(indices) <= result.evaluations


def api_objective(text):
    from repro.search import Objective

    return Objective.parse(text)


def _core_space():
    """160 points that share one memory geometry (only core latencies
    vary), so long random searches stay cheap."""
    from repro.search import SearchSpace

    return SearchSpace.make([
        {"axis": "mul_latency", "values": [1, 2, 3, 4, 5, 6, 7, 8]},
        {"axis": "div_latency", "values": [8, 12, 16, 20, 24]},
        {"axis": "pipeline_stages,frequency_mhz",
         "values": [[5, 600], [6, 700], [7, 800], [9, 1000]]},
    ])


# ----------------------------------------------------------------------
# Determinism.
# ----------------------------------------------------------------------
class TestDeterminism:
    @staticmethod
    def _request(budget: int = 12) -> OptimizeRequest:
        return OptimizeRequest(
            space=reduced_design_space(),
            workload=api.WorkloadSpec("sha"),
            objectives=(api_objective("edp"),),
            budget=budget, batch=4, seed=7,
        )

    @pytest.mark.parametrize("strategy, budget",
                             [("random", 12), ("exhaustive", 24)],
                             ids=["random", "exhaustive"])
    def test_same_seed_same_bytes(self, strategy, budget, session):
        request = self._request(budget)
        assert request.strategy == strategy
        first = optimize(request, session=session).to_json()
        second = optimize(request, session=session).to_json()
        assert first == second

    def test_jobs_do_not_change_bytes(self, tmp_path):
        request = self._request()
        assert request.strategy == "random"
        serial = optimize(request, jobs=1,
                          cache_dir=tmp_path / "serial").to_json()
        parallel = optimize(request, jobs=2,
                            cache_dir=tmp_path / "parallel").to_json()
        assert serial == parallel

    def test_budget_is_respected(self, session):
        result = optimize(self._request(), session=session)
        assert result.evaluations <= 12
        assert result.trajectory  # convergence rounds were recorded
        assert result.trajectory[-1]["evaluations"] == result.evaluations

    def test_random_rounds_draw_distinct_sample_seeds(self, session,
                                                      monkeypatch):
        from repro.search.space import SearchSpace
        from repro.search.strategies import _round_seed

        pairs = [(seed, attempt) for seed in range(-3, 10)
                 for attempt in range(3 * 64)]
        assert len({_round_seed(*pair) for pair in pairs}) == len(pairs)
        # The first 64 rounds keep their integer seeds.
        assert [_round_seed(7, attempt) for attempt in range(64)] == \
            list(range(7 * 64, 8 * 64))

        drawn = []
        sample = SearchSpace.sample

        def recording_sample(self, count, seed, **kwargs):
            drawn.append(seed)
            return sample(self, count, seed, **kwargs)

        monkeypatch.setattr(SearchSpace, "sample", recording_sample)
        optimize(OptimizeRequest(
            space=_core_space(), workload=api.WorkloadSpec("sha"),
            objectives=(api_objective("cpi"),), budget=100, batch=1, seed=7,
        ), session=session)
        assert len(drawn) == 100  # past the 64 integer-seeded rounds
        assert drawn == [_round_seed(7, attempt)
                         for attempt in range(len(drawn))]


# ----------------------------------------------------------------------
# The size rule and the random policy's budget.
# ----------------------------------------------------------------------
class TestPolicy:
    def test_strategy_follows_budget_and_cardinality(self):
        def request(budget):
            return OptimizeRequest(
                space=reduced_design_space(),
                workload=api.WorkloadSpec("sha"),
                objectives=(api_objective("edp"),), budget=budget)

        assert [request(budget).strategy for budget in (1, 23, 24, 25)] == \
            ["random", "random", "exhaustive", "exhaustive"]
        assert "strategy" not in request(24).to_dict()

    def test_random_search_of_a_covered_space_matches_exhaustive(
            self, session):
        # Why the size rule loses nothing: on a space its budget covers,
        # random search ends on the exhaustive front and best.
        from repro.search import SearchDriver
        from repro.search.strategies import (
            exhaustive_strategy,
            random_strategy,
        )

        def run(search):
            driver = SearchDriver(
                reduced_design_space(), api.WorkloadSpec("sha"),
                (api_objective("edp"), api_objective("max:ipc")),
                budget=24, with_power=True, session=session)
            search(driver, 3, 4)
            return driver

        exhaustive, sampled = run(exhaustive_strategy), run(random_strategy)
        assert len(sampled.evaluated) == len(exhaustive.evaluated) == 24
        assert sampled.front() == exhaustive.front()
        assert sampled.best() == exhaustive.best()
        assert len(sampled.trajectory) > len(exhaustive.trajectory) == 1

    @pytest.mark.parametrize("budget, batch, constraints", [
        (100, 1, ()),
        (150, 8, ()),
        (75, 1, ("mul_latency<=4",)),  # 80 of the 160 points feasible
    ])
    def test_random_search_spends_its_whole_budget(self, session, budget,
                                                   batch, constraints):
        result = optimize(OptimizeRequest(
            space=_core_space(), workload=api.WorkloadSpec("sha"),
            objectives=(api_objective("cpi"),),
            constraints=tuple(api_constraint(text) for text in constraints),
            budget=budget, batch=batch, seed=5,
        ), session=session)
        assert result.request.strategy == "random"
        assert result.evaluations == budget
        assert result.trajectory[-1]["evaluations"] == budget
        assert (result.infeasible_skipped > 0) == bool(constraints)

    def test_random_search_stops_when_the_space_runs_out(self, session):
        result = optimize(OptimizeRequest(
            space=_core_space(), workload=api.WorkloadSpec("sha"),
            objectives=(api_objective("cpi"),),
            constraints=(api_constraint("mul_latency<=1"),),
            budget=150, batch=8, seed=5,
        ), session=session)
        assert result.request.strategy == "random"
        assert result.evaluations == 20
        assert result.evaluations + result.infeasible_skipped == 160


# ----------------------------------------------------------------------
# Table 2 and machine constraints.
# ----------------------------------------------------------------------
class TestTable2Search:
    def test_exhaustive_finds_the_table2_edp_optimum(self, session):
        space = default_design_space()
        result = optimize(OptimizeRequest(
            space=space, workload=api.WorkloadSpec("dijkstra"),
            objectives=(api_objective("edp"),), budget=len(space),
        ), session=session)
        assert result.request.strategy == "exhaustive"
        assert result.evaluations == 192
        assert result.best["machine"] == "w1_d9_f1000_l2-128k-8w_hybrid_3.5kb"
        assert result.best["objectives"]["edp"] == \
            pytest.approx(5.6962e-11, rel=1e-4)

    def test_machine_constraints_prune_without_spending_budget(self, session):
        result = optimize(OptimizeRequest(
            space=default_design_space(),
            workload=api.WorkloadSpec("sha"),
            objectives=(api_objective("edp"),),
            constraints=tuple(api_constraint(text) for text in
                              ("l2_size<=256KB", "width>=2")),
            budget=192,
        ), session=session)
        assert result.infeasible_skipped > 0
        assert result.evaluations + result.infeasible_skipped == 192
        for entry in result.front:
            spec = entry["result"]["request"]["machine"]
            assert spec["width"] >= 2


def api_constraint(text):
    from repro.search import Constraint

    return Constraint.parse(text)


# ----------------------------------------------------------------------
# Upfront validation (named-field errors).
# ----------------------------------------------------------------------
class TestValidation:
    @staticmethod
    def _request(**overrides) -> OptimizeRequest:
        payload = {
            "space": {"axes": [{"axis": "l2_size",
                                "values": ["256KB", "1MB"]}]},
            "workload": "sha",
            "objectives": ["edp"],
        }
        payload.update(overrides)
        return OptimizeRequest.from_dict(payload)

    def test_well_formed_request_has_no_errors(self):
        assert validate_optimize_request(self._request()) == []

    def test_infeasible_constraint_names_field_and_candidates(self):
        errors = validate_optimize_request(
            self._request(constraints=["l2_size<=1KB"]))
        assert len(errors) == 1
        assert errors[0].startswith("constraints[0]:")
        assert "'l2_size'" in errors[0] and "infeasible" in errors[0]

    def test_feasible_constraint_on_base_value_passes(self):
        # width is not on an axis; the base machine's width must be probed.
        errors = validate_optimize_request(
            self._request(constraints=["width>=1"]))
        assert errors == []

    def test_bad_budget_batch_and_strategy(self):
        errors = validate_optimize_request(self._request(budget=0, batch=0))
        fields = sorted(error.split(":")[0] for error in errors)
        assert fields == ["batch", "budget"]
        # The policy follows from the budget; naming one is an unknown key.
        with pytest.raises(ValueError,
                           match=r"unknown optimize-request keys \['strategy'\]"):
            self._request(strategy="random")

    def test_exhaustive_needs_full_budget(self):
        # A short budget is no error: it makes the search random.
        short = self._request(budget=1)
        assert validate_optimize_request(short) == []
        assert short.strategy == "random"

    def test_power_objective_with_power_pinned_off(self):
        errors = validate_optimize_request(
            self._request(with_power=False))
        assert any(error.startswith("objectives:") for error in errors)

    def test_non_machine_axis_field_rejected(self):
        errors = validate_optimize_request(self._request(
            space={"axes": [{"axis": "turbo_mode", "values": [1]}]}))
        assert any(error.startswith("space: axis field 'turbo_mode'")
                   for error in errors)

    def test_unknown_workload_surfaces_as_request_error(self):
        errors = validate_optimize_request(self._request(workload="doom"))
        assert any(error.startswith("request:") and "doom" in error
                   for error in errors)

    def test_optimize_raises_one_joined_error(self):
        with pytest.raises(ValueError, match="invalid optimize request"):
            optimize(self._request(constraints=["l2_size<=1KB"], budget=0))

    def test_validate_requests_dispatches_optimize_requests(self):
        good_eval = api.EvalRequest.parse({"workload": "sha"})
        bad_search = self._request(budget=0)
        with pytest.raises(ValueError, match=r"request\[1\]: budget:"):
            api.validate_requests([good_eval, bad_search])
        # A well-formed search request passes through the same gate.
        api.validate_requests([good_eval, self._request()])


# ----------------------------------------------------------------------
# Envelopes.
# ----------------------------------------------------------------------
class TestEnvelopes:
    def test_request_round_trips_through_json(self):
        request = OptimizeRequest.from_dict({
            "space": {"axes": [{"axis": "width", "values": [1, 2]}]},
            "workload": {"name": "sha", "flags": "O2"},
            "objectives": ["edp", "max:ipc"],
            "constraints": ["area_proxy<=700"],
            "budget": 5, "batch": 2, "seed": 3,
            "tag": "round-trip",
        })
        clone = OptimizeRequest.from_json(request.to_json())
        assert clone.to_dict() == request.to_dict()
        assert clone.effective_with_power  # edp objective implies power

    def test_single_objective_string_is_coerced(self):
        request = OptimizeRequest.from_dict({
            "space": {"axes": [{"axis": "width", "values": [1]}]},
            "workload": "sha", "objectives": "cpi",
        })
        assert [str(objective) for objective in request.objectives] == ["cpi"]
        assert not request.effective_with_power

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown optimize-request keys"):
            OptimizeRequest.from_dict({
                "space": {"axes": []}, "workload": "sha",
                "objectives": ["cpi"], "stratgy": "random",
            })

    def test_missing_required_key_rejected(self):
        with pytest.raises(ValueError, match="needs a 'objectives' entry"):
            OptimizeRequest.from_dict({"space": {"axes": []},
                                       "workload": "sha"})

    def test_result_round_trips_through_json(self, session):
        result = optimize(OptimizeRequest(
            space=reduced_design_space(),
            workload=api.WorkloadSpec("sha"),
            objectives=(api_objective("edp"),),
            budget=4, batch=2, seed=1,
        ), session=session)
        clone = OptimizeResult.from_json(result.to_json())
        assert clone.to_dict() == result.to_dict()
        assert clone.to_json() == result.to_json()
