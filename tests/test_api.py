"""Tests for the ``repro.api`` evaluation facade.

Covers the acceptance criteria of the API redesign: lossless JSON round
trips, the three backends answering the same request through one facade,
byte-identical parallel batches, the sweep grammar, the registry plugin
points and the ``eval`` CLI subcommand.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

import pytest

from repro import api
from repro.api.backends import BACKENDS, BackendCapabilities, EvalBackend, SliceAnswer
from repro.api.batch import results_table
from repro.cli import main as cli_main
from repro.dse.space import reduced_design_space
from repro.machine import MachineConfig
from repro.registry import Registry
from repro.runtime.session import Session
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def session():
    return Session()


def _request(**overrides) -> api.EvalRequest:
    payload = {
        "workload": api.WorkloadSpec("sha"),
        "machine": api.MachineSpec.make("paper_default", l2_size="1MB",
                                        branch_predictor="hybrid_3.5kb"),
    }
    payload.update(overrides)
    return api.EvalRequest(**payload)


class TestRegistry:
    def test_register_get_and_aliases(self):
        registry = Registry("widget")
        registry.register("alpha", aliases=("a",), colour="red")(object())
        assert "alpha" in registry and "a" in registry
        assert registry.canonical("a") == "alpha"
        assert registry.metadata("a")["colour"] == "red"
        assert registry.names(colour="red") == ["alpha"]
        assert registry.names(colour="blue") == []

    def test_duplicate_registration_rejected(self):
        registry = Registry("widget")
        registry.register("alpha")(1)
        with pytest.raises(KeyError, match="already registered"):
            registry.register("alpha")(2)
        with pytest.raises(KeyError, match="already registered"):
            registry.register("beta", aliases=("alpha",))(3)

    def test_unknown_lookup_lists_known_names(self):
        registry = Registry("widget")
        registry.register("alpha")(1)
        with pytest.raises(KeyError, match="unknown widget 'beta'.*alpha"):
            registry.get("beta")

    def test_unregister_removes_entry_and_aliases(self):
        registry = Registry("widget")
        registry.register("alpha", aliases=("a",))(1)
        registry.unregister("a")
        assert "alpha" not in registry and "a" not in registry


class TestRequestRoundTrip:
    def test_eval_request_json_round_trip(self):
        request = _request(backend="simulator", with_power=True, tag="point-7")
        clone = api.EvalRequest.from_json(request.to_json())
        assert clone == request
        # Size strings survive serialization verbatim.
        assert clone.machine.overrides["l2_size"] == "1MB"

    def test_request_from_plain_dict_forms(self):
        request = api.EvalRequest.from_dict({
            "workload": "sha",
            "machine": {"preset": "paper_default", "l2_size": "1MB"},
        })
        assert request.workload == api.WorkloadSpec("sha", "O3")
        assert request.machine.resolve().l2_size == 1024 * 1024
        assert request.backend == "analytical"

    def test_unknown_request_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown evaluation request keys"):
            api.EvalRequest.from_dict({"workload": "sha", "wierd": 1})

    @pytest.mark.parametrize("field, value", [
        ("with_power", "false"), ("with_power", "no"), ("with_power", 1),
        ("with_power", 0), ("mlp_window", -5), ("mlp_window", 0),
        ("mlp_window", 64.7), ("mlp_window", "64"), ("mlp_window", True),
    ])
    @pytest.mark.parametrize("kind", ["eval", "sweep", "optimize"])
    def test_power_and_window_are_checked_not_coerced(self, kind, field,
                                                       value):
        from repro.search.optimize import OptimizeRequest

        payload = {
            "eval": {"workload": "sha"},
            "sweep": {"workloads": ["sha"]},
            "optimize": {"space": {"axes": [{"axis": "width",
                                             "values": [1]}]},
                         "workload": "sha", "objectives": ["cpi"]},
        }[kind]
        parse = {"eval": api.EvalRequest.from_dict,
                 "sweep": api.SweepRequest.from_dict,
                 "optimize": OptimizeRequest.from_dict}[kind]
        with pytest.raises(ValueError, match=field):
            parse({**payload, field: value})

    def test_with_power_false_string_no_longer_turns_power_on(self):
        with pytest.raises(ValueError, match="with_power"):
            api.evaluate({"workload": "sha", "with_power": "false"})
        assert api.evaluate({"workload": "sha", "with_power": False,
                             "mlp_window": 1}).energy_joules is None

    def test_optimize_request_keeps_null_with_power(self):
        from repro.search.optimize import OptimizeRequest

        request = OptimizeRequest.from_dict({
            "space": {"axes": [{"axis": "width", "values": [1]}]},
            "workload": "sha", "objectives": ["edp"], "with_power": None,
        })
        assert request.with_power is None and request.effective_with_power
        with pytest.raises(ValueError, match="with_power"):
            api.EvalRequest.from_dict({"workload": "sha", "with_power": None})

    def test_eval_result_json_round_trip_with_none_fields(self, session):
        result = api.evaluate(_request(backend="simulator"), session=session)
        assert result.cpi_stack is None and result.energy_joules is None
        clone = api.EvalResult.from_json(result.to_json())
        assert clone == result
        assert clone.edp is None

    def test_eval_result_json_round_trip_with_power(self, session):
        result = api.evaluate(_request(with_power=True), session=session)
        assert result.energy_joules > 0 and result.cpi_stack
        clone = api.EvalResult.from_json(result.to_json())
        assert clone == result
        assert clone.edp == pytest.approx(result.energy_joules * result.seconds)

    def test_machine_spec_from_machine_is_lossless(self):
        machine = MachineConfig(width=2, pipeline_stages=7, frequency_mhz=800,
                                l2_size=1024 * 1024, name="w2_custom")
        spec = api.MachineSpec.from_machine(machine)
        resolved = spec.resolve()
        assert resolved == machine
        assert resolved.name == "w2_custom"
        # Only differing fields are carried as overrides.
        assert "l1i_size" not in spec.overrides


class TestMachineSpecResolveMemo:
    """``MachineSpec.resolve`` is memoized without going stale or lenient."""

    def test_reregistered_and_unregistered_presets_never_resolve_stale(self):
        from repro.machine import MACHINE_PRESETS

        spec = api.MachineSpec.make("memo_probe", l2_size="1MB")
        MACHINE_PRESETS.register("memo_probe")(
            lambda: MachineConfig(width=2, name="memo_probe"))
        try:
            assert spec.resolve().width == 2
            assert spec.resolve() is spec.resolve()
            MACHINE_PRESETS.register("memo_probe", overwrite=True)(
                lambda: MachineConfig(width=3, name="memo_probe"))
            resolved = spec.resolve()
            assert (resolved.width, resolved.l2_size) == (3, 1024 * 1024)
            MACHINE_PRESETS.unregister("memo_probe")
            with pytest.raises(KeyError, match="memo_probe"):
                spec.resolve()
        finally:
            if "memo_probe" in MACHINE_PRESETS:
                MACHINE_PRESETS.unregister("memo_probe")

    @pytest.mark.parametrize("overrides, error", [
        ({"l2_sise": "1MB"}, "unknown machine parameters"),
        ({"width": 0}, "width must be at least 1"),
        ({"l2_size": "1.5B"}, "whole number of bytes"),
    ])
    def test_invalid_spec_raises_on_every_call(self, overrides, error):
        spec = api.MachineSpec.make(**overrides)
        for _ in range(3):
            with pytest.raises(ValueError, match=error):
                spec.resolve()

    def test_equal_values_of_other_types_resolve_apart(self):
        assert type(api.MachineSpec.make(l2_ns=12).resolve().l2_ns) is int
        assert type(api.MachineSpec.make(l2_ns=12.0).resolve().l2_ns) is float


class TestBackends:
    def test_same_request_through_every_backend(self, session):
        """The acceptance criterion: one request, interchangeable answers."""
        answers = {
            backend: api.evaluate(_request(backend=backend), session=session)
            for backend in api.backend_names()
        }
        analytical = answers["analytical"]
        simulator = answers["simulator"]
        assert analytical.cpi_stack is not None
        # The simulator is the reference the model tracks within its error.
        assert simulator.cpi_stack is None
        assert analytical.cpi == pytest.approx(simulator.cpi, rel=0.2)
        for result in answers.values():
            assert result.instructions == analytical.instructions
            assert result.workload == "sha"

    def test_aliases_resolve_to_canonical_backend(self, session):
        result = api.evaluate(_request(backend="model"), session=session)
        assert result.backend == "analytical"

    def test_unknown_backend_lists_known(self, session):
        # "analytical_exact" and its alias "exact" named a removed backend.
        for name in ("quantum", "analytical_exact", "exact"):
            with pytest.raises(KeyError, match=(
                    "unknown evaluation backend.*known: analytical, simulator")):
                api.evaluate(_request(backend=name), session=session)

    def test_capability_matrix(self):
        matrix = dict(api.capability_matrix())
        assert matrix["analytical"].cpi_stack
        assert not matrix["analytical"].cycle_accurate
        assert matrix["simulator"].cycle_accurate

    def test_third_party_backend_plugs_in(self, session):
        @api.register_backend("constant_cpi")
        class ConstantBackend(EvalBackend):
            name = "constant_cpi"
            capabilities = BackendCapabilities(power=False)

            def evaluate(self, session, workload, machines, *,
                         with_power=False, mlp_window=64):
                instructions = len(workload.trace())
                return SliceAnswer(instructions=instructions,
                                   cycles=[2.0 * instructions] * len(machines))

        try:
            result = api.evaluate(_request(backend="constant_cpi"),
                                  session=session)
            assert result.cpi == pytest.approx(2.0)
        finally:
            BACKENDS.unregister("constant_cpi")


class TestBatch:
    def test_parallel_batch_is_byte_identical_to_serial(self, tmp_path):
        requests = [
            _request(workload=api.WorkloadSpec(name), machine=machine,
                     backend=backend)
            for name in ("sha", "qsort")
            for machine in (api.MachineSpec("paper_default"),
                            api.MachineSpec.make("paper_default", width=1))
            for backend in ("analytical", "simulator")
        ]
        serial = api.evaluate_many(requests, jobs=1)
        parallel = api.evaluate_many(requests, jobs=2,
                                     cache_dir=tmp_path / "cache")
        to_bytes = lambda results: json.dumps(  # noqa: E731
            [result.to_dict() for result in results]).encode()
        assert to_bytes(serial) == to_bytes(parallel)

    def test_session_and_jobs_are_mutually_exclusive(self, session):
        with pytest.raises(ValueError, match="not both"):
            api.evaluate_many([_request()], session=session, jobs=2)

    def test_batch_validates_before_any_work(self):
        bad = [
            {"workload": "sha"},
            {"workload": "sha", "machine": {"preset": "warp_drive"}},
        ]
        with pytest.raises(KeyError, match="unknown machine preset"):
            api.evaluate_many(bad)
        with pytest.raises(TypeError, match=r"^request\[1\]: size must be"):
            api.evaluate_many([bad[0], {"workload": "sha",
                                        "machine": {"l2_size": 1.5e6}}])
        with pytest.raises(ValueError, match="unknown workload"):
            api.evaluate_many([{"workload": "nonesuch"}])
        with pytest.raises(ValueError, match="unknown compiler flags"):
            api.evaluate_many([{"workload": {"name": "sha", "flags": "O9"}}])
        with pytest.raises(ValueError, match="unknown machine parameters"):
            api.validate_requests([_request(
                machine=api.MachineSpec.make(l2_sise="1MB"))])

    def test_validation_errors_list_the_valid_choices(self):
        """Every unknown-name message names the choices, not just the value."""
        with pytest.raises(KeyError, match="paper_default"):
            api.validate_requests([api.EvalRequest.parse(
                {"workload": "sha", "machine": "warp_drive"})])
        with pytest.raises(KeyError, match="analytical.*simulator"):
            api.validate_requests([api.EvalRequest.parse(
                {"workload": "sha", "backend": "oracle"})])
        with pytest.raises(ValueError, match="sha"):
            api.validate_requests([api.EvalRequest.parse(
                {"workload": "nonesuch"})])
        with pytest.raises(ValueError, match="O3.*nosched.*unroll"):
            api.validate_requests([api.EvalRequest.parse(
                {"workload": {"name": "sha", "flags": "O9"}})])

    @pytest.mark.parametrize("override", [{"l1_hit_cycles": -3},
                                          {"tlb_entries": 0},
                                          {"width": 2.0},
                                          {"width": True},
                                          {"pipeline_stages": 9.5}])
    def test_out_of_range_machines_fail_alike_on_every_backend(self, override):
        messages = []
        for backend in ("analytical", "simulator"):
            request = api.EvalRequest.parse({
                "workload": "sha", "backend": backend,
                "machine": {"preset": "default", **override},
            })
            with pytest.raises(ValueError) as caught:
                api.validate_requests([request])
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert next(iter(override)) in messages[0]

    def test_non_integer_override_fails_after_its_integer_twin(self):
        """``{"width": 2.0}`` equals ``{"width": 2}`` as a spec, but it is
        still checked, and fails, in a batch that resolved its twin."""
        requests = [
            api.EvalRequest.parse({"workload": "sha", "backend": "simulator",
                                   "machine": {"width": width}})
            for width in (2, 2.0)
        ]
        with pytest.raises(ValueError,
                           match=r"request\[1\]: width must be an integer"):
            api.validate_requests(requests)

    def test_validation_errors_name_the_failing_batch_entry(self):
        requests = [
            api.EvalRequest.parse({"workload": "sha"}),
            api.EvalRequest.parse({"workload": "sha", "backend": "oracle"}),
        ]
        with pytest.raises(KeyError, match=r"request\[1\]"):
            api.validate_requests(requests)

    def test_override_modified_machines_get_distinct_labels(self, session):
        plain, modified = api.evaluate_many([
            {"workload": "sha"},
            {"workload": "sha", "machine": {"l2_size": "1MB"}},
        ], session=session)
        assert plain.machine == "default"
        assert modified.machine == "paper_default+l2_size=1MB"
        # An explicit name override wins over the synthesized label.
        named = api.evaluate(
            {"workload": "sha", "machine": {"l2_size": "1MB", "name": "big"}},
            session=session)
        assert named.machine == "big"

    def test_results_table_renders_through_reporters(self, session):
        from repro.runtime.reporters import render

        results = api.evaluate_many([_request()], session=session)
        table = results_table(results)
        text = render(table, "text")
        assert "sha" in text and "analytical" in text
        payload = json.loads(render(table, "json"))
        restored = api.EvalResult.from_dict(payload["metadata"]["results"][0])
        assert restored == results[0]


class TestSweep:
    def test_grid_expansion_counts_and_order(self):
        sweep = api.SweepRequest.make(
            ["sha"],
            axes={"width": (1, 2), "l2_size": ("256KB", "1MB")},
            backends=("analytical", "simulator"),
        )
        requests = sweep.expand()
        assert len(requests) == len(sweep) == 1 * 4 * 2
        # Backends innermost: adjacent requests share their machine.
        assert requests[0].machine == requests[1].machine
        assert requests[0].backend == "analytical"
        assert requests[1].backend == "simulator"

    def test_coupled_axes(self):
        sweep = api.SweepRequest.make(
            ["sha"],
            axes={"pipeline_stages,frequency_mhz": ((5, 600), (9, 1000))},
        )
        machines = sweep.configurations()
        assert [(m.pipeline_stages, m.frequency_mhz) for m in machines] == \
            [(5, 600), (9, 1000)]

    def test_explicit_machines_and_axes_are_mutually_exclusive(self):
        sweep = api.SweepRequest.make(
            ["sha"],
            axes={"width": (1, 2)},
            machines=[{"preset": "paper_default"}],
        )
        with pytest.raises(ValueError, match="not both"):
            sweep.machine_grid()

    def test_coupled_axis_arity_mismatch_is_an_error(self):
        sweep = api.SweepRequest.make(
            ["sha"], axes={"pipeline_stages,frequency_mhz": ((5, 600, 1),)}
        )
        with pytest.raises(ValueError, match="coupled axis"):
            sweep.machine_grid()

    def test_sweep_json_round_trip(self):
        sweep = api.SweepRequest.make(
            ["sha", {"name": "qsort", "flags": "nosched"}],
            base={"preset": "paper_default", "l1d_size": "16KB"},
            axes={"width": (1, 4),
                  "pipeline_stages,frequency_mhz": ((5, 600), (9, 1000))},
            backends=("analytical",),
            with_power=True,
        )
        clone = api.SweepRequest.from_json(sweep.to_json())
        assert clone == sweep
        assert clone.expand() == sweep.expand()

    def test_design_space_to_sweep_preserves_configurations(self):
        space = reduced_design_space()
        sweep = space.to_sweep(("sha",), backends=("analytical", "simulator"))
        resolved = sweep.configurations()
        expected = [space.spec(index).resolve() for index in range(len(space))]
        assert resolved == expected
        assert [m.name for m in resolved] == [m.name for m in expected]
        assert len(sweep) == len(expected) * 2
        # And the whole thing still serializes.
        assert api.SweepRequest.from_json(sweep.to_json()) == sweep


class TestRegistriesPlugIn:
    def test_custom_branch_predictor_reaches_the_model(self, session):
        from repro.branch.predictors import PREDICTORS, BranchPredictor, register_predictor

        @register_predictor("coinflip_static")
        class _Coinflip(BranchPredictor):
            name = "coinflip_static"

            def predict(self, pc):
                return (pc >> 2) & 1 == 0

            def update(self, pc, taken):
                return None

        try:
            request = _request(
                machine=api.MachineSpec.make(branch_predictor="coinflip_static")
            )
            result = api.evaluate(request, session=session)
            assert result.cycles > 0
        finally:
            PREDICTORS.unregister("coinflip_static")

    def test_custom_workload_reaches_the_facade(self):
        from repro.workloads.registry import WORKLOADS, register_workload

        @register_workload("tiny_plugin", suite="plugin-suite")
        def _build():
            workload = get_workload("sha", use_cache=False)
            workload.name = "tiny_plugin"
            return workload

        try:
            result = api.evaluate({"workload": "tiny_plugin"})
            assert result.workload == "tiny_plugin"
            assert result.cycles > 0
        finally:
            WORKLOADS.unregister("tiny_plugin")


class TestRequestFiles:
    def test_payload_forms(self):
        single = api.parse_request_payload({"workload": "sha"})
        listed = api.parse_request_payload([{"workload": "sha"},
                                            {"workload": "qsort"}])
        swept = api.parse_request_payload({
            "workloads": ["sha"], "axes": {"width": [1, 2]},
        })
        envelope = api.parse_request_payload({
            "requests": [{"workload": "sha"}],
            "sweeps": [{"workloads": ["qsort"], "axes": {"width": [1, 2]}}],
        })
        assert len(single) == 1 and len(listed) == 2
        assert len(swept) == 2 and len(envelope) == 3

    def test_bad_payloads_are_clear_errors(self):
        with pytest.raises(ValueError, match="unknown request-envelope keys"):
            api.parse_request_payload({"requests": [], "sweep": {}})
        with pytest.raises(ValueError, match="workload"):
            api.parse_request_payload({"backend": "analytical"})
        # A field on two axes, and an axis without values.
        with pytest.raises(ValueError, match="more than one axis"):
            api.parse_request_payload({
                "workloads": ["sha"],
                "axes": {"width": [1, 2], "width,l2_size": [[3, 131072]]},
            })
        with pytest.raises(ValueError, match="has no values"):
            api.parse_request_payload({"workloads": ["sha"],
                                       "axes": {"width": []}})


class TestEvalCLI:
    def _run(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            exit_code = cli_main(argv)
        assert exit_code == 0
        return stdout.getvalue()

    def test_eval_request_file_text_and_csv(self, tmp_path):
        request_file = tmp_path / "request.json"
        request_file.write_text(json.dumps({
            "workloads": ["sha"],
            "machine": {"preset": "paper_default"},
            "axes": {"width": [1, 4]},
            "backends": ["analytical", "simulator"],
        }))
        text = self._run(["eval", str(request_file)])
        assert "repro.api evaluation — 4 request(s)" in text
        assert "simulator" in text
        csv_output = self._run(["eval", str(request_file), "--format", "csv"])
        lines = csv_output.strip().splitlines()
        assert lines[0].startswith("workload,flags,machine,backend")
        assert len(lines) == 1 + 4

    def test_eval_json_is_lossless(self, tmp_path):
        request_file = tmp_path / "request.json"
        request_file.write_text(json.dumps({"workload": "sha",
                                            "with_power": True}))
        payload = json.loads(self._run(["eval", str(request_file),
                                        "--format", "json"]))
        result = api.EvalResult.from_dict(payload["metadata"]["results"][0])
        direct = api.evaluate(api.EvalRequest.from_dict(
            {"workload": "sha", "with_power": True}))
        assert result == direct

    def test_session_summary_reports_group_routing(self, tmp_path):
        request_file = tmp_path / "request.json"
        request_file.write_text(json.dumps({
            "workloads": ["sha", "dijkstra"],
            "machines": ["paper_default", "big_l2_1mb"],
            "backends": ["analytical", "simulator"],
        }))
        work = {}
        for jobs, routed in (("1", "groups_inline=0 groups_pooled=0"),
                             ("2", "groups_inline=0 groups_pooled=2")):
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                assert cli_main(["eval", str(request_file),
                                 "--jobs", jobs]) == 0
            assert routed in stderr.getvalue()
            work[jobs] = {
                event: re.search(rf"\b{event}=(\d+)", stderr.getvalue())[1]
                for event in ("workloads_compiled", "traces_generated",
                              "miss_profiles_built", "sim_event_sets_built",
                              "sim_timing_loops_run")
            }
        # The pool workers' work is counted in the parent's report, the
        # same as when the parent does it all.
        assert work["2"] == work["1"]
        assert work["2"]["traces_generated"] == "2"
        assert work["2"]["miss_profiles_built"] != "0"
        assert work["2"]["sim_event_sets_built"] != "0"

    def test_eval_backends_flag(self):
        output = self._run(["eval", "--backends"])
        for name in api.backend_names():
            assert name in output

    def test_eval_without_requests_errors(self):
        with pytest.raises(SystemExit, match="request file"):
            cli_main(["eval"])

    def test_eval_bad_file_is_a_clean_exit(self, tmp_path):
        request_file = tmp_path / "bad.json"
        request_file.write_text(json.dumps({"workload": "sha", "wierd": 1}))
        with pytest.raises(SystemExit, match="wierd"):
            cli_main(["eval", str(request_file)])

    def test_eval_unresolvable_names_are_clean_exits(self, tmp_path):
        # Semantic errors (valid JSON, unknown names) must exit cleanly
        # too, not escape as tracebacks from the evaluation layer.
        for payload, match in (
            ({"workload": "sha", "machine": {"preset": "warp_drive"}},
             "unknown machine preset"),
            ({"workload": "nonesuch"}, "unknown workload"),
            ({"workload": "sha", "backend": "quantum"},
             "unknown evaluation backend"),
            ({"workload": "sha", "machine": {"l2_size": True}},
             "size must be"),
        ):
            request_file = tmp_path / "semantic.json"
            request_file.write_text(json.dumps(payload))
            with pytest.raises(SystemExit, match=match):
                cli_main(["eval", str(request_file)])

    def test_eval_missing_file_is_a_clean_exit(self, tmp_path):
        with pytest.raises(SystemExit, match="nosuchfile"):
            cli_main(["eval", str(tmp_path / "nosuchfile.json")])
