"""Serving the search: ``POST /v1/optimize``, the CLI, and the executor.

The acceptance bar is byte-identity: for the same request and seed, the
in-process :func:`repro.search.optimize` JSON, the ``repro optimize
--format json`` stdout and the ``POST /v1/optimize`` response body are
the same bytes.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json

import pytest

from repro.search import OptimizeRequest, optimize
from repro.service import (
    EvalExecutor,
    ServerThread,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)


def _request_payload(**overrides) -> dict:
    payload = {
        "space": {"axes": [
            {"axis": "width", "values": [1, 2]},
            {"axis": "l2_size", "values": ["256KB", "1MB"]},
        ]},
        "workload": "sha",
        "objectives": ["edp"],
        "budget": 3,
        "batch": 2,
        "seed": 42,
        "tag": "served-search",
    }
    payload.update(overrides)
    return payload


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServiceConfig(
        port=0, jobs=1, max_queue=16,
        cache_dir=str(tmp_path_factory.mktemp("search-service-cache")),
    )
    with ServerThread(config) as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    client = ServiceClient(port=server.port)
    client.wait_ready()
    return client


class TestServedOptimize:
    def test_response_is_byte_identical_to_in_process_search(self, client):
        payload = _request_payload()
        served = client.optimize_raw(payload)
        direct = optimize(OptimizeRequest.from_dict(payload)).to_json()
        assert served == direct.encode("utf-8")

    def test_decoded_result_carries_front_and_best(self, client):
        result = client.optimize(_request_payload(seed=7))
        assert result.evaluations <= 3
        assert result.best is not None
        assert result.best["index"] in [e["index"] for e in result.front]
        assert result.request.tag == "served-search"

    def test_repeat_request_is_answered_from_the_cache(self, client):
        payload = _request_payload(seed=9, tag="cache-probe")
        first = client.optimize_raw(payload)
        hits_before = client.metrics()["cache"]["hits"]
        second = client.optimize_raw(payload)
        assert second == first
        assert client.metrics()["cache"]["hits"] == hits_before + 1

    def test_infeasible_constraint_is_a_400_naming_the_field(self, client):
        with pytest.raises(ServiceError) as info:
            client.optimize(_request_payload(constraints=["l2_size<=1KB"]))
        assert info.value.status == 400
        assert "constraints[0]" in info.value.message
        assert "infeasible" in info.value.message

    def test_unknown_strategy_is_a_400(self, client):
        # The policy follows from the budget; a request naming one names
        # an unknown key.  (The raw body: the client itself would refuse
        # to encode such a request.)
        body = json.dumps(_request_payload(strategy="random"))
        status, answer = client._request("POST", "/v1/optimize",
                                         body.encode("utf-8"))
        assert status == 400
        assert "unknown optimize-request keys ['strategy']" in \
            json.loads(answer.decode("utf-8"))["error"]

    def test_malformed_body_is_a_400(self, client):
        status, body = client._request("POST", "/v1/optimize",
                                       b'{"space": 5}')
        assert status == 400
        assert "workload" in json.loads(body.decode("utf-8"))["error"]


class TestCliOptimize:
    def test_json_output_matches_service_bytes(self, client, tmp_path):
        from repro.cli import main as cli_main

        payload = _request_payload(seed=13, tag="cli-parity")
        request_file = tmp_path / "request.json"
        request_file.write_text(json.dumps(payload))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            exit_code = cli_main([
                "optimize", str(request_file), "--format", "json",
                "--cache-dir", str(tmp_path / "cache"),
            ])
        assert exit_code == 0
        served = client.optimize_raw(payload).decode("utf-8")
        assert stdout.getvalue() == served + "\n"

    def test_text_output_reports_front_and_best(self, tmp_path):
        from repro.cli import main as cli_main

        request_file = tmp_path / "request.json"
        request_file.write_text(json.dumps(_request_payload()))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            exit_code = cli_main([
                "optimize", str(request_file),
                "--cache-dir", str(tmp_path / "cache"),
            ])
        assert exit_code == 0
        text = stdout.getvalue()
        # budget 3 < 4 points: the size rule picks random search.
        assert "strategy=random" in text
        assert "best:" in text

    def test_invalid_request_exits_with_named_field_error(self, tmp_path):
        from repro.cli import main as cli_main

        request_file = tmp_path / "request.json"
        request_file.write_text(json.dumps(
            _request_payload(constraints=["l2_size<=1KB"])))
        with pytest.raises(SystemExit, match="constraints\\[0\\]"):
            with contextlib.redirect_stdout(io.StringIO()):
                cli_main(["optimize", str(request_file),
                          "--cache-dir", str(tmp_path / "cache")])


class TestExecutorCalls:
    def test_submit_call_runs_on_the_session_and_resolves(self):
        async def scenario():
            executor = EvalExecutor(session=None, jobs=1, max_queue=4,
                                    runner=lambda requests: list(requests))
            executor.start()
            value = await executor.submit_call(
                lambda session: ("ran", session))
            await executor.drain()
            return value

        assert asyncio.run(scenario()) == ("ran", None)

    def test_submit_call_exception_surfaces_on_future(self):
        def boom(session):
            raise RuntimeError("search exploded")

        async def scenario():
            executor = EvalExecutor(session=None, jobs=1, max_queue=4,
                                    runner=lambda requests: list(requests))
            executor.start()
            with pytest.raises(RuntimeError, match="search exploded"):
                await executor.submit_call(boom)
            await executor.drain()

        asyncio.run(scenario())
