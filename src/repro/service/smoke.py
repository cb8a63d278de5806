"""End-to-end smoke check: serve, evaluate, shut down cleanly.

Run as ``make serve-smoke`` (or ``python -m repro.service.smoke``): starts
a server on an ephemeral port against a scratch cache directory, answers
one evaluation and one two-workload sweep through
:class:`~repro.service.client.ServiceClient` (the sweep's results must
equal in-process :func:`~repro.api.batch.evaluate_many`), verifies each
warm repeat is served from the result cache, and asserts the listener is
really gone after the graceful drain.  Exit code 0 means the
whole request path — HTTP, queue, workers, session, cache, shutdown — is
alive; any failure raises.
"""

from __future__ import annotations

import sys
import tempfile

from repro.api.batch import evaluate_many
from repro.api.sweep import SweepRequest
from repro.obs.log import get_logger
from repro.runtime.session import Session
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.server import ServerThread, ServiceConfig

_log = get_logger("repro.service.smoke")


def main(argv: list[str] | None = None) -> int:
    request = {"workload": "sha", "machine": {"preset": "paper_default"}}
    sweep = {"workloads": ["sha", "qsort"],
             "axes": {"l2_size": ["256KB", "1MB"]}}
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as cache_dir:
        with ServerThread(ServiceConfig(port=0, jobs=1,
                                        cache_dir=cache_dir)) as running:
            client = ServiceClient(port=running.port)
            health = client.wait_ready()
            assert health["status"] == "ok", health

            result = client.evaluate(request)
            assert result.workload == "sha" and result.cycles > 0, result

            # The identical request again: must hit the result cache.
            rerun = client.evaluate(request)
            assert rerun == result
            metrics = client.metrics()
            assert metrics["cache"]["hits"] >= 1, metrics["cache"]

            # A sweep: the compact body decodes to the in-process answer,
            # and its repeat is one more result-cache hit.
            served = client.sweep(sweep)
            expected = evaluate_many(SweepRequest.from_dict(sweep).expand(),
                                     session=Session(cache_dir=cache_dir))
            assert ([r.to_dict() for r in served]
                    == [r.to_dict() for r in expected]), "sweep differs"
            hits = client.metrics()["cache"]["hits"]
            assert client.sweep(sweep) == served
            assert client.metrics()["cache"]["hits"] == hits + 1

            port = running.port
        # The context has drained and stopped the server: the port is
        # closed, which the client reports as unavailable.
        try:
            ServiceClient(port=port, timeout=2.0).health()
        except ServiceUnavailable:
            pass
        else:
            raise AssertionError(f"server still accepting on port {port} "
                                 "after shutdown")
    _log.info("serve-smoke OK", cpi=round(result.cpi, 4),
              sweep_results=len(served), warm_repeat="cached",
              shutdown="clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
