"""The four benchmark workloads: set-up, one measured iteration, checks.

Each workload drives the program only through its public entry points
and owns its correctness checks: every operation it attempts is counted,
and one that raises, answers with an error or returns output that does
not match its reference is counted as failed.  An iteration returns its
raw timings (seconds) by kind; the runner scales them by the machine
speed it measured around the iteration.  See README.md beside this file
for why each workload exists and which layers it loads.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Long-trace shape: a synthetic workload ``LONG_SCALE`` times the
#: in-memory default (20k instructions), in chunks of ``LONG_CHUNK`` rows,
#: sampled every ``LONG_RATE``-th chunk and again at the nested rate.
LONG_SCALE = 10
LONG_CHUNK = 16384
LONG_RATE = 8
LONG_WARMUP = 3
LONG_WARMING = 2
#: The seed picks one of this many long-trace variants (recorded CPIs).
LONG_VARIANTS = 8

#: Served-sweep request shape: workloads and Table-2 points per request,
#: requests per measured block and how many of those repeat an earlier one.
SERVED_WORKLOADS = 2
SERVED_POINTS = 24
SERVED_BLOCK = 10
SERVED_REPEATS = 2

#: Warm Figure 3 reruns after each ``paper_repro`` pass: one would give a
#: run only three ``hit`` samples, too few for a steady median.
WARM_RERUNS = 3


def digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def medians_by_position(samples: list[float], size: int) -> list[float]:
    """Per-item medians of samples that repeat the same ``size`` items
    in order.  Items whose times differ by orders of magnitude make a
    percentile over single samples fall on whichever sample of one item
    was slowest; over per-item medians it does not."""
    return [statistics.median(samples[index::size]) for index in range(size)]


def percentile(values, pct: int) -> float:
    """``pct``-th percentile (``statistics.quantiles``' default method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


class Workload:
    """One workload: ``setup`` (repeatable), ``iteration``, metrics."""

    name = ""
    #: Iterations the runner makes at least, and the length of one
    #: measured unit (the runner stops and alternates tracing on unit
    #: boundaries).
    min_iterations = 2
    cycle = 1
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 5

    def __init__(self, seed: int, quick: bool, expected: dict, tmp: Path):
        self.seed = seed
        self.quick = quick
        self.size = "quick" if quick else "full"
        self.expected = expected.get(self.name, {}).get(self.size)
        self.tmp = tmp
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: Speed-normalized timings by kind: ``wall`` (what ``wall_s``
        #: reports), ``latency`` (cold operations), ``hit`` (warm repeats).
        self.samples: dict[str, list[float]] = {
            "wall": [], "latency": [], "hit": []}
        #: Design points (or the workload's unit of answer) per wall sample.
        self.points_per_wall = 1

    # Subclasses implement these.
    def setup(self) -> None:
        raise NotImplementedError

    def release(self) -> None:
        """Drop what an earlier :meth:`setup` built (before the next one)."""

    def prepare(self) -> None:
        """Untimed step between the last set-up and the first iteration."""

    def iteration(self) -> dict[str, list[float]]:
        raise NotImplementedError

    def verify(self) -> None:
        """Untimed checks after the last iteration."""

    def accuracy(self) -> dict[str, float] | None:
        """Figure 3/5 accuracy when the workload computed it itself."""
        return None

    def layer_metrics(self, units: int) -> dict[str, float]:
        """Per-layer figures the workload reads from the program itself."""
        return {}

    # Helpers.
    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def guarded(self, what: str, call):
        """``call()``, with an exception counted as a failed operation."""
        try:
            return call()
        except Exception as exc:  # a failing operation is a result, not a crash
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")
            return None

    def walls(self) -> list[float]:
        return self.samples["wall"]

    def latencies(self) -> list[float]:
        return self.samples["latency"]

    def end_to_end(self) -> dict[str, float]:
        wall = statistics.median(self.walls())
        latencies = self.latencies()
        return {
            "wall_s": wall,
            "points_per_s": self.points_per_wall / wall,
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p90_ms": percentile(latencies, 90) * 1e3,
            "hit_latency_p50_ms": percentile(self.samples["hit"], 50) * 1e3,
        }


# ----------------------------------------------------------------------
# paper_repro
# ----------------------------------------------------------------------
def experiment_overrides(spec, quick: bool) -> dict:
    """The smoke preset, cut to its first benchmark in quick mode."""
    if quick and "benchmarks" in spec.smoke:
        return {"benchmarks": tuple(spec.smoke["benchmarks"][:1])}
    return {}


def accuracy_of(results: dict) -> dict[str, float]:
    fig3 = results["figure3"].metadata
    fig5 = results["figure5"].metadata
    return {
        "fig3_err_avg_pct": fig3["average_absolute_error"] * 100.0,
        "fig5_err_avg_pct": fig5["average_absolute_error"] * 100.0,
        "fig5_err_max_pct": fig5["maximum_absolute_error"] * 100.0,
    }


class PaperRepro(Workload):
    """All nine experiments at their smoke preset on a fresh session.

    One iteration runs one experiment; a unit is a pass over all nine in
    registry order on a fresh session, followed by Figure 3 again on the
    warm session, :data:`WARM_RERUNS` times (the ``hit`` timings).
    """

    name = "paper_repro"
    #: A cold interpreter start varies most from one try to the next.
    setup_repeats = 9
    #: What a ``repro-experiments run`` process imports before any work.
    IMPORTS = ("import repro.cli, repro.experiments; "
               "from repro.accel import get_kernels; get_kernels(); "
               "from repro.runtime.session import Session; Session()")

    def __init__(self, *args):
        super().__init__(*args)
        from repro.runtime import registry

        self.registry = registry
        self.specs = [registry.get_experiment(name)
                      for name in registry.experiment_names()]
        self.cycle = len(self.specs) + WARM_RERUNS
        # Three passes, so each experiment's median time is a median of three.
        self.min_iterations = 3 * self.cycle
        self.points_per_wall = len(self.specs)
        self.step = 0
        self.session = None
        self.results: dict = {}

    def setup(self) -> None:
        # Set-up is the cold start a user pays on every run: a fresh
        # interpreter importing the CLI, the experiments and the kernels.
        subprocess.run([sys.executable, "-c", self.IMPORTS], check=True,
                       timeout=120, cwd=ROOT)

    def _run(self, spec):
        result = self.guarded(spec.name, lambda: self.registry.run_experiment(
            self.session, spec.name, smoke=True,
            overrides=experiment_overrides(spec, self.quick)))
        if result is None:
            return None
        if spec.deterministic:
            want = (self.expected or {}).get(spec.name)
            self.check(digest(result.to_dict()) == want,
                       f"{spec.name}: result differs from the recorded digest")
        else:
            self.check(bool(result.rows), f"{spec.name}: empty result")
        return result

    def iteration(self) -> dict[str, list[float]]:
        from repro.runtime.session import Session

        step = self.step % self.cycle
        self.step += 1
        if step == 0:
            self.session = Session(jobs=1)
        # The last steps are the warm path: Figure 3 again on the session
        # that now holds every trace and profile (the simulator reruns).
        warm = step >= len(self.specs)
        spec = self.registry.get_experiment("figure3") if warm \
            else self.specs[step]
        begin = time.perf_counter()
        with self.span(f"experiments.{spec.name}"):
            result = self._run(spec)
        elapsed = time.perf_counter() - begin
        if warm:
            return {"hit": [elapsed]}
        if result is not None:
            self.results[spec.name] = result
        return {"latency": [elapsed]}

    def walls(self) -> list[float]:
        """One pass's wall time: the sum of its nine experiments."""
        latencies = self.samples["latency"]
        size = len(self.specs)
        return [sum(latencies[start:start + size])
                for start in range(0, len(latencies) - size + 1, size)]

    def latencies(self) -> list[float]:
        """Each experiment's median time over the passes."""
        return medians_by_position(self.samples["latency"], len(self.specs))

    def accuracy(self) -> dict[str, float] | None:
        if "figure3" in self.results and "figure5" in self.results:
            return accuracy_of(self.results)
        return None


# ----------------------------------------------------------------------
# table2_sweep
# ----------------------------------------------------------------------
def canonical_results(results, order) -> list[dict]:
    """Results of a shuffled batch back in Table-2 x workload order."""
    canonical = [None] * len(results)
    for position, index in enumerate(order):
        canonical[index] = results[position].to_dict()
    return canonical


class Table2Sweep(Workload):
    """The full Table-2 space x MiBench through ``evaluate_many``."""

    name = "table2_sweep"

    def setup(self) -> None:
        from repro.dse.space import default_design_space
        from repro.runtime.session import Session
        from repro.workloads.registry import suite_names

        names = suite_names("mibench")
        if self.quick:
            names = names[:2]
        source = Session()
        self.payloads = {}
        for name in names:
            self.payloads[name] = source.trace(name).to_payload()
            source.program_profile(source.workload(name))
        requests = default_design_space().to_sweep(names).expand()
        # The seed orders the batch; the planner must regroup it.
        self.order = list(range(len(requests)))
        random.Random(self.seed).shuffle(self.order)
        self.requests = [requests[index] for index in self.order]
        self.points_per_wall = len(self.requests)
        #: Workload -> its positions in the batch, in seeded order.
        self.groups: dict[str, list[int]] = {}
        for position, request in enumerate(self.requests):
            self.groups.setdefault(request.workload.name, []).append(position)

    def fresh_session(self):
        """A session holding fresh trace objects: engine passes start cold."""
        from repro.runtime.session import Session
        from repro.trace.trace import Trace

        session = Session()
        for name, payload in self.payloads.items():
            workload = session.adopt_trace(name, "O3",
                                           Trace.from_payload(payload))
            session.program_profile(workload)
        return session

    def iteration(self) -> dict[str, list[float]]:
        import repro.api as api

        session = self.fresh_session()
        begin = time.perf_counter()
        cold = self.guarded("cold sweep", lambda: api.evaluate_many(
            self.requests, session=session))
        elapsed = time.perf_counter() - begin
        timings = {"wall": [elapsed], "latency": [], "hit": []}
        canonical = None
        if cold is not None:
            canonical = canonical_results(cold, self.order)
            self.check(digest(canonical) == self.expected,
                       "cold sweep differs from the recorded digest")
        # The warm sweep is short: two per cold one steady its median.
        for _ in range(2):
            begin = time.perf_counter()
            warm = self.guarded("warm sweep", lambda: api.evaluate_many(
                self.requests, session=session))
            timings["hit"].append(time.perf_counter() - begin)
            if canonical is not None and warm is not None:
                self.check(canonical == canonical_results(warm, self.order),
                           "warm sweep differs from the cold sweep")
        # Latency: each workload's 192 points as a batch of its own, cold,
        # on another fresh session; one sweep gives only one sample.
        session = self.fresh_session()
        for positions in self.groups.values():
            batch = [self.requests[position] for position in positions]
            begin = time.perf_counter()
            answer = self.guarded("workload sweep", lambda: api.evaluate_many(
                batch, session=session))
            timings["latency"].append(time.perf_counter() - begin)
            if cold is not None and answer is not None:
                self.check([result.to_dict() for result in answer]
                           == [cold[position].to_dict()
                               for position in positions],
                           "workload sweep differs from the full sweep")
        return timings

    def latencies(self) -> list[float]:
        """Each workload's median batch time over the iterations."""
        return medians_by_position(self.samples["latency"], len(self.groups))


# ----------------------------------------------------------------------
# served_sweep
# ----------------------------------------------------------------------
class ServedSweep(Workload):
    """One closed-loop client against a two-worker evaluation server."""

    name = "served_sweep"

    def __init__(self, *args):
        super().__init__(*args)
        from repro.dse.space import default_design_space
        from repro.workloads.registry import suite_names

        self.names = suite_names("mibench")
        self.machines = [machine.to_dict() for machine in
                         default_design_space().to_sweep(()).machines]
        self.workloads_per = 1 if self.quick else SERVED_WORKLOADS
        self.points_per = 8 if self.quick else SERVED_POINTS
        self.points_per_wall = (SERVED_BLOCK * self.workloads_per
                                * self.points_per)
        self.rng = random.Random(self.seed)
        self.issued: list[dict] = []
        #: digest of a request -> digest of its first answer's results.
        self.answers: dict[str, str] = {}
        self.server = None
        self.cache_dir = None

    def _fresh_request(self) -> dict:
        workloads = sorted(self.rng.sample(self.names, self.workloads_per))
        points = sorted(self.rng.sample(range(len(self.machines)),
                                        self.points_per))
        return {"workloads": workloads,
                "machines": [self.machines[index] for index in points]}

    def _block(self) -> list[tuple[dict, bool]]:
        """One block: a fresh request first, then fresh and repeated ones
        in seeded order (a repeat names a request already sent)."""
        kinds = [False] * (SERVED_BLOCK - 1 - SERVED_REPEATS)
        kinds += [True] * SERVED_REPEATS
        self.rng.shuffle(kinds)
        block = [(self._fresh_request(), False)]
        for repeat in kinds:
            if repeat:
                sent = self.issued + [request for request, again in block
                                      if not again]
                block.append((self.rng.choice(sent), True))
            else:
                block.append((self._fresh_request(), False))
        return block

    def setup(self) -> None:
        from repro.service.client import ServiceClient
        from repro.service.server import ServerThread, ServiceConfig

        self.cache_dir = tempfile.mkdtemp(prefix="served-", dir=self.tmp)
        self.server = ServerThread(ServiceConfig(port=0, jobs=2,
                                                 cache_dir=self.cache_dir))
        self.server.start()
        self.client = ServiceClient(port=self.server.port)
        # Warm the traces into the server's own session: a one-workload
        # batch runs in the server process, so later multi-workload
        # batches ship its traces to the pool through the data plane.
        default = self.machines[0]
        for name in self.names:
            self.client.sweep({"workloads": [name], "machines": [default]})

    def release(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def prepare(self) -> None:
        self.baseline = self.client.metrics()

    def iteration(self) -> dict[str, list[float]]:
        timings: dict[str, list[float]] = {"latency": [], "hit": []}
        started = time.perf_counter()
        for request, repeat in self._block():
            begin = time.perf_counter()
            results = self.guarded("sweep request",
                                   lambda: self.client.sweep(request))
            elapsed = time.perf_counter() - begin
            if results is None:
                continue
            timings["hit" if repeat else "latency"].append(elapsed)
            if not repeat:
                self.issued.append(request)
            answer = digest([result.to_dict() for result in results])
            first = self.answers.setdefault(digest(request), answer)
            self.check(first == answer, "repeat differs from first answer")
        timings["wall"] = [time.perf_counter() - started]
        return timings

    def verify(self) -> None:
        """Every distinct request, answered in-process, must match."""
        import repro.api as api
        from repro.api.sweep import SweepRequest
        from repro.runtime.session import Session

        session = Session()
        for key, request in {digest(r): r for r in self.issued}.items():
            local = self.guarded("in-process reference", lambda: (
                api.evaluate_many(SweepRequest.from_dict(request).expand(),
                                  session=session)))
            if local is not None:
                self.check(
                    digest([result.to_dict() for result in local])
                    == self.answers.get(key),
                    "served answer differs from in-process evaluate_many")

    def layer_metrics(self, units: int) -> dict[str, float]:
        metrics = self.client.metrics()
        before = self.baseline["session"]
        after = metrics["session"]
        values = {
            f"runtime.{stage}_s":
                (after["stages"].get(stage, 0.0)
                 - before["stages"].get(stage, 0.0)) / units
            for stage in ("ship", "attach", "profile", "model", "collect")
        }
        for field in ("hits", "misses"):
            values[f"runtime.cache_{field}"] = (
                after["artifact_cache"][field]
                - before["artifact_cache"][field])
        server_p50 = metrics["endpoints"]["POST /v1/sweep"]["latency_ms"]["p50"]
        client_p50 = statistics.median(self.samples["latency"]
                                       + self.samples["hit"])
        values.update({
            "service.server_ms_p50": server_p50,
            "service.queue_wait_ms_p50": metrics["queue_wait_ms"]["p50"],
            "service.transport_ms_p50": client_p50 * 1e3 - server_p50,
            "service.result_cache_hit_ratio": metrics["cache"]["hit_rate"],
        })
        return values


# ----------------------------------------------------------------------
# long_trace
# ----------------------------------------------------------------------
def long_spec(variant: int | None):
    """The long synthetic workload of ``variant`` (None: the reference)."""
    from repro.workloads.synthetic import SyntheticWorkloadSpec

    if variant is None:
        return SyntheticWorkloadSpec(name="synthetic-long")
    return SyntheticWorkloadSpec(name=f"synthetic-long-{variant}",
                                 seed=7000 + variant)


def write_store(path: Path, spec, quick: bool):
    from repro.workloads.synthetic import generate_synthetic_store

    scale, chunk = (2, 4096) if quick else (LONG_SCALE, LONG_CHUNK)
    return generate_synthetic_store(path, spec, scale=scale,
                                    chunk_length=chunk)


def evaluate_long(chunked) -> dict[str, float]:
    """Sampled, nested-rate and exact CPI of a chunked trace, with the
    wall time of each step."""
    from repro.core.model import InOrderMechanisticModel
    from repro.machine import DEFAULT_MACHINE
    from repro.profiler.streaming import StreamingEngine
    from repro.runtime.session import Session

    session = Session()
    begin = time.perf_counter()
    sampled = session.sample_evaluate(
        chunked, DEFAULT_MACHINE, rate=LONG_RATE, warmup=LONG_WARMUP,
        warming=LONG_WARMING)
    middle = time.perf_counter()
    # Every interval of the nested rate was profiled above: all reused.
    nested = session.sample_evaluate(
        chunked, DEFAULT_MACHINE, rate=2 * LONG_RATE, warmup=LONG_WARMUP,
        warming=LONG_WARMING)
    after_nested = time.perf_counter()
    engine = StreamingEngine(chunked)
    exact = InOrderMechanisticModel(DEFAULT_MACHINE).predict(
        engine.program_profile(), engine.miss_profile(DEFAULT_MACHINE))
    end = time.perf_counter()
    return {"sampled_cpi": sampled.cpi, "nested_cpi": nested.cpi,
            "exact_cpi": exact.cpi, "sampled_s": middle - begin,
            "nested_s": after_nested - middle, "wall_s": end - begin}


class LongTrace(Workload):
    """Sampled and exact evaluation of a chunked synthetic store."""

    name = "long_trace"
    #: Writing the store takes seconds: three set-ups already steady it.
    setup_repeats = 3

    def __init__(self, *args):
        super().__init__(*args)
        self.variant = self.seed % LONG_VARIANTS
        self.points_per_wall = 3
        self.store = None
        self.store_mb = 0.0

    def setup(self) -> None:
        self.store = Path(tempfile.mkdtemp(prefix="long-", dir=self.tmp))
        self.chunked = write_store(self.store / "store",
                                   long_spec(self.variant), self.quick)
        self.store_mb = sum(path.stat().st_size
                            for path in self.store.rglob("*")
                            if path.is_file()) / 2**20

    def release(self) -> None:
        if self.store is not None:
            shutil.rmtree(self.store, ignore_errors=True)
            self.store = None

    def iteration(self) -> dict[str, list[float]]:
        run = self.guarded("long evaluation",
                           lambda: evaluate_long(self.chunked))
        if run is None:
            return {}
        want = (self.expected or {}).get(str(self.variant), {})
        for key in ("sampled_cpi", "nested_cpi", "exact_cpi"):
            self.check(run[key] == want.get(key),
                       f"{key} {run[key]!r} != recorded {want.get(key)!r}")
        return {"wall": [run["wall_s"]], "latency": [run["sampled_s"]],
                "hit": [run["nested_s"]]}

    def layer_metrics(self, units: int) -> dict[str, float]:
        return {"trace.store_mb": self.store_mb}


WORKLOADS = {cls.name: cls for cls in
             (PaperRepro, Table2Sweep, ServedSweep, LongTrace)}


# ----------------------------------------------------------------------
# Accuracy: deterministic, seed-independent, reported by every workload.
# ----------------------------------------------------------------------
def accuracy_probe(workload: Workload, expected: dict) -> dict[str, float]:
    """The four accuracy metrics, each checked against its record.

    Figure 3/5 come from the workload itself when it ran them
    (paper_repro) and from one smoke run of each otherwise.  The sampling
    error always comes from the fixed reference store, so it does not
    vary with the workload seed.
    """
    from repro.runtime import registry
    from repro.runtime.session import Session

    metrics = workload.accuracy()
    if metrics is None:
        # Untimed, so both CPUs may simulate: results do not depend on jobs.
        session = Session(jobs=2)
        results = {}
        for name in ("figure3", "figure5"):
            spec = registry.get_experiment(name)
            result = workload.guarded(name, lambda: registry.run_experiment(
                session, name, smoke=True,
                overrides=experiment_overrides(spec, workload.quick)))
            if result is None:
                session.close()
                return {}
            want = expected["paper_repro"][workload.size][name]
            workload.check(digest(result.to_dict()) == want,
                           f"{name}: result differs from the recorded digest")
            results[name] = result
        session.close()
        metrics = accuracy_of(results)
    with tempfile.TemporaryDirectory(dir=workload.tmp) as root:
        chunked = write_store(Path(root) / "store", long_spec(None),
                              workload.quick)
        run = workload.guarded("reference store",
                               lambda: evaluate_long(chunked))
    if run is None:
        return metrics
    want = expected["long_trace"][workload.size]["reference"]
    for key in ("sampled_cpi", "nested_cpi", "exact_cpi"):
        workload.check(run[key] == want[key],
                       f"reference {key} {run[key]!r} != {want[key]!r}")
    metrics["sample_cpi_err_pct"] = (
        abs(run["sampled_cpi"] - run["exact_cpi"]) / run["exact_cpi"] * 100.0)
    return metrics
