"""Repository benchmark: end-to-end and per-layer metrics, with checks.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table2_sweep --seed 1 \\
        --seconds 10 --trace 0

The workloads (``paper_repro``, ``table2_sweep``, ``served_sweep``,
``long_trace``) are described in README.md beside this file.  A run sets
its workload up several times (``setup_s`` is the median), then measures
iterations for ``--seconds`` (at least two measured units, three passes
for ``paper_repro``), then checks every output it produced.  ``--trace 0``
reports the end-to-end metrics named in BENCHMARK.json; ``--trace 1``
alternates untraced and traced units and reports the per-layer metrics
instead.  Every metric is printed by name with its value, unit and
better direction; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--list`` prints the metric catalogue, with the end-to-end metric and
workload each per-layer metric should move; ``--record`` rewrites the
reference outputs in expected.json from the current program; ``--quick``
runs a workload at its minimal size (the self-test uses it).

The benchmark itself runs in a child process; this process only waits
for it and then for every process it started (see :func:`supervise`), so
no pool worker or multiprocessing helper outlives a run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
#: Set in the environment of the child process that runs the benchmark.
CHILD_ENV = "PERFBENCH_CHILD"
#: Seconds left to processes the benchmark started to end on their own
#: (the multiprocessing resource tracker ends once its parent has) before
#: they are killed.
REAP_GRACE_S = 10.0
PR_SET_CHILD_SUBREAPER = 36
ADDR_NO_RANDOMIZE = 0x0040000
#: What :class:`SpeedProbe` takes on an otherwise idle reference host.
PROBE_REFERENCE_S = 0.022

#: Reported self-time metrics -> the span names they sum.  With
#: ``experiments.self_s`` (every ``experiments.*`` span) they cover every
#: span the tracer records, so they add up, with ``unattributed_s``, to
#: ``traced_wall_s``.
SELF_METRICS = {
    "workloads.trace_s": ("workloads.trace",),
    "pipeline.inorder_s": ("pipeline.inorder",),
    "pipeline.ooo_s": ("pipeline.ooo",),
    "accel.base_s": ("accel.base",),
    "accel.l2_s": ("accel.l2",),
    "accel.branch_s": ("accel.branch",),
    "accel.dependency_s": ("accel.dependency",),
    "accel.mix_s": ("accel.mix",),
    "profiler.program_profile_s": ("profiler.program_profile",),
    "profiler.miss_profile_s": ("profiler.miss_profile",),
    "profiler.stream_walk_s": ("profiler.stream_walk",),
    "core.predict_s": ("core.predict",),
    "api.self_s": ("api.evaluate_many", "api.planner"),
    "sampling.sample_s": ("sampling.sample",),
    "trace.store_write_s": ("trace.store_write",),
    "service.client_s": ("service.client",),
}

#: Span self times counted as model work in ``model_vs_sim_ratio``.
MODEL_SPANS = ("profiler.program_profile", "profiler.miss_profile",
               "accel.base", "accel.l2", "accel.branch", "accel.dependency",
               "accel.mix", "core.predict", "api.evaluate_many",
               "api.planner")

EXPERIMENTS = ("table2", "figure3", "figure4", "figure5", "figure6",
               "figure7", "figure8", "figure9", "speedup")

#: Per-layer metric (or prefix) -> what it should move, for ``--list``.
MOVES = {
    "workloads.": "wall_s@paper_repro, setup_s@table2_sweep/served_sweep",
    "pipeline.": "wall_s@paper_repro (no move elsewhere)",
    "accel.": "points_per_s@table2_sweep, latency_p50_ms@served_sweep, "
              "wall_s@long_trace",
    "profiler.stream_walk_s": "wall_s@long_trace",
    "profiler.": "points_per_s@table2_sweep",
    "core.": "points_per_s@table2_sweep",
    "api.": "points_per_s@table2_sweep, latency_p50_ms@served_sweep",
    "runtime.": "latency_p90_ms@served_sweep (zero at jobs=1)",
    "service.": "hit_latency_p50_ms, latency_p50_ms@served_sweep",
    "trace.": "setup_s@long_trace",
    "sampling.": "wall_s@long_trace",
    "experiments.": "wall_s@paper_repro",
    "model_vs_sim_ratio": "reported, not gated (a faster simulator lowers it)",
    "unattributed_s": "time outside every span (per workload)",
    "traced_wall_s": "= sum of *_s self times + unattributed_s",
    "tracing_overhead_pct": "traced against untraced iteration wall",
}


def catalogue() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def moves(name: str) -> str:
    for prefix, target in MOVES.items():
        if name == prefix or (prefix.endswith(".") and name.startswith(prefix)):
            return target
    return ""


def print_catalogue() -> None:
    bench = catalogue()
    for kind in ("end_to_end", "per_layer"):
        print(f"# {kind}")
        for metric in bench[kind]:
            target = moves(metric["name"]) if kind == "per_layer" else ""
            print(f"{metric['name']:34s} {metric['unit']:8s} "
                  f"{metric['better']:7s} {target}")


def use_checkout_source(tmp: Path) -> None:
    """Import the program from this checkout and keep temp files in it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}")
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Per-layer metrics.
# ----------------------------------------------------------------------
def per_unit(tracer, walls: list[float]) -> dict:
    """Tracer totals divided by the number of traced units."""
    units = len(walls)

    def scale(values: dict) -> dict:
        return {key: value / units for key, value in values.items()}

    return {"self": scale(tracer.self_times()),
            "inclusive": scale(tracer.inclusive_times()),
            "calls": scale(tracer.calls), "counts": scale(tracer.counts),
            "wall": sum(walls) / units}


def combined(*parts: dict) -> dict:
    total = {"self": {}, "inclusive": {}, "calls": {}, "counts": {},
             "wall": 0.0}
    for part in parts:
        total["wall"] += part["wall"]
        for kind in ("self", "inclusive", "calls", "counts"):
            for key, value in part[kind].items():
                total[kind][key] = total[kind].get(key, 0.0) + value
    return total


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: dict, traced: list[float],
                  untraced: list[float]) -> dict[str, float]:
    own = totals["self"]
    inclusive = totals["inclusive"]
    calls = totals["calls"]
    counts = totals["counts"]
    known = {span for spans in SELF_METRICS.values() for span in spans}
    stray = [name for name in own
             if name not in known and not name.startswith("experiments.")]
    if stray:
        raise RuntimeError(f"spans without a self-time metric: {stray}")
    values = {metric: sum(own.get(span, 0.0) for span in spans)
              for metric, spans in SELF_METRICS.items()}
    values["experiments.self_s"] = sum(
        value for name, value in own.items() if name.startswith("experiments."))
    for experiment in EXPERIMENTS:
        values[f"experiments.{experiment}_s"] = inclusive.get(
            f"experiments.{experiment}", 0.0)
    for kind in ("base", "l2", "branch", "dependency", "mix"):
        values[f"accel.{kind}_calls"] = calls.get(f"accel.{kind}", 0.0)
    built = counts.get("profiler.passes_built", 0.0)
    points = counts.get("core.points", 0.0)
    simulated = calls.get("pipeline.inorder", 0.0)
    model_s = sum(own.get(span, 0.0) for span in MODEL_SPANS)
    values.update({
        "workloads.instr_per_s": ratio(
            counts.get("workloads.instructions", 0.0),
            own.get("workloads.trace", 0.0)),
        "pipeline.inorder_calls": simulated,
        "pipeline.sim_instr_per_s": ratio(
            counts.get("pipeline.instructions", 0.0),
            inclusive.get("pipeline.inorder", 0.0)),
        "profiler.passes_built": built,
        "profiler.passes_reused": max(
            0.0, counts.get("profiler.pass_lookups", 0.0) - built),
        "profiler.points_per_pass": ratio(points, built),
        "core.predict_calls": calls.get("core.predict", 0.0),
        "core.points": points,
        "api.evaluate_many_s": inclusive.get("api.evaluate_many", 0.0),
        "sampling.intervals_built": counts.get("sampling.intervals_built",
                                               0.0),
        "sampling.intervals_reused": counts.get("sampling.intervals_reused",
                                                0.0),
        "model_vs_sim_ratio": ratio(
            ratio(inclusive.get("pipeline.inorder", 0.0), simulated),
            ratio(model_s, points)),
        "traced_wall_s": totals["wall"],
        "unattributed_s": totals["wall"] - sum(own.values()),
        "tracing_overhead_pct": (statistics.median(traced)
                                 / statistics.median(untraced) - 1.0) * 100.0,
    })
    return values


# ----------------------------------------------------------------------
# One run.
# ----------------------------------------------------------------------
class SpeedProbe:
    """Host speed, measured around every timed step.

    Other tenants of a shared host slow this process down by tens of
    percent for seconds to minutes at a time.  The probe times a fixed
    mix of the kinds of work the program does (integer arithmetic in
    the interpreter, dictionary lookups over a few megabytes, a NumPy
    sort) just before and just after each step; the step's timings are
    scaled by :data:`PROBE_REFERENCE_S` over the probe's mean, i.e.
    reported in seconds of a host on which the probe takes
    :data:`PROBE_REFERENCE_S`.
    """

    def __init__(self):
        import random

        import numpy

        self._sort = numpy.sort
        self._values = numpy.random.default_rng(2012).integers(
            0, 1 << 30, 200_000)
        draw = random.Random(2012).randrange
        self._addresses = [draw(1 << 20) for _ in range(60_000)]
        self.factors: list[float] = []
        self.measure()  # the first call pays one-time costs

    def measure(self) -> float:
        begin = time.perf_counter()
        total = 0
        for value in range(150_000):
            total += value * value % 7
        lines: dict[int, int] = {}
        for address in self._addresses:
            lines.setdefault(address >> 4, address)
        self._sort(self._values)
        return time.perf_counter() - begin

    def timed(self, step):
        """``(step(), raw seconds, speed factor)``.  One probe on each
        side: the host's speed changes within a second, so probes further
        from the step (a median of several) track it worse.

        The garbage of earlier steps is collected first, so that when the
        collector runs inside a step depends on that step alone, not on
        how much earlier ones left."""
        gc.collect()
        before = self.measure()
        begin = time.perf_counter()
        result = step()
        raw = time.perf_counter() - begin
        factor = PROBE_REFERENCE_S / ((before + self.measure()) / 2)
        self.factors.append(factor)
        return result, raw, factor


@contextlib.contextmanager
def traced_by(tracer, workload):
    """Install ``tracer`` (when given) for the duration of one step."""
    if tracer is None:
        yield
        return
    tracer.install()
    workload.tracer = tracer
    try:
        yield
    finally:
        tracer.uninstall()
        workload.tracer = None


def run(args, tmp: Path) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS, accuracy_probe

    from repro.accel import active_backend

    bench = catalogue()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in bench[kind]}
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    workload = WORKLOADS[args.workload](args.seed, args.quick, expected, tmp)
    probe = SpeedProbe()
    origin = time.perf_counter()
    setup_tracer = Tracer() if args.trace else None
    iteration_tracer = Tracer() if args.trace else None
    #: (raw, speed-normalized) seconds per set-up and per measured unit.
    setups: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    untraced: list[tuple[float, float]] = []
    try:
        for repeat in range(1 if args.quick else workload.setup_repeats):
            if repeat:
                workload.release()
            with traced_by(setup_tracer, workload):
                _, raw, factor = probe.timed(workload.setup)
            setups.append((raw, raw * factor))
        workload.prepare()
        started = time.perf_counter()
        count = 0
        unit_raw = unit_scaled = 0.0
        while (count < workload.min_iterations or count % workload.cycle
               or time.perf_counter() - started < args.seconds):
            tracing = bool(args.trace) and (count // workload.cycle) % 2 == 1
            with traced_by(iteration_tracer if tracing else None, workload):
                samples, raw, factor = probe.timed(workload.iteration)
            for sample_kind, values in samples.items():
                workload.samples[sample_kind].extend(
                    value * factor for value in values)
            unit_raw += raw
            unit_scaled += raw * factor
            count += 1
            if count % workload.cycle == 0:
                (traced if tracing else untraced).append(
                    (unit_raw, unit_scaled))
                unit_raw = unit_scaled = 0.0
        rss = peak_rss_mb()
        workload.verify()
        if args.trace:
            metrics = dict.fromkeys(units, 0.0)
            metrics.update(layer_metrics(
                combined(per_unit(setup_tracer, [raw for raw, _ in setups]),
                         per_unit(iteration_tracer,
                                  [raw for raw, _ in traced])),
                [scaled for _, scaled in traced],
                [scaled for _, scaled in untraced]))
            metrics.update(workload.layer_metrics(len(traced) + len(untraced)))
            iteration_tracer.spans[:0] = setup_tracer.spans
            iteration_tracer.write(
                ROOT / ".perfbench_out"
                / f"spans-{args.workload}-{args.seed}.json", origin)
        else:
            metrics = workload.end_to_end()
            metrics.update(accuracy_probe(workload, expected))
            metrics.update({
                "setup_s": statistics.median(scaled for _, scaled in setups),
                "peak_rss_mb": rss,
                "ok_frac": 1.0 - workload.failed / workload.attempted,
            })
    finally:
        workload.release()
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(metrics))}, extra "
            f"{sorted(set(metrics) - set(units))}")
    for failure in workload.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    better = {metric["name"]: metric["better"] for metric in bench[kind]}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={count} setups={len(setups)} "
          f"backend={active_backend()} "
          f"speed={statistics.median(probe.factors):.3f}")
    for name in units:
        print(f"{name:34s} {metrics[name]:16.6f} {units[name]:8s} "
              f"({better[name]} is better)")
    return {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


# ----------------------------------------------------------------------
# Reference outputs.
# ----------------------------------------------------------------------
def record(tmp: Path) -> None:
    """Rewrite expected.json from the current program's outputs."""
    import repro.api as api
    from repro.runtime import registry
    from repro.runtime.session import Session
    from workloads import (LONG_VARIANTS, Table2Sweep, canonical_results,
                           digest, evaluate_long, experiment_overrides,
                           long_spec, write_store)

    expected: dict = {"paper_repro": {}, "table2_sweep": {}, "long_trace": {}}
    for size, quick in (("full", False), ("quick", True)):
        session = Session()
        expected["paper_repro"][size] = {}
        for name in registry.experiment_names():
            spec = registry.get_experiment(name)
            if spec.deterministic:
                result = registry.run_experiment(
                    session, name, smoke=True,
                    overrides=experiment_overrides(spec, quick))
                expected["paper_repro"][size][name] = digest(result.to_dict())
        sweep = Table2Sweep(0, quick, {}, tmp)
        sweep.setup()
        results = api.evaluate_many(sweep.requests,
                                    session=sweep.fresh_session())
        expected["table2_sweep"][size] = digest(
            canonical_results(results, sweep.order))
        stores = {"reference": None}
        stores.update({str(variant): variant
                       for variant in range(LONG_VARIANTS)})
        expected["long_trace"][size] = {}
        for key, variant in stores.items():
            with tempfile.TemporaryDirectory(dir=tmp) as root:
                outcome = evaluate_long(write_store(
                    Path(root) / "store", long_spec(variant), quick))
            expected["long_trace"][size][key] = {
                field: outcome[field]
                for field in ("sampled_cpi", "nested_cpi", "exact_cpi")}
        print(f"recorded {size}", file=sys.stderr)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Process supervision.
# ----------------------------------------------------------------------
def prepare_process() -> None:
    """Adopt orphaned descendants (``PR_SET_CHILD_SUBREAPER``) and start
    programs without address-space randomisation (``ADDR_NO_RANDOMIZE``).

    Both are Linux calls; where one is refused the run goes on without it.
    Randomised layouts made the same work take a few percent more or less
    time in one process than in the next.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
        current = libc.personality(0xFFFFFFFF)
        if current >= 0:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def children() -> list[int]:
    """Pids of this process's children, zombies included (from /proc)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the command name (which may hold spaces): state, ppid.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def group_alive(group: int) -> bool:
    try:
        os.killpg(group, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def reap(group: int) -> None:
    """Wait until every process of ``group`` and every child has ended;
    kill what still runs after :data:`REAP_GRACE_S`."""
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        with contextlib.suppress(ChildProcessError):
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        left = children()
        if not left and not group_alive(group):
            return
        if time.monotonic() > deadline:
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.killpg(group, signal.SIGKILL)
            for pid in left:
                with contextlib.suppress(ProcessLookupError, PermissionError):
                    os.kill(pid, signal.SIGKILL)
        time.sleep(0.02)


def scratch_dir(pid: int) -> Path:
    """Temporary files of the benchmark process ``pid``."""
    return ROOT / ".perfbench_tmp" / f"run-{pid}"


def supervise(argv: list[str]) -> int:
    """Run the benchmark in a child process group and outlive all of it.

    As subreaper this process inherits whatever the benchmark orphans
    (pool workers, the resource tracker), so it can wait for each one;
    a signal it receives is passed on to the whole group.
    """
    prepare_process()
    # A fixed hash seed: string hashing, and so dict and set layout, is
    # the same in every run instead of a source of run-to-run spread.
    env = {**os.environ, CHILD_ENV: "1", "PYTHONHASHSEED": "0"}
    child = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                              *argv], env=env, start_new_session=True)

    def forward(signum, _frame):
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(child.pid, signum)

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, forward)
    try:
        code = child.wait()
    finally:
        reap(child.pid)
        # Left behind when the child was killed before its own clean-up.
        shutil.rmtree(scratch_dir(child.pid), ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            scratch_dir(child.pid).parent.rmdir()
    return code if code >= 0 else 128 - code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not os.environ.get(CHILD_ENV):
        return supervise(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("paper_repro", "table2_sweep",
                                               "served_sweep", "long_trace"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="minimal workload size (self-test)")
    parser.add_argument("--list", action="store_true",
                        help="print the metric catalogue and exit")
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json and exit")
    args = parser.parse_args(argv)
    if args.list:
        print_catalogue()
        return 0
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    tmp = scratch_dir(os.getpid())
    try:
        use_checkout_source(tmp)
        if args.record:
            record(tmp)
            return 0
        result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            tmp.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
