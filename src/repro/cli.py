"""Command line entry point: ``repro-experiments`` (or ``python -m repro.cli``).

Subcommands:

* ``run [EXPERIMENT ...|all]`` — run experiments through a shared
  :class:`~repro.runtime.session.Session`; ``--jobs N`` shards the work
  across a process pool, ``--cache-dir`` persists traces and profiling
  state between invocations, ``--format`` selects the reporter and
  ``--full``/``--smoke`` apply uniformly to every experiment that declares
  the corresponding options in its registry metadata.
* ``eval [FILE ...]`` — answer declarative :mod:`repro.api` evaluation
  requests from JSON request files (single requests, request lists or
  parameter sweeps); ``--backends`` prints the backend capability matrix
  and the machine-preset table.
* ``optimize [FILE ...]`` — run :mod:`repro.search` design-space searches
  from JSON ``OptimizeRequest`` files; ``--format json`` prints exactly
  the ``POST /v1/optimize`` response body.
* ``serve`` — the long-lived evaluation service (:mod:`repro.service`):
  ``POST /v1/eval``/``/v1/sweep``/``/v1/optimize`` over a warm shared
  session, with ``--port/--jobs/--cache-dir/--max-queue`` and a graceful
  drain on Ctrl-C.
* ``chaos`` — the seeded resilience drill: attack live servers with
  fault plans (worker kills, cache corruption, slow reads) and assert
  the invariants — no hang, no wrong bytes, poison units quarantined,
  graceful serial degradation after the circuit breaker trips.
* ``cache`` — inspect (or ``--clear``) an artifact-cache directory.
* ``list`` — the experiment registry: names, artefacts, declared options.
* ``bench`` — the core hot-path benchmark (see :mod:`repro.bench`).
* ``obs`` — observability tooling: ``report`` prints a self-time
  breakdown of a span JSONL file, ``chrome`` wraps it for Perfetto.

``--trace-out spans.jsonl`` on ``run``/``eval``/``optimize``/``serve``
enables span tracing (parent and ``--jobs`` worker processes append to
the same file; view with ``repro-experiments obs report`` or Perfetto).

Tables go to stdout; diagnostics go to stderr through the structured
:mod:`repro.obs.log` logger (``REPRO_LOG={text,json}``), so redirected
output stays byte-identical between serial and parallel runs.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.obs.log import get_logger
from repro.runtime import (
    Session,
    experiment_names,
    get_experiment,
    pooled_session,
    render,
    render_many,
    run_experiment,
)
from repro.runtime.reporters import REPORTERS, format_table

_log = get_logger("repro.cli")


def _package_version() -> str:
    """The installed distribution version, or the source tree's fallback."""
    import importlib.metadata

    try:
        return importlib.metadata.version("repro-ispass2012-inorder-model")
    except importlib.metadata.PackageNotFoundError:
        from repro import __version__

        return __version__


def _add_trace_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="append tracing spans to FILE as Chrome trace-event JSONL "
             "(parent and worker processes share the file; view with "
             "'obs report' or Perfetto; default: the REPRO_TRACE_OUT "
             "environment variable, else disabled)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of 'A Mechanistic Performance "
            "Model for Superscalar In-Order Processors' (ISPASS 2012)."
        ),
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {_package_version()}",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="run one or more experiments (default: all)"
    )
    run_parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help="experiment names from 'list', or 'all' (the default)",
    )
    run_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard work across N worker processes (default: 1, serial)",
    )
    run_parser.add_argument(
        "--format", choices=sorted(REPORTERS), default="text",
        help="output format (default: text)",
    )
    run_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact cache directory; traces and profiling state are "
             "reused across runs (default: no on-disk cache)",
    )
    run_parser.add_argument(
        "--full", action="store_true",
        help="use the full 192-point design space in every experiment "
             "that declares the 'full' option (slow)",
    )
    run_parser.add_argument(
        "--smoke", action="store_true",
        help="apply each experiment's registered fast-subset preset",
    )
    _add_trace_out(run_parser)

    eval_parser = subparsers.add_parser(
        "eval",
        help="answer repro.api evaluation requests from JSON request files",
    )
    eval_parser.add_argument(
        "requests", nargs="*", metavar="FILE",
        help="JSON request files ('-' reads stdin); each may hold a single "
             "request, a request list, a sweep, or a "
             "{'requests': [...], 'sweeps': [...]} envelope",
    )
    eval_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard the batch across N worker processes (default: 1, serial)",
    )
    eval_parser.add_argument(
        "--format", choices=sorted(REPORTERS), default="text",
        help="output format (default: text)",
    )
    eval_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact cache directory shared with 'run' (default: none)",
    )
    eval_parser.add_argument(
        "--backends", action="store_true",
        help="print the backend capability matrix, machine presets and "
             "kernel backends, then exit",
    )
    _add_trace_out(eval_parser)

    optimize_parser = subparsers.add_parser(
        "optimize",
        help="run design-space searches from JSON OptimizeRequest files "
             "(see repro.search)",
    )
    optimize_parser.add_argument(
        "requests", nargs="*", metavar="FILE",
        help="JSON optimize-request files ('-' reads stdin); each may hold "
             "one request or a list of requests",
    )
    optimize_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard each evaluation batch across N worker processes "
             "(default: 1, serial; results are byte-identical either way)",
    )
    optimize_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format; json emits exactly the POST /v1/optimize "
             "response body (default: text)",
    )
    optimize_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact cache directory shared with 'run'/'eval' "
             "(default: none)",
    )
    _add_trace_out(optimize_parser)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the evaluation service (POST /v1/eval, /v1/sweep, "
             "/v1/optimize; GET /v1/health, /v1/metrics)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="address to bind (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=8765, metavar="PORT",
        help="port to bind; 0 picks an ephemeral port (default: 8765)",
    )
    serve_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="evaluation workers; batches also shard across N processes "
             "(default: 1)",
    )
    serve_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact cache directory shared with 'run'/'eval'; keeps "
             "traces and profiling state warm across restarts "
             "(default: in-memory only)",
    )
    serve_parser.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="bounded job-queue length; a full queue answers 503 "
             "(default: 64)",
    )
    serve_parser.add_argument(
        "--cache-capacity", type=int, default=1024, metavar="N",
        help="result-cache entries kept in memory (default: 1024)",
    )
    serve_parser.add_argument(
        "--cache-ttl", type=float, default=600.0, metavar="SECONDS",
        help="result-cache entry lifetime (default: 600)",
    )
    serve_parser.add_argument(
        "--cache-max-bytes", default="64MB", metavar="SIZE",
        help="result-cache byte budget, e.g. '64MB' (default: 64MB)",
    )
    serve_parser.add_argument(
        "--request-timeout", type=float, default=None, metavar="SECONDS",
        help="server-side deadline per evaluation request; past it the "
             "answer is 504 (sweeps include the partial results computed "
             "before the deadline) and the job is cancelled "
             "(default: unbounded)",
    )
    serve_parser.add_argument(
        "--rate-limit", type=float, default=0.0, metavar="RPS",
        help="sustained POST requests/second allowed per client IP; "
             "excess answers 429 with a Retry-After header "
             "(default: 0, unlimited)",
    )
    serve_parser.add_argument(
        "--rate-burst", type=int, default=0, metavar="N",
        help="burst allowance above --rate-limit "
             "(default: derived from the rate)",
    )
    serve_parser.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="install a fault-injection plan: a JSON file path or inline "
             "JSON (see repro.resilience.faults; default: the "
             "REPRO_FAULTS environment variable, else none)",
    )
    _add_trace_out(serve_parser)

    chaos_parser = subparsers.add_parser(
        "chaos",
        help="run the seeded chaos drill against live servers and assert "
             "the resilience invariants (no hang, no wrong bytes, "
             "quarantine, graceful degradation)",
    )
    chaos_parser.add_argument(
        "--seed", type=int, default=None, metavar="S",
        help="drill seed (default: 2012)",
    )
    chaos_parser.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="worker processes for the attacked servers (default: 2)",
    )
    chaos_parser.add_argument(
        "--quick", action="store_true",
        help="drill 6 workloads x 2 presets instead of the full "
             "19 x 4 sweep",
    )
    chaos_parser.add_argument(
        "--timeout", type=float, default=120.0, metavar="SECONDS",
        help="per-request client deadline — the no-hang invariant "
             "(default: 120)",
    )
    chaos_parser.add_argument(
        "--json", action="store_true",
        help="emit the full report as JSON instead of text",
    )

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear an artifact-cache directory"
    )
    cache_parser.add_argument(
        "--cache-dir", required=True, metavar="DIR",
        help="the artifact cache directory to inspect",
    )
    cache_parser.add_argument(
        "--clear", action="store_true",
        help="delete every cache entry after printing the stats",
    )

    list_parser = subparsers.add_parser(
        "list", help="list registered experiments and their metadata"
    )
    list_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="long-workload trace tooling: import, inspect, generate and "
             "sample chunked trace stores",
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command",
                                            required=True)

    trace_import = trace_sub.add_parser(
        "import",
        help="convert a portable trace file into a chunked spill store",
    )
    trace_import.add_argument("file", metavar="FILE",
                              help="portable trace file (#REPRO-TRACE 1)")
    trace_import.add_argument("store", metavar="DIR",
                              help="destination spill-store directory")
    trace_import.add_argument("--chunk-length", type=int, default=65536,
                              metavar="N",
                              help="rows per chunk (default: 65536)")
    trace_import.add_argument("--name", default=None, metavar="NAME",
                              help="workload name recorded in the store "
                                   "(default: the file header's)")

    trace_info = trace_sub.add_parser(
        "info",
        help="describe a spill store directory or portable trace file",
    )
    trace_info.add_argument("path", metavar="PATH",
                            help="spill store directory or portable file")

    trace_synth = trace_sub.add_parser(
        "synth",
        help="generate a (scaled) synthetic workload straight into a "
             "spill store at bounded memory",
    )
    trace_synth.add_argument("store", metavar="DIR",
                             help="destination spill-store directory")
    trace_synth.add_argument("--scale", type=int, default=1, metavar="N",
                             help="multiply the spec's instruction count by "
                                  "N (100-1000 for long-workload runs; "
                                  "default: 1)")
    trace_synth.add_argument("--instructions", type=int, default=20_000,
                             metavar="N",
                             help="base instruction count before --scale "
                                  "(default: 20000)")
    trace_synth.add_argument("--seed", type=int, default=2012, metavar="S",
                             help="generator seed (default: 2012)")
    trace_synth.add_argument("--name", default="synthetic", metavar="NAME",
                             help="workload name (default: synthetic)")
    trace_synth.add_argument("--chunk-length", type=int, default=65536,
                             metavar="N",
                             help="rows per chunk (default: 65536)")

    trace_sample = trace_sub.add_parser(
        "sample",
        help="evaluate a trace store through interval sampling (or exactly, "
             "with --rate 1) and report CPI with error estimates",
    )
    trace_sample.add_argument("store", metavar="DIR",
                              help="spill-store directory to evaluate")
    trace_sample.add_argument("--rate", type=int, default=10, metavar="K",
                              help="profile every K-th chunk (default: 10; "
                                   "1 profiles everything, exactly)")
    trace_sample.add_argument("--warmup", type=int, default=4, metavar="N",
                              help="exactly-profiled census prefix chunks "
                                   "(default: 4)")
    trace_sample.add_argument("--warming", type=int, default=1, metavar="N",
                              help="chunks streamed to warm state before "
                                   "each sampled interval (default: 1)")
    trace_sample.add_argument("--preset", default="paper_default",
                              metavar="NAME",
                              help="machine preset to evaluate "
                                   "(default: paper_default)")
    trace_sample.add_argument("--mlp-window", type=int, default=64,
                              metavar="N",
                              help="MLP coalescing window (default: 64)")
    trace_sample.add_argument("--cache-dir", default=None, metavar="DIR",
                              help="artifact cache directory; per-chunk "
                                   "interval profiles are reused across "
                                   "invocations and sampling rates")
    trace_sample.add_argument("--json", action="store_true",
                              help="emit the full result as JSON")

    bench_parser = subparsers.add_parser(
        "bench", help="run the core hot-path benchmark (writes BENCH_core.json)"
    )
    bench_parser.add_argument("--output", default=None, metavar="PATH",
                              help="where to write the results JSON")
    bench_parser.add_argument("--repeat", type=int, default=3, metavar="N",
                              help="timed repetitions per benchmark "
                                   "(the median is reported; default: 3)")
    bench_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                              help="worker processes for the job-aware "
                                   "benchmarks; recorded in the output")
    bench_parser.add_argument("--compare", default=None, metavar="REFERENCE",
                              help="reference BENCH json; exit non-zero when "
                                   "a shared benchmark's median regresses "
                                   "beyond --tolerance")
    bench_parser.add_argument("--tolerance", type=float, default=25.0,
                              metavar="PCT",
                              help="allowed regression vs --compare, in "
                                   "percent (default: 25)")
    bench_parser.add_argument("--stage-tolerance-ms", type=float, default=50.0,
                              metavar="MS",
                              help="per-stage floor for --compare's gate, in "
                                   "milliseconds: a stage whose reference "
                                   "time is below this is not gated "
                                   "(default: 50)")
    _add_trace_out(bench_parser)

    obs_parser = subparsers.add_parser(
        "obs",
        help="observability tooling over span JSONL files "
             "(--trace-out output)",
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report",
        help="print a per-span-name self-time breakdown of a span file",
    )
    obs_report.add_argument("spans", metavar="FILE",
                            help="span JSONL file written via --trace-out")
    obs_chrome = obs_sub.add_parser(
        "chrome",
        help="wrap a span JSONL file into the {'traceEvents': [...]} JSON "
             "chrome://tracing and Perfetto load directly",
    )
    obs_chrome.add_argument("spans", metavar="FILE",
                            help="span JSONL file written via --trace-out")
    obs_chrome.add_argument("--output", default=None, metavar="PATH",
                            help="destination JSON file (default: stdout)")
    return parser


def _apply_obs(args: argparse.Namespace) -> None:
    """Enable span tracing before any timed work starts.

    ``--trace-out`` is also exported through ``REPRO_TRACE_OUT`` so worker
    processes and spawned tools append to the same file; without the flag
    the environment variable alone can enable tracing.
    """
    from repro.obs import tracing

    path = getattr(args, "trace_out", None)
    if path:
        tracing.configure(path)
        os.environ[tracing.TRACE_ENV] = path
    else:
        tracing.configure_from_env()


def _apply_faults(args: argparse.Namespace) -> None:
    """Install a fault-injection plan before any work starts.

    ``--faults`` takes a JSON file path or inline JSON and is also
    exported through ``REPRO_FAULTS`` so ``--jobs`` worker processes
    inherit the plan; without the flag the environment variable alone
    can install one.
    """
    from repro.resilience import faults

    value = getattr(args, "faults", None)
    if value:
        try:
            if value.lstrip().startswith("{"):
                plan = faults.FaultPlan.from_json(value)
            else:
                plan = faults.FaultPlan.from_file(value)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"--faults: {exc}") from exc
        faults.install(plan)
        os.environ[faults.FAULTS_ENV] = plan.to_json()
    else:
        try:
            faults.install_from_env()
        except (OSError, ValueError) as exc:
            raise SystemExit(f"{faults.FAULTS_ENV}: {exc}") from exc


def _select_experiments(names: list[str]) -> list[str]:
    known = experiment_names()
    if not names or "all" in names:
        return known
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise SystemExit(
            f"unknown experiments: {', '.join(unknown)} "
            f"(known: {', '.join(known)})"
        )
    # Run in registry (paper) order regardless of the order given.
    requested = set(names)
    return [name for name in known if name in requested]


def _cmd_run(args: argparse.Namespace) -> int:
    selected = _select_experiments(args.experiments)
    with pooled_session(args.cache_dir, args.jobs) as session:
        if args.format == "json":
            results = [
                run_experiment(session, name, full=args.full, smoke=args.smoke)
                for name in selected
            ]
            sys.stdout.write(render_many(results, "json") + "\n")
        else:
            # Stream text/csv: each experiment's table appears as soon as it
            # finishes (byte-identical to render_many over the whole batch).
            sections = args.format == "text" or len(selected) > 1
            for index, name in enumerate(selected):
                result = run_experiment(session, name, full=args.full,
                                        smoke=args.smoke)
                if sections:
                    prefix = "\n" if index else ""
                    sys.stdout.write(f"{prefix}=== {name} ===\n")
                sys.stdout.write(render(result, args.format) + "\n")
                sys.stdout.flush()
    _session_report(session)
    return 0


def _session_report(session: Session) -> None:
    summary = session.summary()
    cache = summary.pop("artifact_cache")
    stages = summary.pop("stages")
    fields = dict(summary)
    fields.update({f"cache_{k}": v for k, v in cache.items()})
    fields.update({f"stage_{k}_s": round(v, 3) for k, v in stages.items()})
    _log.info("session summary", **fields)


def _cmd_eval(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.api import capability_matrix, evaluate_many, load_requests
    from repro.api.batch import results_table

    if args.backends:
        from repro.machine import MACHINE_PRESETS, format_size

        rows = [
            (name, *("yes" if flag else "no" for flag in (
                capabilities.cpi_stack, capabilities.cycle_accurate,
                capabilities.exact_miss_events, capabilities.power)))
            for name, capabilities in capability_matrix()
        ]
        print(format_table(
            ("backend", "cpi stack", "cycle accurate", "exact misses", "power"),
            rows,
        ))
        preset_rows = []
        for name in MACHINE_PRESETS.names():
            machine = MACHINE_PRESETS.get(name)()
            preset_rows.append((
                name, machine.width, machine.pipeline_stages,
                f"{machine.frequency_mhz} MHz",
                format_size(machine.l1i_size), format_size(machine.l1d_size),
                f"{format_size(machine.l2_size)} "
                f"{machine.l2_associativity}-way",
                machine.branch_predictor,
            ))
        print()
        print(format_table(
            ("preset", "width", "stages", "clock", "L1I", "L1D", "L2",
             "branch predictor"),
            preset_rows,
        ))
        from repro.accel import active_backend, available_backends

        active = active_backend()
        print()
        print(format_table(
            ("kernel backend", "available", "active"),
            [(name, "yes" if usable else "no",
              "yes" if name == active else "no")
             for name, usable in available_backends().items()],
        ))
        return 0
    if not args.requests:
        raise SystemExit("eval needs at least one request file (or --backends)")

    requests = []
    for source in args.requests:
        try:
            text = sys.stdin.read() if source == "-" else Path(source).read_text()
            requests.extend(load_requests(text))
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(f"{source}: {exc}") from exc

    with pooled_session(args.cache_dir, args.jobs) as session:
        try:
            results = evaluate_many(requests, session=session)
        except (ValueError, KeyError, TypeError) as exc:
            # Unresolvable names and malformed values (backend, preset,
            # workload, override field, size string) are caught by the batch
            # layer's upfront validation — surface them as a clean message,
            # not a traceback.
            raise SystemExit(str(exc)) from exc
        sys.stdout.write(render(results_table(results), args.format) + "\n")
    _session_report(session)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.search.optimize import OptimizeRequest, optimize

    if not args.requests:
        raise SystemExit("optimize needs at least one request file")
    requests = []
    for source in args.requests:
        try:
            text = sys.stdin.read() if source == "-" else Path(source).read_text()
            payload = json.loads(text)
            items = payload if isinstance(payload, list) else [payload]
            requests.extend(OptimizeRequest.parse(item) for item in items)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise SystemExit(f"{source}: {exc}") from exc

    with pooled_session(args.cache_dir, args.jobs) as session:
        results = []
        for request in requests:
            try:
                results.append(optimize(request, session=session))
            except (ValueError, KeyError, TypeError) as exc:
                raise SystemExit(str(exc)) from exc
        if args.format == "json":
            # One request prints exactly OptimizeResult.to_json() — the
            # same bytes POST /v1/optimize answers for the same request.
            if len(results) == 1:
                sys.stdout.write(results[0].to_json() + "\n")
            else:
                body = json.dumps([result.to_dict() for result in results],
                                  indent=2)
                sys.stdout.write(body + "\n")
        else:
            for index, result in enumerate(results):
                if index:
                    sys.stdout.write("\n")
                _render_optimize_text(result)
    _session_report(session)
    return 0


def _render_optimize_text(result) -> None:
    request = result.request
    objectives = [str(objective) for objective in request.objectives]
    print(f"search: {request.workload.name} [{request.workload.flags}] "
          f"over {result.cardinality:,} points — strategy={request.strategy} "
          f"budget={request.budget} seed={request.seed}")
    print(f"evaluated {result.evaluations} points "
          f"({result.infeasible_skipped} pruned by machine constraints); "
          f"front size {len(result.front)}")
    rows = [
        (("*" if result.best is not None
          and entry["index"] == result.best["index"] else ""),
         entry["index"], entry["machine"],
         *(f"{entry['objectives'][name]:.6g}" for name in objectives))
        for entry in result.front
    ]
    print(format_table(("", "index", "machine", *objectives), rows))
    if result.best is not None:
        print(f"best: {result.best['machine']} "
              f"(found after {result.best_found_at_evaluation} evaluations)")


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.machine import parse_size
    from repro.service.server import ServiceConfig, serve

    try:
        cache_max_bytes = parse_size(args.cache_max_bytes)
    except (ValueError, TypeError) as exc:
        raise SystemExit(f"--cache-max-bytes: {exc}") from exc
    config = ServiceConfig(
        host=args.host, port=args.port, jobs=args.jobs,
        max_queue=args.max_queue, cache_dir=args.cache_dir,
        cache_capacity=args.cache_capacity, cache_ttl=args.cache_ttl,
        cache_max_bytes=cache_max_bytes,
        request_timeout=args.request_timeout,
        rate_limit=args.rate_limit, rate_burst=args.rate_burst,
    )

    def announce(server) -> None:
        _log.info(
            "repro.service listening — Ctrl-C drains and stops",
            url=f"http://{config.host}:{server.port}",
            jobs=config.jobs, max_queue=config.max_queue,
            cache_dir=config.cache_dir or "<memory>",
        )

    try:
        asyncio.run(serve(config, ready=announce))
    except KeyboardInterrupt:
        _log.info("repro.service drained and stopped")
    except (OSError, ValueError) as exc:
        # Bind failures (address in use) and invalid option values
        # (--cache-ttl 0, --jobs 0, ...) exit cleanly, no traceback.
        raise SystemExit(f"serve: {exc}") from exc
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.resilience.chaos import DEFAULT_SEED, run_chaos

    workloads = presets = None
    if args.quick:
        from repro.machine import MACHINE_PRESETS
        from repro.workloads.registry import suite_names

        workloads = suite_names("mibench")[:6]
        presets = MACHINE_PRESETS.names()[:2]
    report = run_chaos(
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        jobs=args.jobs, workloads=workloads, presets=presets,
        timeout=args.timeout,
    )
    if args.json:
        import json

        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.passed else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.machine import format_size
    from repro.runtime.artifacts import ArtifactCache

    root = Path(args.cache_dir)
    if not root.is_dir():
        raise SystemExit(f"{root}: not a directory")
    cache = ArtifactCache(root)
    stats = cache.disk_stats()
    rows = [
        (kind, item["entries"], format_size(item["bytes"]))
        for kind, item in sorted(stats["kinds"].items())
    ]
    rows.append(("total", stats["entries"], format_size(stats["bytes"])))
    print(format_table(("kind", "entries", "bytes"), rows))
    if stats["schema_versions"]:
        versions = "  ".join(
            f"{key}={','.join(str(v) for v in values)}"
            for key, values in stats["schema_versions"].items()
        )
        print(f"schema versions: {versions}")
    if stats["corrupt"]:
        print(f"corrupt entries: {stats['corrupt']}")
    if args.clear:
        removed = cache.clear()
        print(f"cleared {removed} entries from {root}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    specs = [get_experiment(name) for name in experiment_names()]
    if args.format == "json":
        import json

        payload = [
            {
                "name": spec.name,
                "title": spec.title,
                "options": list(spec.options),
                "smoke": dict(spec.smoke),
                "deterministic": spec.deterministic,
            }
            for spec in specs
        ]
        print(json.dumps(payload, indent=2))
        return 0
    rows = [
        (
            spec.name,
            spec.title,
            ", ".join(spec.options) if spec.options else "-",
            "no" if not spec.deterministic else "yes",
        )
        for spec in specs
    ]
    print(format_table(("experiment", "artefact", "options", "deterministic"), rows))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    if args.trace_command == "import":
        from repro.trace.store import import_portable

        try:
            chunked = import_portable(args.file, args.store,
                                      chunk_length=args.chunk_length,
                                      name=args.name)
        except (OSError, ValueError, NotImplementedError) as exc:
            raise SystemExit(f"import: {exc}") from exc
        print(f"imported {len(chunked):,} instructions into {args.store} "
              f"({chunked.num_chunks} chunks of {chunked.chunk_length}, "
              f"{len(chunked.statics)} statics)")
        return 0

    if args.trace_command == "info":
        import json

        from repro.trace.store import portable_info, store_info

        path = Path(args.path)
        try:
            if path.is_dir():
                info = store_info(path)
                info["kind"] = "store"
            else:
                info = portable_info(path)
                info["kind"] = "portable"
        except (OSError, ValueError, NotImplementedError, KeyError) as exc:
            raise SystemExit(f"info: {path}: {exc}") from exc
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0

    if args.trace_command == "synth":
        from repro.workloads.synthetic import (
            SyntheticWorkloadSpec,
            generate_synthetic_store,
        )

        try:
            spec = SyntheticWorkloadSpec(name=args.name,
                                         instructions=args.instructions,
                                         seed=args.seed)
            chunked = generate_synthetic_store(args.store, spec,
                                               scale=args.scale,
                                               chunk_length=args.chunk_length)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"synth: {exc}") from exc
        print(f"generated {len(chunked):,} instructions "
              f"({args.instructions} x{args.scale}) into {args.store} "
              f"({chunked.num_chunks} chunks of {chunked.chunk_length})")
        return 0

    # sample
    from repro.machine import machine_from_spec
    from repro.trace.store import TraceStore

    if args.rate < 1:
        raise SystemExit("--rate must be at least 1")
    try:
        machine = machine_from_spec(args.preset)
    except KeyError as exc:
        raise SystemExit(f"--preset: {exc.args[0]}") from exc
    try:
        chunked = TraceStore.open(args.store)
    except (OSError, ValueError, NotImplementedError) as exc:
        raise SystemExit(f"sample: {args.store}: {exc}") from exc

    if args.rate == 1:
        # Exact: stream every chunk once through the resumable engine (the
        # walk builds the program profile alongside the miss passes).
        from repro.core.model import InOrderMechanisticModel
        from repro.profiler.single_pass_engine import SinglePassEngine

        engine = SinglePassEngine.for_trace(chunked)
        misses = engine.miss_profile(machine, args.mlp_window)
        program = engine.program_profile()
        result = InOrderMechanisticModel(machine).predict(program, misses)
        payload = {
            "store": str(args.store),
            "name": chunked.name,
            "machine": machine.name,
            "instructions": len(chunked),
            "exact": True,
            "cycles": result.cycles,
            "cpi": result.cpi,
            "seconds": result.execution_time_seconds,
            "misses": {metric: getattr(misses, metric)
                       for metric in _SAMPLE_METRICS},
        }
        if args.json:
            import json

            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"{chunked.name}: {len(chunked):,} instructions, "
                  f"{chunked.num_chunks} chunks (exact)")
            print(f"cpi={result.cpi:.4f}  cycles={result.cycles:,.0f}  "
                  f"seconds={result.execution_time_seconds:.6f}")
        return 0

    session = Session(cache_dir=args.cache_dir)
    evaluation = session.sample_evaluate(
        chunked, machine, rate=args.rate, warmup=args.warmup,
        warming=args.warming, mlp_window=args.mlp_window,
    )
    bar = evaluation.est_rel_error.get("cpi", 0.0)
    payload = {
        "store": str(args.store),
        "name": chunked.name,
        "machine": machine.name,
        "instructions": evaluation.instructions,
        "exact": evaluation.plan.exact,
        "cycles": evaluation.cycles,
        "cpi": evaluation.cpi,
        "seconds": evaluation.seconds,
        "misses": {metric: getattr(evaluation.misses, metric)
                   for metric in _SAMPLE_METRICS},
        "sampling": evaluation.to_dict(),
        "interval_cache": {"hits": evaluation.cache_hits,
                           "misses": evaluation.cache_misses},
    }
    if args.json:
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    plan = evaluation.plan
    print(f"{chunked.name}: {evaluation.instructions:,} instructions, "
          f"{plan.num_chunks} chunks; profiled "
          f"{plan.intervals_profiled} ({plan.fraction:.1%}) at rate "
          f"{plan.rate} (warmup={plan.warmup}, warming={evaluation.warming})")
    print(f"cpi={evaluation.cpi:.4f} +-{bar:.2%}  "
          f"cycles={evaluation.cycles:,.0f}  "
          f"seconds={evaluation.seconds:.6f}")
    errors = "  ".join(
        f"{metric}={getattr(evaluation.misses, metric):,.0f}"
        f"(+-{evaluation.est_rel_error.get(metric, 0.0):.1%})"
        for metric in _SAMPLE_METRICS
    )
    print(f"misses: {errors}")
    if evaluation.cache_hits or evaluation.cache_misses:
        print(f"interval cache: {evaluation.cache_hits} hits, "
              f"{evaluation.cache_misses} built")
    return 0


#: Miss metrics the ``trace sample`` reports, in display order.
_SAMPLE_METRICS = (
    "l1i_misses", "l1d_misses", "il2_misses", "dl2_misses",
    "itlb_misses", "dtlb_misses", "mispredictions",
)


def _cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.bench import gate, run as bench_run

    if args.tolerance < 0:
        raise SystemExit("--tolerance must be non-negative")
    if args.stage_tolerance_ms < 0:
        raise SystemExit("--stage-tolerance-ms must be non-negative")
    output = Path(args.output) if args.output else Path.cwd() / "BENCH_core.json"
    payload = bench_run(output, repeat=args.repeat, jobs=args.jobs,
                        stage_tolerance_ms=args.stage_tolerance_ms)
    if args.compare is not None:
        return gate(payload, Path(args.compare), args.tolerance,
                    args.stage_tolerance_ms)
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro.obs.report import load_events, render_report, to_chrome_trace

    try:
        events = load_events(args.spans)
    except OSError as exc:
        raise SystemExit(f"obs: {exc}") from exc
    if args.obs_command == "report":
        sys.stdout.write(render_report(events) + "\n")
        return 0
    document = json.dumps(to_chrome_trace(events), indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
        _log.info("chrome trace written", path=args.output,
                  events=len(events))
    else:
        sys.stdout.write(document + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _apply_obs(args)
    _apply_faults(args)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "optimize":
            return _cmd_optimize(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "obs":
            return _cmd_obs(args)
        return _cmd_bench(args)
    except BrokenPipeError:
        # Downstream closed the pipe (`... | head`): exit quietly, and hand
        # stdout a dead descriptor so interpreter shutdown's implicit flush
        # cannot raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
