"""CLI smoke suite: subcommands, formats, parallel runs and the warm cache.

The heavyweight checks mirror the acceptance criteria of the runtime
refactor: ``run all`` on the fast subset through a process pool produces
byte-identical tables to the serial run, and a second run against the same
``--cache-dir`` performs zero workload compilations and zero trace
generations.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import build_parser, main as cli_main
from repro.runtime import ExperimentResult, Session, experiment_names, run_experiment


def _sections(output: str) -> dict[str, str]:
    """Split ``=== name ===`` labelled CLI output into name → body."""
    parts = re.split(r"^=== (\S+) ===$", output, flags=re.MULTILINE)
    it = iter(parts[1:])  # parts[0] is anything before the first header
    return {name: body.strip("\n") for name, body in zip(it, it)}


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("artifact-cache")


@pytest.fixture(scope="module")
def smoke_outputs(cache_dir):
    """Cold parallel run, then warm serial run, of the full fast subset."""
    import contextlib
    import io

    outputs = {}
    for label, argv in (
        ("parallel_cold",
         ["run", "all", "--smoke", "--jobs", "2", "--cache-dir", str(cache_dir)]),
        ("serial_warm",
         ["run", "all", "--smoke", "--jobs", "1", "--cache-dir", str(cache_dir)]),
    ):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            exit_code = cli_main(argv)
        assert exit_code == 0
        outputs[label] = stdout.getvalue()
    return outputs


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.experiments == ["all"]
        assert args.jobs == 1 and args.format == "text"
        assert args.cache_dir is None
        assert not args.full and not args.smoke

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "figure5", "figure9", "--full", "--jobs", "4",
             "--format", "json", "--cache-dir", "/tmp/x"]
        )
        assert args.experiments == ["figure5", "figure9"]
        assert args.full and args.jobs == 4 and args.format == "json"

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_no_subcommand_selects_an_implementation(self):
        # Kernel backend and trace transport are byte-identical choices the
        # code makes itself; no subcommand may offer them as a flag.
        import argparse

        def walk(parser):
            yield parser
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for child in action.choices.values():
                        yield from walk(child)

        parsers = list(walk(build_parser()))
        assert {"run", "eval", "serve", "bench"} <= {
            parser.prog.split()[-1] for parser in parsers
        }
        for parser in parsers:
            flags = {option for action in parser._actions
                     for option in action.option_strings}
            assert not flags & {"--accel", "--dataplane"}, parser.prog


class TestVersionFlag:
    def test_version_prints_and_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(["--version"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert re.match(r"repro-experiments \d+\.\d+\.\d+", out)


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1" and args.port == 8765
        assert args.jobs == 1 and args.max_queue == 64
        assert args.cache_dir is None
        assert args.cache_capacity == 1024 and args.cache_ttl == 600.0

    def test_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--jobs", "4", "--cache-dir", "/tmp/c",
             "--max-queue", "8", "--cache-ttl", "30"]
        )
        assert args.port == 0 and args.jobs == 4
        assert args.cache_dir == "/tmp/c" and args.max_queue == 8
        assert args.cache_ttl == 30.0

    def test_invalid_serve_values_exit_cleanly(self):
        with pytest.raises(SystemExit, match="ttl_seconds"):
            cli_main(["serve", "--cache-ttl", "0"])
        with pytest.raises(SystemExit, match="jobs"):
            cli_main(["serve", "--jobs", "0"])
        with pytest.raises(SystemExit, match="malformed size"):
            cli_main(["serve", "--cache-max-bytes", "nonsense"])


class TestCacheSubcommand:
    def test_reports_entries_bytes_and_versions(self, tmp_path, capsys):
        from repro.runtime import ArtifactCache

        cache = ArtifactCache(tmp_path)
        cache.store([1, 2, 3], "trace", workload="w", flags="O3",
                    trace_version=1)
        assert cli_main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "trace" in out and "total" in out
        assert "trace_version=1" in out

    def test_clear_empties_the_directory(self, tmp_path, capsys):
        from repro.runtime import ArtifactCache

        cache = ArtifactCache(tmp_path)
        cache.store("value", "engine", workload="w", engine_version=2)
        assert cli_main(["cache", "--cache-dir", str(tmp_path),
                         "--clear"]) == 0
        assert "cleared 1 entries" in capsys.readouterr().out
        assert cache.disk_stats()["entries"] == 0

    def test_missing_directory_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="not a directory"):
            cli_main(["cache", "--cache-dir", str(tmp_path / "nope")])


class TestBackendsListing:
    def test_backends_prints_capabilities_and_presets(self, capsys):
        assert cli_main(["eval", "--backends"]) == 0
        out = capsys.readouterr().out
        assert "analytical" in out and "simulator" in out
        # The preset table renders byte counts through format_size.
        assert "paper_default" in out
        assert "512KB" in out and "1MB" in out and "32KB" in out


class TestList:
    def test_list_text_shows_every_experiment(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in experiment_names():
            assert name in out

    def test_list_json_exposes_metadata(self, capsys):
        assert cli_main(["list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in payload}
        assert set(by_name) == set(experiment_names())
        assert "full" in by_name["figure5"]["options"]
        assert by_name["speedup"]["deterministic"] is False


class TestRun:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit, match="unknown experiments"):
            cli_main(["run", "figure42"])

    def test_single_experiment_text(self, capsys):
        assert cli_main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("=== table2 ===\n")
        assert "192 design points" in out

    def test_json_round_trips_through_experiment_result(self, cache_dir, capsys):
        argv = ["run", "figure3", "--smoke", "--format", "json",
                "--cache-dir", str(cache_dir)]
        assert cli_main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 1
        decoded = ExperimentResult.from_dict(payload[0])
        assert decoded.experiment == "figure3"
        # The serialization is loss-free...
        assert ExperimentResult.from_json(decoded.to_json()) == decoded
        # ...and matches an in-process run exactly (determinism).
        session = Session(cache_dir=cache_dir)
        rerun = run_experiment(session, "figure3", smoke=True)
        assert rerun == decoded

    def test_unsupported_override_is_an_error(self):
        with pytest.raises(ValueError, match="does not support"):
            run_experiment(Session(), "table2", overrides={"full": True})

    def test_single_experiment_csv_is_pure_csv(self, cache_dir, capsys):
        argv = ["run", "figure3", "--smoke", "--format", "csv",
                "--cache-dir", str(cache_dir)]
        assert cli_main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        # No section banner: the stream is directly machine-readable.
        assert lines[0] == "benchmark,model CPI,detailed CPI,error"
        assert len(lines) == 4  # header + three smoke benchmarks

    def test_multi_experiment_csv_uses_sections(self, cache_dir, capsys):
        argv = ["run", "table2", "figure3", "--smoke", "--format", "csv",
                "--cache-dir", str(cache_dir)]
        assert cli_main(argv) == 0
        sections = _sections(capsys.readouterr().out)
        assert set(sections) == {"table2", "figure3"}
        assert sections["figure3"].splitlines()[0].startswith("benchmark,")


class TestFastSubsetPipeline:
    """The acceptance-criteria checks (shared cold/warm CLI runs)."""

    def test_runs_cover_every_experiment(self, smoke_outputs):
        for output in smoke_outputs.values():
            assert set(_sections(output)) == set(experiment_names())

    def test_parallel_output_is_byte_identical_to_serial(self, smoke_outputs):
        cold = _sections(smoke_outputs["parallel_cold"])
        warm = _sections(smoke_outputs["serial_warm"])
        for name in experiment_names():
            if name == "speedup":  # wall-clock numbers, non-deterministic
                continue
            assert cold[name] == warm[name], f"{name} diverged"

    def test_warm_cache_run_regenerates_nothing(self, cache_dir, smoke_outputs):
        session = Session(cache_dir=cache_dir)
        results = [
            run_experiment(session, name, smoke=True)
            for name in experiment_names()
        ]
        assert len(results) == len(experiment_names())
        assert session.stats.workloads_compiled == 0
        assert session.stats.traces_generated == 0
        assert session.stats.trace_cache_hits > 0

    def test_warm_cache_results_match_cli_tables(self, cache_dir, smoke_outputs):
        from repro.runtime.reporters import render_text

        session = Session(cache_dir=cache_dir)
        rendered = render_text(run_experiment(session, "figure5", smoke=True))
        assert rendered == _sections(smoke_outputs["serial_warm"])["figure5"]


class TestTraceSynth:
    @pytest.mark.parametrize("flags", [
        ["--instructions", "0"], ["--instructions", "-5"],
        ["--scale", "0"], ["--chunk-length", "0"],
    ])
    def test_bad_spec_is_rejected_before_the_store_exists(self, tmp_path,
                                                         flags):
        store = tmp_path / "store"
        with pytest.raises(SystemExit, match="synth:"):
            cli_main(["trace", "synth", str(store), *flags])
        assert not store.exists()


class TestTraceSample:
    @pytest.mark.parametrize("window", ["0", "-5"])
    def test_mlp_window_below_one_is_rejected(self, tmp_path, window):
        with pytest.raises(SystemExit, match="--mlp-window"):
            cli_main(["trace", "sample", str(tmp_path / "store"),
                      "--mlp-window", window])

    def test_exact_rate_streams_the_store_once(self, tmp_path, monkeypatch,
                                               capsys):
        """``--rate 1`` walks every chunk once: one walk builds the miss
        passes and the program profile together."""
        from repro.trace.trace import ChunkedTrace

        store = tmp_path / "store"
        assert cli_main(["trace", "synth", str(store), "--instructions",
                         "3000", "--chunk-length", "1000"]) == 0
        walks = []
        chunks = ChunkedTrace.chunks

        def counting_chunks(self):
            walks.append(self.name)
            return chunks(self)

        monkeypatch.setattr(ChunkedTrace, "chunks", counting_chunks)
        capsys.readouterr()
        assert cli_main(["trace", "sample", str(store), "--rate", "1",
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] is True
        assert payload["instructions"] == 3000
        assert len(walks) == 1
