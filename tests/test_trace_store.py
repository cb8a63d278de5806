"""Tests for chunked traces, the spill store and the portable format."""

from __future__ import annotations

import pytest

from repro.trace.store import (
    TraceStore,
    import_portable,
    portable_info,
    store_info,
    write_portable,
)
from repro.trace.trace import ChunkedTrace, Trace
from repro.workloads.synthetic import (
    SyntheticWorkloadSpec,
    SyntheticTraceGenerator,
    generate_synthetic_store,
    generate_synthetic_trace,
)

SPEC = SyntheticWorkloadSpec(instructions=5_000, seed=7)


@pytest.fixture(scope="module")
def trace() -> Trace:
    return generate_synthetic_trace(SPEC)


def resolved_rows(source: Trace | ChunkedTrace) -> list[tuple]:
    """Every dynamic row with the static resolved by value.

    Statics-table numbering is an implementation detail (the streamed
    writer interns across the whole stream, the in-memory constructor per
    trace), so equality is defined over the resolved instruction stream.
    """
    chunks = source.chunks() if isinstance(source, ChunkedTrace) else (source,)
    rows = []
    for chunk in chunks:
        statics = chunk.statics
        for position in range(len(chunk.pcs)):
            rows.append((
                chunk.pcs[position], chunk.next_pcs[position],
                chunk.mem_addrs[position], chunk.op_classes[position],
                chunk.taken[position],
                statics[chunk.static_index[position]],
            ))
    return rows


# ----------------------------------------------------------------------
# ChunkedTrace views.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk_length", [1, 7, 1024, 10_000])
def test_chunked_view_preserves_rows(trace, chunk_length):
    chunked = ChunkedTrace.from_trace(trace, chunk_length)
    assert len(chunked) == len(trace)
    assert resolved_rows(chunked) == resolved_rows(trace)
    # Global sequence numbers: every chunk continues where the last ended.
    for index in range(chunked.num_chunks):
        start, stop = chunked.chunk_bounds(index)
        chunk = chunked.chunk(index)
        assert list(chunk.seqs) == list(range(start, stop))


def test_chunk_length_beyond_trace_is_one_chunk(trace):
    chunked = ChunkedTrace.from_trace(trace, len(trace) + 1_000)
    assert chunked.num_chunks == 1
    assert len(chunked.chunk(0)) == len(trace)


def test_to_trace_round_trip(trace):
    chunked = ChunkedTrace.from_trace(trace, 512)
    rebuilt = chunked.to_trace()
    assert resolved_rows(rebuilt) == resolved_rows(trace)


# ----------------------------------------------------------------------
# Spill store.
# ----------------------------------------------------------------------
def test_store_round_trip(trace, tmp_path):
    opened = TraceStore.write(trace, tmp_path / "store", chunk_length=777)
    assert isinstance(opened, ChunkedTrace)
    assert len(opened) == len(trace)
    assert resolved_rows(opened) == resolved_rows(trace)

    reopened = TraceStore.open(tmp_path / "store")
    assert reopened.name == trace.name
    assert resolved_rows(reopened) == resolved_rows(trace)


def test_store_info_reports_geometry(trace, tmp_path):
    TraceStore.write(trace, tmp_path / "store", chunk_length=1024)
    info = store_info(tmp_path / "store")
    assert info["length"] == len(trace)
    assert info["chunk_length"] == 1024
    assert info["num_chunks"] == -(-len(trace) // 1024)
    assert info["total_column_bytes"] == info["bytes_per_row"] * len(trace)


def test_open_rejects_non_store(tmp_path):
    with pytest.raises(FileNotFoundError, match="not a trace store"):
        TraceStore.open(tmp_path)


# ----------------------------------------------------------------------
# Portable ingestion format.
# ----------------------------------------------------------------------
def test_portable_round_trip(trace, tmp_path):
    portable = tmp_path / "trace.rtp"
    write_portable(trace, portable)
    info = portable_info(portable)
    assert info["length"] == len(trace)
    assert info["name"] == trace.name
    assert info["num_statics"] == len(trace.statics)

    imported = import_portable(portable, tmp_path / "store", chunk_length=900)
    assert resolved_rows(imported) == resolved_rows(trace)


def test_portable_rejects_bad_magic(tmp_path):
    bogus = tmp_path / "bogus.rtp"
    bogus.write_bytes(b"#NOT-A-TRACE\n{}\n")
    with pytest.raises(ValueError, match="not a portable trace"):
        portable_info(bogus)


def test_portable_rejects_truncation(trace, tmp_path):
    portable = tmp_path / "trace.rtp"
    write_portable(trace, portable)
    clipped = portable.read_bytes()[:-64]
    portable.write_bytes(clipped)
    with pytest.raises(ValueError, match="truncated"):
        import_portable(portable, tmp_path / "store")


# ----------------------------------------------------------------------
# Streamed synthetic generation.
# ----------------------------------------------------------------------
def test_synthetic_store_matches_in_memory(tmp_path):
    streamed = generate_synthetic_store(tmp_path / "store", SPEC,
                                        chunk_length=640)
    assert resolved_rows(streamed) == resolved_rows(
        generate_synthetic_trace(SPEC))


def test_synthetic_store_scaling(tmp_path):
    scale = 6
    streamed = generate_synthetic_store(tmp_path / "store", SPEC, scale=scale,
                                        chunk_length=4096)
    assert len(streamed) == scale * SPEC.instructions
    # The statics table is bounded by the opcode/register combinations,
    # not the trace length — the property that keeps scaled generation
    # (and the spill store's shared statics file) at bounded memory.
    assert len(streamed.statics) < SPEC.instructions


def test_synthetic_generator_interns_statics():
    trace = SyntheticTraceGenerator(SPEC).generate()
    assert len(trace.statics) < len(trace) / 4


def test_store_write_requires_nonexistent_or_empty(trace, tmp_path):
    target = tmp_path / "store"
    TraceStore.write(trace, target, chunk_length=2048)
    with pytest.raises((FileExistsError, OSError)):
        TraceStore.write(trace, target, chunk_length=2048)
