"""Single source of truth for the columnar trace layout.

Every component that serializes, ships or memory-maps trace columns — the
payload transport in :mod:`repro.trace.trace`, the on-disk spill store and
the portable ingestion format in :mod:`repro.trace.store` — consumes
:data:`TRACE_COLUMNS` from here, so the column set and element types cannot
drift between layers.
"""

from __future__ import annotations

#: Version of the columnar trace layout.  The on-disk artifact cache
#: (:mod:`repro.runtime.artifacts`), the spill store manifest and the portable
#: ingestion header all key on this number, so bump it whenever the column
#: set, the sentinel conventions or the functional simulator's observable
#: output change.
TRACE_SCHEMA_VERSION = 1

#: Column sentinel for "no value" (``mem_addr``/``next_pc``/``taken`` None).
NO_VALUE = -1

#: The packed columns of a trace, in canonical serialization order, as
#: ``(name, array typecode)`` pairs.  ``q`` is a signed 64-bit integer,
#: ``b`` a signed byte.
TRACE_COLUMNS: tuple[tuple[str, str], ...] = (
    ("pcs", "q"),
    ("next_pcs", "q"),
    ("mem_addrs", "q"),
    ("op_classes", "b"),
    ("taken", "b"),
    ("static_index", "q"),
)

#: Column names only, in canonical order.
COLUMN_NAMES: tuple[str, ...] = tuple(name for name, _ in TRACE_COLUMNS)

#: ``name -> typecode`` for every packed column.
COLUMN_TYPECODES: dict[str, str] = dict(TRACE_COLUMNS)


def column_typecode(column) -> str:
    """``array.typecode``, or the format of a ``memoryview`` column.

    The chunks of a :class:`~repro.trace.trace.ChunkedTrace` — memory-mapped
    from a spill store, or sliced from an in-memory trace — carry
    ``memoryview`` columns instead of ``array`` objects; both expose the
    same element type, under different attribute names.
    """
    typecode = getattr(column, "typecode", None)
    return typecode if typecode is not None else column.format
