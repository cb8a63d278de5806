"""Content-addressed on-disk artifact cache.

Traces and single-pass profiling state are expensive to produce and fully
deterministic, so the session runtime stores them on disk keyed by a SHA-256
digest of their *identity*: artifact kind, workload name, compiler flags and
the relevant schema versions (:data:`~repro.trace.trace_schema.TRACE_SCHEMA_VERSION`,
:data:`~repro.profiler.single_pass_engine.ENGINE_SCHEMA_VERSION`).  Any code
change that alters what a builder produces must bump the corresponding
version, which changes every digest and naturally invalidates stale entries.

Artifacts are pickled to ``<root>/<kind>/<digest>.pkl`` as consecutive
pickle objects — the small key-fields header first, then a content-digest
meta record, then the payload — so maintenance scans
(:meth:`ArtifactCache.disk_stats`) can read every entry's identity without
deserializing multi-megabyte values.  Writes go through a temporary file
plus :func:`os.replace` so concurrent sessions (the process-pool scheduler
shares one cache directory across workers) never observe a half-written
artifact.

Reads **self-heal**: the payload's stored SHA-256 is verified before
unpickling, so a corrupt or truncated entry (torn write on a crashed
host, bit rot, an injected ``cache.write`` corruption) is detected,
counted (``stats.corruptions``, surfaced as the session's
``cache_corruptions``), deleted and treated as a miss — the artifact is
simply rebuilt, never trusted.  Legacy two-object entries (no meta
record) still load; they are re-digested on their next store.  Store
failures (disk full, injected write faults) degrade to "not cached"
instead of failing the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.resilience import faults
from repro.resilience.faults import InjectedFault

#: Sentinel distinguishing "no cached value" from a cached ``None``.
MISSING = object()

#: Key of the digest meta record (the second pickle object); chosen so a
#: legacy entry's payload — which sits where the meta record now does —
#: can never be mistaken for one.
META_KEY = "__repro_meta__"


class _KeyMismatch(Exception):
    """A digest collision or foreign file: distrust, but not corruption."""


@dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`ArtifactCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries whose stored content digest failed verification (or that
    #: would not unpickle): self-healed to misses and deleted.
    corruptions: int = 0
    #: Stores that could not be persisted (disk full, injected faults).
    store_failures: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "corruptions": self.corruptions,
                "store_failures": self.store_failures}


@dataclass
class ArtifactCache:
    """Pickle store addressed by the content of the artifact's key fields.

    ``root=None`` disables persistence entirely: every lookup misses and
    every store is a no-op, which gives ephemeral sessions (unit tests,
    one-off scripts) the same code path without touching the filesystem.
    """

    root: Path | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    #: Optional no-argument callback run on every detected corruption
    #: (the session wires this to its ``cache_corruptions`` counter).
    on_corruption: Callable[[], None] | None = None

    def __post_init__(self) -> None:
        if self.root is not None:
            self.root = Path(self.root)

    @property
    def enabled(self) -> bool:
        return self.root is not None

    # ------------------------------------------------------------------
    @staticmethod
    def digest(kind: str, **fields: Any) -> str:
        """Stable SHA-256 digest of the artifact identity."""
        payload = json.dumps(
            {"kind": kind, **fields}, sort_keys=True, separators=(",", ":"),
            default=str,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def path_for(self, kind: str, **fields: Any) -> Path | None:
        if self.root is None:
            return None
        return self.root / kind / f"{self.digest(kind, **fields)}.pkl"

    # ------------------------------------------------------------------
    @staticmethod
    def _fault_key(kind: str, fields: dict) -> str:
        """The operation key fault-plan rules match on (kind + workload)."""
        workload = fields.get("workload", "")
        return f"{kind}:{workload}" if workload else kind

    def _heal(self, path: Path) -> None:
        """A verified-corrupt entry: count it, report it, delete it."""
        self.stats.corruptions += 1
        if self.on_corruption is not None:
            self.on_corruption()
        try:
            path.unlink()
        except OSError:
            pass

    def load(self, kind: str, **fields: Any) -> Any:
        """The cached value, or :data:`MISSING` when absent or unreadable.

        The payload's stored SHA-256 is verified before unpickling; an
        entry that fails verification (or will not parse at all) is
        counted as a corruption, deleted and reported as a miss.
        """
        path = self.path_for(kind, **fields)
        if path is None or not path.exists():
            self.stats.misses += 1
            return MISSING
        key = self._fault_key(kind, fields)
        try:
            faults.fire("cache.read", key=key)
        except InjectedFault:
            # A transient read failure: rebuild, but keep the entry.
            self.stats.misses += 1
            return MISSING
        try:
            with path.open("rb") as handle:
                entry_fields = pickle.load(handle)
                if entry_fields != {"kind": kind, **fields}:
                    # A digest collision or a foreign file: do not trust it.
                    raise _KeyMismatch
                meta = pickle.load(handle)
                if isinstance(meta, dict) and META_KEY in meta:
                    payload = handle.read()
                    payload = faults.corrupt_bytes("cache.read", payload,
                                                   key=key)
                    expected = meta[META_KEY]
                    if (len(payload) != expected["nbytes"]
                            or hashlib.sha256(payload).hexdigest()
                            != expected["sha256"]):
                        raise ValueError("artifact content digest mismatch")
                    value = pickle.loads(payload)
                else:
                    # Legacy two-object entry: the second pickle *is* the
                    # payload, with no digest to verify.
                    value = meta
        except _KeyMismatch:
            try:
                path.unlink()
            except OSError:
                pass
            self.stats.misses += 1
            return MISSING
        except Exception:
            # Corrupt, truncated or stale-format entries self-heal.
            self._heal(path)
            self.stats.misses += 1
            return MISSING
        self.stats.hits += 1
        return value

    def store(self, value: Any, kind: str, **fields: Any) -> None:
        """Persist ``value`` atomically (no-op when the cache is disabled).

        A store that cannot complete (disk full, injected write fault)
        degrades to "not cached" — counted in ``stats.store_failures`` —
        rather than failing the computation that produced the value.
        """
        path = self.path_for(kind, **fields)
        if path is None:
            return
        key = self._fault_key(kind, fields)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        meta = {META_KEY: {"sha256": hashlib.sha256(payload).hexdigest(),
                           "nbytes": len(payload)}}
        try:
            faults.fire("cache.write", key=key)
            # An injected write corruption lands *after* the digest is
            # computed over the true bytes — exactly a torn write, which
            # the next load detects and heals.
            payload = faults.corrupt_bytes("cache.write", payload, key=key)
            path.parent.mkdir(parents=True, exist_ok=True)
            descriptor, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=path.stem, suffix=".tmp"
            )
            try:
                with os.fdopen(descriptor, "wb") as handle:
                    pickle.dump({"kind": kind, **fields}, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                    pickle.dump(meta, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                    handle.write(payload)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except (OSError, InjectedFault):
            self.stats.store_failures += 1
            return
        self.stats.stores += 1

    def load_or_build(self, builder: Callable[[], Any], kind: str,
                      **fields: Any) -> tuple[Any, bool]:
        """Return ``(value, was_cached)``, building and storing on a miss."""
        value = self.load(kind, **fields)
        if value is not MISSING:
            return value, True
        value = builder()
        self.store(value, kind, **fields)
        return value, False

    # ------------------------------------------------------------------
    # Maintenance (the ``repro-experiments cache`` subcommand).
    # ------------------------------------------------------------------
    def disk_stats(self) -> dict:
        """Scan the cache directory: entries, bytes and schema versions.

        Reads only each entry's key-fields header (the first of the two
        pickle objects), never the payload, so the scan stays cheap on
        caches holding multi-megabyte traces while still reporting which
        ``*_version`` generations are present on disk.  Unreadable or
        legacy-format entries are counted as ``corrupt`` rather than
        raised.
        """
        per_kind: dict[str, dict] = {}
        schema_versions: dict[str, set] = {}
        corrupt = 0
        if self.root is not None and self.root.is_dir():
            for kind_dir in sorted(path for path in self.root.iterdir()
                                   if path.is_dir()):
                entries = 0
                size = 0
                for path in sorted(kind_dir.glob("*.pkl")):
                    try:
                        entry_size = path.stat().st_size
                    except OSError:
                        continue  # deleted by a live session since the glob
                    entries += 1
                    size += entry_size
                    try:
                        with path.open("rb") as handle:
                            fields = pickle.load(handle)
                        if not (isinstance(fields, dict) and "kind" in fields):
                            raise ValueError("not a key-fields header")
                    except Exception:
                        corrupt += 1
                        continue
                    for key, value in fields.items():
                        if key.endswith("_version"):
                            schema_versions.setdefault(key, set()).add(value)
                if entries:
                    per_kind[kind_dir.name] = {"entries": entries, "bytes": size}
        return {
            "root": str(self.root) if self.root is not None else None,
            "entries": sum(item["entries"] for item in per_kind.values()),
            "bytes": sum(item["bytes"] for item in per_kind.values()),
            "kinds": per_kind,
            "schema_versions": {key: sorted(values) for key, values
                                in sorted(schema_versions.items())},
            "corrupt": corrupt,
        }

    def clear(self) -> int:
        """Delete every cache entry; returns how many were removed."""
        removed = 0
        if self.root is None or not self.root.is_dir():
            return removed
        for kind_dir in self.root.iterdir():
            if not kind_dir.is_dir():
                continue
            for path in kind_dir.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
