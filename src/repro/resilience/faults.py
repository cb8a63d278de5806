"""Seeded fault-injection harness wired into the stack's real seams.

A *fault plan* is a list of :class:`FaultSpec` rules plus a seed.  Each
rule names an **injection point** (a seam the runtime and service layers
already call into, see :data:`POINTS`), a **mode** (``error`` raises an
:class:`InjectedFault`, ``delay`` sleeps, ``corrupt`` flips one byte of a
payload in flight, ``kill`` SIGKILLs the current process — a pool worker,
in practice), and a **firing window**: skip the first ``after`` matching
hits, then fire ``count`` times (``count=-1`` fires forever).  ``match``
restricts a rule to operation keys containing the substring — e.g. only
the ``sha`` workload's worker entries — which is how a plan models a
*poison unit* versus a transient crash.

Determinism has two halves.  *Which* hit fires is pure counting — no
randomness — so the same plan against the same request stream fails the
same way every run.  *What* a corruption does (which byte flips) is drawn
from ``random.Random(f"{seed}:{point}:{match}:{ordinal}")``, so different seeds corrupt
different bytes but one seed always corrupts the same one.  Hit counters
live in memory by default; a plan with a ``state_dir`` counts hits in
append-only files instead, so the window is shared across the parent and
every pool worker (``count=1`` then means *one* kill fleet-wide, not one
per respawned worker).

The plan travels like the other per-process knobs: ``REPRO_FAULTS`` holds
a plan file path or inline JSON (the CLI's ``--faults`` exports it), and
the scheduler ships :func:`worker_config` through the pool initializer so
spawned workers — which inherit no module state — enforce the same plan.

With no plan installed every hook is one module-global load plus an
``is None`` test, mirroring :mod:`repro.obs.tracing`'s disabled path.
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.obs import tracing

#: Environment variable carrying the fault plan (a file path or inline
#: JSON) into spawned workers and subcommands.
FAULTS_ENV = "REPRO_FAULTS"

#: Every registered injection point, by layer.
POINTS = (
    "worker.entry",       # scheduler: a unit entering a pool worker
    "cache.read",         # ArtifactCache.load
    "cache.write",        # ArtifactCache.store (corrupt: bytes on disk)
    "http.accept",        # server: a connection was accepted
    "http.read",          # server: about to read the request
    "http.write",         # server: about to write the response
    "jobs.admit",         # EvalExecutor: a job entering the bounded queue
)

#: Supported fault modes.
MODES = ("error", "delay", "corrupt", "kill")


class InjectedFault(RuntimeError):
    """An ``error``-mode fault fired; carries its point and operation key."""

    def __init__(self, point: str, key: str = ""):
        detail = f" ({key})" if key else ""
        super().__init__(f"injected fault at {point}{detail}")
        self.point = point
        self.key = key


@dataclass(frozen=True)
class FaultSpec:
    """One rule of a fault plan (see the module docstring for semantics)."""

    point: str
    mode: str = "error"
    #: Substring of the operation key this rule applies to ("" = all).
    match: str = ""
    #: Matching hits skipped before the rule starts firing.
    after: int = 0
    #: Fires before the rule goes dormant; -1 fires forever.
    count: int = 1
    #: Sleep length for ``delay`` mode.
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.point not in POINTS:
            raise ValueError(
                f"unknown injection point {self.point!r}; "
                f"known: {', '.join(POINTS)}"
            )
        if self.mode not in MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; known: {', '.join(MODES)}"
            )
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")

    def to_dict(self) -> dict:
        return {"point": self.point, "mode": self.mode, "match": self.match,
                "after": self.after, "count": self.count,
                "delay_s": self.delay_s}

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        unknown = sorted(set(payload) - {"point", "mode", "match", "after",
                                         "count", "delay_s"})
        if unknown:
            raise ValueError(f"unknown fault-spec keys {unknown}")
        if "point" not in payload:
            raise ValueError("fault spec needs a 'point' entry")
        return cls(
            point=payload["point"],
            mode=payload.get("mode", "error"),
            match=payload.get("match", ""),
            after=int(payload.get("after", 0)),
            count=int(payload.get("count", 1)),
            delay_s=float(payload.get("delay_s", 0.05)),
        )


class FaultPlan:
    """A seeded set of fault rules plus their (possibly shared) hit state."""

    def __init__(self, specs, seed: int = 0, state_dir=None):
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        self.seed = int(seed)
        self.state_dir = Path(state_dir) if state_dir is not None else None
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._hits = [0] * len(self.specs)
        self._fires = [0] * len(self.specs)

    # ------------------------------------------------------------------
    # Serialization (plan files, REPRO_FAULTS, pool-worker config).
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        payload = {"seed": self.seed,
                   "faults": [spec.to_dict() for spec in self.specs]}
        if self.state_dir is not None:
            payload["state_dir"] = str(self.state_dir)
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        unknown = sorted(set(payload) - {"seed", "faults", "state_dir"})
        if unknown:
            raise ValueError(f"unknown fault-plan keys {unknown}")
        specs = [FaultSpec.from_dict(item)
                 for item in payload.get("faults", ())]
        return cls(specs, seed=int(payload.get("seed", 0)),
                   state_dir=payload.get("state_dir"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # ------------------------------------------------------------------
    # Hit accounting.
    # ------------------------------------------------------------------
    def _state_file(self, index: int, kind: str) -> Path:
        assert self.state_dir is not None
        return self.state_dir / f"spec{index}.{kind}"

    def _advance(self, index: int, kind: str) -> int:
        """Count one event; returns how many happened *before* it.

        With a ``state_dir`` the counter is the size of an append-only
        file, which every process sharing the plan advances atomically
        (O_APPEND), so firing windows span the whole worker fleet.  The
        ordinal is this descriptor's offset after its own write: the
        file's size at that moment may already include another process's
        append, which would hand both processes the same ordinal.
        """
        if self.state_dir is None:
            with self._lock:
                counters = self._hits if kind == "hits" else self._fires
                before = counters[index]
                counters[index] = before + 1
                return before
        descriptor = os.open(self._state_file(index, kind),
                             os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(descriptor, b"1")
            return os.lseek(descriptor, 0, os.SEEK_CUR) - 1
        finally:
            os.close(descriptor)

    def _count(self, index: int, kind: str) -> int:
        if self.state_dir is None:
            with self._lock:
                return (self._hits if kind == "hits" else self._fires)[index]
        try:
            return self._state_file(index, kind).stat().st_size
        except OSError:
            return 0

    def action_for(self, point: str, key: str,
                   corrupting: bool) -> tuple[FaultSpec, int] | None:
        """The first rule due to fire at this hit, plus its fire ordinal.

        ``corrupting`` selects between byte-transform rules (consulted by
        :func:`corrupt_bytes`) and control-flow rules (consulted by
        :func:`fire`); the two never see each other's hit counters.
        """
        for index, spec in enumerate(self.specs):
            if spec.point != point or (spec.mode == "corrupt") != corrupting:
                continue
            if spec.match and spec.match not in key:
                continue
            hits = self._advance(index, "hits")
            if hits < spec.after:
                continue
            if spec.count >= 0 and hits >= spec.after + spec.count:
                continue
            return spec, self._advance(index, "fires")
        return None

    def report(self) -> dict:
        """Per-rule hit/fire counts (the chaos CLI's plan summary)."""
        return {
            "seed": self.seed,
            "rules": [
                {**spec.to_dict(),
                 "hits": self._count(index, "hits"),
                 "fires": self._count(index, "fires")}
                for index, spec in enumerate(self.specs)
            ],
        }


# ----------------------------------------------------------------------
# The installed plan (module-global, mirroring the tracing sink).
# ----------------------------------------------------------------------
_PLAN: FaultPlan | None = None


def install(plan: FaultPlan | None) -> None:
    """Activate ``plan`` process-wide (``None`` disables injection)."""
    global _PLAN
    _PLAN = plan


def active_plan() -> FaultPlan | None:
    return _PLAN


def clear() -> None:
    install(None)


def install_from_env() -> FaultPlan | None:
    """Install the :data:`FAULTS_ENV` plan, if any (path or inline JSON)."""
    value = os.environ.get(FAULTS_ENV, "").strip()
    if not value:
        return None
    if value.lstrip().startswith("{"):
        plan = FaultPlan.from_json(value)
    else:
        plan = FaultPlan.from_file(value)
    install(plan)
    return plan


def worker_config() -> str | None:
    """What a pool initializer must ship so workers enforce the same plan."""
    return None if _PLAN is None else _PLAN.to_json()


def apply_worker_config(config: str | None) -> None:
    """Initializer-side counterpart of :func:`worker_config`."""
    if config:
        install(FaultPlan.from_json(config))


# ----------------------------------------------------------------------
# The hooks the seams call.
# ----------------------------------------------------------------------
def _execute(spec: FaultSpec, point: str, key: str, *,
             sleeper=time.sleep) -> None:
    tracing.emit_span(f"fault.{spec.mode}", spec.delay_s
                      if spec.mode == "delay" else 0.0, point=point, key=key)
    if spec.mode == "delay":
        sleeper(spec.delay_s)
        return
    if spec.mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    raise InjectedFault(point, key)


def fire(point: str, key: str = "") -> None:
    """Run the control-flow fault due at this hit, if any.

    ``error`` raises :class:`InjectedFault`, ``delay`` sleeps, ``kill``
    SIGKILLs the process.  ``corrupt`` rules are never consulted here —
    byte transforms go through :func:`corrupt_bytes` at the seams that
    move payloads.  No-op (one global load, one ``is None`` test) when no
    plan is installed.
    """
    plan = _PLAN
    if plan is None:
        return
    action = plan.action_for(point, key, corrupting=False)
    if action is not None:
        _execute(action[0], point, key)


async def async_fire(point: str, key: str = "") -> None:
    """:func:`fire` for event-loop seams: ``delay`` awaits, never blocks."""
    plan = _PLAN
    if plan is None:
        return
    action = plan.action_for(point, key, corrupting=False)
    if action is None:
        return
    spec = action[0]
    if spec.mode == "delay":
        import asyncio

        tracing.emit_span("fault.delay", spec.delay_s, point=point, key=key)
        await asyncio.sleep(spec.delay_s)
        return
    _execute(spec, point, key)


def corrupt_bytes(point: str, data: bytes, key: str = "") -> bytes:
    """Apply the ``corrupt`` rule due at this hit: flip one seeded byte."""
    plan = _PLAN
    if plan is None or not data:
        return data
    action = plan.action_for(point, key, corrupting=True)
    if action is None:
        return data
    spec, ordinal = action
    # String seeds are deterministic across runs and platforms (CPython
    # hashes them with a fixed algorithm, unlike tuple hashing under PYTHONHASHSEED).
    rng = random.Random(f"{plan.seed}:{spec.point}:{spec.match}:{ordinal}")
    position = rng.randrange(len(data))
    mutated = bytearray(data)
    mutated[position] ^= 0xFF
    tracing.emit_span("fault.corrupt", 0.0, point=point, key=key,
                      position=position)
    return bytes(mutated)
