"""A unified metrics registry: counters, gauges and histograms with labels.

Before this module the runtime grew three parallel metric implementations
— :class:`~repro.service.metrics.ServiceMetrics` (HTTP counters and
latency windows), :class:`~repro.runtime.session.StageTimings` (per-stage
wall time) and :class:`~repro.runtime.session.SessionStats` (cache-hit
counters) — none of which composed or exported.  All three are now thin
adapters over one :class:`MetricsRegistry`, so every number the system
tracks lives behind the same three instrument kinds:

* :class:`Counter` — monotonically accumulating totals (requests served,
  traces generated, seconds spent in a batch stage);
* :class:`Gauge` — point-in-time values that move both ways (in-flight
  requests, queue depth);
* :class:`Histogram` — observation distributions with cumulative buckets
  for Prometheus *and* a bounded window of raw observations for the
  nearest-rank percentile reports the JSON endpoints serve.

Instruments are **labelled families**: ``registry.counter("requests_total",
labels=("endpoint",))`` returns a family whose ``.labels(endpoint=...)``
children hold the actual values.  An unlabelled instrument is a family
with one anonymous child, so the calling convention is uniform.

Everything is stdlib-only and thread-safe (one lock per registry — the
instruments this repo maintains are updated from asyncio worker threads
and the CLI's main thread, never from hot inner loops).
:func:`MetricsRegistry.render_prometheus` emits the text exposition format
(``# TYPE``/``# HELP`` + ``name{labels} value`` lines) that
``GET /v1/metrics?format=prometheus`` serves.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Iterable, Mapping, Sequence

#: Raw observations retained per histogram child for percentile reports.
HISTOGRAM_WINDOW = 1024

#: Default histogram bucket upper bounds, in the instrument's native unit
#: (seconds for the latency histograms): 1ms .. 60s, roughly 3 per decade.
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                   0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (nearest-rank) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _validate_label_values(family: "_Family",
                           labels: Mapping[str, str]) -> tuple:
    if set(labels) != set(family.label_names):
        raise ValueError(
            f"instrument {family.name!r} takes labels "
            f"{tuple(family.label_names)}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in family.label_names)


class _Child:
    """One (label-value tuple)-addressed cell of an instrument family."""

    __slots__ = ("_family", "label_values")

    def __init__(self, family: "_Family", label_values: tuple):
        self._family = family
        self.label_values = label_values

    @property
    def _lock(self) -> threading.Lock:
        return self._family._lock


class Counter(_Child):
    """A monotonically increasing total."""

    __slots__ = ("_value",)

    def __init__(self, family, label_values):
        super().__init__(family, label_values)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters cannot decrease; use a gauge")
        with self._lock:
            self._value += amount

    def set_total(self, value: float) -> None:
        """Adapter hook: install an externally accumulated total.

        Exists for the legacy counter structs (``SessionStats`` fields are
        incremented via ``stats.traces_generated += 1``) whose read-modify-
        write assignment needs an absolute set.  The total must not move
        backwards — this is still a counter.
        """
        with self._lock:
            if value < self._value:
                raise ValueError(
                    f"counter {self._family.name!r} cannot decrease "
                    f"({self._value} -> {value})"
                )
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Child):
    """A point-in-time value that can move both ways."""

    __slots__ = ("_value",)

    def __init__(self, family, label_values):
        super().__init__(family, label_values)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram(_Child):
    """Cumulative buckets plus a bounded window of raw observations.

    The buckets serve Prometheus (``_bucket{le=...}``/``_sum``/``_count``);
    the window serves the JSON endpoints' nearest-rank percentiles, which
    track *current* behaviour rather than averaging over the process's
    whole lifetime (the contract the pre-registry ``ServiceMetrics`` had).
    """

    __slots__ = ("_bucket_counts", "_sum", "_count", "_window")

    def __init__(self, family, label_values):
        super().__init__(family, label_values)
        self._bucket_counts = [0] * len(family.buckets)
        self._sum = 0.0
        self._count = 0
        self._window: deque[float] = deque(maxlen=HISTOGRAM_WINDOW)

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            self._window.append(value)
            # Per-bucket (non-cumulative) storage; the renderer produces
            # the cumulative ``le`` series Prometheus expects.
            for index, bound in enumerate(self._family.buckets):
                if value <= bound:
                    self._bucket_counts[index] += 1
                    break

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentiles(self, qs: Iterable[float] = (50, 90, 99)) -> dict[str, float]:
        """Nearest-rank percentiles over the retained window (empty: ``{}``)."""
        with self._lock:
            window = list(self._window)
        if not window:
            return {}
        return {f"p{q:g}": percentile(window, q) for q in qs}


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """A named instrument with zero or more label dimensions."""

    def __init__(self, registry: "MetricsRegistry", name: str, kind: str,
                 help: str, label_names: tuple[str, ...],
                 buckets: tuple[float, ...] = ()):
        self.registry = registry
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self.buckets = buckets
        self._lock = registry._lock
        self._children: dict[tuple, _Child] = {}

    def labels(self, **labels: str) -> _Child:
        """The child cell at these label values (created on first use)."""
        values = _validate_label_values(self, labels)
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = _KINDS[self.kind](self, values)
                self._children[values] = child
            return child

    def children(self) -> list[_Child]:
        with self._lock:
            return list(self._children.values())

    def reset(self) -> None:
        """Drop every child (adapter hook for ``StageTimings.clear()``)."""
        with self._lock:
            self._children.clear()

    # Unlabelled convenience: a family with no label names has exactly one
    # anonymous child, and proxies the instrument methods to it.
    def _anonymous(self) -> _Child:
        if self.label_names:
            raise ValueError(
                f"instrument {self.name!r} is labelled "
                f"{tuple(self.label_names)}; address a child via .labels()"
            )
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._anonymous().inc(amount)

    def set_total(self, value: float) -> None:
        self._anonymous().set_total(value)

    def dec(self, amount: float = 1.0) -> None:
        self._anonymous().dec(amount)

    def set(self, value: float) -> None:
        self._anonymous().set(value)

    def observe(self, value: float) -> None:
        self._anonymous().observe(value)

    def percentiles(self, qs: Iterable[float] = (50, 90, 99)) -> dict[str, float]:
        return self._anonymous().percentiles(qs)

    @property
    def value(self) -> float:
        return self._anonymous().value

    @property
    def count(self) -> int:
        return self._anonymous().count

    @property
    def sum(self) -> float:
        return self._anonymous().sum


class MetricsRegistry:
    """One namespace of named instruments, renderable as Prometheus text."""

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _get_or_create(self, name: str, kind: str, help: str,
                       labels: Sequence[str],
                       buckets: Sequence[float] = ()) -> _Family:
        label_names = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != label_names:
                    raise ValueError(
                        f"instrument {name!r} already registered as "
                        f"{family.kind} with labels {family.label_names}"
                    )
                return family
            family = _Family(self, name, kind, help, label_names,
                             tuple(buckets))
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> _Family:
        return self._get_or_create(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> _Family:
        return self._get_or_create(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> _Family:
        return self._get_or_create(name, "histogram", help, labels, buckets)

    def families(self) -> list[_Family]:
        with self._lock:
            return list(self._families.values())

    # ------------------------------------------------------------------
    # Export.
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Every instrument as plain data (tests and the JSON endpoints).

        ``{name: {kind, help, series: [{labels, value | count/sum/...}]}}``.
        """
        out: dict[str, dict] = {}
        for family in self.families():
            series = []
            for child in family.children():
                labels = dict(zip(family.label_names, child.label_values))
                if family.kind == "histogram":
                    series.append({"labels": labels, "count": child.count,
                                   "sum": child.sum,
                                   "percentiles": child.percentiles()})
                else:
                    series.append({"labels": labels, "value": child.value})
            out[family.name] = {"kind": family.kind, "help": family.help,
                                "series": series}
        return out

    def render_prometheus(self, prefix: str = "repro_") -> str:
        """The text exposition format (version 0.0.4) of every instrument."""
        lines: list[str] = []
        for family in sorted(self.families(), key=lambda f: f.name):
            metric = prefix + family.name
            if family.help:
                lines.append(f"# HELP {metric} {_escape_help(family.help)}")
            lines.append(f"# TYPE {metric} {family.kind}")
            for child in family.children():
                labels = dict(zip(family.label_names, child.label_values))
                if family.kind == "histogram":
                    cumulative = 0
                    for bound, count in zip(family.buckets,
                                            child._bucket_counts):
                        cumulative += count
                        lines.append(_sample(f"{metric}_bucket",
                                             {**labels, "le": _bound(bound)},
                                             cumulative))
                    lines.append(_sample(f"{metric}_bucket",
                                         {**labels, "le": "+Inf"},
                                         child.count))
                    lines.append(_sample(f"{metric}_sum", labels, child.sum))
                    lines.append(_sample(f"{metric}_count", labels,
                                         child.count))
                else:
                    lines.append(_sample(metric, labels, child.value))
        return "\n".join(lines) + "\n" if lines else ""


def _bound(value: float) -> str:
    return f"{value:g}"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _sample(name: str, labels: Mapping[str, str], value: float) -> str:
    if labels:
        rendered = ",".join(
            f'{key}="{_escape_label(str(val))}"'
            for key, val in labels.items()
        )
        name = f"{name}{{{rendered}}}"
    if isinstance(value, float) and value.is_integer():
        return f"{name} {int(value)}"
    return f"{name} {value}"


def render_prometheus(*registries: MetricsRegistry,
                      prefix: str = "repro_") -> str:
    """Concatenated exposition of several registries (service + session)."""
    return "".join(registry.render_prometheus(prefix)
                   for registry in registries)
