"""Systematic interval sampling over chunked traces.

Exact streamed profiling (:mod:`repro.profiler.single_pass_engine` over a
chunked trace) bounds *memory* but still touches every dynamic instruction.
For workloads two or three orders of magnitude longer than the MiBench
traces, this module bounds *time* as well: it profiles only every
``rate``-th chunk (a systematic sample of fixed-length intervals, in the
spirit of SMARTS/SimPoint) and scales the per-interval statistics up to the
full workload.

The estimator:

* the first ``warmup`` chunks are a **census**: they are streamed exactly
  (carried caches and predictor state, chunk by chunk), so their per-chunk
  counts carry no error at all — and they double as the calibration set
  below.  Census chunk ``i`` streamed from the trace start is exactly the
  warmed interval with window ``0..i``, so each census chunk is an
  ordinary interval record, cached under that interval's key: a re-sample
  whose census records all hit walks no census chunk;
* after the warmup prefix, every ``rate``-th chunk is profiled as a
  **warmed interval**: the ``warming`` chunks preceding it are streamed
  through the chunk-resumable kernels to warm caches, TLBs and predictor
  tables (state only), then the chunk itself is profiled by differencing
  cumulative counts across it.  A warmed interval profile is a pure
  function of the warming window's content, so records are
  content-addressed and cached: re-sampling the same trace at a nested
  rate, or for a machine already profiled, reuses every overlapping
  interval instead of re-walking it;
* finite warming leaves a residual cold-start bias — events that look cold
  within the warming window but would have been warm in the full stream.
  Each biased metric has a *window* bounding the residual (its cold-miss
  count within the measured chunk; see :class:`_Calibration`), and the
  census measures where in the window the truth sits: every census chunk
  past the first ``warming + 1`` is profiled both ways (exactly in stream,
  and as a warmed interval with the same ``warming``; up to ``warming``
  the warmed window reaches the trace start, so the census record is that
  interval and measures a zero bias without a second walk), and the
  measured bias fraction is applied to every sampled interval;
* the reported per-metric relative error combines the calibration
  uncertainty (spread of the bias fraction across census chunks, floored —
  the census sits at the start of the trace and the sampled region may
  drift) with the sampling error (sample variance across selected
  intervals), so the error bar brackets both noise sources.

Accuracy degrades gracefully but inevitably when ``chunk_length x
(warming + 1)`` is much smaller than the reuse horizon of the largest
structure (a big L2 takes many thousands of accesses to warm); pick chunk
geometry so a warmed interval covers it, or widen ``warming``.

The module is backend-agnostic: census and warmed intervals both go
through the active :mod:`repro.accel` backend's chunk-resumable streams.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

from repro.accel import get_kernels
from repro.core.model import InOrderMechanisticModel, ModelResult
from repro.machine import MachineConfig
from repro.profiler.dependences import MAX_DISTANCE, DependencyProfile
from repro.profiler.instruction_mix import InstructionMix
from repro.profiler.machine_stats import MissProfile
from repro.profiler.program import ProgramProfile
from repro.profiler.single_pass_engine import (
    assemble_miss_profile,
    branch_stream,
    pass_keys,
)
from repro.trace.store import chunk_digest
from repro.trace.trace import ChunkedTrace

#: Version of the per-interval record layout; part of every cache key, so a
#: layout change silently invalidates stale cached records.
SAMPLING_SCHEMA_VERSION = 1

#: Two-sided 95% normal quantile used to widen the standard error into a
#: confidence radius.
CONFIDENCE_Z = 1.96

#: Floor on the calibration halfwidth (as a fraction of the bias window):
#: the census measures the bias at the start of the trace and the sampled
#: region may drift, so the error bar never trusts the calibration to
#: better than this.
BIAS_HALFWIDTH_FLOOR = 0.25

#: Miss-profile count fields that get a per-metric error estimate.
MISS_METRICS = (
    "l1i_misses", "il2_misses", "itlb_misses",
    "l1d_misses", "dl2_misses", "dtlb_misses",
    "mispredictions", "taken_bubbles", "conditional_branches",
)

#: Metrics whose warmed-interval profile carries a residual cold-start
#: bias, and the cold-miss counter that measures the bias window.
_COLD_SOURCES = {
    "l1i_misses": "l1i", "l1d_misses": "l1d",
    "itlb_misses": "itlb", "dtlb_misses": "dtlb",
    "il2_misses": "il2", "dl2_misses": "dl2",
}


# ----------------------------------------------------------------------
# Plans.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SamplingPlan:
    """Which chunks of a ``num_chunks``-chunk trace get profiled, and how.

    ``warmup`` leading chunks are censused at weight 1.0; each index in
    ``selected`` is profiled at weight ``weight``.  ``rate == 1`` (or a
    trace no longer than the warmup prefix) degenerates to an exact census.
    """

    num_chunks: int
    rate: int
    warmup: int
    selected: tuple[int, ...]
    weight: float

    @property
    def census(self) -> tuple[int, ...]:
        """The warmup prefix — profiled exactly, weight 1.0."""
        return tuple(range(min(self.warmup, self.num_chunks)))

    @property
    def intervals_profiled(self) -> int:
        return len(self.census) + len(self.selected)

    @property
    def fraction(self) -> float:
        """Fraction of chunks actually profiled."""
        if self.num_chunks == 0:
            return 0.0
        return self.intervals_profiled / self.num_chunks

    @property
    def exact(self) -> bool:
        """True when the plan covers every chunk at weight 1.0."""
        return self.intervals_profiled == self.num_chunks and self.weight == 1.0


def systematic_plan(num_chunks: int, rate: int,
                    warmup: int = 1) -> SamplingPlan:
    """Every ``rate``-th chunk after a ``warmup``-chunk census prefix."""
    if rate < 1:
        raise ValueError("sampling rate must be at least 1")
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    selected = tuple(range(warmup, num_chunks, rate))
    if selected:
        weight = (num_chunks - warmup) / len(selected)
    else:
        weight = 1.0
    return SamplingPlan(num_chunks=num_chunks, rate=rate, warmup=warmup,
                        selected=selected, weight=weight)


# ----------------------------------------------------------------------
# Warmed interval profiling (content-addressed, cacheable).
# ----------------------------------------------------------------------
@dataclass
class IntervalRecord:
    """Everything the estimator needs from one warmed interval profile.

    A pure function of (warming-window content, machine, mlp_window), so
    records are safe to cache content-addressed and to share across
    sampling rates whose plans select the same chunk.
    """

    schema_version: int
    instructions: int
    #: Model-predicted cycles for the warmed interval.
    cycles: float
    #: Cold misses per structure (l1i/l1d/itlb/dtlb/il2/dl2) *within the
    #: measured chunk* — the residual bias windows.
    cold: dict[str, int]
    misses: MissProfile
    program: ProgramProfile


def machine_fingerprint(machine: MachineConfig) -> str:
    """Stable short digest of a machine's compared fields (name excluded)."""
    payload = [(spec.name, getattr(machine, spec.name))
               for spec in fields(machine) if spec.compare]
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]


def interval_cache_key(chunked: ChunkedTrace, index: int,
                       machine: MachineConfig, mlp_window: int,
                       warming: int) -> str:
    """Content address of one warmed interval profile."""
    start = max(0, index - warming)
    window = hashlib.sha256()
    for position in range(start, index + 1):
        window.update(chunk_digest(chunked, position).encode("ascii"))
    return (
        f"interval-v{SAMPLING_SCHEMA_VERSION}-{window.hexdigest()[:32]}-"
        f"{machine_fingerprint(machine)}-w{mlp_window}"
    )


class _StreamSet:
    """One machine's chunk-resumable streams plus cumulative snapshots."""

    def __init__(self, machine: MachineConfig, mlp_window: int):
        self.machine = machine
        self.mlp_window = mlp_window
        self.kernels = get_kernels()
        geometry, (_, sets, line) = pass_keys(machine)
        self.base = self.kernels.base_stream(geometry)
        self.l2 = self.kernels.l2_stream(
            sets, line, [(machine.l2_associativity, mlp_window)]
        )
        self.branches = branch_stream(self.kernels, machine.branch_predictor)

    def update(self, chunk) -> None:
        self.l2.update(*self.base.update(chunk))
        self.branches.update(self.kernels.control_stream(chunk))

    def snapshot(self) -> tuple[dict[str, int], dict[str, int], int]:
        """Cumulative (metric counts, cold counts, dl2 miss runs) so far."""
        base = self.base.finish()
        l2 = self.l2.finish()
        profile = assemble_miss_profile(
            self.machine, 0, base, l2, self.branches.finish(),
            self.mlp_window, self.kernels.count_runs,
        )
        counts = {metric: getattr(profile, metric) for metric in MISS_METRICS}
        cold = {
            "l1i": base.l1i.cold_misses, "l1d": base.l1d.cold_misses,
            "itlb": base.itlb.cold_misses, "dtlb": base.dtlb.cold_misses,
            "il2": l2.instruction_cold, "dl2": l2.data_cold,
        }
        return counts, cold, profile.dl2_miss_runs


def _chunk_program(chunk) -> ProgramProfile:
    """Chunk-local program profile through the active kernel backend.

    Value-identical to :func:`profile_program` on the chunk; per-chunk
    program profiling is the only per-interval work that is not a miss
    stream.
    """
    kernels = get_kernels()
    return ProgramProfile(
        name=chunk.name,
        instructions=len(chunk),
        mix=kernels.instruction_mix(chunk),
        dependencies=kernels.dependency_profile(chunk, MAX_DISTANCE),
    )


def _record(machine: MachineConfig, chunk, before, after) -> IntervalRecord:
    """The record of ``chunk`` from the stream snapshots around it."""
    before_counts, before_cold, before_runs = before
    after_counts, after_cold, after_runs = after
    counts = {
        metric: after_counts[metric] - before_counts[metric]
        for metric in MISS_METRICS
    }
    cold = {
        source: after_cold[source] - before_cold[source]
        for source in after_cold
    }
    program = _chunk_program(chunk)
    misses = MissProfile(
        machine=machine,
        instructions=len(chunk),
        dl2_miss_runs=after_runs - before_runs,
        **counts,
    )
    result = InOrderMechanisticModel(machine).predict(program, misses)
    return IntervalRecord(
        schema_version=SAMPLING_SCHEMA_VERSION,
        instructions=len(chunk),
        cycles=result.cycles,
        cold=cold,
        misses=misses,
        program=program,
    )


def profile_interval(chunked: ChunkedTrace, index: int,
                     machine: MachineConfig, mlp_window: int = 64,
                     warming: int = 1) -> IntervalRecord:
    """Profile chunk ``index`` after warming on its predecessors.

    The ``warming`` chunks before ``index`` (clipped at the trace start)
    are streamed through the kernels for state only; the measured chunk's
    counts are the difference of cumulative snapshots around it.
    """
    streams = _StreamSet(machine, mlp_window)
    for position in range(max(0, index - warming), index):
        streams.update(chunked.chunk(position))
    before = streams.snapshot()
    chunk = chunked.chunk(index)
    streams.update(chunk)
    return _record(machine, chunk, before, streams.snapshot())


def _census_records(chunked: ChunkedTrace, census: tuple[int, ...],
                    machine: MachineConfig,
                    mlp_window: int) -> list[IntervalRecord]:
    """One record per census chunk, from one pass over the census prefix.

    Census chunk ``i`` streamed from the trace start is exactly the warmed
    interval with window ``0..i``, so its record equals
    ``profile_interval(chunked, i, machine, mlp_window, warming=i)`` and
    lives under that interval's cache key.
    """
    streams = _StreamSet(machine, mlp_window)
    before = streams.snapshot()
    records = []
    for index in census:
        chunk = chunked.chunk(index)
        streams.update(chunk)
        after = streams.snapshot()
        records.append(_record(machine, chunk, before, after))
        before = after
    return records


def _load(cache, key: str) -> IntervalRecord | None:
    """The cached record at ``key``, or None if absent or stale."""
    record = cache.get(key)
    if record is None or record.schema_version != SAMPLING_SCHEMA_VERSION:
        return None
    return record


# ----------------------------------------------------------------------
# Calibration.
# ----------------------------------------------------------------------
def _spread(samples: list[float]) -> float:
    """Halfwidth of the calibration uncertainty from its census samples."""
    if len(samples) < 2:
        return BIAS_HALFWIDTH_FLOOR
    mean = sum(samples) / len(samples)
    deviation = math.sqrt(
        sum((s - mean) ** 2 for s in samples) / (len(samples) - 1)
    )
    return max(CONFIDENCE_Z * deviation, BIAS_HALFWIDTH_FLOOR)


@dataclass
class _Calibration:
    """Measured residual cold-start bias rates, one per biased metric.

    Each biased metric has a *window*: a per-interval count bounding how
    far the warmed profile can sit from the true streamed count, and a
    direction (warming residue over-counts everything except taken
    bubbles, which cold predictor tables under-count).  ``bias[metric]``
    is the measured fraction of the window the correction removes;
    ``half[metric]`` is the halfwidth of the calibration uncertainty, as a
    fraction of the window.  Both live in [0, 1], so no correction can
    leave the window.

    Window choices per metric:

    * L1/TLB misses — the measured chunk's cold-miss count.  Exact: a
      reuse within the warming window has the same stack distance there
      and in the full stream, so only accesses cold within the window can
      change, each to a hit or a miss.
    * L2 misses — the measured chunk's L2 cold count plus the feeding L1's
      cold count: L1 cold misses inside the window inject L2 accesses the
      streamed L2 never sees, so the distortion extends beyond the L2's
      own cold misses.
    * mispredictions — the measured chunk's misprediction count (cold
      tables can only have turned would-be hits into that many extra
      mispredictions).
    * taken bubbles — also the misprediction count, upward: every bubble
      the cold tables lost is a taken branch they mispredicted.
    """

    bias: dict[str, float] = field(default_factory=dict)
    half: dict[str, float] = field(default_factory=dict)

    @classmethod
    def measure(cls, census: list[IntervalRecord],
                warmed: list[IntervalRecord]) -> "_Calibration":
        """Compare streamed vs warmed counts over census chunks 1..w-1.

        ``warmed[k]`` is census chunk ``k + 1`` profiled as a warmed
        interval.  Chunk 0 is excluded: its stream starts cold, so its
        warmed profile is already exact and measures nothing.
        """
        samples: dict[str, list[float]] = {}
        for exact, record in zip(census[1:], warmed):
            for metric in MISS_METRICS:
                window = cls._window(record, metric)
                if window <= 0:
                    continue
                streamed = getattr(exact.misses, metric)
                value = getattr(record.misses, metric)
                if metric == "taken_bubbles":
                    bias = (streamed - value) / window
                else:
                    bias = (value - streamed) / window
                samples.setdefault(metric, []).append(
                    min(1.0, max(0.0, bias))
                )
        calibration = cls()
        for metric in MISS_METRICS:
            observed = samples.get(metric, [])
            if observed:
                calibration.bias[metric] = sum(observed) / len(observed)
                calibration.half[metric] = min(0.5, _spread(observed))
            else:
                # Nothing to calibrate against: fall back to the window
                # midpoint with the full halfwindow as uncertainty.
                calibration.bias[metric] = 0.5
                calibration.half[metric] = 0.5
        return calibration

    @staticmethod
    def _window(record: IntervalRecord, metric: str) -> float:
        """Width of the metric's warmed-vs-streamed bias window."""
        source = _COLD_SOURCES.get(metric)
        if source is not None:
            window = record.cold[source]
            if metric == "il2_misses":
                window += record.cold["l1i"]
            elif metric == "dl2_misses":
                window += record.cold["l1d"]
            return float(min(window, getattr(record.misses, metric)))
        if metric in ("mispredictions", "taken_bubbles"):
            return float(record.misses.mispredictions)
        return 0.0

    def correct(self, record: IntervalRecord, metric: str) -> float:
        """The calibrated estimate of the metric's true streamed count."""
        warmed = getattr(record.misses, metric)
        window = self._window(record, metric)
        if window <= 0:
            return float(warmed)
        shift = self.bias[metric] * window
        if metric == "taken_bubbles":
            return warmed + shift
        return warmed - shift

    def halfwidth(self, record: IntervalRecord, metric: str) -> float:
        """Absolute halfwidth of the calibrated estimate's uncertainty."""
        return self.half.get(metric, 0.0) * self._window(record, metric)


# ----------------------------------------------------------------------
# The estimator.
# ----------------------------------------------------------------------
@dataclass
class SampledEvaluation:
    """A sampled model evaluation with per-metric error estimates.

    ``misses`` and ``program`` hold the *weighted, calibrated* aggregates
    (float counts); ``result`` is the model's prediction on them.
    ``cycles`` is rescaled so that ``cycles / instructions`` equals the
    estimated CPI at the workload's true instruction count.
    """

    name: str
    machine: MachineConfig
    plan: SamplingPlan
    mlp_window: int
    warming: int
    instructions: int
    cycles: float
    result: ModelResult
    misses: MissProfile
    program: ProgramProfile
    #: metric -> estimated relative error (confidence radius / estimate).
    est_rel_error: dict[str, float]
    #: Per selected interval: model CPI of the warmed interval.
    interval_cpis: tuple[float, ...]
    #: Weighted cold-start allowance cycles / estimated cycles.
    cold_bias_fraction: float
    cache_hits: int
    cache_misses: int

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def seconds(self) -> float:
        return self.cycles * self.machine.cycle_ns * 1e-9

    def to_dict(self) -> dict:
        """Sampling metadata in the shape the eval API attaches to results."""
        return {
            "schema_version": SAMPLING_SCHEMA_VERSION,
            "num_chunks": self.plan.num_chunks,
            "rate": self.plan.rate,
            "warmup": self.plan.warmup,
            "warming": self.warming,
            "intervals_profiled": self.plan.intervals_profiled,
            "fraction": self.plan.fraction,
            "cold_bias_fraction": self.cold_bias_fraction,
            "est_rel_error": dict(self.est_rel_error),
        }

    def to_eval_result(self):
        """This evaluation as a :class:`~repro.api.spec.EvalResult`.

        The result rides the declarative API's wire format (so it renders,
        serializes and batches like any backend's answer), tagged with
        backend ``analytical_sampled`` and carrying :meth:`to_dict` in the
        ``sampling`` field.
        """
        from repro.api.spec import (
            EvalRequest,
            EvalResult,
            MachineSpec,
            WorkloadSpec,
        )

        request = EvalRequest(
            workload=WorkloadSpec(name=self.name),
            machine=MachineSpec.parse(self.machine),
            backend="analytical_sampled",
            mlp_window=self.mlp_window,
        )
        return EvalResult(
            request=request,
            backend="analytical_sampled",
            workload=self.name,
            machine=self.machine.name,
            instructions=self.instructions,
            cycles=self.cycles,
            seconds=self.seconds,
            cpi_stack={component.value: cycles for component, cycles
                       in self.result.stack.cycles.items()},
            sampling=self.to_dict(),
        )


def sample_evaluate(chunked: ChunkedTrace, machine: MachineConfig,
                    rate: int, warmup: int = 4, warming: int = 1,
                    mlp_window: int = 64, cache=None) -> SampledEvaluation:
    """Estimate the model's prediction for ``chunked`` from a sample.

    ``warmup`` chunks are streamed exactly and double as the calibration
    set (at least 3 are needed to measure the calibration spread; fewer
    fall back to conservative windows).  ``warming`` chunks are streamed
    state-only before every profiled interval.  ``cache`` is any
    mapping-like object (``get`` + ``__setitem__``) used to memoize
    per-interval records content-addressed by warming-window digest,
    machine fingerprint and MLP window — a plain dict works, as does the
    artifact cache's facade.  Census records are cached too, so
    re-sampling at a nested rate reuses the census and every interval the
    two plans share.  ``cache_misses`` counts the records this call built,
    census records included; ``cache_hits`` counts those read from the
    cache.
    """
    plan = systematic_plan(chunked.num_chunks, rate, warmup)
    # ``built`` counts records this call profiled, census records
    # included; ``hits`` counts records read from the cache.
    hits = built = 0

    def interval_record(index: int) -> IntervalRecord:
        nonlocal hits, built
        key = None
        if cache is not None:
            key = interval_cache_key(chunked, index, machine, mlp_window,
                                     warming)
            record = _load(cache, key)
            if record is not None:
                hits += 1
                return record
        built += 1
        record = profile_interval(chunked, index, machine, mlp_window,
                                  warming)
        if cache is not None:
            cache[key] = record
        return record

    # The census is read from the cache only when every record hits; any
    # miss re-walks the whole prefix, which builds all of them at once.
    census_keys = [] if cache is None else [
        interval_cache_key(chunked, index, machine, mlp_window,
                           warming=index)
        for index in plan.census
    ]
    census = [_load(cache, key) for key in census_keys]
    if len(census) == len(plan.census) and None not in census:
        hits += len(census)
    else:
        census = _census_records(chunked, plan.census, machine, mlp_window)
        built += len(census)
        for key, record in zip(census_keys, census):
            cache[key] = record
    # Census chunks 1.. as warmed intervals: up to ``warming`` the window
    # reaches the trace start, so the census record is that interval.
    warmed = [
        census[index] if index <= warming else interval_record(index)
        for index in plan.census[1:]
    ]
    calibration = _Calibration.measure(census, warmed)
    selected_records = [interval_record(index) for index in plan.selected]

    # ------------------------------------------------------------------
    # Weighted, calibrated aggregates (floats are fine: MissProfile is not
    # frozen and the model is linear in every count).
    # ------------------------------------------------------------------
    census_instructions = sum(record.instructions for record in census)
    # Weight by instructions, not chunks: the weighted sample then covers
    # exactly the workload's true length, so the aggregate counts estimate
    # workload totals directly (no ragged-last-chunk skew).
    true_instructions = len(chunked)
    selected_instructions = sum(
        record.instructions for record in selected_records
    )
    if selected_instructions:
        weight = (true_instructions - census_instructions) / selected_instructions
    else:
        weight = 0.0
    total_instructions = census_instructions + weight * selected_instructions
    aggregate = MissProfile(
        machine=machine,
        instructions=total_instructions,
        **{
            metric: (
                sum(getattr(record.misses, metric) for record in census)
                + weight * sum(
                    calibration.correct(record, metric)
                    for record in selected_records
                )
            )
            for metric in MISS_METRICS
        },
        dl2_miss_runs=(
            sum(record.misses.dl2_miss_runs for record in census)
            + weight * sum(
                record.misses.dl2_miss_runs for record in selected_records
            )
        ),
    )
    mix_counts: dict = {}
    mix_total = 0.0
    dependencies = DependencyProfile()
    weighted_programs = [
        (1.0, record.program) for record in census
    ] + [
        (weight, record.program) for record in selected_records
    ]
    for weight, chunk_program in weighted_programs:
        mix_total += weight * chunk_program.mix.total
        for op_class, count in chunk_program.mix.counts.items():
            mix_counts[op_class] = mix_counts.get(op_class, 0.0) + weight * count
        deps = chunk_program.dependencies
        for kind in ("unit", "long", "load"):
            histogram = dependencies.histogram(kind)
            for distance, count in deps.histogram(kind).items():
                histogram[distance] = (
                    histogram.get(distance, 0.0) + weight * count
                )
        dependencies.consumers += weight * deps.consumers
    program = ProgramProfile(
        name=chunked.name,
        instructions=total_instructions,
        mix=InstructionMix(total=mix_total, counts=mix_counts),
        dependencies=dependencies,
    )
    result = InOrderMechanisticModel(machine).predict(program, aggregate)
    # total_instructions == true_instructions by construction of ``weight``
    # (up to float rounding), so the model's cycles already sit at the
    # workload's true scale.
    cycles = result.cycles

    # ------------------------------------------------------------------
    # Error estimation: calibration allowance (weighted halfwidths) plus
    # sampling variance across selected intervals.
    # ------------------------------------------------------------------
    # Cycles the model charges per event of each metric; conditional
    # branches carry no charge of their own.
    row = InOrderMechanisticModel(machine).penalty_row
    penalty = {metric: getattr(row, metric, 0.0) for metric in MISS_METRICS}

    def corrected_cycles(record: IntervalRecord) -> float:
        delta = sum(
            penalty[metric] * (
                calibration.correct(record, metric)
                - getattr(record.misses, metric)
            )
            for metric in MISS_METRICS
        )
        return record.cycles + delta

    def cycles_halfwidth(record: IntervalRecord) -> float:
        return sum(
            penalty[metric] * calibration.halfwidth(record, metric)
            for metric in MISS_METRICS
        )

    estimated_cycles = result.cycles
    allowance_cycles = weight * sum(
        cycles_halfwidth(record) for record in selected_records
    )
    cold_bias_fraction = (
        allowance_cycles / estimated_cycles if estimated_cycles else 0.0
    )

    # Census chunks double as variance witnesses: their exact per-chunk
    # counts (and modelled cycles) are real observations of chunk-to-chunk
    # variability, which matters most when only one or two chunks were
    # sampled.  Chunk 0 is excluded — its cold start makes it atypical.
    witnesses: dict[str, list[float]] = {
        metric: [float(getattr(record.misses, metric))
                 for record in census[1:]]
        for metric in MISS_METRICS
    }
    witnesses["cpi"] = [record.cycles for record in census[1:]]

    est_rel_error: dict[str, float] = {}
    count = len(selected_records)

    def pooled_spread(values: list[float], metric: str) -> float:
        """Z * sqrt(Var(total)) from the pooled per-chunk observations.

        Var(total) ~= weight^2 * m * Var(interval) for a systematic sample
        treated as simple random (the standard SMARTS approximation), with
        the interval variance pooled over sampled and census chunks.
        """
        pooled = values + witnesses.get(metric, [])
        if len(pooled) < 2:
            return 0.0
        mean = sum(pooled) / len(pooled)
        variance = sum((v - mean) ** 2 for v in pooled) / (len(pooled) - 1)
        return CONFIDENCE_Z * weight * math.sqrt(count * variance)

    metric_radius: dict[str, float] = {}
    for metric in MISS_METRICS:
        error = 0.0
        total = getattr(aggregate, metric)
        if not plan.exact and count:
            values = [
                calibration.correct(record, metric)
                for record in selected_records
            ]
            allowance = weight * sum(
                calibration.halfwidth(record, metric)
                for record in selected_records
            )
            # Shot-noise floor for sparse event counts: observing k events
            # bounds the underlying Poisson rate no tighter than
            # Z*sqrt(k) + 4 events.  The additive constant is the
            # rule-of-three zero-count bound widened one notch (~98%)
            # because systematic selection can alias against periodic
            # chunk behaviour, which a random-sampling bound ignores.
            observed = sum(values)
            shot = weight * (
                CONFIDENCE_Z * math.sqrt(max(observed, 0.0)) + 4.0
            )
            radius = max(pooled_spread(values, metric), shot) + allowance
            metric_radius[metric] = radius
            # A count of zero events still has one event of one-sided
            # uncertainty, so relative errors of near-empty metrics stay
            # meaningful (and huge, as they should be).
            error = radius / max(total, 1.0)
        est_rel_error[metric] = error

    cpi_error = 0.0
    if not plan.exact and count and estimated_cycles:
        cycle_values = [
            corrected_cycles(record) for record in selected_records
        ]
        # The per-metric sampling radii fold through the model's penalties
        # into a cycles radius (root-sum-square: the metrics' sampling
        # errors are treated as independent).  This keeps the CPI bar
        # honest when the cycle-level variance collapses — e.g. when the
        # sampled chunks aliased onto atypical miss behaviour — while the
        # count-level floors still register uncertainty.
        folded = math.sqrt(sum(
            (penalty[metric] * metric_radius.get(metric, 0.0)) ** 2
            for metric in MISS_METRICS
        ))
        spread = max(pooled_spread(cycle_values, "cpi"), folded)
        cpi_error = (spread + allowance_cycles) / estimated_cycles
    est_rel_error["cpi"] = cpi_error

    interval_cpis = tuple(
        record.cycles / record.instructions
        for record in selected_records if record.instructions
    )
    return SampledEvaluation(
        name=chunked.name,
        machine=machine,
        plan=plan,
        mlp_window=mlp_window,
        warming=warming,
        instructions=true_instructions,
        cycles=cycles,
        result=result,
        misses=aggregate,
        program=program,
        est_rel_error=est_rel_error,
        interval_cpis=interval_cpis,
        cold_bias_fraction=cold_bias_fraction,
        cache_hits=hits,
        cache_misses=built,
    )
