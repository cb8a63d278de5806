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
  below;
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
  past the first is profiled both ways (exactly in stream, and as a warmed
  interval with the same ``warming``), and the measured bias fraction is
  applied to every sampled interval;
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
from repro.core import penalties
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
    before_counts, before_cold, before_runs = streams.snapshot()
    chunk = chunked.chunk(index)
    streams.update(chunk)
    after_counts, after_cold, after_runs = streams.snapshot()
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


def _census_counts(chunked: ChunkedTrace, plan: SamplingPlan,
                   machine: MachineConfig,
                   mlp_window: int) -> list[tuple[dict[str, int], int]]:
    """Exact per-chunk (metric counts, dl2 miss runs) for ``plan.census``.

    One pass of the chunk-resumable streams over the warmup prefix only;
    cumulative counts are snapshotted after every chunk and differenced.
    """
    if not plan.census:
        return []
    streams = _StreamSet(machine, mlp_window)
    per_chunk: list[tuple[dict[str, int], int]] = []
    previous: dict[str, int] = {metric: 0 for metric in MISS_METRICS}
    previous_runs = 0
    for index in plan.census:
        streams.update(chunked.chunk(index))
        cumulative, _, runs = streams.snapshot()
        per_chunk.append((
            {
                metric: cumulative[metric] - previous[metric]
                for metric in MISS_METRICS
            },
            runs - previous_runs,
        ))
        previous = cumulative
        previous_runs = runs
    return per_chunk


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
    def measure(cls, census: list[tuple[dict[str, int], int]],
                records: dict[int, IntervalRecord]) -> "_Calibration":
        """Compare streamed vs warmed counts over census chunks 1..w-1.

        Chunk 0 is excluded: its stream starts cold, so its warmed profile
        is already exact and measures nothing.
        """
        samples: dict[str, list[float]] = {}
        for position in range(1, len(census)):
            record = records.get(position)
            if record is None:
                continue
            exact, _ = census[position]
            for metric in MISS_METRICS:
                window = cls._window(record, metric)
                if window <= 0:
                    continue
                warmed = getattr(record.misses, metric)
                if metric == "taken_bubbles":
                    bias = (exact[metric] - warmed) / window
                else:
                    bias = (warmed - exact[metric]) / window
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


def _model_penalties(machine: MachineConfig) -> dict[str, float]:
    """Cycles the model charges per event of each miss metric."""
    model = InOrderMechanisticModel(machine)
    return {
        "l1i_misses": model._miss_penalty(machine.l2_hit_cycles),
        "il2_misses": model._miss_penalty(machine.memory_cycles),
        "dl2_misses": model._miss_penalty(machine.memory_cycles),
        "itlb_misses": model._miss_penalty(machine.tlb_miss_cycles),
        "dtlb_misses": model._miss_penalty(machine.tlb_miss_cycles),
        "l1d_misses": model._long_latency_penalty(
            machine.l1_hit_cycles + machine.l2_hit_cycles
        ),
        "mispredictions": machine.frontend_depth + model._correction(),
        "taken_bubbles": penalties.taken_branch_penalty(),
        "conditional_branches": 0.0,
    }


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
    artifact cache's facade.  Re-sampling at a nested rate reuses every
    interval the two plans share.
    """
    plan = systematic_plan(chunked.num_chunks, rate, warmup)
    hits = misses_count = 0

    def interval_record(index: int) -> IntervalRecord:
        nonlocal hits, misses_count
        record = None
        key = None
        if cache is not None:
            key = interval_cache_key(chunked, index, machine, mlp_window,
                                     warming)
            record = cache.get(key)
            if record is not None and (
                record.schema_version != SAMPLING_SCHEMA_VERSION
            ):
                record = None
        if record is None:
            misses_count += 1
            record = profile_interval(chunked, index, machine, mlp_window,
                                      warming)
            if cache is not None:
                cache[key] = record
        else:
            hits += 1
        return record

    census_counts = _census_counts(chunked, plan, machine, mlp_window)
    census_records = {
        position: interval_record(index)
        for position, index in enumerate(plan.census)
        if position > 0  # position 0's warmed profile is its exact profile
    }
    calibration = _Calibration.measure(census_counts, census_records)
    selected_records = [
        (index, interval_record(index)) for index in plan.selected
    ]

    # ------------------------------------------------------------------
    # Weighted, calibrated aggregates (floats are fine: MissProfile is not
    # frozen and the model is linear in every count).
    # ------------------------------------------------------------------
    census_instructions = sum(
        chunked.chunk_bounds(index)[1] - chunked.chunk_bounds(index)[0]
        for index in plan.census
    )
    # Weight by instructions, not chunks: the weighted sample then covers
    # exactly the workload's true length, so the aggregate counts estimate
    # workload totals directly (no ragged-last-chunk skew).
    true_instructions = len(chunked)
    selected_instructions = sum(
        record.instructions for _, record in selected_records
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
                sum(counts[metric] for counts, _ in census_counts)
                + weight * sum(
                    calibration.correct(record, metric)
                    for _, record in selected_records
                )
            )
            for metric in MISS_METRICS
        },
        dl2_miss_runs=(
            sum(runs for _, runs in census_counts)
            + weight * sum(
                record.misses.dl2_miss_runs for _, record in selected_records
            )
        ),
    )
    mix_counts: dict = {}
    mix_total = 0.0
    dependencies = DependencyProfile()
    # Census witnesses already carry their chunk's program (built inside
    # ``profile_interval``); only position 0 needs a fresh pass.
    census_programs = [
        census_records[position].program if position in census_records
        else _chunk_program(chunked.chunk(index))
        for position, index in enumerate(plan.census)
    ]
    weighted_programs = [
        (1.0, program) for program in census_programs
    ] + [
        (weight, record.program) for _, record in selected_records
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
    penalty = _model_penalties(machine)

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
        cycles_halfwidth(record) for _, record in selected_records
    )
    cold_bias_fraction = (
        allowance_cycles / estimated_cycles if estimated_cycles else 0.0
    )

    # Census chunks double as variance witnesses: their exact per-chunk
    # counts (and modelled cycles) are real observations of chunk-to-chunk
    # variability, which matters most when only one or two chunks were
    # sampled.  Chunk 0 is excluded — its cold start makes it atypical.
    census_cycles = []
    for position, (counts, runs) in enumerate(census_counts):
        chunk_misses = MissProfile(
            machine=machine,
            instructions=census_programs[position].instructions,
            dl2_miss_runs=runs,
            **counts,
        )
        census_cycles.append(
            InOrderMechanisticModel(machine)
            .predict(census_programs[position], chunk_misses)
            .cycles
        )
    witnesses: dict[str, list[float]] = {
        metric: [float(counts[metric]) for counts, _ in census_counts[1:]]
        for metric in MISS_METRICS
    }
    witnesses["cpi"] = list(census_cycles[1:])

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
                for _, record in selected_records
            ]
            allowance = weight * sum(
                calibration.halfwidth(record, metric)
                for _, record in selected_records
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
            corrected_cycles(record) for _, record in selected_records
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
        for _, record in selected_records if record.instructions
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
        cache_misses=misses_count,
    )
