"""Sharded Monte Carlo executor: chunk trials, fan out, merge.

:func:`run_experiment` and :func:`run_experiment_sequential` are the
engine's front doors: thin, validated entry points over one round loop.
A fixed-trial run is the single round ``[n_trials]`` with no stopping
rule; a sequential run supplies geometric round goals and a tolerance
rule.  Each round splits its new trials into chunks of whole RNG blocks,
evaluates them serially or across one
:class:`~repro.engine.executor.SharedExecutor` pool per run, and merges
the per-chunk tallies.  Because every trial's randomness is keyed by its
block (:mod:`repro.engine.rng`) and the merge is a commutative sum plus
an order-restoring concatenation, **the result is bit-identical for any
worker count, chunk size, executor and round schedule** — parallelism is
purely a throughput knob.  Every block, however it was sampled, is
evaluated by the one byte-packed kernel of :mod:`repro.engine.packed`.

Results can be transparently memoized through
:class:`repro.engine.cache.ResultCache`; repeated experiment runs with
the same spec/model/trials/seed (or stopping rule) are then free.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.obs import emit, memory_phase
from repro.obs.profile import process_usage, usage_delta
from repro.scenarios.sparse import SparseRowBatch

from .aggregate import (
    WEIGHTED_TARGETS,
    CoverageEstimate,
    StreamingAggregator,
    TrialCounts,
    WeightedEstimate,
    WeightedTally,
    relative_half_width,
    variance_reduction_factor,
)
from .batch import EngineSpec
from .cache import ENGINE_VERSION, ResultCache, cache_key
from .executor import SharedExecutor, executor_scope
from .packed import run_packed
from .rng import (
    DEFAULT_BLOCK_SIZE,
    BlockStreams,
    block_generator,
    chunk_ranges,
    iter_block_slices,
    n_blocks,
)

__all__ = [
    "EngineResult",
    "run_experiment",
    "run_experiment_sequential",
]

_log = logging.getLogger(__name__)

#: What a fixed-trial weighted run reports in its ``engine.estimator``
#: event: the ``uncorrected`` rate at 95%, with no stopping fields.
_FIXED_REPORT = {
    "target": "uncorrected",
    "confidence": 0.95,
    "tolerance": None,
    "relative": False,
}


@dataclass(frozen=True)
class EngineResult:
    """Outcome of one engine run."""

    spec: EngineSpec
    counts: TrialCounts
    #: Per-trial verdict codes in trial order (None when not collected).
    verdicts: "np.ndarray | None"
    n_trials: int
    seed: int
    block_size: int
    elapsed_seconds: float
    from_cache: bool = False
    #: Weighted-indicator sums for importance-sampled models
    #: (None on plain runs).
    tally: "WeightedTally | None" = None
    #: Per-trial likelihood-ratio weights in trial order (collected
    #: alongside verdicts on weighted runs; None otherwise).
    weights: "np.ndarray | None" = None

    @property
    def trials_per_second(self) -> float:
        return self.n_trials / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    @property
    def is_weighted(self) -> bool:
        return self.tally is not None

    def estimate(self, confidence: float = 0.95) -> CoverageEstimate:
        """Coverage (fully-corrected fraction) with a Wilson interval.

        On weighted runs the raw verdict fractions describe the *tilted*
        sampling law, not the nominal one — use
        :meth:`weighted_estimate` there.
        """
        if self.is_weighted:
            raise ValueError(
                "this run used an importance-sampled model; unweighted "
                "verdict fractions are biased — use weighted_estimate()"
            )
        return CoverageEstimate.from_counts(self.counts, confidence)

    def weighted_estimate(
        self, target: str = "corrected", confidence: float = 0.95
    ) -> WeightedEstimate:
        """Horvitz–Thompson estimate of a verdict-class probability
        under the nominal law (weighted runs only)."""
        if self.tally is None:
            raise ValueError("this run used an unweighted model; use estimate()")
        return self.tally.estimate(target=target, confidence=confidence)


def _sample_block(
    spec: EngineSpec, model, seed: int, block: int, block_size: int, weighted: bool
):
    """A whole block's faults and (weighted models only) weights.

    The faults are the model's :class:`SparseRowBatch` when its sparse
    emitter takes the configuration, else its dense mask batch.  Each
    ``*_block`` method gets the block's :class:`BlockStreams` handle,
    its plain twin the block's root generator — the identical stream for
    single-population scenarios.  Emitters that decline return ``None``
    before drawing, so the dense retry sees the pristine stream.
    Weighted methods return ``(faults, weights)``.
    """
    family = "sample_weighted" if weighted else "sample"
    for name in (family + "_sparse", family):
        by_block = getattr(model, name + "_block", None)
        if by_block is not None:
            out = by_block(BlockStreams(seed, block), block_size, spec)
        elif hasattr(model, name):
            out = getattr(model, name)(block_generator(seed, block), block_size, spec)
        else:
            continue
        if out is not None:
            return out if weighted else (out, None)
    raise TypeError(f"{type(model).__name__} has no {family} method")


def _run_trial_range(
    spec: EngineSpec,
    model,
    seed: int,
    block_size: int,
    first_trial: int,
    last_trial: int,
    collect_verdicts: bool,
) -> tuple[TrialCounts, list, list, "list[WeightedTally]", dict]:
    """Evaluate trials ``[first_trial, last_trial)`` block by block.

    Samplers always draw for the whole block and slice, so any partition
    of the trial space sees identical per-trial randomness.  A sparse
    sample is sliced as it is; a dense one (a model with no sparse
    emitter for its configuration) is packed once by
    :meth:`SparseRowBatch.from_masks`.  :func:`run_packed` decodes the
    slice's packed dirty rows.

    Models advertising ``weighted = True`` sample through the
    ``sample_weighted*`` family instead; each block's likelihood-ratio
    weights are sliced exactly like its trials and kept as one
    :class:`WeightedTally` per block, so weighted streams keep the same
    partition-invariance as plain ones.

    Returns the counts, the per-block verdict and weight arrays (empty
    lists when not collected), the per-block tallies (empty on plain
    models) and the shard's telemetry: wall-clock seconds, blocks, row
    slots and dirty (decoded) rows, and the worker's resource deltas
    (CPU seconds, RSS watermark, pid) — observational only; it never
    influences the run.
    """
    started = time.perf_counter()
    usage0 = process_usage()
    aggregator = StreamingAggregator()
    verdict_pieces: list[np.ndarray] = []
    weight_pieces: list[np.ndarray] = []
    weighted = bool(getattr(model, "weighted", False))
    # One tally PER BLOCK, never pre-summed: float addition is not
    # associative, so folding must happen once, flat, in block order in
    # the run loop — otherwise the chunk size would leak into the last
    # ulp of the weighted sums and break cross-worker bit-identity.
    block_tallies: list[WeightedTally] = []
    stats = {"trials": last_trial - first_trial, "blocks": 0, "rows": 0, "dirty_rows": 0}
    for piece in iter_block_slices(first_trial, last_trial, block_size):
        faults, block_weights = _sample_block(
            spec, model, seed, piece.block, block_size, weighted
        )
        if isinstance(faults, SparseRowBatch):
            batch = faults.slice_trials(piece.start, piece.stop)
        else:
            batch = SparseRowBatch.from_masks(faults[piece.start : piece.stop])
        stats["blocks"] += 1
        stats["rows"] += batch.n_trials * spec.rows
        stats["dirty_rows"] += batch.n_pairs
        verdicts = run_packed(spec, batch)
        aggregator.update(verdicts)
        if collect_verdicts:
            verdict_pieces.append(verdicts)
        if weighted:
            piece_weights = np.asarray(
                block_weights[piece.start : piece.stop], dtype=np.float64
            )
            block_tallies.append(WeightedTally.from_verdicts(verdicts, piece_weights))
            if collect_verdicts:
                weight_pieces.append(piece_weights)
    stats["elapsed"] = round(time.perf_counter() - started, 6)
    usage = usage_delta(usage0)
    stats["pid"] = usage["pid"]
    stats["cpu_seconds"] = usage["cpu_seconds"]
    stats["max_rss_bytes"] = usage["max_rss_bytes"]
    return aggregator.counts, verdict_pieces, weight_pieces, block_tallies, stats


def _worker(payload: tuple):
    return _run_trial_range(*payload)


def run_experiment(
    spec: EngineSpec,
    model,
    n_trials: int,
    seed: int,
    *,
    n_workers: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
    chunk_blocks: int = 1,
    collect_verdicts: bool = True,
    cache: "ResultCache | None" = None,
    executor: "SharedExecutor | None" = None,
    mp_context=None,
) -> EngineResult:
    """Run ``n_trials`` Monte Carlo fault-injection trials.

    Parameters
    ----------
    spec, model:
        What to simulate: bank configuration and vectorized error model
        (any object with ``sample(rng, count, spec)`` and ``to_key()``).
    n_trials, seed:
        Trial count and root seed.  Together with ``block_size`` these
        fully determine the result; scheduling parameters cannot change
        it.
    n_workers:
        Process count.  1 (the default) runs in-process.  Ignored when
        ``executor`` is given.
    block_size:
        Trials per RNG block — part of the experiment identity.
    chunk_blocks:
        Scheduling granularity in blocks per work item.
    collect_verdicts:
        Keep the per-trial verdict array (1 byte/trial) in the result.
    cache:
        Optional :class:`ResultCache`; hits skip the simulation.
    executor:
        A persistent :class:`SharedExecutor` to fan out on (e.g. the
        one owned by a :class:`repro.api.Session`).  When omitted a
        transient executor is built from ``n_workers``/``mp_context``
        and torn down after the run.
    mp_context:
        Explicit multiprocessing start method for the transient
        executor (name or context; default per
        :func:`repro.engine.executor.resolve_mp_context`).
    """
    if n_trials < 0:
        raise ValueError("n_trials must be non-negative")
    return _run_rounds(
        spec, model, seed, [n_trials], None,
        identity={"n_trials": n_trials},
        start_fields={"n_trials": n_trials},
        n_workers=n_workers, block_size=block_size, chunk_blocks=chunk_blocks,
        collect_verdicts=collect_verdicts, cache=cache, executor=executor,
        mp_context=mp_context,
    )


def run_experiment_sequential(
    spec: EngineSpec,
    model,
    seed: int,
    *,
    tolerance: float,
    relative: bool = False,
    confidence: float = 0.95,
    target: str = "corrected",
    initial_trials: "int | None" = None,
    growth: float = 2.0,
    max_trials: int = 1 << 20,
    n_workers: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
    chunk_blocks: int = 1,
    collect_verdicts: bool = False,
    cache: "ResultCache | None" = None,
    executor: "SharedExecutor | None" = None,
    mp_context=None,
) -> EngineResult:
    """Run trials until the CI half-width reaches ``tolerance``.

    The fixed ``n_trials`` knob is replaced by a stopping rule: rounds
    of whole RNG blocks are scheduled (starting at ``initial_trials``,
    growing by ``growth`` per round, capped at ``max_trials``) and after
    each round the running estimate — Wilson for plain models,
    Horvitz–Thompson for weighted ones — is checked against the
    requested half-width (absolute, or relative to the point estimate
    with ``relative=True``).

    Determinism: decisions happen only at round boundaries and only from
    block-aggregated sums, and each round extends the *same* block-keyed
    trial stream (trials ``[0, n)`` of a longer run are bit-identical to
    a shorter one), so the realized trial count is a pure function of
    ``(spec, model, seed, block_size, stopping rule)`` — worker count,
    chunking and executor cannot change it, and the result equals the
    fixed-trial run of the realized count.  The result is cached under
    the stopping rule, not a trial count.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if growth <= 1.0:
        raise ValueError("growth must be > 1")
    if target not in WEIGHTED_TARGETS:
        raise ValueError(f"target must be one of {WEIGHTED_TARGETS}, got {target!r}")
    if initial_trials is None:
        initial_trials = 4 * block_size
    if initial_trials < 1:
        raise ValueError("initial_trials must be positive")
    if max_trials < initial_trials:
        raise ValueError("max_trials must be >= initial_trials")
    stopping = {
        "tolerance": tolerance,
        "relative": relative,
        "confidence": confidence,
        "target": target,
        "initial_trials": initial_trials,
        "growth": growth,
        "max_trials": max_trials,
    }
    return _run_rounds(
        spec, model, seed,
        _round_goals(initial_trials, growth, max_trials, block_size), stopping,
        identity={"sequential": stopping},
        start_fields={"n_trials": None, "tolerance": tolerance},
        n_workers=n_workers, block_size=block_size, chunk_blocks=chunk_blocks,
        collect_verdicts=collect_verdicts, cache=cache, executor=executor,
        mp_context=mp_context,
    )


def _round_goals(initial_trials: int, growth: float, max_trials: int, block_size: int):
    """Cumulative trial goals of a sequential run's rounds: whole blocks,
    ``initial_trials`` first, then ``growth`` times larger, capped at
    ``max_trials``."""
    goal = min(n_blocks(initial_trials, block_size) * block_size, max_trials)
    while True:
        yield goal
        if goal >= max_trials:
            return
        goal = min(n_blocks(math.ceil(goal * growth), block_size) * block_size, max_trials)


def _run_rounds(
    spec: EngineSpec,
    model,
    seed: int,
    goals,
    stopping: "dict | None",
    *,
    identity: dict,
    start_fields: dict,
    n_workers: int,
    block_size: int,
    chunk_blocks: int,
    collect_verdicts: bool,
    cache: "ResultCache | None",
    executor: "SharedExecutor | None",
    mp_context,
) -> EngineResult:
    """The engine's one run loop.

    ``goals`` are cumulative trial counts, one per round; after each
    round the ``stopping`` rule (``None``: run every goal) may end the
    run.  ``identity`` is what, besides the spec, model, seed and block
    size, keys the cache entry: the trial count or the stopping rule.
    This is the only code that looks up and stores cache entries, fans
    chunks out, merges them, and emits the ``engine.run.*``,
    ``engine.shard`` and ``engine.estimator`` events.  All rounds share
    one executor, so a run starts at most one pool.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be positive")
    if chunk_blocks < 1:
        raise ValueError("chunk_blocks must be positive")
    weighted = bool(getattr(model, "weighted", False))
    params = {
        "engine_version": ENGINE_VERSION,
        "spec": spec.to_key(),
        "model": model.to_key(),
        "seed": seed,
        "block_size": block_size,
        **identity,
    }
    key = cache_key(params)
    emit(
        "engine.run.start",
        logger=_log,
        level=logging.INFO,
        key=key,
        **start_fields,
        block_size=block_size,
        workers=executor.workers if executor is not None else n_workers,
    )
    payload = cache.load(key) if cache is not None else None
    if payload is not None:
        cached = _result_from_payload(
            payload,
            spec=spec,
            seed=seed,
            block_size=block_size,
            collect_verdicts=collect_verdicts,
            weighted=weighted,
        )
        if cached is not None:
            _emit_finish(key, cached)
            _emit_estimator(cached, stopping, rounds=None)
            return cached

    started = time.perf_counter()
    aggregator = StreamingAggregator()
    block_tallies: list[WeightedTally] = []
    tally = None
    verdict_pieces: list[np.ndarray] = []
    weight_pieces: list[np.ndarray] = []
    realized = rounds = shards = 0
    with memory_phase("engine.run"), executor_scope(
        executor, n_workers, mp_context
    ) as pool:
        for goal in goals:
            payloads = [
                (spec, model, seed, block_size, first, last, collect_verdicts)
                for first, last in chunk_ranges(realized, goal, block_size, chunk_blocks)
            ]
            for counts, verdicts, weights, tallies, stats in pool.map(_worker, payloads):
                emit("engine.shard", logger=_log, index=shards, **stats)
                shards += 1
                aggregator.update(counts)
                verdict_pieces.extend(verdicts)
                weight_pieces.extend(weights)
                block_tallies.extend(tallies)
            realized = goal
            rounds += 1
            if weighted:
                # Re-fold the full flat block list each round: the
                # running tally is then byte-identical to a fixed-trial
                # run of the realized count, whatever the round
                # boundaries were.
                tally = _fold_tallies(block_tallies)
            if stopping is not None and _tolerance_met(
                _estimate(aggregator.counts, tally, stopping), stopping
            ):
                break
    elapsed = time.perf_counter() - started

    result = EngineResult(
        spec=spec,
        counts=aggregator.counts,
        verdicts=_concat(verdict_pieces, np.uint8) if collect_verdicts else None,
        n_trials=realized,
        seed=seed,
        block_size=block_size,
        elapsed_seconds=elapsed,
        from_cache=False,
        tally=tally,
        weights=(
            _concat(weight_pieces, np.float64)
            if collect_verdicts and weighted
            else None
        ),
    )
    _emit_finish(key, result)
    _emit_estimator(result, stopping, rounds=rounds if stopping is not None else None)
    if cache is not None:
        cache.store(key, _payload_from_result(result), params)
    return result


def _concat(pieces: "list[np.ndarray]", dtype) -> np.ndarray:
    return np.concatenate(pieces) if pieces else np.zeros(0, dtype=dtype)


def _fold_tallies(block_tallies: "list[WeightedTally]") -> WeightedTally:
    """Fold per-block tallies sequentially in block order.

    One flat left fold over blocks is the canonical summation order:
    any partition of the same blocks into chunks, rounds or workers
    reproduces it bit for bit, because the partials are never pre-summed
    along the way.
    """
    total = WeightedTally()
    for tally in block_tallies:
        total = total + tally
    return total


def _estimate(counts: TrialCounts, tally: "WeightedTally | None", report: dict):
    """The estimate a stopping rule inspects and ``engine.estimator``
    reports: Horvitz–Thompson on weighted runs, Wilson otherwise."""
    if tally is not None:
        return tally.estimate(target=report["target"], confidence=report["confidence"])
    return CoverageEstimate.from_binomial(
        counts.target_count(report["target"]), counts.n, report["confidence"]
    )


def _tolerance_met(estimate, stopping: dict) -> bool:
    if stopping["relative"]:
        return (
            relative_half_width(estimate.point, estimate.lower, estimate.upper)
            <= stopping["tolerance"]
        )
    return estimate.half_width <= stopping["tolerance"]


def _emit_finish(key: str, result: EngineResult) -> None:
    fields = (
        {} if result.from_cache
        else {"trials_per_second": round(result.trials_per_second, 3)}
    )
    emit(
        "engine.run.finish",
        logger=_log,
        level=logging.INFO,
        key=key,
        n_trials=result.n_trials,
        from_cache=result.from_cache,
        elapsed=round(result.elapsed_seconds, 6),
        **fields,
    )


def _emit_estimator(
    result: EngineResult, stopping: "dict | None", rounds: "int | None"
) -> None:
    """One ``engine.estimator`` event per sequential or weighted run.

    A sequential run reports its stopping target; a fixed-trial weighted
    run reports :data:`_FIXED_REPORT`; a fixed-trial plain run emits
    nothing.  ``variance_reduction_factor`` is the number the
    benchmarks gate on.
    """
    report = stopping or (_FIXED_REPORT if result.is_weighted else None)
    if report is None:
        return
    estimate = _estimate(result.counts, result.tally, report)
    emit(
        "engine.estimator",
        logger=_log,
        estimator="weighted" if result.is_weighted else "plain",
        target=report["target"],
        realized_trials=result.n_trials,
        point=estimate.point,
        std_error=estimate.std_error,
        half_width=estimate.half_width,
        ess=estimate.ess if result.is_weighted else float(result.n_trials),
        variance_reduction_factor=variance_reduction_factor(
            estimate.point, estimate.std_error, result.n_trials
        ),
        tolerance=report["tolerance"],
        relative=report["relative"],
        rounds=rounds,
    )


def _payload_from_result(result: EngineResult) -> dict:
    """The cache payload for a finished run.

    Plain runs keep the historical layout byte for byte; weighted runs
    append the tally vector (and per-trial weights when collected) so a
    hit can reconstruct the Horvitz–Thompson estimate exactly.
    """
    payload = dict(result.counts.as_dict())
    if result.verdicts is not None:
        payload["verdicts"] = result.verdicts
    if result.tally is not None:
        payload["weighted_tally"] = result.tally.as_array()
    if result.weights is not None:
        payload["weights"] = result.weights
    return payload


def _result_from_payload(
    payload: dict,
    *,
    spec: EngineSpec,
    seed: int,
    block_size: int,
    collect_verdicts: bool,
    weighted: bool,
) -> "EngineResult | None":
    """Rebuild an :class:`EngineResult` from a cache payload, or ``None``
    when the entry predates what this run needs (missing verdicts or
    missing weighted fields) and must be recomputed."""
    verdicts = payload.get("verdicts")
    if verdicts is not None:
        verdicts = np.asarray(verdicts, dtype=np.uint8)
    if verdicts is None and collect_verdicts:
        return None
    tally = None
    weights = None
    if weighted:
        raw_tally = payload.get("weighted_tally")
        if raw_tally is None:
            return None
        tally = WeightedTally.from_array(raw_tally)
        weights = payload.get("weights")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
        if weights is None and collect_verdicts:
            return None
    counts = TrialCounts.from_dict(payload)
    return EngineResult(
        spec=spec,
        counts=counts,
        verdicts=verdicts if collect_verdicts else None,
        n_trials=counts.n,
        seed=seed,
        block_size=block_size,
        elapsed_seconds=0.0,
        from_cache=True,
        tally=tally,
        weights=weights if collect_verdicts else None,
    )
