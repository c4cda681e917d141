"""The traced run: per-layer numbers from spans around public entry points.

Spans wrap calls the benchmark makes into each module's public surface
and nothing inside the program:

* ``startup`` — a fresh interpreter's ``import repro.api`` plus first
  catalog load, then its first job (``program.py``);
* ``api`` — ``Session.run``, ``Result.to_json`` / ``Result.from_json``;
* ``scenarios`` — ``make_scenario(...).sample_sparse_block`` (or
  ``sample_block`` where a scenario has no sparse emitter), on the same
  blocks the job's engine runs draw;
* ``engine`` — ``run_experiment`` in-process with 1 worker and no
  cache, the same run on the session's 2-worker ``SharedExecutor``, and
  ``ResultCache.store`` / ``load`` on the run's verdict payload;
* ``perf`` — ``run_performance_grid``;
* ``service`` — ``POST /jobs``, the wait, ``GET /jobs/{id}`` of a done
  job, plus the public job payload's ``created``/``started``/``finished``
  stamps and ``GET /stats``.

Every traced run reports every layer: on ``mc_*`` the service phase
submits the workload's own jobs and then replays them once (so half its
submissions are store hits); on ``service_mix`` the engine probes run
the workload's fresh Monte Carlo jobs.

``bench.trace_overhead_frac`` is measured, not modelled: the workload's
timed loop (the Session loop on ``mc_*``, the service client on
``service_mix``) runs whole cycles in pairs, one pass traced and one
with tracing off, and the metric is the median traced / untraced wall
time ratio minus one.  ``bench.unattributed_frac`` is the share of job
span time that no child span covers.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time

import checks
import workloads
from common import fresh_dir, use_program_path
from program import WORKERS, Launch, run_job
from service_loop import Server, drive
from tracing import NULL_TRACER, Tracer, layer_self_times, self_times

#: Fewest traced/untraced pairs a timed loop runs, whatever its budget.
MIN_PAIRS = 2


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def _median_ms(durations: list[float]) -> float:
    return _median(durations) * 1e3


def _share(records: list[dict], via: str) -> float:
    return sum(r["via"] == via for r in records) / len(records) if records else math.nan


def paired(seconds: float, pairs: int, run) -> dict[bool, list[float]]:
    """Call ``run(p, traced)`` for passes ``p = 0, 1, ...``; passes ``2k``
    and ``2k + 1`` form pair ``k``, one traced and one not.  Pass ``p`` is
    traced where the Thue-Morse sequence (0 1 1 0 1 0 0 1 ...) is 1, so
    the traced pass comes first in half the pairs and lands evenly on
    even and odd passes: neither a drift of the host's speed nor a job mix
    that repeats every few cycles favours one side.  Stops when ``seconds``
    have passed (after at least :data:`MIN_PAIRS` pairs) or after
    ``pairs``.  Returns the wall times of the passes, keyed by ``traced``,
    in pair order."""
    walls: dict[bool, list[float]] = {False: [], True: []}
    started = time.perf_counter()
    k = 0
    while k < pairs and (k < MIN_PAIRS or time.perf_counter() < started + seconds):
        for p in (2 * k, 2 * k + 1):
            traced = bin(p).count("1") % 2 == 1
            took = time.perf_counter()
            run(p, traced)
            walls[traced].append(time.perf_counter() - took)
        k += 1
    return walls


def trace_overhead(walls: dict[bool, list[float]]) -> float:
    """Traced wall time / untraced wall time - 1, the median over pairs."""
    return statistics.median(t / u for t, u in zip(walls[True], walls[False])) - 1.0


def session_loop(jobs: list[dict], first: int, cycle: int, seconds: float, tracer: Tracer):
    """Closed loop over whole cycles of ``cycle`` jobs from ``first`` on a
    warm 2-worker Session.  Each cycle runs twice (the Session has no result
    cache, so both passes do the same work), once traced and once not.
    Returns the records of both passes and their wall times."""
    from repro.api import ExperimentSpec, Result, Session

    specs = [ExperimentSpec.from_key(job) for job in jobs]
    records: list[dict] = []

    def run_cycle(p: int, traced: bool) -> None:
        on = tracer if traced else NULL_TRACER
        lo = first + (p // 2) * cycle  # both passes of a pair run one cycle
        for i in range(lo, lo + cycle):
            with on.span("job", job=str(i)):
                record, result = run_job(session, specs[i], on)
                if result is not None:
                    with on.span("api.serialize"):
                        text = result.to_json()
                    with on.span("api.deserialize"):
                        Result.from_json(text)
            record.update(i=i, data=json.loads(text)["data"] if result is not None else None)
            records.append(record)

    with Session(workers=WORKERS) as session:
        for i in range(first):
            run_job(session, specs[i])
        walls = paired(seconds, (len(jobs) - first) // cycle, run_cycle)
    return records, walls


def service_phase(jobs: list[dict], first: int, seconds: float, tracer: Tracer,
                  *, replay: bool) -> dict:
    """Drive a fresh server with ``jobs[first:]`` for ``seconds``.

    With ``replay`` every job is traced and the same jobs are then
    submitted once more (store hits).  Without it, whole cycles run
    traced or untraced as :func:`paired` assigns them; the store makes a
    repeated cycle cheaper, so a pair is two adjacent cycles of fresh jobs.
    """
    from repro.service import ServiceClient

    server = Server(fresh_dir("trace-service"))
    walls = None
    try:
        port = server.wait_port()
        setup, _ = drive(port, jobs, 0, last=first)
        if replay:
            records, _ = drive(port, jobs, first, seconds=seconds, tracer=tracer)
            if records:
                last = max(r["i"] for r in records) + 1
                records += drive(port, jobs, first, last=last, tracer=tracer)[0]
        else:
            cycle = workloads.cycle_length("service_mix")
            records = []

            def run_cycle(p: int, traced: bool) -> None:
                lo = first + p * cycle
                records.extend(drive(port, jobs, lo, last=lo + cycle,
                                     tracer=tracer if traced else NULL_TRACER)[0])

            walls = paired(seconds, (len(jobs) - first) // (2 * cycle), run_cycle)
        stats = ServiceClient(port=port).stats()
    finally:
        server.stop()
    return {"records": records, "walls": walls, "setup": setup, "stats": stats}


def _sample(spec, model, trials: int, seed: int) -> tuple[int, int]:
    """Draw the job's blocks as the engine would; returns (dirty row
    slots, total row slots)."""
    from repro.engine import DEFAULT_BLOCK_SIZE, BlockStreams

    dirty = total = 0
    for block in range(math.ceil(trials / DEFAULT_BLOCK_SIZE)):
        streams = BlockStreams(seed, block)
        batch = model.sample_sparse_block(streams, DEFAULT_BLOCK_SIZE, spec)
        if batch is not None:
            dirty += batch.n_pairs
        else:
            dirty += int(model.sample_block(streams, DEFAULT_BLOCK_SIZE, spec).any(axis=-1).sum())
        total += DEFAULT_BLOCK_SIZE * spec.rows
    return dirty, total


#: Timed repetitions of each engine probe; per-shape times are medians.
PROBE_REPEATS = 3


def _timed(tracer: Tracer, name: str, call):
    """``call()`` inside a span named ``name``; returns (result, seconds)."""
    with tracer.span(name) as span:
        result = call()
    return result, span.end - span.start


def engine_probes(jobs: list[dict], seconds: float, tracer: Tracer, out) -> tuple[dict, dict]:
    """Per-layer engine/scenario/api probes over the workload's Monte
    Carlo jobs, one job per shape in list order until ``seconds`` pass.
    Returns the metrics and the dirty-row share per scenario kind."""
    from repro.api import ExperimentSpec, Session
    from repro.engine import ResultCache, run_experiment

    cache = ResultCache(out)
    trials = 0
    sample_s = run_1w_s = run_2w_s = 0.0
    dirty_by_kind: dict[str, list[int]] = {}
    overheads = []
    shapes = set()
    started = time.perf_counter()
    with Session(workers=2) as session2, Session(workers=1) as session1:
        for i, job in enumerate(jobs):
            runs = checks.engine_runs(job)
            shape = json.dumps({k: v for k, v in job.items() if k != "seed"}, sort_keys=True)
            if not runs or shape in shapes:
                continue
            if time.perf_counter() - started > seconds:
                break
            shapes.add(shape)
            spec_of_job = ExperimentSpec.from_key(job)
            if len(runs) == 1:
                session1.run(spec_of_job)  # untimed warm-up
            with tracer.span("probe", job=f"probe{i}"):
                for spec, model, n, seed, kind in runs:
                    def one_worker(collect=False):
                        return run_experiment(spec, model, n, seed, n_workers=1,
                                              collect_verdicts=collect)

                    def two_workers():
                        return run_experiment(spec, model, n, seed,
                                              executor=session2.executor,
                                              collect_verdicts=False)

                    # Untimed warm-up: decoder tables are built lazily per
                    # process, in this one and in each pool worker.  Its
                    # verdicts are the payload the cache probe stores.
                    result = one_worker(collect=True)
                    two_workers()
                    (dirty, total), took = _timed(
                        tracer, "scenarios.sample", lambda: _sample(spec, model, n, seed))
                    sample_s += took
                    counts = dirty_by_kind.setdefault(kind, [0, 0])
                    counts[0] += dirty
                    counts[1] += total
                    one, two = [], []
                    for _ in range(PROBE_REPEATS):
                        one.append(_timed(tracer, "engine.run_1w", one_worker)[1])
                        two.append(_timed(tracer, "engine.run_2w", two_workers)[1])
                        if len(runs) == 1:
                            # Session.run of the same job right after the
                            # same run in-process: their difference is the
                            # API's own cost.
                            took = _timed(tracer, "api.session_run_1w",
                                          lambda: session1.run(spec_of_job))[1]
                            overheads.append(took - one[-1])
                    run_1w_s += statistics.median(one)
                    run_2w_s += statistics.median(two)
                    payload = {"verdicts": result.verdicts,
                               "counts": list(result.counts.as_dict().values())}
                    key = hashlib.sha256(json.dumps([job, seed]).encode()).hexdigest()
                    _timed(tracer, "engine.cache_store",
                           lambda: cache.store(key, payload, {"job": job, "seed": seed}))
                    _timed(tracer, "engine.cache_load", lambda: cache.load(key))
                    trials += n
    metrics = {
        "scenarios.sample_us_per_trial": sample_s / trials * 1e6,
        "scenarios.dirty_row_frac": sum(d for d, _ in dirty_by_kind.values())
        / sum(t for _, t in dirty_by_kind.values()),
        "engine.us_per_trial": run_1w_s / trials * 1e6,
        "engine.decode_us_per_trial": (run_1w_s - sample_s) / trials * 1e6,
        "engine.parallel_eff": run_1w_s / (2 * run_2w_s),
        "engine.cache_store_ms": _median_ms([s.duration for s in tracer.named("engine.cache_store")]),
        "engine.cache_load_ms": _median_ms([s.duration for s in tracer.named("engine.cache_load")]),
        "api.session_overhead_ms": _median_ms(overheads),
    }
    return metrics, {k: d / t for k, (d, t) in dirty_by_kind.items()}


def perf_probe(jobs: list[dict], seed: int, tracer: Tracer) -> float:
    """ns per simulated core-cycle of ``run_performance_grid`` on the
    workload's perf job sizes (or three small default grids)."""
    from repro.cmp import PROTECTION_SCENARIOS, ProtectionConfig, fat_cmp_config
    from repro.perf import run_performance_grid
    from repro.workloads import PAPER_WORKLOADS

    grids = [(j["trials"], j["params"]["n_cycles"], j["seed"]) for j in jobs[:400]
             if j["experiment"] == "sweep.perf_sensitivity"][:3]
    grids = grids or [(4, 1000, seed + k) for k in range(3)]
    cmp_cfg = fat_cmp_config()
    protections = {"baseline": ProtectionConfig(label="baseline"),
                   "protected": PROTECTION_SCENARIOS["l1_ps"]}
    work = 0
    for trials, cycles, grid_seed in grids:
        with tracer.span("perf.grid", job=f"perf{grid_seed}"):
            run_performance_grid(cmp_cfg, PAPER_WORKLOADS["OLTP"], protections,
                                 n_cycles=cycles, n_trials=trials, seed=grid_seed,
                                 n_workers=1)
        work += trials * cycles * cmp_cfg.n_cores * len(protections)
    return tracer.total("perf.grid") * 1e9 / work


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    """Run ``workload`` traced; returns the per-layer metrics, the check
    outcome, the job list, the tracer and extra record fields."""
    jobs = workloads.generate(workload, seed)
    warmup = workloads.warmup_jobs(workload)
    work = fresh_dir(f"trace-{workload}")
    jobs_path = work / "jobs.json"
    jobs_path.write_text(json.dumps(jobs))
    launch = Launch(jobs_path, first_only=True)
    startup = launch.first
    launch.done()

    use_program_path()
    tracer = Tracer()
    metrics: dict = {"startup.import_s": startup["import_s"],
                     "startup.first_job_s": startup["first_job_s"]}
    if workload == "service_mix":
        phase = service_phase(jobs, warmup, seconds * 0.5, tracer, replay=False)
        walls = phase["walls"]
        records = phase["records"]
        mc_jobs = [j for j in jobs if j.get("backend") == "monte_carlo"]
    else:
        session_records, walls = session_loop(
            jobs, warmup, workloads.cycle_length(workload), seconds * 0.3, tracer)
        phase = service_phase(jobs, 1, seconds * 0.15, tracer, replay=True)
        records = session_records + phase["records"]
        mc_jobs = jobs

    # Output checks of the timed loops' jobs; a failed check fails its job.
    outcome = checks.Outcome()
    outcome.results(jobs, records)
    for record, problem in checks.same_spec_check(jobs, phase["records"]):
        outcome.job(record, [problem])
    outcome.run(checks.oracle_check(mc_jobs[:warmup]))

    engine, dirty_by_scenario = engine_probes(mc_jobs, seconds * 0.6, tracer,
                                              fresh_dir("trace-cache"))
    metrics.update(engine)
    metrics["perf.ns_per_core_cycle"] = perf_probe(jobs, seed, tracer)
    if workload == "service_mix":
        # No in-process Session loop on this workload: time the
        # round-trip on the results the service returned instead.
        _serialize_probe(phase["records"], tracer)
    metrics["api.serialize_ms"] = _median_ms([s.duration for s in tracer.named("api.serialize")])
    metrics["api.deserialize_ms"] = _median_ms([s.duration for s in tracer.named("api.deserialize")])

    done = [r for r in phase["records"] if r["ok"]]
    queued = [r for r in done if r["via"] == "queued"]
    submissions = len(phase["records"]) + len(phase["setup"])
    metrics.update({
        "service.submit_ms": _median_ms([s.duration for s in tracer.named("service.submit")]),
        "service.fetch_ms": _median_ms([s.duration for s in tracer.named("service.fetch")]),
        "service.queue_wait_s": _median([r["started"] - r["created"] for r in queued]),
        "service.exec_s": _median([r["finished"] - r["started"] for r in queued]),
        "service.store_hit_frac": _share(done, "store"),
        "service.coalesced_frac": _share(done, "coalesced"),
        "service.runs_per_job": phase["stats"]["session"]["runs_started"] / submissions,
    })

    job_spans = [s for s in tracer.spans if s.name == "job"]
    own = self_times(tracer.spans)
    metrics["bench.unattributed_frac"] = (
        sum(own[s.id] for s in job_spans) / sum(s.duration for s in job_spans))
    metrics["bench.trace_overhead_frac"] = trace_overhead(walls)
    return {
        "metrics": metrics,
        "records": records,
        "outcome": outcome,
        "jobs": jobs,
        "tracer": tracer,
        "extra": {"layer_self_s": layer_self_times(tracer.spans),
                  "dirty_row_frac_by_scenario": dirty_by_scenario,
                  "traced_untraced_walls_s": {"traced": walls[True],
                                              "untraced": walls[False]}},
    }


def _serialize_probe(records: list[dict], tracer: Tracer) -> None:
    """Time the Result JSON round-trip on results the service returned."""
    from repro.api import Result

    for r in records[:200]:
        if r["ok"]:
            text = json.dumps(r["result"])
            with tracer.span("api.deserialize", job=f"roundtrip{r['i']}"):
                result = Result.from_json(text)
            with tracer.span("api.serialize", job=f"roundtrip{r['i']}"):
                result.to_json()
