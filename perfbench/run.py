"""The repo benchmark: one command, three workloads, output checks.

    python3 perfbench/run.py --workload mc_sparse --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, every
time as the program's CPU time over a reference kernel's (see
:func:`_end_to_end`);
``--trace 1`` is the separate traced run that reports per-layer metrics
(see ``layers.py``).  Human-readable lines go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record with provenance (commit or
source digest, CPU model, core count, python/numpy/scipy versions, the
job list's hash) is written under ``.perfbench-out/records/``; traced
runs also write a Chrome trace-event file under ``.perfbench-out/traces/``.

Workloads (``workloads.py``):

* ``mc_sparse`` / ``mc_array_wide`` — a fresh interpreter
  (``program.py``) drives a warm ``Session(workers=2)``, no result
  cache, one caller thread, closed loop.
* ``service_mix`` — a fresh ``python -m repro serve --workers 2
  --engine-workers 1 --cache-dir <fresh dir>`` and one closed-loop
  client (``service_loop.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time

import calib
import checks
import provenance
import stats
import workloads
from common import (
    OUT,
    fresh_dir,
    host_cpu_ticks,
    metric_units,
    require_program,
    steal_share,
    use_program_path,
)
from program import Launch
from service_loop import Server, drive

#: Fresh launches per run whose launch-to-first-job times give
#: ``setup_s`` (their median); the last launch goes on to the window.
SETUP_LAUNCHES = 3

#: ``service_mix`` reads the server's peak memory after this many timed
#: jobs (ten cycles).
SERVICE_RSS_JOBS = 210


def _end_to_end(setups, records, cycle, trials, peak_rss_mb, refs, basis="normalized") -> dict:
    """The end-to-end metrics of one run's timed window, computed after
    the output checks have failed the jobs whose check failed.

    Every time is CPU time of the program's processes (see
    :func:`common.tree_cpu_s`), which leaves out waiting for a CPU, scaled
    by how fast the shared host's CPUs ran during the window: the median
    of ``refs``, the reference kernel's CPU times measured between the
    window's jobs (``calib.py``), over its nominal
    :data:`calib.REFERENCE_S`.  Each record holds its job's ``cpu`` and
    wall-clock ``latency``; each of ``setups`` is a (CPU, wall) pair of
    seconds from a set-up launch to its first completed job.  ``basis`` ``"cpu"`` gives the same metrics
    on unscaled CPU time and ``"wall"`` on the wall clock.

    Throughput is :func:`stats.group_rate` over the jobs' times in
    completion order, times the completed share; percentiles count a
    failed job as infinitely slow.
    """
    if basis == "wall":
        times = [r["latency"] for r in records]
        setup_times = [wall for _, wall in setups]
    else:
        scale = 1.0
        if basis == "normalized":
            scale = calib.REFERENCE_S / statistics.median(refs)
        times = [r["cpu"] * scale for r in records]
        setup_times = [cpu * scale for cpu, _ in setups]
    completed = sum(r["ok"] for r in records)
    completed_frac = completed / len(records)
    rate = stats.group_rate(times, cycle) * completed_frac
    latencies = [t if r["ok"] else stats.FAILED for t, r in zip(times, records)]
    return {
        "setup_s": statistics.median(setup_times),
        "jobs_per_cpu_s": rate,
        "job_cpu_p50_s": stats.reportable(stats.median(latencies)),
        "job_cpu_p90_s": stats.reportable(stats.percentile(latencies, 90)),
        "trials_per_cpu_s": rate * trials / max(completed, 1),
        "completed_frac": completed_frac,
        "peak_rss_mb": peak_rss_mb,
    }


def _other_bases(setups, records, cycle, trials, peak_rss_mb, refs) -> dict:
    """The metrics on raw CPU time and on the wall clock, for the record:
    on a shared host they spread with the neighbours' load."""
    return {f"{basis}_clock_metrics": _end_to_end(setups, records, cycle, trials,
                                                  peak_rss_mb, refs, basis)
            for basis in ("cpu", "wall")}


def run_mc(workload: str, seed: int, seconds: float) -> dict:
    jobs = workloads.generate(workload, seed)
    warmup = workloads.warmup_jobs(workload)
    jobs_path = fresh_dir(workload) / "jobs.json"
    jobs_path.write_text(json.dumps(jobs))
    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        launch = Launch(jobs_path, first_only=True)
        setups.append((launch.setup_cpu_s, launch.setup_wall_s))
        launch.done()
    cycle = workloads.cycle_length(workload)
    launch = Launch(jobs_path, seconds=seconds, warmup=warmup, cycle=cycle)
    setups.append((launch.setup_cpu_s, launch.setup_wall_s))
    report = launch.done()

    records = report["jobs"]
    measured = [r for r in records if r["measured"]]

    # Output checks, outside the timed window and before the metrics: a
    # job whose check fails counts as a failed job.
    outcome = checks.Outcome()
    outcome.results(jobs, records)
    check_job = measured[0] if measured else records[0]
    outcome.job(check_job, checks.worker_identity_check(jobs[check_job["i"]], check_job["data"]))
    outcome.run(checks.oracle_check(jobs[:warmup]))

    trials = sum(workloads.trials_of(jobs[r["i"]]) for r in measured if r["ok"])
    refs = report["reference_s"]
    metrics = _end_to_end(setups, measured, cycle, trials, report["peak_rss_mb"], refs)
    return {"metrics": metrics, "records": measured, "outcome": outcome, "jobs": jobs,
            "extra": {**_other_bases(setups, measured, cycle, trials, report["peak_rss_mb"], refs),
                      "reference_s": refs,
                      "window_s": report["window_s"],
                      "host_steal_frac": report["host_steal_frac"]}}


def run_service(seed: int, seconds: float) -> dict:
    use_program_path()
    from repro.service import ServiceClient

    jobs = workloads.generate("service_mix", seed)
    warmup = workloads.warmup_jobs("service_mix")
    cycle = workloads.cycle_length("service_mix")
    setups = []
    for k in range(SETUP_LAUNCHES):
        cache_dir = fresh_dir(f"service-{k}")
        started = time.perf_counter()
        server = Server(cache_dir)
        try:
            port = server.wait_port()
            first, _ = drive(port, jobs, 0, last=1)
            setups.append((server.cpu_s(), time.perf_counter() - started))
            if k < SETUP_LAUNCHES - 1:
                continue
            head, _ = drive(port, jobs, 1, last=warmup)
            host_started = host_cpu_ticks()
            # Peak memory is read after a fixed amount of work: the
            # result store grows with every distinct spec, so a reading
            # at the end of a timed window would track throughput.
            sampler = calib.Sampler()
            records, split_s = drive(port, jobs, warmup, last=warmup + SERVICE_RSS_JOBS,
                                     cpu=server.cpu_s, sampler=sampler)
            peak_rss_mb = server.peak_rss_mb()
            rest, _ = drive(port, jobs, warmup + SERVICE_RSS_JOBS,
                            seconds=max(seconds - split_s, 0.0), cpu=server.cpu_s,
                            sampler=sampler)
            for r in rest:
                r["end"] += split_s
            records += rest
            steal_frac = steal_share(host_started, host_cpu_ticks())
            service_stats = ServiceClient(port=port).stats()
        finally:
            server.stop()

    # Output checks, outside the timed window and before the metrics.
    all_records = first + head + records
    outcome = checks.Outcome()
    outcome.results(jobs, all_records)
    for record, problem in checks.same_spec_check(jobs, all_records):
        outcome.job(record, [problem])
    # Service payloads equal a direct Session.run of the same spec: the
    # first completed job of each experiment/backend kind.
    kinds = {}
    for r in sorted(all_records, key=lambda r: r["i"]):
        job = jobs[r["i"]]
        if r["ok"]:
            kinds.setdefault((job["experiment"], job.get("backend")), r)
    for r in kinds.values():
        if workloads.canonical(checks.direct_data(jobs[r["i"]])) != workloads.canonical(r["data"]):
            outcome.job(r, [f"service payload of job {r['i']} differs from a direct Session.run"])
    mc = [r for r in records if r["ok"] and jobs[r["i"]]["experiment"] == "sweep.mc_coverage"]
    if mc:
        outcome.job(mc[0], checks.worker_identity_check(jobs[mc[0]["i"]], mc[0]["data"]))
    outcome.run(checks.oracle_check(
        [j for j in jobs[:warmup] if j.get("backend") == "monte_carlo"]))

    executed = [r for r in records if r["ok"] and r["via"] == "queued"]
    trials = sum(workloads.trials_of(jobs[r["i"]]) for r in executed)
    refs = sampler.samples
    metrics = _end_to_end(setups, records, cycle, trials, peak_rss_mb, refs)
    via = {v: sum(r["via"] == v for r in records) for v in ("queued", "store", "coalesced")}
    return {"metrics": metrics, "records": records, "outcome": outcome, "jobs": jobs,
            "extra": {**_other_bases(setups, records, cycle, trials, peak_rss_mb, refs),
                      "reference_s": refs,
                      "via": via, "runs_started": service_stats["session"]["runs_started"],
                      "window_s": max(r["end"] for r in records),
                      "host_steal_frac": steal_frac,
                      "repeated_spec_share": workloads.repeated_spec_share(
                          jobs[: max(r["i"] for r in records) + 1])}}


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    import layers

    out = layers.traced_run(workload, seed, seconds)
    folder = OUT / "traces"
    folder.mkdir(parents=True, exist_ok=True)
    trace_path = folder / f"{workload}-seed{seed}.json"
    out.pop("tracer").write_chrome(str(trace_path))
    print(f"chrome trace: {trace_path}")
    self_s = out["extra"]["layer_self_s"]
    total = sum(self_s.values())
    for layer, seconds_in in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  self time {layer:<10} {seconds_in:9.3f} s  {seconds_in / total:6.1%}")
    for name, value in out["metrics"].items():
        if math.isnan(value):
            print(f"warning: {name} had no samples this run; reported as 0", file=sys.stderr)
            out["metrics"][name] = 0.0
    return out


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()

    if args.trace:
        units = metric_units("per_layer")
        out = run_traced(args.workload, args.seed, args.seconds)
    elif args.workload == "service_mix":
        units = metric_units("end_to_end")
        out = run_service(args.seed, args.seconds)
    else:
        units = metric_units("end_to_end")
        out = run_mc(args.workload, args.seed, args.seconds)
    if set(out["metrics"]) != set(units):
        raise SystemExit(f"perfbench: measured metrics {sorted(out['metrics'])} do not match "
                         f"BENCHMARK.json's {sorted(units)}")

    outcome = out["outcome"]
    for failure in outcome.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    for name, value in out["metrics"].items():
        print(f"{args.workload:<14} {name:<30} {value:14.6g} {units[name]}")
    # Attempted and failed count the timed jobs; a check that belongs to
    # no job (the oracle check) shows in ``correct`` only.
    timed = out["records"]
    if not args.trace and stats.samples_beyond(len(timed), 90) < 10:
        print(f"warning: {len(timed)} jobs leave fewer than 10 samples beyond p90; "
              "lengthen --seconds", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "job_list_sha256": workloads.job_list_hash(out["jobs"]),
        "fingerprint": provenance.fingerprint(),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in out["metrics"].items()},
        "attempted": len(timed),
        "failed": sum(not r["ok"] for r in timed),
        "failures": outcome.failures,
        **out["extra"],
    }
    print(f"record: {provenance.write_record(record)}")
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
