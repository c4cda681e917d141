"""The caller side of the ``mc_*`` workloads, as a fresh interpreter.

One caller thread drives a warm ``Session(workers=2)`` with no result
cache through a generated job list, closed loop (the next job starts
when the previous one returns)::

    python3 perfbench/program.py --jobs JOBS.json --seconds 20 \\
        --warmup 12 --cycle 11 [--first-only]

It prints one JSON line as soon as the first job completes (the
launcher times set-up against it, and it carries the CPU time the
interpreter and its engine workers ran until then) and one at the end
with every job's result data, wall-clock latency and CPU time (see
:func:`common.tree_cpu_s`), the reference kernel's CPU times measured
between the window's jobs (see ``calib.py``), the timed window (its
length and the host's CPU steal share during it) and the peak resident
memory of the interpreter plus its engine workers.  Jobs ``[0, warmup)`` warm
the pool and the lazy decoder tables and are not timed; the window then
runs jobs in order until ``--seconds`` have passed, finishing the
current cycle of ``--cycle`` jobs so the window holds whole cycles.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from tracing import NULL_TRACER

#: Seconds a launch may take beyond its timed window (imports, pool
#: spawn, warm-up, the rest of the last cycle and writing the report)
#: before the launcher kills it as hung.
LAUNCH_MARGIN_S = 150.0


class Launch:
    """Launcher side: start ``program.py`` in a fresh interpreter and time
    launch to first completed job: wall clock (``setup_wall_s``) and the
    CPU time the program ran (``setup_cpu_s``)."""

    def __init__(self, jobs_path, *, seconds: float = 0.0, warmup: int = 1,
                 cycle: int = 1, first_only: bool = False):
        import subprocess
        import threading

        from common import ROOT, program_env

        args = [sys.executable, os.path.abspath(__file__), "--jobs", str(jobs_path),
                "--seconds", str(seconds), "--warmup", str(warmup), "--cycle", str(cycle)]
        if first_only:
            args.append("--first-only")
        started = time.perf_counter()
        self.proc = subprocess.Popen(args, cwd=ROOT, env=program_env(),
                                     stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                     text=True)
        self._watchdog = threading.Timer(seconds + LAUNCH_MARGIN_S, self.proc.kill)
        self._watchdog.start()
        self.first = self._read()
        self.setup_wall_s = time.perf_counter() - started
        self.setup_cpu_s = self.first["setup_cpu_s"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.finish()
            raise RuntimeError(f"program exited ({self.proc.returncode}) without a result")
        return json.loads(line)

    def done(self) -> dict:
        """The final report; waits for the program to exit."""
        try:
            report = self._read()
        finally:
            self.finish()
        return report

    def finish(self) -> None:
        self.proc.stdout.close()
        self.proc.wait()
        self._watchdog.cancel()


#: Engine worker processes of the caller's Session (one per core of the
#: 2-core hosts the benchmark is sized for).
WORKERS = 2


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def run_job(session, spec, tracer=NULL_TRACER, cpu=lambda: 0.0) -> tuple[dict, object]:
    """Run one spec; returns (record, result-or-None).  The record holds
    the wall-clock ``latency`` and the ``cpu`` seconds ``cpu()`` advanced
    by during the run, failed or not."""
    cpu_started = cpu()
    started = time.perf_counter()
    result, error = None, None
    try:
        with tracer.span("api.session_run"):
            result = session.run(spec)
    except Exception as exc:  # a failed job is data, not a crash
        error = repr(exc)
    latency = time.perf_counter() - started
    return {"ok": error is None, "latency": latency, "cpu": cpu() - cpu_started,
            "error": error}, result


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--warmup", type=int, default=1)
    parser.add_argument("--cycle", type=int, default=1)
    parser.add_argument("--first-only", action="store_true")
    args = parser.parse_args(argv)
    with open(args.jobs) as fh:
        jobs = json.load(fh)

    import_started = time.perf_counter()
    from repro.api import ExperimentSpec, Session, list_experiments

    list_experiments()  # first catalog load
    import_s = time.perf_counter() - import_started
    specs = [ExperimentSpec.from_key(job) for job in jobs]

    from calib import Sampler
    from common import host_cpu_ticks, steal_share, tree_cpu_s, tree_peak_rss_mb

    def cpu() -> float:
        return tree_cpu_s(os.getpid())

    records: list[dict] = []
    results: list[object] = []

    def run(i: int, measured: bool) -> None:
        record, result = run_job(session, specs[i], cpu=cpu)
        record.update(i=i, measured=measured)
        records.append(record)
        results.append(result)

    with Session(workers=WORKERS) as session:
        first_started = time.perf_counter()
        run(0, False)
        _emit({
            "event": "first",
            "import_s": import_s,
            "first_job_s": time.perf_counter() - first_started,
            "setup_cpu_s": cpu(),
            "ok": records[0]["ok"],
        })
        window_s = steal_frac = 0.0
        refs: list[float] = []
        if not args.first_only:
            for i in range(1, min(args.warmup, len(specs))):
                run(i, False)
            sampler = Sampler()
            host_started = host_cpu_ticks()
            window_started = time.perf_counter()
            deadline = window_started + args.seconds
            i = max(args.warmup, 1)
            while i < len(specs) and (
                time.perf_counter() < deadline or (i - args.warmup) % args.cycle
            ):
                sampler.between_jobs()
                run(i, True)
                i += 1
            window_s = time.perf_counter() - window_started
            steal_frac = steal_share(host_started, host_cpu_ticks())
            refs = sampler.samples
        peak_rss_mb = tree_peak_rss_mb(os.getpid())

    for record, result in zip(records, results):
        record["data"] = json.loads(result.to_json())["data"] if result is not None else None
    _emit({"event": "done", "window_s": window_s, "host_steal_frac": steal_frac,
           "reference_s": refs,
           "peak_rss_mb": peak_rss_mb,
           "jobs": records})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
