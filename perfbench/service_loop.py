"""The ``service_mix`` side: a fresh ``python -m repro serve`` process and
a closed-loop HTTP client.

The client takes the next job of a generated list only after its
previous job returned: ``POST /jobs``, then either ``GET /jobs/{id}`` (a
store hit is already done) or a long-poll wait until the job settles.
"""

from __future__ import annotations

import math
import queue
import re
import signal
import subprocess
import sys
import threading
import time

from common import ROOT, program_env, tree_cpu_s, tree_peak_rss_mb
from tracing import NULL_TRACER
from workloads import spec_identity

__all__ = ["Server", "drive"]

_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")

#: The ``service_mix`` server: 2 service workers, 1 engine worker each.
SERVER_WORKERS = 2
SERVER_ENGINE_WORKERS = 1


class Server:
    """A ``python -m repro serve`` child on a free port."""

    def __init__(self, cache_dir):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(SERVER_WORKERS), "--engine-workers", str(SERVER_ENGINE_WORKERS),
             "--cache-dir", str(cache_dir)],
            cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._lines: "queue.Queue[str | None]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.log: list[str] = []

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self._lines.put(line)
        self._lines.put(None)

    def wait_port(self, timeout: float = 120.0) -> int:
        """Block until the server announces its port."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(deadline - time.monotonic(), 0.01))
            except queue.Empty:
                raise TimeoutError("server did not announce a port") from None
            if line is None:
                raise RuntimeError("server exited before listening:\n" + "".join(self.log))
            self.log.append(line)
            match = _LISTENING.search(line)
            if match:
                return int(match.group(1))

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.proc.pid)

    def cpu_s(self) -> float:
        """CPU seconds the server and its engine workers have run."""
        return tree_cpu_s(self.proc.pid)

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful SIGTERM drain; kill if it does not exit in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout)
        self._reader.join(timeout)


def run_one(client, i: int, job: dict, tracer=NULL_TRACER) -> dict:
    """Submit job ``i`` and wait for its result; returns its record with
    the wall-clock ``latency`` from submit to result, failed or not."""
    from repro.service import ServiceError

    record = {"i": i, "via": None, "ok": False, "error": None,
              "hash": None, "data": None, "result": None, "created": None,
              "started": None, "finished": None}
    started = time.perf_counter()
    try:
        with tracer.span("job", job=str(i)):
            with tracer.span("service.submit"):
                submitted = client.submit(job)
            record["via"] = submitted["via"]
            job_id = submitted["job"]["id"]
            if submitted["job"]["state"] == "done":
                with tracer.span("service.fetch"):
                    payload = client.job(job_id)
            else:
                with tracer.span("service.wait"):
                    payload = client.wait(job_id, timeout=120.0, raise_on_failure=False)
    except (ServiceError, OSError, TimeoutError) as exc:  # 429, refused, hung
        record.update(error=repr(exc), latency=time.perf_counter() - started)
        return record
    record["latency"] = time.perf_counter() - started
    for key in ("hash", "created", "started", "finished"):
        record[key] = payload.get(key)
    if payload.get("state") == "done":
        record.update(ok=True, result=payload["result"], data=payload["result"]["data"])
    else:
        record["error"] = f"{payload.get('state')}: {payload.get('error')}"
    return record


def drive(port: int, jobs: list[dict], first: int, *, last: "int | None" = None,
          seconds: "float | None" = None, cpu=lambda: 0.0, sampler=None,
          tracer=NULL_TRACER) -> tuple[list[dict], float]:
    """Run jobs ``first, first+1, ...`` from one closed-loop client until
    ``last`` (exclusive) or until ``seconds`` have passed.

    Jobs run one at a time, except a *pair* (two adjacent jobs with one
    spec): a second client thread submits its second job beside the
    first, so it coalesces onto the first in flight.  Each record gets its
    completion time ``end`` from the start and its ``cpu``: what ``cpu()``
    (the server's CPU time) advanced by while it ran, split evenly between
    the two jobs of a pair.  A ``calib.Sampler`` measures the reference
    kernel between jobs.  Returns the records in completion order and the
    wall time until the last job returned.
    """
    from repro.service import ServiceClient

    client = ServiceClient(port=port, timeout=60.0)
    stop_at = len(jobs) if last is None else min(last, len(jobs))
    records: list[dict] = []
    started = time.perf_counter()
    deadline = math.inf if seconds is None else started + seconds

    def one(i: int, own_client) -> None:
        record = run_one(own_client, i, jobs[i], tracer)
        record["end"] = time.perf_counter() - started
        records.append(record)

    i = first
    while i < stop_at and time.perf_counter() < deadline:
        pair = i + 1 < stop_at and spec_identity(jobs[i]) == spec_identity(jobs[i + 1])
        if sampler is not None:
            sampler.between_jobs()
        before = cpu()
        done = len(records)
        if pair:
            helper = threading.Thread(
                target=one, args=(i + 1, ServiceClient(port=port, timeout=60.0)))
            helper.start()
            one(i, client)
            helper.join()
        else:
            one(i, client)
        spent = (cpu() - before) / (len(records) - done)
        for record in records[done:]:
            record["cpu"] = spent
        i += 2 if pair else 1
    return records, time.perf_counter() - started
