"""Paths and process helpers shared by the benchmark's modules."""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark measures (the parent of this
#: directory); the program is imported from ``ROOT/src``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Everything the benchmark writes — records, traces, temporary caches —
#: lands under this directory of the checkout (ignored by git).
OUT = ROOT / ".perfbench-out"


def benchmark() -> dict:
    """The benchmark's registration, ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics registered under ``section``
    (``"end_to_end"`` or ``"per_layer"``)."""
    return {m["name"]: m["unit"] for m in benchmark()[section]}


def require_program() -> None:
    """Exit non-zero unless the program's sources are present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        raise SystemExit(2)


def program_env() -> dict:
    """Environment for a child process running the program from source,
    with temporary files kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    # Measure the program's default worker start method, whatever the
    # calling shell exports.
    env.pop("REPRO_MP_CONTEXT", None)
    return env


def use_program_path() -> None:
    """Make ``import repro`` resolve to the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_dir(name: str) -> Path:
    """An empty directory ``OUT/work/name``."""
    path = OUT / "work" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            try:
                with open(f"/proc/{pid}/task/{tid}/children") as fh:
                    kids.extend(int(k) for k in fh.read().split())
            except OSError:
                continue
    except OSError:
        pass
    return kids


def _tree(pid: int):
    """``pid`` and its live descendants."""
    pending = [pid]
    while pending:
        current = pending.pop()
        yield current
        pending.extend(_children(current))


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak resident memory (VmHWM) of ``pid`` and its live
    descendants, in MiB (Linux ``/proc``; 0 where unavailable)."""
    return sum(_hwm_kb(p) for p in _tree(pid)) / 1024.0


def process_cpu_s(pid: int) -> float:
    """CPU seconds process ``pid`` has run so far, every thread included
    (ended ones too); 0 once it has exited.

    Read from the kernel's per-process CPU clock
    (``MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)`` for ``clock_gettime``),
    in nanoseconds.  It counts only time a CPU ran the process: not time
    it waited for a CPU, and, on a virtual machine with paravirtual steal
    accounting, not time the hypervisor gave this machine's CPUs to
    other guests.
    """
    try:
        return time.clock_gettime_ns(((~pid) << 3) | 2) / 1e9
    except OSError:
        return 0.0


def tree_cpu_s(pid: int) -> float:
    """CPU seconds run by ``pid`` and its live descendants (engine
    workers); see :func:`process_cpu_s`."""
    return sum(process_cpu_s(p) for p in _tree(pid))


def host_cpu_ticks() -> tuple[int, int]:
    """System-wide (busy, steal) CPU ticks from ``/proc/stat``.  Steal is
    time the hypervisor ran something else while a CPU of this machine
    wanted to run; its share of a window explains a slow run."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = ticks
    return user + nice + system + irq + softirq, steal


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    busy, steal = after[0] - before[0], after[1] - before[1]
    return steal / (busy + steal) if busy + steal else 0.0
