"""Shared reporting helpers for the benchmark harness.

Imported explicitly (``from reporting import print_series``) rather than
living in ``conftest.py``: the module name ``conftest`` is ambiguous
when pytest collects both ``tests/`` and ``benchmarks/``, and importing
from it used to break test collection.

Besides pretty-printing, :func:`write_bench` persists machine-readable
measurements as ``BENCH_<name>.json`` so the performance trajectory is
recorded run over run, not just asserted: each file carries the
measured numbers plus provenance (a UTC timestamp, the git commit, the
Python version, a host fingerprint and the harness's elapsed seconds —
all ignored by the comparison loaders), and lands in
``$REPRO_BENCH_DIR`` (default: the current working directory).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

__all__ = ["print_series", "write_bench"]

#: Harness start, for each record's elapsed_seconds provenance field.
_T0 = time.perf_counter()


def _git_commit() -> "str | None":
    """The current commit hash: CI's $GITHUB_SHA, else best-effort git."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5.0,
            cwd=Path(__file__).parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _cpu_model() -> str:
    """The CPU model name from /proc/cpuinfo, else what platform knows."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _host() -> dict:
    """The host fingerprint stamped on every record."""
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
    }


def print_series(title: str, series: dict) -> None:
    """Pretty-print one figure's data series under a heading."""
    print(f"\n=== {title} ===")
    for label, values in series.items():
        if isinstance(values, dict):
            formatted = ", ".join(f"{k}: {_fmt(v)}" for k, v in values.items())
        elif isinstance(values, (list, tuple)):
            formatted = ", ".join(_fmt(v) for v in values)
        else:
            formatted = _fmt(values)
        print(f"  {label:<34} {formatted}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def write_bench(name: str, payload: dict) -> Path:
    """Persist one benchmark's measurements as ``BENCH_<name>.json``.

    ``payload`` must be JSON-representable; provenance fields are added
    (``recorded_at`` UTC timestamp, ``git_commit``, ``python_version``,
    ``host`` — CPU model, logical CPU count and numpy version, so a
    number can be told apart from the hardware it ran on — and
    ``elapsed_seconds`` since harness start — all in the loaders'
    ``SKIP_KEYS``, so they label trend points without being judged as
    metrics).  The target directory comes from the ``REPRO_BENCH_DIR``
    environment variable (created if missing), falling back to the
    current working directory.
    """
    directory = Path(os.environ.get("REPRO_BENCH_DIR", "."))
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    record = dict(payload)
    record["recorded_at"] = datetime.now(timezone.utc).isoformat()
    record["git_commit"] = _git_commit()
    record["python_version"] = platform.python_version()
    record["host"] = _host()
    record["elapsed_seconds"] = round(time.perf_counter() - _T0, 3)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path
