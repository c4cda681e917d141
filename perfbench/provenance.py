"""Host and source fingerprint stamped on every benchmark record."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path

from common import OUT, ROOT, SRC

#: Fingerprint fields that must match for an A/B comparison to gate;
#: records that differ in any of them compare as informational only.
HOST_FIELDS = ("cpu_model", "nproc", "python", "numpy", "scipy")


def _git_commit() -> "str | None":
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    # Only the checkout's own repository counts, not an enclosing one.
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    """sha256 over the program's Python sources (the commit stand-in for
    checkouts that are not git repositories)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(module: str) -> "str | None":
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def fingerprint() -> dict:
    return {
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }


def write_record(record: dict) -> Path:
    """Write one run's record under ``.perfbench-out/records/``."""
    folder = OUT / "records"
    folder.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{int(time.time() * 1000)}.json"
    path = folder / name
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return path
