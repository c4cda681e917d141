"""Shared semantics for ``BENCH_*.json`` benchmark records.

The benchmark suite writes machine-readable measurement files
(``benchmarks/reporting.write_bench``); the committed snapshots under
``benchmarks/baselines/`` pin the performance trajectory.  This module
is the single home for what those records *mean*:

- :func:`load_bench_dir` — read every ``BENCH_*.json`` in a directory
  into ``{benchmark_name: record}``.
- :func:`flatten` / :func:`numeric_metrics` — nested figure payloads
  become dotted keys (``fat.speedup``) so every numeric leaf
  participates.
- :func:`direction` — +1 for throughput-like metrics (``*_per_second``,
  ``speedup``), -1 for latency-like ones (``ms_per_*``, ``*_elapsed``),
  ``None`` when unknown; ``target_*`` keys are configured gates, never
  judged.
- :class:`Tolerances` — the per-metric tolerance bands from
  ``benchmarks/tolerances.json``: a default band plus ``fnmatch``
  patterns over fully-qualified metric ids (``perf.fat.speedup``).
- :func:`compare_records` — the structured baseline-vs-fresh diff that
  both the gating ``benchmarks/compare.py`` CI step and the
  ``bench-trend`` dashboard render.

Everything here is stdlib-only so reports render anywhere the package
imports.
"""

from __future__ import annotations

import fnmatch
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "DEFAULT_TOLERANCE",
    "SKIP_KEYS",
    "Tolerances",
    "compare_records",
    "direction",
    "flatten",
    "load_bench_dir",
    "numeric_metrics",
]

_log = logging.getLogger("repro.viz.bench")

#: Fallback band when no tolerance file/pattern applies.  CI machines
#: are noisy; the point is catching collapses, not jitter.
DEFAULT_TOLERANCE = 0.6

#: Top-level keys never compared: bookkeeping/provenance, not
#: measurements (``elapsed_seconds`` is numeric but describes the
#: harness, and ``host.nproc`` the machine, not the benchmark).
SKIP_KEYS = frozenset(
    {"recorded_at", "workload", "git_commit", "python_version", "host",
     "elapsed_seconds"}
)

#: Key fragments that identify a metric's good direction.
_HIGHER_IS_BETTER = ("per_second", "speedup", "trials_per")
_LOWER_IS_BETTER = ("ms_per", "seconds_per", "elapsed", "_ms")


def direction(metric_key: str) -> "int | None":
    """+1 higher-is-better, -1 lower-is-better, ``None`` unknown.

    Accepts either a bare leaf key (``speedup``) or a dotted path
    (``perf.fat.speedup``).  ``target_*`` leaves are configured gates
    rather than measurements and are never judged.
    """
    lowered = metric_key.lower()
    if lowered.rsplit(".", 1)[-1].startswith("target_"):
        return None
    if any(fragment in lowered for fragment in _HIGHER_IS_BETTER):
        return 1
    if any(fragment in lowered for fragment in _LOWER_IS_BETTER):
        return -1
    return None


def flatten(record: Mapping, prefix: str = "") -> "dict[str, Any]":
    """Flatten nested measurement dicts into dotted keys.

    The fig* benchmarks record structured payloads (per-scheme, per-bar
    nested mappings); flattening lets every leaf participate in a
    comparison instead of being skipped as "not a number".
    """
    flat: "dict[str, Any]" = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(flatten(value, prefix=f"{name}."))
        else:
            flat[name] = value
    return flat


def numeric_metrics(record: Mapping) -> "dict[str, float]":
    """The record's judgeable numbers: flattened, bookkeeping and
    non-numeric leaves dropped (bools are flags, not measurements)."""
    metrics = {}
    for key, value in flatten(record).items():
        if key.split(".", 1)[0] in SKIP_KEYS:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        metrics[key] = float(value)
    return metrics


def load_bench_dir(directory: "Path | str") -> "dict[str, dict]":
    """Read every ``BENCH_*.json`` under ``directory``.

    Returns ``{benchmark_name: record}`` (``BENCH_engine.json`` →
    ``"engine"``).  Unreadable files are logged as warnings and
    skipped — one corrupt record must not take down a CI report.
    """
    directory = Path(directory)
    records: "dict[str, dict]" = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            _log.warning("skipping unreadable benchmark record %s: %s", path, exc)
            continue
        if not isinstance(payload, dict):
            _log.warning("skipping non-object benchmark record %s", path)
            continue
        records[name] = payload
    return records


@dataclass(frozen=True)
class Tolerances:
    """Per-metric tolerance bands for benchmark gating.

    ``default`` applies when no pattern matches; ``bands`` is an
    ordered sequence of ``(fnmatch_pattern, band)`` pairs matched
    against fully-qualified metric ids (``engine.speedup``,
    ``perf.fat.speedup``, ``engine_scaling.ms_per_trial_*``) — first
    match wins, so put specific patterns before broad ones.

    The checked-in ``benchmarks/tolerances.json`` file serializes this
    as ``{"default": 0.6, "metrics": {pattern: band, ...}}``.
    """

    default: float = DEFAULT_TOLERANCE
    bands: "tuple[tuple[str, float], ...]" = ()

    def band_for(self, metric_id: str) -> float:
        for pattern, band in self.bands:
            if fnmatch.fnmatchcase(metric_id, pattern):
                return band
        return self.default

    @classmethod
    def from_file(cls, path: "Path | str") -> "Tolerances":
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: tolerance file must be a JSON object")
        default = float(payload.get("default", DEFAULT_TOLERANCE))
        metrics = payload.get("metrics", {})
        if not isinstance(metrics, dict):
            raise ValueError(f"{path}: 'metrics' must map patterns to bands")
        bands = tuple((str(k), float(v)) for k, v in metrics.items())
        for pattern, band in bands:
            if band < 0:
                raise ValueError(f"{path}: negative band for {pattern!r}")
        return cls(default=default, bands=bands)


def compare_records(
    baselines: "Mapping[str, Mapping]",
    fresh: "Mapping[str, Mapping]",
    tolerances: "Tolerances | None" = None,
) -> dict:
    """Structured diff of fresh benchmark records against baselines.

    Every shared numeric leaf becomes one entry::

        {"metric": "perf.fat.speedup", "old": 62.6, "new": 61.0,
         "change": -0.026, "direction": 1, "band": 0.6, "status": "ok"}

    ``status`` is ``"regression"`` when a direction-judged metric moved
    the wrong way beyond its band, ``"info"`` for direction-unknown
    metrics that shifted beyond the band (surfaced, never gating),
    ``"quiet"`` for direction-unknown metrics inside it, else ``"ok"``.

    Returns ``{"entries": [...], "missing": [...], "extra": [...],
    "regressions": [...]}`` — ``missing`` are baselines with no fresh
    record (``benchmarks/compare.py`` fails the gate on them), ``extra``
    fresh records with no baseline (never gating).
    """
    tolerances = tolerances or Tolerances()
    entries: "list[dict]" = []
    missing = sorted(set(baselines) - set(fresh))
    extra = sorted(set(fresh) - set(baselines))

    for name in sorted(set(baselines) & set(fresh)):
        base = numeric_metrics(baselines[name])
        new = numeric_metrics(fresh[name])
        for key in sorted(set(base) & set(new)):
            old_value, new_value = base[key], new[key]
            if old_value == 0:
                change = 0.0 if new_value == 0 else float("inf")
            else:
                change = (new_value - old_value) / abs(old_value)
            metric_id = f"{name}.{key}"
            sign = direction(key)
            band = tolerances.band_for(metric_id)
            if sign is None:
                status = "info" if abs(change) > band else "quiet"
            elif (sign == 1 and change < -band) or (sign == -1 and change > band):
                status = "regression"
            else:
                status = "ok"
            entries.append({
                "metric": metric_id,
                "old": old_value,
                "new": new_value,
                "change": change,
                "direction": sign,
                "band": band,
                "status": status,
            })
    return {
        "entries": entries,
        "missing": missing,
        "extra": extra,
        "regressions": [e for e in entries if e["status"] == "regression"],
    }
