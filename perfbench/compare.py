"""A/B comparison of benchmark records.

    python3 perfbench/compare.py BASE_RECORDS_DIR CHANGE_RECORDS_DIR

Records are the JSON files ``run.py`` writes under
``.perfbench-out/records/``.  For every (workload, metric) both sides
report their median and quartiles; an end-to-end metric whose change
median is worse than the base median by more than its ``BENCHMARK.json``
bound is marked REGRESSION.  When the two sides' host fingerprints
(CPU model, core count, python/numpy/scipy versions) differ, every row
is labelled informational: hardware and regressions cannot be told
apart across hosts.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from common import benchmark
from provenance import HOST_FIELDS


def load(folder: str) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(folder).glob("*.json"))]


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(base: list[dict], change: list[dict]) -> list[str]:
    bench = benchmark()
    registered = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    hosts = {json.dumps({k: r["fingerprint"].get(k) for k in HOST_FIELDS}, sort_keys=True)
             for r in base + change}
    gating = len(hosts) == 1
    lines = [] if gating else ["informational: records come from different hosts"]
    for workload in sorted({r["workload"] for r in base}):
        for name, meta in registered.items():
            a = [r["metrics"][name]["value"] for r in base
                 if r["workload"] == workload and name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in change
                 if r["workload"] == workload and name in r["metrics"]]
            if not a or not b:
                continue
            (a1, am, a3), (b1, bm, b3) = _summary(a), _summary(b)
            delta = (bm - am) / am if am else float("nan")
            worse = delta > 0 if meta["better"] == "lower" else delta < 0
            verdict = ""
            if "bound" in meta and worse and abs(delta) > meta["bound"]:
                verdict = "REGRESSION" if gating else "worse (informational)"
            lines.append(
                f"{workload:<14} {name:<30} base {am:.4g} [{a1:.4g}, {a3:.4g}] n={len(a)}  "
                f"change {bm:.4g} [{b1:.4g}, {b3:.4g}] n={len(b)}  {delta:+.1%} {verdict}"
            )
    return lines


def main(argv: "list[str] | None" = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines = compare(load(args[0]), load(args[1]))
    print("\n".join(lines))
    return 1 if any(line.endswith("REGRESSION") for line in lines) else 0


if __name__ == "__main__":
    raise SystemExit(main())
