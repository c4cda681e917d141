"""Order statistics for job latencies.

Percentiles use the nearest-rank rule: the ``q`` percentile of ``n``
samples is the ``ceil(q/100 * n)``-th smallest.  A failed job is an
infinitely slow sample, so failures push the upper percentiles up
instead of silently shrinking the sample.
"""

from __future__ import annotations

import math
import statistics

__all__ = [
    "FAILED",
    "FAILED_STAND_IN_S",
    "group_rate",
    "median",
    "percentile",
    "reportable",
    "samples_beyond",
]

#: Latency of a failed, timed-out or refused job.
FAILED = math.inf

#: JSON has no infinity; a percentile that lands on a failed job is
#: reported as this many seconds.
FAILED_STAND_IN_S = 1e9


def _rank(q: float, n: int) -> int:
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    if n < 1:
        raise ValueError("no samples")
    return max(1, math.ceil(q / 100.0 * n))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q`` percentile; ``math.inf`` entries count as slowest."""
    ordered = sorted(values)
    return ordered[_rank(q, len(ordered)) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank strictly above the ``q`` percentile."""
    return n - _rank(q, n)


def median(values: list[float]) -> float:
    return percentile(values, 50)


def reportable(value: float) -> float:
    """``value`` with an infinite (failed) latency mapped to the stand-in."""
    return FAILED_STAND_IN_S if math.isinf(value) else value


def group_rate(costs: list[float], cycle: int) -> float:
    """Jobs per second: the median, over consecutive groups of ``cycle``
    jobs, of ``cycle`` / the group's summed time.

    ``costs`` are the jobs' times in completion order.  A group of one
    workload cycle holds the whole job mix once, so every group measures
    the same work, and the median drops the few groups a noisy neighbour
    slowed down.  A trailing partial group is ignored.
    """
    rates = [cycle / sum(costs[k:k + cycle]) for k in range(0, len(costs) - cycle + 1, cycle)]
    if not rates:
        raise ValueError("fewer completions than one cycle")
    return statistics.median(rates)
