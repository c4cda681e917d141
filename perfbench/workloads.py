"""Seeded job-list generator for the three benchmark workloads.

A job is a plain ``ExperimentSpec.to_key()``-style mapping; the program
under test only ever receives these generated specs.  The same
``(workload, seed)`` always yields a byte-identical list (see
:func:`job_list_hash`), so two commits measured on one seed do the same
work.

Job 0 is the set-up job: always the workload's first shape, so the
launch-to-first-job time does not depend on the seed.  After it, jobs
come in *cycles* of :func:`cycle_length` jobs; every cycle holds the
workload's whole mix once, in a seeded order.  Seeds change the per-job
Monte Carlo seeds and the order, not the mix, and a run measures whole
cycles, which keeps its cost independent of the seed.
"""

from __future__ import annotations

import hashlib
import json
import random

__all__ = [
    "WORKLOADS",
    "FIG3_FOOTPRINTS",
    "generate",
    "job_list_hash",
    "repeated_spec_share",
    "spec_identity",
    "canonical",
    "cycle_length",
    "trials_of",
    "warmup_jobs",
]

#: Fig. 3 Monte Carlo footprint mix (``((height, width), weight)``):
#: mostly single-bit upsets with a tail up to 32x32 clusters.
FIG3_FOOTPRINTS = [
    [[1, 1], 0.6], [[1, 2], 0.08], [[2, 2], 0.08], [[4, 4], 0.08],
    [[8, 8], 0.06], [[16, 16], 0.05], [[32, 32], 0.05],
]

#: Workload names; what each one exercises is registered in BENCHMARK.json.
WORKLOADS = ("mc_sparse", "mc_array_wide", "service_mix")

#: Jobs generated per list.  A run consumes a prefix; the cap only has
#: to exceed what the fastest host completes in a 60 s window.
LIST_LENGTH = 6000


def _mc_coverage(scheme: str, scenario: str, scenario_params: dict,
                 trials: int, rows: int = 256) -> dict:
    return {
        "experiment": "sweep.mc_coverage",
        "backend": "monte_carlo",
        "trials": trials,
        "params": {
            "scheme": scheme,
            "rows": rows,
            "scenario": scenario,
            "scenario_params": scenario_params,
        },
    }


# (shape name, spec template without seed).  A cycle runs every entry
# once.  One shape appears twice in each list so that, ordered by cost,
# the cycle's median and 90th-percentile jobs fall inside one shape's
# latency band rather than on the gap between two shapes, where a
# small shift of either would move the percentile a lot.
_SPARSE_SHAPES = [
    ("clustered_fig3/2d", _mc_coverage("2d_edc8_edc32", "clustered_mbu", {"footprints": FIG3_FOOTPRINTS}, 1024)),
    ("clustered_fig3/l2_2d", _mc_coverage("l2.2d", "clustered_mbu", {"footprints": FIG3_FOOTPRINTS}, 1024)),
    ("clustered_fig3/secded", _mc_coverage("secded_intv4", "clustered_mbu", {"footprints": FIG3_FOOTPRINTS}, 1024)),
    ("hard_fault_map/2d", _mc_coverage("2d_edc8_edc32", "hard_fault_map", {"defect_density": 2e-5}, 1024)),
    ("hard_fault_map/l1_base", _mc_coverage("l1.baseline", "hard_fault_map", {"defect_density": 1e-5}, 1024)),
    ("burst_row/2d", _mc_coverage("2d_edc8_edc32", "burst_row", {"span": 1}, 1024)),
    ("burst_row/l2_2d", _mc_coverage("l2.2d", "burst_row", {"span": 2}, 1024)),
    ("fixed_cluster8/2d", _mc_coverage("2d_edc8_edc32", "fixed_cluster", {"height": 8, "width": 8}, 1024)),
    ("fixed_cluster4/secded", _mc_coverage("secded_intv4", "fixed_cluster", {"height": 4, "width": 4}, 1024)),
    ("fixed_cluster16/l1_2d", _mc_coverage("l1.2d", "fixed_cluster", {"height": 16, "width": 16}, 1024)),
    ("fixed_cluster16/l1_2d", _mc_coverage("l1.2d", "fixed_cluster", {"height": 16, "width": 16}, 1024)),
]

_ARRAY_WIDE_SHAPES = [
    ("burst_column/2d", _mc_coverage("2d_edc8_edc32", "burst_column", {"span": 1}, 512, rows=128)),
    ("burst_column/l2_2d", _mc_coverage("l2.2d", "burst_column", {"span": 2}, 512, rows=64)),
    ("burst_column/l2_2d", _mc_coverage("l2.2d", "burst_column", {"span": 2}, 512, rows=64)),
    ("burst_column/secded", _mc_coverage("secded_intv4", "burst_column", {"span": 1}, 512, rows=64)),
    ("iid_uniform4/2d", _mc_coverage("2d_edc8_edc32", "iid_uniform", {"n_cells": 4}, 512)),
    ("iid_uniform2/l1_base", _mc_coverage("l1.baseline", "iid_uniform", {"n_cells": 2}, 512, rows=128)),
    ("fig8_yield", {
        "experiment": "fig8.yield",
        "backend": "monte_carlo",
        "trials": 512,
        "params": {"failing_cells": [0, 16]},
    }),
]

#: Analytical jobs of ``service_mix``: a small fixed set, so they repeat
#: and (after the first of each) are served from the result store.
_ANALYTICAL = [
    {"experiment": "fig1.storage"},
    {"experiment": "fig1.energy"},
    {"experiment": "fig2.interleaving"},
    {"experiment": "fig2.interleaving", "params": {"degrees": [1, 2, 4]}},
    {"experiment": "fig3.coverage"},
    {"experiment": "fig3.coverage", "params": {"array_rows": 128}},
    {"experiment": "fig7.schemes"},
    {"experiment": "fig8.yield", "backend": "analytical"},
    {"experiment": "fig8.yield", "backend": "analytical",
     "params": {"failing_cells": list(range(0, 2001, 250))}},
    {"experiment": "fig8.reliability"},
    {"experiment": "fig8.reliability", "params": {"years": [0.0, 1.0, 2.0, 3.0]}},
    {"experiment": "sweep.scheme_cost"},
    {"experiment": "sweep.scheme_cost", "params": {"cache": "l2"}},
    {"experiment": "sweep.scheme_cost", "params": {"schemes": ["baseline", "2d"]}},
]

_SERVICE_MC = [
    _mc_coverage("2d_edc8_edc32", "clustered_mbu", {"footprints": FIG3_FOOTPRINTS}, 512),
    _mc_coverage("secded_intv4", "fixed_cluster", {"height": 4, "width": 4}, 512),
    _mc_coverage("l2.2d", "burst_row", {"span": 1}, 512),
    _mc_coverage("l1.baseline", "hard_fault_map", {"defect_density": 1e-5}, 512),
]

#: One service_mix cycle, by slot kind.  "pair" emits the same fresh
#: Monte Carlo spec twice in a row: the client submits the two together,
#: so the second usually coalesces onto the first in flight.  A cycle is
#: 21 jobs: 8 analytical, 4 repeats, 4 + 2 fresh MC, 3 perf.  The perf
#: jobs cost the most, and 3 of 21 puts the 90th percentile a third of
#: the way into their band rather than on its lower edge, where it would
#: flip to the Monte Carlo band below with the window's last few jobs.
#: The 12 store hits likewise keep the median inside the store-hit band.
_SERVICE_CYCLE = (
    ["analytical"] * 8 + ["repeat"] * 4 + ["fresh_mc"] * 4 + ["perf"] * 3 + ["pair"]
)

#: Perf grid points of ``service_mix``; each cycle takes the next three.
_PERF_POINTS = [
    (store_queue, ports, burstiness)
    for store_queue in (2, 8, 64) for ports in (1, 2) for burstiness in (2.0, 4.0)
]


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _copy(job: dict) -> dict:
    return json.loads(json.dumps(job))  # deep copy, JSON-pure


def _with_seed(template: dict, seed: int) -> dict:
    job = _copy(template)
    job["seed"] = seed
    return job


def _perf_job(point: tuple, seed: int) -> dict:
    store_queue, ports, burstiness = point
    return {
        "experiment": "sweep.perf_sensitivity",
        "backend": "monte_carlo",
        "trials": 4,
        "seed": seed,
        "params": {
            "n_cycles": 1000,
            "store_queue": [store_queue],
            "l1_ports": [ports],
            "burstiness": [burstiness],
        },
    }


def _mc_list(shapes: list, rng: random.Random) -> list[dict]:
    jobs = [_with_seed(shapes[0][1], _seed(rng))]
    while len(jobs) < LIST_LENGTH:
        order = list(range(len(shapes)))
        rng.shuffle(order)
        jobs.extend(_with_seed(shapes[i][1], _seed(rng)) for i in order)
    return jobs


def _service_list(rng: random.Random) -> list[dict]:
    """Cycles of :data:`_SERVICE_CYCLE` slots.  Analytical jobs walk a
    seeded order of :data:`_ANALYTICAL`, fresh Monte Carlo jobs use every
    template of :data:`_SERVICE_MC` once per cycle (the pair cycles
    through them too) and perf jobs walk :data:`_PERF_POINTS`, so every
    cycle costs about the same whatever the seed."""
    first = _with_seed(_SERVICE_MC[0], _seed(rng))
    jobs = [first]
    fresh = [first]
    analytical = rng.sample(_ANALYTICAL, len(_ANALYTICAL))
    perf_points = rng.sample(_PERF_POINTS, len(_PERF_POINTS))
    n_analytical = n_perf = n_cycles = 0
    while len(jobs) < LIST_LENGTH:
        slots = list(_SERVICE_CYCLE)
        rng.shuffle(slots)
        templates = rng.sample(_SERVICE_MC, len(_SERVICE_MC))
        for slot in slots:
            if slot == "analytical":
                jobs.append(_copy(analytical[n_analytical % len(analytical)]))
                n_analytical += 1
            elif slot == "perf":
                jobs.append(_perf_job(perf_points[n_perf % len(perf_points)], _seed(rng)))
                n_perf += 1
            elif slot == "repeat":
                jobs.append(_copy(rng.choice(fresh[-20:])))
            else:
                template = (templates.pop() if slot == "fresh_mc"
                            else _SERVICE_MC[n_cycles % len(_SERVICE_MC)])
                job = _with_seed(template, _seed(rng))
                fresh.append(job)
                jobs.append(job)
                if slot == "pair":
                    jobs.append(_copy(job))
        n_cycles += 1
    return jobs


def generate(workload: str, seed: int) -> list[dict]:
    """The job list of ``workload`` for workload seed ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "mc_sparse":
        return _mc_list(_SPARSE_SHAPES, rng)
    if workload == "mc_array_wide":
        return _mc_list(_ARRAY_WIDE_SHAPES, rng)
    if workload == "service_mix":
        return _service_list(rng)
    raise ValueError(f"unknown workload {workload!r}; pick one of {', '.join(WORKLOADS)}")


def cycle_length(workload: str) -> int:
    """Jobs per cycle: one per shape entry, or 20 on ``service_mix``."""
    if workload == "mc_sparse":
        return len(_SPARSE_SHAPES)
    if workload == "mc_array_wide":
        return len(_ARRAY_WIDE_SHAPES)
    return len(_SERVICE_CYCLE) + 1  # the pair slot emits two jobs


def warmup_jobs(workload: str) -> int:
    """Untimed jobs at the head of a run: the set-up job plus one cycle
    on ``mc_*`` (every shape once, so lazy decoder tables are built), or
    plus two cycles on ``service_mix`` (most analytical specs are then in
    the result store).  The timed window starts on a cycle boundary."""
    cycles = 2 if workload == "service_mix" else 1
    return 1 + cycles * cycle_length(workload)


def canonical(obj) -> bytes:
    """Canonical JSON encoding: equal values, equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def job_list_hash(jobs: list[dict]) -> str:
    """sha256 of the canonical JSON encoding of a job list."""
    return hashlib.sha256(canonical(jobs)).hexdigest()


def spec_identity(job: dict) -> str:
    """Digest identifying a job's spec (equal specs, equal digests)."""
    return hashlib.sha256(canonical(job)).hexdigest()[:16]


def repeated_spec_share(jobs: list[dict]) -> float:
    """Fraction of jobs whose spec already appeared earlier in ``jobs``."""
    seen: set[str] = set()
    repeats = 0
    for job in jobs:
        key = spec_identity(job)
        repeats += key in seen
        seen.add(key)
    return repeats / len(jobs) if jobs else 0.0


def trials_of(job: dict) -> int:
    """Monte Carlo trials a job runs (engine trials summed over sweep points)."""
    if job.get("backend") != "monte_carlo":
        return 0
    trials = int(job["trials"])
    if job["experiment"] == "fig8.yield":
        return trials * len(job["params"]["failing_cells"])
    if job["experiment"] == "sweep.perf_sensitivity":
        return 0  # perf replicates are not fault-injection trials
    return trials
