"""Self-tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest perfbench -q

They need neither the program nor a server: they pin the percentile
rule, generator determinism, span self-time arithmetic, the rule that a
failed check fails its job, and the names registered in
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import os
import re
import time

import pytest

import calib
import checks
import layers
import run
import stats
import workloads
from common import benchmark, process_cpu_s, tree_cpu_s
from tracing import Span, Tracer, layer_self_times, self_times

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------

def test_p90_of_100_samples_leaves_ten_beyond():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 90) == 90.0
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(99, 90) == 9
    assert stats.median(values) == 50.0


def test_failed_jobs_count_as_infinitely_slow():
    values = [0.1] * 89 + [stats.FAILED] * 11
    assert math.isinf(stats.percentile(values, 90))
    assert stats.reportable(stats.percentile(values, 90)) == stats.FAILED_STAND_IN_S
    # Ten failures in 100 sit exactly beyond p90: p90 stays finite.
    assert stats.percentile([0.1] * 90 + [stats.FAILED] * 10, 90) == 0.1


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


# ----------------------------------------------------------------------
# generator determinism
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_list_other_seed_other_list(workload):
    first = workloads.generate(workload, 7)
    again = workloads.generate(workload, 7)
    other = workloads.generate(workload, 8)
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert workloads.job_list_hash(first) == workloads.job_list_hash(again)
    assert workloads.job_list_hash(first) != workloads.job_list_hash(other)
    assert len(first) >= workloads.LIST_LENGTH


@pytest.mark.parametrize("workload,shapes", [
    ("mc_sparse", workloads._SPARSE_SHAPES),
    ("mc_array_wide", workloads._ARRAY_WIDE_SHAPES),
])
def test_every_cycle_holds_each_shape_once(workload, shapes):
    jobs = workloads.generate(workload, 3)
    cycle = workloads.cycle_length(workload)
    templates = [json.dumps(t, sort_keys=True) for _, t in shapes]
    assert cycle == len(shapes)
    # Job 0 is the set-up job, always the first shape.
    assert {k: v for k, v in jobs[0].items() if k != "seed"} == shapes[0][1]
    for start in range(1, 1 + 5 * cycle, cycle):
        seen = sorted(
            json.dumps({k: v for k, v in job.items() if k != "seed"}, sort_keys=True)
            for job in jobs[start:start + cycle]
        )
        assert seen == sorted(templates)


def test_service_mix_cycles_hold_the_same_mix():
    jobs = workloads.generate("service_mix", 5)
    cycle = workloads.cycle_length("service_mix")
    for start in range(1, 1 + 10 * cycle, cycle):
        chunk = [j["experiment"] for j in jobs[start:start + cycle]]
        assert chunk.count("sweep.perf_sensitivity") == 3
        assert chunk.count("sweep.mc_coverage") == 10  # 4 fresh, a pair, 4 repeats
        assert len(chunk) == 21


def test_service_mix_repeats_specs_and_mc_lists_do_not():
    assert workloads.repeated_spec_share(workloads.generate("mc_sparse", 1)[:500]) == 0.0
    share = workloads.repeated_spec_share(workloads.generate("service_mix", 1)[:500])
    assert 0.3 < share < 0.9


def test_group_rate_takes_the_median_group():
    # Groups of 2 completions taking 1 s, 1 s and 4 s: median rate 2/s.
    assert stats.group_rate([0.5, 0.5, 0.5, 0.5, 2.0, 2.0, 0.5], 2) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        stats.group_rate([0.5], 2)


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------

def _span(id_, name, start, end, parent=None):
    return Span(id_, name, start, end, parent, "j", 0)


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        _span(1, "job", 0.0, 10.0),
        _span(2, "api.run", 1.0, 3.0, parent=1),
        _span(3, "api.encode", 2.0, 5.0, parent=1),   # overlaps span 2
        _span(4, "engine.x", 7.0, 8.0, parent=1),
        _span(5, "engine.y", 7.2, 7.4, parent=4),     # grandchild of 1
        _span(6, "engine.z", 9.5, 12.0, parent=1),    # runs past its parent
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
    assert own[4] == pytest.approx(0.8)
    assert own[6] == pytest.approx(2.5)
    by_layer = layer_self_times(spans)
    assert by_layer["job"] == pytest.approx(own[1])
    assert by_layer["api"] == pytest.approx(own[2] + own[3])
    assert sum(by_layer.values()) == pytest.approx(sum(own.values()))


def test_tracer_nests_per_thread_and_exports_chrome_json(tmp_path):
    tracer = Tracer()
    with tracer.span("job", job="1"):
        with tracer.span("api.run"):
            pass
    parent, child = sorted(tracer.spans, key=lambda s: s.id)
    assert child.parent == parent.id and child.job == "1"
    path = tmp_path / "trace.json"
    tracer.write_chrome(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert {e["name"] for e in events} == {"job", "api.run"}
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


# ----------------------------------------------------------------------
# names registered in BENCHMARK.json
# ----------------------------------------------------------------------

def test_names_match_the_pattern_and_carry_unit_and_direction():
    bench = benchmark()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), names
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} >= {"setup_s", "jobs_per_cpu_s", "job_cpu_p90_s"}


def test_every_issued_per_layer_metric_is_registered():
    per_layer = {m["name"] for m in benchmark()["per_layer"]}
    for layer in ("startup", "scenarios", "engine", "api", "perf", "service", "bench"):
        assert any(name.startswith(layer + ".") for name in per_layer), layer
    assert {"bench.trace_overhead_frac", "bench.unattributed_frac"} <= per_layer


# ----------------------------------------------------------------------
# failed checks fail jobs; tracing overhead arithmetic
# ----------------------------------------------------------------------

def _record(i, ok=True, data=None):
    return {"i": i, "ok": ok, "latency": 0.01 * (i + 1), "end": 0.1 * (i + 1),
            "cpu": 0.02 * (i + 1),
            "error": None if ok else "boom", "data": data, "via": "queued"}


def test_failed_check_fails_the_job_before_the_metrics():
    job = {"experiment": "sweep.mc_coverage", "trials": 10}
    good = {"counts": {"n": 10, "corrected": 7, "detected": 2, "silent": 1}}
    bad = {"counts": {"n": 10, "corrected": 7, "detected": 2, "silent": 0}}
    records = [_record(0, data=good), _record(1, data=bad), _record(2, ok=False),
               _record(3, data=good)]
    outcome = checks.Outcome()
    outcome.results([job] * 4, records)
    outcome.run(["oracle mismatch"])  # belongs to no job: `correct` only
    assert [r["ok"] for r in records] == [True, False, False, True]
    assert len(outcome.failures) == 3
    metrics = run._end_to_end([(1.0, 2.0)], records, 2, 20, 100.0, [calib.REFERENCE_S])
    failed = sum(not r["ok"] for r in records)
    assert metrics["completed_frac"] == 1 - failed / len(records)
    assert metrics["job_cpu_p90_s"] == stats.FAILED_STAND_IN_S


def test_times_are_cpu_times_at_the_reference_speed():
    # Every job's CPU time is twice its wall latency; the window's median
    # reference measurement says the host ran at half the speed
    # calib.REFERENCE_S stands for.
    records = [_record(i) for i in range(20)]
    refs = [(1 + k % 3) * calib.REFERENCE_S for k in range(9)]  # median: 2x
    setups = [(1.0, 3.0), (2.0, 5.0), (4.0, 4.0)]
    norm = run._end_to_end(setups, records, 4, 100, 50.0, refs)
    cpu = run._end_to_end(setups, records, 4, 100, 50.0, refs, "cpu")
    wall = run._end_to_end(setups, records, 4, 100, 50.0, refs, "wall")
    assert (norm["setup_s"], cpu["setup_s"], wall["setup_s"]) == (1.0, 2.0, 4.0)
    for name in ("job_cpu_p50_s", "job_cpu_p90_s"):
        assert cpu[name] == pytest.approx(wall[name] * 2)
        assert norm[name] == pytest.approx(cpu[name] / 2)
    for name in ("jobs_per_cpu_s", "trials_per_cpu_s"):
        assert cpu[name] == pytest.approx(wall[name] / 2)
        assert norm[name] == pytest.approx(cpu[name] * 2)
    # Groups of 4 jobs: the median group is the third, jobs 8-11.
    assert wall["jobs_per_cpu_s"] == pytest.approx(4 / (0.01 * (9 + 10 + 11 + 12)))
    assert norm["peak_rss_mb"] == 50.0


def test_process_cpu_clock_counts_this_process():
    busy = time.process_time()
    mine = process_cpu_s(os.getpid())
    assert mine >= busy > 0
    assert tree_cpu_s(os.getpid()) >= mine
    assert 0 < calib.reference_s() < 1.0
    sampler = calib.Sampler()
    sampler.between_jobs()
    sampler.between_jobs()  # too soon after the first
    assert len(sampler.samples) == 1


def test_same_spec_check_fails_the_differing_record():
    job = {"experiment": "fig1.storage"}
    records = [_record(0, data={"x": 1}), _record(1, data={"x": 1}), _record(2, data={"x": 2})]
    failures = checks.same_spec_check([job] * 3, records)
    assert [(r["i"], p) for r, p in failures] == [
        (2, "a repeated spec returned a different payload")]


def test_paired_follows_thue_morse_and_overhead_is_the_median_ratio():
    calls = []
    walls = layers.paired(0.0, 3, lambda p, traced: calls.append((p, traced)))
    assert calls == [(0, False), (1, True), (2, True), (3, False)]
    assert len(walls[True]) == len(walls[False]) == layers.MIN_PAIRS
    calls.clear()
    layers.paired(60.0, 8, lambda p, traced: calls.append((p, traced)))
    traced = [p for p, on in calls if on]
    # Every pair has one traced pass, and the traced passes are balanced
    # over every residue modulo 2 and 4.
    assert [p // 2 for p in traced] == list(range(8))
    for m in (2, 4):
        assert len({sum(p % m == r for p in traced) for r in range(m)}) == 1
    ratio = layers.trace_overhead({True: [1.1, 2.4, 3.0], False: [1.0, 2.0, 3.0]})
    assert ratio == pytest.approx(0.1)
