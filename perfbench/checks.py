"""Output checks, run after the timed window.

No result digest is pinned: draw streams may legitimately change between
commits, so every check compares the program against itself (vectorized
engine vs. the scalar oracle, 1 vs. 2 workers, service vs. direct
``Session.run``) or against invariants of the result (verdict counts sum
to the trials run, intervals bracket their point).

Each check returns a list of failure messages; :class:`Outcome` collects
them, and a job whose check fails counts as a failed job.
"""

from __future__ import annotations

import json

from common import use_program_path
from workloads import canonical, spec_identity

#: Rows of the banks the scalar oracle walks (it visits every cell of
#: every word per trial, so the oracle check uses a reduced bank).
ORACLE_ROWS = 64
ORACLE_TRIALS = 6

#: Geometry of the ``fig8.yield`` Monte Carlo bank (``rows`` x 4 words
#: of 64 bits, SECDED, no vertical code), as its catalog entry documents.
FIG8_WORDS_PER_ROW = 4


class Outcome:
    """Check failures of one run.

    A failed check of a job fails that job: its record turns not ``ok``
    before any metric is computed, and the metrics count it as failed and
    infinitely slow.  Checks that belong to no job (the oracle check) only
    set ``correct`` to false.
    """

    def __init__(self) -> None:
        self.failures: list[str] = []

    def job(self, record: dict, problems: list[str]) -> None:
        """Record ``problems`` of one job's ``record``."""
        if problems:
            self.failures += problems
            record["ok"] = False

    def results(self, jobs: list[dict], records: list[dict]) -> None:
        """Each record's own error, if it failed, and :func:`result_check`."""
        for r in records:
            self.job(r, ([] if r["ok"] else [r["error"]])
                     + result_check(jobs[r["i"]], r["data"]))

    def run(self, problems: list[str]) -> None:
        """Record problems of a check that belongs to no job."""
        self.failures += problems


def engine_runs(job: dict, rows: "int | None" = None) -> list[tuple]:
    """The ``(engine_spec, scenario, trials, seed, kind)`` engine runs a
    Monte Carlo job performs, rebuilt from public constructors."""
    use_program_path()
    from repro.api.catalog import named_schemes
    from repro.engine import EngineSpec
    from repro.scenarios import make_scenario

    params = job.get("params", {})
    if job["experiment"] == "sweep.mc_coverage":
        scheme = named_schemes()[params["scheme"]]
        spec = EngineSpec.from_scheme(scheme, rows=rows or int(params["rows"]))
        model = make_scenario(params["scenario"], **params.get("scenario_params", {}))
        return [(spec, model, int(job["trials"]), int(job["seed"]), params["scenario"])]
    if job["experiment"] == "fig8.yield" and job.get("backend") == "monte_carlo":
        spec = EngineSpec(rows=rows or int(params.get("rows", 64)), data_bits=64,
                          interleave_degree=FIG8_WORDS_PER_ROW,
                          horizontal_code="SECDED", vertical_groups=None)
        return [
            (spec, make_scenario("iid_uniform", n_cells=int(n)), int(job["trials"]),
             int(job["seed"]) + int(n), "iid_uniform")
            for n in params["failing_cells"]
        ]
    return []


def oracle_check(jobs: list[dict]) -> list[str]:
    """Vectorized verdicts agree with the scalar oracle on a seeded
    handful of trials, once per (scenario kind, scheme) in ``jobs``.

    Agreement is the engine's documented contract (``repro.engine.batch``):
    a CORRECTED or SILENT verdict equals the oracle's exactly, while
    DETECTED is conservative — the oracle's extra best-effort recovery
    heuristics may still correct such a trial.
    """
    use_program_path()
    from repro.engine import (
        DEFAULT_BLOCK_SIZE,
        VERDICT_DETECTED,
        BlockStreams,
        run_experiment,
        scalar_verdicts,
    )

    failures = []
    seen = set()
    for job in jobs:
        for spec, model, _trials, seed, kind in engine_runs(job, rows=ORACLE_ROWS):
            key = (kind, json.dumps(model.to_key(), sort_keys=True), spec)
            if key in seen:
                continue
            seen.add(key)
            masks = model.sample_block(BlockStreams(seed, 0), DEFAULT_BLOCK_SIZE, spec)
            expected = scalar_verdicts(spec, masks[:ORACLE_TRIALS])
            got = run_experiment(spec, model, ORACLE_TRIALS, seed,
                                 collect_verdicts=True).verdicts
            exact = got != VERDICT_DETECTED
            if len(got) != len(expected) or (got[exact] != expected[exact]).any():
                failures.append(f"oracle mismatch for {kind} on {spec}: "
                                f"engine {got.tolist()} vs scalar {expected.tolist()}")
    return failures


def result_check(job: dict, data) -> list[str]:
    """Invariants of one job's result data."""
    if data is None:
        return []
    if job["experiment"] == "sweep.mc_coverage":
        counts = data["counts"]
        total = counts["corrected"] + counts["detected"] + counts["silent"]
        if not counts["n"] == total == job["trials"]:
            return [f"verdict counts {counts} do not sum to {job['trials']} trials"]
    if job["experiment"] == "fig8.yield" and job.get("backend") == "monte_carlo":
        for lo, point, hi in zip(data["simulated_lower"], data["simulated"],
                                 data["simulated_upper"]):
            if not 0.0 <= lo <= point <= hi <= 1.0:
                return [f"fig8 yield interval ({lo}, {point}, {hi}) is malformed"]
    return []


def direct_data(job: dict, workers: int = 1):
    """``data`` of a direct, uncached ``Session.run`` of ``job`` (JSON form)."""
    use_program_path()
    from repro.api import ExperimentSpec, Session

    with Session(workers=workers) as session:
        result = session.run(ExperimentSpec.from_key(job))
    return json.loads(result.to_json())["data"]


def worker_identity_check(job: dict, observed) -> list[str]:
    """``job`` gives the same data at 1 and 2 workers, and the same data
    the measured run observed."""
    one, two = direct_data(job, 1), direct_data(job, 2)
    failures = []
    if canonical(one) != canonical(two):
        failures.append(f"{job['experiment']} differs between 1 and 2 workers")
    if observed is not None and canonical(observed) != canonical(one):
        failures.append(f"{job['experiment']} measured result differs from a direct run")
    return failures


def same_spec_check(jobs: list[dict], records: list[dict]) -> list[tuple[dict, str]]:
    """Every completed submission of one spec returned the same payload
    (store hits and coalesced jobs included).  Returns (record, failure)
    for each record that differs from the spec's first payload."""
    first: dict[str, bytes] = {}
    failures = []
    for record in sorted(records, key=lambda r: r["i"]):
        if not record["ok"]:
            continue
        payload = canonical(record["data"])
        if first.setdefault(spec_identity(jobs[record["i"]]), payload) != payload:
            failures.append((record, "a repeated spec returned a different payload"))
    return failures
