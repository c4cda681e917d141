"""One source of geometry truth: vectorized scenarios vs scalar injector.

The scalar :class:`repro.errors.ErrorInjector` delegates placement and
footprint sampling to :mod:`repro.scenarios.generators`.  These tests
pin the two paths together from both directions:

* **bit-exact** — a single-event vectorized draw (``count=1``) consumes
  the RNG stream identically to the scalar injection it replaced, so a
  same-seeded injector produces the *same cells* the scenario mask
  marks;
* **distribution-wise** — batched draws reproduce the scalar sampler's
  footprint frequencies and uniform placement, and exact-count cell
  draws are uniform distinct subsets (seeded chi-square checks against
  exact laws and an argpartition reference sampler);
* **experiment-level back-compat** — the scenario-threaded
  ``fig3.coverage`` Monte Carlo experiment hits the same engine cache
  keys and produces the same Wilson intervals as the pre-scenario
  implementation, and ``fig8.yield`` matches a direct engine run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.array import SramArray
from repro.engine import EngineSpec, block_generator, cache_key, run_experiment
from repro.engine.cache import ENGINE_VERSION
from repro.errors import ErrorInjector, ErrorKind, FootprintDistribution
from repro.scenarios import make_scenario
from repro.scenarios.generators import sample_footprints

SPEC = EngineSpec(
    rows=24, data_bits=16, interleave_degree=2,
    horizontal_code="EDC4", vertical_groups=8,
)


def _mask_from_array(array: SramArray) -> np.ndarray:
    return np.asarray(array.snapshot(), dtype=np.uint8)


class _Geometry:
    """Bare geometry for sampling masks the injector's shape."""

    def __init__(self, rows: int, row_bits: int):
        self.rows = rows
        self.row_bits = row_bits


# ----------------------------------------------------------------------
# bit-exact single-event equivalence
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), height=st.integers(1, 8), width=st.integers(1, 8))
def test_fixed_cluster_matches_scalar_injection_bit_exactly(seed, height, width):
    geometry = _Geometry(24, 36)
    mask = make_scenario("fixed_cluster", height=height, width=width).sample(
        np.random.default_rng(seed), 1, geometry
    )[0]
    array = SramArray(24, 36)
    ErrorInjector(array, seed=seed).inject_cluster(height, width)
    assert np.array_equal(mask, _mask_from_array(array))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), fraction=st.floats(0.0, 1.0))
def test_clustered_mbu_matches_scalar_distribution_injection_bit_exactly(seed, fraction):
    """Same seed, one event: the vectorized scenario marks exactly the
    cells the scalar ``inject_from_distribution`` flips."""
    dist = FootprintDistribution.mostly_single_bit(fraction)
    model = make_scenario(
        "clustered_mbu", footprints=tuple(sorted(dist.weights.items()))
    )
    geometry = _Geometry(24, 36)
    mask = model.sample(np.random.default_rng(seed), 1, geometry)[0]

    array = SramArray(24, 36)
    injector = ErrorInjector(array, seed=seed)
    # The injector samples footprints in insertion order of the weights
    # mapping; hand it the scenario's canonical (sorted) order so both
    # paths draw the same categorical.
    sorted_dist = FootprintDistribution(weights=dict(sorted(dist.weights.items())))
    injector.inject_from_distribution(sorted_dist, count=1)
    assert np.array_equal(mask, _mask_from_array(array))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_burst_scenarios_match_scalar_failures_bit_exactly(seed):
    geometry = _Geometry(24, 36)
    row_mask = make_scenario("burst_row").sample(np.random.default_rng(seed), 1, geometry)[0]
    array = SramArray(24, 36)
    ErrorInjector(array, seed=seed).inject_row_failure(kind=ErrorKind.SOFT)
    assert np.array_equal(row_mask, _mask_from_array(array))

    col_mask = make_scenario("burst_column").sample(
        np.random.default_rng(seed), 1, geometry
    )[0]
    array = SramArray(24, 36)
    ErrorInjector(array, seed=seed).inject_column_failure(kind=ErrorKind.SOFT)
    assert np.array_equal(col_mask, _mask_from_array(array))


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), probability=st.floats(0.0, 0.2))
def test_iid_bernoulli_matches_scalar_hard_fault_injection(seed, probability):
    geometry = _Geometry(24, 36)
    mask = make_scenario("iid_uniform", flip_probability=probability).sample(
        np.random.default_rng(seed), 1, geometry
    )[0]
    array = SramArray(24, 36)
    events = ErrorInjector(array, seed=seed).inject_random_hard_faults(probability)
    cells = {event.cells[0] for event in events}
    assert cells == {(int(r), int(c)) for r, c in zip(*np.nonzero(mask))}


# ----------------------------------------------------------------------
# distribution-wise batch equivalence
# ----------------------------------------------------------------------

def test_batched_footprint_frequencies_match_scalar_sampler():
    """N vectorized footprint draws and N scalar draws see the same
    categorical distribution (they share one implementation; this pins
    the frequencies against drift in either entry point)."""
    dist = FootprintDistribution.mostly_single_bit(0.5)
    footprints = tuple(dist.weights.items())
    n = 4000
    heights, widths = sample_footprints(np.random.default_rng(0), footprints, n)
    vector_counts = {
        shape: int(((heights == shape[0]) & (widths == shape[1])).sum())
        for shape, _w in footprints
    }
    rng = np.random.default_rng(1)
    scalar_counts = {shape: 0 for shape, _w in footprints}
    for _ in range(n):
        scalar_counts[dist.sample(rng)] += 1
    total_weight = sum(dist.weights.values())
    for shape, weight in dist.weights.items():
        expected = n * weight / total_weight
        tolerance = 4 * np.sqrt(expected) + 8
        assert abs(vector_counts[shape] - expected) < tolerance
        assert abs(scalar_counts[shape] - expected) < tolerance


def test_batched_cluster_placement_is_uniform_like_scalar():
    """Cluster anchors cover the legal placement range uniformly in both
    paths: compare per-row anchor histograms loosely."""
    geometry = _Geometry(16, 16)
    model = make_scenario("fixed_cluster", height=2, width=2)
    n = 6000
    masks = model.sample(np.random.default_rng(3), n, geometry)
    anchors_vec = np.array([np.argwhere(m)[0] for m in masks])

    rng_rows = np.zeros(15, dtype=int)
    for i in range(n // 10):
        array = SramArray(16, 16)
        event = ErrorInjector(array, seed=1000 + i).inject_cluster(2, 2)
        rng_rows[event.bounding_box()[0]] += 1

    # 2x2 clusters anchor uniformly in [0, 15): chi-square-ish bound.
    hist_vec = np.bincount(anchors_vec[:, 0], minlength=15)
    expected_vec = n / 15
    assert (np.abs(hist_vec - expected_vec) < 5 * np.sqrt(expected_vec) + 10).all()
    expected_scalar = (n // 10) / 15
    assert (np.abs(rng_rows - expected_scalar) < 5 * np.sqrt(expected_scalar) + 10).all()


def _chi2_bound(df: int) -> float:
    """A chi-square acceptance bound far out in the tail (about 5 sigma
    of the normal approximation): seeded draws either pass it with room
    to spare or the sampler is biased."""
    return df + 5.0 * np.sqrt(2.0 * df)


def _two_sample_chi2(a: np.ndarray, b: np.ndarray) -> "tuple[float, int]":
    """Pearson chi-square that two integer samples share one law, over
    the values both samples take often enough (pooled count >= 10)."""
    values = np.union1d(a, b)
    table = np.array([[np.sum(x == v) for v in values] for x in (a, b)], dtype=float)
    table = table[:, table.sum(axis=0) >= 10]
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    return float(((table - expected) ** 2 / expected).sum()), table.shape[1] - 1


def _argpartition_cells(rng: np.random.Generator, count: int, rows: int,
                        cols: int, k: int) -> np.ndarray:
    """The reference distinct-cell sampler: one uniform score per cell,
    keep each trial's k smallest (obviously uniform over k-subsets)."""
    chosen = np.argpartition(rng.random((count, rows * cols)), k - 1, axis=1)[:, :k]
    masks = np.zeros((count, rows * cols), dtype=np.uint8)
    masks[np.arange(count)[:, None], chosen] = 1
    return masks.reshape(count, rows, cols)


@pytest.mark.parametrize("k", [6, 150], ids=["sparse_counts", "dense_counts"])
def test_exact_cell_counts_are_uniform_distinct_subsets(k):
    """iid_uniform(n_cells=k) places a uniform k-subset of the cells in
    every trial: exact distinct counts, flat row and column marginals,
    the exact same-row pair rate (the statistic a row code sees), and
    the same laws as the argpartition reference sampler."""
    rows, cols, n = 24, 40, 4000
    n_sites = rows * cols
    masks = make_scenario("iid_uniform", n_cells=k).sample(
        np.random.default_rng(2024), n, _Geometry(rows, cols)
    )
    reference = _argpartition_cells(np.random.default_rng(7), n, rows, cols, k)

    assert (masks.sum(axis=(1, 2)) == k).all()

    for marginal in (masks.sum(axis=(0, 2)), masks.sum(axis=(0, 1))):
        expected = n * k / marginal.size
        chi2 = float(((marginal - expected) ** 2 / expected).sum())
        assert chi2 < _chi2_bound(marginal.size - 1)

    per_row = masks.sum(axis=2).astype(np.int64)
    same_row_pairs = (per_row * (per_row - 1) // 2).sum(axis=1)
    exact = k * (k - 1) / 2 * (cols - 1) / (n_sites - 1)
    stderr = same_row_pairs.std() / np.sqrt(n)
    assert abs(same_row_pairs.mean() - exact) < 5 * stderr

    for axis in (2, 1):  # most faults in one row, in one column
        chi2, df = _two_sample_chi2(
            masks.sum(axis=axis).max(axis=1), reference.sum(axis=axis).max(axis=1)
        )
        assert df >= 1
        assert chi2 < _chi2_bound(df)


# ----------------------------------------------------------------------
# experiment-level back-compat
# ----------------------------------------------------------------------

class TestExperimentBackCompat:
    def test_fig3_scenario_hits_pre_scenario_cache_key(self):
        """The catalog's default scenario model must serialize to the
        exact params the pre-scenario fig3.coverage cached under."""
        from repro.core.coverage import FIG3_MC_FOOTPRINTS

        model = make_scenario("clustered_mbu", footprints=FIG3_MC_FOOTPRINTS)
        legacy_params = {
            "engine_version": ENGINE_VERSION,
            "spec": SPEC.to_key(),
            "model": {
                "model": "cluster_distribution",
                "footprints": [[list(f), w] for f, w in FIG3_MC_FOOTPRINTS],
            },
            "n_trials": 256,
            "seed": 2007,
            "block_size": 256,
        }
        current_params = dict(legacy_params, model=model.to_key())
        assert cache_key(current_params) == cache_key(legacy_params)

    def test_fig3_coverage_scenario_runs_are_bit_exact_with_default(self, tmp_path):
        """scenario="clustered_mbu" == the unset default: same estimates,
        one shared cache entry (same content-hash inputs, same CIs)."""
        from repro.api import ExperimentSpec, Session
        from repro.engine import ResultCache

        session = Session(cache_dir=tmp_path / "cache")
        default = session.run(ExperimentSpec("fig3.coverage", trials=96, seed=2007))
        explicit = session.run(
            ExperimentSpec(
                "fig3.coverage", trials=96, seed=2007,
                params={"scenario": "clustered_mbu"},
            )
        )
        assert default.data_dict()["estimates"] == explicit.data_dict()["estimates"]
        assert len(ResultCache(tmp_path / "cache")) == len(
            default.data_dict()["estimates"]
        )

    def test_fig8_yield_default_scenario_matches_legacy_model(self):
        """fig8.yield's iid_uniform default is the plain engine run of
        the same exact-count model, verdict for verdict."""
        from repro.api import ExperimentSpec, Session

        result = Session().run(
            ExperimentSpec("fig8.yield", trials=64, seed=3,
                           params={"failing_cells": [8], "rows": 16})
        )
        engine_spec = EngineSpec(rows=16, data_bits=64, interleave_degree=4,
                                 horizontal_code="SECDED", vertical_groups=None)
        legacy = run_experiment(
            engine_spec, make_scenario("iid_uniform", n_cells=8), 64, seed=3 + 8
        )
        assert result.data_dict()["simulated"][0] == pytest.approx(
            legacy.estimate(0.95).point
        )

    def test_sweep_mc_coverage_scenario_knob_matches_model_spelling(self):
        """scenario="burst_row" and model="burst_row" are the same run."""
        from repro.api import ExperimentSpec, Session

        session = Session()
        via_scenario = session.run(
            ExperimentSpec("sweep.mc_coverage", trials=64, seed=2,
                           params={"scheme": "secded_intv4", "rows": 32,
                                   "scenario": "burst_row"})
        )
        via_model = session.run(
            ExperimentSpec("sweep.mc_coverage", trials=64, seed=2,
                           params={"scheme": "secded_intv4", "rows": 32,
                                   "model": "burst_row"})
        )
        assert via_scenario.data_dict()["estimate"] == via_model.data_dict()["estimate"]

    def test_params_unused_by_chosen_scenario_are_rejected(self):
        """An explicit param the scenario ignores is a SpecError, not a
        silently misleading provenance entry."""
        from repro.api import ExperimentSpec, Session
        from repro.api.spec import SpecError

        session = Session()
        with pytest.raises(SpecError, match="no effect"):
            session.run(
                ExperimentSpec("fig3.coverage", trials=8,
                               params={"scenario": "burst_row",
                                       "footprints": [[[8, 8], 1.0]]})
            )
        with pytest.raises(SpecError, match="no effect"):
            session.run(
                ExperimentSpec("sweep.mc_coverage", trials=8,
                               params={"scenario": "burst_row", "height": 4})
            )
        with pytest.raises(SpecError, match="no effect"):
            session.run(
                ExperimentSpec("sweep.mc_coverage", trials=8,
                               params={"model": "fixed", "n_cells": 4})
            )

    def test_mbu_cluster_sweep_monotone_in_cluster_size(self):
        """Bigger clusters can only hurt: coverage is non-increasing
        along the sweep's cluster-size axis for the 2D scheme."""
        from repro.api import ExperimentSpec, Session

        result = Session().run(
            ExperimentSpec(
                "sweep.mbu_cluster", trials=96, seed=5,
                params={"cluster_sizes": [1, 8, 40], "degrees": [4],
                        "rows": 32, "vertical_groups": 8},
            )
        )
        curve = [
            result.data_dict()["coverage"]["4"][str(s)]["point"] for s in (1, 8, 40)
        ]
        assert curve[0] >= curve[1] >= curve[2]
        assert curve[0] == 1.0


def test_scalar_cluster_history_is_seed_stable():
    """Regression pin: delegation must not have changed the injector's
    seeded draw sequence (placement values, not just shapes)."""
    array = SramArray(32, 48)
    injector = ErrorInjector(array, seed=42)
    event = injector.inject_cluster(4, 6)
    rng = np.random.default_rng(42)
    row = int(rng.integers(0, 32 - 4 + 1))
    column = int(rng.integers(0, 48 - 6 + 1))
    assert event.bounding_box()[:2] == (row, column)
