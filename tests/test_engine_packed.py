"""The byte-packed recovery kernel: bit-identity with the uint8 reference.

The contract under test is absolute, not statistical: for every spec,
every error pattern and every scheduling choice, the packed kernel must
reproduce the ``uint8`` reference path (:func:`run_recovery_batch` and
its ``VectorDecoder``s) *bit for bit* — same faulty slots, same
corrections, same per-trial verdicts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.catalog import named_schemes
from repro.engine import (
    BlockStreams,
    ClusterErrorModel,
    EngineSpec,
    make_decoder,
    packed_decoder,
    run_experiment,
    run_packed,
    run_recovery_batch,
)
from repro.engine.rng import block_generator
from repro.scenarios import generators
from repro.scenarios import (
    BurstColumnScenario,
    BurstRowScenario,
    ClusteredMbuScenario,
    CompositeScenario,
    FixedClusterScenario,
    HardFaultMapScenario,
    IidUniformScenario,
    SparseRowBatch,
    list_scenarios,
)

SPEC_GRID = [
    EngineSpec(rows=64, data_bits=64, interleave_degree=4,
               horizontal_code="EDC8", vertical_groups=32),
    EngineSpec(rows=64, data_bits=64, interleave_degree=4,
               horizontal_code="EDC8", vertical_groups=None),
    EngineSpec(rows=64, data_bits=64, interleave_degree=4,
               horizontal_code="SECDED", vertical_groups=None),
    EngineSpec(rows=64, data_bits=64, interleave_degree=4,
               horizontal_code="SECDED", vertical_groups=32),
    EngineSpec(rows=32, data_bits=64, interleave_degree=1,
               horizontal_code="byte_parity", vertical_groups=16),
    EngineSpec(rows=48, data_bits=32, interleave_degree=3,
               horizontal_code="EDC4", vertical_groups=16),
]

FIG3_SPEC = SPEC_GRID[0]

#: Rows whose width is not a whole number of bytes, so the zero padding
#: of the last packed byte is exercised (63 and 66 cells).
PADDED_SPECS = [
    EngineSpec(rows=12, data_bits=16, interleave_degree=3,
               horizontal_code="EDC5", vertical_groups=4),
    EngineSpec(rows=12, data_bits=16, interleave_degree=3,
               horizontal_code="SECDED", vertical_groups=4),
]


def _monte_carlo_schemes() -> dict[str, EngineSpec]:
    """Every named scheme the kernel can decode, laid out over 64 rows."""
    specs = {}
    for name, scheme in named_schemes().items():
        spec = EngineSpec.from_scheme(scheme, rows=64)
        try:
            packed_decoder(spec)
        except ValueError:
            continue
        specs[name] = spec
    return specs


MC_SCHEMES = _monte_carlo_schemes()


def _random_masks(spec, rng, trials=64, p=0.02):
    return (rng.random((trials, spec.rows, spec.row_bits)) < p).astype(np.uint8)


def _slot_bits(faulty: np.ndarray) -> np.ndarray:
    """``(..., D)`` booleans -> the kernel's per-row slot bitmask."""
    weights = np.uint64(1) << np.arange(faulty.shape[-1], dtype=np.uint64)
    return (faulty.astype(np.uint64) * weights).sum(axis=-1, dtype=np.uint64)


def _unpack(rows: np.ndarray, spec) -> np.ndarray:
    return np.unpackbits(rows, axis=-1, count=spec.row_bits)


def _all_rows_block(masks: np.ndarray) -> SparseRowBatch:
    """A dense block: every row listed, clean or not."""
    trials, rows, row_bits = masks.shape
    trial_idx, row_idx = np.divmod(np.arange(trials * rows), rows)
    return SparseRowBatch(
        n_trials=trials, array_rows=rows, row_bits=row_bits,
        trial_idx=trial_idx, row_idx=row_idx,
        rows=np.packbits(masks, axis=-1).reshape(trials * rows, -1),
    )


def _assert_kernel_matches_reference(spec, masks):
    expected = run_recovery_batch(spec, masks)
    for block in (SparseRowBatch.from_masks(masks), _all_rows_block(masks)):
        assert np.array_equal(run_packed(spec, block), expected)


# ----------------------------------------------------------------------
# packing
# ----------------------------------------------------------------------

class TestPacking:
    @pytest.mark.parametrize("spec", SPEC_GRID, ids=lambda s: s.horizontal_code)
    def test_pack_unpack_round_trip(self, spec, rng):
        masks = _random_masks(spec, rng, trials=16, p=0.01)
        block = SparseRowBatch.from_masks(masks)
        assert block.rows.shape[1] == packed_decoder(spec).row_bytes
        dirty = masks.any(axis=-1)
        assert len(block.rows) == dirty.sum()
        assert dirty[block.trial_idx, block.row_idx].all()
        restored = np.zeros_like(masks)
        restored[block.trial_idx, block.row_idx] = _unpack(block.rows, spec)
        assert np.array_equal(restored, masks)

    def test_packed_layout_is_physical_cell_order(self):
        # Cell c lands at bit 7 - c % 8 of byte c // 8; the padding bits
        # of the last byte stay zero.
        for spec in PADDED_SPECS:
            masks = np.zeros((1, spec.rows, spec.row_bits), dtype=np.uint8)
            masks[0, 3, [0, 9, spec.row_bits - 1]] = 1
            block = SparseRowBatch.from_masks(masks)
            assert block.rows.shape == (1, -(-spec.row_bits // 8))
            expected = np.zeros(block.rows.shape[1], dtype=np.uint8)
            for cell in (0, 9, spec.row_bits - 1):
                expected[cell // 8] |= 0x80 >> (cell % 8)
            assert np.array_equal(block.rows[0], expected)
            assert (block.trial_idx.tolist(), block.row_idx.tolist()) == ([0], [3])


# ----------------------------------------------------------------------
# decoder equivalence
# ----------------------------------------------------------------------

def _assert_decode_matches_dense(spec, masks):
    dense = make_decoder(spec).decode(masks)
    faulty, residual = packed_decoder(spec).decode(np.packbits(masks, axis=-1))
    assert np.array_equal(faulty, _slot_bits(dense.faulty))
    expected = masks if dense.corrections is None else masks ^ dense.corrections
    assert np.array_equal(_unpack(residual, spec), expected)


class TestPackedDecoders:
    @pytest.mark.parametrize("spec", SPEC_GRID, ids=lambda s: s.horizontal_code)
    def test_decode_matches_dense_on_random_masks(self, spec, rng):
        for p in (0.0, 0.005, 0.05, 0.5):
            masks = _random_masks(spec, rng, trials=32, p=p)
            _assert_decode_matches_dense(spec, masks.reshape(-1, spec.row_bits))

    def test_decoder_kinds(self):
        # Detection-only codes never rewrite a row; SECDED corrects a
        # single flip; codes outside the kernel are rejected.
        row = np.zeros((1, FIG3_SPEC.row_bits), dtype=np.uint8)
        row[0, 5] = 1
        packed = np.packbits(row, axis=-1)
        faulty, residual = packed_decoder(FIG3_SPEC).decode(packed)
        assert faulty.tolist() == [1 << (5 % 4)] and residual is packed
        faulty, residual = packed_decoder(SPEC_GRID[2]).decode(packed)
        assert faulty.tolist() == [0] and not residual.any()
        with pytest.raises(ValueError, match="no packed decoder"):
            packed_decoder(EngineSpec(rows=16, data_bits=16, interleave_degree=2,
                                      horizontal_code="OECNED"))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), spec_index=st.integers(0, len(SPEC_GRID) - 1))
    def test_single_row_equivalence_property(self, data, spec_index):
        spec = SPEC_GRID[spec_index]
        bits = data.draw(
            st.lists(st.integers(0, 1), min_size=spec.row_bits,
                     max_size=spec.row_bits)
        )
        _assert_decode_matches_dense(spec, np.array([bits], dtype=np.uint8))

    def test_packed_decoder_supports_dense_pipeline(self, rng):
        # A dense block is the same layout with every row listed; clean
        # rows listed explicitly change nothing.
        spec = FIG3_SPEC
        masks = _random_masks(spec, rng)
        assert np.array_equal(run_packed(spec, _all_rows_block(masks)),
                              run_recovery_batch(spec, masks))


# ----------------------------------------------------------------------
# kernel verdicts against the reference
# ----------------------------------------------------------------------

class TestKernelEquivalence:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(name=st.sampled_from(sorted(MC_SCHEMES)),
           seed=st.integers(0, 2**32 - 1),
           density=st.sampled_from([1e-4, 1e-3, 5e-3, 3e-2]))
    def test_named_schemes_match_reference_on_random_masks(self, name, seed, density):
        spec = MC_SCHEMES[name]
        masks = _random_masks(spec, np.random.default_rng(seed), trials=12, p=density)
        _assert_kernel_matches_reference(spec, masks)

    @pytest.mark.parametrize("spec", PADDED_SPECS, ids=lambda s: s.horizontal_code)
    def test_padded_rows_match_reference(self, spec, rng):
        for p in (0.002, 0.02, 0.1, 0.5):
            masks = _random_masks(spec, rng, p=p)
            _assert_decode_matches_dense(spec, masks.reshape(-1, spec.row_bits))
            _assert_kernel_matches_reference(spec, masks)

    @pytest.mark.parametrize("name", sorted(MC_SCHEMES))
    def test_all_clean_and_all_dirty_blocks(self, name, rng):
        spec = MC_SCHEMES[name]
        clean = np.zeros((8, spec.rows, spec.row_bits), dtype=np.uint8)
        assert len(SparseRowBatch.from_masks(clean).rows) == 0
        _assert_kernel_matches_reference(spec, clean)
        # Every row dirty: a column burst, and random rows at p = 0.3.
        burst = BurstColumnScenario(span=2).sample(block_generator(4, 0), 16, spec)
        assert burst.any(axis=-1).all()
        _assert_kernel_matches_reference(spec, burst)
        dense = _random_masks(spec, rng, trials=8, p=0.3)
        assert dense.any(axis=-1).all()
        _assert_kernel_matches_reference(spec, dense)


# ----------------------------------------------------------------------
# sparse batches
# ----------------------------------------------------------------------

class TestSparseRowBatch:
    def test_from_masks_round_trip(self, rng):
        masks = (rng.random((20, 16, 24)) < 0.1).astype(np.uint8)
        batch = SparseRowBatch.from_masks(masks)
        assert np.array_equal(batch.densify(), masks)
        keys = batch.trial_idx * 16 + batch.row_idx
        assert np.all(np.diff(keys) > 0)  # sorted, unique

    def test_slice_trials_matches_dense_slicing(self, rng):
        masks = (rng.random((20, 16, 24)) < 0.1).astype(np.uint8)
        batch = SparseRowBatch.from_masks(masks)
        sub = batch.slice_trials(5, 13)
        assert sub.n_trials == 8
        assert np.array_equal(sub.densify(), masks[5:13])

    def test_merge_is_bitwise_or(self, rng):
        a = (rng.random((12, 8, 24)) < 0.08).astype(np.uint8)
        b = (rng.random((12, 8, 24)) < 0.08).astype(np.uint8)
        merged = SparseRowBatch.from_masks(a).merge(SparseRowBatch.from_masks(b))
        assert np.array_equal(merged.densify(), a | b)

    def test_empty_batch(self):
        spec = EngineSpec(rows=8, data_bits=4, interleave_degree=6,
                          horizontal_code="EDC4", vertical_groups=None)
        batch = SparseRowBatch.empty(7, spec.rows, spec.row_bits)
        assert batch.n_pairs == 0
        assert batch.densify().shape == (7, spec.rows, spec.row_bits)
        verdicts = run_packed(spec, batch)
        assert np.array_equal(verdicts, np.zeros(7, dtype=np.uint8))


# ----------------------------------------------------------------------
# packed emitters: bytes built directly equal np.packbits of the masks
# ----------------------------------------------------------------------

#: Row widths: whole bytes (the Fig. 3 bank) and the padded 63/66 cells.
ROW_WIDTHS = [288, 63, 66]


def _span_cases(row_bits: int) -> list[tuple[int, int]]:
    """``(c0, width)`` spans that start and end inside a byte, on byte
    boundaries, at either end of the row, and with zero width."""
    return [
        (0, 0), (5, 0), (0, 1), (0, 8), (0, row_bits), (3, 2), (5, 7),
        (7, 1), (8, 16), (9, 30), (16, 8), (row_bits - 1, 1),
        (row_bits - 10, 10), (row_bits - 8, 8), (1, row_bits - 1),
        (row_bits // 2, row_bits - row_bits // 2), (row_bits, 0),
    ]


class TestPackedEmitters:
    @pytest.mark.parametrize("row_bits", ROW_WIDTHS)
    def test_row_spans_equal_packed_masks(self, row_bits):
        spans = _span_cases(row_bits)
        n = len(spans)
        c0 = np.array([c for c, _ in spans])
        widths = np.array([w for _, w in spans])
        r0 = np.arange(n) % 5
        heights = np.arange(n) % 4 + 1
        masks = np.zeros((n, 8, row_bits), dtype=np.uint8)
        for t in range(n):
            masks[t, r0[t]:r0[t] + heights[t], c0[t]:c0[t] + widths[t]] = 1
        batch = SparseRowBatch.from_row_spans(n, 8, row_bits, r0, heights, c0, widths)
        reference = SparseRowBatch.from_masks(masks)
        assert batch.row_bits == row_bits
        assert np.array_equal(batch.trial_idx, reference.trial_idx)
        assert np.array_equal(batch.row_idx, reference.row_idx)
        assert np.array_equal(
            batch.rows, np.packbits(masks, axis=-1)[batch.trial_idx, batch.row_idx]
        )
        assert np.array_equal(batch.densify(), masks)

    @pytest.mark.parametrize("row_bits", ROW_WIDTHS)
    def test_solid_clusters_equal_packed_solid_cluster_masks(self, row_bits):
        rng = np.random.default_rng(row_bits)
        heights = rng.integers(1, 12, size=200)
        widths = rng.integers(0, row_bits + 1, size=200)
        masks = generators.solid_cluster_masks(
            np.random.default_rng(3), heights, widths, 10, row_bits
        )
        batch = generators.solid_cluster_sparse(
            np.random.default_rng(3), heights, widths, 10, row_bits
        )
        packed = np.packbits(masks, axis=-1)
        dirty = np.nonzero(packed.any(axis=-1))
        assert np.array_equal(batch.trial_idx, dirty[0])
        assert np.array_equal(batch.row_idx, dirty[1])
        assert np.array_equal(batch.rows, packed[dirty])

    @pytest.mark.parametrize("row_bits", ROW_WIDTHS)
    def test_cells_or_into_their_bytes(self, row_bits):
        # Neighbouring cells share a byte, and a repeated cell ORs in.
        cols = np.array([0, 1, 7, 8, row_bits - 1, row_bits - 2, 1, 9])
        trials = np.array([0, 0, 0, 1, 1, 1, 0, 2])
        rows = np.array([2, 2, 2, 0, 3, 3, 2, 4])
        batch = SparseRowBatch.from_cells(3, 5, row_bits, trials, rows * row_bits + cols)
        masks = np.zeros((3, 5, row_bits), dtype=np.uint8)
        masks[trials, rows, cols] = 1
        reference = SparseRowBatch.from_masks(masks)
        assert np.array_equal(batch.trial_idx, reference.trial_idx)
        assert np.array_equal(batch.row_idx, reference.row_idx)
        assert np.array_equal(batch.rows, reference.rows)

    @pytest.mark.parametrize("spec", [FIG3_SPEC] + PADDED_SPECS,
                             ids=["fig3", "padded63", "padded66"])
    @pytest.mark.parametrize("span", [1, 3, 9])
    def test_burst_column_sparse_is_the_dense_sample(self, spec, span):
        model = BurstColumnScenario(span=span)
        sparse_gen, dense_gen = block_generator(8, 2), block_generator(8, 2)
        batch = model.sample_sparse(sparse_gen, 64, spec)
        masks = model.sample(dense_gen, 64, spec)
        assert batch.n_pairs == 64 * spec.rows  # every row dirty
        assert np.array_equal(batch.densify(), masks)
        # Both emitters leave the generator in the same state.
        assert sparse_gen.bit_generator.state == dense_gen.bit_generator.state


# ----------------------------------------------------------------------
# sparse emitters: identical draws, identical cells
# ----------------------------------------------------------------------

SPARSE_SCENARIOS = [
    ClusteredMbuScenario(),
    ClusteredMbuScenario(spread=0.3),
    FixedClusterScenario(height=3, width=9),
    IidUniformScenario(n_cells=5),
    BurstRowScenario(span=2),
    BurstColumnScenario(span=2),
    HardFaultMapScenario(defect_density=2e-4),
    CompositeScenario(),
]


class TestSparseEmitters:
    @pytest.mark.parametrize(
        "model", SPARSE_SCENARIOS, ids=lambda m: type(m).__name__
    )
    def test_sparse_emission_densifies_to_dense_sample(self, model):
        spec = FIG3_SPEC
        dense = model.sample(block_generator(42, 3), 128, spec)
        batch = model.sample_sparse(block_generator(42, 3), 128, spec)
        assert batch is not None
        assert np.array_equal(batch.densify(), dense)

    def test_every_registered_scenario_is_sparse_or_declines(self):
        spec = FIG3_SPEC
        for name, cls in list_scenarios().items():
            if name == "fixed_cluster":
                model = cls(height=2, width=5)
            else:
                model = cls()
            if getattr(model, "weighted", False):
                # Weighted scenarios expose the same sparse-or-decline
                # contract through the likelihood-ratio-carrying API.
                out = model.sample_weighted_sparse(block_generator(1, 0), 32, spec)
                if out is None:
                    continue
                batch, weights = out
                dense, dense_weights = model.sample_weighted(
                    block_generator(1, 0), 32, spec
                )
                assert np.array_equal(batch.densify(), dense), name
                assert np.array_equal(weights, dense_weights), name
                continue
            batch = model.sample_sparse(block_generator(1, 0), 32, spec)
            if batch is None:
                continue  # dense-only configuration; the runner falls back
            dense = model.sample(block_generator(1, 0), 32, spec)
            assert np.array_equal(batch.densify(), dense), name

    def test_decliners_do_not_consume_rng(self):
        # A scenario that returns None must leave the stream pristine so
        # the dense retry sees the historical draws.
        spec = FIG3_SPEC
        model = IidUniformScenario(flip_probability=0.01)
        gen = block_generator(5, 0)
        assert model.sample_sparse(gen, 16, spec) is None
        replay = model.sample(gen, 16, spec)
        assert np.array_equal(replay, model.sample(block_generator(5, 0), 16, spec))


# ----------------------------------------------------------------------
# sparse pipeline bit-identity
# ----------------------------------------------------------------------

class TestSparsePipeline:
    @pytest.mark.parametrize("spec", SPEC_GRID, ids=lambda s: s.horizontal_code)
    def test_verdicts_match_dense_on_random_masks(self, spec, rng):
        for p in (0.001, 0.01, 0.1):
            _assert_kernel_matches_reference(spec, _random_masks(spec, rng, trials=96, p=p))

    @pytest.mark.parametrize(
        "model", SPARSE_SCENARIOS, ids=lambda m: type(m).__name__
    )
    def test_verdicts_match_dense_on_scenario_batches(self, model):
        spec = FIG3_SPEC
        masks = model.sample(block_generator(11, 0), 192, spec)
        dense = run_recovery_batch(spec, masks)
        sparse = run_packed(
            spec, model.sample_sparse(block_generator(11, 0), 192, spec)
        )
        assert np.array_equal(dense, sparse)

    def test_geometry_mismatch_rejected(self, rng):
        masks = (rng.random((4, 8, 24)) < 0.2).astype(np.uint8)
        with pytest.raises(ValueError, match="geometry"):
            run_packed(FIG3_SPEC, SparseRowBatch.from_masks(masks))


# ----------------------------------------------------------------------
# run_experiment: scheduling is pure
# ----------------------------------------------------------------------

def _reference_verdicts(spec, model, n_trials, seed, block_size):
    """``sample_block`` + the uint8 reference path, block by block."""
    pieces = []
    for block in range(-(-n_trials // block_size)):
        masks = model.sample_block(BlockStreams(seed, block), block_size, spec)
        pieces.append(run_recovery_batch(spec, masks))
    return np.concatenate(pieces)[:n_trials]


class TestExecutionModes:
    """Workers and chunking are scheduling only: every run equals the
    reference path on the same blocks."""

    def test_modes_and_workers_are_bit_identical(self):
        spec = FIG3_SPEC
        model = ClusterErrorModel.mostly_single_bit(0.3)
        expected = _reference_verdicts(spec, model, 700, seed=13, block_size=128)
        for kwargs in ({}, {"n_workers": 4}, {"chunk_blocks": 3}):
            result = run_experiment(spec, model, 700, seed=13, block_size=128,
                                    **kwargs)
            assert np.array_equal(result.verdicts, expected), kwargs

    @pytest.mark.parametrize("model", [
        BurstRowScenario(span=FIG3_SPEC.rows),      # sparse emitter, every row dirty
        IidUniformScenario(flip_probability=0.0005),  # dense-only, mostly clean
        IidUniformScenario(flip_probability=0.4),     # dense-only, every row dirty
    ], ids=["burst_row_all", "iid_sparse", "iid_dense"])
    def test_any_density_matches_reference(self, model):
        expected = _reference_verdicts(FIG3_SPEC, model, 128, seed=2, block_size=64)
        for n_workers in (1, 2):
            result = run_experiment(FIG3_SPEC, model, 128, seed=2, block_size=64,
                                    n_workers=n_workers)
            assert np.array_equal(result.verdicts, expected)


class TestPackedRuns:
    """Whole runs on packed emitters against the uint8 reference loop.

    Verdict arrays are pinned, not counts: on these configurations most
    trials land in one class, so counts alone would hide a swapped
    trial."""

    @pytest.mark.parametrize("scheme, rows, span", [
        ("2d_edc8_edc32", 128, 1),
        ("secded_intv4", 64, 1),
        ("l2.2d", 64, 2),
    ])
    def test_burst_column_runs_match_reference(self, scheme, rows, span):
        spec = EngineSpec.from_scheme(named_schemes()[scheme], rows=rows)
        model = BurstColumnScenario(span=span)
        expected = _reference_verdicts(spec, model, 384, seed=7, block_size=128)
        for n_workers in (1, 2):
            result = run_experiment(spec, model, 384, seed=7, block_size=128,
                                    n_workers=n_workers)
            assert np.array_equal(result.verdicts, expected), n_workers

    @pytest.mark.parametrize("code", ["EDC8", "SECDED"])
    def test_lone_and_shared_vertical_groups_match_reference(self, code):
        # 16 vertical groups over 64 rows: clusters shorter than 16 rows
        # put each dirty row alone in its group, taller ones share groups.
        spec = EngineSpec(rows=64, data_bits=64, interleave_degree=4,
                          horizontal_code=code, vertical_groups=16)
        model = CompositeScenario(
            soft=ClusteredMbuScenario(
                footprints=(((3, 5), 1.0), ((12, 1), 1.0), ((24, 2), 1.0), ((40, 9), 0.5))
            ),
            hard=HardFaultMapScenario(defect_density=2e-4),
        )
        batch = model.sample_sparse_block(BlockStreams(21, 0), 256, spec)
        _, sizes = np.unique(batch.trial_idx * 16 + batch.row_idx % 16, return_counts=True)
        assert (sizes == 1).any() and (sizes > 1).any()
        expected = _reference_verdicts(spec, model, 512, seed=21, block_size=256)
        assert len(np.unique(expected)) > 1
        for n_workers in (1, 2):
            result = run_experiment(spec, model, 512, seed=21, block_size=256,
                                    n_workers=n_workers)
            assert np.array_equal(result.verdicts, expected), n_workers
