"""Sparse row-major fault batches: only the rows that carry errors.

At the error rates of the paper's headline figures (one clustered upset
per trial in Fig. 3, a handful of defective cells per die in Fig. 8)
the overwhelming majority of a bank's rows are error-free in every
trial.  A dense ``(trials, rows, row_bits)`` mask batch spends its
memory bandwidth almost entirely on zeros; the decode kernels then
spend their cycles proving those zeros clean.

:class:`SparseRowBatch` is the alternative interchange format between
the fault-scenario emitters (:mod:`repro.scenarios.generators`) and the
engine's packed kernel (:mod:`repro.engine.packed`): the list of
*dirty* ``(trial, row)`` pairs plus one dense ``row_bits``-wide mask
per pair.  Everything else is implicitly zero.  Because the linear
codes decode an all-zero row as clean with no corrections, dropping
clean rows is *lossless*: verdicts computed from a sparse batch are
bit-identical to verdicts computed from its densified twin.

The invariants every constructor here maintains (and the engine relies
on):

* ``(trial_idx, row_idx)`` pairs are unique and sorted
  lexicographically (trial-major, row-minor);
* ``rows[i]`` is the complete error mask of that physical row (cells
  from *all* fault populations OR'd together);
* ``n_trials`` covers trials with no dirty rows at all — they simply
  have no pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SparseRowBatch"]


@dataclass(frozen=True)
class SparseRowBatch:
    """Dirty rows of a ``(n_trials, array_rows, row_bits)`` mask batch.

    Attributes
    ----------
    n_trials:
        Trials covered by the batch, including all-clean ones.
    array_rows:
        Physical data rows per trial (the dense tensor's middle axis).
    trial_idx, row_idx:
        Parallel ``(n_pairs,)`` arrays naming the dirty rows, sorted by
        ``(trial, row)`` with no duplicate pairs.
    rows:
        ``(n_pairs, row_bits)`` uint8 error masks, one per dirty row.
    """

    n_trials: int
    array_rows: int
    trial_idx: np.ndarray
    row_idx: np.ndarray
    rows: np.ndarray

    @property
    def n_pairs(self) -> int:
        return self.rows.shape[0]

    @property
    def row_bits(self) -> int:
        return self.rows.shape[1]

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, n_trials: int, array_rows: int, row_bits: int) -> "SparseRowBatch":
        return cls(
            n_trials=n_trials,
            array_rows=array_rows,
            trial_idx=np.zeros(0, dtype=np.int64),
            row_idx=np.zeros(0, dtype=np.int64),
            rows=np.zeros((0, row_bits), dtype=np.uint8),
        )

    @classmethod
    def from_masks(
        cls, masks: np.ndarray, row_any: "np.ndarray | None" = None
    ) -> "SparseRowBatch":
        """Sparsify a dense ``(trials, rows, row_bits)`` mask batch.

        ``row_any`` may pass a precomputed ``masks.any(axis=-1)`` so a
        caller that already screened row occupancy does not pay twice.
        """
        masks = np.asarray(masks, dtype=np.uint8)
        if masks.ndim != 3:
            raise ValueError(f"masks must be 3-D, got shape {masks.shape}")
        if row_any is None:
            row_any = masks.any(axis=-1)
        trial_idx, row_idx = np.nonzero(row_any)  # lexicographic order
        return cls(
            n_trials=masks.shape[0],
            array_rows=masks.shape[1],
            trial_idx=trial_idx.astype(np.int64, copy=False),
            row_idx=row_idx.astype(np.int64, copy=False),
            rows=masks[trial_idx, row_idx],
        )

    @classmethod
    def from_row_spans(
        cls,
        n_trials: int,
        array_rows: int,
        row_bits: int,
        r0: np.ndarray,
        heights: np.ndarray,
        c0: np.ndarray,
        widths: np.ndarray,
    ) -> "SparseRowBatch":
        """One axis-aligned solid rectangle per trial.

        Trial ``t`` dirties rows ``r0[t] .. r0[t]+heights[t]-1``, each
        with columns ``c0[t] .. c0[t]+widths[t]-1`` set — the sparse
        twin of :func:`repro.scenarios.generators.solid_cluster_masks`.
        Zero-height or zero-width rectangles contribute no pairs.
        """
        r0 = np.asarray(r0, dtype=np.int64)
        heights = np.asarray(heights, dtype=np.int64)
        c0 = np.asarray(c0, dtype=np.int64)
        widths = np.asarray(widths, dtype=np.int64)
        heights = np.where(widths > 0, heights, 0)
        total = int(heights.sum())
        if total == 0:
            return cls.empty(n_trials, array_rows, row_bits)
        trial_idx = np.repeat(np.arange(n_trials, dtype=np.int64), heights)
        # Within-trial row offsets: a concatenation of arange(h_t) runs.
        run_starts = np.cumsum(heights) - heights
        within = np.arange(total, dtype=np.int64) - np.repeat(run_starts, heights)
        row_idx = np.repeat(r0, heights) + within
        col_idx = np.arange(row_bits)
        lo = np.repeat(c0, heights)[:, None]
        hi = lo + np.repeat(widths, heights)[:, None]
        rows = ((col_idx >= lo) & (col_idx < hi)).astype(np.uint8)
        return cls(
            n_trials=n_trials,
            array_rows=array_rows,
            trial_idx=trial_idx,
            row_idx=row_idx,
            rows=rows,
        )

    @classmethod
    def from_cells(
        cls,
        n_trials: int,
        array_rows: int,
        row_bits: int,
        cell_trials: np.ndarray,
        cell_sites: np.ndarray,
    ) -> "SparseRowBatch":
        """Individual faulty cells, given as flat per-trial site indices.

        ``cell_sites[i]`` is ``row * row_bits + column`` within trial
        ``cell_trials[i]``; duplicate cells OR together (a cell is
        either faulty or not, no matter how many populations hit it).
        """
        cell_trials = np.asarray(cell_trials, dtype=np.int64)
        cell_sites = np.asarray(cell_sites, dtype=np.int64)
        if cell_trials.size == 0:
            return cls.empty(n_trials, array_rows, row_bits)
        cell_rows = cell_sites // row_bits
        cell_cols = cell_sites % row_bits
        keys = cell_trials * array_rows + cell_rows
        pair_keys, pair_of_cell = np.unique(keys, return_inverse=True)
        rows = np.zeros((pair_keys.shape[0], row_bits), dtype=np.uint8)
        rows[pair_of_cell, cell_cols] = 1
        return cls(
            n_trials=n_trials,
            array_rows=array_rows,
            trial_idx=pair_keys // array_rows,
            row_idx=pair_keys % array_rows,
            rows=rows,
        )

    # ------------------------------------------------------------------
    # combination / selection
    # ------------------------------------------------------------------

    def merge(self, other: "SparseRowBatch") -> "SparseRowBatch":
        """OR-combine two fault populations over the same trial space."""
        if (
            self.n_trials != other.n_trials
            or self.array_rows != other.array_rows
            or self.row_bits != other.row_bits
        ):
            raise ValueError("cannot merge sparse batches over different geometries")
        if other.n_pairs == 0:
            return self
        if self.n_pairs == 0:
            return other
        keys = np.concatenate(
            [
                self.trial_idx * self.array_rows + self.row_idx,
                other.trial_idx * other.array_rows + other.row_idx,
            ]
        )
        rows = np.concatenate([self.rows, other.rows], axis=0)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        starts = np.nonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])[0]
        merged_rows = np.bitwise_or.reduceat(rows[order], starts, axis=0)
        merged_keys = sorted_keys[starts]
        return SparseRowBatch(
            n_trials=self.n_trials,
            array_rows=self.array_rows,
            trial_idx=merged_keys // self.array_rows,
            row_idx=merged_keys % self.array_rows,
            rows=merged_rows,
        )

    def slice_trials(self, start: int, stop: int) -> "SparseRowBatch":
        """The sub-batch of trials ``[start, stop)``, re-based to 0."""
        if not 0 <= start <= stop <= self.n_trials:
            raise ValueError(f"invalid trial slice [{start}, {stop})")
        if start == 0 and stop == self.n_trials:
            return self
        lo = np.searchsorted(self.trial_idx, start, side="left")
        hi = np.searchsorted(self.trial_idx, stop, side="left")
        return SparseRowBatch(
            n_trials=stop - start,
            array_rows=self.array_rows,
            trial_idx=self.trial_idx[lo:hi] - start,
            row_idx=self.row_idx[lo:hi],
            rows=self.rows[lo:hi],
        )

    # ------------------------------------------------------------------
    def densify(self) -> np.ndarray:
        """The equivalent dense ``(n_trials, array_rows, row_bits)`` batch."""
        masks = np.zeros(
            (self.n_trials, self.array_rows, self.row_bits), dtype=np.uint8
        )
        masks[self.trial_idx, self.row_idx] = self.rows
        return masks
