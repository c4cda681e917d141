"""Sparse, byte-packed fault batches: only the rows that carry errors.

At the error rates of the paper's headline figures (one clustered upset
per trial in Fig. 3, a handful of defective cells per die in Fig. 8)
the overwhelming majority of a bank's rows are error-free in every
trial.  A dense ``(trials, rows, row_bits)`` mask batch spends its
memory bandwidth almost entirely on zeros; the decode kernels then
spend their cycles proving those zeros clean.

:class:`SparseRowBatch` is the one fault interchange format between the
scenario emitters (:mod:`repro.scenarios.generators`) and the engine's
byte-packed kernel (:mod:`repro.engine.packed`): the list of *dirty*
``(trial, row)`` pairs plus one byte-packed error row per pair.
Everything else is implicitly zero.  Because the linear codes decode an
all-zero row as clean with no corrections, dropping clean rows is
*lossless*: verdicts computed from a sparse batch are bit-identical to
verdicts computed from its densified twin.

**Layout.**  Physical cell ``c`` of a row is bit ``7 - c % 8`` of byte
``c // 8`` (the order of ``np.packbits``) and the padding bits of the
last byte are zero, so a 288-cell row is 36 bytes.  The emitters build
these bytes directly — spans by byte arithmetic, single cells by OR-ing
one bit into their byte — so no ``uint8``-per-cell row exists between
a scenario draw and its verdict.  Only a dense mask batch
(:meth:`SparseRowBatch.from_masks`) is packed, once.

The invariants every constructor here maintains (and the engine relies
on):

* ``(trial_idx, row_idx)`` pairs are unique and sorted
  lexicographically (trial-major, row-minor);
* ``rows[i]`` is the complete packed error row of that physical row
  (cells from *all* fault populations OR'd together);
* ``n_trials`` covers trials with no dirty rows at all — they simply
  have no pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SparseRowBatch"]


def _row_bytes(row_bits: int) -> int:
    return -(-row_bits // 8)


@dataclass(frozen=True)
class SparseRowBatch:
    """Dirty rows of a ``(n_trials, array_rows, row_bits)`` mask batch.

    Attributes
    ----------
    n_trials:
        Trials covered by the batch, including all-clean ones.
    array_rows:
        Physical data rows per trial (the dense tensor's middle axis).
    row_bits:
        Cells per physical row (the dense tensor's last axis).
    trial_idx, row_idx:
        Parallel ``(n_pairs,)`` arrays naming the dirty rows, sorted by
        ``(trial, row)`` with no duplicate pairs.
    rows:
        ``(n_pairs, ceil(row_bits / 8))`` uint8 packed error rows, one
        per dirty row, in the layout of the module docstring.
    """

    n_trials: int
    array_rows: int
    row_bits: int
    trial_idx: np.ndarray
    row_idx: np.ndarray
    rows: np.ndarray

    @property
    def n_pairs(self) -> int:
        return self.rows.shape[0]

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, n_trials: int, array_rows: int, row_bits: int) -> "SparseRowBatch":
        return cls(
            n_trials=n_trials,
            array_rows=array_rows,
            row_bits=row_bits,
            trial_idx=np.zeros(0, dtype=np.int64),
            row_idx=np.zeros(0, dtype=np.int64),
            rows=np.zeros((0, _row_bytes(row_bits)), dtype=np.uint8),
        )

    @classmethod
    def from_masks(cls, masks: np.ndarray) -> "SparseRowBatch":
        """Sparsify and pack a dense ``(trials, rows, row_bits)`` 0/1
        mask batch."""
        masks = np.asarray(masks, dtype=np.uint8)
        if masks.ndim != 3:
            raise ValueError(f"masks must be 3-D, got shape {masks.shape}")
        packed = np.packbits(masks, axis=-1)
        trial_idx, row_idx = np.nonzero(packed.any(axis=-1))  # lexicographic order
        return cls(
            n_trials=masks.shape[0],
            array_rows=masks.shape[1],
            row_bits=masks.shape[2],
            trial_idx=trial_idx.astype(np.int64, copy=False),
            row_idx=row_idx.astype(np.int64, copy=False),
            rows=packed[trial_idx, row_idx],
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
        Columns must lie inside the row (``c0 + widths <= row_bits``).
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
        # Byte j holds cells 8j .. 8j+7; the span covers its bit offsets
        # [lo, hi), i.e. the bits (0xFF >> lo) minus the bits (0xFF >> hi).
        offsets = 8 * np.arange(_row_bytes(row_bits), dtype=np.int64)
        lo = np.clip(c0[:, None] - offsets, 0, 8)
        hi = np.clip((c0 + widths)[:, None] - offsets, 0, 8)
        pattern = ((0xFF >> lo) & ~(0xFF >> hi)).astype(np.uint8)
        return cls(
            n_trials=n_trials,
            array_rows=array_rows,
            row_bits=row_bits,
            trial_idx=trial_idx,
            row_idx=row_idx,
            rows=np.repeat(pattern, heights, axis=0),
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
        cell_rows, cell_cols = np.divmod(cell_sites, row_bits)
        keys = cell_trials * array_rows + cell_rows
        pair_keys, pair_of_cell = np.unique(keys, return_inverse=True)
        rows = np.zeros((pair_keys.shape[0], _row_bytes(row_bits)), dtype=np.uint8)
        np.bitwise_or.at(
            rows,
            (pair_of_cell, cell_cols >> 3),
            (0x80 >> (cell_cols & 7)).astype(np.uint8),
        )
        return cls(
            n_trials=n_trials,
            array_rows=array_rows,
            row_bits=row_bits,
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
            row_bits=self.row_bits,
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
            row_bits=self.row_bits,
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
        masks[self.trial_idx, self.row_idx] = np.unpackbits(
            self.rows, axis=-1, count=self.row_bits
        )
        return masks
