"""Batched NumPy pattern generators — the one source of geometry truth.

Every fault-pattern geometry of the project lives here exactly once:
cluster placement, footprint sampling, burst (wordline/bitline)
placement, independent-cell draws and Poisson defect maps.  The
vectorized scenario models (:mod:`repro.scenarios.models`) build
``(trials, rows, cols)`` mask batches from these kernels, and the scalar
:class:`repro.errors.ErrorInjector` delegates its per-event placement to
the same functions — so the two paths cannot drift apart, and a
single-event draw is *bit-exact* between them (a ``size=1`` vectorized
draw consumes the ``numpy.random.Generator`` stream identically to the
scalar draw it replaced).

All mask outputs are ``uint8`` 0/1 arrays in the error-mask domain of
:mod:`repro.engine.batch`: a 1 means "this cell differs from its correct
value".  Each ``*_sparse`` twin shares its mask emitter's draw and
returns the same cells as a :class:`SparseRowBatch` of byte-packed
dirty rows, built without a mask.
"""

from __future__ import annotations

import numpy as np

from .sparse import SparseRowBatch

__all__ = [
    "place_clusters",
    "solid_cluster_masks",
    "solid_cluster_sparse",
    "sample_footprints",
    "spread_footprints",
    "place_bursts",
    "burst_masks",
    "burst_sparse",
    "bernoulli_masks",
    "counted_cells_masks",
    "counted_cells_sparse",
    "poisson_defect_masks",
    "poisson_defect_sparse",
    "mostly_single_bit_footprints",
]

#: Canonical "mostly single-bit with a multi-bit tail" footprint mix —
#: the relative shape of the tail used by both the scalar
#: :meth:`repro.errors.FootprintDistribution.mostly_single_bit` and the
#: ``clustered_mbu`` scenario default.
_MULTI_BIT_TAIL: tuple[tuple[tuple[int, int], float], ...] = (
    ((1, 2), 0.4),
    ((2, 2), 0.3),
    ((1, 4), 0.15),
    ((4, 4), 0.1),
    ((8, 8), 0.05),
)


def mostly_single_bit_footprints(
    multi_bit_fraction: float = 0.1,
) -> tuple[tuple[tuple[int, int], float], ...]:
    """SBU-dominated footprint weights with a small-cluster tail.

    Mirrors the paper's observation that today most upsets are
    single-bit but a growing fraction are multi-bit.
    """
    if not 0 <= multi_bit_fraction <= 1:
        raise ValueError("multi_bit_fraction must be in [0, 1]")
    return (((1, 1), 1.0 - multi_bit_fraction),) + tuple(
        (shape, multi_bit_fraction * share) for shape, share in _MULTI_BIT_TAIL
    )


# ----------------------------------------------------------------------
# clusters
# ----------------------------------------------------------------------

def place_clusters(
    rng: np.random.Generator,
    heights: np.ndarray,
    widths: np.ndarray,
    rows: int,
    cols: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform top-left corners for clusters of the given footprints.

    Draw order (rows then columns, one bounded draw each) matches the
    scalar injector's historical per-event draws, so seeded streams are
    preserved across the delegation.
    """
    r0 = rng.integers(0, rows - heights + 1, size=heights.shape[0])
    c0 = rng.integers(0, cols - widths + 1, size=widths.shape[0])
    return r0, c0


def _draw_cluster_rects(
    rng: np.random.Generator,
    heights: np.ndarray,
    widths: np.ndarray,
    rows: int,
    cols: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The one cluster draw both mask and sparse emitters share:
    clip footprints to the array, then place corners uniformly."""
    heights = np.minimum(np.asarray(heights, dtype=np.int64), rows)
    widths = np.minimum(np.asarray(widths, dtype=np.int64), cols)
    r0, c0 = place_clusters(rng, heights, widths, rows, cols)
    return heights, widths, r0, c0


def solid_cluster_masks(
    rng: np.random.Generator,
    heights: np.ndarray,
    widths: np.ndarray,
    rows: int,
    cols: int,
) -> np.ndarray:
    """Uniformly placed solid clusters, one per trial, as bit masks."""
    heights, widths, r0, c0 = _draw_cluster_rects(rng, heights, widths, rows, cols)
    row_idx = np.arange(rows)
    col_idx = np.arange(cols)
    row_hit = ((row_idx >= r0[:, None]) & (row_idx < (r0 + heights)[:, None]))
    col_hit = ((col_idx >= c0[:, None]) & (col_idx < (c0 + widths)[:, None]))
    # Batched outer product via einsum: several times faster than the
    # boolean broadcast chain (one fused pass, no bool intermediates)
    # over the (trials, rows, cols) output this call is bound by.
    return np.einsum(
        "tr,tc->trc", row_hit.astype(np.uint8), col_hit.astype(np.uint8)
    )


def solid_cluster_sparse(
    rng: np.random.Generator,
    heights: np.ndarray,
    widths: np.ndarray,
    rows: int,
    cols: int,
) -> SparseRowBatch:
    """Sparse twin of :func:`solid_cluster_masks`: identical draws,
    identical cells, but emitted as the dirty rows only.

    Both paths draw through :func:`_draw_cluster_rects`, so a seeded
    stream produces the same clusters on either path by construction;
    only the output representation differs — ``O(sum(heights))`` rows
    instead of a dense ``(trials, rows, cols)`` tensor.
    """
    heights, widths, r0, c0 = _draw_cluster_rects(rng, heights, widths, rows, cols)
    return SparseRowBatch.from_row_spans(
        n_trials=heights.shape[0],
        array_rows=rows,
        row_bits=cols,
        r0=r0,
        heights=heights,
        c0=c0,
        widths=widths,
    )


def sample_footprints(
    rng: np.random.Generator,
    footprints: "tuple[tuple[tuple[int, int], float], ...]",
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` footprints ``(heights, widths)`` from weighted shapes."""
    shapes = np.array([shape for shape, _w in footprints], dtype=np.int64)
    weights = np.array([w for _s, w in footprints], dtype=float)
    weights /= weights.sum()
    index = rng.choice(len(footprints), size=count, p=weights)
    return shapes[index, 0], shapes[index, 1]


def spread_footprints(
    rng: np.random.Generator,
    heights: np.ndarray,
    widths: np.ndarray,
    spread: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Stretch footprints by geometric charge-diffusion tails.

    With probability-parameter ``spread`` in ``[0, 1)`` each dimension
    independently gains ``Geometric(1 - spread) - 1`` extra cells — a
    memoryless tail modelling single-event charge spreading beyond the
    nominal footprint.  ``spread == 0`` draws nothing and returns the
    inputs unchanged (bit-exact with the unspread stream).
    """
    if not 0 <= spread < 1:
        raise ValueError("spread must be in [0, 1)")
    if spread == 0:
        return np.asarray(heights, dtype=np.int64), np.asarray(widths, dtype=np.int64)
    count = np.asarray(heights).shape[0]
    extra_h = rng.geometric(1.0 - spread, size=count) - 1
    extra_w = rng.geometric(1.0 - spread, size=count) - 1
    return heights + extra_h, widths + extra_w


# ----------------------------------------------------------------------
# bursts (wordline / bitline failures)
# ----------------------------------------------------------------------

def place_bursts(
    rng: np.random.Generator, spans: np.ndarray, n_lines: int
) -> np.ndarray:
    """Uniform start lines for bursts of ``spans`` consecutive lines."""
    spans = np.minimum(np.asarray(spans, dtype=np.int64), n_lines)
    return rng.integers(0, n_lines - spans + 1, size=spans.shape[0])


def _draw_burst_extents(
    rng: np.random.Generator, count: int, n_lines: int, span: int
) -> tuple[np.ndarray, np.ndarray]:
    """The one burst draw both mask and sparse emitters share: uniform
    start lines for ``count`` bursts, spans clipped to the axis."""
    spans = np.full(count, span, dtype=np.int64)
    starts = place_bursts(rng, spans, n_lines)
    return starts, np.minimum(spans, n_lines)


def burst_masks(
    rng: np.random.Generator,
    count: int,
    rows: int,
    cols: int,
    span: int,
    axis: str,
) -> np.ndarray:
    """One full-extent burst per trial: ``span`` whole rows or columns.

    ``axis="row"`` models wordline failures (every cell of ``span``
    consecutive physical rows), ``axis="column"`` bitline failures.
    """
    if axis not in ("row", "column"):
        raise ValueError(f"axis must be 'row' or 'column', got {axis!r}")
    n_lines = rows if axis == "row" else cols
    starts, spans = _draw_burst_extents(rng, count, n_lines, span)
    line_idx = np.arange(n_lines)
    hit = (line_idx >= starts[:, None]) & (line_idx < (starts + spans)[:, None])
    masks = np.zeros((count, rows, cols), dtype=np.uint8)
    if axis == "row":
        masks |= hit[:, :, None]
    else:
        masks |= hit[:, None, :]
    return masks


def burst_sparse(
    rng: np.random.Generator,
    count: int,
    rows: int,
    cols: int,
    span: int,
    axis: str,
) -> SparseRowBatch:
    """Sparse twin of :func:`burst_masks`: same placement draws, dirty
    rows emitted directly — ``span`` full rows per trial on the row
    axis, every row carrying the ``span``-column stripe on the column
    axis."""
    if axis not in ("row", "column"):
        raise ValueError(f"axis must be 'row' or 'column', got {axis!r}")
    n_lines = rows if axis == "row" else cols
    starts, spans = _draw_burst_extents(rng, count, n_lines, span)
    zeros = np.zeros(count, dtype=np.int64)
    if axis == "row":
        r0, heights, c0, widths = starts, spans, zeros, np.full(count, cols)
    else:
        r0, heights, c0, widths = zeros, np.full(count, rows), starts, spans
    return SparseRowBatch.from_row_spans(
        n_trials=count,
        array_rows=rows,
        row_bits=cols,
        r0=r0,
        heights=heights,
        c0=c0,
        widths=widths,
    )


# ----------------------------------------------------------------------
# independent cells
# ----------------------------------------------------------------------

def bernoulli_masks(
    rng: np.random.Generator, count: int, rows: int, cols: int, p: float
) -> np.ndarray:
    """Every cell flips independently with probability ``p``."""
    if not 0 <= p <= 1:
        raise ValueError("flip probability must be in [0, 1]")
    return (rng.random((count, rows * cols)) < p).astype(np.uint8).reshape(
        count, rows, cols
    )


def _draw_counted_cells(
    rng: np.random.Generator, counts: np.ndarray, n_sites: int
) -> tuple[np.ndarray, np.ndarray]:
    """The one distinct-cell draw both mask and sparse emitters share.

    Trial ``t`` gets ``counts[t]`` distinct uniform sites out of
    ``n_sites``; returns parallel ``(trials, sites)`` arrays sorted by
    trial, then site.

    Sparse counts (the defect-map regime) draw site indices directly —
    one ``(n_trials, kmax)`` draw — and patch the rare within-trial
    collisions by redrawing each deficit trial's shortfall, in ascending
    trial order, until every trial holds its count.  Collisions are
    found on the sorted ``trial * n_sites + site`` keys, so the cost is
    O(cells), not O(array).  The process treats every site alike and
    always stops at exactly ``counts[t]`` cells, so the final set is a
    uniform subset of that size.  Dense counts (``kmax > n_sites // 8``),
    where collisions would dominate, rank one uniform score per cell
    and keep each trial's smallest ``count`` instead.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if (counts < 0).any() or (counts > n_sites).any():
        raise ValueError("cell counts must be in [0, array cells]")
    n_trials = counts.shape[0]
    if n_trials == 0 or not counts.any():
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    kmax = int(counts.max())
    if kmax > n_sites // 8:
        scores = rng.random((n_trials, n_sites))
        order = np.argsort(scores, axis=1)
        ranks = np.empty_like(order)
        np.put_along_axis(ranks, order, np.arange(n_sites)[None, :], axis=1)
        trials, sites = np.nonzero(ranks < counts[:, None])
        return trials.astype(np.int64, copy=False), sites.astype(np.int64, copy=False)
    select = np.arange(kmax)[None, :] < counts[:, None]
    draws = rng.integers(0, n_sites, size=(n_trials, kmax))
    keys = np.unique((np.arange(n_trials)[:, None] * n_sites + draws)[select])
    have = np.bincount(keys // n_sites, minlength=n_trials)
    deficit_rows = np.nonzero(have < counts)[0]
    while deficit_rows.size:
        need = counts[deficit_rows] - have[deficit_rows]
        extra = rng.integers(0, n_sites, size=(deficit_rows.size, int(need.max())))
        take = np.arange(extra.shape[1])[None, :] < need[:, None]
        patch = (deficit_rows[:, None] * n_sites + extra)[take]
        keys = np.unique(np.concatenate([keys, patch]))
        have = np.bincount(keys // n_sites, minlength=n_trials)
        deficit_rows = deficit_rows[have[deficit_rows] < counts[deficit_rows]]
    return keys // n_sites, keys % n_sites


def counted_cells_masks(
    rng: np.random.Generator, counts: np.ndarray, rows: int, cols: int
) -> np.ndarray:
    """Per-trial varying numbers of distinct uniformly-placed cells."""
    trials, sites = _draw_counted_cells(rng, counts, rows * cols)
    masks = np.zeros((len(counts), rows * cols), dtype=np.uint8)
    masks[trials, sites] = 1
    return masks.reshape(len(counts), rows, cols)


def counted_cells_sparse(
    rng: np.random.Generator, counts: np.ndarray, rows: int, cols: int
) -> SparseRowBatch:
    """Sparse twin of :func:`counted_cells_masks` (shared draw helper):
    the same cells, emitted as dirty rows without building the masks."""
    trials, sites = _draw_counted_cells(rng, counts, rows * cols)
    return SparseRowBatch.from_cells(
        n_trials=len(counts),
        array_rows=rows,
        row_bits=cols,
        cell_trials=trials,
        cell_sites=sites,
    )


def _draw_poisson_counts(
    rng: np.random.Generator, count: int, n_sites: int, density: float
) -> np.ndarray:
    """The one defect-count draw both Poisson emitters share."""
    if density < 0:
        raise ValueError("defect density must be non-negative")
    return np.minimum(rng.poisson(density * n_sites, size=count), n_sites)


def poisson_defect_masks(
    rng: np.random.Generator, count: int, rows: int, cols: int, density: float
) -> np.ndarray:
    """Manufacturing defect maps: Poisson(density * cells) faults per trial."""
    counts = _draw_poisson_counts(rng, count, rows * cols, density)
    return counted_cells_masks(rng, counts, rows, cols)


def poisson_defect_sparse(
    rng: np.random.Generator, count: int, rows: int, cols: int, density: float
) -> SparseRowBatch:
    """Sparse twin of :func:`poisson_defect_masks` (shared draw helpers)."""
    counts = _draw_poisson_counts(rng, count, rows * cols, density)
    return counted_cells_sparse(rng, counts, rows, cols)
