"""The byte-packed GF(2) recovery kernel every Monte Carlo block runs on.

In the 2D scheme every decision the engine makes is a linear map over
GF(2): the horizontal EDC/SECDED syndrome of each interleaved word, the
vertical parity XOR across a row group, and the row rebuilt from that
XOR.  This module evaluates the syndromes on **byte-packed dirty
rows**; linearity also settles every row rebuild's verdict without
computing the XOR (see :func:`_recover`).

**Layout.**  A block arrives as a
:class:`~repro.scenarios.sparse.SparseRowBatch`, which owns the packed
row layout: only the rows that carry any error are listed, each as
``ceil(row_bits / 8)`` bytes with physical cell ``c`` at bit
``7 - c % 8`` of byte ``c // 8`` and zero padding, so a 288-cell row is
36 bytes.  The scenario emitters write these bytes directly; the kernel
never packs or unpacks a row.  Clean rows decode clean with no
corrections and add nothing to a vertical group's XOR, so leaving them
out is lossless.

**Syndrome tables.**  Each interleave slot owns an ``f``-bit field of a
``uint64`` syndrome word: the ``n`` group parities of EDCn / byte
parity, or SECDED's ``m`` Hamming bits plus the overall parity.  Since
the syndrome is linear in the row, it splits into per-byte tables:
``T_j[v]`` is the syndrome of a row whose only nonzero byte is ``v`` at
byte ``j``, and a row's syndrome is ``XOR_j T_j[row[j]]`` — one gather
per byte, for any group map.  "Some data bit of the slot is wrong" is
a second, OR-combined table over the same bytes.

**Decisions.**  A parity slot is faulty when its field is nonzero.  A
SECDED slot looks its field up in an action table built from the probed
correction table of :func:`repro.engine.batch.secded_probe` (the same
``code.encode`` probe the reference decoder uses): clean, faulty, or
the cell to flip.  Multi-bit patterns that alias to a legal single-error
syndrome therefore miscorrect exactly as the scalar decoder does.

Verdicts are bit-identical to the ``uint8`` reference
:func:`repro.engine.batch.run_recovery_batch`; the tests hold the two
side by side.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.coding.base import WordCode
from repro.coding.hamming import SecdedCode
from repro.coding.parity import InterleavedParityCode
from repro.scenarios.sparse import SparseRowBatch

from .batch import VERDICT_DETECTED, VERDICT_SILENT, EngineSpec, secded_probe

__all__ = ["PackedDecoder", "packed_decoder", "run_packed"]

_WORD_BITS = 64
#: Action-table entries of a SECDED slot that is clean / faulty; any
#: other entry is the physical cell the decoder flips.
_CLEAN = -1
_FAULTY = -2


def _byte_tables(cell_values: np.ndarray, combine) -> np.ndarray:
    """``(row_bytes, 256)`` tables of ``combine`` over the set bits.

    ``cell_values`` holds one ``uint64`` per packed cell (padding cells
    included); entry ``[j, v]`` combines the values of the cells whose
    bits are set in byte value ``v`` at byte ``j``.
    """
    # np.packbits is MSB-first: bit value 1 << k is cell 8j + 7 - k.
    per_bit = cell_values.reshape(-1, 8)[:, ::-1]
    tables = np.zeros((per_bit.shape[0], 256), dtype=np.uint64)
    for k in range(8):
        low = 1 << k
        tables[:, low : 2 * low] = combine(tables[:, :low], per_bit[:, k : k + 1])
    return tables


def _gather(tables: np.ndarray, rows: np.ndarray, combine) -> np.ndarray:
    """``combine`` over bytes of ``tables[j, rows[:, j]]``: ``(n,)``."""
    columns = np.ascontiguousarray(rows.T)
    acc = tables[0].take(columns[0])
    for j in range(1, columns.shape[0]):
        combine(acc, tables[j].take(columns[j]), out=acc)
    return acc


class PackedDecoder:
    """Byte-table decoder for one horizontal code and interleave degree.

    :meth:`decode` maps ``(n, row_bytes)`` packed rows to per-row slot
    bitmasks of detected-uncorrectable words plus the rows' residual
    error after inline correction.  Raises ``ValueError`` for codes
    other than interleaved parity (EDCn, byte parity, any group map)
    and SECDED.
    """

    def __init__(self, code: WordCode, interleave_degree: int):
        d = interleave_degree
        if d < 1:
            raise ValueError("interleave_degree must be positive")
        if d > _WORD_BITS:
            raise ValueError(f"at most {_WORD_BITS} interleave slots, got {d}")
        data = code.data_bits
        codeword_bits = data + code.check_bits
        if isinstance(code, SecdedCode):
            contrib, lut = secded_probe(code)
            m = contrib.shape[1]
            field_bits = m + 1
            # Hamming bits, then the overall parity every bit feeds.
            values = contrib.astype(np.uint64) @ (np.uint64(1) << np.arange(m, dtype=np.uint64))
            values |= np.uint64(1 << m)
        elif isinstance(code, InterleavedParityCode):
            field_bits = code.interleave
            groups = [code.group_of(b) for b in range(data)] + list(range(field_bits))
            values = np.uint64(1) << np.array(groups, dtype=np.uint64)
            lut = None
        else:
            raise ValueError(
                f"no packed decoder for {code.name!r}; the engine supports "
                "interleaved-parity (EDCn / byte parity) and SECDED codes"
            )
        if field_bits > _WORD_BITS:
            raise ValueError(f"{code.name!r} syndromes exceed {_WORD_BITS} bits per word")
        self.interleave_degree = d
        self.row_bits = codeword_bits * d
        self.row_bytes = -(-self.row_bits // 8)
        self.all_slots = np.uint64((1 << d) - 1)
        self._field_mask = np.uint64((1 << field_bits) - 1)

        # Slot s fills field (s % per_word) of syndrome word s // per_word.
        per_word = _WORD_BITS // field_bits
        cells = np.arange(self.row_bytes * 8)
        live = cells < self.row_bits
        bit, slot = np.divmod(np.where(live, cells, 0), d)
        shifted = values[bit] << ((slot % per_word) * field_bits).astype(np.uint64)
        self._syndrome_tables = [
            _byte_tables(np.where(live & (slot // per_word == w), shifted, 0), np.bitwise_xor)
            for w in range(-(-d // per_word))
        ]
        self._slot_fields = [
            [(s, np.uint64((s % per_word) * field_bits)) for s in range(d) if s // per_word == w]
            for w in range(len(self._syndrome_tables))
        ]
        slot_bit = np.uint64(1) << slot.astype(np.uint64)
        self._data_tables = _byte_tables(
            np.where(live & (bit < data), slot_bit, 0).astype(np.uint64), np.bitwise_or
        )

        self._actions = None
        if lut is not None:
            # Field value -> action, per slot: SECDED corrects when the
            # overall parity is odd and the Hamming syndrome is legal.
            field = np.arange(1 << field_bits)
            hamming, overall = field & ((1 << m) - 1), field >> m
            target = lut[hamming]
            base = np.where(
                field == 0,
                _CLEAN,
                np.where((overall == 1) & (target >= 0), target * d, _FAULTY),
            )
            self._actions = [
                np.where(base >= 0, base + s, base).astype(np.int64) for s in range(d)
            ]

    def decode(self, rows: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """``(faulty, residual)`` of ``(n, row_bytes)`` packed rows.

        ``faulty`` is an ``(n,)`` ``uint64`` bitmask of the slots
        flagged detected-uncorrectable; ``residual`` is ``rows`` with the
        decoder's corrections applied (``rows`` itself when none).
        """
        faulty = np.zeros(rows.shape[0], dtype=np.uint64)
        residual = rows
        for tables, fields in zip(self._syndrome_tables, self._slot_fields):
            syndrome = _gather(tables, rows, np.bitwise_xor)
            for slot, shift in fields:
                field = (syndrome >> shift) & self._field_mask
                if self._actions is None:
                    faulty |= (field != 0).astype(np.uint64) << np.uint64(slot)
                    continue
                action = self._actions[slot].take(field.astype(np.intp))
                faulty |= (action == _FAULTY).astype(np.uint64) << np.uint64(slot)
                fix = np.flatnonzero(action >= 0)
                if fix.size:
                    if residual is rows:
                        residual = rows.copy()
                    cells = action[fix]
                    residual[fix, cells >> 3] ^= (0x80 >> (cells & 7)).astype(np.uint8)
        return faulty, residual

    def data_wrong(self, rows: np.ndarray) -> np.ndarray:
        """``(n,)`` bitmask of the slots with any data bit set in ``rows``."""
        return _gather(self._data_tables, rows, np.bitwise_or)


@functools.lru_cache(maxsize=64)
def packed_decoder(spec: EngineSpec) -> PackedDecoder:
    """The spec's decoder, built on first use and kept per process
    (persistent-pool workers keep their tables across chunks and runs).
    Raises ``ValueError`` for codes the kernel cannot decode."""
    return PackedDecoder(spec.build_code(), spec.interleave_degree)


def run_packed(
    spec: EngineSpec, batch: SparseRowBatch, decoder: "PackedDecoder | None" = None
) -> np.ndarray:
    """Decode, recover and classify a block; ``(n_trials,)`` verdicts.

    The scrub, row-reconstruction and read-out sequence is that of
    :func:`repro.engine.batch.run_recovery_batch`, restricted to the
    batch's listed rows.  ``decoder`` defaults to :func:`packed_decoder`.
    """
    if decoder is None:
        decoder = packed_decoder(spec)
    if batch.row_bits != decoder.row_bits:
        raise ValueError(
            f"rows of {batch.row_bits} cells do not match the spec's "
            f"geometry ({decoder.row_bits} cells per row)"
        )
    verdicts = np.zeros(batch.n_trials, dtype=np.uint8)  # VERDICT_CORRECTED
    if not batch.n_pairs:
        return verdicts
    faulty, residual = decoder.decode(batch.rows)
    if spec.is_two_dimensional and faulty.any():
        faulty, residual = _recover(spec, batch, faulty, residual)

    # Read-out: a word is silently wrong when its slot is not flagged
    # but a data bit of the residual is set; silent dominates detected.
    check = np.flatnonzero(residual.any(axis=1) & (faulty != decoder.all_slots))
    silent = check[(decoder.data_wrong(residual[check]) & ~faulty[check]) != 0]
    verdicts[batch.trial_idx[faulty != 0]] = VERDICT_DETECTED
    verdicts[batch.trial_idx[silent]] = VERDICT_SILENT
    return verdicts


def _recover(
    spec: EngineSpec,
    batch: SparseRowBatch,
    faulty: np.ndarray,
    content: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """Row reconstruction (Fig. 4(b) phase 2) over the listed rows.

    ``faulty``/``content`` are the first decode of the batch's rows;
    returns the read-out's ``(faulty, residual)``.  The scrub (phase 1)
    needs no work here: a word the decoder corrects has a zero syndrome
    afterwards (the flipped bit's syndrome column equals the syndrome),
    so a scrubbed row reads out exactly as its first decode says.  One
    pass suffices (see :func:`repro.engine.batch._recover_batch`).

    A group with exactly one faulty row rebuilds it as the XOR of the
    other members' content.  Those members are not faulty, so each has
    a zero syndrome in every slot; by linearity so does the rebuild,
    which therefore decodes clean and is always installed.  Its content
    is then read out with no faulty slot, and a data bit it carries is
    a data bit of some other member, which reads out silent itself.  The
    trial's verdict is thus the same as if the rebuilt row were
    all-zero — exactly the rebuild of a row that is the only listed row
    of its group.  So every rebuilt row is cleared, with no group XOR
    and no decode of a candidate row.
    """
    v = spec.vertical_groups
    faulty_rows = np.flatnonzero(faulty)
    key = batch.trial_idx[faulty_rows] * v + batch.row_idx[faulty_rows] % v
    _, inverse, counts = np.unique(key, return_inverse=True, return_counts=True)
    rebuilt = faulty_rows[counts[inverse] == 1]
    if not rebuilt.size:
        return faulty, content
    faulty = faulty.copy()
    faulty[rebuilt] = 0
    residual = content.copy()
    residual[rebuilt] = 0
    return faulty, residual
