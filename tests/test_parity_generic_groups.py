"""The ``"generic"`` group-map branch of ``ParityVectorDecoder``.

No standard code (EDCn modular, byte-parity contiguous) exercises this
branch, so it gets dedicated coverage here with scrambled group maps:
an ``InterleavedParityCode`` whose bit→group assignment is a seeded
random permutation of the modular layout.  The vectorized decoder must
fall into its generic gather path and still agree word for word with
the scalar ``code.decode`` — and with the byte-packed kernel, whose
syndrome tables are built from ``code.group_of`` and so take any group
map by construction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coding.base import CodeStatus
from repro.coding.parity import InterleavedParityCode
from repro.engine import EngineSpec, run_recovery_batch
from repro.engine.batch import ParityVectorDecoder
from repro.engine.packed import PackedDecoder, run_packed
from repro.scenarios import SparseRowBatch


class ScrambledParityCode(InterleavedParityCode):
    """Interleaved parity with a randomly permuted bit→group map."""

    def __init__(self, data_bits: int, interleave: int, seed: int):
        super().__init__(data_bits, interleave)
        rng = np.random.default_rng(seed)
        while True:
            groups = rng.permutation(np.arange(data_bits) % interleave)
            modular = np.array_equal(groups, np.arange(data_bits) % interleave)
            span = data_bits // interleave if data_bits % interleave == 0 else None
            contiguous = span is not None and np.array_equal(
                groups, np.arange(data_bits) // span
            )
            if not modular and not contiguous:
                break
        self._groups = groups
        self.name = f"ScrambledEDC{interleave}(seed={seed})"

    def group_of(self, bit_position: int) -> int:
        if not 0 <= bit_position < self.data_bits:
            raise ValueError(f"bit position {bit_position} out of range")
        return int(self._groups[bit_position])

    def encode(self, data: np.ndarray) -> np.ndarray:
        data = self._validate_word(data)
        check = np.zeros(self.interleave, dtype=np.uint8)
        for group in range(self.interleave):
            members = np.nonzero(self._groups == group)[0]
            check[group] = np.bitwise_xor.reduce(data[members])
        return check


def _scalar_word_faulty(code, row_mask, slot, degree):
    """Scalar reference verdict for one interleave slot of a row mask."""
    codeword = row_mask[slot::degree]  # codeword bits of this slot
    data, check = codeword[: code.data_bits], codeword[code.data_bits :]
    result = code.decode(data, check)
    return result.status == CodeStatus.DETECTED_UNCORRECTABLE


@pytest.mark.parametrize("data_bits,interleave,degree", [
    (64, 8, 4),
    (32, 4, 2),
    (24, 6, 1),
    (16, 5, 3),  # interleave does not divide data_bits
])
def test_generic_branch_matches_scalar_decoder(data_bits, interleave, degree):
    code = ScrambledParityCode(data_bits, interleave, seed=data_bits + interleave)
    decoder = ParityVectorDecoder(code, degree)
    assert decoder._pattern == "generic"
    rng = np.random.default_rng(99)
    for p in (0.01, 0.1, 0.5):
        masks = (rng.random((40, decoder.row_bits)) < p).astype(np.uint8)
        faulty = decoder.decode(masks).faulty
        for t in range(masks.shape[0]):
            for s in range(degree):
                assert faulty[t, s] == _scalar_word_faulty(
                    code, masks[t], s, degree
                ), (t, s)


@pytest.mark.parametrize("data_bits,interleave,degree", [
    (64, 8, 4),
    (16, 5, 3),
])
def test_generic_branch_matches_packed_decoder(data_bits, interleave, degree):
    code = ScrambledParityCode(data_bits, interleave, seed=7)
    dense = ParityVectorDecoder(code, degree)
    packed = PackedDecoder(code, degree)
    assert dense._pattern == "generic"
    rng = np.random.default_rng(5)
    masks = (rng.random((200, dense.row_bits)) < 0.05).astype(np.uint8)
    faulty, residual = packed.decode(np.packbits(masks, axis=-1))
    slots = (faulty[:, None] >> np.arange(degree, dtype=np.uint64)) & np.uint64(1)
    assert np.array_equal(slots.astype(bool), dense.decode(masks).faulty)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.002, 0.01, 0.05]),
       two_d=st.booleans())
def test_generic_groups_kernel_verdicts_match_reference(seed, density, two_d):
    """Whole-block verdicts of the kernel vs the uint8 reference path,
    both decoding the scrambled group map."""
    code = ScrambledParityCode(32, 4, seed=seed % 97)
    degree = 2
    spec = EngineSpec(rows=16, data_bits=32, interleave_degree=degree,
                      horizontal_code="EDC4", vertical_groups=8 if two_d else None)
    rng = np.random.default_rng(seed)
    masks = (rng.random((24, spec.rows, spec.row_bits)) < density).astype(np.uint8)
    expected = run_recovery_batch(spec, masks, ParityVectorDecoder(code, degree))
    got = run_packed(spec, SparseRowBatch.from_masks(masks), PackedDecoder(code, degree))
    assert np.array_equal(got, expected)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    flips=st.lists(st.integers(0, 32 * 2 + 4 * 2 - 1), min_size=0, max_size=8),
)
def test_generic_branch_single_row_property(seed, flips):
    """Randomized group maps × randomized sparse flips vs the scalar path."""
    code = ScrambledParityCode(32, 4, seed=seed)
    degree = 2
    decoder = ParityVectorDecoder(code, degree)
    assert decoder._pattern == "generic"
    row = np.zeros(decoder.row_bits, dtype=np.uint8)
    for position in flips:
        row[position] ^= 1
    faulty = decoder.decode(row).faulty
    for s in range(degree):
        assert faulty[s] == _scalar_word_faulty(code, row, s, degree)
