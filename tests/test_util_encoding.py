"""Tests for repro.util.encoding — the matrix-to-wire codecs."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.encoding import (
    MatrixEncoding,
    decode_integer,
    encode_integer,
    stack_matrices,
)

#: Bit widths of the differential tests: the int64 lane, and one width past
#: int64 (62 bits) that runs on Python ints.
WIDTHS = [1, 2, 3, 4, 70]


def per_entry_encoding(matrix, bit_width):
    """The reference: :func:`encode_integer` entry by entry, matrix by matrix."""
    matrix = np.asarray(matrix, dtype=object)
    if matrix.ndim == 3:
        columns = [per_entry_encoding(m, bit_width) for m in matrix]
        wires = matrix.shape[-1] ** 2 * 2 * bit_width
        return np.array(columns, dtype=np.int8).reshape(len(columns), wires).T
    bits = [b for value in matrix.flat for b in encode_integer(int(value), bit_width)]
    return np.array(bits, dtype=np.int8)


@st.composite
def codec_cases(draw):
    """(bit_width, matrix or stack as Python ints, dtype it fits exactly)."""
    bit_width = draw(st.sampled_from(WIDTHS))
    n = draw(st.integers(1, 3))
    batch = draw(st.none() | st.integers(0, 3))
    high = (1 << bit_width) - 1
    shape = (n, n) if batch is None else (batch, n, n)
    size = int(np.prod(shape))
    entries = st.integers(-high, high) | st.sampled_from([-high, 0, high])
    values = np.array(
        draw(st.lists(entries, min_size=size, max_size=size)), dtype=object
    ).reshape(shape)
    dtypes = [object]
    if size == 0 or max(abs(int(v)) for v in values.flat) < 1 << 63:
        dtypes.append(np.int64)
    if bit_width <= 4:
        dtypes.append(np.int8)
    if all(v in (0, 1) for v in values.flat):
        dtypes.append(bool)
    return bit_width, values, draw(st.sampled_from(dtypes))


class TestIntegerCodec:
    def test_positive_value(self):
        assert encode_integer(5, 3) == [1, 0, 1, 0, 0, 0]

    def test_negative_value(self):
        assert encode_integer(-5, 3) == [0, 0, 0, 1, 0, 1]

    def test_zero(self):
        assert encode_integer(0, 2) == [0, 0, 0, 0]

    def test_overflow_raises(self):
        with pytest.raises(ValueError):
            encode_integer(8, 3)

    def test_decode_length_check(self):
        with pytest.raises(ValueError):
            decode_integer([0, 1], 3)

    @given(st.integers(min_value=-255, max_value=255))
    def test_roundtrip(self, value):
        assert decode_integer(encode_integer(value, 8), 8) == value


class TestMatrixEncoding:
    def test_wire_layout_is_disjoint_and_complete(self):
        enc = MatrixEncoding(n=3, bit_width=2, offset=10)
        wires = []
        for i in range(3):
            for j in range(3):
                pos, neg = enc.entry_wires(i, j)
                wires.extend(pos + neg)
        assert len(wires) == len(set(wires)) == enc.total_wires
        assert min(wires) == 10
        assert max(wires) == 10 + enc.total_wires - 1

    def test_out_of_range_entry(self):
        enc = MatrixEncoding(n=2, bit_width=1)
        with pytest.raises(IndexError):
            enc.entry_wires(2, 0)

    def test_encode_decode_roundtrip(self, rng):
        enc = MatrixEncoding(n=4, bit_width=3)
        matrix = rng.integers(-7, 8, (4, 4))
        decoded = enc.decode(enc.encode(matrix))
        assert (decoded == matrix).all()

    def test_encode_shape_mismatch(self):
        enc = MatrixEncoding(n=2, bit_width=1)
        with pytest.raises(ValueError):
            enc.encode(np.zeros((3, 3)))

    def test_encode_rejects_wide_entries(self):
        enc = MatrixEncoding(n=2, bit_width=2)
        with pytest.raises(ValueError):
            enc.encode(np.full((2, 2), 4))

    def test_total_wires(self):
        enc = MatrixEncoding(n=5, bit_width=3)
        assert enc.total_wires == 5 * 5 * 6
        assert enc.wires_per_entry == 6


class TestArrayCodec:
    """The array encode/decode against the per-entry integer codec."""

    @given(codec_cases(), st.integers(0, 50))
    def test_array_encode_matches_per_entry(self, case, offset):
        bit_width, values, dtype = case
        enc = MatrixEncoding(n=values.shape[-1], bit_width=bit_width, offset=offset)
        encoded = enc.encode(values.astype(dtype))
        expected = per_entry_encoding(values, bit_width)
        assert encoded.dtype == np.int8
        assert encoded.shape == expected.shape
        assert np.array_equal(encoded, expected)
        decoded = enc.decode(encoded)
        assert decoded.shape == values.shape
        assert all(type(v) is int for v in decoded.flat)
        assert (decoded == values).all()

    @pytest.mark.parametrize("bit_width", WIDTHS + [62, 63])
    @pytest.mark.parametrize("dtype", [object, np.int64])
    def test_width_edges(self, bit_width, dtype):
        enc = MatrixEncoding(n=1, bit_width=bit_width)
        high = (1 << bit_width) - 1

        def representable(value):
            return dtype is object or -(1 << 63) <= value < 1 << 63

        for value in filter(representable, (high, -high)):
            matrix = np.array([[value]], dtype=dtype)
            assert np.array_equal(enc.encode(matrix), per_entry_encoding(matrix, bit_width))
        for value in filter(representable, (high + 1, -high - 1)):
            with pytest.raises(ValueError, match="does not fit"):
                enc.encode(np.array([[value]], dtype=dtype))

    def test_python_int_beyond_int64_raises_value_error(self):
        enc = MatrixEncoding(n=2, bit_width=3)
        matrix = np.array([[1, 0], [0, 1 << 70]], dtype=object)
        with pytest.raises(ValueError, match=r"entry \(1, 1\)"):
            enc.encode(matrix)

    @pytest.mark.parametrize("bad", [0.5, -0.9, np.nan, np.inf, -np.inf])
    def test_non_integral_entries_rejected(self, bad):
        enc = MatrixEncoding(n=2, bit_width=1)
        matrix = np.zeros((2, 2))
        matrix[1, 0] = bad
        with pytest.raises(ValueError, match=r"entry \(1, 0\) = .* is not an integer"):
            enc.encode(matrix)
        stack = np.zeros((3, 2, 2), dtype=object)
        stack[2, 0, 1] = float(bad)
        with pytest.raises(ValueError, match=r"entry \(2, 0, 1\)"):
            enc.encode(stack)

    def test_integral_floats_and_bools_accepted(self):
        enc = MatrixEncoding(n=2, bit_width=1)
        ints = np.array([[1, -1], [0, 1]])
        assert np.array_equal(enc.encode(ints.astype(float)), enc.encode(ints))
        mask = np.array([[True, False], [False, True]])
        assert np.array_equal(enc.encode(mask), enc.encode(mask.astype(int)))

    def test_stack_keeps_mixed_integer_and_float_batches_exact(self):
        big = np.array([[(1 << 60) + 1]], dtype=np.int64)
        stack = stack_matrices([big, np.array([[1.0]])], n=1)
        assert stack[0, 0, 0] == (1 << 60) + 1
        enc = MatrixEncoding(n=1, bit_width=61)
        assert np.array_equal(
            enc.encode(stack), per_entry_encoding([[[(1 << 60) + 1]], [[1]]], 61)
        )

    def test_empty_stack(self):
        enc = MatrixEncoding(n=2, bit_width=2)
        block = enc.encode(stack_matrices([], n=2))
        assert block.shape == (enc.total_wires, 0)
        assert enc.decode(block).shape == (0, 2, 2)
