"""Encoding of integer matrices onto circuit input wires.

Circuit inputs are single bits.  A signed integer entry ``x`` with magnitude
below ``2**bit_width`` occupies ``2 * bit_width`` input wires: ``bit_width``
bits for the positive part ``x+`` and ``bit_width`` bits for the negative
part ``x-`` (paper Section 3, "Negative numbers").  :class:`MatrixEncoding`
fixes the wire layout for a whole matrix and converts between integer
matrices and flat 0/1 input vectors understood by the simulator.

The layout is row-major over entries; within an entry the positive bits come
first (LSB first), then the negative bits (LSB first).

:meth:`MatrixEncoding.encode` and :meth:`MatrixEncoding.decode` convert a
whole matrix, or a stack of matrices, in one array pass; they produce
exactly the bits of :func:`encode_integer` / :func:`decode_integer` applied
entry by entry, which stay as the scalar reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.util.bits import bits, signed_split, to_binary

__all__ = ["MatrixEncoding", "encode_integer", "decode_integer", "stack_matrices"]

#: Widest magnitude the int64 lane encodes: ``|x| < 2**62`` keeps ``-x`` and
#: every bound check inside int64.  Wider encodings run on Python ints.
_INT64_BIT_WIDTH = 62


def encode_integer(x: int, bit_width: int) -> List[int]:
    """Encode a signed integer as ``2 * bit_width`` bits (pos LSB.., neg LSB..)."""
    pos, neg = signed_split(int(x))
    if bits(pos) > bit_width or bits(neg) > bit_width:
        raise ValueError(f"{x} does not fit in a signed {bit_width}-bit encoding")
    return to_binary(pos, bit_width) + to_binary(neg, bit_width)


def decode_integer(bit_values, bit_width: int) -> int:
    """Inverse of :func:`encode_integer`."""
    if len(bit_values) != 2 * bit_width:
        raise ValueError(
            f"expected {2 * bit_width} bits, got {len(bit_values)}"
        )
    pos = sum(int(b) << i for i, b in enumerate(bit_values[:bit_width]))
    neg = sum(int(b) << i for i, b in enumerate(bit_values[bit_width:]))
    return pos - neg


def _exact_int(value):
    """``int(value)`` when ``value`` is an integral number, else None.

    NaN, infinities, non-integral numbers and non-numbers (strings, None,
    complex) all map to None.
    """
    try:
        integer = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return integer if integer == value else None


_EXACT_INTS = np.frompyfunc(_exact_int, 1, 1)


def _first_entry(mask: np.ndarray) -> Tuple[int, ...]:
    return tuple(int(i) for i in np.argwhere(mask)[0])


def stack_matrices(matrices, n: int) -> np.ndarray:
    """Stack ``n x n`` matrices into one ``(batch, n, n)`` block for encoding.

    The block takes the matrices' common dtype, except that a mix of integer
    and float matrices stacks as Python ints: promoting to float64 would
    round integers beyond ``2**53``.  No matrices give a ``(0, n, n)`` block.
    """
    arrays = [np.asarray(matrix) for matrix in matrices]
    if not arrays:
        return np.zeros((0, n, n), dtype=np.int64)
    dtype = np.result_type(*{array.dtype for array in arrays})
    if dtype.kind == "f" and any(array.dtype.kind in "iu" for array in arrays):
        dtype = np.dtype(object)
    return np.stack(arrays, dtype=dtype)


@dataclass(frozen=True)
class MatrixEncoding:
    """Fixed wire layout for an ``n x n`` signed integer matrix.

    Parameters
    ----------
    n:
        Matrix dimension.
    bit_width:
        Number of magnitude bits per signed part.  Entries must satisfy
        ``|entry| < 2**bit_width``.
    offset:
        Index of the first wire used by this matrix (several matrices can
        share one input space, e.g. A and B for the product circuit).
    """

    n: int
    bit_width: int
    offset: int = 0

    @property
    def wires_per_entry(self) -> int:
        """Number of input wires per matrix entry (positive + negative bits)."""
        return 2 * self.bit_width

    @property
    def total_wires(self) -> int:
        """Total number of input wires occupied by the matrix."""
        return self.n * self.n * self.wires_per_entry

    def entry_wires(self, i: int, j: int) -> Tuple[List[int], List[int]]:
        """Return ``(positive_bit_wires, negative_bit_wires)`` for entry (i, j)."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"entry ({i}, {j}) out of range for an {self.n}x{self.n} matrix")
        base = self.offset + (i * self.n + j) * self.wires_per_entry
        pos = list(range(base, base + self.bit_width))
        neg = list(range(base + self.bit_width, base + 2 * self.bit_width))
        return pos, neg

    def _entry_values(self, matrix) -> np.ndarray:
        """Checked entries of an ``(n, n)`` matrix or ``(batch, n, n)`` stack.

        Returns int64 when ``bit_width`` allows, else Python ints.  Raises
        ValueError naming the first entry that is not an integer (a
        non-integral, NaN or infinite float, or a non-number) or that does
        not fit in ``bit_width`` magnitude bits.
        """
        arr = np.asarray(matrix)
        if arr.ndim not in (2, 3) or arr.shape[-2:] != (self.n, self.n):
            raise ValueError(
                f"expected a {self.n}x{self.n} matrix or a (batch, {self.n}, {self.n}) "
                f"stack, got shape {arr.shape}"
            )
        exact = self.bit_width > _INT64_BIT_WIDTH
        if arr.dtype.kind in "biu" and not exact:
            values, integral = arr, None
        elif arr.dtype.kind == "f" and not exact:
            with np.errstate(invalid="ignore"):
                values, integral = arr, np.isfinite(arr) & (arr == np.round(arr))
        else:
            # Python ints: object input, or a width int64 cannot hold.
            with np.errstate(invalid="ignore"):
                values = _EXACT_INTS(arr)
            integral = values != None  # noqa: E711 (elementwise)
        if integral is not None and not integral.all():
            index = _first_entry(~integral)
            raise ValueError(f"entry {index} = {arr.item(index)!r} is not an integer")
        limit = 1 << self.bit_width
        fits = (values < limit) & (values > -limit)
        if not fits.all():
            index = _first_entry(~fits)
            raise ValueError(
                f"entry {index} = {arr.item(index)!r} does not fit in a signed "
                f"{self.bit_width}-bit encoding"
            )
        return values.astype(object if exact else np.int64)

    def encode(self, matrix) -> np.ndarray:
        """Encode integer entries as 0/1 wire values, in one array pass.

        An ``(n, n)`` matrix gives a ``(total_wires,)`` vector; a
        ``(batch, n, n)`` stack gives a ``(total_wires, batch)`` block whose
        column ``k`` encodes ``matrix[k]``.  Both are int8 and carry exactly
        the bits :func:`encode_integer` gives each entry.  Integral floats and
        bools are accepted; other entries raise ValueError (see
        :meth:`_entry_values`).
        """
        values = self._entry_values(matrix)
        shifts = np.arange(self.bit_width)
        if values.dtype == object:
            shifts = shifts.astype(object)
        # (..., n, n, 2): the positive and negative magnitude of every entry.
        parts = np.stack([np.maximum(values, 0), np.maximum(-values, 0)], axis=-1)
        wires = (parts[..., None] >> shifts) & 1
        if values.ndim == 2:
            return wires.reshape(self.total_wires).astype(np.int8)
        return wires.reshape(len(values), self.total_wires).T.astype(np.int8, order="C")

    def decode(self, values: np.ndarray) -> np.ndarray:
        """Decode wire values back to exact integers (Python ints).

        A ``(total_wires,)`` vector gives an ``(n, n)`` object array; a
        ``(total_wires, batch)`` block gives a ``(batch, n, n)`` one, the
        inverse of :meth:`encode` on either shape.
        """
        values = np.asarray(values)
        if values.ndim not in (1, 2) or values.shape[0] != self.total_wires:
            raise ValueError(
                f"expected {self.total_wires} wire values, got shape {values.shape}"
            )
        wires = values.T.astype(np.int64).astype(object).reshape(
            values.shape[1:] + (self.n, self.n, 2, self.bit_width)
        )
        weights = np.array([1 << i for i in range(self.bit_width)], dtype=object)
        parts = (wires * weights).sum(axis=-1)
        return parts[..., 0] - parts[..., 1]
