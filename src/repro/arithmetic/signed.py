"""Wire-level number representations used by the arithmetic circuits.

The paper manipulates integers inside the circuit in two forms:

* a **binary number**: an explicit base-2 representation, one circuit node
  per bit (the output format of the Lemma 3.2 addition circuits);
* a **representation** (paper Section 3, before Lemma 3.3): an
  integer-weighted sum of binary circuit nodes ``x = sum_i w_i * x_i`` that
  is *not* required to be a base-2 expansion — the output format of the
  Lemma 3.3 product circuits.  Representations are only ever consumed as
  inputs to later threshold gates, which is exactly how the paper uses them.

Signed quantities are carried as a pair of nonnegative parts
``x = x_plus - x_minus`` (Section 3, "Negative numbers").

These classes are plain descriptions of wires + weights; they emit no gates
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Rep",
    "SignedValue",
    "BinaryNumber",
    "SignedBinaryNumber",
    "RepBank",
    "SignedValueBank",
]


@dataclass(frozen=True)
class Rep:
    """A nonnegative integer as a positively-weighted sum of 0/1 nodes.

    ``terms`` is a tuple of ``(node_id, weight)`` with strictly positive
    integer weights.  The represented value is ``sum(weight * value(node))``,
    which lies in ``[0, max_value]``.
    """

    terms: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for node, weight in self.terms:
            if weight <= 0:
                raise ValueError(
                    f"Rep weights must be positive integers, got {weight} on node {node}"
                )

    @staticmethod
    def from_terms(terms: Iterable[Tuple[int, int]]) -> "Rep":
        """Build a Rep, dropping zero-weight terms and merging duplicates."""
        merged = {}
        for node, weight in terms:
            if weight == 0:
                continue
            merged[node] = merged.get(node, 0) + int(weight)
        return Rep(tuple(sorted((n, w) for n, w in merged.items() if w != 0)))

    @staticmethod
    def zero() -> "Rep":
        """The empty representation (value 0)."""
        return Rep(())

    @property
    def max_value(self) -> int:
        """Upper bound on the represented value (all nodes equal to 1)."""
        return sum(w for _, w in self.terms)

    @property
    def is_zero(self) -> bool:
        """True when the representation is identically zero."""
        return not self.terms

    def scaled(self, factor: int) -> "Rep":
        """Multiply the represented value by a positive integer constant."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return Rep(tuple((n, w * factor) for n, w in self.terms))

    def value(self, node_values) -> int:
        """Evaluate the representation against concrete node values."""
        return sum(w * int(node_values[n]) for n, w in self.terms)


@dataclass(frozen=True)
class SignedValue:
    """A signed integer carried as a pair of representations ``pos - neg``."""

    pos: Rep = Rep()
    neg: Rep = Rep()

    @staticmethod
    def zero() -> "SignedValue":
        """The signed value 0."""
        return SignedValue(Rep.zero(), Rep.zero())

    @property
    def max_abs(self) -> int:
        """Upper bound on the absolute value."""
        return max(self.pos.max_value, self.neg.max_value)

    @property
    def is_zero(self) -> bool:
        """True when both parts are identically zero."""
        return self.pos.is_zero and self.neg.is_zero

    def negated(self) -> "SignedValue":
        """The signed value ``-x`` (swap the two parts; no gates needed)."""
        return SignedValue(self.neg, self.pos)

    def scaled(self, factor: int) -> "SignedValue":
        """Multiply by an integer constant (sign handled by swapping parts)."""
        if factor == 0:
            return SignedValue.zero()
        if factor > 0:
            return SignedValue(self.pos.scaled(factor), self.neg.scaled(factor))
        return SignedValue(self.neg.scaled(-factor), self.pos.scaled(-factor))

    def value(self, node_values) -> int:
        """Evaluate ``pos - neg`` against concrete node values."""
        return self.pos.value(node_values) - self.neg.value(node_values)


def _rep_unchecked(terms: Tuple[Tuple[int, int], ...]) -> "Rep":
    """Construct a Rep from known-canonical terms, skipping validation."""
    rep = object.__new__(Rep)
    object.__setattr__(rep, "terms", terms)
    return rep


def _binary_unchecked(
    positions: Tuple[int, ...], nodes: Tuple[int, ...], width: int
) -> "BinaryNumber":
    """Construct a BinaryNumber from known-valid parts, skipping validation."""
    number = object.__new__(BinaryNumber)
    object.__setattr__(number, "bit_positions", positions)
    object.__setattr__(number, "bit_nodes", nodes)
    object.__setattr__(number, "width", width)
    return number


@dataclass(frozen=True)
class BinaryNumber:
    """A nonnegative integer as an explicit binary expansion over nodes.

    ``bit_nodes[i]`` holds the node carrying the bit of weight
    ``2**bit_positions[i]``.  Bits that are known to be identically zero are
    simply omitted, so the two tuples only list *potentially nonzero* bits.
    ``width`` is the nominal bit-width (1 + highest position that could be
    present), recorded for bookkeeping.
    """

    bit_positions: Tuple[int, ...] = ()
    bit_nodes: Tuple[int, ...] = ()
    width: int = 0

    def __post_init__(self) -> None:
        if len(self.bit_positions) != len(self.bit_nodes):
            raise ValueError("bit_positions and bit_nodes must be aligned")
        if len(set(self.bit_positions)) != len(self.bit_positions):
            raise ValueError("duplicate bit positions in BinaryNumber")

    @staticmethod
    def zero() -> "BinaryNumber":
        """The number 0 (no bits)."""
        return BinaryNumber((), (), 0)

    @staticmethod
    def from_bits(bit_nodes: Sequence[int]) -> "BinaryNumber":
        """Binary number whose i-th listed node is the bit of weight 2**i."""
        nodes = tuple(int(n) for n in bit_nodes)
        return BinaryNumber(tuple(range(len(nodes))), nodes, len(nodes))

    @property
    def n_bits(self) -> int:
        """Number of potentially nonzero bits."""
        return len(self.bit_nodes)

    @property
    def max_value(self) -> int:
        """Upper bound on the value."""
        return sum(1 << p for p in self.bit_positions)

    def to_rep(self) -> Rep:
        """View the binary number as a representation (weights = powers of 2)."""
        return Rep.from_terms(
            (node, 1 << pos) for pos, node in zip(self.bit_positions, self.bit_nodes)
        )

    def value(self, node_values) -> int:
        """Evaluate against concrete node values."""
        return sum(
            (1 << pos) * int(node_values[node])
            for pos, node in zip(self.bit_positions, self.bit_nodes)
        )


@dataclass(frozen=True)
class SignedBinaryNumber:
    """A signed integer as a pair of binary numbers ``pos - neg``."""

    pos: BinaryNumber = BinaryNumber.zero()
    neg: BinaryNumber = BinaryNumber.zero()

    @staticmethod
    def zero() -> "SignedBinaryNumber":
        """The signed value 0."""
        return SignedBinaryNumber(BinaryNumber.zero(), BinaryNumber.zero())

    @staticmethod
    def from_input_bits(pos_bits: Sequence[int], neg_bits: Sequence[int]) -> "SignedBinaryNumber":
        """Wrap input wires carrying the two magnitude encodings."""
        return SignedBinaryNumber(
            BinaryNumber.from_bits(pos_bits), BinaryNumber.from_bits(neg_bits)
        )

    @property
    def max_abs(self) -> int:
        """Upper bound on the absolute value."""
        return max(self.pos.max_value, self.neg.max_value)

    def to_signed_value(self) -> SignedValue:
        """View as a :class:`SignedValue` (representation form)."""
        return SignedValue(self.pos.to_rep(), self.neg.to_rep())

    def negated(self) -> "SignedBinaryNumber":
        """The signed value ``-x``."""
        return SignedBinaryNumber(self.neg, self.pos)

    def value(self, node_values) -> int:
        """Evaluate ``pos - neg`` against concrete node values."""
        return self.pos.value(node_values) - self.neg.value(node_values)


# --------------------------------------------------------------------------- #
# Value banks: whole vectors of same-layout values as node-id matrices.
# --------------------------------------------------------------------------- #


class RepBank:
    """A batch of same-layout representations as one ``(k, m)`` node matrix.

    Row ``i`` holds the ``m`` node ids of value ``i``; the per-column weights
    are *shared* across the batch (that is what makes a bank: the values were
    produced by stamping one gadget template, or wrap one uniform input
    layout).  When the representations are binary expansions, ``positions``
    records the shared bit positions (then ``weights[j] == 2**positions[j]``)
    and ``width`` the nominal bit-width, so scalar views can materialize as
    :class:`BinaryNumber` parts.

    Invariant relied on by the banked emitters: each row's node ids are
    strictly increasing, so the scalar :class:`Rep` view ``tuple(zip(row,
    weights))`` is already canonical (sorted, duplicate-free) — exactly what
    ``Rep.from_terms`` would have produced.
    """

    __slots__ = ("nodes", "weights", "positions", "width", "_weights_arr")

    def __init__(
        self,
        nodes: np.ndarray,
        weights: Tuple[int, ...],
        positions: Optional[Tuple[int, ...]] = None,
        width: int = 0,
    ) -> None:
        self.nodes = nodes
        self.weights = tuple(weights)
        self.positions = tuple(positions) if positions is not None else None
        self.width = int(width)
        self._weights_arr: Optional[np.ndarray] = None

    @property
    def k(self) -> int:
        """Number of values in the bank."""
        return self.nodes.shape[0]

    @property
    def n_terms(self) -> int:
        """Number of terms (columns) per value."""
        return self.nodes.shape[1]

    @property
    def max_value(self) -> int:
        """Shared upper bound on every value in the bank."""
        return sum(self.weights)

    def weights_array(self) -> np.ndarray:
        """The shared weights as an array (int64, object beyond its range)."""
        if self._weights_arr is None:
            try:
                self._weights_arr = np.asarray(self.weights, dtype=np.int64)
            except OverflowError:
                arr = np.empty(len(self.weights), dtype=object)
                arr[:] = self.weights
                self._weights_arr = arr
        return self._weights_arr

    def rep(self, i: int) -> Rep:
        """Scalar :class:`Rep` view of row ``i``."""
        return _rep_unchecked(tuple(zip(self.nodes[i].tolist(), self.weights)))

    def binary(self, i: int) -> BinaryNumber:
        """Scalar :class:`BinaryNumber` view of row ``i`` (binary banks only)."""
        if self.positions is None:
            raise TypeError("bank does not carry a binary expansion layout")
        return _binary_unchecked(
            self.positions, tuple(self.nodes[i].tolist()), self.width
        )

    def gather(self, rows) -> "RepBank":
        """Bank over the selected rows (shared layout, gathered nodes)."""
        out = RepBank(self.nodes[rows], self.weights, self.positions, self.width)
        out._weights_arr = self._weights_arr
        return out

    def row_view(self, i: int) -> "RepBank":
        """Single-row bank sharing the underlying storage (no copy)."""
        out = RepBank(
            self.nodes[i : i + 1], self.weights, self.positions, self.width
        )
        out._weights_arr = self._weights_arr
        return out


class SignedValueBank:
    """A batch of signed values: one :class:`RepBank` per sign part.

    ``overrides`` maps row indices to scalar values (``SignedValue`` or
    ``SignedBinaryNumber``) for the rare rows that the template stamper had
    to emit directly with a *different* layout (duplicated parameters merge
    gates); those rows' entries in the node matrices are meaningless.
    Consumers either go through :meth:`signed_value` /
    :meth:`signed_binary` (override-aware) or require a clean bank.
    """

    __slots__ = ("pos", "neg", "overrides")

    def __init__(
        self,
        pos: RepBank,
        neg: RepBank,
        overrides: Optional[Dict[int, object]] = None,
    ) -> None:
        self.pos = pos
        self.neg = neg
        self.overrides = overrides or None

    @property
    def k(self) -> int:
        """Number of values in the bank."""
        return self.pos.k

    @property
    def is_binary(self) -> bool:
        """True when both parts carry binary-expansion layouts."""
        return self.pos.positions is not None and self.neg.positions is not None

    @property
    def max_abs(self) -> int:
        """Shared upper bound on the absolute value of every entry."""
        return max(self.pos.max_value, self.neg.max_value)

    def signed_value(self, i: int) -> SignedValue:
        """Scalar :class:`SignedValue` view of row ``i`` (override-aware)."""
        if self.overrides is not None:
            value = self.overrides.get(i)
            if value is not None:
                if isinstance(value, SignedBinaryNumber):
                    return value.to_signed_value()
                return value
        value = object.__new__(SignedValue)
        object.__setattr__(value, "pos", self.pos.rep(i))
        object.__setattr__(value, "neg", self.neg.rep(i))
        return value

    def signed_binary(self, i: int) -> SignedBinaryNumber:
        """Scalar :class:`SignedBinaryNumber` view of row ``i``."""
        if self.overrides is not None:
            value = self.overrides.get(i)
            if value is not None:
                if not isinstance(value, SignedBinaryNumber):
                    raise TypeError("override row does not hold a binary value")
                return value
        number = object.__new__(SignedBinaryNumber)
        object.__setattr__(number, "pos", self.pos.binary(i))
        object.__setattr__(number, "neg", self.neg.binary(i))
        return number

    def gather(self, rows) -> "SignedValueBank":
        """Bank over the selected rows; refuses to gather override rows."""
        if self.overrides is not None:
            rows_arr = np.asarray(rows)
            for i in self.overrides:
                if bool((rows_arr == i).any()):
                    raise ValueError(
                        "cannot gather override rows into a uniform bank"
                    )
        return SignedValueBank(self.pos.gather(rows), self.neg.gather(rows))

    def row(self, i: int) -> "SignedValueBank":
        """Single-row bank view (no copy); refuses override rows."""
        if self.overrides is not None and i in self.overrides:
            raise ValueError("cannot take a uniform view of an override row")
        return SignedValueBank(self.pos.row_view(i), self.neg.row_view(i))

    def row_any(self, i: int) -> "SignedValueBank":
        """Single-row view that carries an override along when present."""
        if self.overrides is not None and i in self.overrides:
            return SignedValueBank(
                self.pos.row_view(i),
                self.neg.row_view(i),
                {0: self.overrides[i]},
            )
        return SignedValueBank(self.pos.row_view(i), self.neg.row_view(i))

    @staticmethod
    def from_template(template, mapped: np.ndarray) -> "SignedValueBank":
        """Wrap a stamped template's remapped result ids as a bank.

        Like :meth:`from_template_result`, but the derived shared layout is
        cached on the template (``template.bank_meta``), so hot paths that
        stamp the same template thousands of times never rebuild the weights
        and positions tuples.
        """
        meta = template.bank_meta
        if meta is None:
            bank = SignedValueBank.from_template_result(template.result, mapped)
            template.bank_meta = (
                (bank.pos.weights, bank.pos.positions, bank.pos.width),
                (bank.neg.weights, bank.neg.positions, bank.neg.width),
            )
            return bank
        (pos_w, pos_p, pos_width), (neg_w, neg_p, neg_width) = meta
        n_pos = len(pos_w)
        return SignedValueBank(
            RepBank(mapped[:, :n_pos], pos_w, pos_p, pos_width),
            RepBank(mapped[:, n_pos:], neg_w, neg_p, neg_width),
        )

    @staticmethod
    def from_template_result(result, mapped: np.ndarray) -> "SignedValueBank":
        """Wrap a stamped template's remapped result ids as a bank.

        ``mapped`` is the ``(k, n_result_ids)`` matrix from the stamper; its
        column order follows the template result walk (positive part's nodes
        first, then the negative part's), which is exactly how the recorded
        ``SignedBinaryNumber`` / ``SignedValue`` results are laid out.
        """
        if isinstance(result, SignedBinaryNumber):
            n_pos = len(result.pos.bit_nodes)
            pos = RepBank(
                mapped[:, :n_pos],
                tuple(1 << p for p in result.pos.bit_positions),
                result.pos.bit_positions,
                result.pos.width,
            )
            neg = RepBank(
                mapped[:, n_pos:],
                tuple(1 << p for p in result.neg.bit_positions),
                result.neg.bit_positions,
                result.neg.width,
            )
            return SignedValueBank(pos, neg)
        if isinstance(result, SignedValue):
            n_pos = len(result.pos.terms)
            pos = RepBank(
                mapped[:, :n_pos], tuple(w for _, w in result.pos.terms)
            )
            neg = RepBank(
                mapped[:, n_pos:], tuple(w for _, w in result.neg.terms)
            )
            return SignedValueBank(pos, neg)
        raise TypeError(f"cannot bank a template result of type {type(result)!r}")

    @staticmethod
    def from_scalars(values: Sequence[object]) -> "SignedValueBank":
        """Bank a list of directly emitted scalar values.

        Rows whose layout matches the first value's are packed into the node
        matrices; any non-conforming row becomes an override.  Supports
        homogeneous lists of :class:`SignedBinaryNumber` (binary layout kept)
        or :class:`SignedValue`.
        """
        if not values:
            raise ValueError("cannot bank an empty value list")
        first = values[0]
        overrides: Dict[int, object] = {}
        k = len(values)
        if isinstance(first, SignedBinaryNumber):
            pos_layout = (first.pos.bit_positions, first.pos.width)
            neg_layout = (first.neg.bit_positions, first.neg.width)
            pos_nodes = np.zeros((k, len(first.pos.bit_nodes)), dtype=np.int64)
            neg_nodes = np.zeros((k, len(first.neg.bit_nodes)), dtype=np.int64)
            for i, value in enumerate(values):
                if (
                    isinstance(value, SignedBinaryNumber)
                    and (value.pos.bit_positions, value.pos.width) == pos_layout
                    and (value.neg.bit_positions, value.neg.width) == neg_layout
                ):
                    pos_nodes[i] = value.pos.bit_nodes
                    neg_nodes[i] = value.neg.bit_nodes
                else:
                    overrides[i] = value
            pos = RepBank(
                pos_nodes,
                tuple(1 << p for p in first.pos.bit_positions),
                first.pos.bit_positions,
                first.pos.width,
            )
            neg = RepBank(
                neg_nodes,
                tuple(1 << p for p in first.neg.bit_positions),
                first.neg.bit_positions,
                first.neg.width,
            )
            return SignedValueBank(pos, neg, overrides)
        if isinstance(first, SignedValue):
            pos_weights = tuple(w for _, w in first.pos.terms)
            neg_weights = tuple(w for _, w in first.neg.terms)
            pos_nodes = np.zeros((k, len(pos_weights)), dtype=np.int64)
            neg_nodes = np.zeros((k, len(neg_weights)), dtype=np.int64)
            for i, value in enumerate(values):
                if (
                    isinstance(value, SignedValue)
                    and tuple(w for _, w in value.pos.terms) == pos_weights
                    and tuple(w for _, w in value.neg.terms) == neg_weights
                ):
                    if pos_weights:
                        pos_nodes[i] = [n for n, _ in value.pos.terms]
                    if neg_weights:
                        neg_nodes[i] = [n for n, _ in value.neg.terms]
                else:
                    overrides[i] = value
            return SignedValueBank(
                RepBank(pos_nodes, pos_weights),
                RepBank(neg_nodes, neg_weights),
                overrides,
            )
        raise TypeError(f"cannot bank scalar values of type {type(first)!r}")
