"""Value banks: array-native Rep/SignedValue interfaces between stages.

Covers the bank containers themselves (scalar views, gathers, overrides),
the banked gadget emitters' wire-for-wire equality with the grouping
emitters, and the CountingBuilder regressions that rode along (depths of a
reused source list, bulk protocol).
"""

import numpy as np
import pytest

from repro.arithmetic.product import build_signed_product_banks, build_signed_products
from repro.arithmetic.signed import (
    BinaryNumber,
    Rep,
    RepBank,
    SignedBinaryNumber,
    SignedValue,
    SignedValueBank,
)
from repro.arithmetic.weighted_sum import build_signed_sum_banks, build_signed_sums
from repro.circuits.builder import CircuitBuilder
from repro.circuits.counting import CountingBuilder
from repro.core.leaf_builder import matrix_of_input_banks
from repro.core.naive_circuits import build_naive_matmul_circuit
from repro.util.encoding import MatrixEncoding


# --------------------------------------------------------------------------- #
# Bank containers.
# --------------------------------------------------------------------------- #


class TestBanks:
    def test_rep_bank_scalar_views(self):
        bank = RepBank(
            np.asarray([[2, 5], [3, 7]], dtype=np.int64),
            (1, 2),
            positions=(0, 1),
            width=2,
        )
        assert bank.k == 2 and bank.n_terms == 2
        assert bank.max_value == 3
        assert bank.rep(0) == Rep(((2, 1), (5, 2)))
        number = bank.binary(1)
        assert isinstance(number, BinaryNumber)
        assert number.bit_nodes == (3, 7) and number.bit_positions == (0, 1)
        assert number.width == 2

    def test_signed_bank_matches_scalar_values(self):
        pos = RepBank(np.asarray([[1, 4]], dtype=np.int64), (1, 2), (0, 1), 2)
        neg = RepBank(np.asarray([[6]], dtype=np.int64), (1,), (0,), 1)
        bank = SignedValueBank(pos, neg)
        value = bank.signed_value(0)
        assert value == SignedValue(Rep(((1, 1), (4, 2))), Rep(((6, 1),)))
        number = bank.signed_binary(0)
        assert number.pos.bit_nodes == (1, 4) and number.neg.bit_nodes == (6,)

    def test_gather_and_rows(self):
        pos = RepBank(np.arange(6, dtype=np.int64).reshape(3, 2), (1, 2))
        bank = SignedValueBank(pos, RepBank(np.zeros((3, 0), dtype=np.int64), ()))
        sub = bank.gather(np.asarray([2, 0]))
        assert sub.k == 2
        assert sub.pos.nodes.tolist() == [[4, 5], [0, 1]]
        row = bank.row(1)
        assert row.k == 1 and row.pos.nodes.tolist() == [[2, 3]]

    def test_override_rows_are_guarded(self):
        pos = RepBank(np.zeros((2, 1), dtype=np.int64), (1,))
        bank = SignedValueBank(
            pos,
            RepBank(np.zeros((2, 0), dtype=np.int64), ()),
            overrides={1: SignedValue(Rep(((9, 3),)), Rep())},
        )
        assert bank.signed_value(1) == SignedValue(Rep(((9, 3),)), Rep())
        with pytest.raises(ValueError):
            bank.row(1)
        with pytest.raises(ValueError):
            bank.gather(np.asarray([0, 1]))
        carried = bank.row_any(1)
        assert carried.signed_value(0) == SignedValue(Rep(((9, 3),)), Rep())

    def test_from_scalars_roundtrip(self):
        values = [
            SignedBinaryNumber.from_input_bits([0, 1], [2]),
            SignedBinaryNumber.from_input_bits([3, 4], [5]),
        ]
        bank = SignedValueBank.from_scalars(values)
        assert bank.overrides is None
        for i, value in enumerate(values):
            assert bank.signed_binary(i) == value

    def test_input_bank_matches_scalar_matrix(self):
        encoding = MatrixEncoding(3, 2, offset=5)
        bank = matrix_of_input_banks(encoding)
        transposed = matrix_of_input_banks(encoding, transpose=True)
        for i in range(3):
            for j in range(3):
                entry = SignedBinaryNumber.from_input_bits(*encoding.entry_wires(i, j))
                assert bank.signed_binary(i * 3 + j) == entry
                assert transposed.signed_binary(j * 3 + i) == entry


# --------------------------------------------------------------------------- #
# Banked emitters vs the scalar paths (same builder semantics, same wires).
# --------------------------------------------------------------------------- #


def _input_bank(builder, count, bits):
    wires = builder.allocate_inputs(count * 2 * bits, "x")
    encoding = MatrixEncoding(1, bits, offset=wires[0])
    base = wires[0] + np.arange(count, dtype=np.int64)[:, None] * 2 * bits
    bit = np.arange(bits, dtype=np.int64)[None, :]
    positions = tuple(range(bits))
    weights = tuple(1 << b for b in range(bits))
    return SignedValueBank(
        RepBank(base + bit, weights, positions, bits),
        RepBank(base + bits + bit, weights, positions, bits),
    )


class TestBankedEmitters:
    def test_banked_sums_equal_scalar_sums(self):
        banked = CircuitBuilder(name="banked")
        scalar = CircuitBuilder(name="scalar")
        bank = _input_bank(banked, 6, 2)
        bank_s = _input_bank(scalar, 6, 2)
        rows = np.asarray([[0, 2], [1, 3], [4, 5]], dtype=np.int64)
        result = build_signed_sum_banks(
            banked,
            [(bank, rows[:, 0], 2), (bank, rows[:, 1], -1)],
            tag="t",
        )
        items_list = [
            [(bank_s.signed_value(int(rows[i, 0])), 2), (bank_s.signed_value(int(rows[i, 1])), -1)]
            for i in range(3)
        ]
        expected = build_signed_sums(scalar, items_list, tag="t")
        assert banked.build().structural_hash() == scalar.build().structural_hash()
        for i in range(3):
            assert result.signed_binary(i) == expected[i]

    def test_spread_rows_equal_term_lists(self):
        banked = CircuitBuilder(name="banked")
        scalar = CircuitBuilder(name="scalar")
        bank = _input_bank(banked, 4, 1)
        bank_s = _input_bank(scalar, 4, 1)
        spread = np.arange(4, dtype=np.int64)[None, :]
        result = build_signed_sum_banks(banked, [(bank, spread, 1)], tag="t")
        expected = build_signed_sums(
            scalar,
            [[(bank_s.signed_value(i), 1) for i in range(4)]],
            tag="t",
        )
        assert banked.build().structural_hash() == scalar.build().structural_hash()
        assert result.signed_binary(0) == expected[0]

    def test_banked_products_equal_scalar_products(self):
        banked = CircuitBuilder(name="banked")
        scalar = CircuitBuilder(name="scalar")
        bank = _input_bank(banked, 4, 2)
        bank_s = _input_bank(scalar, 4, 2)
        left = bank.gather(np.asarray([0, 1]))
        right = bank.gather(np.asarray([2, 3]))
        result = build_signed_product_banks(banked, [left, right], tag="p")
        expected = build_signed_products(
            scalar,
            [
                [bank_s.signed_binary(0), bank_s.signed_binary(2)],
                [bank_s.signed_binary(1), bank_s.signed_binary(3)],
            ],
            tag="p",
        )
        assert banked.build().structural_hash() == scalar.build().structural_hash()
        for i in range(2):
            assert result.signed_value(i) == expected[i]

    def test_duplicate_factor_rows_become_overrides(self):
        banked = CircuitBuilder(name="banked")
        scalar = CircuitBuilder(name="scalar")
        bank = _input_bank(banked, 3, 1)
        bank_s = _input_bank(scalar, 3, 1)
        # Row 1 multiplies a value by itself: duplicated parameters.
        left = bank.gather(np.asarray([0, 2, 1]))
        right = bank.gather(np.asarray([1, 2, 0]))
        result = build_signed_product_banks(banked, [left, right], tag="p")
        expected = build_signed_products(
            scalar,
            [
                [bank_s.signed_binary(0), bank_s.signed_binary(1)],
                [bank_s.signed_binary(2), bank_s.signed_binary(2)],
                [bank_s.signed_binary(1), bank_s.signed_binary(0)],
            ],
            tag="p",
        )
        assert banked.build().structural_hash() == scalar.build().structural_hash()
        for i in range(3):
            assert result.signed_value(i) == expected[i]


# --------------------------------------------------------------------------- #
# End-to-end: the banked pipeline computes the product.
# --------------------------------------------------------------------------- #


class TestBankedPipelines:
    def test_banked_matmul_evaluates(self, rng):
        built = build_naive_matmul_circuit(3)
        hi = 2 ** built.bit_width
        a = rng.integers(-hi + 1, hi, size=(3, 3))
        b = rng.integers(-hi + 1, hi, size=(3, 3))
        assert (built.evaluate(a, b) == built.reference(a, b)).all()


# --------------------------------------------------------------------------- #
# CountingBuilder regressions.
# --------------------------------------------------------------------------- #


class TestCountingBuilder:
    def test_depth_memo_survives_source_list_mutation(self):
        """Regression: depths stay right when a caller appends to (and
        reuses) the same source list between gates."""
        counting = CountingBuilder(name="memo")
        inputs = counting.allocate_inputs(2)
        shared = [inputs[0]]
        first = counting.add_gate(shared, [1], 1)  # depth 1
        deep = counting.add_gate([first], [1], 1)  # depth 2
        shared.append(deep)  # same list object, now one entry deeper
        counting.add_gate(shared, [1, 1], 1)
        assert counting.depth == 3

    def test_bulk_add_gates_matches_real_builder(self):
        counting = CountingBuilder(name="bulk")
        real = CircuitBuilder(name="bulk")
        for b in (counting, real):
            b.allocate_inputs(4)
        sources = np.asarray([0, 1, 2, 3, 4, 5, 1, 1], dtype=np.int64)
        offsets = np.asarray([0, 2, 4, 6, 8], dtype=np.int64)
        weights = np.ones(8, dtype=np.int64)
        thresholds = np.asarray([1, 2, 1, 1], dtype=np.int64)
        counting.add_gates(sources, offsets, weights, thresholds, tag="t")
        real.add_gates(sources, offsets, weights, thresholds, tag="t")
        circuit = real.build()
        assert counting.size == circuit.size
        assert counting.depth == circuit.depth
        assert counting.edges == circuit.edges  # incl. the merged dup row
        assert counting.max_fan_in == circuit.max_fan_in
        assert counting.tag_counts() == {"t": 4}
