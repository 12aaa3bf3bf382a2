"""Tests for Lemma 3.3: depth-1 product representations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arithmetic.product import (
    build_signed_product,
    build_unsigned_product_rep,
    count_signed_product,
    count_unsigned_product_rep,
)
from repro.arithmetic.signed import BinaryNumber, SignedBinaryNumber
from repro.circuits.builder import CircuitBuilder
from repro.circuits.simulator import simulate
from repro.util.encoding import encode_integer


def unsigned_inputs(builder, values, bit_width):
    wires = builder.allocate_inputs(len(values) * bit_width)
    handles, assignment = [], np.zeros(len(wires), dtype=np.int8)
    for index, value in enumerate(values):
        chunk = wires[index * bit_width : (index + 1) * bit_width]
        handles.append(BinaryNumber.from_bits(chunk))
        for offset in range(bit_width):
            assignment[index * bit_width + offset] = (value >> offset) & 1
    return handles, assignment


def signed_number_inputs(builder, values, bit_width):
    wires = builder.allocate_inputs(len(values) * 2 * bit_width)
    handles, assignment = [], np.zeros(len(wires), dtype=np.int8)
    for index, value in enumerate(values):
        base = index * 2 * bit_width
        pos = wires[base : base + bit_width]
        neg = wires[base + bit_width : base + 2 * bit_width]
        handles.append(SignedBinaryNumber.from_input_bits(pos, neg))
        assignment[base : base + 2 * bit_width] = encode_integer(value, bit_width)
    return handles, assignment


class TestUnsignedProduct:
    def test_two_factor_exhaustive(self):
        for x in range(8):
            for y in range(8):
                builder = CircuitBuilder()
                handles, assignment = unsigned_inputs(builder, [x, y], 3)
                rep = build_unsigned_product_rep(builder, handles)
                circuit = builder.build()
                if circuit.size == 0:
                    assert x * y == 0 or len(handles) == 1
                node_values = simulate(circuit, assignment).node_values
                assert rep.value(node_values) == x * y

    def test_three_factor_cases(self, rng):
        for _ in range(15):
            x, y, z = (int(v) for v in rng.integers(0, 8, size=3))
            builder = CircuitBuilder()
            handles, assignment = unsigned_inputs(builder, [x, y, z], 3)
            rep = build_unsigned_product_rep(builder, handles)
            node_values = simulate(builder.build(), assignment).node_values
            assert rep.value(node_values) == x * y * z

    def test_gate_count_is_product_of_bit_counts(self):
        # Lemma 3.3: m^3 gates for three m-bit factors.
        builder = CircuitBuilder()
        handles, _ = unsigned_inputs(builder, [7, 7, 7], 3)
        build_unsigned_product_rep(builder, handles)
        assert builder.size == 27
        assert count_unsigned_product_rep([3, 3, 3]) == 27

    def test_depth_is_one(self):
        builder = CircuitBuilder()
        handles, _ = unsigned_inputs(builder, [3, 3], 2)
        build_unsigned_product_rep(builder, handles)
        assert builder.build().depth == 1

    def test_single_factor_needs_no_gates(self):
        builder = CircuitBuilder()
        handles, assignment = unsigned_inputs(builder, [5], 3)
        rep = build_unsigned_product_rep(builder, handles)
        assert builder.size == 0
        assert rep.value({w: int(v) for w, v in enumerate(assignment)}) == 5

    def test_zero_factor_short_circuits(self):
        builder = CircuitBuilder()
        handles, _ = unsigned_inputs(builder, [3], 2)
        rep = build_unsigned_product_rep(builder, handles + [BinaryNumber.zero()])
        assert rep.is_zero
        assert builder.size == 0
        assert count_unsigned_product_rep([2, 0]) == 0

    def test_empty_factor_list_rejected(self):
        with pytest.raises(ValueError):
            build_unsigned_product_rep(CircuitBuilder(), [])
        with pytest.raises(ValueError):
            count_unsigned_product_rep([])


class TestSignedProduct:
    @pytest.mark.parametrize(
        "values", [(3, -2), (-3, -2), (0, 5), (-7, 7), (3, 2, -1), (-1, -1, -1), (0, -4, 6)]
    )
    def test_signed_products(self, values):
        builder = CircuitBuilder()
        handles, assignment = signed_number_inputs(builder, list(values), 3)
        result = build_signed_product(builder, handles)
        circuit = builder.build()
        expected = 1
        for v in values:
            expected *= v
        if circuit.size == 0:
            assert result.value({w: int(v) for w, v in enumerate(assignment)}) == expected
            return
        node_values = simulate(circuit, assignment).node_values
        assert result.value(node_values) == expected

    def test_count_matches_build(self):
        builder = CircuitBuilder()
        handles, _ = signed_number_inputs(builder, [5, -3, 2], 3)
        build_signed_product(builder, handles)
        assert builder.size == count_signed_product(handles)

    def test_depth_is_one(self):
        builder = CircuitBuilder()
        handles, _ = signed_number_inputs(builder, [5, -3], 3)
        build_signed_product(builder, handles)
        assert builder.build().depth == 1

    def test_eightfold_blowup_bound_for_triple_products(self):
        # The paper's "Negative numbers" paragraph: at most 8x the unsigned gates.
        builder = CircuitBuilder()
        handles, _ = signed_number_inputs(builder, [7, 7, 7], 3)
        build_signed_product(builder, handles)
        assert builder.size <= 8 * 27

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(st.integers(min_value=-7, max_value=7), min_size=2, max_size=3))
    def test_signed_product_property(self, values):
        builder = CircuitBuilder()
        handles, assignment = signed_number_inputs(builder, values, 3)
        result = build_signed_product(builder, handles)
        circuit = builder.build()
        expected = 1
        for v in values:
            expected *= v
        node_values = (
            simulate(circuit, assignment).node_values
            if circuit.size
            else {w: int(v) for w, v in enumerate(assignment)}
        )
        assert result.value(node_values) == expected
