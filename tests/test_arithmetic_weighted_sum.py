"""Tests for Lemma 3.2: signed weighted-sum circuits."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arithmetic.signed import SignedBinaryNumber
from repro.arithmetic.weighted_sum import (
    build_signed_sum,
    build_unsigned_sum,
    count_signed_sum,
    count_unsigned_sum,
    flatten_terms,
    split_signed_terms,
)
from repro.circuits.builder import CircuitBuilder
from repro.circuits.simulator import simulate
from repro.util.encoding import MatrixEncoding


def signed_inputs(builder, values, bit_width):
    """Allocate input wires for the given signed integers; return handles + assignment."""
    wires = builder.allocate_inputs(len(values) * 2 * bit_width)
    encoding = MatrixEncoding(n=1, bit_width=bit_width)
    handles = []
    assignment = np.zeros(len(wires), dtype=np.int8)
    from repro.util.encoding import encode_integer

    for index, value in enumerate(values):
        base = index * 2 * bit_width
        pos_bits = wires[base : base + bit_width]
        neg_bits = wires[base + bit_width : base + 2 * bit_width]
        handles.append(SignedBinaryNumber.from_input_bits(pos_bits, neg_bits))
        assignment[base : base + 2 * bit_width] = encode_integer(value, bit_width)
    return handles, assignment


class TestSplitSignedTerms:
    def test_split_matches_paper_definition(self):
        builder = CircuitBuilder()
        handles, _ = signed_inputs(builder, [3, -2], bit_width=2)
        items = [(handles[0].to_signed_value(), 2), (handles[1].to_signed_value(), -3)]
        pos, neg = split_signed_terms(items)
        # s+ gets +2*x0_pos and +3*x1_neg ; s- gets 2*x0_neg and 3*x1_pos.
        pos_weights = sorted(w for _, w in pos)
        neg_weights = sorted(w for _, w in neg)
        assert pos_weights == sorted([2, 4, 3, 6])
        assert neg_weights == sorted([2, 4, 3, 6])

    def test_zero_weight_dropped(self):
        builder = CircuitBuilder()
        handles, _ = signed_inputs(builder, [1], bit_width=1)
        pos, neg = split_signed_terms([(handles[0].to_signed_value(), 0)])
        assert pos == [] and neg == []

    def test_flatten_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            flatten_terms([(SignedBinaryNumber.from_input_bits([0], [1]).to_signed_value().pos, -1)])


class TestUnsignedSum:
    def test_empty_sum_is_zero(self):
        builder = CircuitBuilder()
        builder.allocate_inputs(1)
        result = build_unsigned_sum(builder, [])
        assert result.n_bits == 0
        assert builder.size == 0

    def test_count_matches_build(self):
        builder = CircuitBuilder()
        inputs = builder.allocate_inputs(5)
        weights = [1, 2, 3, 4, 5]
        build_unsigned_sum(builder, list(zip(inputs, weights)))
        assert builder.size == count_unsigned_sum(weights)


class TestSignedSum:
    @pytest.mark.parametrize(
        "values,weights",
        [
            ([3, -2], [1, 1]),
            ([3, -2, 1], [1, -1, 2]),
            ([0, 0], [5, -5]),
            ([-7, -7], [1, 1]),
            ([5], [-3]),
        ],
    )
    def test_exhaustive_small_cases(self, values, weights):
        builder = CircuitBuilder()
        handles, assignment = signed_inputs(builder, values, bit_width=3)
        items = [(h.to_signed_value(), w) for h, w in zip(handles, weights)]
        result = build_signed_sum(builder, items)
        circuit = builder.build()
        node_values = simulate(circuit, assignment, keep_nodes=True).node_values
        expected = sum(v * w for v, w in zip(values, weights))
        assert result.value(node_values) == expected

    def test_depth_is_two(self):
        builder = CircuitBuilder()
        handles, _ = signed_inputs(builder, [1, -2, 3], bit_width=2)
        build_signed_sum(builder, [(h.to_signed_value(), w) for h, w in zip(handles, (1, 2, -1))])
        assert builder.build().depth == 2

    def test_count_matches_build(self):
        builder = CircuitBuilder()
        handles, _ = signed_inputs(builder, [1, -2, 3], bit_width=2)
        items = [(h.to_signed_value(), w) for h, w in zip(handles, (1, 2, -1))]
        build_signed_sum(builder, items)
        assert builder.size == count_signed_sum(items)

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=-7, max_value=7), min_size=1, max_size=5),
        data=st.data(),
    )
    def test_signed_sum_property(self, values, data):
        weights = data.draw(
            st.lists(
                st.integers(min_value=-4, max_value=4),
                min_size=len(values),
                max_size=len(values),
            )
        )
        builder = CircuitBuilder()
        handles, assignment = signed_inputs(builder, values, bit_width=3)
        items = [(h.to_signed_value(), w) for h, w in zip(handles, weights)]
        result = build_signed_sum(builder, items)
        circuit = builder.build()
        if circuit.size == 0:
            assert all(w == 0 for w in weights)
            return
        node_values = simulate(circuit, assignment, keep_nodes=True).node_values
        assert result.value(node_values) == sum(v * w for v, w in zip(values, weights))
