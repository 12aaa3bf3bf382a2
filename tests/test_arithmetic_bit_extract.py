"""Tests for Lemma 3.1 (k-th MSB extraction) and full bit extraction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arithmetic.bit_extract import (
    build_full_extraction,
    build_kth_msb,
    count_full_extraction,
    plan_full_extraction,
)
from repro.circuits.builder import CircuitBuilder
from repro.circuits.simulator import simulate
from repro.util.bits import bits


def evaluate_extraction(weights, values, n_bits=None):
    """Build a full-extraction circuit over explicit inputs and run it."""
    builder = CircuitBuilder()
    inputs = builder.allocate_inputs(len(weights))
    nodes = build_full_extraction(builder, list(zip(inputs, weights)), n_bits=n_bits)
    circuit = builder.build()
    node_values = simulate(circuit, np.array(values)).node_values
    out = 0
    for position, node in enumerate(nodes):
        if node is not None:
            out |= int(node_values[node]) << position
    return out, builder, nodes


class TestKthMsb:
    def test_single_bit_identity(self):
        builder = CircuitBuilder()
        (x,) = builder.allocate_inputs(1)
        node = build_kth_msb(builder, [(x, 1)], l=1, k=1)
        circuit = builder.build()
        assert simulate(circuit, np.array([1])).node_values[node] == 1
        assert simulate(circuit, np.array([0])).node_values[node] == 0

    def test_gate_count_matches_lemma(self):
        # Lemma 3.1: 2^k + 1 gates for the k-th most significant bit.
        for k in range(1, 5):
            builder = CircuitBuilder()
            inputs = builder.allocate_inputs(6)
            build_kth_msb(builder, [(i, 1) for i in inputs], l=6, k=k)
            assert builder.size == 2 ** k + 1

    def test_depth_is_two(self):
        builder = CircuitBuilder()
        inputs = builder.allocate_inputs(4)
        build_kth_msb(builder, [(i, 1) for i in inputs], l=3, k=2)
        assert builder.build().depth == 2

    def test_all_bits_of_popcount(self):
        # Extract every bit of the 3-bit sum of 7 input bits.
        builder = CircuitBuilder()
        inputs = builder.allocate_inputs(7)
        terms = [(i, 1) for i in inputs]
        nodes = {k: build_kth_msb(builder, terms, l=3, k=k) for k in (1, 2, 3)}
        circuit = builder.build()
        for value in range(2 ** 7):
            assignment = np.array([(value >> i) & 1 for i in range(7)])
            popcount = int(assignment.sum())
            node_values = simulate(circuit, assignment).node_values
            recovered = sum(int(node_values[nodes[k]]) << (3 - k) for k in (1, 2, 3))
            assert recovered == popcount

    def test_invalid_parameters(self):
        builder = CircuitBuilder()
        inputs = builder.allocate_inputs(2)
        with pytest.raises(ValueError):
            build_kth_msb(builder, [(inputs[0], 1)], l=0, k=1)
        with pytest.raises(ValueError):
            build_kth_msb(builder, [(inputs[0], 1)], l=2, k=3)


class TestPlanFullExtraction:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            plan_full_extraction([1, 0])
        with pytest.raises(ValueError):
            plan_full_extraction([-1])

    def test_plan_covers_all_bits_by_default(self):
        plan = plan_full_extraction([1] * 5)
        assert plan.n_bits == bits(5)

    def test_zero_bits_are_marked(self):
        # A single term of weight 4 has bits 1 and 2 identically zero.
        plan = plan_full_extraction([4])
        assert plan.bit_plans[0].is_zero
        assert plan.bit_plans[1].is_zero
        assert not plan.bit_plans[2].is_zero

    def test_count_matches_plan(self):
        weights = [1, 2, 3, 7]
        assert count_full_extraction(weights) == plan_full_extraction(weights).total_gates

    def test_gate_count_scales_linearly_in_terms(self):
        # Lemma 3.2's O(w b n): doubling the unit-weight terms should roughly
        # double the gates, not square them.
        small = count_full_extraction([1] * 16)
        large = count_full_extraction([1] * 32)
        assert large < 3 * small


class TestBuildFullExtraction:
    def test_unit_weights_exhaustive(self):
        weights = [1] * 4
        for value in range(16):
            values = [(value >> i) & 1 for i in range(4)]
            got, _, _ = evaluate_extraction(weights, values)
            assert got == sum(values)

    def test_mixed_weights(self, rng):
        weights = [1, 3, 5, 2, 8]
        for _ in range(20):
            values = rng.integers(0, 2, size=5).tolist()
            got, _, _ = evaluate_extraction(weights, values)
            assert got == sum(w * v for w, v in zip(weights, values))

    def test_gate_count_matches_dry_run(self, rng):
        weights = [1, 3, 5, 2, 8]
        _, builder, _ = evaluate_extraction(weights, [1] * 5)
        assert builder.size == count_full_extraction(weights)

    def test_truncated_extraction(self, rng):
        weights = [3, 6, 1, 1]
        for _ in range(10):
            values = rng.integers(0, 2, size=4).tolist()
            got, _, nodes = evaluate_extraction(weights, values, n_bits=2)
            assert len(nodes) == 2
            true = sum(w * v for w, v in zip(weights, values))
            assert got == true % 4

    def test_depth_is_two(self):
        builder = CircuitBuilder()
        inputs = builder.allocate_inputs(6)
        build_full_extraction(builder, [(i, 1) for i in inputs])
        assert builder.build().depth == 2

    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_extraction_property(self, weights, data):
        values = data.draw(
            st.lists(st.integers(0, 1), min_size=len(weights), max_size=len(weights))
        )
        got, _, _ = evaluate_extraction(weights, values)
        assert got == sum(w * v for w, v in zip(weights, values))
