"""Tests for the staged (depth-2j) extraction used by Theorem 4.1."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arithmetic.staged_sum import (
    build_staged_extraction,
    count_staged_extraction,
    staged_chunk_sizes,
)
from repro.arithmetic.weighted_sum import build_unsigned_sum, count_unsigned_sum
from repro.circuits.builder import CircuitBuilder
from repro.circuits.simulator import simulate
from repro.util.bits import bits


class TestChunkSizes:
    def test_even_split(self):
        assert staged_chunk_sizes(6, 3) == [2, 2, 2]

    def test_uneven_split_puts_extra_first(self):
        assert staged_chunk_sizes(7, 3) == [3, 2, 2]

    def test_more_stages_than_bits(self):
        assert staged_chunk_sizes(2, 5) == [1, 1]

    def test_zero_width(self):
        assert staged_chunk_sizes(0, 3) == []

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            staged_chunk_sizes(-1, 2)
        with pytest.raises(ValueError):
            staged_chunk_sizes(4, 0)

    @given(st.integers(min_value=0, max_value=64), st.integers(min_value=1, max_value=10))
    def test_chunks_cover_width(self, width, stages):
        chunks = staged_chunk_sizes(width, stages)
        assert sum(chunks) == width
        assert all(c >= 1 for c in chunks) or width == 0


def run_staged(weights, values, stages):
    builder = CircuitBuilder()
    inputs = builder.allocate_inputs(len(weights))
    nodes = build_staged_extraction(builder, list(zip(inputs, weights)), stages)
    circuit = builder.build()
    node_values = simulate(circuit, np.array(values), keep_nodes=True).node_values
    got = sum((int(node_values[node]) << pos) for pos, node in enumerate(nodes) if node is not None)
    return got, builder


class TestStagedExtraction:
    @pytest.mark.parametrize("stages", [1, 2, 3, 4])
    def test_unit_weights_exhaustive(self, stages):
        weights = [1] * 5
        for value in range(32):
            values = [(value >> i) & 1 for i in range(5)]
            got, _ = run_staged(weights, values, stages)
            assert got == sum(values), (stages, values)

    @pytest.mark.parametrize("stages", [2, 3])
    def test_mixed_weights(self, rng, stages):
        weights = [1, 5, 9, 2, 4, 13]
        for _ in range(15):
            values = rng.integers(0, 2, size=len(weights)).tolist()
            got, _ = run_staged(weights, values, stages)
            assert got == sum(w * v for w, v in zip(weights, values))

    def test_depth_is_two_per_stage(self):
        weights = [1] * 20
        for stages in (1, 2, 3):
            builder = CircuitBuilder()
            inputs = builder.allocate_inputs(len(weights))
            build_staged_extraction(builder, list(zip(inputs, weights)), stages)
            width = bits(sum(weights))
            expected_stages = min(stages, width)
            assert builder.build().depth == 2 * expected_stages

    def test_count_matches_build(self):
        weights = [1, 2, 7, 7, 3]
        for stages in (1, 2, 3):
            builder = CircuitBuilder()
            inputs = builder.allocate_inputs(len(weights))
            build_staged_extraction(builder, list(zip(inputs, weights)), stages)
            assert builder.size == count_staged_extraction(weights, stages)

    def test_rejects_nonpositive_weights(self):
        builder = CircuitBuilder()
        inputs = builder.allocate_inputs(1)
        with pytest.raises(ValueError):
            build_staged_extraction(builder, [(inputs[0], -1)], 2)

    def test_staging_reduces_gates_for_wide_sums(self):
        # This is the whole point of Theorem 4.1: more depth, fewer gates.
        weights = [1] * 500
        depth2 = count_unsigned_sum(weights, stages=1)
        depth6 = count_staged_extraction(weights, 3)
        assert depth6 < depth2

    def test_via_build_unsigned_sum_dispatch(self, rng):
        weights = [3, 1, 4, 1, 5]
        values = rng.integers(0, 2, size=5).tolist()
        builder = CircuitBuilder()
        inputs = builder.allocate_inputs(5)
        number = build_unsigned_sum(builder, list(zip(inputs, weights)), stages=2)
        node_values = simulate(builder.build(), np.array(values), keep_nodes=True).node_values
        assert number.value(node_values) == sum(w * v for w, v in zip(weights, values))

    @settings(max_examples=25, deadline=None)
    @given(
        weights=st.lists(st.integers(min_value=1, max_value=15), min_size=1, max_size=6),
        stages=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    def test_staged_property(self, weights, stages, data):
        values = data.draw(
            st.lists(st.integers(0, 1), min_size=len(weights), max_size=len(weights))
        )
        got, _ = run_staged(weights, values, stages)
        assert got == sum(w * v for w, v in zip(weights, values))
