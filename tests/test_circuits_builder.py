"""Tests for repro.circuits.builder and repro.circuits.counting."""

import pytest

from repro.circuits.builder import CircuitBuilder
from repro.circuits.counting import CountingBuilder


class TestCircuitBuilder:
    def test_input_allocation_blocks(self):
        builder = CircuitBuilder()
        a = builder.allocate_inputs(3, "A")
        b = builder.allocate_inputs(2, "B")
        assert a == [0, 1, 2]
        assert b == [3, 4]
        assert builder.input_block("A") == a
        assert builder.n_inputs == 5

    def test_inputs_frozen_after_first_gate(self):
        builder = CircuitBuilder()
        builder.allocate_inputs(1)
        builder.add_gate([0], [1], 1)
        with pytest.raises(RuntimeError):
            builder.allocate_inputs(1)

    def test_unknown_input_block(self):
        with pytest.raises(KeyError):
            CircuitBuilder().input_block("missing")

    def test_constants(self):
        builder = CircuitBuilder()
        builder.allocate_inputs(1)
        true = builder.constant_true()
        false = builder.constant_false()
        assert builder.constant_true() == true  # cached
        circuit = builder.build()
        values = circuit.evaluate_slow([0])
        assert values[true] == 1
        assert values[false] == 0

    def test_copy_gate(self):
        builder = CircuitBuilder()
        builder.allocate_inputs(1)
        copy = builder.copy_gate(0)
        circuit = builder.build()
        assert circuit.evaluate_slow([1])[copy] == 1
        assert circuit.evaluate_slow([0])[copy] == 0

    def test_tag_counts(self):
        builder = CircuitBuilder()
        builder.allocate_inputs(2)
        builder.add_gate([0], [1], 1, tag="x")
        builder.add_gate([1], [1], 1, tag="x")
        builder.add_gate([0, 1], [1, 1], 2, tag="y")
        assert builder.tag_counts() == {"x": 2, "y": 1}


class TestCountingBuilder:
    def test_counts_match_real_builder(self):
        def construct(builder):
            inputs = builder.allocate_inputs(4, "in")
            layer = [builder.add_gate(inputs, [1] * 4, k, tag="layer1") for k in range(1, 4)]
            builder.add_gate(layer, [1, -1, 1], 1, tag="out")
            builder.set_outputs([builder.add_gate(layer, [1, 1, 1], 2)])

        real = CircuitBuilder()
        construct(real)
        counting = CountingBuilder()
        construct(counting)

        circuit = real.build()
        assert counting.size == circuit.size
        assert counting.depth == circuit.depth
        assert counting.edges == circuit.edges
        assert counting.max_fan_in == circuit.max_fan_in
        assert counting.n_inputs == circuit.n_inputs
        assert counting.tag_counts() == real.tag_counts()

    def test_counting_builder_constants_and_copy(self):
        builder = CountingBuilder()
        builder.allocate_inputs(1)
        t = builder.constant_true()
        assert builder.constant_true() == t
        builder.copy_gate(0)
        assert builder.size == 2

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            CountingBuilder().allocate_inputs(-1)
