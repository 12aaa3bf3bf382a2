"""Tests for the single-gate comparator and range membership circuits."""

import numpy as np
import pytest

from repro.arithmetic.comparator import build_ge_comparison, build_range_membership
from repro.arithmetic.signed import Rep, SignedValue
from repro.circuits.builder import CircuitBuilder
from repro.circuits.simulator import simulate


def value_over_inputs(builder, pos_weights, neg_weights):
    n = len(pos_weights) + len(neg_weights)
    wires = builder.allocate_inputs(n)
    pos = Rep.from_terms(list(zip(wires[: len(pos_weights)], pos_weights)))
    neg = Rep.from_terms(list(zip(wires[len(pos_weights) :], neg_weights)))
    return SignedValue(pos, neg), wires


class TestGeComparison:
    def test_single_gate(self):
        builder = CircuitBuilder()
        value, _ = value_over_inputs(builder, [3, 2], [4])
        build_ge_comparison(builder, value, 1)
        assert builder.size == 1
        assert builder.build().depth == 1

    @pytest.mark.parametrize("tau", [-5, 0, 1, 3, 6])
    def test_decision_correct_for_all_inputs(self, tau):
        builder = CircuitBuilder()
        value, wires = value_over_inputs(builder, [3, 2], [4])
        gate = build_ge_comparison(builder, value, tau)
        circuit = builder.build()
        for assignment in range(2 ** 3):
            bits = np.array([(assignment >> i) & 1 for i in range(3)])
            actual = 3 * bits[0] + 2 * bits[1] - 4 * bits[2]
            got = simulate(circuit, bits).node_values[gate]
            assert got == (1 if actual >= tau else 0)

    def test_empty_value_compares_zero(self):
        builder = CircuitBuilder()
        builder.allocate_inputs(1)
        gate_true = build_ge_comparison(builder, SignedValue.zero(), 0)
        gate_false = build_ge_comparison(builder, SignedValue.zero(), 1)
        circuit = builder.build()
        values = circuit.evaluate_slow([0])
        assert values[gate_true] == 1
        assert values[gate_false] == 0


class TestRangeMembership:
    def test_rejects_empty_range(self):
        builder = CircuitBuilder()
        value, _ = value_over_inputs(builder, [1], [])
        with pytest.raises(ValueError):
            build_range_membership(builder, value, 3, 3)

    def test_window_decision(self):
        builder = CircuitBuilder()
        value, _ = value_over_inputs(builder, [1, 2, 4], [])
        gate = build_range_membership(builder, value, 2, 5)
        circuit = builder.build()
        for assignment in range(8):
            bits = np.array([(assignment >> i) & 1 for i in range(3)])
            total = int(bits[0] + 2 * bits[1] + 4 * bits[2])
            got = simulate(circuit, bits).node_values[gate]
            assert got == (1 if 2 <= total < 5 else 0)

    def test_depth_two(self):
        builder = CircuitBuilder()
        value, _ = value_over_inputs(builder, [1, 1], [])
        build_range_membership(builder, value, 1, 2)
        assert builder.build().depth == 2
