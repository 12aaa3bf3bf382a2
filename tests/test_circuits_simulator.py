"""Tests for the vectorized simulator, including agreement with the slow path."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.builder import CircuitBuilder
from repro.circuits.circuit import ThresholdCircuit
from repro.circuits.simulator import build_template_plan, simulate


def parity_circuit(n_bits: int) -> ThresholdCircuit:
    """Depth-2 parity circuit (a classic TC0 construction)."""
    builder = CircuitBuilder(name="parity")
    inputs = builder.allocate_inputs(n_bits)
    at_least = [builder.add_gate(inputs, [1] * n_bits, k) for k in range(1, n_bits + 1)]
    weights = [1 if k % 2 == 1 else -1 for k in range(1, n_bits + 1)]
    out = builder.add_gate(at_least, weights, 1)
    builder.set_outputs([out], ["parity"])
    return builder.build()


class TestFastPath:
    def test_parity_exhaustive(self):
        circuit = parity_circuit(4)
        assert build_template_plan(circuit).int64_safe
        for value in range(16):
            bits = np.array([(value >> i) & 1 for i in range(4)])
            result = simulate(circuit, bits)
            assert result.outputs[0] == bin(value).count("1") % 2

    def test_batch_evaluation_matches_single(self, rng):
        circuit = parity_circuit(6)
        batch = rng.integers(0, 2, size=(6, 32))
        batched = simulate(circuit, batch)
        for column in range(32):
            single = simulate(circuit, batch[:, column])
            assert (batched.node_values[:, column] == single.node_values).all()
            assert batched.energy[column] == single.energy

    def test_agrees_with_slow_reference(self, rng):
        circuit = parity_circuit(5)
        for _ in range(20):
            bits = rng.integers(0, 2, size=5)
            fast = simulate(circuit, bits).node_values
            slow = circuit.evaluate_slow(list(bits))
            assert (fast == slow).all()

    def test_energy_counts_firing_gates(self):
        builder = CircuitBuilder()
        inputs = builder.allocate_inputs(2)
        builder.add_gate(inputs, [1, 1], 1)   # fires iff any input
        builder.add_gate(inputs, [1, 1], 2)   # fires iff both
        builder.set_outputs([2, 3])
        circuit = builder.build()
        result = simulate(circuit, np.array([1, 0]))
        assert result.energy == 1
        result = simulate(circuit, np.array([1, 1]))
        assert result.energy == 2

    def test_input_validation(self):
        circuit = parity_circuit(3)
        with pytest.raises(ValueError):
            simulate(circuit, np.array([0, 1]))
        with pytest.raises(ValueError):
            simulate(circuit, np.array([0, 1, 2]))


class TestExactFallback:
    def test_huge_weights_use_exact_path(self):
        builder = CircuitBuilder()
        inputs = builder.allocate_inputs(2)
        huge = 1 << 70  # far beyond int64
        gate = builder.add_gate(inputs, [huge, -huge], huge)
        builder.set_outputs([gate])
        circuit = builder.build()
        assert not build_template_plan(circuit).int64_safe
        assert simulate(circuit, np.array([1, 0])).outputs[0] == 1
        assert simulate(circuit, np.array([1, 1])).outputs[0] == 0
        assert simulate(circuit, np.array([0, 1])).outputs[0] == 0

    def test_fallback_batch(self):
        builder = CircuitBuilder()
        inputs = builder.allocate_inputs(1)
        gate = builder.add_gate(inputs, [1 << 70], 1)
        builder.set_outputs([gate])
        circuit = builder.build()
        batch = np.array([[0, 1]])
        outputs = simulate(circuit, batch).outputs
        assert outputs.tolist() == [[0, 1]]


class TestRandomCircuitsAgainstSlowPath:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_circuit_agreement(self, data):
        n_inputs = data.draw(st.integers(min_value=1, max_value=5))
        n_gates = data.draw(st.integers(min_value=1, max_value=12))
        builder = CircuitBuilder()
        builder.allocate_inputs(n_inputs)
        for g in range(n_gates):
            available = n_inputs + g
            fan_in = data.draw(st.integers(min_value=0, max_value=min(4, available)))
            sources = data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=available - 1),
                    min_size=fan_in,
                    max_size=fan_in,
                    unique=True,
                )
            )
            weights = data.draw(
                st.lists(
                    st.integers(min_value=-5, max_value=5),
                    min_size=fan_in,
                    max_size=fan_in,
                )
            )
            threshold = data.draw(st.integers(min_value=-10, max_value=10))
            builder.add_gate(sources, weights, threshold)
        circuit = builder.build()
        inputs = np.array(
            data.draw(
                st.lists(st.integers(0, 1), min_size=n_inputs, max_size=n_inputs)
            )
        )
        fast = simulate(circuit, inputs).node_values
        slow = circuit.evaluate_slow(list(inputs))
        assert (fast == slow).all()
