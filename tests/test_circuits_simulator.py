"""Tests for the vectorized simulator, including agreement with the slow path."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.builder import CircuitBuilder
from repro.circuits.circuit import ThresholdCircuit
from repro.circuits.simulator import build_template_plan, simulate
from repro.core.naive_circuits import build_naive_matmul_circuit


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
            fast = simulate(circuit, bits, keep_nodes=True).node_values
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
        fast = simulate(circuit, inputs, keep_nodes=True).node_values
        slow = circuit.evaluate_slow(list(inputs))
        assert (fast == slow).all()


def _reference_accepted(circuit, min_cover):
    """Block acceptance checked one block at a time (the plain statement of
    the rules :func:`build_template_plan` applies)."""
    blocks = [block for block in circuit.template_blocks if block.k]
    covered = 0
    for block in blocks:
        template = block.template
        if template is None or template.n_gates == 0:
            return []
        params = block.params
        if params.ndim != 2 or params.shape[1] != template.n_params:
            return []
        if params.size and (params.min() < 0 or params.max() >= block.base):
            return []
        covered += block.k * template.n_gates
    if not blocks or covered < min_cover * circuit.size:
        return []
    blocks.sort(key=lambda block: block.base)
    cursor = 0
    for block in blocks:
        first = block.base - circuit.n_inputs
        if first < cursor or first + block.k * block.n_gates > circuit.size:
            return []
        cursor = first + block.k * block.n_gates
    return blocks


class TestTemplateBlockAcceptance:
    """Each reason to refuse provenance turns every gate residual."""

    @pytest.fixture
    def circuit(self):
        return build_naive_matmul_circuit(3, bit_width=1, stages=2).circuit

    @staticmethod
    def _replace(circuit, index, **changes):
        block = circuit.template_blocks[index]
        circuit.template_blocks[index] = dataclasses.replace(block, **changes)
        return circuit.template_blocks[index]

    @staticmethod
    def _covered(circuit, min_cover=0.0):
        return build_template_plan(circuit, min_cover=min_cover).covered_gates

    def test_untampered_blocks_accepted(self, circuit):
        covered = sum(block.k * block.n_gates for block in circuit.template_blocks)
        assert covered and self._covered(circuit) == covered

    def test_ill_shaped_rows_refused(self, circuit):
        params = circuit.template_blocks[0].params
        self._replace(circuit, 0, params=params[:, :-1])
        assert self._covered(circuit) == 0

    @pytest.mark.parametrize("offset", [0, 5])
    def test_parameter_at_or_past_block_refused(self, circuit, offset):
        block = circuit.template_blocks[-1]
        params = np.array(block.params)
        params[-1, -1] = block.base + offset
        self._replace(circuit, -1, params=params)
        assert self._covered(circuit) == 0

    def test_negative_parameter_refused(self, circuit):
        params = np.array(circuit.template_blocks[0].params)
        params[0, 0] = -1
        self._replace(circuit, 0, params=params)
        assert self._covered(circuit) == 0

    def test_overlapping_blocks_refused(self, circuit):
        circuit.template_blocks.append(circuit.template_blocks[0])
        assert self._covered(circuit) == 0

    def test_out_of_range_block_refused(self, circuit):
        index = max(
            range(len(circuit.template_blocks)),
            key=lambda i: circuit.template_blocks[i].base,
        )
        self._replace(circuit, index, base=circuit.n_nodes)
        assert self._covered(circuit) == 0

    def test_low_cover_refused(self, circuit):
        covered = self._covered(circuit)
        assert self._covered(circuit, min_cover=covered / circuit.size) == covered
        assert self._covered(circuit, min_cover=(covered + 1) / circuit.size) == 0

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_verdicts_match_block_by_block_rules(self, data):
        circuit = build_naive_matmul_circuit(3, bit_width=1, stages=2).circuit
        blocks = circuit.template_blocks
        for _ in range(data.draw(st.integers(0, 2))):
            index = data.draw(st.integers(0, len(blocks) - 1))
            block = blocks[index]
            kind = data.draw(st.sampled_from(["base", "param", "drop", "copy"]))
            if kind == "base":
                shift = data.draw(st.integers(-40, 40))
                blocks[index] = dataclasses.replace(block, base=block.base + shift)
            elif kind == "param":
                params = np.array(block.params)
                params[data.draw(st.integers(0, block.k - 1)), 0] += data.draw(
                    st.integers(-60, 60)
                )
                blocks[index] = dataclasses.replace(block, params=params)
            elif kind == "drop":
                del blocks[index]
            else:
                blocks.append(block)
            if not blocks:
                break
        min_cover = data.draw(st.sampled_from([0.0, 0.25, 0.5, 0.9]))
        expected = _reference_accepted(circuit, min_cover)
        covered = sum(block.k * block.n_gates for block in expected)
        assert self._covered(circuit, min_cover) == covered
