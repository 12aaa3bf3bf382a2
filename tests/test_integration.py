"""End-to-end integration tests across subsystems (experiment E9).

These tests tie the whole pipeline together: random integer matrices or
graphs, the conventional fast-multiplication oracle, the constructed
threshold circuits, the vectorized simulator, the counting model and the
optimizer all have to agree.
"""

import numpy as np
import pytest

from repro.circuits.optimize import deduplicate_gates, eliminate_dead_gates
from repro.circuits.simulator import simulate
from repro.circuits.validate import validate_circuit
from repro.core import (
    build_matmul_circuit,
    build_naive_trace_circuit,
    build_naive_triangle_circuit,
    build_trace_circuit,
    count_matmul_circuit,
)
from repro.fastmm import fast_matmul, get_algorithm
from repro.triangles import erdos_renyi_adjacency, triangle_count
from repro.util.matrices import random_integer_matrix


class TestTraceAgainstNaiveBaseline:
    def test_fast_and_naive_circuits_agree_on_random_graphs(self, rng):
        """E9/E4: both circuit families answer identically on the same graphs."""
        n = 4
        for _ in range(3):
            adjacency = erdos_renyi_adjacency(n, 0.6, rng)
            triangles = triangle_count(adjacency)
            tau = max(1, triangles)
            fast = build_trace_circuit(n, 6 * tau, bit_width=1, depth_parameter=2)
            naive_triangles = build_naive_triangle_circuit(n, tau)
            naive_trace = build_naive_trace_circuit(n, 6 * tau, bit_width=1)
            expected = triangles >= tau
            assert fast.evaluate(adjacency) == expected
            assert naive_triangles.evaluate(adjacency) == expected
            assert naive_trace.evaluate(adjacency) == expected

    def test_structural_validation_of_generated_circuits(self):
        fast = build_trace_circuit(4, 2, bit_width=1, depth_parameter=2)
        report = validate_circuit(fast.circuit, require_outputs=True)
        assert report.ok


class TestMatmulPipeline:
    @pytest.mark.parametrize("algorithm_name", ["strassen", "winograd"])
    def test_circuit_vs_recursive_oracle(self, rng, algorithm_name):
        algorithm = get_algorithm(algorithm_name)
        n, bit_width = 4, 1
        a = random_integer_matrix(n, bit_width, rng=rng)
        b = random_integer_matrix(n, bit_width, rng=rng)
        oracle = fast_matmul(a, b, algorithm)
        circuit = build_matmul_circuit(n, bit_width=bit_width, algorithm=algorithm, depth_parameter=2)
        assert (circuit.evaluate(a, b) == oracle).all()

    def test_optimizer_preserves_matmul_semantics(self, rng):
        n = 2
        original = build_matmul_circuit(n, bit_width=2, depth_parameter=1)
        a = random_integer_matrix(n, 2, rng=rng)
        b = random_integer_matrix(n, 2, rng=rng)
        expected = original.evaluate(a, b)

        deduped, node_map = deduplicate_gates(original.circuit)
        inputs = original.encode_pairs([(a, b)])[:, 0]
        node_values = simulate(deduped, inputs).node_values
        for i in range(n):
            for j in range(n):
                entry = original.entries[i, j]
                got = sum(
                    (1 << pos) * int(node_values[node_map[node]])
                    for pos, node in zip(entry.pos.bit_positions, entry.pos.bit_nodes)
                ) - sum(
                    (1 << pos) * int(node_values[node_map[node]])
                    for pos, node in zip(entry.neg.bit_positions, entry.neg.bit_nodes)
                )
                assert got == expected[i, j]

    def test_dead_gate_elimination_keeps_outputs_working(self, rng):
        n = 2
        original = build_matmul_circuit(n, bit_width=1, depth_parameter=1)
        pruned, node_map = eliminate_dead_gates(original.circuit)
        assert pruned.size <= original.circuit.size
        a = random_integer_matrix(n, 1, rng=rng)
        b = random_integer_matrix(n, 1, rng=rng)
        inputs = original.encode_pairs([(a, b)])[:, 0]
        node_values = simulate(pruned, inputs).node_values
        expected = a.astype(object) @ b.astype(object)
        for i in range(n):
            for j in range(n):
                entry = original.entries[i, j]
                got = sum(
                    (1 << pos) * int(node_values[node_map[node]])
                    for pos, node in zip(entry.pos.bit_positions, entry.pos.bit_nodes)
                ) - sum(
                    (1 << pos) * int(node_values[node_map[node]])
                    for pos, node in zip(entry.neg.bit_positions, entry.neg.bit_nodes)
                )
                assert got == expected[i, j]

    def test_counting_model_matches_for_every_algorithm(self):
        for name in ("strassen", "winograd"):
            algorithm = get_algorithm(name)
            cost = count_matmul_circuit(4, bit_width=1, algorithm=algorithm, depth_parameter=2)
            built = build_matmul_circuit(4, bit_width=1, algorithm=algorithm, depth_parameter=2)
            assert cost.size == built.circuit.size


class TestSubcubicClaim:
    def test_level_selection_beats_single_jump_at_equal_depth(self):
        """Finite-size glimpse of the Section 4 claim: with the same depth
        budget, the Lemma 4.3 level selection needs fewer gates than the
        single-jump flattening it replaces (the asymptotic gap is the subject
        of experiments E5/E7/E8; see EXPERIMENTS.md for the large-N story)."""
        from repro.core.gate_count_model import count_trace_circuit
        from repro.core.schedule import direct_schedule
        from repro.fastmm.strassen import strassen_2x2

        algorithm = strassen_2x2()
        selected = count_trace_circuit(8, bit_width=1, depth_parameter=3)
        single_jump = count_trace_circuit(8, bit_width=1, schedule=direct_schedule(algorithm, 8))
        assert selected.size < single_jump.size
        assert selected.depth >= single_jump.depth  # the price is depth
