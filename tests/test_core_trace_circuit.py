"""Tests for the Theorem 4.4 / 4.5 trace-threshold circuits (experiments E6/E7)."""

import numpy as np
import pytest

from repro.circuits.optimize import deduplicate_gates
from repro.core.schedule import constant_depth_schedule, loglog_schedule
from repro.core.trace_circuit import TraceCircuit, build_trace_circuit, default_bit_width
from repro.engine import Engine
from repro.fastmm.winograd import winograd_2x2


def reference_trace(matrix) -> int:
    m = np.asarray(matrix).astype(object)
    return int(np.trace(m @ m @ m))


class TestDefaults:
    def test_default_bit_width_is_log_n(self):
        assert default_bit_width(2) == 1
        assert default_bit_width(8) == 3
        assert default_bit_width(16) == 4

    def test_metadata_recorded(self):
        tc = build_trace_circuit(2, 5, bit_width=1, depth_parameter=1)
        assert tc.circuit.metadata["kind"] == "trace"
        assert tc.circuit.metadata["algorithm"] == "strassen"


class TestCorrectness:
    @pytest.mark.parametrize("n,bit_width", [(2, 1), (2, 2), (4, 1), (4, 2)])
    def test_decision_matches_exact_trace(self, rng, n, bit_width):
        high = (1 << bit_width) - 1
        matrix = rng.integers(-high, high + 1, (n, n))
        trace = reference_trace(matrix)
        for tau in (trace - 1, trace, trace + 1):
            circuit = build_trace_circuit(n, tau, bit_width=bit_width, depth_parameter=2)
            assert circuit.evaluate(matrix) == (trace >= tau)

    def test_binary_matrices_with_loglog_schedule(self, rng, strassen):
        n = 4
        matrix = rng.integers(0, 2, (n, n))
        trace = reference_trace(matrix)
        circuit = build_trace_circuit(
            n, max(trace, 1), bit_width=1, schedule=loglog_schedule(strassen, n)
        )
        assert circuit.evaluate(matrix) == (trace >= max(trace, 1))

    def test_other_algorithm(self, rng):
        matrix = rng.integers(-1, 2, (4, 4))
        trace = reference_trace(matrix)
        circuit = build_trace_circuit(
            4, trace, bit_width=1, algorithm=winograd_2x2(), depth_parameter=2
        )
        assert circuit.evaluate(matrix) is True

    def test_reference_helpers(self, rng):
        matrix = rng.integers(-1, 2, (2, 2))
        circuit = build_trace_circuit(2, 0, bit_width=1, depth_parameter=1)
        assert circuit.reference_trace(matrix) == reference_trace(matrix)
        assert circuit.reference(matrix) == (reference_trace(matrix) >= 0)

    def test_batch_evaluation(self, rng):
        n, tau = 2, 3
        circuit = build_trace_circuit(n, tau, bit_width=2, depth_parameter=1)
        matrices = [rng.integers(-3, 4, (n, n)) for _ in range(6)]
        results = circuit.evaluate_batch(matrices)
        assert results.tolist() == [reference_trace(m) >= tau for m in matrices]


class TestResourceBounds:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_depth_is_within_theorem_bound(self, d):
        circuit = build_trace_circuit(4, 1, bit_width=1, depth_parameter=d)
        # Our construction achieves 2t + 2 <= 2d + 2, within the 2d + 5 bound.
        assert circuit.circuit.depth <= 2 * d + 5
        assert circuit.circuit.depth == 2 * circuit.schedule.t_steps + 2

    def test_depth_independent_of_n_for_fixed_d(self):
        depths = {
            n: build_trace_circuit(n, 1, bit_width=1, depth_parameter=2).circuit.depth
            for n in (2, 4, 8)
        }
        assert depths[8] <= 2 * 2 + 2
        assert len(set(depths.values())) <= 2  # small-N schedules may use fewer levels

    def test_single_output(self):
        circuit = build_trace_circuit(2, 2, bit_width=1, depth_parameter=1)
        assert len(circuit.circuit.outputs) == 1

    def test_deduplicate_gates_never_increases_size(self):
        plain = build_trace_circuit(4, 3, bit_width=1, depth_parameter=2)
        shared, _ = deduplicate_gates(plain.circuit)
        assert shared.size <= plain.circuit.size
        assert shared.depth == plain.circuit.depth

    def test_deduplicate_gates_preserves_decisions(self, rng):
        tc = build_trace_circuit(4, 3, bit_width=1, depth_parameter=2)
        shared, _ = deduplicate_gates(tc.circuit)
        matrices = rng.integers(-1, 2, (16, 4, 4))
        decisions = Engine().evaluate(shared, tc.encoding.encode(matrices)).outputs[0]
        assert decisions.astype(bool).tolist() == [tc.reference(m) for m in matrices]
