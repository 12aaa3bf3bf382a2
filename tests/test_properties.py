"""Cross-cutting property-based tests (hypothesis).

These complement the per-module tests with randomized invariants that tie
several subsystems together:

* optimizer passes never change the input/output behaviour of a circuit,
* serialization is a faithful round-trip for arbitrary circuits,
* the counting builder always agrees with the real builder,
* schedules always start at 0, strictly increase and end at the leaf level,
* the sparsity identity sum_j c'_j = s_C holds for arbitrary composed
  algorithms,
* the recursive fast multiplication agrees with numpy for random algorithms
  from the catalog and random integer matrices.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.circuits.builder import CircuitBuilder
from repro.circuits.counting import CountingBuilder
from repro.circuits.optimize import deduplicate_gates, eliminate_dead_gates
from repro.circuits.serialize import circuit_from_dict, circuit_to_dict
from repro.circuits.simulator import simulate
from repro.core.schedule import constant_depth_schedule, loglog_schedule
from repro.fastmm.catalog import available_algorithms, get_algorithm
from repro.fastmm.compose import compose
from repro.fastmm.recursive import fast_matmul
from repro.fastmm.sparsity import sparsity_parameters
from repro.util.intmath import ilog


# --------------------------------------------------------------------------- #
# Random circuit generation shared by several properties.
# --------------------------------------------------------------------------- #


def draw_random_circuit(data, max_inputs=4, max_gates=10):
    n_inputs = data.draw(st.integers(min_value=1, max_value=max_inputs), label="n_inputs")
    n_gates = data.draw(st.integers(min_value=1, max_value=max_gates), label="n_gates")
    builder = CircuitBuilder()
    builder.allocate_inputs(n_inputs)
    for g in range(n_gates):
        available = n_inputs + g
        fan_in = data.draw(st.integers(min_value=0, max_value=min(3, available)), label="fan_in")
        sources = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=available - 1),
                min_size=fan_in,
                max_size=fan_in,
                unique=True,
            ),
            label="sources",
        )
        weights = data.draw(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=fan_in, max_size=fan_in),
            label="weights",
        )
        threshold = data.draw(st.integers(min_value=-6, max_value=6), label="threshold")
        builder.add_gate(sources, weights, threshold)
    circuit = builder.build()
    n_outputs = data.draw(st.integers(min_value=1, max_value=circuit.n_nodes), label="n_outputs")
    outputs = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=circuit.n_nodes - 1),
            min_size=n_outputs,
            max_size=n_outputs,
            unique=True,
        ),
        label="outputs",
    )
    circuit.set_outputs(outputs)
    return circuit


def all_assignments(n_inputs):
    for value in range(2 ** n_inputs):
        yield np.array([(value >> i) & 1 for i in range(n_inputs)])


class TestOptimizerProperties:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_deduplication_preserves_all_outputs(self, data):
        circuit = draw_random_circuit(data)
        optimized, _ = deduplicate_gates(circuit)
        assert optimized.size <= circuit.size
        for assignment in all_assignments(circuit.n_inputs):
            assert (
                simulate(circuit, assignment).outputs == simulate(optimized, assignment).outputs
            ).all()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_dead_gate_elimination_preserves_all_outputs(self, data):
        circuit = draw_random_circuit(data)
        pruned, _ = eliminate_dead_gates(circuit)
        assert pruned.size <= circuit.size
        for assignment in all_assignments(circuit.n_inputs):
            assert (
                simulate(circuit, assignment).outputs == simulate(pruned, assignment).outputs
            ).all()


class TestSerializationProperties:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_roundtrip_is_faithful(self, data):
        circuit = draw_random_circuit(data)
        restored = circuit_from_dict(circuit_to_dict(circuit))
        assert restored.n_inputs == circuit.n_inputs
        assert restored.size == circuit.size
        assert restored.outputs == circuit.outputs
        for assignment in all_assignments(circuit.n_inputs):
            assert (
                simulate(circuit, assignment, keep_nodes=True).node_values
                == simulate(restored, assignment, keep_nodes=True).node_values
            ).all()


class TestCountingBuilderProperties:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_counting_matches_real_builder_on_random_programs(self, data):
        n_inputs = data.draw(st.integers(min_value=1, max_value=5))
        steps = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=3),  # fan-in
                    st.integers(min_value=-3, max_value=3),  # threshold
                ),
                min_size=1,
                max_size=15,
            )
        )
        real = CircuitBuilder()
        counting = CountingBuilder()
        for builder in (real, counting):
            inputs = builder.allocate_inputs(n_inputs)
            nodes = list(inputs)
            for fan_in, threshold in steps:
                fan_in = min(fan_in, len(nodes))
                sources = nodes[-fan_in:] if fan_in else []
                node = builder.add_gate(sources, [1] * fan_in, threshold, tag="t")
                nodes.append(node)
        circuit = real.build()
        assert counting.size == circuit.size
        assert counting.depth == circuit.depth
        assert counting.edges == circuit.edges
        assert counting.max_fan_in == circuit.max_fan_in


class TestScheduleProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        exponent=st.integers(min_value=1, max_value=24),
        d=st.integers(min_value=1, max_value=8),
        name=st.sampled_from(["strassen", "winograd", "strassen-squared"]),
    )
    def test_constant_depth_schedule_invariants(self, exponent, d, name):
        algorithm = get_algorithm(name)
        n = algorithm.t ** max(1, exponent // (1 if algorithm.t == 2 else 2))
        leaf = ilog(n, algorithm.t)
        schedule = constant_depth_schedule(algorithm, n, d)
        assert schedule.levels[0] == 0
        assert schedule.leaf_level == leaf
        assert all(b > a for a, b in zip(schedule.levels, schedule.levels[1:]))
        assert schedule.t_steps <= d

    @settings(max_examples=20, deadline=None)
    @given(exponent=st.integers(min_value=1, max_value=24))
    def test_loglog_schedule_invariants(self, exponent):
        algorithm = get_algorithm("strassen")
        schedule = loglog_schedule(algorithm, 2 ** exponent)
        assert schedule.levels[0] == 0
        assert schedule.leaf_level == exponent
        assert all(b > a for a, b in zip(schedule.levels, schedule.levels[1:]))


class TestAlgorithmProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        outer=st.sampled_from(["strassen", "winograd", "naive-2"]),
        inner=st.sampled_from(["strassen", "winograd", "naive-2"]),
    )
    def test_composition_preserves_correctness_and_sparsity_identity(self, outer, inner):
        composed = compose(get_algorithm(outer), get_algorithm(inner))
        assert composed.verify()
        params = sparsity_parameters(composed)
        assert sum(params.c_prime) == params.s_C
        assert params.s_A == sparsity_parameters(get_algorithm(outer)).s_A * sparsity_parameters(
            get_algorithm(inner)
        ).s_A

    @settings(max_examples=15, deadline=None)
    @given(
        name=st.sampled_from(["strassen", "winograd", "naive-2", "strassen-squared"]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_recursive_fast_matmul_matches_numpy(self, name, seed):
        algorithm = get_algorithm(name)
        rng = np.random.default_rng(seed)
        n = algorithm.t ** 2
        a = rng.integers(-6, 7, (n, n))
        b = rng.integers(-6, 7, (n, n))
        assert (fast_matmul(a, b, algorithm) == a.astype(object) @ b.astype(object)).all()
