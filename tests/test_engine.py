"""Tests for the execution engine: backends, cache, scheduler, spiking mode.

The central invariant is cross-backend equivalence: every backend must
produce bit-identical ``outputs`` / ``energy`` (and, kept, ``node_values``)
to the gate-by-gate reference ``ThresholdCircuit.evaluate_slow`` on any
circuit and any batch.  The Hypothesis properties below randomize both.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.energy import measure_circuit_energy
from repro.circuits.builder import CircuitBuilder
from repro.circuits.simulator import build_template_plan, simulate
from repro.engine import (
    ActivityPlan,
    BackendError,
    Engine,
    EngineConfig,
    compute_spike_trace,
    default_engine,
    iter_column_chunks,
    run_serial,
    select_backend_name,
    set_default_engine,
)

BACKENDS = ("sparse", "dense", "exact")


def build_random_circuit(data, max_weight=5, with_outputs=True):
    """Draw a random threshold circuit (same shape as the simulator tests)."""
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
                st.integers(min_value=-max_weight, max_value=max_weight),
                min_size=fan_in,
                max_size=fan_in,
            )
        )
        threshold = data.draw(st.integers(min_value=-10, max_value=10))
        builder.add_gate(sources, weights, threshold)
    circuit = builder.build()
    if with_outputs and circuit.size:
        circuit.set_outputs([circuit.n_nodes - 1])
    return circuit


def slow_reference(circuit, batch):
    """Column-by-column evaluate_slow, stacked to (n_nodes, batch)."""
    return np.stack(
        [circuit.evaluate_slow(list(batch[:, j])) for j in range(batch.shape[1])],
        axis=1,
    )


def parity_circuit(n_bits):
    builder = CircuitBuilder(name="parity")
    inputs = builder.allocate_inputs(n_bits)
    at_least = [builder.add_gate(inputs, [1] * n_bits, k) for k in range(1, n_bits + 1)]
    weights = [1 if k % 2 == 1 else -1 for k in range(1, n_bits + 1)]
    out = builder.add_gate(at_least, weights, 1)
    builder.set_outputs([out], ["parity"])
    return builder.build()


def huge_weight_circuit():
    builder = CircuitBuilder()
    inputs = builder.allocate_inputs(2)
    huge = 1 << 70
    gate = builder.add_gate(inputs, [huge, -huge], huge)
    builder.set_outputs([gate])
    return builder.build()


class TestCrossBackendEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_all_backends_match_evaluate_slow(self, data):
        circuit = build_random_circuit(data)
        batch_width = data.draw(st.integers(min_value=1, max_value=8))
        batch = np.array(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, 1), min_size=batch_width, max_size=batch_width),
                    min_size=circuit.n_inputs,
                    max_size=circuit.n_inputs,
                )
            )
        )
        expected_nodes = slow_reference(circuit, batch)
        expected_energy = expected_nodes[circuit.n_inputs :, :].sum(axis=0)
        engine = Engine()
        for backend in BACKENDS:
            result = engine.evaluate(circuit, batch, backend=backend)
            kept = engine.evaluate(circuit, batch, backend=backend, keep_nodes=True)
            assert result.node_values.shape == (0, batch_width), backend
            assert np.array_equal(kept.node_values, expected_nodes), backend
            for got in (result, kept):
                assert np.array_equal(got.energy, expected_energy), backend
                assert np.array_equal(
                    got.outputs, expected_nodes[circuit.outputs, :]
                ), backend

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_exact_backend_with_huge_weights(self, data):
        # Weights way beyond int64: only the exact backend applies, and it
        # must still match the arbitrary-precision reference.
        circuit = build_random_circuit(data, max_weight=1 << 80)
        batch = np.array(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, 1), min_size=4, max_size=4),
                    min_size=circuit.n_inputs,
                    max_size=circuit.n_inputs,
                )
            )
        )
        engine = Engine()
        result = engine.evaluate(circuit, batch, backend="exact", keep_nodes=True)
        assert (result.node_values == slow_reference(circuit, batch)).all()

    @pytest.mark.parametrize(
        "lane, scale",
        [("float32", 1 << 19), ("float64", 1 << 48), ("int64", 1 << 56)],
    )
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_every_lane_matches_evaluate_slow(self, lane, scale, data):
        # Weights near the lane's width and thresholds at subset sums +-1:
        # one lane too narrow would round those comparisons wrong.
        n_inputs = data.draw(st.integers(min_value=1, max_value=4))
        builder = CircuitBuilder()
        x = builder.allocate_inputs(n_inputs)
        # The anchor puts the plan's magnitude past the next-narrower lane.
        gates = [builder.add_gate([x[0]], [3 * scale], 3 * scale)]
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            available = n_inputs + len(gates)
            fan_in = data.draw(st.integers(min_value=1, max_value=min(4, available)))
            sources = data.draw(
                st.lists(
                    st.integers(0, available - 1),
                    min_size=fan_in,
                    max_size=fan_in,
                    unique=True,
                )
            )
            weights = [
                scale * data.draw(st.integers(-3, 3)) + data.draw(st.integers(-3, 3))
                for _ in sources
            ]
            subset = data.draw(st.lists(st.booleans(), min_size=fan_in, max_size=fan_in))
            threshold = sum(w for w, keep in zip(weights, subset) if keep)
            threshold += data.draw(st.integers(-1, 1))
            gates.append(builder.add_gate(sources, weights, threshold))
        builder.set_outputs(gates)
        circuit = builder.build()
        assert build_template_plan(circuit).lane == lane
        codes = np.arange(1 << n_inputs)
        batch = (codes[None, :] >> np.arange(n_inputs)[:, None]) & 1
        expected = slow_reference(circuit, batch)
        engine = Engine()
        for backend in BACKENDS:
            result = engine.evaluate(circuit, batch, backend=backend, keep_nodes=True)
            assert (result.node_values == expected).all(), backend
            outputs_only = engine.evaluate(circuit, batch, backend=backend)
            assert np.array_equal(outputs_only.outputs, expected[circuit.outputs])
            assert np.array_equal(outputs_only.energy, result.energy)
        for backend in ("sparse", "dense"):
            program = engine.compile(circuit, backend=backend)
            assert np.dtype(program.values_dtype).name == lane, backend

    def test_exact_backend_with_float_inputs(self):
        # check_batch_inputs accepts float 0.0/1.0; the exact backend must
        # coerce them to ints or w*1.0 rounds in float64 for huge weights.
        builder = CircuitBuilder()
        inputs = builder.allocate_inputs(2)
        w = (1 << 70) + 1
        gate = builder.add_gate(inputs, [w, 0], w)  # fires iff in0, exactly
        builder.set_outputs([gate])
        circuit = builder.build()
        result = Engine().evaluate(circuit, np.array([[1.0], [1.0]]))
        assert result.outputs[0, 0] == 1  # float64 rounding would yield 0

    def test_single_vector_squeeze_matches_slow_reference(self, rng):
        circuit = parity_circuit(5)
        engine = Engine()
        for _ in range(10):
            bits = rng.integers(0, 2, size=5)
            mine = engine.evaluate(circuit, bits, keep_nodes=True)
            expected = circuit.evaluate_slow(list(bits))
            assert mine.node_values.shape == expected.shape
            assert (mine.node_values == expected).all()
            assert mine.energy == expected[circuit.n_inputs :].sum()
            outputs_only = engine.evaluate(circuit, bits)
            assert outputs_only.node_values.shape == (0,)
            assert (outputs_only.outputs == expected[circuit.outputs]).all()
            assert outputs_only.energy == mine.energy

    def test_empty_batch(self):
        circuit = parity_circuit(3)
        engine = Engine()
        result = engine.evaluate(circuit, np.zeros((3, 0), dtype=np.int64))
        assert result.node_values.shape == (0, 0)
        assert result.energy.shape == (0,)
        kept = engine.evaluate(
            circuit, np.zeros((3, 0), dtype=np.int64), keep_nodes=True
        )
        assert kept.node_values.shape == (circuit.n_nodes, 0)


class TestCompileCache:
    def test_cache_hit_skips_recompilation(self):
        circuit = parity_circuit(6)
        engine = Engine()
        batch = np.zeros((6, 4), dtype=np.int64)
        engine.evaluate(circuit, batch)
        assert engine.compile_calls == 1
        engine.evaluate(circuit, batch)
        engine.evaluate(circuit, np.ones((6, 2), dtype=np.int64))
        assert engine.compile_calls == 1  # same structure: compiled once
        assert engine.cache_info().hits >= 2

    def test_structurally_identical_rebuild_hits(self):
        engine = Engine()
        engine.evaluate(parity_circuit(6), np.zeros((6, 1), dtype=np.int64))
        engine.evaluate(parity_circuit(6), np.zeros((6, 1), dtype=np.int64))
        assert engine.compile_calls == 1

    def test_different_structure_recompiles(self):
        engine = Engine()
        engine.evaluate(parity_circuit(4), np.zeros((4, 1), dtype=np.int64))
        engine.evaluate(parity_circuit(5), np.zeros((5, 1), dtype=np.int64))
        assert engine.compile_calls == 2

    def test_forced_backend_uses_separate_slot(self):
        circuit = parity_circuit(4)
        engine = Engine()
        engine.evaluate(circuit, np.zeros((4, 1), dtype=np.int64), backend="sparse")
        engine.evaluate(circuit, np.zeros((4, 1), dtype=np.int64), backend="dense")
        assert engine.compile_calls == 2
        engine.evaluate(circuit, np.zeros((4, 1), dtype=np.int64), backend="sparse")
        assert engine.compile_calls == 2

    def test_auto_alias_reuses_resolved_program(self):
        circuit = parity_circuit(4)
        engine = Engine()  # auto resolves to dense for this tiny circuit
        engine.evaluate(circuit, np.zeros((4, 1), dtype=np.int64))
        assert engine.compile_calls == 1
        engine.evaluate(circuit, np.zeros((4, 1), dtype=np.int64), backend="dense")
        assert engine.compile_calls == 1  # auto already compiled the dense program

    def test_auto_compile_costs_one_miss_and_one_slot(self):
        engine = Engine()
        engine.evaluate(parity_circuit(4), np.zeros((4, 1), dtype=np.int64))
        info = engine.cache_info()
        assert info.size == 1
        assert info.misses == 1
        assert engine.compile_calls == 1
        # A second auto evaluation is exactly one counted hit.
        engine.evaluate(parity_circuit(4), np.zeros((4, 1), dtype=np.int64))
        assert engine.cache_info().hits == 1

    def test_lru_eviction(self):
        engine = Engine(EngineConfig(cache_size=2))
        for bits in (3, 4, 5, 3):
            engine.evaluate(parity_circuit(bits), np.zeros((bits, 1), dtype=np.int64))
        # 3 was evicted by 5 (capacity 2), so it compiled twice
        assert engine.compile_calls == 4
        assert engine.cache_info().evictions >= 1

    def test_refresh_of_present_key_never_counts_as_eviction(self):
        # Regression: a put of an already-present key (the template/CSR
        # alias case) used to enter the eviction loop and bump the counter
        # even though nothing left the cache.
        from repro.engine.cache import CompileCache

        cache = CompileCache(2)
        cache.put(("h1", "sparse"), "a")
        cache.put(("h2", "sparse"), "b")
        cache.put(("h1", "sparse"), "a2")  # refresh, not an insert
        info = cache.info()
        assert info.evictions == 0
        assert info.size == 2
        # The refresh also moved h1 to the MRU end: inserting a third key
        # must evict h2, the actual least-recently-used entry.
        cache.put(("h3", "sparse"), "c")
        assert ("h1", "sparse") in cache
        assert ("h2", "sparse") not in cache
        assert cache.info().evictions == 1

    def test_zero_capacity_put_is_a_clean_noop(self):
        # Regression: capacity=0 used to pop from the empty store.
        from repro.engine.cache import CompileCache

        cache = CompileCache(0)
        cache.put(("h1", "sparse"), "a")
        info = cache.info()
        assert len(cache) == 0
        assert info.evictions == 0
        assert cache.get(("h1", "sparse")) is None

    def test_cache_disabled(self):
        engine = Engine(EngineConfig(cache_size=0))
        circuit = parity_circuit(4)
        engine.evaluate(circuit, np.zeros((4, 1), dtype=np.int64))
        engine.evaluate(circuit, np.zeros((4, 1), dtype=np.int64))
        assert engine.compile_calls == 2

    def test_clear_cache(self):
        engine = Engine()
        circuit = parity_circuit(4)
        engine.evaluate(circuit, np.zeros((4, 1), dtype=np.int64))
        engine.clear_cache()
        engine.evaluate(circuit, np.zeros((4, 1), dtype=np.int64))
        assert engine.compile_calls == 2

    def test_default_engine_is_shared_and_replaceable(self):
        previous = set_default_engine(None)
        try:
            assert default_engine() is default_engine()
            mine = Engine()
            set_default_engine(mine)
            assert default_engine() is mine
        finally:
            set_default_engine(previous)


class TestTemplateCacheAliasing:
    """Compiles of one structure must alias to one entry, provenance or not.

    The cache key is (structural_hash, backend) on purpose: a circuit
    compiles to bit-identical programs whether its gates run as template
    blocks or as residual runs, so a rebuild of the same circuit — with its
    provenance or with ``template_blocks`` cleared — must *hit* the entry a
    template compile stored, not coexist beside it, and eviction under
    ``cache_size=1`` must never hand back a program for the wrong circuit.
    """

    @staticmethod
    def _engine(**overrides):
        return Engine(
            EngineConfig(
                backend="sparse", template_min_cover=0.0, **overrides
            )
        )

    @staticmethod
    def _build(n=3):
        from repro.core.naive_circuits import build_naive_matmul_circuit

        return build_naive_matmul_circuit(n, bit_width=1, stages=2).circuit

    @classmethod
    def _build_stripped(cls, n=3):
        """A fresh rebuild without template provenance."""
        circuit = cls._build(n)
        circuit.template_blocks = []
        return circuit

    def test_template_blocks_then_stripped_rebuild_hits_same_entry(self):
        engine = self._engine()
        original = self._build()
        assert original.template_blocks  # the compile below is template-tiled
        program = engine.compile(original)
        assert engine.compile_calls == 1

        rebuilt = self._build()
        assert rebuilt.structural_hash() == original.structural_hash()
        assert engine.compile(rebuilt) is program
        stripped = self._build_stripped()
        assert engine.compile(stripped) is program
        assert engine.compile_calls == 1
        assert engine.cache_info().hits == 2

    def test_residual_compile_first_then_template_circuit_hits(self):
        engine = self._engine()
        stripped = self._build_stripped()
        assert build_template_plan(stripped).covered_gates == 0  # residual only
        program = engine.compile(stripped)
        original = self._build()
        assert engine.compile(original) is program
        assert engine.compile_calls == 1

    def test_maxsize_one_eviction_never_returns_stale_program(self):
        engine = self._engine(cache_size=1)
        circuit_a = self._build(2)
        circuit_b = self._build(3)
        inputs_a = np.ones((circuit_a.n_inputs, 1), dtype=np.int64)

        program_a = engine.compile(circuit_a)
        assert engine.compile(circuit_b) is not program_a  # A evicted
        assert engine.cache_info().evictions == 1
        # Recompiling A must rebuild, not resurrect anything stale.
        fresh_a = engine.compile(circuit_a)
        assert engine.compile_calls == 3
        assert fresh_a.n_nodes == circuit_a.n_nodes
        values = fresh_a.run(inputs_a, keep_nodes=True).nodes
        expected = circuit_a.evaluate_slow(list(inputs_a[:, 0]))
        assert (values[:, 0] == expected).all()

    def test_kept_and_stripped_provenance_bit_identical_for_cached_circuit(self):
        # The aliasing above is only sound because a circuit compiles to the
        # same values with and without its provenance; pin that directly on
        # the engine entry points.
        circuit = self._build()
        stripped = copy.copy(circuit)
        stripped.template_blocks = []
        inputs = np.ones((circuit.n_inputs, 2), dtype=np.int64)
        inputs[::2, 1] = 0
        with_templates = self._engine().evaluate(circuit, inputs, keep_nodes=True)
        without = self._engine().evaluate(stripped, inputs, keep_nodes=True)
        assert (with_templates.node_values == without.node_values).all()
        assert (with_templates.energy == without.energy).all()


class TestStructuralHash:
    def test_stable_and_label_insensitive(self):
        a = parity_circuit(5)
        b = parity_circuit(5)
        assert a.structural_hash() == b.structural_hash()
        b.name = "renamed"
        b.metadata["note"] = "irrelevant"
        b.output_labels = ["other"]
        assert a.structural_hash() == b.structural_hash()

    def test_changes_with_structure(self):
        a = parity_circuit(5)
        b = parity_circuit(4)
        assert a.structural_hash() != b.structural_hash()

    def test_invalidated_by_mutation(self):
        circuit = parity_circuit(4)
        before = circuit.structural_hash()
        circuit.add_threshold_gate([0], [1], 1)
        assert circuit.structural_hash() != before
        with_outputs = circuit.structural_hash()
        circuit.set_outputs([circuit.n_nodes - 1])
        assert circuit.structural_hash() != with_outputs


class TestBackendSelection:
    def test_small_circuit_goes_dense(self):
        circuit = parity_circuit(4)
        engine = Engine()
        assert engine.compile(circuit).backend_name == "dense"

    def test_large_sparse_circuit_goes_sparse(self):
        circuit = parity_circuit(8)
        engine = Engine(EngineConfig(dense_node_limit=4, dense_density=0.99))
        assert engine.compile(circuit).backend_name == "sparse"

    def test_overflowing_circuit_goes_exact(self):
        circuit = huge_weight_circuit()
        engine = Engine()
        assert engine.compile(circuit).backend_name == "exact"
        assert engine.evaluate(circuit, np.array([1, 0])).outputs[0] == 1
        assert engine.evaluate(circuit, np.array([1, 1])).outputs[0] == 0

    def test_forcing_fast_backend_on_overflow_raises(self):
        circuit = huge_weight_circuit()
        engine = Engine()
        with pytest.raises(BackendError):
            engine.compile(circuit, backend="dense")
        with pytest.raises(BackendError):
            engine.compile(circuit, backend="sparse")

    def test_unknown_backend_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError):
            engine.compile(parity_circuit(3), backend="gpu")
        with pytest.raises(ValueError):
            EngineConfig(backend="gpu")

    def test_selector_is_pure_heuristic(self):
        circuit = parity_circuit(4)
        plan = build_template_plan(circuit)
        stats = circuit.stats()
        assert select_backend_name(plan, stats, EngineConfig()) == "dense"
        assert (
            select_backend_name(plan, stats, EngineConfig(dense_node_limit=1, dense_density=0.99))
            == "sparse"
        )


class TestScheduler:
    def test_iter_column_chunks(self):
        assert list(iter_column_chunks(10, 4)) == [(0, 4), (4, 8), (8, 10)]
        assert list(iter_column_chunks(4, 4)) == [(0, 4)]
        assert list(iter_column_chunks(0, 4)) == []
        with pytest.raises(ValueError):
            list(iter_column_chunks(10, 0))

    def test_chunked_matches_unchunked(self, rng):
        circuit = parity_circuit(6)
        batch = rng.integers(0, 2, size=(6, 37))
        whole = Engine(EngineConfig(chunk_size=64)).evaluate(
            circuit, batch, keep_nodes=True
        )
        for chunk_size in (5, 1):
            engine = Engine(EngineConfig(chunk_size=chunk_size))
            chunked = engine.evaluate(circuit, batch, keep_nodes=True)
            assert (chunked.node_values == whole.node_values).all()
            assert (chunked.outputs == whole.outputs).all()
            assert (chunked.energy == whole.energy).all()
            outputs_only = engine.evaluate(circuit, batch)
            assert (outputs_only.outputs == whole.outputs).all()
            assert (outputs_only.energy == whole.energy).all()

    def test_parallel_matches_serial(self, rng):
        circuit = parity_circuit(6)
        batch = rng.integers(0, 2, size=(6, 48))
        serial = Engine().evaluate(circuit, batch, keep_nodes=True)
        config = EngineConfig(chunk_size=8, max_workers=2, parallel_threshold=16)
        for keep_nodes in (False, True):
            parallel = Engine(config).evaluate(circuit, batch, keep_nodes=keep_nodes)
            if keep_nodes:
                assert (parallel.node_values == serial.node_values).all()
            assert (parallel.outputs == serial.outputs).all()
            assert (parallel.energy == serial.energy).all()

    def test_workers_narrow_chunk_width(self, rng):
        # With workers requested, the scheduler must shard even when the
        # batch is smaller than chunk_size — no caller-side chunk math.
        circuit = parity_circuit(6)
        batch = rng.integers(0, 2, size=(6, 10))
        config = EngineConfig(chunk_size=2048, max_workers=2, parallel_threshold=1)
        sharded = Engine(config).evaluate(circuit, batch)
        serial = Engine().evaluate(circuit, batch)
        assert (sharded.outputs == serial.outputs).all()
        assert (sharded.energy == serial.energy).all()

    def test_pool_gated_behind_threshold(self, rng):
        # Below parallel_threshold the pool must not be required; results
        # still agree (we can't observe process count, but the path differs).
        circuit = parity_circuit(4)
        batch = rng.integers(0, 2, size=(4, 8))
        config = EngineConfig(chunk_size=2, max_workers=4, parallel_threshold=1000)
        result = Engine(config).evaluate(circuit, batch, keep_nodes=True)
        serial = Engine().evaluate(circuit, batch, keep_nodes=True)
        assert (result.node_values == serial.node_values).all()

    def test_run_serial_direct(self, rng):
        circuit = parity_circuit(5)
        engine = Engine()
        program = engine.compile(circuit, backend="sparse")
        batch = rng.integers(0, 2, size=(5, 13))
        expected = slow_reference(circuit, batch)
        kept = run_serial(program, batch, chunk_size=4, keep_nodes=True)
        assert (kept.nodes == expected).all()
        outputs, energy, nodes = run_serial(program, batch, chunk_size=4)
        assert nodes is None
        assert (outputs == expected[circuit.outputs]).all()
        assert (energy == expected[circuit.n_inputs :].sum(axis=0)).all()
        assert (kept.outputs == outputs).all() and (kept.energy == energy).all()


class TestSpikingMode:
    def test_trace_consistent_with_energy(self, rng):
        circuit = parity_circuit(6)
        batch = rng.integers(0, 2, size=(6, 20))
        engine = Engine()
        trace = engine.spike_trace(circuit, batch)
        result = engine.evaluate(circuit, batch, keep_nodes=True)
        assert (trace.energy == result.energy).all()
        assert (trace.spikes_per_layer.sum(axis=0) == result.energy).all()
        assert trace.batch == 20
        assert trace.gates_per_layer.sum() == circuit.size
        assert trace.gate_fire_counts.shape == (circuit.size,)
        assert (trace.gate_fire_counts == result.node_values[6:, :].sum(axis=1)).all()

    def test_cross_check_against_analysis_energy(self, rng):
        circuit = parity_circuit(6)
        vectors = [rng.integers(0, 2, size=6) for _ in range(12)]
        report = measure_circuit_energy(circuit, vectors)
        trace = Engine().spike_trace(circuit, np.stack(vectors, axis=1))
        assert float(trace.energy.mean()) == pytest.approx(report.mean_energy)
        assert int(trace.energy.max()) == report.max_energy
        assert int(trace.energy.min()) == report.min_energy

    def test_synaptic_events_counted_per_wire(self):
        builder = CircuitBuilder()
        inputs = builder.allocate_inputs(2)
        g1 = builder.add_gate(inputs, [1, 1], 1)  # OR
        g2 = builder.add_gate([inputs[0], g1], [1, 1], 2)  # AND(in0, or)
        builder.set_outputs([g2])
        circuit = builder.build()
        trace = Engine().spike_trace(circuit, np.array([[1], [0]]))
        # layer 1 receives in0=1, in1=0 -> 1 event; layer 2 receives in0=1, g1=1 -> 2
        assert trace.synaptic_events_per_layer[:, 0].tolist() == [1, 2]
        assert trace.energy[0] == 2

    def test_as_rows_and_dict(self, rng):
        circuit = parity_circuit(4)
        trace = Engine().spike_trace(circuit, rng.integers(0, 2, size=(4, 6)))
        rows = trace.as_rows()
        assert [row["layer"] for row in rows] == sorted(row["layer"] for row in rows)
        summary = trace.as_dict()
        assert summary["samples"] == 6
        assert summary["mean_energy"] == pytest.approx(float(trace.energy.mean()))

    def test_trace_pure_function_of_node_values(self, rng):
        circuit = parity_circuit(5)
        batch = rng.integers(0, 2, size=(5, 7))
        plan = ActivityPlan.from_circuit(circuit)
        node_values = Engine().evaluate(
            circuit, batch, backend="exact", keep_nodes=True
        ).node_values
        trace = compute_spike_trace(plan, node_values)
        assert (trace.energy == Engine().evaluate(circuit, batch).energy).all()
        with pytest.raises(ValueError):
            compute_spike_trace(plan, node_values[:-1, :])


class TestSimulateWrapper:
    def test_simulate_wrapper_routes_through_engine(self):
        previous = set_default_engine(None)
        try:
            circuit = parity_circuit(4)
            bits = np.array([1, 0, 1, 1])
            result = simulate(circuit, bits)
            assert result.outputs[0] == 1  # three ones -> odd parity
            assert default_engine().compile_calls >= 1
            # a private engine can be injected
            mine = Engine(EngineConfig(backend="sparse"))
            simulate(circuit, bits, engine=mine)
            assert mine.compile_calls == 1
        finally:
            set_default_engine(previous)


@pytest.fixture(scope="module")
def trace8():
    from repro.core.trace_circuit import build_trace_circuit

    return build_trace_circuit(8, 42, bit_width=1).circuit


class TestRunMemory:
    @pytest.mark.parametrize("backend", ["sparse", "dense"])
    def test_residual_layers_stay_within_node_buffer(self, trace8, backend):
        # Residual layers run one matrix product per layer and never build a
        # (wires, batch) temporary.  The trace circuit's last residual layer
        # is one gate over 78,464 wires against 119,465 nodes, so a per-wire
        # gather alone would cost two thirds of the node buffer.  Its plan
        # runs in the float32 lane, so the node buffer is 0.5 of an int64
        # buffer; an outputs-only run adds no int8 copy of it, and a stamp
        # chunk's matrix stays within 1/32 of the node buffer or the 256 KiB
        # floor (1 MiB chunks would cross the bound here).
        import tracemalloc

        batch = 16
        inputs = np.random.default_rng(0).integers(
            0, 2, size=(trace8.n_inputs, batch)
        ).astype(np.int8)
        program = Engine(EngineConfig(backend=backend)).compile(trace8)
        assert program.values_dtype == np.float32
        tracemalloc.start()
        try:
            program.run(inputs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        int64_buffer = trace8.n_nodes * batch * 8
        assert peak <= 0.55 * int64_buffer, peak / int64_buffer


class TestRunBufferBudget:
    def test_wide_batch_runs_in_budgeted_chunks(self, monkeypatch):
        # With the run-buffer budget patched to 64 columns of trace n=4's
        # float32 node buffer, a batch of 4096 runs as 64 chunks of 64
        # columns, and the whole evaluation holds one chunk's buffer plus
        # the batch's outputs and energy (and a fixed slack for one stamp
        # chunk and the input check), not a 2048-column buffer.
        import tracemalloc

        from repro.core.trace_circuit import build_trace_circuit
        from repro.engine import backends

        circuit = build_trace_circuit(4, 10, bit_width=1).circuit
        engine = Engine()
        program = engine.compile(circuit)
        assert program.values_dtype == np.float32
        budget = 64 * circuit.n_nodes * 4
        monkeypatch.setattr(backends, "_RUN_BUFFER_BYTES", budget)
        assert backends.run_chunk_width(program, 2048) == 64
        widths = []
        run = type(program).run

        def counted(self, inputs, keep_nodes=False):
            widths.append(inputs.shape[1])
            return run(self, inputs, keep_nodes)

        monkeypatch.setattr(type(program), "run", counted)
        batch = 4096
        inputs = np.random.default_rng(0).integers(
            0, 2, size=(circuit.n_inputs, batch)
        ).astype(np.int8)
        tracemalloc.start()
        try:
            result = engine.evaluate(circuit, inputs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert widths == [64] * 64
        held = batch * (len(circuit.outputs) + 8)
        assert peak <= budget + held + (1 << 20), (peak, budget)
        monkeypatch.setattr(type(program), "run", run)
        whole = Engine().evaluate(circuit, inputs[:, :256], keep_nodes=True)
        assert (result.outputs[:, :256] == whole.outputs).all()
        assert (result.energy[:256] == whole.energy).all()

    def test_width_rule(self, monkeypatch):
        from repro.engine import backends

        program = Engine().compile(parity_circuit(4))
        column = program.n_nodes * np.dtype(program.values_dtype).itemsize
        assert backends.run_chunk_width(program, 2048) == 2048
        monkeypatch.setattr(backends, "_RUN_BUFFER_BYTES", 5 * column + 1)
        assert backends.run_chunk_width(program, 2048) == 5
        assert backends.run_chunk_width(program, 3) == 3
        monkeypatch.setattr(backends, "_RUN_BUFFER_BYTES", 1)
        assert backends.run_chunk_width(program, 2048) == 1


class TestDenseBudget:
    def test_oversized_dense_layer_refused_without_allocating(self):
        # 200,000 gates, each reading its own input: one depth layer whose
        # sources fill their id range, so the dense matrix would be
        # 200,000 x 200,000 float32 (149 GiB).  The compile refuses it by
        # size before allocating anything of that order.
        import tracemalloc

        from repro.circuits.circuit import ThresholdCircuit

        n = 200_000
        circuit = ThresholdCircuit(n, name="wide-layer")
        circuit.add_gates(
            np.arange(n, dtype=np.int64),
            np.arange(n + 1, dtype=np.int64),
            np.ones(n, dtype=np.int64),
            np.ones(n, dtype=np.int64),
        )
        circuit.set_outputs([n, 2 * n - 1])
        engine = Engine()
        tracemalloc.start()
        try:
            with pytest.raises(BackendError, match=r"160,000,000,000 bytes"):
                engine.compile(circuit, backend="dense")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20, peak
        assert engine.compile(circuit).backend_name == "sparse"  # auto
        inputs = np.random.default_rng(0).integers(0, 2, size=(n, 2)).astype(np.int8)
        assert (engine.evaluate(circuit, inputs).outputs == inputs[[0, -1]]).all()


    def test_auto_skips_dense_past_the_budget(self, monkeypatch):
        # The density rule picks dense only while size x n_nodes entries of
        # 8 bytes fit the budget, so auto never meets a refused compile.
        import repro.engine.backends as backends

        circuit = parity_circuit(16)
        config = EngineConfig(dense_node_limit=0)
        plan = build_template_plan(circuit)
        assert select_backend_name(plan, circuit.stats(), config) == "dense"
        entries = circuit.size * circuit.n_nodes
        monkeypatch.setattr(backends, "_DENSE_MATRIX_BYTES", entries * 8 - 1)
        assert select_backend_name(plan, circuit.stats(), config) == "sparse"


class TestZeroWidthBatches:
    def test_engine_evaluate_zero_width(self):
        circuit = parity_circuit(4)
        engine = Engine()
        result = engine.evaluate(circuit, np.zeros((4, 0), dtype=np.int8))
        assert result.node_values.shape == (0, 0)
        assert result.node_values.dtype == np.int8
        assert result.outputs.shape == (1, 0)
        kept = engine.evaluate(circuit, np.zeros((4, 0), dtype=np.int8), keep_nodes=True)
        assert kept.node_values.shape == (circuit.n_nodes, 0)
        assert kept.node_values.dtype == np.int8

    def test_run_serial_zero_width_all_backends(self):
        circuit = parity_circuit(3)
        empty = np.zeros((3, 0), dtype=np.int8)
        for backend in BACKENDS:
            engine = Engine(EngineConfig(backend=backend))
            result = engine.evaluate(circuit, empty, keep_nodes=True)
            assert result.node_values.shape == (circuit.n_nodes, 0)
            direct = run_serial(engine.compile(circuit), empty, chunk_size=4)
            assert direct.outputs.shape == (1, 0) and direct.nodes is None

    def test_trace_evaluate_batch_empty(self):
        from repro.core.trace_circuit import build_trace_circuit

        trace = build_trace_circuit(2, 1, depth_parameter=1)
        out = trace.evaluate_batch([])
        assert out.shape == (0,)
        assert out.dtype == bool


class TestConfigValidation:
    """Every numeric knob must reject nonsense instead of mis-sharding."""

    def test_defaults_are_valid(self):
        EngineConfig()

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("cache_size", -1),
            ("chunk_size", 0),
            ("chunk_size", -3),
            ("max_workers", -1),
            ("parallel_threshold", 0),
            ("parallel_threshold", -5),
            ("dense_node_limit", -1),
            ("dense_density", 0.0),
            ("dense_density", -0.5),
            ("dense_density", float("nan")),
            ("template_min_cover", -0.1),
            ("template_min_cover", 1.1),
            ("service_queue_depth", 0),
            ("service_queue_depth", -2),
            ("service_store_size", 0),
            ("service_store_size", -1),
        ],
    )
    def test_bad_values_rejected(self, field, bad):
        with pytest.raises(ValueError):
            EngineConfig(**{field: bad})

    def test_with_overrides_revalidates(self):
        config = EngineConfig()
        with pytest.raises(ValueError):
            config.with_overrides(parallel_threshold=0)
        assert config.with_overrides(parallel_threshold=2).parallel_threshold == 2

    def test_boundary_values_accepted(self):
        config = EngineConfig(
            parallel_threshold=1,
            dense_node_limit=0,
            service_queue_depth=1,
            service_store_size=1,
        )
        assert config.service_store_size == 1


class TestActivityPlanMemoization:
    def test_trace_plan_built_once_with_cache_disabled(self, monkeypatch, rng):
        # Regression: with cache_size=0 the lazily-built ActivityPlan used to
        # be memoized on a _CacheEntry that was never stored, so every
        # spike_trace call on a template-compiled circuit rebuilt the plan.
        from repro.core.naive_circuits import build_naive_matmul_circuit
        from repro.engine.spiking import ActivityPlan

        circuit = build_naive_matmul_circuit(3, bit_width=1, stages=2).circuit
        assert circuit.template_blocks  # precondition: template compile path

        calls = []
        original = ActivityPlan.from_circuit.__func__

        def counting(cls, target):
            calls.append(target)
            return original(cls, target)

        monkeypatch.setattr(ActivityPlan, "from_circuit", classmethod(counting))
        engine = Engine(
            EngineConfig(backend="sparse", cache_size=0, template_min_cover=0.0)
        )
        batch = rng.integers(0, 2, size=(circuit.n_inputs, 3))
        first = engine.spike_trace(circuit, batch)
        second = engine.spike_trace(circuit, batch)
        assert len(calls) == 1  # built lazily, exactly once
        assert (first.energy == second.energy).all()
        # The plan is genuinely the lazily-built one (template compiles skip
        # the global layer pass), and results match a fresh default engine.
        reference = Engine().spike_trace(circuit, batch)
        assert (first.energy == reference.energy).all()
        assert (first.spikes_per_layer == reference.spikes_per_layer).all()

    def test_cached_entries_not_mutated_by_trace(self, rng):
        # The compile-cache entry must stay exactly as compiled: lazily-built
        # plans live on the engine (keyed by hash), not on shared entries.
        from repro.core.naive_circuits import build_naive_matmul_circuit

        circuit = build_naive_matmul_circuit(3, bit_width=1, stages=2).circuit
        engine = Engine(
            EngineConfig(backend="sparse", template_min_cover=0.0)
        )
        entry = engine._entry(circuit)
        before = dict(vars(entry))
        batch = rng.integers(0, 2, size=(circuit.n_inputs, 2))
        engine.spike_trace(circuit, batch)
        assert vars(entry) == before
        assert circuit.structural_hash() in engine._activity_plans

    def test_clear_cache_drops_memoized_plans(self, rng):
        from repro.core.naive_circuits import build_naive_matmul_circuit

        circuit = build_naive_matmul_circuit(3, bit_width=1, stages=2).circuit
        engine = Engine(
            EngineConfig(backend="sparse", template_min_cover=0.0)
        )
        engine.spike_trace(circuit, rng.integers(0, 2, size=(circuit.n_inputs, 2)))
        assert engine._activity_plans
        engine.clear_cache()
        assert not engine._activity_plans


class TestTelemetry:
    """EngineConfig.telemetry wires the engine into the process registry."""

    @pytest.fixture(autouse=True)
    def _restore_registry(self):
        from repro import obs

        yield
        obs.disable()

    def test_config_enables_process_telemetry(self, rng):
        from repro import obs

        circuit = parity_circuit(4)
        engine = Engine(EngineConfig(backend="sparse", telemetry=True))
        assert engine.metrics.enabled
        assert engine.metrics is obs.get_registry()
        batch = rng.integers(0, 2, size=(4, 8))
        engine.evaluate(circuit, batch)
        snap = engine.metrics.snapshot()
        assert snap["counters"].get("cache.misses{backend=sparse}") == 1
        assert snap["counters"].get("engine.eval_columns{backend=sparse}") == 8
        compile_series = [
            key for key in snap["histograms"] if key.startswith("engine.compile_s")
        ]
        assert compile_series
        assert snap["histograms"][compile_series[0]]["count"] == 1

    def test_second_engine_does_not_reset_registry(self, rng):
        engine = Engine(EngineConfig(backend="sparse", telemetry=True))
        engine.metrics.counter("sentinel").inc()
        other = Engine(EngineConfig(backend="dense", telemetry=True))
        assert other.metrics is engine.metrics
        assert other.metrics.value("sentinel") == 1

    def test_plan_memo_counters(self, rng):
        # The engine builds the activity plan lazily on the first trace and
        # memoizes it by structural hash.
        from repro.core.naive_circuits import build_naive_matmul_circuit

        circuit = build_naive_matmul_circuit(3, bit_width=1, stages=2).circuit
        engine = Engine(
            EngineConfig(backend="sparse", telemetry=True, template_min_cover=0.0)
        )
        batch = rng.integers(0, 2, size=(circuit.n_inputs, 2))
        # Cached entries are never mutated by a trace, so the second call
        # re-enters the memo and hits.
        engine.spike_trace(circuit, batch)
        engine.spike_trace(circuit, batch)
        registry = engine.metrics
        assert registry.value("engine.plan_memo.misses") >= 1
        assert registry.value("engine.plan_memo.hits") >= 1

    def test_telemetry_off_keeps_null_registry(self, rng):
        from repro.obs import get_registry

        circuit = parity_circuit(4)
        engine = Engine(EngineConfig(backend="sparse"))
        engine.evaluate(circuit, rng.integers(0, 2, size=(4, 4)))
        assert not engine.metrics.enabled
        assert get_registry().snapshot()["counters"] == {}
