"""Unit tests for the columnar gate store, bulk add_gates and templates."""

import numpy as np
import pytest

from repro.circuits.builder import CircuitBuilder
from repro.circuits.circuit import ThresholdCircuit
from repro.circuits.gate import Gate
from repro.circuits.serialize import (
    circuit_from_dict,
    circuit_to_dict,
    structural_digest,
)
from repro.circuits.simulator import build_template_plan, simulate
from repro.circuits.store import IntVector, segment_max, segment_sum


class TestIntVector:
    def test_append_extend_roundtrip(self):
        vec = IntVector(capacity=2)
        for i in range(10):
            vec.append(i)
        vec.extend(np.arange(10, 20))
        assert len(vec) == 20
        assert vec.view().tolist() == list(range(20))
        assert vec[7] == 7
        assert vec.max() == 19

    def test_empty_max_default(self):
        assert IntVector().max(default=-1) == -1


class TestSegmentHelpers:
    def test_segment_max_with_empty_segments(self):
        values = np.asarray([5, 1, 9, 2], dtype=np.int64)
        offsets = np.asarray([0, 2, 2, 3, 4], dtype=np.int64)
        assert segment_max(values, offsets).tolist() == [5, 0, 9, 2]

    def test_segment_sum_with_empty_segments(self):
        values = np.asarray([5, 1, 9, 2], dtype=np.int64)
        offsets = np.asarray([0, 2, 2, 3, 4], dtype=np.int64)
        assert segment_sum(values, offsets).tolist() == [6, 0, 9, 2]


def _bulk(circuit, rows, **kwargs):
    """Helper: add gates given as (sources, weights, threshold) rows."""
    sources = [s for row in rows for s in row[0]]
    weights = [w for row in rows for w in row[1]]
    offsets = [0]
    for row in rows:
        offsets.append(offsets[-1] + len(row[0]))
    return circuit.add_gates(
        np.asarray(sources, dtype=np.int64),
        np.asarray(offsets, dtype=np.int64),
        weights,
        [row[2] for row in rows],
        **kwargs,
    )


class TestBulkAddGates:
    def test_matches_per_gate_path(self):
        rows = [([0, 1], [1, -2], 1), ([0], [3], 2), ([], [], 0)]
        a = ThresholdCircuit(2)
        for sources, weights, threshold in rows:
            a.add_gate(Gate(sources, weights, threshold))
        b = ThresholdCircuit(2)
        _bulk(b, rows)
        assert structural_digest(a) == structural_digest(b)
        assert a.stats() == b.stats()

    def test_intra_batch_references_and_depths(self):
        circuit = ThresholdCircuit(2)
        # Gate 2 reads inputs; gate 3 reads gate 2; gate 4 reads gates 2+3.
        _bulk(circuit, [([0, 1], [1, 1], 1), ([2], [1], 1), ([2, 3], [1, 1], 2)])
        assert circuit.gate_depths().tolist() == [1, 2, 3]
        reference = ThresholdCircuit(2)
        reference.add_gate(Gate([0, 1], [1, 1], 1))
        reference.add_gate(Gate([2], [1], 1))
        reference.add_gate(Gate([2, 3], [1, 1], 2))
        assert structural_digest(circuit) == structural_digest(reference)

    def test_forward_reference_rejected(self):
        circuit = ThresholdCircuit(1)
        with pytest.raises(ValueError):
            _bulk(circuit, [([2], [1], 1), ([0], [1], 1)])  # row 0 reads row 1

    def test_negative_source_rejected(self):
        circuit = ThresholdCircuit(1)
        with pytest.raises(ValueError):
            _bulk(circuit, [([-1], [1], 1)])

    def test_ragged_arrays_rejected(self):
        circuit = ThresholdCircuit(1)
        with pytest.raises(ValueError):
            circuit.add_gates(
                np.asarray([0], dtype=np.int64),
                np.asarray([0, 1], dtype=np.int64),
                [1, 2],  # one extra weight
                [1],
            )

    def test_duplicate_sources_canonicalized_like_gate(self):
        gate = Gate([3, 0, 3], [1, 2, 5], 4)
        circuit = ThresholdCircuit(4)
        _bulk(circuit, [([3, 0, 3], [1, 2, 5], 4)])
        assert circuit.gates[0].sources == gate.sources
        assert circuit.gates[0].weights == gate.weights
        per_gate = ThresholdCircuit(4)
        per_gate.add_gate(gate)
        assert structural_digest(circuit) == structural_digest(per_gate)

    def test_big_weights_fall_back_to_exact_storage(self):
        huge = 1 << 80
        circuit = ThresholdCircuit(2)
        _bulk(circuit, [([0, 1], [huge, -huge], huge)])
        assert circuit.gates[0].weights == (huge, -huge)
        assert circuit.stats().max_abs_weight == huge
        plan = build_template_plan(circuit)
        assert not plan.int64_safe
        values = simulate(circuit, np.asarray([1, 0]))
        assert values.node_values.tolist() == [1, 0, 1]  # huge*1 >= huge fires
        values = simulate(circuit, np.asarray([0, 1]))
        assert values.node_values.tolist() == [0, 1, 0]

    def test_duplicate_merge_overflowing_int64_degrades_exactly(self):
        # Merging duplicate sources can push an in-range weight past int64;
        # the store must flip to exact object columns, not wrap or crash.
        big = 1 << 62
        circuit = ThresholdCircuit(1)
        _bulk(circuit, [([0, 0], [big, big], 1)])
        assert circuit.gates[0].weights == (1 << 63,)
        assert circuit.stats().max_abs_weight == 1 << 63
        assert circuit.structural_hash()  # consolidation must not raise
        per_gate = ThresholdCircuit(1)
        per_gate.add_gate(Gate([0, 0], [big, big], 1))
        assert structural_digest(circuit) == structural_digest(per_gate)

    def test_stats_cached_and_invalidated(self):
        circuit = ThresholdCircuit(1)
        circuit.add_gate(Gate([0], [1], 1))
        first = circuit.stats()
        assert circuit.stats() is first  # cached object
        circuit.add_gate(Gate([0], [1], 1))
        second = circuit.stats()
        assert second is not first
        assert second.size == 2


class TestGateView:
    def test_view_indexing_and_iteration(self):
        circuit = ThresholdCircuit(2)
        ids = [circuit.add_gate(Gate([0], [1], 1, tag=f"t{i}")) for i in range(4)]
        view = circuit.gates
        assert len(view) == 4
        assert view[-1].tag == "t3"
        assert [g.tag for g in view] == ["t0", "t1", "t2", "t3"]
        assert [g.tag for g in view[1:3]] == ["t1", "t2"]
        assert circuit.gate_of(ids[2]).tag == "t2"
        with pytest.raises(IndexError):
            view[4]


class TestSharingAndTagCounts:
    def test_bulk_add_respects_sharing_cache(self):
        builder = CircuitBuilder(share_gates=True)
        inputs = builder.allocate_inputs(2)
        first = builder.add_gate(inputs, [1, 1], 2, tag="x")
        ids = builder.add_gates(
            np.asarray([0, 1, 0], dtype=np.int64),
            np.asarray([0, 2, 3], dtype=np.int64),
            [1, 1, 1],
            [2, 1],
            tag="x",
        )
        assert int(ids[0]) == first  # deduplicated against the earlier gate
        assert builder.size == 2

    def test_bulk_tag_counts_match_per_gate(self):
        bulk = CircuitBuilder()
        bulk.allocate_inputs(2)
        bulk.add_gates(
            np.asarray([0, 1], dtype=np.int64),
            np.asarray([0, 1, 2], dtype=np.int64),
            [1, 1],
            [1, 1],
            tag=["a", "b"],
        )
        assert bulk.tag_counts() == {"a": 1, "b": 1}


class TestTemplates:
    def test_stamped_copies_match_legacy(self):
        builder = CircuitBuilder()
        inputs = builder.allocate_inputs(4)

        def emit(recorder):
            g = recorder.add_gate([0, 1], [1, 1], 2, tag="tpl/and")
            return recorder.add_gate([g], [1], 1, tag="tpl/copy")

        stamper = builder.stamper
        results = stamper.stamp_all(
            key=("pair",),
            n_params=2,
            params_list=[[0, 1], [2, 3], [1, 2]],
            emit_template=emit,
            emit_legacy=lambda i: None,
        )
        circuit = builder.build()
        reference = CircuitBuilder(vectorize=False)
        reference.allocate_inputs(4)
        for a, b in ([0, 1], [2, 3], [1, 2]):
            g = reference.add_gate([a, b], [1, 1], 2, tag="tpl/and")
            reference.add_gate([g], [1], 1, tag="tpl/copy")
        assert circuit.structural_hash() == reference.build().structural_hash()
        assert builder.tag_counts() == reference.tag_counts()
        # Results are the mapped copy-local output nodes, in instance order.
        assert results == [5, 7, 9]

    def test_duplicate_params_use_legacy_emitter(self):
        builder = CircuitBuilder()
        builder.allocate_inputs(2)
        legacy_calls = []

        def emit(recorder):
            return recorder.add_gate([0, 1], [1, 1], 2, tag="t")

        def emit_legacy(i):
            legacy_calls.append(i)
            return builder.add_gate([0, 0], [1, 1], 2, tag="t")

        builder.stamper.stamp_all(
            key=("dup",),
            n_params=2,
            params_list=[[0, 1], [0, 0], [1, 0]],
            emit_template=emit,
            emit_legacy=emit_legacy,
        )
        assert legacy_calls == [1]
        # The duplicate-parameter copy merged its sources via Gate.
        assert builder.circuit.gates[1].sources == (0,)
        assert builder.circuit.gates[1].weights == (2,)


class TestSerializeBulk:
    def test_roundtrip_preserves_structure_and_tags(self):
        builder = CircuitBuilder()
        inputs = builder.allocate_inputs(3)
        g = builder.add_gate(inputs, [1, -2, 3], 1, tag="alpha")
        builder.add_gate([g, inputs[0]], [1, 1], 2, tag="beta")
        builder.set_outputs([g], ["out"])
        circuit = builder.build()
        clone = circuit_from_dict(circuit_to_dict(circuit))
        assert clone.structural_hash() == circuit.structural_hash()
        assert [gate.tag for gate in clone.gates] == ["alpha", "beta"]
        assert clone.output_labels == ["out"]

    def test_handwritten_payload_with_duplicates_loads_canonically(self):
        payload = {
            "format": "repro-threshold-circuit",
            "version": 1,
            "name": "dup",
            "n_inputs": 2,
            "gates": [[[1, 1, 0], [1, 1, 1], 2, ""]],
            "outputs": [],
            "output_labels": [],
            "metadata": {},
        }
        circuit = circuit_from_dict(payload)
        assert circuit.gates[0].sources == (0, 1)
        assert circuit.gates[0].weights == (1, 2)
