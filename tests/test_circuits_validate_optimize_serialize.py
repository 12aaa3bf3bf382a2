"""Tests for validation, optimization passes and JSON serialization."""

import io

import numpy as np
import pytest

from repro.circuits.builder import CircuitBuilder
from repro.circuits.circuit import ThresholdCircuit
from repro.circuits.gate import Gate
from repro.circuits.optimize import deduplicate_gates, eliminate_dead_gates
from repro.circuits.serialize import (
    circuit_from_dict,
    circuit_to_dict,
    dump_circuit,
    load_circuit,
)
from repro.circuits.simulator import simulate
from repro.circuits.validate import validate_circuit


def build_redundant_circuit():
    builder = CircuitBuilder(name="redundant")
    inputs = builder.allocate_inputs(3)
    g1 = builder.add_gate(inputs[:2], [1, 1], 2, tag="and")
    g2 = builder.add_gate(inputs[:2], [1, 1], 2, tag="and")   # duplicate of g1
    g3 = builder.add_gate([g1, inputs[2]], [1, 1], 1, tag="or")
    g4 = builder.add_gate([g2, inputs[2]], [1, 1], 1, tag="or")  # dup after merging g1/g2
    dead = builder.add_gate(inputs, [1, 1, 1], 3, tag="dead")
    builder.set_outputs([g3, g4], ["a", "b"])
    return builder.build()


class TestValidate:
    def test_valid_circuit_passes(self):
        report = validate_circuit(build_redundant_circuit(), require_outputs=True)
        assert report.ok
        report.raise_if_invalid()  # should not raise

    def test_fan_in_budget(self):
        report = validate_circuit(build_redundant_circuit(), max_fan_in=3)
        assert report.ok
        report = validate_circuit(build_redundant_circuit(), max_fan_in=2)
        assert not report.ok
        assert len(report.issues) == 1  # only the fan-in-3 dead gate violates it

    def test_depth_budget(self):
        assert not validate_circuit(build_redundant_circuit(), max_depth=1).ok

    def test_missing_outputs_detected(self):
        circuit = ThresholdCircuit(1)
        circuit.add_gate(Gate([0], [1], 1))
        assert not validate_circuit(circuit, require_outputs=True).ok

    def test_raise_if_invalid(self):
        circuit = ThresholdCircuit(1)
        circuit.add_gate(Gate([0], [1], 1))
        report = validate_circuit(circuit, require_outputs=True)
        with pytest.raises(ValueError):
            report.raise_if_invalid()


class TestOptimize:
    def test_deduplication_merges_cascading_duplicates(self):
        circuit = build_redundant_circuit()
        optimized, node_map = deduplicate_gates(circuit)
        # g1/g2 merge, then g3/g4 merge; the dead gate stays.
        assert optimized.size == circuit.size - 2
        assert node_map[circuit.outputs[0]] == node_map[circuit.outputs[1]]

    def test_deduplication_preserves_semantics(self, rng):
        circuit = build_redundant_circuit()
        optimized, _ = deduplicate_gates(circuit)
        for _ in range(10):
            inputs = rng.integers(0, 2, size=3)
            original = simulate(circuit, inputs).outputs
            reduced = simulate(optimized, inputs).outputs
            assert (original == reduced).all()

    def test_dead_gate_elimination(self):
        circuit = build_redundant_circuit()
        pruned, _ = eliminate_dead_gates(circuit)
        assert pruned.size == circuit.size - 1  # only the dead gate goes
        report = validate_circuit(pruned, require_outputs=True)
        assert report.ok

    def test_dead_gate_elimination_requires_outputs(self):
        circuit = ThresholdCircuit(1)
        circuit.add_gate(Gate([0], [1], 1))
        with pytest.raises(ValueError):
            eliminate_dead_gates(circuit)


class TestSerialize:
    def test_roundtrip_preserves_structure_and_semantics(self, rng):
        circuit = build_redundant_circuit()
        circuit.metadata["note"] = "test"
        payload = circuit_to_dict(circuit)
        restored = circuit_from_dict(payload)
        assert restored.size == circuit.size
        assert restored.n_inputs == circuit.n_inputs
        assert restored.outputs == circuit.outputs
        assert restored.metadata == circuit.metadata
        for _ in range(5):
            inputs = rng.integers(0, 2, size=3)
            assert (
                simulate(circuit, inputs).outputs
                == simulate(restored, inputs).outputs
            ).all()

    def test_file_roundtrip(self, tmp_path):
        circuit = build_redundant_circuit()
        path = str(tmp_path / "circuit.json")
        dump_circuit(circuit, path)
        restored = load_circuit(path)
        assert restored.size == circuit.size

    def test_stream_roundtrip(self):
        circuit = build_redundant_circuit()
        stream = io.StringIO()
        dump_circuit(circuit, stream)
        stream.seek(0)
        assert load_circuit(stream).size == circuit.size

    def test_rejects_foreign_payload(self):
        with pytest.raises(ValueError):
            circuit_from_dict({"format": "something-else"})

    def test_rejects_unknown_version(self):
        with pytest.raises(ValueError):
            circuit_from_dict({"format": "repro-threshold-circuit", "version": 99})

    def test_failed_dump_leaves_previous_file_and_no_litter(self, tmp_path):
        import os

        path = str(tmp_path / "circuit.json")
        good = build_redundant_circuit()
        dump_circuit(good, path)
        before = open(path).read()

        bad = build_redundant_circuit()
        bad.metadata["poison"] = object()  # json.dump chokes mid-write
        with pytest.raises(TypeError):
            dump_circuit(bad, path)
        # The interrupted dump neither clobbered the published file nor
        # left its staging temp file behind.
        assert open(path).read() == before
        assert os.listdir(tmp_path) == ["circuit.json"]
        assert load_circuit(path).size == good.size

    def test_trusted_load_skips_static_verification(self, monkeypatch):
        import repro.statics

        payload = circuit_to_dict(build_redundant_circuit())

        def boom(*args, **kwargs):
            raise AssertionError("verifier must not run on the trusted path")

        monkeypatch.setattr(repro.statics, "verify_circuit", boom)
        with pytest.raises(AssertionError):
            circuit_from_dict(payload)  # default path verifies (and explodes)
        trusted = circuit_from_dict(payload, trusted=True)
        assert trusted.size == build_redundant_circuit().size
        assert circuit_from_dict(payload, validate=False).size == trusted.size
