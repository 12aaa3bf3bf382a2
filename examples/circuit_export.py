#!/usr/bin/env python
"""Exporting a circuit: optimization passes, validation, JSON serialization.

A neuromorphic toolchain consuming these circuits needs a concrete netlist.
This example builds a small matrix-product circuit, applies the two
semantics-preserving optimization passes (structural deduplication and
dead-gate elimination), validates the result against a fan-in budget, writes
it to JSON and reads it back.

Run with ``python examples/circuit_export.py``.
"""

import os
import tempfile

import numpy as np

from repro.analysis import format_table
from repro.circuits import (
    deduplicate_gates,
    dump_circuit,
    eliminate_dead_gates,
    layer_profile,
    load_circuit,
    validate_circuit,
)
from repro.core import build_matmul_circuit
from repro.engine import default_engine


def main() -> None:
    rng = np.random.default_rng(3)
    circuit = build_matmul_circuit(2, bit_width=2, depth_parameter=1)
    original = circuit.circuit

    deduped, _ = deduplicate_gates(original)
    pruned, _ = eliminate_dead_gates(deduped)

    rows = [
        {"stage": "as constructed", "gates": original.size, "edges": original.edges},
        {"stage": "after dedup", "gates": deduped.size, "edges": deduped.edges},
        {"stage": "after dead-gate elimination", "gates": pruned.size, "edges": pruned.edges},
    ]
    print("Optimization passes on the 2x2 product circuit:")
    print(format_table(rows))

    report = validate_circuit(pruned, require_outputs=True, max_fan_in=4096)
    print(f"\nValidation: {'OK' if report.ok else report.issues}")

    print("\nGates per layer (after optimization):")
    print(format_table(layer_profile(pruned).as_rows()))

    path = os.path.join(tempfile.gettempdir(), "repro-matmul-2x2.json")
    dump_circuit(pruned, path)
    restored = load_circuit(path)
    print(f"\nSerialized to {path} ({os.path.getsize(path) / 1024:.1f} KiB) and reloaded:")
    print(f"  gates={restored.size}, depth={restored.depth}, outputs={len(restored.outputs)}")

    # The reloaded, optimized circuit still computes the right product.  The
    # engine picks a backend from the circuit's stats and caches the program.
    # Optimization keeps the declared outputs in order, so the construction's
    # decode plan (product entry -> output rows) reads the new circuit too.
    engine = default_engine()
    a = rng.integers(-3, 4, (2, 2))
    b = rng.integers(-3, 4, (2, 2))
    outputs = engine.evaluate(restored, circuit.encode_pairs([(a, b)])).outputs
    print(f"  engine backend: {engine.compile(restored).backend_name}")
    (product,) = circuit.decode_outputs(outputs)
    print("  reloaded circuit computes A @ B correctly:", (product == a @ b).all())


if __name__ == "__main__":
    main()
