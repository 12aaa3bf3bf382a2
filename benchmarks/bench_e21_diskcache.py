"""E21 — Disk artifact cache: cold-start restore vs full recompile.

The disk artifact store exists so a process that has *already* compiled a
circuit — in a previous run, on another worker, on the same host yesterday
— never pays the compile again.  This benchmark measures exactly that gap.

Both sides start from the same place: a serialized circuit payload, which
is all a fresh consumer process has.  The cold side pays the full pipeline
— rebuild the circuit from its payload (``circuit_from_dict`` with
validation *disabled*, which is charitable to the cold side), recompute
the structural hash, and run the consolidated-CSR compile (the JSON
round-trip drops template provenance, so this is the classic compile a
``load_circuit`` caller gets).  The warm side replaces all three steps
with a single key-addressed ``DiskArtifactStore.get``, which includes the
full integrity pass (per-file SHA-256) plus the memmap-backed unpickle.

Publication uses the template-compiled program from the producer process;
the structural hash deliberately excludes provenance, so the artifact hits
for the provenance-less consumer circuit — and the restored program must
be bit-identical to the consumer's own fresh compile on a probe batch.
The headline case (naive matmul n = 64) must restore at least 100x faster
than the cold pipeline; measured headroom on the reference machine is
roughly 10x beyond the floor.

Rows follow the bench_e* convention and are written to ``BENCH_e21.json``
at the repository root (uploaded by CI alongside e17–e20).  Set
``E21_QUICK=1`` for the CI-sized quick mode.
"""

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import report
from repro.circuits.serialize import circuit_from_dict, circuit_to_dict
from repro.core.naive_circuits import build_naive_matmul_circuit
from repro.engine import DiskArtifactStore, Engine, EngineConfig

QUICK = os.environ.get("E21_QUICK") == "1"
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_e21.json"

BACKEND = "sparse"
ROUNDS = 3


def _restore_case(name, n, required):
    built = build_naive_matmul_circuit(n, bit_width=1, stages=2)
    payload = circuit_to_dict(built.circuit)

    # Producer process: compiles the as-built circuit (template provenance
    # intact, so the published artifact is the compact template program)
    # and publishes it under the structural hash.
    producer_hash = built.circuit.structural_hash()
    template_program = Engine(EngineConfig(backend=BACKEND)).compile(built.circuit)

    # Consumer cold path: payload -> circuit -> hash -> compile.
    start = time.perf_counter()
    circuit = circuit_from_dict(payload, validate=False)
    rebuild_s = time.perf_counter() - start
    start = time.perf_counter()
    key_hash = circuit.structural_hash()
    hash_s = time.perf_counter() - start
    assert key_hash == producer_hash
    start = time.perf_counter()
    program = Engine(EngineConfig(backend=BACKEND)).compile(circuit)
    compile_s = time.perf_counter() - start
    cold_s = rebuild_s + hash_s + compile_s

    directory = tempfile.mkdtemp(prefix="bench-e21-")
    try:
        store = DiskArtifactStore(directory)
        assert store.put(producer_hash, BACKEND, template_program)
        payload_bytes = store.stats().total_bytes

        # Consumer warm path: key -> integrity-checked restore.
        restored = None
        restore_s = float("inf")
        for _ in range(ROUNDS):
            fresh = DiskArtifactStore(directory, sweep=False)
            start = time.perf_counter()
            restored = fresh.get(key_hash, BACKEND)
            restore_s = min(restore_s, time.perf_counter() - start)

        rng = np.random.default_rng(17)
        probe = rng.integers(0, 2, size=(circuit.n_inputs, 2)).astype(np.int64)
        bit_identical = bool((restored.run(probe) == program.run(probe)).all())
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    return {
        "case": name,
        "backend": BACKEND,
        "gates": circuit.size,
        "edges": circuit.edges,
        "payload_bytes": payload_bytes,
        "rebuild_s": round(rebuild_s, 4),
        "hash_s": round(hash_s, 4),
        "compile_s": round(compile_s, 4),
        "cold_s": round(cold_s, 4),
        "restore_s": round(restore_s, 6),
        "speedup": round(cold_s / restore_s, 2) if restore_s else float("inf"),
        "bit_identical": bit_identical,
        "required": required,
    }


def test_e21_disk_artifact_restore(benchmark):
    if QUICK:
        cases = [
            # Small circuits leave less cold work to skip (~75x measured);
            # CI-safe floor.
            ("naive-matmul n=16 b=1 stages=2", 16, 10.0),
        ]
    else:
        cases = [
            # Acceptance target: >= 100x.  Measured ~2700x (cold ~108 s,
            # restore ~40 ms) on the reference machine.
            ("naive-matmul n=64 b=1 stages=2", 64, 100.0),
            # Measured ~240x.
            ("naive-matmul n=32 b=1 stages=2", 32, 50.0),
        ]

    def compute_rows():
        return [_restore_case(name, n, required) for name, n, required in cases]

    rows = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
    report("E21: disk-artifact restore vs cold compile", rows)
    BENCH_JSON.write_text(
        json.dumps({"experiment": "E21", "quick": QUICK, "rows": rows}, indent=2)
    )

    for row in rows:
        assert row["bit_identical"], row
        assert row["speedup"] >= row["required"], row
