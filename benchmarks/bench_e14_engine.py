"""E14 — Engine backends: sparse vs dense vs sharded batch evaluation.

The execution engine compiles a circuit once per backend and streams
batches through it.  This experiment measures where each backend wins:

* *dense* (numpy matrices in the plan's numeric lane: float32 GEMMs on
  these parity circuits) on small/shallow circuits, where the CSR
  bookkeeping of scipy dominates the actual arithmetic — the engine's
  auto-heuristic routes such circuits dense;
* *sparse* (CSR) on the constructed trace circuits, whose thousands of
  nodes would make dense layer matrices quadratically large;
* *sharded* evaluation (column chunks over the engine's resident
  two-worker evaluation service) on wide batches, reported alongside the
  serial chunked path.

Rows follow the bench_e* convention: one JSON-compatible dict per
configuration, printed through the shared report helper.
"""

import time

import numpy as np

from benchmarks.conftest import report
from repro.circuits.builder import CircuitBuilder
from repro.core import build_trace_circuit
from repro.engine import Engine, EngineConfig, RunResult, same_run


def parity_circuit(n_bits):
    """Depth-2 parity: the canonical small/shallow circuit (2^k batches)."""
    builder = CircuitBuilder(name=f"parity-{n_bits}")
    inputs = builder.allocate_inputs(n_bits)
    at_least = [builder.add_gate(inputs, [1] * n_bits, k) for k in range(1, n_bits + 1)]
    weights = [1 if k % 2 == 1 else -1 for k in range(1, n_bits + 1)]
    out = builder.add_gate(at_least, weights, 1)
    builder.set_outputs([out], ["parity"])
    return builder.build()


def best_time(fn, repeats=7):
    """Minimum wall time over several repeats (noise-robust point estimate)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_e14_sparse_vs_dense_backends(benchmark, rng):
    engine = Engine()
    cases = [
        (parity_circuit(8), [256, 4096]),
        (parity_circuit(16), [4096]),
        (parity_circuit(32), [4096]),
    ]

    def compute_rows():
        rows = []
        for circuit, widths in cases:
            programs = {
                name: engine.compile(circuit, backend=name)
                for name in ("sparse", "dense")
            }
            for width in widths:
                batch = rng.integers(0, 2, size=(circuit.n_inputs, width))
                sparse_s = best_time(lambda: programs["sparse"].run(batch))
                dense_s = best_time(lambda: programs["dense"].run(batch))
                rows.append(
                    {
                        "circuit": circuit.name,
                        "gates": circuit.size,
                        "nodes": circuit.n_nodes,
                        "batch": width,
                        "sparse_s": sparse_s,
                        "dense_s": dense_s,
                        "dense_speedup": sparse_s / dense_s,
                        "auto_backend": engine.compile(circuit).backend_name,
                    }
                )
        return rows

    rows = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
    report("E14: sparse vs dense backend on small/shallow circuits", rows)
    # Headline claim: dense beats sparse on at least one small-circuit /
    # large-batch configuration (in practice: all of them).
    small_large = [row for row in rows if row["nodes"] <= 512 and row["batch"] >= 4096]
    assert small_large, "no small-circuit/large-batch configuration measured"
    assert any(row["dense_s"] < row["sparse_s"] for row in small_large)
    # ...and the auto-heuristic agrees with the measurement on these circuits.
    assert all(row["auto_backend"] == "dense" for row in rows)


def test_e14_trace_circuit_backend_choice(benchmark, rng):
    # The constructed trace circuits are far too large for dense layer
    # matrices; the heuristic must keep them on the sparse path, and the
    # sparse program must sustain wide batches.
    trace = build_trace_circuit(4, 10, bit_width=1, depth_parameter=2)
    engine = Engine()
    program = engine.compile(trace.circuit)
    batch = rng.integers(0, 2, size=(trace.circuit.n_inputs, 1024))

    def run():
        return program.run(batch)

    result = benchmark(run)
    rows = [
        {
            "circuit": trace.circuit.name,
            "gates": trace.circuit.size,
            "nodes": trace.circuit.n_nodes,
            "batch": 1024,
            "backend": program.backend_name,
            "mean_energy": float(result.energy.mean()),
        }
    ]
    report("E14: trace circuit stays on the sparse backend", rows)
    assert program.backend_name == "sparse"


def test_e14_sharded_scheduler(benchmark, rng):
    trace = build_trace_circuit(4, 10, bit_width=1, depth_parameter=2)
    batch = rng.integers(0, 2, size=(trace.circuit.n_inputs, 2048))
    serial_engine = Engine(EngineConfig(chunk_size=256))
    sharded_engine = Engine(
        EngineConfig(chunk_size=256, max_workers=2, parallel_threshold=512)
    )

    def run(engine):
        result = engine.evaluate(trace.circuit, batch, backend="sparse")
        return RunResult(result.outputs, result.energy)

    def compute_rows():
        # The first sharded call starts the service and installs the
        # program on both workers; best-of-3 times the steady state.
        serial_s = best_time(lambda: run(serial_engine), repeats=3)
        sharded_s = best_time(lambda: run(sharded_engine), repeats=3)
        return [
            {
                "circuit": trace.circuit.name,
                "batch": 2048,
                "chunk": 256,
                "serial_s": serial_s,
                "sharded_2w_s": sharded_s,
                "shard_speedup": serial_s / sharded_s,
            }
        ]

    with sharded_engine:
        rows = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
        report("E14: serial vs sharded (2 workers) chunked evaluation", rows)
        # Correctness of the sharded path, whatever the timing says.
        assert same_run(run(sharded_engine), run(serial_engine))
