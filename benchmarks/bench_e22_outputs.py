"""E22 — Outputs-only evaluation: memory and throughput of ``Engine().evaluate``.

A run returns a circuit's outputs and energy, not its node matrix: each
``program.run`` gathers the output rows and counts fired gates per layer,
and the node-value buffer of one run is bounded by the run budget
(``repro.engine.backends._RUN_BUFFER_BYTES``), so a wide batch runs in
column chunks of ``run_chunk_width`` columns.  A default evaluation
therefore holds one chunk's node buffer plus the whole batch's output rows
and energy, however wide the batch and however large the circuit.

Each row is one ``(circuit, batch)`` pair on a warm, compiled default
engine:

* ``items_per_s`` — columns per second, best of ``ROUNDS`` evaluations,
  with the median and the spread (worst over best, in percent);
* ``peak_bytes`` / ``peak_bytes_per_column`` — the tracemalloc peak of one
  ``Engine().evaluate`` (a separate, untimed call), total and per column;
* ``chunk_width`` / ``chunks`` — the run width the budget allows and the
  number of runs the batch takes;
* the host fingerprint of perfbench (CPUs, BLAS, numpy/scipy versions, git
  sha), so rows from different machines are not compared blindly.

Full mode: naive matmul n=32 at batch 64 and 2048, and n=64 at batch 2048,
whose peak must stay under 1 GiB (a 2048-column node buffer alone would be
13.3 GB in float32).  Quick mode (``E22_QUICK=1``, CI-sized): naive n=16
and n=32 at batch 2048.  Rows go to ``BENCH_e22.json`` at the repository
root.
"""

import json
import os
import statistics
import subprocess
import time
import tracemalloc
from pathlib import Path

import numpy as np

from benchmarks.conftest import report
from perfbench.harness import fingerprint as host_fingerprint
from repro.core.naive_circuits import build_naive_matmul_circuit
from repro.engine import Engine, run_chunk_width

QUICK = os.environ.get("E22_QUICK") == "1"
REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_e22.json"

#: Timed evaluations per row; the best one is reported.
ROUNDS = 3
#: The full-mode gate on naive n=64 at batch 2048.
MAX_N64_PEAK_BYTES = 1 << 30


def _fingerprint() -> dict:
    """perfbench's host fingerprint, plus whether the work tree had
    uncommitted changes: the sha alone names the commit they sit on."""
    row = host_fingerprint(str(REPO_ROOT), 1)
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "-uno"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        status = ""
    row["git_dirty"] = bool(row["git_sha"]) and bool(status.strip())
    return row


def _peak_bytes(engine, circuit, inputs):
    tracemalloc.start()
    try:
        engine.evaluate(circuit, inputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _case(circuit, batch, seed):
    engine = Engine()
    program = engine.compile(circuit)
    inputs = np.random.default_rng(seed).integers(
        0, 2, size=(circuit.n_inputs, batch)
    ).astype(np.int8)
    width = run_chunk_width(program, engine.config.chunk_size)
    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = engine.evaluate(circuit, inputs)
        times.append(time.perf_counter() - start)
    assert result.node_values.shape == (0, batch)
    assert result.outputs.shape == (len(circuit.outputs), batch)
    peak = _peak_bytes(engine, circuit, inputs)
    best = min(times)
    return {
        "circuit": circuit.name,
        "nodes": circuit.n_nodes,
        "outputs": len(circuit.outputs),
        "backend": program.backend_name,
        "lane": np.dtype(program.values_dtype).name,
        "batch": batch,
        "chunk_width": width,
        "chunks": -(-batch // width),
        "rounds": ROUNDS,
        "items_per_s": round(batch / best, 1),
        "items_per_s_median": round(batch / statistics.median(times), 1),
        "spread_pct": round((max(times) - best) / best * 100.0, 1),
        "peak_bytes": peak,
        "peak_bytes_per_column": round(peak / batch),
        "node_buffer_2048_bytes": circuit.n_nodes
        * 2048
        * np.dtype(program.values_dtype).itemsize,
    }


def test_e22_outputs_only_memory_and_throughput(benchmark):
    if QUICK:
        cases = [(16, (2048,)), (32, (2048,))]
    else:
        cases = [(32, (64, 2048)), (64, (2048,))]

    def compute_rows():
        rows = []
        for n, batches in cases:
            circuit = build_naive_matmul_circuit(n, bit_width=1, stages=2).circuit
            for batch in batches:
                rows.append(_case(circuit, batch, seed=22 + batch))
            del circuit
        return rows

    rows = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
    report("E22: outputs-only evaluation, memory and throughput", rows)
    BENCH_JSON.write_text(
        json.dumps(
            {
                "experiment": "E22",
                "quick": QUICK,
                "fingerprint": _fingerprint(),
                "rows": rows,
            },
            indent=2,
        )
    )
    for row in rows:
        assert row["chunk_width"] * row["chunks"] >= row["batch"], row
        if row["nodes"] > 1_000_000:
            assert row["peak_bytes"] < MAX_N64_PEAK_BYTES, row
