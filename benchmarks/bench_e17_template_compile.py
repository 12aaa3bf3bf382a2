"""E17 — Template-streaming compilation: skip the compile-time CSR re-gather.

Compiling a circuit without provenance re-reads the consolidated CSR,
gathers every wire into depth layers and builds one sparse matrix per
layer.  With provenance, the compile builds one layer plan per stamped
gadget template and tiles it across the stamps, so compile cost scales with
the number of *distinct templates* plus the residual (non-stamped) gates
instead of with the full wire count.

For each case the same circuit is compiled twice on fresh engines — once
with its provenance and once as a stripped copy (``template_blocks = []``:
same store, same structural hash, every gate a residual run) — with the
structural hash pre-warmed so both sides time exactly the backend compile.
Both programs must be bit-identical on a probe batch; the headline case
(naive matmul n = 64) must compile at least 3x faster.  The JSON keeps the
historical column names: ``csr_s`` is the stripped side.

Rows follow the bench_e* convention and are written to ``BENCH_e17.json``
at the repository root (uploaded by CI).  Set
``E17_QUICK=1`` for the CI-sized quick mode.
"""

import copy
import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import report
from repro.core.naive_circuits import build_naive_matmul_circuit
from repro.core.matmul_circuit import build_matmul_circuit
from repro.engine import Engine
from repro.engine.config import EngineConfig

QUICK = os.environ.get("E17_QUICK") == "1"
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_e17.json"


def _best_compile(circuit, config, rounds):
    """Best-of-``rounds`` cold compile time on fresh engines (warm hash)."""
    best_s = float("inf")
    program = None
    for _ in range(rounds):
        engine = Engine(config)
        start = time.perf_counter()
        program = engine.compile(circuit)
        best_s = min(best_s, time.perf_counter() - start)
    return program, best_s


def _compile_case(name, build, required, rounds=2, backend="sparse"):
    built = build()
    circuit = built.circuit
    circuit.structural_hash()  # warm the hash cache: both sides skip it
    stripped = copy.copy(circuit)  # shares the store and the cached hash
    stripped.template_blocks = []
    covered = sum(block.k * block.n_gates for block in circuit.template_blocks)
    config = EngineConfig(backend=backend)
    template_prog, template_s = _best_compile(circuit, config, rounds)
    csr_prog, csr_s = _best_compile(stripped, config, rounds)
    rng = np.random.default_rng(17)
    probe = rng.integers(0, 2, size=(circuit.n_inputs, 2)).astype(np.int64)
    bit_identical = bool(
        (
            template_prog.run(probe, keep_nodes=True).nodes
            == csr_prog.run(probe, keep_nodes=True).nodes
        ).all()
    )
    return {
        "case": name,
        "backend": backend,
        "gates": circuit.size,
        "edges": circuit.edges,
        "blocks": len(circuit.template_blocks),
        "covered": round(covered / circuit.size, 4),
        "template_s": round(template_s, 4),
        "csr_s": round(csr_s, 4),
        "speedup": round(csr_s / template_s, 2) if template_s else float("inf"),
        "bit_identical": bit_identical,
        "required": required,
    }


def test_e17_template_streaming_compile(benchmark):
    if QUICK:
        cases = [
            (
                "naive-matmul n=16 b=1 stages=2",
                lambda: build_naive_matmul_circuit(16, bit_width=1, stages=2),
                1.5,  # small circuits leave less CSR work to skip; CI-safe
            ),
            (
                "matmul-strassen n=8 b=1 loglog",
                lambda: build_matmul_circuit(8, bit_width=1),
                1.0,  # ~60% residual gates: parity is the point here
            ),
        ]
    else:
        cases = [
            (
                "naive-matmul n=64 b=1 stages=2",
                lambda: build_naive_matmul_circuit(64, bit_width=1, stages=2),
                3.0,  # acceptance target; measured ~250x
            ),
            (
                "naive-matmul n=32 b=1 stages=2",
                lambda: build_naive_matmul_circuit(32, bit_width=1, stages=2),
                3.0,
            ),
            (
                "matmul-strassen n=8 b=1 loglog",
                lambda: build_matmul_circuit(8, bit_width=1),
                1.5,  # subcubic levels stamp too (~90% covered at n >= 8)
            ),
        ]

    def compute_rows():
        return [_compile_case(name, build, required) for name, build, required in cases]

    rows = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
    report("E17: template-streaming compile vs provenance-stripped compile", rows)
    BENCH_JSON.write_text(
        json.dumps({"experiment": "E17", "quick": QUICK, "rows": rows}, indent=2)
    )

    for row in rows:
        assert row["bit_identical"], row
        assert row["speedup"] >= row["required"], row
