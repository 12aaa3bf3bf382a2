"""E20 — What service hardening costs, and what fault recovery delivers.

PR 7 wrapped the resident :class:`~repro.engine.service.EvaluationService`
in a failure ladder: heartbeats, stall detection, bounded retry with
backoff, per-job deadlines, respawn budgets, degradation.  Two questions
keep that honest:

* **Overhead** — the machinery must be ~free on the healthy path.  The
  same query stream runs through a service with hardening effectively off
  (no heartbeats, no stall detection) and one with the soak-grade
  aggressive knobs (10 Hz heartbeats, 1 s stall timeout); the hardened
  run must stay within ``MAX_OVERHEAD`` of the bare one.
* **Recovery** — under a constant-kill :class:`FaultPlan`
  (``kill_before_task=5`` re-armed on every respawn), the stream must
  still complete bit-identically, and the row records the measured
  recovery cost (wall-time multiple vs the healthy hardened run) plus the
  restart/retry counters, so regressions in recovery efficiency show up
  as a number, not a feeling.

Rows go to ``BENCH_e20.json`` at the repository root (uploaded by CI next
to e17–e19).  Set ``E20_QUICK=1`` for the CI-sized quick mode.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import report
from repro.core.naive_circuits import build_naive_matmul_circuit
from repro.engine import Engine, EngineConfig, EvaluationService, FaultPlan

QUICK = os.environ.get("E20_QUICK") == "1"
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_e20.json"

#: Hardened / bare wall-time ratio the healthy path must stay within.
#: Loose on purpose: the healthy-path work per heartbeat interval is large,
#: so the true overhead is a few percent; the slack absorbs CI noise.
MAX_OVERHEAD = 1.25

ROUNDS = 2


def _stream(circuit, batch_width, repeats, seed=20):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 2, size=(circuit.n_inputs, batch_width))
        for _ in range(repeats)
    ]


def _run_stream(program, batches, config):
    """Best-of-ROUNDS pipelined wall time through one resident service."""
    with EvaluationService(config) as service:
        service.evaluate(program, batches[0])  # warm-up: spawn + install
        best_s = float("inf")
        results = None
        for _ in range(ROUNDS):
            start = time.perf_counter()
            futures = [service.submit(program, batch) for batch in batches]
            attempt = [future.result(timeout=120.0) for future in futures]
            best_s = min(best_s, time.perf_counter() - start)
            results = attempt
        stats = service.stats()
    return best_s, results, stats


def _fault_case(name, n, workers, batch_width, repeats):
    circuit = build_naive_matmul_circuit(n, bit_width=1, stages=2).circuit
    program = Engine(EngineConfig(backend="sparse")).compile(circuit)
    batches = _stream(circuit, batch_width, repeats)
    expected = [program.run(batch) for batch in batches]

    base = dict(backend="sparse", max_workers=workers, parallel_threshold=1)
    # Hardening off: no heartbeats, no stall detection — the pre-PR-7 wire
    # protocol (retry/deadline machinery is present but never exercised).
    bare = EngineConfig(**base, service_heartbeat_s=0.0, service_stall_timeout_s=0.0)
    # Soak-grade hardening: 10 Hz heartbeats, aggressive stall detection.
    hardened = EngineConfig(
        **base, service_heartbeat_s=0.1, service_stall_timeout_s=1.0
    )
    # Same hardened knobs plus sustained kill pressure; generous budgets so
    # recovery (not budget exhaustion) is what gets measured.
    faulty = EngineConfig(
        **base,
        service_heartbeat_s=0.1,
        service_stall_timeout_s=1.0,
        service_retry_backoff_s=0.02,
        service_task_attempts=50,
        service_respawn_budget=1_000_000,
        fault_plan=FaultPlan(kill_before_task=5),
    )

    bare_s, bare_results, _ = _run_stream(program, batches, bare)
    hard_s, hard_results, _ = _run_stream(program, batches, hardened)
    fault_s, fault_results, fault_stats = _run_stream(program, batches, faulty)

    bit_identical = all(
        (got == want).all()
        for outputs in (bare_results, hard_results, fault_results)
        for got, want in zip(outputs, expected)
    )
    return {
        "case": name,
        "gates": circuit.size,
        "workers": workers,
        "batch": batch_width,
        "queries": repeats,
        "bare_s": round(bare_s, 4),
        "hardened_s": round(hard_s, 4),
        "faulty_s": round(fault_s, 4),
        "hardening_overhead": round(hard_s / bare_s, 3) if bare_s else float("inf"),
        "recovery_cost": round(fault_s / hard_s, 2) if hard_s else float("inf"),
        "worker_restarts": fault_stats.worker_restarts,
        "retries": fault_stats.retries,
        "stall_kills": fault_stats.stall_kills,
        "bit_identical": bit_identical,
        "max_overhead": MAX_OVERHEAD,
    }


def test_e20_hardening_overhead_and_fault_recovery(benchmark):
    if QUICK:
        cases = [("naive-matmul n=12 kill-storm", 12, 2, 6, 6)]
    else:
        cases = [
            ("naive-matmul n=16 kill-storm", 16, 2, 8, 10),
            ("naive-matmul n=24 kill-storm", 24, 4, 8, 8),
        ]

    def compute_rows():
        return [_fault_case(*case) for case in cases]

    rows = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
    report("E20: hardening overhead and fault recovery", rows)
    BENCH_JSON.write_text(
        json.dumps(
            {
                "experiment": "E20",
                "quick": QUICK,
                "cpu_count": os.cpu_count(),
                "rows": rows,
            },
            indent=2,
        )
    )

    for row in rows:
        assert row["bit_identical"], row
        assert row["hardening_overhead"] <= row["max_overhead"], row
        # Recovery must actually have been exercised — and terminated.
        assert row["worker_restarts"] >= 1, row
