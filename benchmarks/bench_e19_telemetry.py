"""E19 — Telemetry overhead: instrumented hot paths vs the no-op registry.

The observability layer of ``repro.obs`` threads counters and timing spans
through the engine, compile cache, and scheduler.  Its contract is that the
instrumentation is effectively free: the disabled path is one attribute
check against shared no-op singletons, and the enabled path (counter
increments plus a handful of ``perf_counter`` pairs per evaluation) stays
within a few percent of the uninstrumented steady state.

The workload is the steady-state query loop the instrumentation targets:
one compiled n=32 naive-matmul circuit evaluated serially over a stream of
random batches (compile once, then pure ``engine.evaluate`` traffic — cache
hits, scheduler chunks, span timing on every query).  Three modes run the
identical stream:

* ``disabled`` — the default :class:`~repro.obs.metrics.NullRegistry`;
* ``enabled`` — a live :class:`~repro.obs.metrics.MetricsRegistry`;
* ``debug`` is deliberately *not* timed: per-layer GEMM spans are an
  opt-in diagnostic (``REPRO_TELEMETRY_DEBUG=1``) with no overhead budget.

The two modes are timed pass by pass, alternating within each round
(disabled, enabled, then enabled, disabled, ...), and the gate reads the
median, over all adjacent (disabled, enabled) pairs, of the enabled pass's
time over the disabled one's: machine drift on a shared box dwarfs the
per-query instrumentation cost, and two adjacent passes see nearly the
same drift, so each ratio cancels it.  Best-of-rounds comparisons did not
(sequential all-of-one-then-all-of-the-other rounds swung +/-10% on
identical code; interleaved rounds of at least 0.5 s, best of 7, still
read -15.6% to +14.7% over quick runs on a 2-vCPU host).  ``ROUNDS`` rounds
each repeat pairs of passes until the round has lasted ``MIN_ROUND_S``.
The headline assertion pins enabled-telemetry overhead below 3% in full
mode; quick mode (``E19_QUICK=1``, CI-sized) uses a looser 10% gate
because the shrunken stream amplifies timer noise.  The enabled pass must
also actually record the series the subsystem promises (cache hits,
evaluate spans, chunk counts) — an accidentally-dead registry would
otherwise "win" the overhead comparison.  Rows go to ``BENCH_e19.json``
at the repository root.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import report
from repro import obs
from repro.core.naive_circuits import build_naive_matmul_circuit
from repro.engine import Engine, EngineConfig

QUICK = os.environ.get("E19_QUICK") == "1"
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_e19.json"

#: Timed rounds; each repeats pairs of passes until it lasts MIN_ROUND_S.
ROUNDS = 7
#: Shortest timed round.
MIN_ROUND_S = 0.5


def _query_stream(circuit, batch_width, repeats, seed=19):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 2, size=(circuit.n_inputs, batch_width))
        for _ in range(repeats)
    ]


def _pass_s(engine, circuit, batches):
    """Seconds for one pass over the stream."""
    start = time.perf_counter()
    for batch in batches:
        engine.evaluate(circuit, batch)
    return time.perf_counter() - start


def _overhead_case(name, n, batch_width, repeats, max_overhead):
    circuit = build_naive_matmul_circuit(n, bit_width=1, stages=2).circuit
    batches = _query_stream(circuit, batch_width, repeats)
    config = EngineConfig(backend="sparse")

    # One engine per mode so each keeps its own warm compile cache; the
    # instrumentation reads the process-global registry at call time, so
    # toggling obs between passes switches modes without rebuilding anything.
    engine_disabled = Engine(config)
    engine_enabled = Engine(config)
    registry = obs.enable(reset=True)
    pairs = []  # (disabled pass s, enabled pass s), adjacent in time
    try:
        obs.disable()
        engine_disabled.evaluate(circuit, batches[0])  # warm-up: compile
        obs.set_registry(registry)
        engine_enabled.evaluate(circuit, batches[0])
        for _round in range(ROUNDS):
            start = time.perf_counter()
            while time.perf_counter() - start < MIN_ROUND_S:
                # Alternate which mode goes first, so neither mode always
                # takes the second slot of a pair.
                times = {}
                for enabled in (False, True) if len(pairs) % 2 == 0 else (True, False):
                    if enabled:
                        obs.set_registry(registry)
                        times[enabled] = _pass_s(engine_enabled, circuit, batches)
                    else:
                        obs.disable()
                        times[enabled] = _pass_s(engine_disabled, circuit, batches)
                pairs.append((times[False], times[True]))
        snapshot = registry.snapshot()
    finally:
        obs.disable()

    recorded = {
        "cache_hits": sum(
            value
            for key, value in snapshot["counters"].items()
            if key.startswith("cache.hits")
        ),
        "eval_columns": sum(
            value
            for key, value in snapshot["counters"].items()
            if key.startswith("engine.eval_columns")
        ),
        "evaluate_spans": sum(
            summary["count"]
            for key, summary in snapshot["histograms"].items()
            if key.startswith("engine.evaluate_s")
        ),
        "chunks": sum(
            value
            for key, value in snapshot["counters"].items()
            if key.startswith("scheduler.chunks")
        ),
    }
    disabled = np.array([d for d, _ in pairs])
    enabled = np.array([e for _, e in pairs])
    overhead = float(np.median(enabled / disabled)) - 1.0
    return {
        "case": name,
        "gates": circuit.size,
        "batch": batch_width,
        "queries": repeats,
        "rounds": ROUNDS,
        "min_round_s": MIN_ROUND_S,
        "pairs": len(pairs),
        "disabled_s": round(float(np.median(disabled)), 4),
        "enabled_s": round(float(np.median(enabled)), 4),
        "overhead_pct": round(overhead * 100.0, 2),
        "max_overhead_pct": round(max_overhead * 100.0, 2),
        "recorded": recorded,
    }


def test_e19_telemetry_overhead(benchmark):
    if QUICK:
        # CI-sized: a smaller circuit and shorter stream; the loosened gate
        # absorbs timer noise on shared runners.  Full-mode numbers live in
        # the checked-in BENCH_e19.json.
        cases = [("naive-matmul n=16 steady-state", 16, 16, 30, 0.10)]
    else:
        # The acceptance case: steady-state n=32 matmul queries, < 3%.
        cases = [
            ("naive-matmul n=32 steady-state", 32, 16, 40, 0.03),
            ("naive-matmul n=16 steady-state", 16, 16, 60, 0.03),
        ]

    def compute_rows():
        return [_overhead_case(*case) for case in cases]

    rows = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
    report("E19: telemetry overhead (enabled vs no-op registry)", rows)
    BENCH_JSON.write_text(
        json.dumps(
            {
                "experiment": "E19",
                "quick": QUICK,
                "cpu_count": os.cpu_count(),
                "rows": rows,
            },
            indent=2,
        )
    )

    for row in rows:
        # The enabled pass must really have instrumented the stream.
        recorded = row["recorded"]
        per_round_queries = row["queries"]
        assert recorded["cache_hits"] >= per_round_queries, row
        assert recorded["eval_columns"] > 0, row
        assert recorded["evaluate_spans"] >= per_round_queries, row
        assert recorded["chunks"] >= per_round_queries, row
        assert row["overhead_pct"] <= row["max_overhead_pct"], row
