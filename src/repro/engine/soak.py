"""Invariant soak harness: hammer a resident service, assert nothing drifts.

The bit-identity invariants in ``docs/INVARIANTS.md`` are each pinned by a
targeted Hypothesis test; this module is the complementary *endurance*
check (INV-4 and INV-6 under sustained load): drive an
:class:`~repro.engine.service.EvaluationService` with a mixed stream of
circuit families — parity across all three backends, the trace-estimation
driver circuit, the matmul driver circuit — for a configurable duration,
typically under an active :class:`~repro.engine.faults.FaultPlan`, and
assert that

* every job's outputs and energy (and, for the one family that keeps
  them, node values) are **bit-identical** to the serially computed
  reference (no drift, whatever kills/stalls/drops the plan injected),
* telemetry counters stay **monotone** across periodic snapshots (a
  shrinking counter means lost or double-merged worker deltas),
* ``ServiceStats`` fields stay monotone between reads,
* nothing **leaks**: no shared-memory blocks left in ``/dev/shm`` and no
  child processes left behind once the service closes.

Entry points: :func:`run_soak` (library), ``tests/soak_harness.py``
(pytest/`__main__` wrapper), and ``repro soak`` (CLI).  CI runs the short
mode — ``SOAK_SECONDS=20`` under :func:`~repro.engine.faults.aggressive_plan`.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.circuits.builder import CircuitBuilder
from repro.core.matmul_circuit import build_matmul_circuit
from repro.core.trace_circuit import build_trace_circuit
from repro.engine.backends import same_run
from repro.engine.config import EngineConfig
from repro.engine.engine import Engine
from repro.engine.faults import DeadlineExceeded, FaultPlan
from repro.engine.service import EvaluationService
from repro.obs import MetricsRegistry, counter_regressions

__all__ = ["SoakReport", "default_soak_config", "run_soak"]

#: ServiceStats fields that are monotone counters (``workers`` may shrink on
#: slot retirement and ``degraded`` is a latch, so neither is listed).
_MONOTONE_STATS = (
    "jobs",
    "tasks",
    "installs",
    "reinstalls",
    "worker_restarts",
    "retries",
    "stall_kills",
    "deadline_failures",
    "protocol_errors",
    "retired_workers",
    "degraded_jobs",
)


@dataclass
class SoakReport:
    """Everything a soak run observed; ``assert_ok()`` is the verdict."""

    seconds: float
    jobs_ok: int = 0
    jobs_failed: int = 0
    drift: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    monotone_violations: List[str] = field(default_factory=list)
    leaked_shm: List[str] = field(default_factory=list)
    leaked_processes: List[str] = field(default_factory=list)
    families: List[str] = field(default_factory=list)
    final_stats: Dict[str, object] = field(default_factory=dict)
    job_timeout: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "seconds": self.seconds,
            "jobs_ok": self.jobs_ok,
            "jobs_failed": self.jobs_failed,
            "drift": self.drift,
            "failures": dict(self.failures),
            "monotone_violations": list(self.monotone_violations),
            "leaked_shm": list(self.leaked_shm),
            "leaked_processes": list(self.leaked_processes),
            "families": list(self.families),
            "final_stats": dict(self.final_stats),
            "job_timeout": self.job_timeout,
        }

    def problems(self) -> List[str]:
        """Human-readable list of everything that violates the soak contract.

        Job failures are violations too — the soak configuration budgets
        attempts and respawns generously enough that every injected fault
        should be *recovered from*, not surfaced — except
        :class:`DeadlineExceeded` when the run itself set ``job_timeout``
        (then deadline misses are the feature under test, not a defect).
        """
        issues: List[str] = []
        if self.drift:
            issues.append(f"{self.drift} job(s) returned non-bit-identical output")
        for name, count in sorted(self.failures.items()):
            if name == DeadlineExceeded.__name__ and self.job_timeout is not None:
                continue
            issues.append(f"{count} job(s) failed with {name}")
        issues.extend(f"counter regression: {v}" for v in self.monotone_violations)
        issues.extend(f"leaked shm block: {v}" for v in self.leaked_shm)
        issues.extend(f"leaked process: {v}" for v in self.leaked_processes)
        if not self.jobs_ok:
            issues.append("no job completed successfully")
        return issues

    def assert_ok(self) -> None:
        problems = self.problems()
        if problems:
            # An explicit raise, not a bare assert: the soak verdict must
            # survive ``python -O`` (REP001).
            raise AssertionError("; ".join(problems))


def default_soak_config(**overrides) -> EngineConfig:
    """The service configuration soak runs use unless told otherwise.

    Small chunks maximize tasks (hence fault-injection points) per second;
    fast heartbeats and a short stall timeout make wedge recovery visible
    within a seconds-long run; and the attempt/respawn budgets are generous
    because the soak contract is that every injected fault is *recovered
    from* — budget exhaustion is the degradation test's job, not the
    soak's.
    """
    base = dict(
        max_workers=2,
        chunk_size=8,
        parallel_threshold=1,
        service_queue_depth=16,
        service_heartbeat_s=0.1,
        service_stall_timeout_s=1.0,
        service_retry_backoff_s=0.02,
        service_task_attempts=25,
        service_respawn_budget=1_000_000,
    )
    base.update(overrides)
    return EngineConfig(**base)


def _parity_circuit(n_bits: int, name: str = "soak-parity"):
    builder = CircuitBuilder(name=f"{name}{n_bits}")
    inputs = builder.allocate_inputs(n_bits)
    at_least = [builder.add_gate(inputs, [1] * n_bits, k) for k in range(1, n_bits + 1)]
    weights = [1 if k % 2 == 1 else -1 for k in range(1, n_bits + 1)]
    out = builder.add_gate(at_least, weights, 1)
    builder.set_outputs([out], ["parity"])
    return builder.build()


class _Family:
    """One circuit family in the mix: a compiled program plus ready batches.

    References are computed up front with serial ``program.run`` — the soak
    loop then only compares, so verification never competes with the
    service for CPU inside the timing window.  ``keep_nodes`` families
    ask the service for every node's value, the other result shape.
    """

    __slots__ = ("name", "program", "key", "batches", "keep_nodes", "references")

    def __init__(self, name, program, key, batches, keep_nodes) -> None:
        self.name = name
        self.program = program
        self.key = key
        self.batches = batches
        self.keep_nodes = keep_nodes
        self.references = [program.run(batch, keep_nodes) for batch in batches]


def _build_families(engine: Engine, rng: np.random.Generator, n_batches: int):
    families: List[_Family] = []

    def add(name, circuit, backend, widths, keep_nodes=False):
        program = engine.compile(circuit, backend=backend)
        key = (circuit.structural_hash(), backend)
        batches = [
            rng.integers(0, 2, size=(circuit.n_inputs, int(widths[i % len(widths)])))
            for i in range(n_batches)
        ]
        families.append(_Family(name, program, key, batches, keep_nodes))

    parity = _parity_circuit(6)
    # Mixed widths cut jobs into one to a dozen tasks of default_soak_config,
    # for outputs-only results and for kept node values alike.
    add("parity6-sparse-nodes", parity, "sparse", widths=(5, 24, 96), keep_nodes=True)
    add("parity6-dense", parity, "dense", widths=(8, 64))
    add("parity6-exact", parity, "exact", widths=(16,))
    trace = build_trace_circuit(2, 3, bit_width=1, depth_parameter=1)
    add("trace2", trace.circuit, "sparse", widths=(12, 48))
    matmul = build_matmul_circuit(2, bit_width=1)
    add("matmul2", matmul.circuit, "dense", widths=(10, 40))
    return families


def run_soak(
    seconds: float,
    *,
    config: Optional[EngineConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
    seed: int = 2018,
    job_timeout: Optional[float] = None,
    max_in_flight: int = 8,
    batches_per_family: int = 12,
    snapshot_every: int = 25,
    result_timeout: float = 120.0,
) -> SoakReport:
    """Drive a resident service for ``seconds``; return what was observed.

    ``fault_plan`` (usually :func:`~repro.engine.faults.aggressive_plan`)
    is merged into the config; ``job_timeout`` adds a per-job deadline to
    every submission (making :class:`DeadlineExceeded` an allowed failure
    type).  The run keeps at most ``max_in_flight`` futures outstanding and
    verifies each result against its precomputed serial reference the
    moment it completes; every ``snapshot_every`` completions it snapshots
    the metrics registry and ``stats()`` and records monotonicity
    violations.  Leak checks (shm blocks, child processes) run after the
    service closes.

    Each future's wait ends ``result_timeout`` seconds after its submit,
    whatever the waits before it took, and a future still running then
    fails with ``TimeoutError`` and stops further submissions (a submit
    could wait for a job slot the stalled jobs hold): a stalled service
    reports within about ``seconds + result_timeout``.
    """
    if seconds <= 0:
        raise ValueError(f"seconds must be > 0, got {seconds}")
    config = config if config is not None else default_soak_config()
    if fault_plan is not None:
        config = config.with_overrides(fault_plan=fault_plan)
    rng = np.random.default_rng(seed)
    engine = Engine()  # compile-only; evaluation goes through the service
    families = _build_families(engine, rng, batches_per_family)

    report = SoakReport(seconds=float(seconds), job_timeout=job_timeout)
    report.families = [family.name for family in families]
    shm_before = _shm_listing()
    children_before = {process.pid for process in multiprocessing.active_children()}

    # Private always-on registry: worker-side telemetry activates without
    # touching the process-global registry, and snapshots are isolated from
    # whatever else the process records.
    registry = MetricsRegistry()
    last_snapshot = None
    last_stats = None
    completions = 0
    round_robin = 0
    stalled = False

    service = EvaluationService(config, registry=registry)
    try:
        deadline = time.monotonic() + seconds
        pending = deque()

        def reap(block: bool) -> None:
            nonlocal completions, last_snapshot, last_stats, stalled
            future, family, index, submitted = pending.popleft()
            if not block and not future.done():
                pending.appendleft((future, family, index, submitted))
                return
            wait = submitted + result_timeout - time.monotonic()
            try:
                result = future.result(timeout=max(0.0, wait))
            except Exception as exc:
                stalled = stalled or not future.done()
                report.jobs_failed += 1
                name = type(exc).__name__
                report.failures[name] = report.failures.get(name, 0) + 1
            else:
                if same_run(result, family.references[index]):
                    report.jobs_ok += 1
                else:
                    report.drift += 1
            completions += 1
            if completions % snapshot_every == 0:
                snapshot = registry.snapshot()
                if last_snapshot is not None:
                    report.monotone_violations.extend(
                        counter_regressions(last_snapshot, snapshot)
                    )
                last_snapshot = snapshot
                stats = service.stats().as_dict()
                if last_stats is not None:
                    for fields_name in _MONOTONE_STATS:
                        if stats[fields_name] < last_stats[fields_name]:
                            report.monotone_violations.append(
                                f"stats.{fields_name}: {last_stats[fields_name]} "
                                f"-> {stats[fields_name]}"
                            )
                last_stats = stats

        while not stalled and time.monotonic() < deadline:
            family = families[round_robin % len(families)]
            index = int(rng.integers(0, len(family.batches)))
            round_robin += 1
            submitted = time.monotonic()
            future = service.submit(
                family.program,
                family.batches[index],
                key=family.key,
                timeout=job_timeout,
                keep_nodes=family.keep_nodes,
            )
            pending.append((future, family, index, submitted))
            while len(pending) >= max_in_flight:
                reap(block=True)
            while pending:
                head = pending[0][0]
                if not head.done():
                    break
                reap(block=False)
        while pending:
            reap(block=True)
        report.final_stats = service.stats().as_dict()
    finally:
        service.close(wait=False, timeout=15.0)
        engine.close()

    # Settle before the leak sweep: worker teardown (and the resource
    # tracker) may need a beat to reap processes and unlink segments.
    for _ in range(50):
        leaked_shm = sorted(set(_shm_listing()) - set(shm_before))
        leaked_children = [
            f"pid={process.pid} name={process.name}"
            for process in multiprocessing.active_children()
            if process.pid not in children_before
        ]
        if not leaked_shm and not leaked_children:
            break
        time.sleep(0.1)
    report.leaked_shm = leaked_shm
    report.leaked_processes = leaked_children
    return report


def _shm_listing() -> List[str]:
    """Python-owned shared-memory segments currently in ``/dev/shm``."""
    try:
        names = os.listdir("/dev/shm")
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return []
    return [name for name in names if name.startswith("psm_")]
