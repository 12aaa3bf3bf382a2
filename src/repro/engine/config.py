"""Execution-engine configuration.

An :class:`EngineConfig` bundles every knob of the runtime: which backend to
compile circuits for, how large the compile cache may grow, how wide the
column chunks of a batch evaluation are, and when to shard chunks across a
process pool.  The defaults are tuned for the circuits this repository
builds (thousands of gates, batches up to a few thousand inputs) and can be
overridden per :class:`~repro.engine.engine.Engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from .faults import FaultPlan

__all__ = ["BACKEND_NAMES", "EngineConfig"]

#: The backends the engine can compile for, plus the auto-selection sentinel.
BACKEND_NAMES: Tuple[str, ...] = ("auto", "sparse", "dense", "exact")


@dataclass(frozen=True)
class EngineConfig:
    """Immutable runtime configuration for an :class:`~repro.engine.Engine`.

    Attributes
    ----------
    backend:
        ``"auto"`` (pick per circuit from its stats), or force ``"sparse"``
        (scipy CSR), ``"dense"`` (numpy matrices — float64 BLAS while sums
        stay exactly representable, int64 fallback) or ``"exact"``
        (arbitrary-precision object dtype).
    cache_size:
        Maximum number of compiled circuits kept in the LRU compile cache;
        0 disables caching.
    chunk_size:
        Column-block width of batched evaluation.  Batches wider than this
        are evaluated in chunks so per-layer intermediates stay cache-sized.
    max_workers:
        Shard chunks across a ``multiprocessing`` pool of this many workers.
        0 or 1 evaluates serially in-process.
    parallel_threshold:
        Minimum batch width before the pool is spun up; smaller batches are
        always evaluated serially (a pool costs more than it saves there).
    dense_node_limit:
        Auto-selection: circuits with at most this many nodes use the dense
        backend, where the CSR overhead dominates the actual arithmetic.
    dense_density:
        Auto-selection: circuits whose wire density (edges per gate-node
        pair) is at least this also go dense, whatever their size.
    template_min_cover:
        Minimum fraction of gates that must be covered by template blocks
        before the compile tiles them (one layer plan per stamped gadget
        template, shared across stamps); sparsely-stamped circuits below it
        compile every gate as residual runs, which amortize better there.
    persistent_pool:
        When True (default) and ``max_workers > 1``, batched evaluation
        routes through the resident :class:`~repro.engine.service.EvaluationService`
        — workers stay alive across calls and compiled programs are
        installed once per worker.  False falls back to the per-call pool
        of :func:`~repro.engine.scheduler.evaluate_batched` (ablation /
        debugging).
    shared_memory_min_bytes:
        Batches whose input block is at least this many bytes are shipped
        to service workers through ``multiprocessing.shared_memory``
        (inputs staged once, output columns written in place); smaller
        batches are pickled over the queues, which is cheaper than two
        block setups there.
    service_queue_depth:
        Maximum number of outstanding jobs the service accepts before
        ``submit`` blocks — the backpressure bound on pipelined queries.
    service_store_size:
        Capacity of each service worker's LRU program store (distinct
        ``(structural_hash, backend)`` programs held resident per worker).
    service_task_attempts:
        Maximum times one task may be attempted (first dispatch + retries
        after worker deaths, lost results, or shm attach failures) before
        its job fails.
    service_retry_backoff_s:
        Base delay before re-dispatching a failed task attempt; doubles per
        attempt (exponential backoff).  0 retries immediately.
    service_respawn_budget:
        How many times each worker slot may be respawned after a death or
        stall kill.  A slot over budget is retired; when every slot is
        retired the service degrades to in-process serial execution instead
        of failing jobs (see ``stats().degraded``).
    service_heartbeat_s:
        Interval at which service workers post heartbeat messages.  0
        disables heartbeats (and with them stall detection — only worker
        *death* is then detected).
    service_stall_timeout_s:
        A worker whose current task has run at least this long without a
        fresh heartbeat is presumed wedged: it is killed and respawned and
        the task retried.  Also bounds lost-result detection (a healthy,
        idle worker whose dispatched task is this old gets the task
        re-dispatched).  0 disables stall detection.
    fault_plan:
        Optional :class:`~repro.engine.faults.FaultPlan` injected into this
        service's workers and dispatcher.  **Tests and soak runs only** —
        never set in production configuration.
    verify_compile:
        When True, every circuit is statically verified
        (:func:`repro.statics.verify_circuit` — structure, template
        provenance, interval analysis, plan cross-checks) before it is
        compiled; a failing circuit raises
        :class:`~repro.statics.verifier.StaticVerificationError` instead of
        producing a program.  A debug gate (off by default): the full pass
        costs roughly one compile, so enable it in tests, fuzzing, and when
        ingesting circuits from untrusted producers.
    artifact_cache:
        When True, the engine attaches a disk-backed
        :class:`~repro.engine.diskcache.DiskArtifactStore` to its compile
        cache: memory misses probe the artifact directory before
        recompiling, fresh compiles spill back, and service workers
        warm-start from disk instead of taking a program install over the
        queue.  Off by default — opt in per engine (or via the CLI
        ``--artifact-cache`` flags) so tests and one-shot runs stay
        hermetic.
    artifact_dir:
        Directory of the artifact store.  None uses
        :func:`~repro.engine.diskcache.default_artifact_dir`
        (``$REPRO_ARTIFACT_DIR`` or ``~/.cache/repro/artifacts``).
    artifact_max_bytes:
        Size cap for the artifact directory: after each spill the oldest
        artifacts (by ``mtime``; restores refresh it, so this is LRU) are
        pruned until the total payload fits.  None (default) never prunes.
    telemetry:
        When True, constructing an :class:`~repro.engine.engine.Engine`
        activates the **process-wide** metrics registry (``repro.obs``):
        compile/evaluate spans, cache and scheduler counters, and per-worker
        service metrics are recorded and exportable via
        ``repro.obs.get_registry().snapshot()`` / ``.render()``.  False (the
        default) leaves the registry alone — a shared no-op unless
        ``REPRO_TELEMETRY=1`` or ``repro.obs.enable()`` turned it on —
        so the disabled path costs nothing on hot loops.
    """

    backend: str = "auto"
    cache_size: int = 32
    chunk_size: int = 2048
    max_workers: int = 0
    parallel_threshold: int = 1024
    dense_node_limit: int = 512
    dense_density: float = 0.25
    template_min_cover: float = 0.25
    persistent_pool: bool = True
    shared_memory_min_bytes: int = 1 << 20
    service_queue_depth: int = 16
    service_store_size: int = 16
    service_task_attempts: int = 5
    service_retry_backoff_s: float = 0.05
    service_respawn_budget: int = 8
    service_heartbeat_s: float = 0.5
    service_stall_timeout_s: float = 30.0
    fault_plan: Optional[FaultPlan] = None
    verify_compile: bool = False
    artifact_cache: bool = False
    artifact_dir: Optional[str] = None
    artifact_max_bytes: Optional[int] = None
    telemetry: bool = False

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKEND_NAMES}"
            )
        if self.cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {self.cache_size}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.max_workers < 0:
            raise ValueError(f"max_workers must be >= 0, got {self.max_workers}")
        if self.parallel_threshold < 1:
            raise ValueError(
                f"parallel_threshold must be >= 1, got {self.parallel_threshold}"
            )
        if self.dense_node_limit < 0:
            raise ValueError(
                f"dense_node_limit must be >= 0, got {self.dense_node_limit}"
            )
        if not self.dense_density > 0.0:  # also rejects NaN
            raise ValueError(
                f"dense_density must be > 0, got {self.dense_density}"
            )
        if not (0.0 <= self.template_min_cover <= 1.0):
            raise ValueError(
                f"template_min_cover must be in [0, 1], got {self.template_min_cover}"
            )
        if self.shared_memory_min_bytes < 0:
            raise ValueError(
                "shared_memory_min_bytes must be >= 0, "
                f"got {self.shared_memory_min_bytes}"
            )
        if self.service_queue_depth < 1:
            raise ValueError(
                f"service_queue_depth must be >= 1, got {self.service_queue_depth}"
            )
        if self.service_store_size < 1:
            raise ValueError(
                f"service_store_size must be >= 1, got {self.service_store_size}"
            )
        if self.service_task_attempts < 1:
            raise ValueError(
                f"service_task_attempts must be >= 1, got {self.service_task_attempts}"
            )
        if self.service_retry_backoff_s < 0:
            raise ValueError(
                "service_retry_backoff_s must be >= 0, "
                f"got {self.service_retry_backoff_s}"
            )
        if self.service_respawn_budget < 0:
            raise ValueError(
                f"service_respawn_budget must be >= 0, got {self.service_respawn_budget}"
            )
        if self.service_heartbeat_s < 0:
            raise ValueError(
                f"service_heartbeat_s must be >= 0, got {self.service_heartbeat_s}"
            )
        if self.service_stall_timeout_s < 0:
            raise ValueError(
                "service_stall_timeout_s must be >= 0, "
                f"got {self.service_stall_timeout_s}"
            )
        if self.artifact_dir is not None and not isinstance(self.artifact_dir, str):
            raise TypeError(
                f"artifact_dir must be a str or None, got {type(self.artifact_dir).__name__}"
            )
        if self.artifact_max_bytes is not None and self.artifact_max_bytes < 0:
            raise ValueError(
                f"artifact_max_bytes must be >= 0 or None, got {self.artifact_max_bytes}"
            )
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise TypeError(
                f"fault_plan must be a FaultPlan or None, got {type(self.fault_plan).__name__}"
            )

    def with_overrides(self, **changes) -> "EngineConfig":
        """Return a copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)
