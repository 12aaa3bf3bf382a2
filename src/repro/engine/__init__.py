"""Execution engine: the compiled-circuit runtime of the reproduction.

This subpackage owns everything between "a ThresholdCircuit exists" and
"results came back for a batch of inputs":

* :mod:`repro.engine.config` — :class:`EngineConfig`, the runtime knobs;
* :mod:`repro.engine.cache` — the LRU compile cache keyed by the circuit's
  structural hash;
* :mod:`repro.engine.diskcache` — the persistent on-disk artifact store
  (checksummed, atomically published, memory-mapped restores) that lets a
  fresh process or worker warm-start instead of recompiling;
* :mod:`repro.engine.backends` — pluggable sparse / dense / exact backends
  behind a common protocol, with auto-selection from circuit stats;
* :mod:`repro.engine.scheduler` — chunked and process-parallel batch
  evaluation (per-call pool);
* :mod:`repro.engine.service` — the resident :class:`EvaluationService`:
  a persistent worker pool with install-once programs, shared-memory
  batch transport, a futures-based submission API, and a hardening
  ladder (deadlines, bounded retry, stall detection, degradation);
* :mod:`repro.engine.faults` — :class:`FaultPlan` injection points for
  tests and soak runs, plus :class:`DeadlineExceeded`;
* :mod:`repro.engine.soak` — the invariant soak harness hammering a
  resident service under a live fault plan;
* :mod:`repro.engine.spiking` — the spiking-mode activity/energy evaluator;
* :mod:`repro.engine.engine` — the :class:`Engine` facade tying it together.

The legacy entry points (``repro.circuits.simulate``, ``TraceCircuit``,
``TriangleQuery``) route through :func:`default_engine`, so existing code
transparently gains caching and backend selection.
"""

from repro.engine.backends import (
    Backend,
    BackendError,
    CompiledProgram,
    DenseBackend,
    ExactBackend,
    SparseBackend,
    backend_registry,
    get_backend,
    select_backend_name,
)
from repro.engine.cache import CacheInfo, CompileCache
from repro.engine.config import BACKEND_NAMES, EngineConfig
from repro.engine.diskcache import (
    ARTIFACT_VERSION,
    ArtifactEntry,
    ArtifactStoreStats,
    DiskArtifactStore,
    default_artifact_dir,
)
from repro.engine.engine import Engine, default_engine, set_default_engine
from repro.engine.faults import (
    DeadlineExceeded,
    FaultPlan,
    aggressive_plan,
    fault_plan_from_env,
)
from repro.engine.scheduler import (
    evaluate_batched,
    iter_column_chunks,
    narrowed_chunk_size,
    run_serial,
)
from repro.engine.service import (
    EvaluationService,
    ServiceClosed,
    ServiceStats,
    as_completed,
    chain_future,
    transform_executor,
)
from repro.engine.spiking import ActivityPlan, SpikeTrace, compute_spike_trace

__all__ = [
    "ARTIFACT_VERSION",
    "ActivityPlan",
    "ArtifactEntry",
    "ArtifactStoreStats",
    "BACKEND_NAMES",
    "Backend",
    "BackendError",
    "CacheInfo",
    "CompileCache",
    "CompiledProgram",
    "DeadlineExceeded",
    "DenseBackend",
    "DiskArtifactStore",
    "Engine",
    "EngineConfig",
    "EvaluationService",
    "ExactBackend",
    "FaultPlan",
    "ServiceClosed",
    "ServiceStats",
    "SparseBackend",
    "SpikeTrace",
    "aggressive_plan",
    "as_completed",
    "backend_registry",
    "chain_future",
    "compute_spike_trace",
    "default_artifact_dir",
    "default_engine",
    "evaluate_batched",
    "fault_plan_from_env",
    "get_backend",
    "iter_column_chunks",
    "narrowed_chunk_size",
    "run_serial",
    "select_backend_name",
    "set_default_engine",
    "transform_executor",
]
