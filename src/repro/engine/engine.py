"""The execution engine facade.

An :class:`Engine` owns a compile cache and a configuration and turns
circuits plus input batches into results:

* :meth:`Engine.compile` — structural-hash cache lookup, backend
  auto-selection, compilation on miss;
* :meth:`Engine.evaluate` — batched evaluation, returning the familiar
  :class:`~repro.circuits.simulator.SimulationResult` of outputs and
  energy (every node's value only with ``keep_nodes=True``);
* :meth:`Engine.submit` — the same, as a future, pipelined through the
  persistent evaluation service;
* :meth:`Engine.spike_trace` — the spiking-mode activity trace.

A batch takes one of two routes.  When the config asks for workers and the
batch is at least ``parallel_threshold`` wide, it goes to a lazily-started
resident :class:`~repro.engine.service.EvaluationService`: workers stay
alive across calls and each compiled program is installed once per worker,
keyed by ``(structural_hash, backend)``.  Every other batch runs in column
chunks in-process through :func:`~repro.engine.scheduler.run_serial`.

A process-wide default engine (:func:`default_engine`) backs the
compatibility wrappers (``repro.circuits.simulate``, ``TraceCircuit``), so
callers that never mention the engine still share one compile cache.
"""

from __future__ import annotations

import time
import weakref
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.circuits.circuit import ThresholdCircuit
from repro.circuits.simulator import (
    SimulationResult,
    build_template_plan,
    check_batch_inputs,
)
from repro.engine.backends import (
    CompiledProgram,
    RunResult,
    get_backend,
    select_backend_name,
)
from repro.engine.cache import CacheInfo, CompileCache
from repro.engine.config import BACKEND_NAMES, EngineConfig
from repro.engine.diskcache import DiskArtifactStore
from repro.engine.scheduler import narrowed_chunk_size, run_serial
from repro.engine.spiking import ActivityPlan, SpikeTrace, compute_spike_trace
from repro.obs import enable as enable_telemetry
from repro.obs import get_registry

__all__ = ["Engine", "default_engine", "set_default_engine"]


@dataclass
class _CacheEntry:
    """A compiled program and the compile-cache slot it lives under.

    ``key`` is ``(structural_hash, backend)``; the service reuses it as the
    install-once program identity.  The spiking replay's activity plan is
    not kept here: the engine builds it lazily and memoizes it by structural
    hash (never by mutating the entry, which may be shared across
    concurrent calls — and with ``cache_size=0`` the entry is discarded
    immediately, so an entry-level memo would rebuild the plan on every
    trace).
    """

    program: CompiledProgram
    key: Tuple[str, str]


class Engine:
    """Multi-backend compiled-circuit runtime with an LRU compile cache."""

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config if config is not None else EngineConfig()
        if self.config.telemetry:
            # Process-wide by design: metrics are one registry per process
            # (idempotent — a second engine joins the live registry).
            enable_telemetry()
        # The optional disk artifact store: memory misses probe it before
        # recompiling, fresh compiles spill back.  Restored entries do not
        # count as compile_calls — the whole point is that no backend ran.
        self._artifacts = (
            DiskArtifactStore(
                self.config.artifact_dir,
                max_bytes=self.config.artifact_max_bytes,
                fault_plan=self.config.fault_plan,
            )
            if self.config.artifact_cache
            else None
        )
        self._cache = CompileCache(
            self.config.cache_size,
            disk=self._artifacts,
            spill=lambda entry: entry.program,
            restore=lambda program, key: _CacheEntry(program=program, key=key),
        )
        # Remembered auto-selection verdicts (hash -> concrete backend name),
        # so an auto lookup costs one cache probe and one LRU slot, not two.
        self._auto_resolved: dict = {}
        # Lazily-built activity plans keyed by structural hash: survives
        # compile-cache evictions and cache_size=0, and never mutates cache
        # entries shared across calls.
        self._activity_plans: dict = {}
        # The resident evaluation service, started on the first parallel
        # evaluation when the config enables it; the finalizer guarantees
        # its workers stop when the engine is collected or at exit.
        self._service = None
        self._service_finalizer = None
        #: Number of actual backend compilations performed (cache misses that
        #: reached a backend).  Exposed so tests can assert cache behaviour.
        self.compile_calls = 0

    # ---------------------------------------------------------------- compile
    def _entry(
        self, circuit: ThresholdCircuit, backend: Optional[str] = None
    ) -> _CacheEntry:
        requested = backend if backend is not None else self.config.backend
        if requested not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {requested!r}; expected one of {BACKEND_NAMES}"
            )
        key_hash = circuit.structural_hash()
        # Entries live under the concrete backend name only; "auto" goes
        # through the remembered verdict so it shares the slot (and the
        # miss accounting) with forced lookups of the same backend.
        resolved = (
            self._auto_resolved.get(key_hash) if requested == "auto" else requested
        )
        if resolved is not None:
            entry = self._cache.get((key_hash, resolved))
            if entry is not None:
                return entry
        if self.config.verify_compile:
            # Debug gate: statically verify the circuit (structure,
            # provenance, interval analysis, plan cross-checks) before
            # spending a compile on it.  Imported lazily — the gate is off
            # by default and the statics package pulls in the simulator.
            from repro.statics import verify_circuit

            verify_circuit(circuit).raise_if_failed()
        registry = get_registry()
        compile_start = time.perf_counter() if registry.enabled else 0.0
        # The one compile path: template blocks the provenance licenses,
        # every other gate as residual runs.  Compiles of one structure share
        # the (hash, backend) cache slot whatever provenance the circuit
        # object carries, since the programs are bit-identical.
        plan = build_template_plan(circuit, min_cover=self.config.template_min_cover)
        if requested == "auto":
            selected = select_backend_name(plan, circuit.stats(), self.config)
            # Verdicts are cheap to recompute; keep the map bounded so a
            # long-lived engine seeing many distinct circuits cannot leak.
            if len(self._auto_resolved) >= max(64, 4 * self._cache.capacity):
                self._auto_resolved.clear()
            self._auto_resolved[key_hash] = selected
            if selected != resolved:
                # First time this circuit resolves: it may already be
                # compiled under the concrete name by a forced call.
                entry = self._cache.get((key_hash, selected))
                if entry is not None:
                    return entry
            resolved = selected
        program = get_backend(resolved).compile(plan)
        self.compile_calls += 1
        if registry.enabled:
            registry.histogram("engine.compile_s", backend=resolved).observe(
                time.perf_counter() - compile_start
            )
        entry = _CacheEntry(program=program, key=(key_hash, resolved))
        self._cache.put((key_hash, resolved), entry)
        return entry

    def compile(
        self, circuit: ThresholdCircuit, backend: Optional[str] = None
    ) -> CompiledProgram:
        """Return the compiled program for a circuit, using the cache.

        ``backend`` overrides the engine's configured backend for this call;
        ``"auto"`` resolves per circuit via the selection heuristic.
        """
        return self._entry(circuit, backend).program

    def compile_entry(
        self, circuit: ThresholdCircuit, backend: Optional[str] = None
    ) -> Tuple[CompiledProgram, Tuple[str, str]]:
        """Like :meth:`compile`, but also returns the resolved cache key.

        The key is ``(structural_hash, concrete_backend)`` — what the
        service uses as the install-once identity and the artifact store
        uses on disk — with ``"auto"`` already resolved, so callers (CLI
        warming, benchmarks) need no second hash or selection pass.
        """
        entry = self._entry(circuit, backend)
        return entry.program, entry.key

    # ---------------------------------------------------------------- service
    def _service_for(self):
        """The resident evaluation service, started on first use."""
        if self._service is None:
            from repro.engine.service import EvaluationService

            self._service = EvaluationService(self.config)
            # Bound to the *service*, not the engine: runs when the engine
            # is garbage-collected or at interpreter exit, stopping the
            # resident workers without keeping the engine alive.
            self._service_finalizer = weakref.finalize(
                self, EvaluationService.close, self._service, wait=False
            )
        return self._service

    def _service_eligible(self, batch: int) -> bool:
        """Whether a batch of this width goes to the resident service: the
        config asks for workers and the batch reaches ``parallel_threshold``.
        A batch of one column always runs inline, since it cannot shard."""
        config = self.config
        return (
            config.max_workers > 1
            and batch >= config.parallel_threshold
            and batch > 1
        )

    def _run(
        self, entry: _CacheEntry, inputs: np.ndarray, keep_nodes: bool
    ) -> RunResult:
        """A batch's run result via the service or in-process chunks."""
        registry = get_registry()
        program = entry.program
        if self._service_eligible(inputs.shape[1]):
            with registry.span(
                "engine.evaluate_s", route="service", backend=entry.key[1]
            ):
                return self._service_for().evaluate(
                    program,
                    inputs,
                    key=entry.key,
                    chunk_size=narrowed_chunk_size(
                        program, inputs.shape[1], self.config
                    ),
                    keep_nodes=keep_nodes,
                )
        with registry.span("engine.evaluate_s", route="local", backend=entry.key[1]):
            return run_serial(
                program,
                inputs,
                chunk_size=self.config.chunk_size,
                keep_nodes=keep_nodes,
            )

    def close(self) -> None:
        """Shut down the resident evaluation service, if one was started.

        The engine remains usable: the next parallel evaluation starts a
        fresh service.  Serial evaluation never needs this.
        """
        if self._service is not None:
            service, self._service = self._service, None
            if self._service_finalizer is not None:
                self._service_finalizer.detach()
                self._service_finalizer = None
            service.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # --------------------------------------------------------------- evaluate
    @staticmethod
    def _to_result(result: RunResult, squeeze: bool) -> SimulationResult:
        nodes = result.nodes
        if nodes is None:
            nodes = np.empty((0, len(result.energy)), dtype=np.int8)
        outputs, energy = result.outputs, result.energy
        if squeeze:
            return SimulationResult(nodes[:, 0], outputs[:, 0], energy[0])
        return SimulationResult(nodes, outputs, energy)

    def evaluate(
        self,
        circuit: ThresholdCircuit,
        inputs: np.ndarray,
        backend: Optional[str] = None,
        keep_nodes: bool = False,
    ) -> SimulationResult:
        """Evaluate a circuit on one input vector or a ``(n_inputs, batch)``
        block, compiling (or fetching from cache) as needed.

        The result carries the outputs and the energy; its ``node_values``
        is an empty ``(0, batch)`` array unless ``keep_nodes`` asks for
        every node's value."""
        inputs = np.asarray(inputs)
        squeeze = inputs.ndim == 1
        if squeeze:
            inputs = inputs[:, None]
        check_batch_inputs(circuit, inputs)
        entry = self._entry(circuit, backend)
        registry = get_registry()
        if registry.enabled:
            registry.counter("engine.eval_columns", backend=entry.key[1]).inc(
                inputs.shape[1]
            )
        return self._to_result(self._run(entry, inputs, keep_nodes), squeeze)

    def submit(
        self,
        circuit: ThresholdCircuit,
        inputs: np.ndarray,
        backend: Optional[str] = None,
        timeout: Optional[float] = None,
        keep_nodes: bool = False,
    ) -> "Future[SimulationResult]":
        """Pipelined :meth:`evaluate`: a future of the simulation result.

        Parallel-eligible batches are dispatched to the resident service and
        the future completes when the workers finish, so many independent
        queries (different circuits, different batches) overlap over one
        pool.  Everything else — serial configs, narrow batches — evaluates
        inline and returns an already-completed future, so callers can use
        one submission code path unconditionally.

        ``timeout`` (seconds) sets a per-job deadline on the service path:
        the future fails with :class:`~repro.engine.faults.DeadlineExceeded`
        once it passes, however wedged the pool might be.  Inline
        evaluations complete before ``submit`` returns, so a deadline has
        nothing to bound there and is ignored.
        """
        from repro.engine.service import chain_future

        inputs = np.asarray(inputs)
        squeeze = inputs.ndim == 1
        if squeeze:
            inputs = inputs[:, None]
        check_batch_inputs(circuit, inputs)
        entry = self._entry(circuit, backend)
        registry = get_registry()
        if registry.enabled:
            registry.counter("engine.eval_columns", backend=entry.key[1]).inc(
                inputs.shape[1]
            )
        if self._service_eligible(inputs.shape[1]):
            with registry.span("engine.submit_s", route="service"):
                inner = self._service_for().submit(
                    entry.program,
                    inputs,
                    key=entry.key,
                    chunk_size=narrowed_chunk_size(
                        entry.program, inputs.shape[1], self.config
                    ),
                    timeout=timeout,
                    keep_nodes=keep_nodes,
                )
            # Wrapping the run result copies nothing, so it runs on the
            # dispatcher thread that completes service futures.
            return chain_future(inner, lambda result: self._to_result(result, squeeze))
        future: "Future[SimulationResult]" = Future()
        future.set_running_or_notify_cancel()
        try:
            result = run_serial(
                entry.program,
                inputs,
                chunk_size=self.config.chunk_size,
                keep_nodes=keep_nodes,
            )
            future.set_result(self._to_result(result, squeeze))
        except Exception as exc:
            future.set_exception(exc)
        except BaseException as exc:
            # KeyboardInterrupt/SystemExit must reach the caller, not sit
            # unnoticed on the future; park a copy there for completeness.
            future.set_exception(exc)
            raise
        return future

    def _activity_plan(self, circuit: ThresholdCircuit, key_hash: str) -> ActivityPlan:
        """The circuit's activity plan, built lazily and memoized by hash.

        Keyed by structural hash rather than stored on the (possibly
        uncached, possibly shared) cache entry, so ``cache_size=0`` engines
        do not rebuild the plan on every trace and cached entries are never
        mutated.
        """
        registry = get_registry()
        plan = self._activity_plans.get(key_hash)
        if registry.enabled:
            registry.counter(
                "engine.plan_memo." + ("misses" if plan is None else "hits")
            ).inc()
        if plan is None:
            plan = ActivityPlan.from_circuit(circuit)
            # Plans are cheap to rebuild; keep the map bounded so a
            # long-lived engine seeing many circuits cannot leak.
            if len(self._activity_plans) >= max(64, 4 * self._cache.capacity):
                self._activity_plans.clear()
            self._activity_plans[key_hash] = plan
        return plan

    def spike_trace(
        self,
        circuit: ThresholdCircuit,
        inputs: np.ndarray,
        backend: Optional[str] = None,
    ) -> SpikeTrace:
        """Spiking-mode evaluation: per-layer/per-gate spike and event counts."""
        inputs = np.asarray(inputs)
        if inputs.ndim == 1:
            inputs = inputs[:, None]
        check_batch_inputs(circuit, inputs)
        entry = self._entry(circuit, backend)
        activity = self._activity_plan(circuit, entry.key[0])
        return compute_spike_trace(activity, self._run(entry, inputs, True).nodes)

    # ------------------------------------------------------------------ cache
    @property
    def metrics(self):
        """The live metrics registry (the process-global one; see repro.obs)."""
        return get_registry()

    @property
    def artifact_store(self) -> Optional[DiskArtifactStore]:
        """The disk artifact store, when ``config.artifact_cache`` is on."""
        return self._artifacts

    def cache_info(self) -> CacheInfo:
        """Hit/miss/eviction counters of the compile cache."""
        return self._cache.info()

    def clear_cache(self) -> None:
        """Drop all cached programs and verdicts (counters keep accumulating)."""
        self._cache.clear()
        self._auto_resolved.clear()
        self._activity_plans.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        info = self._cache.info()
        return (
            f"Engine(backend={self.config.backend!r}, cached={info.size}, "
            f"hits={info.hits}, compiles={self.compile_calls})"
        )


_DEFAULT_ENGINE: Optional[Engine] = None


def default_engine() -> Engine:
    """The process-wide engine used by the compatibility wrappers."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = Engine()
    return _DEFAULT_ENGINE


def set_default_engine(engine: Optional[Engine]) -> Optional[Engine]:
    """Replace the process-wide engine; returns the previous one.

    Pass ``None`` to reset lazily to a fresh default-config engine.
    """
    global _DEFAULT_ENGINE
    previous = _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine
    return previous
