"""Persistent evaluation service: a resident worker pool with install-once programs.

The per-call pool in :mod:`repro.engine.scheduler` re-pays the dominant
costs of process-parallel evaluation on *every* batch: spawning the pool and
shipping the compiled program to each worker.  That shape is exactly wrong
for the amortization story of the paper — build a circuit once, answer many
queries against it — so this module keeps the workers *resident*:

* Each worker process owns a small LRU **program store**.  A compiled
  program is installed once per ``(structural_hash, backend)`` per worker
  and thereafter referenced by that key, so steady-state requests carry
  only input columns.
* Wide batches travel through ``multiprocessing.shared_memory`` blocks
  (one for the inputs, one the workers write their output columns into);
  small batches fall back to pickling chunks over the queues, which is
  cheaper than two block setups there.  ``EngineConfig.shared_memory_min_bytes``
  draws the line.
* :meth:`EvaluationService.submit` returns a :class:`concurrent.futures.Future`,
  so many independent jobs — different circuits, different batches — pipeline
  over one pool; ``map`` and :func:`as_completed` ride on top.
* Workers that die (OOM-killed, segfaulted, externally killed) are detected
  when results go quiet or at the next dispatch, respawned with an empty
  store, and their in-flight tasks are re-dispatched; a worker answering a
  request for a key it no longer holds (LRU eviction, or a fresh process
  after a crash) triggers a targeted reinstall rather than an error.
* ``close()`` (also via the context-manager protocol) drains outstanding
  jobs, stops every worker, and releases the queues and any shared-memory
  blocks; a closed service rejects new submissions with :class:`ServiceClosed`.

Failure handling forms a ladder rather than a single recovery path:

* **Retry with backoff.**  A task attempt lost to a worker death, a lost
  result message, or a shared-memory attach failure is re-dispatched after
  an exponential backoff (``service_retry_backoff_s`` doubling per attempt),
  up to ``service_task_attempts`` total attempts before the job fails.
* **Stall detection.**  Workers post heartbeats (``service_heartbeat_s``)
  carrying the task they are currently executing; a worker wedged inside one
  task for longer than ``service_stall_timeout_s`` is killed and respawned —
  death detection alone never notices a hung-but-alive process.  The same
  clock recovers *lost results*: a worker heartbeating as idle while the
  parent still counts a long-dispatched task against it gets that task
  re-dispatched (a duplicate execution writes identical bytes to disjoint
  columns, so late twins are harmless).
* **Per-job deadlines.**  ``submit(..., timeout=...)`` fails the job's
  future with :class:`~repro.engine.faults.DeadlineExceeded` once the
  deadline passes, whatever state its tasks are in.
* **Degradation, not collapse.**  Each worker slot may be respawned at most
  ``service_respawn_budget`` times; a slot over budget is retired, and when
  the last slot retires the service *degrades*: outstanding and future jobs
  run serially in-process (``stats().degraded``, ``service.degraded_jobs``)
  instead of hanging callers or failing the engine.

Every injection point of :class:`~repro.engine.faults.FaultPlan` targets one
rung of that ladder; ``tests/soak_harness.py`` runs the whole ladder under a
live plan and asserts the results still match serial evaluation bit for bit.

The service never changes results: every task is ``program.run`` over a
column range, which is columnwise independent, so outputs are bit-identical
to serial evaluation whatever the sharding, transport, interleaving, or
injected faults.
"""

from __future__ import annotations

import heapq
import itertools
import os
import threading
import time
import traceback
import weakref
from collections import OrderedDict
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from queue import Empty
from typing import Dict, Iterable, Iterator, List, Optional, Set

import numpy as np

from repro.engine.config import EngineConfig
from repro.engine.diskcache import DiskArtifactStore, default_artifact_dir
from repro.engine.faults import DeadlineExceeded, FaultPlan, fault_plan_from_env
from repro.engine.scheduler import iter_column_chunks, run_serial
from repro.obs import MetricsRegistry, get_registry, set_registry

__all__ = [
    "EvaluationService",
    "ServiceClosed",
    "ServiceStats",
    "as_completed",
    "chain_future",
    "transform_executor",
]


class ServiceClosed(RuntimeError):
    """Raised when work is submitted to a service that has been closed."""


@dataclass(frozen=True)
class ServiceStats:
    """Counters describing service behaviour since construction.

    A *view* over the service's metrics registry: the same numbers are
    available as ``service.*`` counter series in telemetry snapshots.  The
    snapshot is taken atomically under the dispatcher lock, so the fields
    are mutually consistent (``shm_jobs <= jobs``, etc.) even while jobs are
    being submitted and completed concurrently.
    """

    workers: int
    jobs: int
    tasks: int
    installs: int
    reinstalls: int
    shm_jobs: int
    worker_restarts: int
    retries: int = 0
    stall_kills: int = 0
    deadline_failures: int = 0
    protocol_errors: int = 0
    shm_fallbacks: int = 0
    retired_workers: int = 0
    degraded_jobs: int = 0
    degraded: bool = False
    disk_skipped_installs: int = 0

    def as_dict(self) -> dict:
        return {
            "workers": self.workers,
            "jobs": self.jobs,
            "tasks": self.tasks,
            "installs": self.installs,
            "reinstalls": self.reinstalls,
            "shm_jobs": self.shm_jobs,
            "worker_restarts": self.worker_restarts,
            "retries": self.retries,
            "stall_kills": self.stall_kills,
            "deadline_failures": self.deadline_failures,
            "protocol_errors": self.protocol_errors,
            "shm_fallbacks": self.shm_fallbacks,
            "retired_workers": self.retired_workers,
            "degraded_jobs": self.degraded_jobs,
            "degraded": self.degraded,
            "disk_skipped_installs": self.disk_skipped_installs,
        }


def chain_future(inner: Future, transform, executor=None) -> Future:
    """A future resolving to ``transform(inner.result())``.

    Errors propagate: an exception from ``inner`` (including cancellation)
    or from ``transform`` becomes the outer future's exception.  The
    transform runs on whatever thread completes ``inner`` (for service
    futures: the dispatcher), so it must be cheap — pass ``executor`` to run
    an expensive transform there instead of blocking the completing thread.
    """
    outer: Future = Future()
    outer.set_running_or_notify_cancel()

    def _apply(completed: Future) -> None:
        try:
            exception = completed.exception()
        except CancelledError as exc:
            outer.set_exception(exc)
            return
        if exception is not None:
            outer.set_exception(exception)
            return
        try:
            outer.set_result(transform(completed.result()))
        except BaseException as exc:
            outer.set_exception(exc)

    def _done(completed: Future) -> None:
        if executor is not None and not completed.cancelled():
            if completed.exception() is None:
                executor.submit(_apply, completed)
                return
        _apply(completed)

    inner.add_done_callback(_done)
    return outer


_TRANSFORM_EXECUTOR: Optional[ThreadPoolExecutor] = None
_TRANSFORM_LOCK = threading.Lock()


def transform_executor() -> ThreadPoolExecutor:
    """Shared single-thread executor for expensive future transforms.

    Driver-level decodes (e.g. reconstructing matmul products from the
    output rows) run here so they never stall the service dispatcher thread
    that completes futures.
    """
    global _TRANSFORM_EXECUTOR
    with _TRANSFORM_LOCK:
        if _TRANSFORM_EXECUTOR is None:
            _TRANSFORM_EXECUTOR = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="service-transform"
            )
        return _TRANSFORM_EXECUTOR


# ----------------------------------------------------------------- worker side
class _ShmAttachError(RuntimeError):
    """A shared-memory attach failed (segment gone, or an injected fault).

    Reported to the parent as a ``shm_error`` rather than a plain ``error``:
    the *task* is retryable — and after repeated attach failures the parent
    falls the whole job back to pickle transport — whereas a plain error
    fails the job.
    """


class _WorkerFaultState:
    """Worker-process-local application of a :class:`FaultPlan`.

    Tracks this process's executed-task ordinal (1-based; tasks whose
    program is missing don't count, matching the executed-tasks telemetry)
    and the remaining budget of the count-limited faults.  Lives only in
    test/soak worker processes — production workers carry ``None``.
    """

    __slots__ = ("plan", "registry", "executed", "installs_seen", "shm_failures_left")

    def __init__(self, plan: FaultPlan, registry) -> None:
        self.plan = plan
        self.registry = registry
        self.executed = 0
        self.installs_seen = 0
        self.shm_failures_left = plan.shm_attach_failures

    def _hit(self, kind: str) -> None:
        if self.registry is not None:
            self.registry.counter("faults.injected", kind=kind).inc()

    def drop_install(self) -> bool:
        self.installs_seen += 1
        if self.installs_seen <= self.plan.install_failures:
            self._hit("install")
            return True
        return False

    def begin_task(self) -> None:
        """Advance the executed ordinal and fire kill-before / stall faults."""
        self.executed += 1
        if self.plan.kill_before_task == self.executed:
            self._hit("kill_before")
            os._exit(3)
        if self.plan.stall_task == self.executed:
            self._hit("stall")
            time.sleep(self.plan.stall_seconds)

    def kill_after(self) -> None:
        if self.plan.kill_after_task == self.executed:
            self._hit("kill_after")
            os._exit(3)

    def take_shm_failure(self) -> bool:
        if self.shm_failures_left > 0:
            self.shm_failures_left -= 1
            self._hit("shm_attach")
            return True
        return False

    def drop_result(self) -> bool:
        if self.executed in self.plan.drop_result_tasks:
            self._hit("drop_result")
            return True
        return False

    def corrupt_result(self) -> bool:
        if self.executed in self.plan.corrupt_result_tasks:
            self._hit("corrupt_result")
            return True
        return False

    def delay_result(self) -> None:
        if self.plan.delay_result_s > 0:
            time.sleep(self.plan.delay_result_s)


def _attach_block(name: str, fault_state: Optional[_WorkerFaultState] = None) -> SharedMemory:
    """Attach to a parent-owned shared-memory block without claiming it.

    On Python < 3.13 attaching registers the segment with the resource
    tracker as if this process owned it, which makes worker exits unlink (or
    warn about) blocks the parent still manages; unregister defensively.
    """
    if fault_state is not None and fault_state.take_shm_failure():
        raise _ShmAttachError(f"injected shared-memory attach failure for {name!r}")
    try:
        block = SharedMemory(name=name)
    except FileNotFoundError as exc:
        # The parent unlinked the block (job failed elsewhere, or fell back
        # to pickle transport mid-flight): retryable, not a job failure.
        raise _ShmAttachError(f"shared-memory block {name!r} is gone") from exc
    try:  # pragma: no cover - depends on interpreter version details
        from multiprocessing import resource_tracker

        resource_tracker.unregister(block._name, "shared_memory")
    except Exception:
        pass
    return block


def _execute_task(
    program, payload, fault_state: Optional[_WorkerFaultState] = None
) -> Optional[np.ndarray]:
    """Run one task payload; returns the chunk for pickle transport, else None."""
    kind = payload[0]
    if kind == "pickle":
        return program.run(payload[1])
    # ("shm", in_name, in_shape, in_dtype, out_name, out_shape, start, stop)
    _, in_name, in_shape, in_dtype, out_name, out_shape, start, stop = payload
    in_block = None
    out_block = None
    try:
        # Attach inside the try: if the parent unlinked the job's blocks
        # between the two attaches (sibling task failed the job), the first
        # mapping must still be closed — a leaked mapping in a resident
        # worker pins the freed segment's memory for the worker's lifetime.
        in_block = _attach_block(in_name, fault_state)
        out_block = _attach_block(out_name, fault_state)
        inputs = np.ndarray(in_shape, dtype=np.dtype(in_dtype), buffer=in_block.buf)
        outputs = np.ndarray(out_shape, dtype=np.int8, buffer=out_block.buf)
        outputs[:, start:stop] = program.run(inputs[:, start:stop])
        # Views into the buffers must be gone before close() or the memoryview
        # export check raises BufferError.
        del inputs, outputs
    finally:
        if in_block is not None:
            in_block.close()
        if out_block is not None:
            out_block.close()
    return None


def _discard_queue(queue) -> None:
    """Tear down a queue whose reader may be gone, without risking a hang.

    ``Queue.close()`` alone leaves the feeder thread obligated to flush
    buffered items into the pipe; if the consumer died (killed worker, timed
    out dispatcher) that flush never completes and interpreter exit blocks on
    ``join_thread``.  Cancelling first says the buffered data may be dropped —
    by teardown time nobody will read it anyway.
    """
    try:
        queue.cancel_join_thread()
        queue.close()
    except (ValueError, OSError):  # pragma: no cover - already closed
        pass


def _payload_bytes(payload) -> int:
    """Transport bytes one task moves (inputs read plus outputs written)."""
    if payload[0] == "pickle":
        return int(payload[1].nbytes) * 2  # chunk over the pipe, result back
    # ("shm", in_name, in_shape, in_dtype, out_name, out_shape, start, stop)
    _, _, in_shape, in_dtype, _, out_shape, start, stop = payload
    width = stop - start
    in_bytes = in_shape[0] * width * np.dtype(in_dtype).itemsize
    out_bytes = out_shape[0] * width  # int8 output columns written in place
    return int(in_bytes + out_bytes)


def _drain_delta(registry: Optional[MetricsRegistry]) -> Optional[dict]:
    """This worker's metric delta since the last report (None when disabled)."""
    if registry is None:
        return None
    delta = registry.drain()
    if delta["counters"] or delta["gauges"] or delta["histograms"]:
        return delta
    return None


def _service_worker_main(
    worker_id,
    requests,
    results,
    store_capacity,
    telemetry=False,
    heartbeat_s=0.0,
    fault_plan=None,
    artifact_dir=None,
) -> None:
    """Loop of one resident worker: install programs, run tasks, report back.

    The local program store is a twin of the parent-side mirror: both evict
    LRU-first at ``store_capacity`` and both refresh recency on installs and
    runs, and since messages arrive in the order the parent dispatched them
    the two stay in lockstep.  A run for a key the store no longer holds
    (mirror drift, or a fresh process after a crash) is answered with a
    ``missing`` report so the parent reinstalls and re-dispatches.

    With ``heartbeat_s > 0`` a daemon thread posts
    ``(worker_id, "heartbeat", pid, current_task_id, None)`` at that
    interval; the pid lets the parent discard stale beats queued by a dead
    predecessor of the same slot, and the current task id is what makes a
    wedged-inside-a-task worker distinguishable from a merely busy one.

    With ``telemetry`` on, the worker keeps its own lightweight registry
    (installs, store evictions, task latency, queue wait, transport bytes)
    and piggybacks the drained delta on every result message; the parent
    merges deltas tagged with this worker's id.  A delta rides exactly one
    message, so parent-side aggregates are monotone and a killed worker
    loses at most the few observations since its last report.

    ``fault_plan`` (tests/soak only) threads a :class:`FaultPlan` through
    the loop via :class:`_WorkerFaultState`; production workers receive None
    and pay a single ``is None`` check per message.

    ``artifact_dir`` enables warm-starting: a run for a key the store does
    not hold first probes the disk artifact store and restores the program
    (memory-mapped, checksum-verified) instead of reporting ``missing`` —
    so a fresh or respawned worker installs nothing the host has compiled
    before, and the parent never re-ships those programs over the queue.
    """
    registry = MetricsRegistry() if telemetry else None
    if registry is not None:
        # Fresh registry for this process (the forked copy of the parent's
        # would re-report parent totals); debug-mode backend spans land here.
        set_registry(registry)
    faults = _WorkerFaultState(fault_plan, registry) if fault_plan is not None else None
    artifacts = None
    if artifact_dir:
        try:
            # No tmp sweep here: every worker constructing a store at spawn
            # would race the sweep against live parent-side writers.
            artifacts = DiskArtifactStore(artifact_dir, sweep=False)
        except OSError:  # pragma: no cover - unwritable dir: degrade to installs
            artifacts = None
    store: "OrderedDict[object, object]" = OrderedDict()
    current = [None]  # task id being executed, shared with the heartbeat thread
    stop_beating = threading.Event()
    if heartbeat_s > 0:
        pid = os.getpid()

        def _beat() -> None:
            while not stop_beating.wait(heartbeat_s):
                try:
                    results.put((worker_id, "heartbeat", pid, current[0], None))
                except Exception:  # pragma: no cover - queue torn down at exit
                    return

        threading.Thread(target=_beat, name="service-heartbeat", daemon=True).start()
    while True:
        message = requests.get()
        kind = message[0]
        if kind == "stop":
            stop_beating.set()
            break
        if kind == "install":
            _, key, program = message
            if faults is not None and faults.drop_install():
                continue
            store[key] = program
            store.move_to_end(key)
            if registry is not None:
                registry.counter("worker.installs").inc()
            while len(store) > store_capacity:
                store.popitem(last=False)
                if registry is not None:
                    registry.counter("worker.store_evictions").inc()
            continue
        # ("run", task_id, key, payload, dispatched_at)
        _, task_id, key, payload, dispatched_at = message
        program = store.get(key)
        if (
            program is None
            and artifacts is not None
            and isinstance(key, tuple)
            and len(key) == 2
            and isinstance(key[0], str)
            and isinstance(key[1], str)
        ):
            # Warm start: the parent skipped the install because the
            # program is on disk; restore it here (or after a respawn,
            # where the fresh process holds nothing the disk does not).
            program = artifacts.get(key[0], key[1])
            if program is not None:
                store[key] = program
                if registry is not None:
                    registry.counter("worker.disk_restores").inc()
                while len(store) > store_capacity:
                    store.popitem(last=False)
                    if registry is not None:
                        registry.counter("worker.store_evictions").inc()
        if program is None:
            results.put(
                (worker_id, "missing", task_id, None, _drain_delta(registry))
            )
            continue
        store.move_to_end(key)
        current[0] = task_id
        try:
            if faults is not None:
                faults.begin_task()
            if registry is not None:
                if dispatched_at is not None:
                    # Wall clock, not perf_counter: the dispatch stamp was
                    # taken in another process (same host, same clock).
                    registry.histogram("worker.queue_wait_s").observe(
                        max(0.0, time.time() - dispatched_at)  # statics: ignore[REP004]
                    )
                registry.counter("worker.tasks").inc()
                registry.counter(
                    "worker.shm_bytes" if payload[0] == "shm" else "worker.pickle_bytes"
                ).inc(_payload_bytes(payload))
                start = time.perf_counter()
                chunk = _execute_task(program, payload, faults)
                registry.histogram("worker.task_s").observe(
                    time.perf_counter() - start
                )
            else:
                chunk = _execute_task(program, payload, faults)
            if faults is not None:
                faults.kill_after()
                faults.delay_result()
                if faults.drop_result():
                    continue
                if faults.corrupt_result():
                    results.put(("corrupt-message",))
                    continue
            results.put((worker_id, "done", task_id, chunk, _drain_delta(registry)))
        except _ShmAttachError as exc:
            results.put(
                (worker_id, "shm_error", task_id, repr(exc), _drain_delta(registry))
            )
        except BaseException as exc:
            detail = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
            results.put(
                (
                    worker_id,
                    "error",
                    task_id,
                    (repr(exc), detail),
                    _drain_delta(registry),
                )
            )
        finally:
            current[0] = None


# ----------------------------------------------------------------- parent side
class _Worker:
    """Parent-side handle of one resident worker process."""

    __slots__ = (
        "index",
        "process",
        "requests",
        "store",
        "force_install",
        "inflight",
        "last_beat_at",
        "running",
    )

    def __init__(self, index, process, requests) -> None:
        self.index = index
        self.process = process
        self.requests = requests
        #: Mirror of the worker's LRU program store (keys only).
        self.store: "OrderedDict[object, bool]" = OrderedDict()
        #: Keys whose next install must ride the queue even though the
        #: artifact store claims to hold them: this worker reported
        #: ``missing`` after a skipped install, so its disk restore failed
        #: (pruned or corrupt artifact) and skipping again would loop.
        self.force_install: set = set()
        #: Task ids currently dispatched to this worker.
        self.inflight: set = set()
        #: Monotonic stamp of the last heartbeat whose pid matched this
        #: process (None before the first beat, or with heartbeats off).
        self.last_beat_at: Optional[float] = None
        #: ``(task_id, first_seen_at)`` the worker last reported executing —
        #: ``first_seen_at`` is the parent-side stamp of the first beat
        #: naming that task, the clock stall detection runs against.
        self.running: Optional[tuple] = None


#: Default bound on attempts per task (see
#: ``EngineConfig.service_task_attempts``, which overrides it), counting
#: missing-program reports (e.g. a program that cannot be pickled into the
#: worker, which only surfaces asynchronously in the queue's feeder thread),
#: re-dispatches after worker deaths, lost results, and shm attach failures:
#: a task that deterministically kills its worker (OOM, native segfault)
#: must fail the job instead of respawning forever.
_MAX_TASK_ATTEMPTS = 5


class _Task:
    # No back-reference to the dispatched worker: result handling must
    # attribute reports to the *reporting* worker id (a task may have been
    # re-dispatched meanwhile), and a stored handle would pin dead _Worker
    # objects alive for the task's lifetime.  ``last_worker`` is the bare
    # index, kept so a retry prefers a *different* worker (a task whose
    # worker wedges would otherwise chase the same injected stall forever).
    __slots__ = ("task_id", "job", "start", "stop", "attempts", "dispatched_at", "last_worker")

    def __init__(self, task_id, job, start, stop) -> None:
        self.task_id = task_id
        self.job = job
        self.start = start
        self.stop = stop
        self.attempts = 0
        self.dispatched_at: Optional[float] = None
        self.last_worker: Optional[int] = None


class _Job:
    """One submitted batch: a future plus the state to assemble its result."""

    __slots__ = (
        "future",
        "program",
        "key",
        "inputs",
        "in_shape",
        "in_dtype",
        "n_nodes",
        "batch",
        "pending",
        "out",
        "in_shm",
        "out_shm",
        "done",
        "started_at",
        "counted",
        "deadline",
        "degraded",
    )

    def __init__(self, future, program, key, inputs, n_nodes, batch) -> None:
        self.future = future
        self.program = program
        self.key = key
        self.inputs = inputs  # retained for pickle-mode (re-)dispatch; None for shm
        self.in_shape = inputs.shape
        self.in_dtype = str(inputs.dtype)
        self.n_nodes = n_nodes
        self.batch = batch
        self.pending: set = set()
        self.out: Optional[np.ndarray] = None  # pickle-mode assembly buffer
        self.in_shm: Optional[SharedMemory] = None
        self.out_shm: Optional[SharedMemory] = None
        self.done = False
        self.started_at: Optional[float] = None  # submit stamp (telemetry only)
        self.counted = False  # included in the outstanding-jobs gauge
        self.deadline: Optional[float] = None  # monotonic; None = no deadline
        self.degraded = False  # any part ran via in-process serial fallback


class EvaluationService:
    """A resident pool evaluating compiled programs with install-once keys.

    Parameters
    ----------
    config:
        The engine configuration supplying every knob the service honors:
        ``max_workers`` (pool width; values < 2 still run one resident
        worker), ``chunk_size`` / column sharding, ``shared_memory_min_bytes``
        (transport cutover), ``service_queue_depth`` (bound on outstanding
        jobs; further ``submit`` calls block) and ``service_store_size``
        (per-worker LRU program-store capacity).
    context:
        Optional ``multiprocessing`` context; defaults to the platform
        default (fork on Linux, matching the per-call scheduler pool).
    registry:
        Optional metrics registry the service records into.  By default the
        process-global registry is used when telemetry is enabled; when it is
        not, the service keeps a private always-on registry so
        :meth:`stats` works regardless (its handful of counter updates per
        job cost the same as the plain ints they replaced).  Worker-side
        telemetry (per-task latency, queue wait, transport bytes, piggyback
        deltas) only activates when process-global telemetry is on at
        service construction.
    """

    def __init__(
        self, config: Optional[EngineConfig] = None, *, context=None, registry=None
    ) -> None:
        self.config = config if config is not None else EngineConfig()
        self._ctx = context if context is not None else get_context()
        self._lock = threading.RLock()
        self._results = self._ctx.Queue()
        self._task_ids = itertools.count()
        self._tasks: Dict[int, _Task] = {}
        # Future resolutions staged under the lock, applied outside it: a
        # future's done-callbacks (chain_future transforms, user callbacks)
        # must never run while the service lock is held.
        self._resolutions: List[tuple] = []
        self._job_slots = threading.BoundedSemaphore(self.config.service_queue_depth)
        self._auto_keys: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._anon_ids = itertools.count()
        self._closing = False
        self._closed = False
        # Hardening state: scheduled retries (min-heap on due time), jobs
        # carrying deadlines, per-slot respawn counts, the serial backlog
        # degraded mode drains, and the fault plan (config first, then the
        # REPRO_FAULTS test hook).
        self._fault_plan: Optional[FaultPlan] = (
            self.config.fault_plan
            if self.config.fault_plan is not None
            else fault_plan_from_env()
        )
        # Warm-start state: the artifact directory workers restore from
        # (None disables the whole path), a parent-side store handle for
        # contains() probes, and a memo of keys known to be on disk so the
        # hot dispatch path does not stat() per job.
        self._artifact_dir: Optional[str] = (
            (self.config.artifact_dir or default_artifact_dir())
            if self.config.artifact_cache
            else None
        )
        self._artifacts: Optional[DiskArtifactStore] = (
            DiskArtifactStore(
                self._artifact_dir, max_bytes=self.config.artifact_max_bytes
            )
            if self._artifact_dir is not None
            else None
        )
        self._disk_resident: Set[object] = set()
        self._max_attempts = self.config.service_task_attempts
        self._retry_backoff_s = self.config.service_retry_backoff_s
        self._respawn_budget = self.config.service_respawn_budget
        self._heartbeat_s = self.config.service_heartbeat_s
        self._stall_timeout_s = self.config.service_stall_timeout_s
        self._retries: List[tuple] = []
        self._retry_seq = itertools.count()
        self._serial_backlog: List[_Task] = []
        self._deadline_jobs: Set[_Job] = set()
        self._slot_respawns: Dict[int, int] = {}
        self._degraded = False
        self._dispatch_count = 0
        self._next_tick = 0.0
        self._tick_interval = min(0.2, self._heartbeat_s) if self._heartbeat_s > 0 else 0.2
        global_registry = get_registry()
        if registry is not None:
            self._metrics = registry
        elif global_registry.enabled:
            self._metrics = global_registry
        else:
            self._metrics = MetricsRegistry()
        #: Whether workers carry registries and piggyback deltas (decided at
        #: construction — worker processes are spawned with this flag).
        self._telemetry = bool(getattr(self._metrics, "enabled", False)) and (
            registry is not None or global_registry.enabled
        )
        metrics = self._metrics
        self._c_jobs = metrics.counter("service.jobs")
        self._c_tasks = metrics.counter("service.tasks")
        self._c_installs = metrics.counter("service.installs")
        self._c_reinstalls = metrics.counter("service.reinstalls")
        self._c_disk_skipped = metrics.counter("service.disk_skipped_installs")
        self._c_shm_jobs = metrics.counter("service.shm_jobs")
        self._c_restarts = metrics.counter("service.worker_restarts")
        self._c_shm_bytes = metrics.counter("service.shm_bytes")
        self._c_pickle_bytes = metrics.counter("service.pickle_bytes")
        self._c_retries = metrics.counter("service.retries")
        self._c_stall_kills = metrics.counter("service.stall_kills")
        self._c_deadline_failures = metrics.counter("service.deadline_failures")
        self._c_protocol_errors = metrics.counter("service.protocol_errors")
        self._c_shm_fallbacks = metrics.counter("service.shm_fallbacks")
        self._c_retired = metrics.counter("service.retired_workers")
        self._c_degraded_jobs = metrics.counter("service.degraded_jobs")
        self._g_degraded = metrics.gauge("service.degraded")
        self._g_queue_depth = metrics.gauge("service.queue_depth")
        self._g_workers = metrics.gauge("service.workers")
        self._outstanding = 0
        n_workers = max(1, self.config.max_workers)
        self._workers: List[_Worker] = [
            self._spawn_worker(index) for index in range(n_workers)
        ]
        self._g_workers.set(n_workers)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name="evaluation-service-dispatcher",
            daemon=True,
        )
        self._dispatcher.start()

    # ------------------------------------------------------------- lifecycle
    def _spawn_worker(self, index: int) -> _Worker:
        requests = self._ctx.Queue()
        plan = self._fault_plan
        process = self._ctx.Process(
            target=_service_worker_main,
            args=(
                index,
                requests,
                self._results,
                self.config.service_store_size,
                self._telemetry,
                self._heartbeat_s,
                plan if plan is not None and plan.applies_to(index) else None,
                self._artifact_dir,
            ),
            name=f"evaluation-service-worker-{index}",
            daemon=True,
        )
        process.start()
        return _Worker(index, process, requests)

    def __enter__(self) -> "EvaluationService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self, wait: bool = True, timeout: float = 10.0) -> None:
        """Stop accepting work, stop every worker, release all resources.

        ``wait=True`` (default) drains outstanding jobs first; ``wait=False``
        fails their futures immediately.  Either way every in-flight future
        resolves — jobs the drain window didn't cover fail with a
        :class:`ServiceClosed` cause — and ``timeout`` bounds the *whole*
        shutdown (drain + dispatcher join + worker joins), not each step: a
        wedged worker is terminated, then killed, rather than waited on
        indefinitely.  Idempotent.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            if self._closed:
                return
            self._closing = True
            outstanding = list(
                {task.job for task in self._tasks.values() if not task.job.done}
            )
        if wait:
            for job in outstanding:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    job.future.exception(timeout=remaining)
                except Exception:
                    pass
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for task in list(self._tasks.values()):
                self._fail_job(
                    task.job,
                    ServiceClosed("service closed with the job still in flight"),
                )
            self._tasks.clear()
            self._retries.clear()
            self._serial_backlog.clear()
            self._deadline_jobs.clear()
            workers = list(self._workers)
        self._flush_resolutions()
        for worker in workers:
            try:
                worker.requests.put(("stop",))
            except (ValueError, OSError):  # pragma: no cover - queue torn down
                pass
        self._results.put(None)  # wake + stop the dispatcher
        self._dispatcher.join(timeout=max(0.1, deadline - time.monotonic()))
        for worker in workers:
            # First a bounded cooperative join, then force: a worker wedged
            # inside a task (or with a full request queue) must not turn
            # close() into an indefinite hang.
            worker.process.join(timeout=max(0.0, min(1.0, deadline - time.monotonic())))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=0.5)
            if worker.process.is_alive():  # pragma: no cover - ignores SIGTERM
                worker.process.kill()
                worker.process.join(timeout=1.0)
            _discard_queue(worker.requests)
        # The dispatcher (daemon) may still be mid-loop if the join above
        # timed out; discarding rather than flushing the results queue keeps
        # interpreter exit from waiting on its feeder thread.
        _discard_queue(self._results)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def metrics(self):
        """The registry backing this service's counters (see repro.obs)."""
        return self._metrics

    def stats(self) -> ServiceStats:
        """Atomic snapshot of the service counters (a view over the registry).

        Taken under the dispatcher lock — the same lock every counter update
        is performed under — so the fields cannot tear against a concurrent
        ``submit`` (e.g. ``jobs`` incremented but ``shm_jobs`` not yet).
        """
        with self._lock:
            return ServiceStats(
                workers=len(self._workers),
                jobs=self._c_jobs.value,
                tasks=self._c_tasks.value,
                installs=self._c_installs.value,
                reinstalls=self._c_reinstalls.value,
                shm_jobs=self._c_shm_jobs.value,
                worker_restarts=self._c_restarts.value,
                retries=self._c_retries.value,
                stall_kills=self._c_stall_kills.value,
                deadline_failures=self._c_deadline_failures.value,
                protocol_errors=self._c_protocol_errors.value,
                shm_fallbacks=self._c_shm_fallbacks.value,
                retired_workers=self._c_retired.value,
                degraded_jobs=self._c_degraded_jobs.value,
                degraded=self._degraded,
                disk_skipped_installs=self._c_disk_skipped.value,
            )

    # ------------------------------------------------------------ submission
    def _key_for(self, program) -> object:
        """A stable per-program key when the caller did not supply one.

        Held weakly: the key dies with the program object, so id-style reuse
        cannot alias two different programs.
        """
        try:
            key = self._auto_keys.get(program)
            if key is None:
                key = ("anon", next(self._anon_ids))
                self._auto_keys[program] = key
            return key
        except TypeError:  # unweakrefable program object
            return ("anon", next(self._anon_ids))

    def submit(
        self, program, inputs, *, key=None, chunk_size=None, timeout=None
    ) -> Future:
        """Schedule one batched evaluation; returns a future of node values.

        ``inputs`` is a ``(n_inputs, batch)`` block (a 1-D vector is promoted
        to one column; the result keeps the 2-D ``(n_nodes, batch)`` shape).
        ``key`` identifies the program across calls — the engine passes
        ``(structural_hash, backend)`` — so repeated submissions reuse the
        per-worker installs; omitted keys are derived per program object.
        Blocks while ``service_queue_depth`` jobs are already outstanding.

        ``timeout`` (seconds) is a per-job deadline: once it passes, the
        future fails with :class:`~repro.engine.faults.DeadlineExceeded`
        whatever state the job's tasks are in — retries, a wedged worker, or
        degraded serial execution never turn into an unbounded wait.

        Jobs are split into column tasks of ``chunk_size`` (default: the
        config's) — and *not* narrowed to the worker count: a pipelined
        query stream already keeps every worker busy with whole jobs, and
        sparse evaluation cost is largely per-chunk, so finer within-job
        sharding buys latency only when the pool is otherwise idle.  The
        engine passes its scheduler-narrowed width for blocking calls.
        """
        inputs = np.asarray(inputs)
        if inputs.ndim == 1:
            inputs = inputs[:, None]
        if inputs.ndim != 2:
            raise ValueError(f"inputs must be 1-D or 2-D, got shape {inputs.shape}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0 or None, got {timeout}")
        if self._closing or self._closed:
            raise ServiceClosed("cannot submit to a closed service")
        future: Future = Future()
        future.set_running_or_notify_cancel()
        batch = inputs.shape[1]
        if batch == 0:
            future.set_result(np.empty((program.n_nodes, 0), dtype=np.int8))
            return future
        if key is None:
            with self._lock:
                key = self._key_for(program)

        if chunk_size is None:
            chunk_size = self.config.chunk_size
        deadline = time.monotonic() + timeout if timeout is not None else None
        if self._degraded:
            return self._submit_degraded(future, program, inputs, chunk_size, deadline)
        ranges = list(iter_column_chunks(batch, chunk_size))
        self._job_slots.acquire()
        job = _Job(future, program, key, inputs, program.n_nodes, batch)
        job.deadline = deadline
        try:
            use_shm = inputs.nbytes >= self.config.shared_memory_min_bytes
            if use_shm:
                try:
                    self._setup_shared_memory(job, inputs)
                except (OSError, ValueError):  # no /dev/shm or exhausted space
                    use_shm = False
            if not use_shm:
                job.out = np.empty((job.n_nodes, batch), dtype=np.int8)
            with self._lock:
                if self._closing or self._closed:
                    raise ServiceClosed("cannot submit to a closed service")
                self._c_jobs.inc()
                if job.in_shm is not None:
                    self._c_shm_jobs.inc()
                    self._c_shm_bytes.inc(
                        int(inputs.nbytes) + job.n_nodes * batch
                    )
                else:
                    self._c_pickle_bytes.inc(int(inputs.nbytes))
                if self._telemetry:
                    job.started_at = time.perf_counter()
                job.counted = True
                self._outstanding += 1
                self._g_queue_depth.set(self._outstanding)
                if job.deadline is not None:
                    self._deadline_jobs.add(job)
                for start, stop in ranges:
                    task = _Task(next(self._task_ids), job, start, stop)
                    job.pending.add(task.task_id)
                    self._tasks[task.task_id] = task
                    self._dispatch(task)
        except BaseException as exc:
            with self._lock:
                if not job.done:
                    self._fail_job(
                        job,
                        exc if isinstance(exc, Exception) else RuntimeError(repr(exc)),
                    )
            self._flush_resolutions()
            raise
        # Dispatching may have respawned a dead worker and failed another
        # job's over-retried tasks; resolve those futures lock-free too.
        self._flush_resolutions()
        return future

    def _submit_degraded(self, future, program, inputs, chunk_size, deadline) -> Future:
        """Serial in-process fallback once the pool is gone (degraded mode).

        Runs on the submitting thread — by the time the service degrades
        there is no pool left to pipeline over, so inline execution loses
        nothing and keeps the futures API intact for callers.
        """
        with self._lock:
            self._c_jobs.inc()
            self._c_degraded_jobs.inc()
        try:
            result = run_serial(
                program, inputs, chunk_size=chunk_size, deadline=deadline
            )
        except BaseException as exc:
            if isinstance(exc, DeadlineExceeded):
                self._c_deadline_failures.inc()
            future.set_exception(
                exc if isinstance(exc, Exception) else RuntimeError(repr(exc))
            )
        else:
            future.set_result(result)
        return future

    def evaluate(
        self, program, inputs, *, key=None, chunk_size=None, timeout=None
    ) -> np.ndarray:
        """Blocking :meth:`submit`: the ``(n_nodes, batch)`` node values."""
        return self.submit(
            program, inputs, key=key, chunk_size=chunk_size, timeout=timeout
        ).result()

    def map(
        self, program, batches: Iterable, *, key=None, chunk_size=None
    ) -> Iterator[np.ndarray]:
        """Submit many batches of one program; yield results in order."""
        futures = [
            self.submit(program, batch, key=key, chunk_size=chunk_size)
            for batch in batches
        ]
        for future in futures:
            yield future.result()

    def _setup_shared_memory(self, job: _Job, inputs: np.ndarray) -> None:
        in_shm = SharedMemory(create=True, size=max(1, inputs.nbytes))
        try:
            out_shm = SharedMemory(create=True, size=max(1, job.n_nodes * job.batch))
        except BaseException:
            in_shm.close()
            in_shm.unlink()
            raise
        staged = np.ndarray(inputs.shape, dtype=inputs.dtype, buffer=in_shm.buf)
        staged[:] = inputs
        del staged
        job.in_shm = in_shm
        job.out_shm = out_shm
        # The block now owns the data; dispatch only needs shape and dtype.
        job.inputs = None

    # -------------------------------------------------------------- dispatch
    def _dispatch(self, task: _Task) -> None:
        """Send one task to the least-loaded live worker (lock held).

        With no live workers left (every slot retired) the task goes to the
        serial backlog the dispatcher drains in-process instead.  Retries
        prefer a worker other than the one that last held the task, so a
        task whose worker wedges or loses results isn't re-dispatched into
        the same failure.
        """
        for worker in list(self._workers):
            if not worker.process.is_alive():
                self._respawn_worker(worker)
        if task.job.done or task.task_id not in self._tasks:
            # The respawn sweep can fail this very task's job (a sibling
            # orphan exhausting its attempts releases the job's buffers).
            return
        if not self._workers:
            self._serial_backlog.append(task)
            return
        worker = min(
            self._workers,
            key=lambda w: (len(w.inflight), w.index == task.last_worker, w.index),
        )
        self._install_if_needed(worker, task.job)
        worker.inflight.add(task.task_id)
        self._c_tasks.inc()
        task.dispatched_at = time.monotonic()
        task.last_worker = worker.index
        self._dispatch_count += 1
        plan = self._fault_plan
        if plan is not None and self._dispatch_count in plan.drop_dispatch_tasks:
            # Injected dispatch loss: all the bookkeeping, no request — the
            # lost-result clock must notice and re-dispatch.
            return
        worker.requests.put(
            (
                "run",
                task.task_id,
                task.job.key,
                self._payload_for(task),
                time.time() if self._telemetry else None,
            )
        )

    def _retry_later(self, task: _Task) -> None:
        """Schedule a re-dispatch after exponential backoff (lock held)."""
        self._c_retries.inc()
        delay = self._retry_backoff_s * (2 ** max(0, task.attempts - 1))
        heapq.heappush(
            self._retries, (time.monotonic() + delay, next(self._retry_seq), task)
        )

    def _task_attempt_failed(self, task: _Task, reason: str) -> None:
        """Count one lost attempt; retry with backoff or fail the job (lock held)."""
        task.attempts += 1
        if task.attempts >= self._max_attempts:
            self._tasks.pop(task.task_id, None)
            self._fail_job(
                task.job,
                RuntimeError(
                    f"service task for program {task.job.key!r} was "
                    f"retried {task.attempts} times after {reason}; "
                    "giving up (does this input crash the worker?)"
                ),
            )
            return
        self._retry_later(task)

    def _payload_for(self, task: _Task) -> tuple:
        job = task.job
        if job.in_shm is not None:
            return (
                "shm",
                job.in_shm.name,
                job.in_shape,
                job.in_dtype,
                job.out_shm.name,
                (job.n_nodes, job.batch),
                task.start,
                task.stop,
            )
        return ("pickle", job.inputs[:, task.start : task.stop])

    def _artifact_resident(self, key) -> bool:
        """Whether the artifact store holds this key (memoized positives).

        Only ``(structural_hash, backend)`` string keys are disk-cacheable;
        anonymous per-program keys always install over the queue.
        """
        if self._artifacts is None or not (
            isinstance(key, tuple)
            and len(key) == 2
            and isinstance(key[0], str)
            and isinstance(key[1], str)
        ):
            return False
        if key in self._disk_resident:
            return True
        if self._artifacts.contains(key[0], key[1]):
            self._disk_resident.add(key)
            return True
        return False

    def _install_if_needed(self, worker: _Worker, job: _Job) -> None:
        """Mirror-checked install: ship the program once per worker per key.

        With the artifact cache on, a key the disk store holds skips the
        queue install entirely — the worker restores it on first use (and
        a respawned worker re-restores without the parent doing anything).
        A worker whose restore failed reports ``missing``, which marks the
        key for a forced queue install here (see ``_Worker.force_install``).
        """
        if job.key not in worker.store:
            if (
                job.key not in worker.force_install
                and self._artifact_resident(job.key)
            ):
                self._c_disk_skipped.inc()
            else:
                worker.requests.put(("install", job.key, job.program))
                worker.force_install.discard(job.key)
                self._c_installs.inc()
        worker.store[job.key] = True
        worker.store.move_to_end(job.key)
        while len(worker.store) > self.config.service_store_size:
            worker.store.popitem(last=False)

    def _respawn_worker(self, worker: _Worker) -> None:
        """Replace a dead worker — or retire its slot — and retry its tasks.

        Re-dispatches count against the task's attempt budget so a task that
        deterministically kills its worker (OOM, native crash) fails its job
        after ``service_task_attempts`` instead of respawning forever.  Each
        slot may only be respawned ``service_respawn_budget`` times; a slot
        over budget is retired, and retiring the last slot flips the service
        into degraded (in-process serial) mode.
        """
        worker.process.join(timeout=0)
        _discard_queue(worker.requests)
        orphaned = [
            self._tasks[task_id]
            for task_id in worker.inflight
            if task_id in self._tasks
        ]
        worker.inflight.clear()
        slot = self._workers.index(worker)
        if self._closing or self._closed:
            # Shutdown in progress: never spawn into a closing service, and
            # close() will fail the orphans' jobs itself.
            self._workers.pop(slot)
            self._g_workers.set(len(self._workers))
            return
        respawns = self._slot_respawns.get(worker.index, 0) + 1
        self._slot_respawns[worker.index] = respawns
        if respawns > self._respawn_budget:
            self._workers.pop(slot)
            self._c_retired.inc()
            self._g_workers.set(len(self._workers))
            if not self._workers:
                self._enter_degraded()
        else:
            self._c_restarts.inc()
            self._workers[slot] = self._spawn_worker(worker.index)
        for task in orphaned:
            if self._degraded:
                # _enter_degraded already moved every live task (these
                # included) onto the serial backlog.
                break
            self._task_attempt_failed(task, "worker deaths")

    # ------------------------------------------------------------ degradation
    def _enter_degraded(self) -> None:
        """Flip to in-process serial execution (lock held).

        Called when the last worker slot is retired: every live task moves
        onto the serial backlog (ordered by task id, so columns of one job
        complete in order) and the dispatcher thread drains it; future
        submissions run inline.  The service stays *correct* — same
        programs, same column ranges, bit-identical outputs — it just stops
        being parallel.
        """
        if self._degraded:
            return
        self._degraded = True
        self._g_degraded.set(1)
        # Pending retries would re-dispatch into an empty pool; fold them in.
        backlogged = {task.task_id for task in self._serial_backlog}
        for _, _, task in self._retries:
            backlogged.add(task.task_id)
            self._serial_backlog.append(task)
        self._retries.clear()
        for task in sorted(self._tasks.values(), key=lambda t: t.task_id):
            if task.task_id not in backlogged:
                self._serial_backlog.append(task)

    def _convert_job_to_pickle(self, job: _Job) -> None:
        """Move a shared-memory job onto pickle transport (lock held).

        Copies the staged inputs and any already-written output columns out
        of the blocks, then closes and unlinks both — exactly once; tasks
        still holding shm payloads hit :class:`_ShmAttachError` on their next
        attach and retry with pickle payloads, and results of tasks already
        *past* attach are recognized (shm-shaped report against a
        pickle-mode job) and re-run rather than trusted.
        """
        if job.in_shm is None:
            return
        in_block, out_block = job.in_shm, job.out_shm
        job.inputs = np.ndarray(
            job.in_shape, dtype=np.dtype(job.in_dtype), buffer=in_block.buf
        ).copy()
        job.out = np.ndarray(
            (job.n_nodes, job.batch), dtype=np.int8, buffer=out_block.buf
        ).copy()
        job.in_shm = None
        job.out_shm = None
        for block in (in_block, out_block):
            try:
                block.close()
                block.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
        self._c_shm_fallbacks.inc()

    def _drain_serial_backlog(self) -> None:
        """Run backlogged tasks in-process (dispatcher thread, lock dropped per task).

        Each task is executed *outside* the lock — programs can run for
        milliseconds to seconds, and submissions must not block meanwhile —
        with completion and failure applied back under it.
        """
        while True:
            with self._lock:
                if not self._serial_backlog or self._closed:
                    return
                task = self._serial_backlog.pop(0)
                if task.task_id not in self._tasks or task.job.done:
                    continue
                job = task.job
                self._convert_job_to_pickle(job)
                if not job.degraded:
                    job.degraded = True
                    self._c_degraded_jobs.inc()
                program = job.program
                chunk = job.inputs[:, task.start : task.stop]
                deadline = job.deadline
            try:
                part = run_serial(
                    program, chunk, chunk_size=self.config.chunk_size, deadline=deadline
                )
            except BaseException as exc:
                with self._lock:
                    self._tasks.pop(task.task_id, None)
                    if isinstance(exc, DeadlineExceeded):
                        self._c_deadline_failures.inc()
                    self._fail_job(
                        job,
                        exc if isinstance(exc, Exception) else RuntimeError(repr(exc)),
                    )
            else:
                with self._lock:
                    if task.task_id in self._tasks and not job.done:
                        self._tasks.pop(task.task_id)
                        self._complete_task(task, part)
            self._flush_resolutions()

    # ---------------------------------------------------------------- results
    def _dispatch_loop(self) -> None:
        while True:
            wait = 0.2
            with self._lock:
                if self._retries:
                    # Wake for the next due retry instead of sleeping past it.
                    wait = min(wait, max(0.01, self._retries[0][0] - time.monotonic()))
            try:
                item = self._results.get(timeout=wait)
            except (Empty, OSError, ValueError):
                if self._closed:
                    return
                item = False  # timeout tick; None is the shutdown sentinel
            if item is None:
                self._flush_resolutions()
                return
            if item is not False:
                with self._lock:
                    try:
                        self._handle_result(item)
                    except Exception:
                        # A malformed/corrupted result message (truncated
                        # tuple, unpicklable payload, bad delta) must never
                        # kill this thread — a dead dispatcher wedges the
                        # whole service with every future forever pending.
                        # The task it belonged to is recovered by the
                        # lost-result clock.
                        self._c_protocol_errors.inc()
            now = time.monotonic()
            if item is False or now >= self._next_tick:
                with self._lock:
                    self._on_tick(now)
                self._next_tick = now + self._tick_interval
            self._flush_resolutions()
            self._drain_serial_backlog()

    def _on_tick(self, now: float) -> None:
        """Time-based bookkeeping (lock held): retries, deadlines, health.

        Runs on every quiet period and at least every ``_tick_interval``
        under load — a saturated result queue must not starve deadline
        enforcement or stall detection.
        """
        while self._retries and self._retries[0][0] <= now:
            _, _, task = heapq.heappop(self._retries)
            if task.task_id not in self._tasks or task.job.done:
                continue
            if self._degraded:
                self._serial_backlog.append(task)
            else:
                self._dispatch(task)
        for job in list(self._deadline_jobs):
            if job.done:
                self._deadline_jobs.discard(job)
            elif now > job.deadline:
                self._deadline_jobs.discard(job)
                self._c_deadline_failures.inc()
                self._fail_job(
                    job,
                    DeadlineExceeded(
                        f"service job for program {job.key!r} missed its deadline"
                    ),
                )
        self._check_workers(now)

    def _check_workers(self, now: float) -> None:
        """Detect dead, wedged, and result-losing workers (lock held)."""
        for worker in list(self._workers):
            if not worker.process.is_alive():
                self._respawn_worker(worker)
                continue
            if self._stall_timeout_s <= 0 or self._heartbeat_s <= 0:
                continue
            if worker.running is not None:
                task_id, first_seen = worker.running
                if now - first_seen > self._stall_timeout_s:
                    # Alive but wedged inside one task: death detection will
                    # never fire, so kill it ourselves and let the respawn
                    # path retry its tasks.
                    self._c_stall_kills.inc()
                    try:
                        worker.process.kill()
                    except Exception:  # pragma: no cover - already gone
                        pass
                    worker.process.join(timeout=1.0)
                    self._respawn_worker(worker)
                    continue
            if worker.inflight and worker.last_beat_at is not None:
                for task_id in list(worker.inflight):
                    task = self._tasks.get(task_id)
                    if task is None:
                        worker.inflight.discard(task_id)
                        continue
                    if task.dispatched_at is None:
                        continue
                    if worker.running is not None and worker.running[0] == task_id:
                        continue
                    # The worker has heartbeat since well after the dispatch
                    # yet reports itself past (or never on) this old task:
                    # the request or the result went missing.  Worst case it
                    # is merely queued behind slow siblings and runs twice —
                    # duplicate executions write identical bytes to disjoint
                    # columns, so retrying is always safe.
                    if (
                        now - task.dispatched_at > self._stall_timeout_s
                        and worker.last_beat_at > task.dispatched_at + self._heartbeat_s
                    ):
                        worker.inflight.discard(task_id)
                        self._task_attempt_failed(task, "a lost result message")

    def _handle_result(self, item) -> None:
        """Process one worker report (lock held; resolutions are staged)."""
        worker_id, kind, task_id, payload, delta = item
        reporter = next(
            (worker for worker in self._workers if worker.index == worker_id), None
        )
        if kind == "heartbeat":
            # (worker_id, "heartbeat", pid, current_task_id, None): ignore
            # beats from a dead predecessor of the slot (its pid differs).
            if reporter is not None and reporter.process.pid == task_id:
                now = time.monotonic()
                reporter.last_beat_at = now
                current = payload
                if current is None:
                    reporter.running = None
                elif reporter.running is None or reporter.running[0] != current:
                    reporter.running = (current, now)
            return
        if delta is not None:
            # Piggybacked worker metrics: merged exactly once per message,
            # tagged with the reporting worker's id.
            self._metrics.merge(delta, extra_labels={"worker_id": str(worker_id)})
        task = self._tasks.get(task_id)
        # Clear the inflight slot by the *reported* worker: tasks of an
        # already-failed job are gone from the registry but their ids must
        # still leave the live worker's inflight set, or least-loaded
        # dispatch is skewed away from it forever.
        if reporter is not None:
            reporter.inflight.discard(task_id)
            if reporter.running is not None and reporter.running[0] == task_id:
                reporter.running = None
        if task is None or task.job.done:
            # Late result of a failed/cancelled/retried job.
            self._tasks.pop(task_id, None)
            return
        if kind == "missing":
            # The worker lost the program (store drift, a fresh process
            # after a crash, or an injected install drop): drop the stale
            # mirror entry so the next dispatch reinstalls, then retry the
            # task immediately — the reinstall rides the same queue.
            self._c_reinstalls.inc()
            if reporter is not None:
                reporter.store.pop(task.job.key, None)
                # If the parent skipped the install trusting the disk
                # artifact, that trust was misplaced (pruned or corrupt —
                # the worker's failed restore deletes a corrupt artifact):
                # drop the residency memo so the next probe re-stats, and
                # force this worker's next install onto the queue.
                self._disk_resident.discard(task.job.key)
                reporter.force_install.add(task.job.key)
            task.attempts += 1
            if task.attempts >= self._max_attempts:
                self._tasks.pop(task_id, None)
                self._fail_job(
                    task.job,
                    RuntimeError(
                        "service could not install program "
                        f"{task.job.key!r} after {task.attempts} "
                        "attempts (is it picklable?)"
                    ),
                )
                return
            self._dispatch(task)
            return
        if kind == "shm_error":
            # Shared-memory attach failed (block gone, /dev/shm hiccup, or
            # injected).  First failure: plain retry — it may be transient.
            # Repeated failure: move the whole job onto pickle transport
            # before retrying, so the job cannot starve on a broken segment.
            if task.attempts >= 1:
                self._convert_job_to_pickle(task.job)
            self._task_attempt_failed(task, "shared-memory attach failures")
            return
        if kind == "done" and payload is None and task.job.in_shm is None:
            # A shm-transport result for a job that has since fallen back to
            # pickle: the columns went into an unlinked block nobody will
            # read.  Re-run rather than silently accept missing data.
            self._task_attempt_failed(task, "a stale shared-memory write")
            return
        self._tasks.pop(task_id, None)
        if kind == "error":
            name, detail = payload
            self._fail_job(
                task.job,
                RuntimeError(f"service worker failed: {name}\n{detail}"),
            )
            return
        self._complete_task(task, payload)

    def _flush_resolutions(self) -> None:
        """Resolve staged futures with no lock held.

        Done-callbacks therefore never block the service's bookkeeping —
        though they still run on the dispatcher (or submitting) thread, so
        they should stay cheap and must not wait on further service results.
        """
        with self._lock:
            if not self._resolutions:
                return
            pending, self._resolutions = self._resolutions, []
        for future, value, exception in pending:
            if exception is not None:
                future.set_exception(exception)
            else:
                future.set_result(value)

    def _complete_task(self, task: _Task, payload) -> None:
        job = task.job
        if job.out is not None and payload is not None:
            job.out[:, task.start : task.stop] = payload
        job.pending.discard(task.task_id)
        if job.pending:
            return
        job.done = True
        if job.out_shm is not None:
            result = np.ndarray(
                (job.n_nodes, job.batch), dtype=np.int8, buffer=job.out_shm.buf
            ).copy()
        else:
            result = job.out
        if job.started_at is not None:
            self._metrics.histogram("service.job_s").observe(
                time.perf_counter() - job.started_at
            )
        self._job_closed(job)
        self._release_job_resources(job)
        self._job_slots.release()
        self._resolutions.append((job.future, result, None))

    def _fail_job(self, job: _Job, exception: BaseException) -> None:
        if job.done:
            return
        job.done = True
        for task_id in list(job.pending):
            self._tasks.pop(task_id, None)
        job.pending.clear()
        self._job_closed(job)
        self._release_job_resources(job)
        self._job_slots.release()
        self._resolutions.append((job.future, None, exception))

    def _job_closed(self, job: _Job) -> None:
        """Maintain the outstanding-jobs gauge (lock held)."""
        if job.counted:
            job.counted = False
            self._outstanding -= 1
            self._g_queue_depth.set(self._outstanding)

    @staticmethod
    def _release_job_resources(job: _Job) -> None:
        for block in (job.in_shm, job.out_shm):
            if block is not None:
                try:
                    block.close()
                    block.unlink()
                except (FileNotFoundError, OSError):  # pragma: no cover
                    pass
        job.in_shm = None
        job.out_shm = None
        job.inputs = None
        job.out = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"EvaluationService(workers={stats.workers}, jobs={stats.jobs}, "
            f"installs={stats.installs}, closed={self._closed})"
        )
