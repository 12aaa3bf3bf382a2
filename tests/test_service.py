"""Concurrency and lifecycle tests for the persistent evaluation service.

The invariant underneath everything: whatever the sharding, interleaving,
eviction, or worker crashes, the service returns outputs and energy (and,
when asked, node values) bit-identical to serial evaluation of the inputs
as submitted — every task is ``program.run`` over an independent column
range.
"""

import dataclasses

import numpy as np
import pytest

from repro.circuits.builder import CircuitBuilder
from repro.core.matmul_circuit import build_matmul_circuit
from repro.core.trace_circuit import build_trace_circuit
from repro.engine import (
    Engine,
    EngineConfig,
    EvaluationService,
    FaultPlan,
    RunResult,
    ServiceClosed,
    ServiceStats,
    as_completed,
    chain_future,
    same_run,
)
from repro.triangles import build_triangle_query

BACKENDS = ("sparse", "dense", "exact")


class ExplodingProgram:
    """Module-level (hence picklable) program that fails inside the worker."""

    backend_name = "boom"
    n_inputs = 2
    n_nodes = 3
    outputs = [2]
    values_dtype = np.int64

    def run(self, inputs, keep_nodes=False):
        raise ValueError("deliberate failure")


class WorkerKillerProgram:
    """A program whose evaluation takes its worker process down with it."""

    backend_name = "fatal"
    n_inputs = 2
    n_nodes = 3
    outputs = [2]
    values_dtype = np.int64

    def run(self, inputs, keep_nodes=False):
        import os

        os._exit(17)


class UnpicklableProgram:
    """A program whose install message cannot cross the process boundary."""

    backend_name = "stuck"
    n_inputs = 2
    n_nodes = 3
    outputs = [2]
    values_dtype = np.int64

    def __init__(self):
        self.blocker = lambda: None  # lambdas cannot be pickled

    def run(self, inputs, keep_nodes=False):  # pragma: no cover - never reaches a worker
        raise AssertionError("an unpicklable program never reaches a worker")


def parity_circuit(n_bits, name="parity"):
    builder = CircuitBuilder(name=f"{name}{n_bits}")
    inputs = builder.allocate_inputs(n_bits)
    at_least = [builder.add_gate(inputs, [1] * n_bits, k) for k in range(1, n_bits + 1)]
    weights = [1 if k % 2 == 1 else -1 for k in range(1, n_bits + 1)]
    out = builder.add_gate(at_least, weights, 1)
    builder.set_outputs([out], ["parity"])
    return builder.build()


def slow_reference(circuit, batch):
    return np.stack(
        [circuit.evaluate_slow(list(batch[:, j])) for j in range(batch.shape[1])],
        axis=1,
    )


def service_config(**overrides):
    base = dict(max_workers=2, chunk_size=4, parallel_threshold=1)
    base.update(overrides)
    return EngineConfig(**base)


@pytest.fixture
def parity6():
    return parity_circuit(6)


@pytest.fixture
def compiled(parity6):
    return Engine().compile(parity6, backend="sparse")


class TestSubmission:
    def test_submit_matches_serial(self, compiled, rng):
        batch = rng.integers(0, 2, size=(6, 23))
        expected = compiled.run(batch)
        with EvaluationService(service_config()) as service:
            assert same_run(service.submit(compiled, batch).result(), expected)
            # Steady state: same program again, no new installs.
            before = service.stats().installs
            assert same_run(service.evaluate(compiled, batch), expected)
            assert service.stats().installs == before

    def test_install_once_per_worker(self, compiled, rng):
        batch = rng.integers(0, 2, size=(6, 16))
        with EvaluationService(service_config()) as service:
            for _ in range(5):
                service.evaluate(compiled, batch)
            stats = service.stats()
            assert stats.jobs == 5
            assert stats.installs <= stats.workers

    def test_one_dim_input_promoted(self, compiled):
        vector = np.array([1, 0, 1, 1, 0, 0])
        with EvaluationService(service_config()) as service:
            result = service.evaluate(compiled, vector)
        assert result.outputs.shape == (1, 1)
        assert same_run(result, compiled.run(vector[:, None]))

    def test_zero_width_batch(self, compiled):
        empty = np.zeros((6, 0), dtype=np.int64)
        with EvaluationService(service_config()) as service:
            result = service.evaluate(compiled, empty)
            kept = service.evaluate(compiled, empty, keep_nodes=True)
        assert result.outputs.shape == (1, 0)
        assert result.outputs.dtype == np.int8
        assert result.energy.shape == (0,)
        assert result.nodes is None
        assert kept.nodes.shape == (compiled.n_nodes, 0)
        assert kept.nodes.dtype == np.int8

    def test_map_and_as_completed(self, compiled, rng):
        batches = [rng.integers(0, 2, size=(6, 9)) for _ in range(4)]
        with EvaluationService(service_config()) as service:
            for batch, result in zip(batches, service.map(compiled, batches)):
                assert same_run(result, compiled.run(batch))
            futures = {
                service.submit(compiled, batch): batch for batch in batches
            }
            for future in as_completed(futures):
                assert same_run(future.result(), compiled.run(futures[future]))

    def test_interleaved_circuits_share_one_pool(self, rng):
        engine = Engine()
        circuits = [parity_circuit(5), parity_circuit(7, name="q")]
        programs = [engine.compile(c, backend="sparse") for c in circuits]
        batches = [rng.integers(0, 2, size=(c.n_inputs, 13)) for c in circuits]
        with EvaluationService(service_config()) as service:
            futures = []
            for round_index in range(4):
                for program, batch in zip(programs, batches):
                    futures.append((program, batch, service.submit(program, batch)))
            for program, batch, future in futures:
                assert same_run(future.result(), program.run(batch))
            stats = service.stats()
            assert stats.jobs == 8
            # Two distinct programs, each installed at most once per worker.
            assert stats.installs <= stats.workers * 2

    @pytest.mark.parametrize("chunk_size", [32, 4], ids=["one-task", "sharded"])
    def test_outputs_only_matches_kept_nodes_and_evaluate_slow(
        self, parity6, rng, chunk_size
    ):
        # INV-12: a job's outputs and energy equal those of the kept node
        # matrix and of evaluate_slow, on every backend — whether one task
        # returns the whole job or the parent stitches it from column shards.
        batch = rng.integers(0, 2, size=(6, 19))
        expected = slow_reference(parity6, batch)
        engine = Engine()
        with EvaluationService(service_config(chunk_size=chunk_size)) as service:
            for backend in BACKENDS:
                program = engine.compile(parity6, backend=backend)
                key = (parity6.structural_hash(), backend)
                result = service.evaluate(program, batch, key=key)
                kept = service.evaluate(program, batch, key=key, keep_nodes=True)
                assert result.nodes is None, backend
                assert (kept.nodes == expected).all(), backend
                for got in (result, kept):
                    assert (got.outputs == expected[parity6.outputs]).all(), backend
                    assert (got.energy == expected[6:].sum(axis=0)).all(), backend
            # Six healthy jobs, each cut into ceil(19 / chunk_size) tasks.
            assert service.stats().tasks == 6 * -(-19 // chunk_size)


class TestInputSnapshot:
    FAULTS = {
        "healthy": {},
        # Worker 0 dies before each first task; its tasks are retried.
        "retried": dict(fault_plan=FaultPlan(kill_before_task=1, workers=(0,))),
        # Every worker dies and none is respawned: the dispatcher runs the
        # in-flight tasks in-process.
        "degraded": dict(
            fault_plan=FaultPlan(kill_before_task=1), service_respawn_budget=0
        ),
    }

    @pytest.mark.parametrize("route", ["service", "engine"])
    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_caller_may_overwrite_inputs_after_submit(
        self, parity6, compiled, rng, route, fault
    ):
        # INV-4: a job computes on the values submitted, even when the
        # caller reuses its array the moment submit returns — while the
        # queues still pickle the job's chunks, when a killed worker's task
        # is sliced again for its retry, and when a degraded service slices
        # it for in-process evaluation.
        config = service_config(
            service_retry_backoff_s=0.01,
            service_task_attempts=25,
            **self.FAULTS[fault],
        )
        batches = [rng.integers(0, 2, size=(6, 24)) for _ in range(4)]
        expected = [compiled.run(batch) for batch in batches]
        overwrite = np.ones((6, 24), dtype=batches[0].dtype)
        # The overwrite changes every job's answer, so reading it shows.
        assert not any(same_run(compiled.run(overwrite), want) for want in expected)
        if route == "service":
            pool = EvaluationService(config)
            submit = lambda batch: pool.submit(compiled, batch)
        else:
            pool = Engine(config)
            submit = lambda batch: pool.submit(parity6, batch)
        with pool:
            futures = []
            for batch in batches:
                futures.append(submit(batch))
                batch[:] = overwrite
            results = [future.result(timeout=60) for future in futures]
            stats = (pool if route == "service" else pool._service).stats()
        for got, want in zip(results, expected):
            assert same_run(RunResult(got.outputs, got.energy), want)
        if fault == "retried":
            assert stats.worker_restarts >= 1
            assert stats.retries >= 1
        if fault == "degraded":
            assert stats.degraded and stats.degraded_jobs >= 1


class TestResilience:
    def test_eviction_then_reinstall(self, rng):
        engine = Engine()
        circuits = [parity_circuit(5), parity_circuit(6, name="other")]
        programs = [engine.compile(c, backend="sparse") for c in circuits]
        batches = [rng.integers(0, 2, size=(c.n_inputs, 12)) for c in circuits]
        config = service_config(service_store_size=1)
        with EvaluationService(config) as service:
            for _ in range(3):
                for program, batch in zip(programs, batches):
                    assert same_run(service.evaluate(program, batch), program.run(batch))
            # A store of one forces alternating installs: strictly more than
            # the install-once floor of workers * programs.
            stats = service.stats()
            assert stats.installs > stats.workers * len(programs)

    def test_missing_program_triggers_reinstall(self, compiled, rng):
        batch = rng.integers(0, 2, size=(6, 12))
        with EvaluationService(service_config()) as service:
            key = ("drifted-hash", "sparse")
            # Simulate mirror drift: claim every worker already holds the key.
            for worker in service._workers:
                worker.store[key] = True
            assert same_run(service.evaluate(compiled, batch, key=key), compiled.run(batch))
            assert service.stats().reinstalls >= 1

    def test_worker_death_respawns_and_reinstalls(self, compiled, rng):
        batch = rng.integers(0, 2, size=(6, 12))
        expected = compiled.run(batch)
        with EvaluationService(service_config()) as service:
            assert same_run(service.evaluate(compiled, batch), expected)
            installs = service.stats().installs
            for worker in list(service._workers):
                worker.process.kill()
                worker.process.join(timeout=10)
            assert same_run(service.evaluate(compiled, batch), expected)
            stats = service.stats()
            assert stats.worker_restarts >= 2
            # Fresh processes have empty stores: the program ships again.
            assert stats.installs > installs

    def test_respawned_worker_reports_on_a_new_pipe(self, compiled, rng):
        # A killed worker's result pipe may end mid-message: the parent
        # stops reading it, closes it, and the successor gets its own.
        batch = rng.integers(0, 2, size=(6, 12))
        with EvaluationService(service_config()) as service:
            service.evaluate(compiled, batch)
            old = [worker.results for worker in service._workers]
            for worker in list(service._workers):
                worker.process.kill()
                worker.process.join(timeout=10)
            assert same_run(service.evaluate(compiled, batch), compiled.run(batch))
            new = [worker.results for worker in service._workers]
            assert all(pipe.closed for pipe in old)
            assert not any(pipe.closed for pipe in new)
            assert service.stats().worker_restarts == 2

    def test_worker_error_propagates(self, rng):
        batch = rng.integers(0, 2, size=(2, 8))
        with EvaluationService(service_config()) as service:
            future = service.submit(ExplodingProgram(), batch)
            with pytest.raises(RuntimeError, match="deliberate failure"):
                future.result(timeout=30)

    def test_worker_killing_task_fails_after_bounded_respawns(self, rng):
        # A task that deterministically crashes its worker must exhaust its
        # attempt budget and fail the job — not respawn workers forever.
        batch = rng.integers(0, 2, size=(2, 6))
        with EvaluationService(service_config()) as service:
            future = service.submit(WorkerKillerProgram(), batch)
            with pytest.raises(RuntimeError, match="worker deaths"):
                future.result(timeout=120)
            assert service.stats().worker_restarts >= 1
            # The pool stays usable for healthy programs afterwards.
            program = Engine().compile(parity_circuit(4), backend="sparse")
            healthy = rng.integers(0, 2, size=(4, 10))
            assert same_run(service.evaluate(program, healthy), program.run(healthy))

    def test_unpicklable_program_fails_after_bounded_retries(self, rng):
        # Install pickling fails asynchronously in the queue feeder thread;
        # the worker keeps reporting the program missing, and the service
        # must fail the job after a bounded number of reinstall attempts
        # instead of cycling forever.
        batch = rng.integers(0, 2, size=(2, 8))
        with EvaluationService(service_config()) as service:
            future = service.submit(UnpicklableProgram(), batch)
            with pytest.raises(RuntimeError, match="could not install"):
                future.result(timeout=60)


class TestLifecycle:
    def test_close_is_idempotent_and_rejects_new_work(self, compiled, rng):
        batch = rng.integers(0, 2, size=(6, 8))
        service = EvaluationService(service_config())
        assert same_run(service.evaluate(compiled, batch), compiled.run(batch))
        service.close()
        service.close()
        assert service.closed
        with pytest.raises(ServiceClosed):
            service.submit(compiled, batch)

    def test_close_stops_workers(self, compiled):
        service = EvaluationService(service_config())
        processes = [worker.process for worker in service._workers]
        service.close()
        assert all(not process.is_alive() for process in processes)

    def test_context_manager_closes(self, compiled):
        with EvaluationService(service_config()) as service:
            pass
        assert service.closed

    def test_chain_future_propagates_errors(self):
        from concurrent.futures import CancelledError, Future

        inner = Future()
        outer = chain_future(inner, lambda value: value + 1)
        inner.set_result(1)
        assert outer.result(timeout=5) == 2

        inner = Future()
        outer = chain_future(inner, lambda value: value + 1)
        inner.set_exception(ValueError("inner failed"))
        with pytest.raises(ValueError, match="inner failed"):
            outer.result(timeout=5)

        inner = Future()
        outer = chain_future(inner, lambda value: 1 / 0)
        inner.set_result(0)
        with pytest.raises(ZeroDivisionError):
            outer.result(timeout=5)

        # A cancelled inner future must resolve the outer one, not strand it.
        inner = Future()
        outer = chain_future(inner, lambda value: value)
        assert inner.cancel()
        with pytest.raises(CancelledError):
            outer.result(timeout=5)

    def test_chain_future_with_executor(self):
        import threading
        from concurrent.futures import Future

        from repro.engine import transform_executor

        inner = Future()
        seen = {}

        def transform(value):
            seen["thread"] = threading.current_thread().name
            return value * 2

        outer = chain_future(inner, transform, executor=transform_executor())
        inner.set_result(21)
        assert outer.result(timeout=10) == 42
        # The transform ran on the shared executor, not the completing thread.
        assert seen["thread"].startswith("service-transform")


class TestEngineRouting:
    def test_parallel_engine_matches_serial(self, parity6, rng):
        batch = rng.integers(0, 2, size=(6, 32))
        serial = Engine().evaluate(parity6, batch, keep_nodes=True)
        with Engine(service_config(parallel_threshold=8)) as engine:
            result = engine.evaluate(parity6, batch)
            assert engine._service is not None  # the resident pool engaged
            again = engine.evaluate(parity6, batch, keep_nodes=True)
        assert result.node_values.shape == (0, 32)
        assert (result.outputs == serial.outputs).all()
        assert (result.energy == serial.energy).all()
        assert (again.node_values == serial.node_values).all()

    def test_squeeze_and_zero_width_through_parallel_config(self, parity6, rng):
        with Engine(service_config()) as engine:
            vector = rng.integers(0, 2, size=6)
            single = engine.evaluate(parity6, vector, keep_nodes=True)
            assert single.node_values.ndim == 1
            serial = Engine().evaluate(parity6, vector, keep_nodes=True)
            assert (single.node_values == serial.node_values).all()
            assert engine.evaluate(parity6, vector).node_values.shape == (0,)
            empty = engine.evaluate(parity6, np.zeros((6, 0), dtype=np.int64))
            assert empty.node_values.shape == (0, 0)
            assert empty.energy.shape == (0,)

    def test_engine_submit_future(self, parity6, rng):
        batch = rng.integers(0, 2, size=(6, 24))
        serial = Engine().evaluate(parity6, batch, keep_nodes=True)
        with Engine(service_config(parallel_threshold=8)) as engine:
            futures = [engine.submit(parity6, batch) for _ in range(3)]
            futures.append(engine.submit(parity6, batch, keep_nodes=True))
            for future in futures:
                result = future.result(timeout=60)
                assert (result.outputs == serial.outputs).all()
                assert (result.energy == serial.energy).all()
            assert (result.node_values == serial.node_values).all()
        # Serial engines complete submissions inline.
        future = Engine().submit(parity6, batch, keep_nodes=True)
        assert future.done()
        assert (future.result().node_values == serial.node_values).all()

    def test_spike_trace_through_service(self, parity6, rng):
        batch = rng.integers(0, 2, size=(6, 32))
        serial_trace = Engine().spike_trace(parity6, batch)
        with Engine(service_config(parallel_threshold=8)) as engine:
            trace = engine.spike_trace(parity6, batch)
        assert (trace.energy == serial_trace.energy).all()
        assert (trace.spikes_per_layer == serial_trace.spikes_per_layer).all()

    def test_engine_close_restarts_service_on_demand(self, parity6, rng):
        batch = rng.integers(0, 2, size=(6, 32))
        engine = Engine(service_config(parallel_threshold=8))
        try:
            engine.evaluate(parity6, batch)
            first = engine._service
            assert first is not None
            engine.close()
            assert engine._service is None
            result = engine.evaluate(parity6, batch)
            assert engine._service is not first
            serial = Engine().evaluate(parity6, batch)
            assert (result.outputs == serial.outputs).all()
            assert (result.energy == serial.energy).all()
        finally:
            engine.close()


class TestDriverIntegration:
    def test_trace_submit_batch(self, rng):
        built = build_trace_circuit(2, 3, bit_width=1, depth_parameter=1)
        matrices = [rng.integers(0, 2, size=(2, 2)) for _ in range(6)]
        expected = built.evaluate_batch(matrices)
        future = built.submit_batch(matrices)
        assert (future.result(timeout=60) == expected).all()
        empty = built.submit_batch([])
        assert empty.result(timeout=5).shape == (0,)

    def test_trace_submit_batch_through_service(self, rng):
        with Engine(service_config()) as engine:
            built = build_trace_circuit(
                2, 3, bit_width=1, depth_parameter=1, engine=engine
            )
            matrices = [rng.integers(0, 2, size=(2, 2)) for _ in range(8)]
            decisions = built.submit_batch(matrices).result(timeout=60)
            assert engine._service is not None
        assert decisions.tolist() == [built.reference(m) for m in matrices]

    def test_matmul_evaluate_batch(self, rng):
        built = build_matmul_circuit(2, bit_width=1)
        pairs = [
            (
                rng.integers(-1, 2, size=(2, 2)),
                rng.integers(-1, 2, size=(2, 2)),
            )
            for _ in range(4)
        ]
        products = built.evaluate_batch(pairs)
        for (a, b), product in zip(pairs, products):
            assert (product == built.reference(a, b)).all()
        assert built.evaluate_batch([]) == []

    def test_matmul_submit_batch_through_service(self, rng):
        with Engine(service_config()) as engine:
            built = build_matmul_circuit(2, bit_width=1, engine=engine)
            pairs = [
                (
                    rng.integers(-1, 2, size=(2, 2)),
                    rng.integers(-1, 2, size=(2, 2)),
                )
                for _ in range(5)
            ]
            products = built.submit_batch(pairs).result(timeout=60)
        for (a, b), product in zip(pairs, products):
            assert (product == built.reference(a, b)).all()

    def test_triangle_submit_batch(self, rng):
        query = build_triangle_query(4, tau_triangles=1, depth_parameter=1)
        graphs = []
        for _ in range(4):
            upper = np.triu(rng.integers(0, 2, size=(4, 4)), k=1)
            graphs.append(upper + upper.T)
        answers = query.submit_batch(graphs).result(timeout=60)
        assert answers.tolist() == [query.reference(g) for g in graphs]


@pytest.fixture
def telemetry():
    """Fresh process-global registry for the test, restored to null after."""
    from repro import obs

    registry = obs.enable(reset=True)
    yield registry
    obs.disable()


class TestStatsConsistency:
    def test_as_dict_names_every_field_once(self):
        # as_dict is written out by hand: it must carry every field, under
        # its own name and with its own value, and nothing else.
        values = {
            field.name: index
            for index, field in enumerate(dataclasses.fields(ServiceStats))
        }
        assert ServiceStats(**values).as_dict() == values

    def test_stats_atomic_under_concurrent_submit(self, compiled, rng):
        """Hammering stats() during submission never sees a torn update.

        Every job's counters are incremented together under the dispatcher
        lock, and stats() reads under the same lock — so invariants that
        hold after each submit must hold in every observed snapshot, not
        just the final one.
        """
        import threading

        # Each job bumps jobs and, once per column task, tasks in one
        # locked block — the torn read this guards against is seeing the
        # job without its tasks.
        import time

        config = service_config()
        batch = rng.integers(0, 2, size=(6, 64))
        n_jobs = 20
        snapshots = []
        stop = threading.Event()
        with EvaluationService(config) as service:

            def hammer():
                # Throttled: an unbounded tight loop starves the dispatcher
                # (and this list) on single-core boxes without adding rigor.
                while not stop.is_set():
                    snapshots.append(service.stats())
                    time.sleep(0.001)

            reader = threading.Thread(target=hammer)
            reader.start()
            try:
                futures = [service.submit(compiled, batch) for _ in range(n_jobs)]
                for future in futures:
                    future.result(timeout=60)
            finally:
                stop.set()
                reader.join(timeout=10)
            snapshots.append(service.stats())
        assert snapshots
        previous_jobs = 0
        for stats in snapshots:
            assert 0 <= stats.jobs <= stats.tasks
            assert stats.jobs <= n_jobs and stats.installs >= 0
            # jobs is monotone across successive reads from one thread.
            assert stats.jobs >= previous_jobs
            previous_jobs = stats.jobs
        assert snapshots[-1].jobs == n_jobs


class TestMetricPiggyback:
    def test_worker_tasks_sum_to_dispatched_chunks(self, compiled, rng, telemetry):
        """Without failures, merged worker deltas account for every chunk."""
        batch = rng.integers(0, 2, size=(6, 23))
        with EvaluationService(service_config()) as service:
            for _ in range(4):
                service.evaluate(compiled, batch)
            stats = service.stats()
            # Every future resolved, so every result message (and its delta)
            # has been merged: per-worker totals equal the dispatch count.
            assert telemetry.total("worker.tasks") == stats.tasks
            assert telemetry.total("worker.installs") == stats.installs
            series = telemetry.series("worker.tasks")
            assert all("worker_id=" in key for key in series)
            assert sum(series.values()) == stats.tasks

    def test_counts_monotone_across_kill_and_respawn(self, compiled, rng, telemetry):
        batch = rng.integers(0, 2, size=(6, 12))
        with EvaluationService(service_config()) as service:
            service.evaluate(compiled, batch)
            tasks_before = telemetry.total("worker.tasks")
            installs_before = telemetry.total("worker.installs")
            assert tasks_before > 0
            for worker in list(service._workers):
                worker.process.kill()
                worker.process.join(timeout=10)
            service.evaluate(compiled, batch)
            # Respawned workers start fresh registries: parent totals only
            # grow (a dead worker loses at most its unflushed delta, never
            # re-reports what was already merged).
            assert telemetry.total("worker.tasks") >= tasks_before
            assert telemetry.total("worker.installs") > installs_before
            assert telemetry.total("worker.tasks") == service.stats().tasks

    def test_no_double_count_on_redispatch(self, compiled, rng, telemetry):
        """A task re-dispatched after a 'missing program' runs (and counts) once."""
        batch = rng.integers(0, 2, size=(6, 12))
        with EvaluationService(service_config()) as service:
            key = ("drifted-hash", "sparse")
            for worker in service._workers:
                worker.store[key] = True  # mirror drift: worker lacks the program
            expected = compiled.run(batch)
            assert same_run(service.evaluate(compiled, batch, key=key), expected)
            stats = service.stats()
            assert stats.reinstalls >= 1
            # The missing attempt never ran the program, so executed-task
            # totals stay strictly below dispatches and match chunk count.
            n_chunks = -(-batch.shape[1] // service_config().chunk_size)
            assert telemetry.total("worker.tasks") == n_chunks
            assert stats.tasks > n_chunks  # the re-dispatches

    def test_queue_and_latency_histograms_populated(self, compiled, rng, telemetry):
        batch = rng.integers(0, 2, size=(6, 16))
        with EvaluationService(service_config()) as service:
            service.evaluate(compiled, batch)
        snap = telemetry.snapshot()
        histograms = snap["histograms"]
        assert any(key.startswith("worker.task_s") for key in histograms)
        assert any(key.startswith("worker.queue_wait_s") for key in histograms)
        assert any(key.startswith("service.job_s") for key in histograms)
        for key, summary in histograms.items():
            if key.startswith(("worker.", "service.")):
                assert summary["count"] >= 1
                assert summary["p50"] is not None

    @pytest.mark.parametrize("keep_nodes", [False, True])
    def test_transport_bytes_recorded(self, compiled, rng, telemetry, keep_nodes):
        # The parent counts each job's input block; workers count the input
        # columns they are sent plus the result arrays they send back:
        # 8 bytes of energy and one int8 row per output, and with kept
        # nodes one int8 row per node as well.
        batch = rng.integers(0, 2, size=(6, 32))  # int64: 1,536 bytes
        rows = len(compiled.outputs) + (compiled.n_nodes if keep_nodes else 0)
        with EvaluationService(service_config()) as service:
            service.evaluate(compiled, batch, keep_nodes=keep_nodes)
        assert telemetry.total("service.pickle_bytes") == batch.nbytes
        assert telemetry.total("worker.pickle_bytes") == batch.nbytes + 32 * (8 + rows)

    def test_disabled_telemetry_still_has_stats(self, compiled, rng):
        from repro.obs import get_registry

        assert not get_registry().enabled
        batch = rng.integers(0, 2, size=(6, 12))
        with EvaluationService(service_config()) as service:
            service.evaluate(compiled, batch)
            stats = service.stats()
            assert stats.jobs == 1
            assert stats.tasks >= 1
        # ...without leaking anything into the process-global registry.
        assert get_registry().snapshot()["counters"] == {}


class TestDiskWarmStart:
    """Workers restore published artifacts locally instead of being shipped
    the program over the install queue — including after a crash respawn."""

    @staticmethod
    def _warm_setup(tmp_path):
        adir = str(tmp_path / "artifacts")
        circuit = parity_circuit(6)
        with Engine(
            EngineConfig(backend="sparse", artifact_cache=True, artifact_dir=adir)
        ) as engine:
            program, key = engine.compile_entry(circuit)
        return adir, program, key

    def test_worker_warm_start_from_disk_zero_reinstalls(self, tmp_path, rng):
        adir, program, key = self._warm_setup(tmp_path)
        batch = rng.integers(0, 2, size=(6, 16))
        expected = program.run(batch)
        config = service_config(artifact_cache=True, artifact_dir=adir)
        with EvaluationService(config) as service:
            assert same_run(service.evaluate(program, batch, key=key), expected)
            stats = service.stats()
            # The program never crossed the install queue: every worker
            # that needed it restored the published artifact itself.
            assert stats.installs == 0
            assert stats.disk_skipped_installs >= 1

            # Kill every worker.  Fresh processes have empty stores, but a
            # warm artifact directory: still zero parent-side installs.
            for worker in list(service._workers):
                worker.process.kill()
                worker.process.join(timeout=10)
            assert same_run(service.evaluate(program, batch, key=key), expected)
            stats = service.stats()
            assert stats.worker_restarts >= 2
            assert stats.installs == 0
            assert stats.reinstalls == 0

    def test_missing_artifact_falls_back_to_queue_install(self, tmp_path, rng):
        adir, program, key = self._warm_setup(tmp_path)
        batch = rng.integers(0, 2, size=(6, 12))
        expected = program.run(batch)
        config = service_config(artifact_cache=True, artifact_dir=adir)
        with EvaluationService(config) as service:
            # Warm steady state first, so the parent memoizes the artifact
            # as disk-resident and skips queue installs.
            assert same_run(service.evaluate(program, batch, key=key), expected)
            assert service.stats().installs == 0

            # Now delete the artifact *and* the workers' in-memory copies
            # (a kill empties their stores).  The respawned workers fail the
            # disk restore, report the program missing, and the parent must
            # fall back to a forced queue install instead of skipping
            # forever on its stale disk-resident memo.
            from repro.engine import DiskArtifactStore

            DiskArtifactStore(adir).clear()
            for worker in list(service._workers):
                worker.process.kill()
                worker.process.join(timeout=10)
            assert same_run(service.evaluate(program, batch, key=key), expected)
            assert service.stats().installs >= 1
