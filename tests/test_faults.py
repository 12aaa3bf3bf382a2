"""Fault injection against the evaluation service (INV-6 in docs/INVARIANTS.md).

Every test here follows the same shape: activate a :class:`FaultPlan`
through ``EngineConfig(fault_plan=...)``, push real work through a resident
service, and require *bit-identical* results plus the expected recovery
counters — faults may cost retries, respawns, or degradation, never
bytes.  Where a fault reassembles a result (duplicate executions, degraded
mode), both result shapes are checked against ``evaluate_slow`` (INV-12).
"""

import time

import numpy as np
import pytest

from repro.engine import (
    DeadlineExceeded,
    Engine,
    EngineConfig,
    EvaluationService,
    FaultPlan,
    RunResult,
    ServiceClosed,
    aggressive_plan,
    fault_plan_from_env,
    run_serial,
    same_run,
)
from repro.engine.faults import FAULTS_ENV_VAR

from test_service import parity_circuit, service_config, slow_reference


@pytest.fixture
def rng():
    return np.random.default_rng(2018)


@pytest.fixture
def compiled():
    return Engine().compile(parity_circuit(6), backend="sparse")


def slow_run(batch, keep_nodes):
    """INV-12's reference: the outputs and energy of ``evaluate_slow`` on the
    ``compiled`` circuit, plus its node values when they are kept."""
    circuit = parity_circuit(6)
    nodes = slow_reference(circuit, batch).astype(np.int8)
    energy = nodes[circuit.n_inputs :].sum(axis=0, dtype=np.int64)
    return RunResult(nodes[circuit.outputs], energy, nodes if keep_nodes else None)


def fast_recovery_config(**overrides):
    """Service knobs turned down so recovery is observable within a test."""
    base = dict(
        service_heartbeat_s=0.05,
        service_stall_timeout_s=0.4,
        service_retry_backoff_s=0.01,
        service_task_attempts=25,
    )
    base.update(overrides)
    return service_config(**base)


class TestFaultPlan:
    def test_ordinals_must_be_positive(self):
        with pytest.raises(ValueError, match="kill_before_task"):
            FaultPlan(kill_before_task=0)
        with pytest.raises(ValueError, match="drop_result_tasks"):
            FaultPlan(drop_result_tasks=(3, -1))

    def test_durations_must_be_non_negative(self):
        with pytest.raises(ValueError, match="stall_seconds"):
            FaultPlan(stall_seconds=-0.5)
        with pytest.raises(ValueError, match="delay_result_s"):
            FaultPlan(delay_result_s=-1.0)

    def test_lists_coerced_to_tuples(self):
        plan = FaultPlan(drop_result_tasks=[1, 2], workers=[0])
        assert plan.drop_result_tasks == (1, 2)
        assert plan.workers == (0,)

    def test_applies_to(self):
        assert FaultPlan(kill_before_task=1).applies_to(5)
        scoped = FaultPlan(kill_before_task=1, workers=(0, 2))
        assert scoped.applies_to(0)
        assert not scoped.applies_to(1)

    def test_dict_and_json_round_trip(self):
        plan = aggressive_plan()
        assert FaultPlan.from_dict(plan.as_dict()) == plan
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.from_dict({"explode_on_tuesdays": True})
        # The fault of the removed shared-memory transport is unknown too:
        # a plan naming it is rejected, not silently ignored.
        with pytest.raises(ValueError, match="unknown.*shm_attach_failures"):
            FaultPlan.from_dict({"shm_attach_failures": 2})

    def test_env_round_trip(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        assert fault_plan_from_env() is None
        plan = FaultPlan(install_failures=1, artifact_crash_writes=2)
        monkeypatch.setenv(FAULTS_ENV_VAR, plan.to_json())
        assert fault_plan_from_env() == plan

    def test_config_rejects_non_plan(self):
        with pytest.raises(TypeError, match="fault_plan"):
            EngineConfig(fault_plan={"kill_before_task": 3})


class TestWorkerKills:
    def test_kill_before_task_recovers_bit_identically(self, compiled, rng):
        config = fast_recovery_config(fault_plan=FaultPlan(kill_before_task=3))
        batch = rng.integers(0, 2, size=(6, 40))
        with EvaluationService(config) as service:
            result = service.evaluate(compiled, batch)
            stats = service.stats()
        assert same_run(result, compiled.run(batch))
        assert stats.worker_restarts >= 1

    @pytest.mark.parametrize("keep_nodes", [False, True])
    def test_kill_after_task_recovers_bit_identically(self, compiled, rng, keep_nodes):
        # The worker computes the chunk, then dies before reporting — the
        # duplicate execution after re-dispatch must be invisible.
        config = fast_recovery_config(fault_plan=FaultPlan(kill_after_task=2))
        batch = rng.integers(0, 2, size=(6, 32))
        with EvaluationService(config) as service:
            result = service.evaluate(compiled, batch, keep_nodes=keep_nodes)
            stats = service.stats()
        assert same_run(result, slow_run(batch, keep_nodes))
        assert stats.worker_restarts >= 1
        assert stats.retries >= 1

    @pytest.mark.parametrize("keep_nodes", [False, True])
    def test_kill_scoped_to_one_worker_leaves_pool_parallel(
        self, compiled, rng, keep_nodes
    ):
        # Worker 0 (and each of its respawns) dies after its first task, so
        # an in-flight job keeps losing that slot's tasks mid-job.  They are
        # re-dispatched, the job is bit-identical, and worker 1 keeps the
        # pool out of degraded mode.
        config = fast_recovery_config(
            fault_plan=FaultPlan(kill_after_task=1, workers=(0,)),
        )
        batch = rng.integers(0, 2, size=(6, 64))
        with EvaluationService(config) as service:
            result = service.evaluate(compiled, batch, keep_nodes=keep_nodes)
            stats = service.stats()
        assert same_run(result, slow_run(batch, keep_nodes))
        assert stats.worker_restarts >= 1
        assert stats.retries >= 1
        assert not stats.degraded and stats.degraded_jobs == 0


class TestLostAndCorruptedMessages:
    @pytest.mark.parametrize("keep_nodes", [False, True])
    def test_dropped_results_are_redispatched(self, compiled, rng, keep_nodes):
        config = fast_recovery_config(fault_plan=FaultPlan(drop_result_tasks=(1,)))
        batch = rng.integers(0, 2, size=(6, 24))
        with EvaluationService(config) as service:
            result = service.evaluate(compiled, batch, keep_nodes=keep_nodes)
            stats = service.stats()
        assert same_run(result, slow_run(batch, keep_nodes))
        assert stats.retries >= 1

    @pytest.mark.parametrize("keep_nodes", [False, True])
    def test_single_worker_retries_lost_results_on_itself(
        self, compiled, rng, keep_nodes
    ):
        # With one worker there is no other worker to prefer: both lost
        # results are re-dispatched to the same, live process.
        config = fast_recovery_config(
            max_workers=1, fault_plan=FaultPlan(drop_result_tasks=(1, 2))
        )
        batch = rng.integers(0, 2, size=(6, 24))
        with EvaluationService(config) as service:
            result = service.evaluate(compiled, batch, keep_nodes=keep_nodes)
            stats = service.stats()
        assert same_run(result, slow_run(batch, keep_nodes))
        assert stats.workers == 1
        assert stats.retries >= 2
        assert stats.worker_restarts == 0

    def test_corrupt_result_message_does_not_kill_dispatcher(self, compiled, rng):
        # Regression: a malformed result message used to raise inside the
        # dispatcher thread and silently wedge the whole service; now it is
        # counted, the task is re-dispatched, and later jobs still complete.
        config = fast_recovery_config(fault_plan=FaultPlan(corrupt_result_tasks=(1,)))
        batch = rng.integers(0, 2, size=(6, 24))
        with EvaluationService(config) as service:
            first = service.evaluate(compiled, batch)
            second = service.evaluate(compiled, batch)
            stats = service.stats()
        expected = compiled.run(batch)
        assert same_run(first, expected)
        assert same_run(second, expected)
        assert stats.protocol_errors >= 1

    def test_dropped_dispatch_is_retried(self, compiled, rng):
        config = fast_recovery_config(fault_plan=FaultPlan(drop_dispatch_tasks=(1,)))
        batch = rng.integers(0, 2, size=(6, 24))
        with EvaluationService(config) as service:
            result = service.evaluate(compiled, batch)
            stats = service.stats()
        assert same_run(result, compiled.run(batch))
        assert stats.retries >= 1

    def test_delayed_results_change_nothing(self, compiled, rng):
        config = fast_recovery_config(fault_plan=FaultPlan(delay_result_s=0.02))
        batch = rng.integers(0, 2, size=(6, 16))
        with EvaluationService(config) as service:
            result = service.evaluate(compiled, batch)
        assert same_run(result, compiled.run(batch))


class TestStallsAndDeadlines:
    def test_stalled_worker_is_killed_and_job_completes(self, compiled, rng):
        # Worker 0 wedges inside its first task; only heartbeat-based stall
        # detection can see that (the process is alive), and the dispatch
        # penalty then routes the retry to the healthy worker.
        config = fast_recovery_config(
            fault_plan=FaultPlan(stall_task=1, stall_seconds=30.0, workers=(0,)),
        )
        batch = rng.integers(0, 2, size=(6, 8))
        with EvaluationService(config) as service:
            result = service.evaluate(compiled, batch)
            stats = service.stats()
        assert same_run(result, compiled.run(batch))
        assert stats.stall_kills >= 1

    def test_sub_threshold_stall_is_just_slow(self, compiled, rng):
        config = fast_recovery_config(
            service_stall_timeout_s=5.0,
            fault_plan=FaultPlan(stall_task=1, stall_seconds=0.1),
        )
        batch = rng.integers(0, 2, size=(6, 8))
        with EvaluationService(config) as service:
            result = service.evaluate(compiled, batch)
            stats = service.stats()
        assert same_run(result, compiled.run(batch))
        assert stats.stall_kills == 0
        assert stats.worker_restarts == 0

    def test_job_deadline_raises_deadline_exceeded(self, compiled, rng):
        config = fast_recovery_config(
            fault_plan=FaultPlan(stall_task=1, stall_seconds=30.0)
        )
        batch = rng.integers(0, 2, size=(6, 16))
        with EvaluationService(config) as service:
            with pytest.raises(DeadlineExceeded, match="missed its deadline"):
                service.evaluate(compiled, batch, timeout=0.3)
            stats = service.stats()
        assert stats.deadline_failures >= 1

    def test_deadline_noop_when_job_is_fast(self, compiled, rng):
        batch = rng.integers(0, 2, size=(6, 12))
        with EvaluationService(fast_recovery_config()) as service:
            result = service.evaluate(compiled, batch, timeout=30.0)
        assert same_run(result, compiled.run(batch))

    def test_submit_rejects_non_positive_timeout(self, compiled, rng):
        batch = rng.integers(0, 2, size=(6, 4))
        with EvaluationService(fast_recovery_config()) as service:
            with pytest.raises(ValueError, match="timeout"):
                service.submit(compiled, batch, timeout=0.0)

    def test_run_serial_honors_deadline(self, compiled, rng):
        batch = rng.integers(0, 2, size=(6, 64))
        with pytest.raises(DeadlineExceeded):
            run_serial(compiled, batch, chunk_size=4, deadline=time.monotonic() - 1.0)
        for keep_nodes in (False, True):
            result = run_serial(
                compiled,
                batch,
                chunk_size=4,
                keep_nodes=keep_nodes,
                deadline=time.monotonic() + 60.0,
            )
            assert same_run(result, slow_run(batch, keep_nodes))


class TestTransportAndInstallFaults:
    def test_dropped_install_triggers_reinstall(self, compiled, rng):
        config = fast_recovery_config(fault_plan=FaultPlan(install_failures=1))
        batch = rng.integers(0, 2, size=(6, 24))
        with EvaluationService(config) as service:
            result = service.evaluate(compiled, batch)
            stats = service.stats()
        assert same_run(result, compiled.run(batch))
        assert stats.reinstalls >= 1

    def test_plan_activates_from_environment(self, compiled, rng, monkeypatch):
        plan = FaultPlan(install_failures=1)
        monkeypatch.setenv(FAULTS_ENV_VAR, plan.to_json())
        batch = rng.integers(0, 2, size=(6, 24))
        with EvaluationService(fast_recovery_config()) as service:
            result = service.evaluate(compiled, batch)
            stats = service.stats()
        assert same_run(result, compiled.run(batch))
        assert stats.reinstalls >= 1


class TestDegradation:
    @pytest.mark.parametrize("keep_nodes", [False, True])
    def test_degraded_mode_still_bit_identical(self, compiled, rng, keep_nodes):
        # Every worker dies before executing anything and the respawn budget
        # is zero, so both slots retire immediately and the service must fall
        # back to in-process serial execution — same bytes, zero workers.
        config = fast_recovery_config(
            service_respawn_budget=0,
            fault_plan=FaultPlan(kill_before_task=1),
        )
        batch = rng.integers(0, 2, size=(6, 24))
        with EvaluationService(config) as service:
            result = service.evaluate(compiled, batch, keep_nodes=keep_nodes)
            stats = service.stats()
            # Submissions after degradation short-circuit to the serial path.
            again = service.evaluate(compiled, batch, keep_nodes=keep_nodes)
            final = service.stats()
        expected = slow_run(batch, keep_nodes)
        assert same_run(result, expected)
        assert same_run(again, expected)
        assert stats.degraded
        assert stats.workers == 0
        assert stats.retired_workers == 2
        assert final.degraded_jobs >= 2

    def test_respawn_budget_bounds_restarts(self, compiled, rng):
        config = fast_recovery_config(
            service_respawn_budget=1,
            fault_plan=FaultPlan(kill_before_task=1),
        )
        batch = rng.integers(0, 2, size=(6, 16))
        with EvaluationService(config) as service:
            result = service.evaluate(compiled, batch)
            stats = service.stats()
        assert same_run(result, compiled.run(batch))
        # Each of the two slots restarts at most once before retiring.
        assert stats.worker_restarts <= 2
        assert stats.retired_workers == 2


class TestBoundedClose:
    def test_close_returns_promptly_with_wedged_worker(self, compiled, rng):
        # Stall detection is disabled, so the wedged worker would sleep for
        # 60s — close(timeout=...) must terminate it instead of waiting.
        config = fast_recovery_config(
            service_stall_timeout_s=0.0,
            fault_plan=FaultPlan(stall_task=1, stall_seconds=60.0),
        )
        service = EvaluationService(config)
        batch = rng.integers(0, 2, size=(6, 16))
        future = service.submit(compiled, batch)
        time.sleep(0.3)  # let tasks reach the workers and wedge
        start = time.monotonic()
        service.close(wait=False, timeout=2.0)
        elapsed = time.monotonic() - start
        assert elapsed < 8.0
        with pytest.raises(ServiceClosed, match="in flight"):
            future.result(timeout=1.0)

    def test_close_wait_honors_timeout(self, compiled, rng):
        config = fast_recovery_config(
            service_stall_timeout_s=0.0,
            fault_plan=FaultPlan(stall_task=1, stall_seconds=60.0),
        )
        service = EvaluationService(config)
        batch = rng.integers(0, 2, size=(6, 16))
        future = service.submit(compiled, batch)
        start = time.monotonic()
        service.close(wait=True, timeout=1.5)
        elapsed = time.monotonic() - start
        assert elapsed < 8.0
        assert isinstance(future.exception(timeout=1.0), ServiceClosed)


class TestAggressivePlanEndToEnd:
    def test_everything_at_once_stays_bit_identical(self, compiled, rng):
        config = fast_recovery_config(fault_plan=aggressive_plan())
        batches = [rng.integers(0, 2, size=(6, 40)) for _ in range(4)]
        with EvaluationService(config) as service:
            futures = [service.submit(compiled, batch) for batch in batches]
            results = [future.result(timeout=60.0) for future in futures]
        for batch, result in zip(batches, results):
            assert same_run(result, compiled.run(batch))

