"""Fault injection for the evaluation service (tests and soak runs only).

The resident :class:`~repro.engine.service.EvaluationService` claims to
survive worker deaths, lost messages, wedged workers, and poisoned
installs.  Claims like that rot unless something exercises them
continuously, so this module defines a picklable :class:`FaultPlan` — a
declarative set of injection points threaded into the service's worker
loop and dispatcher:

* **Process kills** — ``kill_before_task`` / ``kill_after_task`` make a
  worker ``os._exit`` around its N-th executed task (before running it, or
  after computing but before reporting), modeling OOM kills and native
  crashes with and without a result in flight.
* **Stalls** — ``stall_task`` + ``stall_seconds`` wedge a worker inside task
  execution, which only heartbeat-based stall detection (not death
  detection) can see.
* **Lost and corrupted messages** — ``drop_result_tasks`` silently discards
  a result, ``corrupt_result_tasks`` replaces it with a malformed message,
  ``drop_dispatch_tasks`` makes the *dispatcher* lose a request before it
  reaches the worker, and ``delay_result_s`` slows every report down.
* **Install failures** — ``install_failures`` drops the first K program
  installs (the worker then keeps reporting the program missing until the
  parent's bounded reinstall budget runs out or a retry lands).

Ordinals are **1-based and worker-local** (each worker process counts its
own executed tasks), so a respawned worker re-arms the plan — a
``kill_before_task=9`` plan applies sustained kill pressure, not a single
crash.  ``workers`` restricts worker-side faults to specific worker indices.

Plans activate per service via ``EngineConfig(fault_plan=...)`` or — for
test processes only, never production configuration — the ``REPRO_FAULTS``
environment variable holding the JSON form of a plan.

:class:`DeadlineExceeded` also lives here: it is the error both the
service's per-job deadlines and the scheduler's serial deadline checks
raise, and this module is the one place they can both import it from
without a cycle.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields
from typing import Optional, Tuple

__all__ = [
    "DeadlineExceeded",
    "FAULTS_ENV_VAR",
    "FaultPlan",
    "aggressive_plan",
    "fault_plan_from_env",
]

#: Environment variable holding a JSON :class:`FaultPlan` (tests only).
FAULTS_ENV_VAR = "REPRO_FAULTS"


class DeadlineExceeded(TimeoutError):
    """A job (or serial evaluation) missed its deadline.

    Raised by ``EvaluationService.submit(..., timeout=...)`` futures and by
    :func:`repro.engine.scheduler.run_serial` when a deadline is passed.
    """


@dataclass(frozen=True)
class FaultPlan:
    """Declarative injection points for one evaluation service.

    All task ordinals are 1-based counts of *executed* tasks, local to one
    worker process (a respawned worker starts counting again).  A field
    left at its default injects nothing.
    """

    #: ``os._exit`` before executing the worker's N-th task.
    kill_before_task: Optional[int] = None
    #: ``os._exit`` after computing the N-th task, before reporting it.
    kill_after_task: Optional[int] = None
    #: Sleep ``stall_seconds`` inside execution of the N-th task.
    stall_task: Optional[int] = None
    stall_seconds: float = 5.0
    #: Silently discard the result message of these task ordinals.
    drop_result_tasks: Tuple[int, ...] = ()
    #: Replace the result message of these ordinals with malformed garbage.
    corrupt_result_tasks: Tuple[int, ...] = ()
    #: Sleep this long before every result put (slow-worker pressure).
    delay_result_s: float = 0.0
    #: The first K install messages in a worker are dropped.
    install_failures: int = 0
    #: The dispatcher silently drops these (service-global, 1-based)
    #: dispatch ordinals: the request never reaches the worker.
    drop_dispatch_tasks: Tuple[int, ...] = ()
    #: The first K artifact publications by a
    #: :class:`~repro.engine.diskcache.DiskArtifactStore` built from this
    #: plan ``os._exit`` after fully staging the artifact but before the
    #: atomic ``os.replace`` — a crashed writer, leaving only ``.tmp-*``
    #: litter that readers must never trust and ``prune`` must sweep.
    artifact_crash_writes: int = 0
    #: Restrict worker-side faults to these worker indices (None: all).
    workers: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        # JSON round-trips hand us lists; normalize to hashable tuples.
        for name in ("drop_result_tasks", "corrupt_result_tasks", "drop_dispatch_tasks"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                value = tuple(value)
                object.__setattr__(self, name, value)
            for ordinal in value:
                if ordinal < 1:
                    raise ValueError(
                        f"{name} must hold 1-based ordinals, got {ordinal}"
                    )
        if self.workers is not None and not isinstance(self.workers, tuple):
            object.__setattr__(self, "workers", tuple(self.workers))
        for name in ("kill_before_task", "kill_after_task", "stall_task"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be a 1-based ordinal, got {value}")
        for name in ("stall_seconds", "delay_result_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("install_failures", "artifact_crash_writes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    # ------------------------------------------------------------- application
    def applies_to(self, worker_index: int) -> bool:
        """Whether worker-side faults of this plan target the given worker."""
        return self.workers is None or worker_index in self.workers

    # ------------------------------------------------------------ serialization
    def as_dict(self) -> dict:
        """JSON-ready form (tuples become lists); inverse of :meth:`from_dict`."""
        payload = asdict(self)
        for key, value in payload.items():
            if isinstance(value, tuple):
                payload[key] = list(value)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown FaultPlan fields {sorted(unknown)}; expected a subset "
                f"of {sorted(known)}"
            )
        return cls(**payload)

    def to_json(self) -> str:
        """Compact JSON form, accepted by :meth:`from_json` / ``REPRO_FAULTS``."""
        return json.dumps(self.as_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(f"fault plan JSON must be an object, got {type(payload).__name__}")
        return cls.from_dict(payload)


def fault_plan_from_env() -> Optional[FaultPlan]:
    """The plan named by ``REPRO_FAULTS`` (JSON), or None when unset/empty."""
    text = os.environ.get(FAULTS_ENV_VAR, "").strip()
    if not text:
        return None
    return FaultPlan.from_json(text)


def aggressive_plan() -> FaultPlan:
    """The kitchen-sink plan CI's short-mode soak runs under.

    The ordinals are ordered so one worker life hits every mechanism: a
    dropped result (2), a corrupted message (4), a sub-detection-threshold
    stall (6 — slow worker, not a wedge, so the life continues), then death
    at task 9, re-arming the plan in the respawned worker.  Only one kill
    variant appears because a worker dies at most once per life and the
    plan re-arms identically — the earliest fatal ordinal would always win,
    so ``kill_after_task`` / detection-threshold stalls are left to the
    targeted tests that can observe them in isolation.  An install also
    fails once per worker process, and every report is slightly delayed to
    keep result ordering honest.
    """
    return FaultPlan(
        kill_before_task=9,
        stall_task=6,
        stall_seconds=0.4,
        drop_result_tasks=(2,),
        corrupt_result_tasks=(4,),
        delay_result_s=0.01,
        install_failures=1,
        drop_dispatch_tasks=(11,),
    )
