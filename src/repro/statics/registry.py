"""Project-specific declarations driving the engine source lint.

The lint rules in :mod:`repro.statics.lint` are generic AST walks; this
module holds the *project knowledge* they consume — which classes own a
dispatcher lock and which of their fields it guards, which helpers are
documented lock-held, and which classes cross the multiprocessing pool
boundary and therefore must stay picklable.  Keeping the knowledge here
(rather than inline in the rules) means adding a guarded field or a new
pool-boundary program is a one-line registry edit that the lint then
enforces everywhere, and the self-test fixtures can trigger the rules
simply by defining classes with the registered names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet

__all__ = [
    "LockSpec",
    "GUARDED_CLASSES",
    "POOL_BOUNDARY_CLASSES",
    "TEMP_ARTIFACT_FACTORIES",
    "TEMP_CLEANUP_CALLS",
]


@dataclass(frozen=True)
class LockSpec:
    """Lock discipline for one class: which fields which lock guards.

    ``assume_locked`` lists methods documented as lock-held helpers (their
    callers hold the lock, so bare field access inside them is fine);
    ``exempt`` lists methods that run before the lock exists or after the
    object is single-threaded again (``__init__`` and friends).
    """

    lock_attr: str = "_lock"
    guarded_fields: FrozenSet[str] = field(default_factory=frozenset)
    assume_locked: FrozenSet[str] = field(default_factory=frozenset)
    exempt: FrozenSet[str] = field(default_factory=frozenset)


#: Classes whose mutable dispatcher state must only be touched under the
#: registered lock.  PR 7's dispatcher race (a dead-worker sweep failing a
#: sibling's job, then dispatching against the released job) is exactly the
#: class of bug this catches before it runs.
GUARDED_CLASSES: Dict[str, LockSpec] = {
    "EvaluationService": LockSpec(
        lock_attr="_lock",
        guarded_fields=frozenset(
            {
                "_tasks",
                "_retries",
                "_serial_backlog",
                "_deadline_jobs",
                "_slot_respawns",
                "_workers",
                "_outstanding",
                "_resolutions",
                "_disk_resident",
            }
        ),
        # Documented lock-held helpers: every caller already holds _lock
        # (the docstrings in engine/service.py say so explicitly).
        assume_locked=frozenset(
            {
                "_dispatch",
                "_retry_later",
                "_task_attempt_failed",
                "_payload_for",
                "_install_if_needed",
                "_artifact_resident",
                "_respawn_worker",
                "_enter_degraded",
                "_convert_job_to_pickle",
                "_on_tick",
                "_check_workers",
                "_handle_result",
                "_complete_task",
                "_fail_job",
                "_job_closed",
                "_key_for",
            }
        ),
        exempt=frozenset({"__init__"}),
    ),
}


#: Classes whose instances are shipped to pool workers (installed once per
#: worker by the evaluation service).  They must not grow members that the
#: default pickle protocol rejects — PR 5 hit this the hard way.
POOL_BOUNDARY_CLASSES: FrozenSet[str] = frozenset(
    {
        "_SegmentProgram",
        "_ExactSegmentProgram",
    }
)


#: Calls that create a temp file/directory for the write-to-temp +
#: ``os.replace`` publication pattern (the disk artifact store, atomic
#: circuit dumps).  REP006 requires any function calling one of these to
#: also contain a cleanup call (below): publication via ``os.replace``
#: covers only the success path, and a function with no cleanup leaks its
#: staging litter on every failure.
TEMP_ARTIFACT_FACTORIES: FrozenSet[str] = frozenset(
    {"tempfile.mkstemp", "tempfile.mkdtemp", "mkstemp", "mkdtemp"}
)

#: Calls REP006 accepts as cleaning up a temp artifact.
TEMP_CLEANUP_CALLS: FrozenSet[str] = frozenset(
    {
        "os.unlink",
        "os.remove",
        "os.rmdir",
        "shutil.rmtree",
        "unlink",
        "remove",
        "rmtree",
    }
)
