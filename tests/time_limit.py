"""Per-test time limit that reaps child processes before it exits.

:func:`arm_time_limit` starts a daemon thread.  If the limit passes before
the returned event is set, the thread prints every thread's stack to a file
descriptor, terminates (then kills) the process's ``multiprocessing``
children, and ends the process with ``os._exit(1)``.  A hung test thus fails
with a traceback and leaves no orphaned worker processes behind.
"""

from __future__ import annotations

import faulthandler
import multiprocessing
import os
import threading
import time

#: Seconds the children get to exit after SIGTERM before they are killed.
REAP_GRACE_S = 2.0


def arm_time_limit(seconds: float, fd: int) -> threading.Event:
    """Start the watchdog; set the returned event to disarm it."""
    disarmed = threading.Event()

    def expire() -> None:
        if disarmed.wait(seconds):
            return
        os.write(fd, f"\nTimeout ({seconds:g} s): stacks of every thread\n".encode())
        faulthandler.dump_traceback(file=fd, all_threads=True)
        children = multiprocessing.active_children()
        for child in children:
            child.terminate()
        deadline = time.monotonic() + REAP_GRACE_S
        for child in children:
            child.join(max(0.0, deadline - time.monotonic()))
        for child in children:
            if child.is_alive():
                child.kill()
                child.join(REAP_GRACE_S)
        os._exit(1)

    threading.Thread(target=expire, name="test-time-limit", daemon=True).start()
    return disarmed
