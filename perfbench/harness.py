"""Measurement plumbing for the benchmark: tracing, memory, leaks, fingerprint.

Nothing here imports ``repro``; :mod:`run` puts the source tree on the path
first and the workloads bring the library in.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: Spans that never nest inside one another.  Their per-op sum, divided by
#: the op's wall time, is ``trace.layer_coverage``.  ``backends.run_s``
#: (inside ``engine.evaluate_s``) and ``diskcache.restore_s`` (inside
#: ``engine.compile_s``) are nested and left out of the sum.
TOP_LEVEL_SPANS = (
    "core.build_s",
    "serialize.load_s",
    "circuits.hash_s",
    "engine.compile_s",
    "core.encode_s",
    "engine.evaluate_s",
    "engine.submit_s",
    "service.wait_s",
    "core.decode_s",
)


class NullTracer:
    """The untraced run: every hook is a no-op and nothing is patched."""

    @contextmanager
    def span(self, name):
        yield

    def add(self, name, value):
        pass

    def take(self):
        return {}


class Tracer:
    """Per-op span totals, recorded around calls into the library.

    ``span`` times a block the benchmark runs itself; ``patch`` wraps a
    public method of a library class, so calls the library makes
    internally are timed too.  Every patch is undone by :meth:`restore`.
    ``take`` returns the totals gathered since the previous call, one dict
    per op.
    """

    def __init__(self):
        self._totals = defaultdict(float)
        self._patches = []

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self._totals[name] += time.perf_counter() - start

    def add(self, name, value):
        self._totals[name] += value

    def patch(self, owner, attr, name, on_result=None):
        """Time every call of ``owner.attr`` (a class's method) into ``name``.

        ``on_result(tracer, result)`` may record counts taken from the
        returned value.  Patching an already-patched attribute is a no-op.
        """
        if any(o is owner and a == attr for o, a, _ in self._patches):
            return
        # None marks an inherited method: restoring deletes the override.
        original = vars(owner).get(attr)
        call = getattr(owner, attr)
        tracer = self

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = call(*args, **kwargs)
            finally:
                tracer._totals[name] += time.perf_counter() - start
            if on_result is not None:
                on_result(tracer, result)
            return result

        setattr(owner, attr, timed)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def take(self):
        totals, self._totals = dict(self._totals), defaultdict(float)
        return totals


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Linear-interpolation percentile (q in 0..100) of a non-empty list."""
    data = sorted(values)
    position = (len(data) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


# ---------------------------------------------------------------- memory
def reset_peak_rss():
    """Restart this process's peak-RSS counter (``VmHWM``).

    Where ``/proc/self/clear_refs`` is unavailable nothing resets and
    :func:`peak_rss_mb` reads the peak since the process started.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb():
    """Peak resident MiB of this process since the last reset.

    Service workers are left out: they are forked, so most of their
    resident pages are the parent's, shared copy-on-write, and summing the
    processes would count those pages twice.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_M_ARENA_MAX = -8


def single_malloc_arena():
    """Make every thread of this process allocate from glibc's main arena.

    The service's reader thread unpickles each returned node matrix; in a
    per-thread arena the memory it keeps after freeing them varies from run
    to run by up to three results, and ``peak_rss_mb`` with it.  Call before
    any thread starts.  A no-op where the C library has no ``mallopt``.
    """
    try:
        ctypes.CDLL(ctypes.util.find_library("c")).mallopt(_M_ARENA_MAX, 1)
    except (OSError, AttributeError, TypeError):
        pass


# ----------------------------------------------------------------- leaks
_SHM_DIR = "/dev/shm"
_SHM_PREFIXES = ("psm_", "sem.mp-")


def shm_blocks():
    """Names of Python shared-memory blocks and semaphores in /dev/shm."""
    try:
        return {n for n in os.listdir(_SHM_DIR) if n.startswith(_SHM_PREFIXES)}
    except OSError:
        return set()


def leaked_resources(shm_before, grace_s=5.0):
    """Child processes still alive and /dev/shm blocks created since ``shm_before``."""
    deadline = time.monotonic() + grace_s
    children = multiprocessing.active_children()
    while children and time.monotonic() < deadline:
        time.sleep(0.05)
        children = multiprocessing.active_children()
    return {
        "processes": [child.pid for child in children],
        "shm": sorted(shm_blocks() - shm_before),
    }


# ------------------------------------------------------------ fingerprint
def _git_sha(root):
    """HEAD of the checkout when it is a git work tree, else None."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def fingerprint(root, workers):
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    try:
        blas_info = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
        "machine": platform.machine(),
        "blas": blas,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "workers": workers,
        "parallel_meaningful": workers <= 1 or usable >= workers,
    }
