"""Shared fixtures for the test suite."""

from __future__ import annotations

import faulthandler
import os
import sys

import numpy as np
import pytest
from hypothesis import settings

from repro.fastmm import naive_algorithm, strassen_2x2, winograd_2x2

# CI runs with pinned seeds (HYPOTHESIS_PROFILE=ci): failures reproduce
# across reruns instead of flaking, and print_blob gives the repro recipe.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

#: Seconds any one test may run.  Past it every thread's stack is printed and
#: the run exits with status 1, so a hung test fails with a traceback instead
#: of stalling until the CI job times out.  The slowest test takes about 70 s.
TEST_TIME_LIMIT_S = 600

_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is off while plugins configure; a copy of the real
    # stderr taken now still reaches the terminal from inside a captured
    # test, where writes to fd 2 would land in the capture file and be lost.
    config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.fixture(autouse=True)
def _test_time_limit(request):
    """Arm the per-test time limit; cancel it when the test ends."""
    faulthandler.dump_traceback_later(
        TEST_TIME_LIMIT_S, exit=True, file=request.config.stash[_STDERR_FD]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for reproducible tests."""
    return np.random.default_rng(20180716)  # SPAA'18 started July 16, 2018


@pytest.fixture(params=["strassen", "winograd", "naive-2"])
def any_algorithm(request):
    """Parametrized over the three 2x2 base-case algorithms."""
    factories = {
        "strassen": strassen_2x2,
        "winograd": winograd_2x2,
        "naive-2": lambda: naive_algorithm(2),
    }
    return factories[request.param]()


@pytest.fixture
def strassen():
    """The canonical Strassen algorithm."""
    return strassen_2x2()


def random_signed_matrix(rng, n, bit_width):
    """Uniform signed integer matrix with entries below 2**bit_width in magnitude."""
    high = (1 << bit_width) - 1
    return rng.integers(-high, high + 1, size=(n, n), dtype=np.int64)
