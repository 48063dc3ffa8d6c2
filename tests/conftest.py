"""Checks every test in this directory gets."""

import multiprocessing
import os
import threading

import pytest

from osscl import trainer


def _environ():
    """os.environ without the variable pytest sets per test phase."""
    return {k: v for k, v in os.environ.items() if k != "PYTEST_CURRENT_TEST"}


def _affinity():
    """The CPUs this process may run on, or None where the OS cannot say."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


@pytest.fixture(autouse=True)
def leaves_nothing_running_or_changed():
    """After each test no batch feeder thread ("osscl-feed") is alive, no
    child process (a forked walk, a pool worker) is left running, and
    os.environ, the BLAS thread count and the CPU affinity are as the test
    found them, so a leaked one fails the test that leaked it. A leaked
    affinity would switch later runs between walking ahead and running
    in-process (trainer._spare_core)."""
    environ = _environ()
    blas_threads = trainer.blas_threads()
    affinity = _affinity()
    yield
    assert [t for t in threading.enumerate() if t.name == "osscl-feed"] == []
    assert multiprocessing.active_children() == []
    assert _environ() == environ
    assert trainer.blas_threads() == blas_threads
    assert _affinity() == affinity
