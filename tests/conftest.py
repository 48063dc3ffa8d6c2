"""Checks every test in this directory gets."""

import glob
import os
import sys
import threading

import pytest

from osscl import trainer


def _environ():
    """os.environ without the variable pytest sets per test phase."""
    return {k: v for k, v in os.environ.items() if k != "PYTEST_CURRENT_TEST"}


def child_pids():
    """Pids of this process's child processes, exited but unreaped ones too,
    as /proc/self/task/*/children lists them (none where there is no /proc),
    leaving out multiprocessing's resource tracker: a spawn pool starts it
    once, and it lives as long as this process. A thread that exits
    between the listing and the read takes its file with it, and its
    children pass to another thread, so the files are then read again."""
    while True:
        pids = set()
        try:
            for path in glob.glob("/proc/self/task/*/children"):
                with open(path, encoding="ascii") as f:
                    pids.update(int(pid) for pid in f.read().split())
            break
        except (FileNotFoundError, ProcessLookupError):
            pass  # a thread exited: list and read the files again
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        pids.discard(tracker._resource_tracker._pid)
    return pids


def _affinity():
    """The CPUs this process may run on, or None where the OS cannot say."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


@pytest.fixture(autouse=True)
def leaves_nothing_running_or_changed():
    """After each test no batch feeder thread ("osscl-feed") is alive, no
    child process (a forked walk, a pool worker) is left running or
    unreaped, whether multiprocessing started it or a bare os.fork, and
    os.environ, the BLAS thread count and the CPU affinity are as the test
    found them, so a leaked one fails the test that leaked it. A leaked
    affinity would switch later runs between walking ahead and running
    in-process (trainer._spare_core)."""
    # imported here, so that a script importing child_pids from this module
    # does not load it
    import multiprocessing

    environ = _environ()
    blas_threads = trainer.blas_threads()
    affinity = _affinity()
    yield
    assert [t for t in threading.enumerate() if t.name == "osscl-feed"] == []
    assert multiprocessing.active_children() == []
    assert child_pids() == set()
    assert _environ() == environ
    assert trainer.blas_threads() == blas_threads
    assert _affinity() == affinity
