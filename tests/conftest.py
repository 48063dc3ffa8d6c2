"""Checks every test in this directory gets."""

import multiprocessing
import os
import threading

import pytest

from osscl import trainer


def _environ():
    """os.environ without the variable pytest sets per test phase."""
    return {k: v for k, v in os.environ.items() if k != "PYTEST_CURRENT_TEST"}


def _blas_threads():
    """The thread count of numpy's bundled OpenBLAS, or None without it."""
    lib = trainer._openblas()
    return None if lib is None else lib.scipy_openblas_get_num_threads64_()


@pytest.fixture(autouse=True)
def leaves_nothing_running_or_changed():
    """After each test no batch feeder thread ("osscl-feed") is alive, no
    child process (a forked walk, a pool worker) is left running, and
    os.environ and the BLAS thread count are as the test found them, so a
    leaked one fails the test that leaked it. A leaked thread count would
    switch later runs between walking ahead and running in-process."""
    environ = _environ()
    blas_threads = _blas_threads()
    yield
    assert [t for t in threading.enumerate() if t.name == "osscl-feed"] == []
    assert multiprocessing.active_children() == []
    assert _environ() == environ
    assert _blas_threads() == blas_threads
