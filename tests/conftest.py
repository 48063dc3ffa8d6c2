"""Checks every test in this directory gets."""

import multiprocessing
import os
import threading

import pytest


def _environ():
    """os.environ without the variable pytest sets per test phase."""
    return {k: v for k, v in os.environ.items() if k != "PYTEST_CURRENT_TEST"}


@pytest.fixture(autouse=True)
def leaves_nothing_running_or_changed():
    """After each test no batch feeder thread ("osscl-feed") is alive, no
    child process (a forked walk, a pool worker) is left running and
    os.environ is as the test found it, so a leaked one fails the test that
    leaked it."""
    environ = _environ()
    yield
    assert [t for t in threading.enumerate() if t.name == "osscl-feed"] == []
    assert multiprocessing.active_children() == []
    assert _environ() == environ
