"""Checks every test in this directory gets."""

import multiprocessing
import threading

import pytest


@pytest.fixture(autouse=True)
def leaves_no_feeder_or_child_running():
    """After each test no batch feeder thread ("osscl-feed") is alive and no
    child process (a forked walk, a pool worker) is left running, so a
    leaked one fails the test that leaked it."""
    yield
    assert [t for t in threading.enumerate() if t.name == "osscl-feed"] == []
    assert multiprocessing.active_children() == []
