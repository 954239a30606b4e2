"""Puts src/ on PYTHONPATH too, so that `python -m vidcap.cli` started by a
test imports the same uninstalled package as the test itself
(pyproject's pythonpath setting covers only the pytest process).  Fails
any test that leaves a thread running."""

import os
import threading
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads still running after the test: {left}")
