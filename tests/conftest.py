"""Puts src/ on PYTHONPATH too, so that `python -m vidcap.cli` started by a
test imports the same uninstalled package as the test itself
(pyproject's pythonpath setting covers only the pytest process).  Fails
any test that leaves a thread running."""

import os
import threading
from pathlib import Path

import pytest

from vidcap import autodiff as ad

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads still running after the test: {left}")


@pytest.fixture
def softmax_outputs(monkeypatch):
    """The arrays of every ad.softmax output from here on, in call order;
    attention calls ad.softmax once per call, on its scores."""
    outputs = []
    real = ad.softmax

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        outputs.append(ad.array_of(out).copy())
        return out

    monkeypatch.setattr(ad, "softmax", spy)
    return outputs
