"""Puts src/ on PYTHONPATH too, so that `python -m vidcap.cli` started by a
test imports the same uninstalled package as the test itself
(pyproject's pythonpath setting covers only the pytest process)."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
