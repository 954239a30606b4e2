"""The benchmark's traced run patches vidcap names listed in
perfbench/tracing.py TARGETS; a target that no longer resolves is skipped
there and its per-layer metrics silently read 0.  This guard resolves each
target the way the tracer does, so a refactor that renames one fails here.
"""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# absent since one search loop replaced the per-strategy generators; this
# set shrinks when the benchmark's targets are updated
KNOWN_ABSENT = {("vidcap.decoder", "generate_beam"), ("vidcap.decoder", "generate_sample")}


def _resolves(module: str, path: str) -> bool:
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return attr in vars(owner) if owner is not None else False


def test_every_trace_target_resolves():
    # run_path compiles the file without importing perfbench as a package
    targets = runpy.run_path(str(TRACING))["TARGETS"]
    absent = {(module, path) for _, module, path, _ in targets if not _resolves(module, path)}
    assert absent == KNOWN_ABSENT
