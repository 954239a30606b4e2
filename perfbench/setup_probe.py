"""Run one workload's set-up in a fresh interpreter and print its time.

run.py starts this process for `setup_s`.  The clock starts once the
interpreter and numpy are loaded, and covers importing vidcap, loading the
corpus or checkpoint, vocab and tagger, and building the model.  numpy's own
import is third-party start-up that no change to vidcap can move; it is the
largest and noisiest part of the process's life, so it stays off the clock.
The last stdout line is {"setup_s": <seconds>}.

    python3 perfbench/setup_probe.py <workload> <workdir> <seed>

`src/` must be on PYTHONPATH and the workdir already prepared by run.py.
"""

import json
import sys
import time
from pathlib import Path

import numpy  # noqa: F401  loaded before the clock starts, see above


def main() -> None:
    name, workdir, seed = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3])
    t0 = time.perf_counter()
    from tracing import Tracer
    from workloads import WORKLOADS

    WORKLOADS[name](workdir, seed, Tracer()).setup()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
