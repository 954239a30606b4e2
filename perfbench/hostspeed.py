"""How fast the shared host runs, from a fixed reference loop.

The benchmark's cores are shared with other tenants, whose load changes the
speed of every instruction by up to about 40%, over stretches of seconds to
minutes.  The same reference work, timed all through a run, follows that
drift.  A round's rate times `reference_s() / REFERENCE_S`, with the
reference timed next to the round, is its rate on a host that runs the loop
in exactly REFERENCE_S.

The loop is this file's own code, never vidcap's, so a change to vidcap
cannot move it.  It mixes what vidcap spends its time on, because kinds of
work differ in how much the drift moves them:
  - small float64 matmuls and elementwise numpy calls, with Python object
    churn of the kind an autodiff tape makes (the decoder and the tape);
  - matrix-vector products and elementwise arithmetic over 4 MB of 256x256
    matrices, which leave the caches (the encoder and AFS on larger arrays).
Timed beside 150 s of each workload on 2 shared cores, the first part alone
moved about 1.8x as far as the workload did; with the second part added, the
scaled rate's spread across 5-15 s stretches fell by a fifth to a third.
"""

from __future__ import annotations

import time

import numpy as np

SMALL_REPEATS = 70
LARGE_PASSES = 4
# Nominal loop time the scaled rates refer to; about its median on a 2-core
# shared x86-64 host (Python 3.11, numpy 2.4, OpenBLAS 0.3).
REFERENCE_S = 0.010

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((24, 64))
_W = _rng.standard_normal((4, 64, 64)) * 0.1
_BIG = _rng.standard_normal((8, 256, 256))
_V = _rng.standard_normal(256)


class _Node:
    __slots__ = ("value", "parents", "grad")

    def __init__(self, value, parents):
        self.value = value
        self.parents = parents
        self.grad = None


def _small() -> None:
    tape = [_Node(_X, ())]
    for w in _W:
        h = np.maximum(tape[-1].value @ w, 0.0)
        tape.append(_Node(h, (tape[-1],)))
    z = tape[-1].value - tape[-1].value.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    grad = p
    for node in reversed(tape[1:]):
        node.grad = grad * (node.value > 0.0)
        grad = node.grad[:, ::-1]
    {f"layer{i}": node for i, node in enumerate(tape)}


def _large() -> None:
    v = _V
    for m in _BIG:
        v = np.tanh(m @ v)
        m * 0.5 + m


def reference_s() -> float:
    """Seconds taken by one pass of the fixed reference work."""
    t0 = time.perf_counter()
    for _ in range(SMALL_REPEATS):
        _small()
    for _ in range(LARGE_PASSES):
        _large()
    return time.perf_counter() - t0
