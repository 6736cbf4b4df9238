"""Host speed, measured with a fixed reference computation during a run.

The shared host this benchmark was written on changes speed by up to a half
for spells of seconds to minutes: the same index build took 3.0 s in one run
and 4.9 s a few minutes later, with every figure of a run slow or fast
alike.  A fixed computation, timed before every operation and around every
set-up phase, follows those spells.

Bounded times are scaled by ``REFERENCE_MS / (median reference time within
WINDOW_S of the measurement)``, so that they read as times on the host at a
fixed speed.  Over five seeds of ``ask_default`` this cut the spread of the
median latency (quartile distance over median) from 0.23 to 0.10.  The raw
times are printed and recorded beside the scaled ones.  The reference is
code of the benchmark, not of the program, so no change to the program can
move it.
"""
from __future__ import annotations

import time
from statistics import median

import numpy as np

REFERENCE_MS = 11.0     # about the reference's time on the host in its fast spells
WINDOW_S = 5.0          # samples this close to a measurement set its scale

_X = np.linspace(-1.0, 1.0, 16 * 64, dtype=np.float32).reshape(16, 64)
_W = np.linspace(-0.1, 0.1, 64 * 64, dtype=np.float32).reshape(64, 64)
# A table of some megabytes probed at scattered keys, as postings and word
# vectors are; small products and short-lived objects, as graph building is.
_TABLE = {i * 7919 % 1_000_003: i for i in range(200_000)}
_KEYS = [i * 104_729 % 1_000_003 for i in range(9_000)]
# Integer arithmetic on bytes, as feature hashing and file parsing are.
_BYTES = bytes(range(256)) * 40


class _Node:
    __slots__ = ("value", "parents", "back")

    def __init__(self, value, parents, back):
        self.value = value
        self.parents = parents
        self.back = back


def _reference() -> int:
    x = _X
    nodes = []
    for i in range(300):
        y = x @ _W
        x = np.tanh(y)
        nodes.append(_Node(x, (i, i + 1), lambda g, y=y: g * y))
    hits = 0
    for key in _KEYS:
        hits += _TABLE.get(key, 0) & 1
    acc = 0xCBF29CE484222325
    for byte in _BYTES:
        acc = ((acc ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return hits + len(nodes) + (acc & 1)


class HostSpeed:
    """Reference timings taken during a run, and the scale they imply."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (perf_counter, ms)

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            start = time.perf_counter()
            _reference()
            end = time.perf_counter()
            self.samples.append((end, (end - start) * 1e3))

    def scale(self, start: float, end: float) -> float:
        """Factor turning a time measured in [start, end] into reference time."""
        near = [ms for t, ms in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = [ms for _, ms in self.samples]
        return REFERENCE_MS / median(near)

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.scale(start, end)
