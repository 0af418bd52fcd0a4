"""Reference loop that scales the benchmark's timings to a fixed host speed.

On a shared host a fixed piece of work can take up to 1.8 times as long
from one minute to the next, and its CPU time moves with its wall time, so
neither figure compares across runs as measured. The benchmark therefore
brackets every timed call with short bursts of a fixed reference loop, run
on the same CPU right before and right after the call, and reports the
call's time scaled by ``REF_UNIT_S / reference``, where ``reference`` is
the median unit time of the two bursts: the time the call would take on a
host where one unit of the reference loop takes ``REF_UNIT_S``. The raw
times are reported beside the scaled ones.

One unit of the loop mixes the kinds of work the program does:
Python-level dict and integer operations, small stacked numpy matrix
products like the graph kernel's batched fixed-point solves, and one
start of a bare Python interpreter. The host's slow phases slow pure
computation more than process starts and memory traffic; with the starts
in the unit, the program's call times followed the unit's time with a
log-log slope of about 0.8 on the baseline host, against about 0.68
without them. The loop shares no code with the program, so a change to
the program cannot change the yardstick.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

import numpy as np

# Nominal time of one reference unit: about its median on the 2-core host
# (Intel Xeon, Python 3.11, OpenBLAS) where the baseline was recorded.
REF_UNIT_S = 0.032
UNITS_PER_BURST = 3

_RNG = np.random.default_rng(12345)
_A = _RNG.random((48, 10, 10)) / 10.0
_B = _RNG.random((48, 10, 10)) / 10.0


def pin_to_one_cpu() -> int:
    """Pins this process, and so every child it starts, to the highest CPU
    it may use, so the bursts run where the timed calls run."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _unit() -> float:
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(80000):
        k = i % 97
        table[k] = table.get(k, 0) + i
        acc += (i * i) % 7
    r = np.zeros_like(_A)
    for _ in range(240):
        r = 1.0 + _A @ r @ _B
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return time.perf_counter() - t0


def _burst() -> list[float]:
    return [_unit() for _ in range(UNITS_PER_BURST)]


class Timing(NamedTuple):
    """Raw time of one call and the median reference unit around it."""

    wall: float
    reference: float

    @property
    def scaled(self) -> float:
        return self.wall * REF_UNIT_S / self.reference


class Bracket:
    """Times one call between two reference bursts:
    ``with Bracket() as b: call()`` leaves the result in ``b.timing``."""

    def __enter__(self) -> "Bracket":
        self._before = _burst()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self._t0
        self.timing = Timing(wall, statistics.median(self._before + _burst()))
