"""Sampling how fast the machine runs while the benchmark measures.

The cores are shared with other tenants.  Identical passes of the solve
workload took 1.0 s in one minute and 1.8 s in the next, in process time
as much as in wall time, so the drift is slower cores rather than lost
turns.  While a run measures, a timer interrupts it every PERIOD_S and
times a small fixed pure-Python job; each timed piece of work is scaled by
NOMINAL_S over the job's mean time during it and just beside it.  The
samples are spread evenly in time, so they see the same fast and slow
spells as the work, and their time is taken out of the work's time.  The
job uses no cstlab code.

The work's own memory use must not move the samples, or a program change
that cut memory traffic would speed up the samples too and hide part of
its gain.  So each sample runs the job twice and times only the second
run, after the caches are refilled, and the job works on data built once
at import, allocating only small objects.  An earlier job that built its
dict and text afresh ran 0.95 to 1.71 times as long during passes as
between them (ratio of medians per run on a 2-core x86-64 VM; paper
1.16-1.71 over five seeds even when warm), and 9.4 ms instead of 6-7 ms
beside a live 130k-entry dict like the paper workload's oracle memo.
Every run prints this ratio as ``pass_bias``.  Sampling only between
passes would avoid the question but does not track the machine: on the
single long paper pass, calibrated times then spread more than raw ones.
"""
from __future__ import annotations

import gc
import re
import signal
import statistics
import time

PERIOD_S = 0.25
# The warm job takes about this long on a 2-core x86-64 Linux VM under
# Python 3.11; scaled times are "seconds at that speed".
NOMINAL_S = 0.0055

_LINE = re.compile(r"^(\w+) (\d+)$")
_N = 45
_WEIGHTS = [(k * 7919) % 101 for k in range(_N)]
_PREFIX = [sum(_WEIGHTS[:k]) for k in range(_N + 1)]
_COST = {(i, i + length): 0 for length in range(1, _N + 1) for i in range(_N - length + 1)}
_TEXT = [f"K{k:05d} {_WEIGHTS[k % _N]}" for k in range(1000)]


def _job() -> int:
    # Interval DP over a dict memo with tuple keys, like the exact kernels.
    cost = _COST
    for length in range(1, _N + 1):
        for i in range(_N - length + 1):
            j = i + length
            best = min(cost.get((i, r), 0) + cost.get((r + 1, j), 0) for r in range(i, j))
            cost[(i, j)] = best + _PREFIX[j] - _PREFIX[i]
    # Regex parsing, like the tree-file and ASCII parsers.
    parsed = sum(int(m.group(2)) for m in map(_LINE.match, _TEXT))
    return cost[(0, _N)] + parsed


class Sampler:
    """Runs the job from a SIGALRM handler every PERIOD_S of wall time.

    ``stolen`` accumulates the handler's whole time, so callers can take it
    out of the intervals they measure.  Samples taken while ``in_pass`` is
    set, and those taken by ``at_boundary`` between passes, are also kept
    apart for ``pass_bias``.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stolen = 0.0
        self.in_pass = False
        self.pass_samples: list[float] = []
        self.boundary_samples: list[float] = []
        self._busy = False
        self._previous = None

    def __enter__(self) -> "Sampler":
        self._sample()  # so that even the shortest run has a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick must not land inside another sample
            return
        seconds = self._sample()
        if self.in_pass:
            self.pass_samples.append(seconds)

    def at_boundary(self, count: int) -> None:
        """Takes *count* samples now, between two passes."""
        for _ in range(count):
            self.boundary_samples.append(self._sample())

    def _sample(self) -> float:
        start = time.perf_counter()
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # the job's time must not depend on the workload's heap
        try:
            _job()  # refills the caches; not timed
            t0 = time.perf_counter()
            _job()
            seconds = time.perf_counter() - t0
            self.samples.append(seconds)
        finally:
            if collecting:
                gc.enable()
            self._busy = False
            self.stolen += time.perf_counter() - start
        return seconds

    @property
    def scale(self) -> float:
        """Factor from seconds measured here to seconds at nominal speed."""
        return NOMINAL_S / statistics.mean(self.samples)

    @property
    def pass_bias(self) -> float:
        """Median sample time during passes over median time between them."""
        return statistics.median(self.pass_samples) / statistics.median(self.boundary_samples)
