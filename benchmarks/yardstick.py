"""Yardsticks: fixed computations timed in between a pass's operations.

The host this benchmark was built on is a shared VM whose speed drifts by up
to 1.9x over tens of seconds to minutes, with no change of code: CPU time
moves with wall time, so the time is not stolen, the same instructions just
run slower. A fixed computation of the same kind as the workload, run in
between the pass's operations, slows down with it. A pass's time divided by
the yardstick's mean time is its cost in yardsticks, in which that drift
largely cancels: on that host, calibration passes that took 2.3 s to 4.5 s
cost within ±4 % of the same number of record yardsticks.

A yardstick is matched to the kind of work that dominates its workload,
because the drift slows interpreter-bound and array-bound code by different
factors. It never calls relfine, so a change to relfine cannot move it.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from typing import Callable

import numpy as np

#: The yardstick runs until its time is at least this share of the pass's
#: timed operations so far, each time before an operation and once at the end.
SHARE = 0.05
#: Runs before the first operation, so that every pass has a sample.
MIN_RUNS = 10

_rng = random.Random(0)
_RECORDS = {
    "triplets": [
        {
            "subject": f"c{_rng.randrange(30)}",
            "relation": _rng.choice(("above", "below", "left", "right")),
            "object": f"c{_rng.randrange(30)}",
            "weight": _rng.random(),
        }
        for _ in range(60)
    ]
}
_MAPS = np.random.default_rng(0).random((8, 128, 128))
# Preallocated: fresh 1 MB temporaries would make a run's time depend on
# whether the allocator has to fault in new pages, which varies with what
# ran before it.
_E = np.empty_like(_MAPS)
_TOP = np.empty((1, 128, 128))
_LABELS = np.empty((128, 128), dtype=np.intp)


def records() -> None:
    """Interpreter-bound: a JSON round trip of 60 relation records, sorted
    and grouped by subject."""
    doc = json.loads(json.dumps(_RECORDS))
    groups: dict[str, list] = {}
    for key in sorted((t["subject"], t["relation"], t["object"]) for t in doc["triplets"]):
        groups.setdefault(key[0], []).append(key)


def arrays() -> None:
    """Array-bound: softmax and argmax over 8 maps of 128x128."""
    np.max(_MAPS, axis=0, keepdims=True, out=_TOP)
    np.subtract(_MAPS, _TOP, out=_E)
    np.exp(_E, out=_E)
    np.sum(_E, axis=0, keepdims=True, out=_TOP)
    np.divide(_E, _TOP, out=_E)
    np.argmax(_E, axis=0, out=_LABELS)


class Yardstick:
    """Runs one yardstick in step with a pass and keeps its total time."""

    def __init__(self, compute: Callable[[], None]):
        self.compute = compute
        self.samples: list[float] = []
        self.seconds = 0.0

    def keep_pace(self, timed_s: float) -> None:
        """Run until the yardstick has had SHARE of `timed_s`, the pass's
        timed seconds so far, and at least MIN_RUNS runs."""
        while len(self.samples) < MIN_RUNS or self.seconds < SHARE * timed_s:
            t0 = time.perf_counter()
            self.compute()
            self.samples.append(time.perf_counter() - t0)
            self.seconds += self.samples[-1]

    @property
    def median_s(self) -> float:
        """The median run: the host's typical speed over the pass, with the
        runs that an interrupt or a page fault happened to hit left out."""
        return statistics.median(self.samples)
