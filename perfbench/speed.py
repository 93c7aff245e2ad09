"""The machine's speed, sampled between the questions, to correct their times.

The host this benchmark runs on is shared, and its speed drifts by up to
half over seconds to minutes: a time taken in one window does not compare
with one taken in another, and no median within a run filters out a slow
minute.  Two fixed computations, timed together between questions, track
that speed:
- lookups in a table far larger than the caches, each sample on the next
  stretch of a fixed random order of its keys, so that it does not depend
  on what the question before it left in the caches; they slow down under
  other tenants' memory traffic;
- the oracle deciding bisimilarity of two interleavings of three 4-step
  action chains (125 states), from a fresh `Oracle`: pure Python that
  builds and hashes small tuples and sets, as opensos does.
A sample's slowness is the geometric mean of the two times over their
nominal ones.  Of the references tried (also a small loop and hashing nested
tuples), the lookups corrected ci-advise best and the oracle open-games;
together they did well on both.  Over ten runs on seeds 1 to 10, `wall_s`
spread (quartile distance over median) by 0.04 on open-games and 0.06 on
ci-advise, where the measured times spread by 0.13 and 0.22.

A question's corrected time is its measured time over the median slowness
of the samples taken within WINDOW_S of it: the time it would have taken on
a machine where both computations take their nominal time.
"""
from __future__ import annotations

import bisect
import gc
import math
import random
import statistics
import time
from pathlib import Path

import oracle as ref
from opensos import specio

CHAINS = Path(__file__).resolve().parent / "specs" / "chains.sos"
TABLE = 400_000  # entries, far more than the caches hold
LOOKUPS = 8_000
LOOKUPS_NOMINAL_S = 0.005
CHAIN = 4
ORACLE_NOMINAL_S = 0.008
INTERVAL_S = 0.2  # at most one sample per interval: some 6% of a run
WINDOW_S = 1.5


def _chains(ops: tuple[str, ...]):
    """The interleaving of `CHAIN`-step chains of each op, as a pattern."""
    parts = []
    for op in ops:
        t = ("nil", ())
        for _ in range(CHAIN):
            t = (op, (t,))
        parts.append(t)
    return parts


class Speed:
    def __init__(self):
        self.table = {(i, i * 7 % 1013): i for i in range(TABLE)}
        order = list(self.table)
        random.Random(0).shuffle(order)
        self.stretches = [order[i:i + LOOKUPS] for i in range(0, TABLE, LOOKUPS)]
        tss = specio.parse(CHAINS.read_text()).tss("Chains")
        self.spec = (tss.all_signature.as_dict(), tss.all_labels, tss.all_rules)
        a, b, c = _chains(("pa", "pb", "pc"))
        self.pair = (("par", (("par", (a, b)), c)), ("par", (a, ("par", (b, c)))))
        self.starts: list[float] = []
        self.slowness: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        """Time both reference computations once."""
        table = self.table
        keys = self.stretches[len(self.starts) % len(self.stretches)]
        enabled = gc.isenabled()
        gc.disable()  # the collector's cost depends on the program's heap
        try:
            start = time.perf_counter()
            acc = 0
            for key in keys:
                acc += table[key]
            middle = time.perf_counter()
            orc = ref.Oracle(*self.spec)
            orc.bisimilar(*(orc.intern(t) for t in self.pair))
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.slowness.append(math.sqrt((middle - start) / LOOKUPS_NOMINAL_S
                                       * (end - middle) / ORACLE_NOMINAL_S))
        self.last = end

    def tick(self) -> None:
        """Sample unless the last sample is less than INTERVAL_S old."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def correct(self, seconds: float, start: float) -> float:
        """`seconds` measured from `start`, at the nominal speed."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, start + seconds + WINDOW_S)
        near = self.slowness[lo:hi]
        if not near:  # none that close: the nearest one
            near = self.slowness[min(lo, len(self.slowness) - 1):][:1]
        return seconds / statistics.median(near)
