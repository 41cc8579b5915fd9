"""Arithmetic behind the benchmark's figures: self time, percentiles, failures.

Kept free of calsbi and of any clock so the tests can pin every rule.
"""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)


def union_length(intervals, lo, hi):
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(starts, ends, parents):
    """Per span: its duration minus the part of it its child spans cover."""
    children = [[] for _ in starts]
    for i, p in enumerate(parents):
        if p is not None:
            children[p].append((starts[i], ends[i]))
    return [(ends[i] - starts[i])
            - union_length(children[i], starts[i], ends[i])
            for i in range(len(starts))]


def _rank(n, q):
    """1-based nearest rank of the q-th percentile (rounded so 99.9% of
    10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def samples_beyond(n, q):
    """Samples above the nearest-rank q-th percentile of n samples."""
    return n - _rank(n, q)


def percentile(values, q):
    """Nearest-rank q-th percentile, or None when fewer than TAIL_SAMPLES
    samples lie beyond it (the median needs only one sample)."""
    n = len(values)
    if n == 0 or (q > 50.0 and samples_beyond(n, q) < TAIL_SAMPLES):
        return None
    return sorted(values)[_rank(n, q) - 1]


def highest_percentile(n):
    """The highest ladder percentile that n samples can report, or None."""
    best = None
    for q in PERCENTILE_LADDER:
        if n >= 1 and (q <= 50.0 or samples_beyond(n, q) >= TAIL_SAMPLES):
            best = q
    return best


def median(values):
    return statistics.median(values) if values else None


class Tally:
    """Operations attempted and failed, grouped in units (one job each).

    A failed check fails every operation of the units it covers; a unit that
    fails several checks still counts its operations once.
    """

    def __init__(self):
        self.ops = {}
        self.bad = set()
        self.problems = []

    def add(self, unit, operations):
        if operations < 0:
            raise ValueError("operations must be >= 0")
        self.ops[unit] = self.ops.get(unit, 0) + operations

    def fail(self, unit, what):
        if unit not in self.ops:
            raise KeyError(f"unknown unit {unit!r}")
        self.bad.add(unit)
        self.problems.append(f"{unit}: {what}")

    def check(self, ok, units, what):
        """Fail every unit in `units` unless `ok`; returns ok."""
        if not ok:
            for unit in units:
                self.fail(unit, what)
        return ok

    @property
    def attempted(self):
        return sum(self.ops.values())

    @property
    def failed(self):
        return sum(self.ops[u] for u in self.bad)

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self):
        return self.attempted > 0 and not self.bad
