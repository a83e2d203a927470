"""Arithmetic the benchmark reports with: percentiles, tails, self time.

Everything here is pure and deterministic so ``test_harness.py`` can pin it
down without running a workload.
"""

from __future__ import annotations

import math
import statistics

# Candidate percentiles for a tail figure, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
MIN_BEYOND_TAIL = 10


def _rank(n: int, p: float) -> int:
    # the tolerance keeps float error from pushing an exact rank up by one
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with ``p``% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``th percentile."""
    return n - _rank(n, p)


def tail_percentile(n: int, ladder=TAIL_LADDER, min_beyond: int = MIN_BEYOND_TAIL) -> float:
    """The highest ladder percentile that leaves ``min_beyond`` samples above it.

    The benchmark fixes one such percentile per workload from the sample
    count at the commit that defined it, so that later runs always report
    the same percentile; this function is how that choice was made.
    """
    chosen = None
    for p in ladder:
        if samples_beyond(n, p) >= min_beyond:
            chosen = p
    if chosen is None:
        raise ValueError(f"{n} samples leave fewer than {min_beyond} beyond every percentile")
    return chosen


def cycle_median(values, cycle_starts) -> float:
    """The mean, over a run's cycles, of each cycle's median.

    The machines this runs on switch between a fast and a slow speed every
    few seconds.  A single median over a run's samples then jumps between
    the two speeds as their mix shifts slightly; the mean of per-cycle
    medians moves in proportion to the mix, and each cycle's median still
    ignores that cycle's outliers.  ``cycle_starts`` holds the index of the
    first sample of each cycle; a cycle without samples is skipped.
    """
    bounds = list(cycle_starts) + [len(values)]
    medians = [statistics.median(values[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a]
    if not medians:
        raise ValueError("no samples in any cycle")
    return statistics.fmean(medians)


def open_loop_latencies(due, sent, done):
    """Latency from when each request was due, plus how late it was sent.

    Timing from the due time, not the send time, charges a stall to every
    request queued behind it, which a closed loop would hide.
    """
    if not len(due) == len(sent) == len(done):
        raise ValueError("due, sent and done must have one entry per request")
    latency = [d - t for t, d in zip(due, done)]
    lag = [s - t for t, s in zip(due, sent)]
    return latency, lag


def error_rate(attempted: int, failed: int) -> float:
    """Failed operations as a share of attempted ones; refusals count as failures."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} is outside 0..attempted={attempted}")
    return failed / attempted


def self_times(starts, ends, parents):
    """Each span's duration minus the part its direct children cover.

    Spans are given as parallel sequences; ``parents[i]`` is the index of
    span ``i``'s enclosing span, or -1.  Children of one span never overlap,
    because a span is opened and closed on one thread's call stack.
    """
    covered = [0] * len(starts)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    return [ends[i] - starts[i] - covered[i] for i in range(len(starts))]

