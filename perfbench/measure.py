"""Statistics shared by every workload: percentiles, the tail-percentile
rule, failed-op accounting and span self time.

Nothing here imports ``repro``; the functions are pure so the benchmark's
own tests can check them without running a workload.
"""

from __future__ import annotations

import bisect
import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: samples that must lie strictly above the reported tail percentile
TAIL_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank
    ``p``-th percentile's position."""
    return n - max(math.ceil(p / 100.0 * n), 1)


def tail_percentile(n: int) -> int:
    """The highest whole percentile that leaves at least
    :data:`TAIL_SAMPLES_BEYOND` of ``n`` samples beyond it."""
    for p in range(99, 49, -1):
        if samples_beyond(n, p) >= TAIL_SAMPLES_BEYOND:
            return p
    raise ValueError(f"{n} samples are too few for a tail percentile at "
                     f"or above the median")


#: median time of :func:`speed_kernel` on the machine the bounds were set
#: on (2 vCPU Xeon, Python 3.11); reported times are scaled to it
REFERENCE_KERNEL_S = 0.014


def speed_kernel() -> int:
    """A fixed pure-Python loop that touches no code under test."""
    total = 0
    for i in range(200_000):
        total += i * i
    return total


class SpeedProbe:
    """Samples how fast this host runs :func:`speed_kernel` right now.

    On a shared host the same work takes 20% more or less time from one
    minute, even one second, to the next.  Samples are taken between ops,
    never inside a timed one.  An op's time divided by the host's slowdown
    at that moment (:meth:`slowdown_at`) reads as on the reference host,
    so the host's drift does not hide a change to the program.
    """

    #: samples whose median gives the slowdown at one moment
    NEAREST = 5

    def __init__(self, every: float = 0.5):
        self.every = every
        #: perf_counter() at the middle of each sample, ascending
        self.times: List[float] = []
        self.samples: List[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        speed_kernel()
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= self.every:
            self.sample()

    def slowdown_at(self, t: float) -> float:
        """Median of the :data:`NEAREST` samples closest to ``t``, over
        :data:`REFERENCE_KERNEL_S`."""
        times = self.times
        lo = hi = bisect.bisect_left(times, t)
        while hi - lo < min(self.NEAREST, len(times)):
            if lo > 0 and (hi == len(times)
                           or t - times[lo - 1] <= times[hi] - t):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.samples[lo:hi]) / REFERENCE_KERNEL_S


@dataclass
class OpLog:
    """Duration and outcome of every measured op.

    A failed op (error, refusal, timeout or output mismatch) counts as
    missing every latency limit, so its latency is infinite.
    """

    #: seconds each op took, failed ones included
    seconds: List[float] = field(default_factory=list)
    #: perf_counter() at the middle of each op
    times: List[float] = field(default_factory=list)
    #: op index -> what went wrong
    failures: Dict[int, str] = field(default_factory=dict)
    #: sampled after each op, outside its timing
    probe: Optional[SpeedProbe] = None

    def record(self, seconds: float, problem: Optional[str] = None,
               at: Optional[float] = None) -> int:
        """Log one op that ended now (or had its middle at ``at``);
        returns its index for a later :meth:`fail`."""
        self.seconds.append(seconds)
        self.times.append(perf_counter() - seconds / 2 if at is None else at)
        index = len(self.seconds) - 1
        if problem is not None:
            self.fail(index, problem)
        if self.probe is not None:
            self.probe.maybe_sample()
        return index

    def fail(self, index: int, problem: str) -> None:
        """Mark a logged op failed (checks that need a whole pass, such as
        Table II loss/extra, run after the op was logged)."""
        self.failures.setdefault(index, problem)

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def latencies(self, probe: Optional[SpeedProbe] = None) -> List[float]:
        """Per-op latency, infinite for a failed op; with ``probe``, each
        divided by the host's slowdown at the op's time."""
        return [math.inf if i in self.failures
                else s if probe is None
                else s / probe.slowdown_at(t)
                for i, (s, t) in enumerate(zip(self.seconds, self.times))]

    def scale(self, start: int, end: int, probe: SpeedProbe) -> float:
        """How ops ``start:end`` shrink or grow at the reference speed."""
        raw = math.fsum(self.seconds[start:end])
        if not raw:
            return 1.0
        return math.fsum(s / probe.slowdown_at(t) for s, t in zip(
            self.seconds[start:end], self.times[start:end])) / raw


def finite(value: float) -> float:
    """JSON has no infinity: a percentile that lands on a failed op is
    reported as the largest float, which misses any latency limit."""
    return value if math.isfinite(value) else 1.7976931348623157e308


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(parent: Tuple[float, float],
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    start, end = parent
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - union_length((s, e) for s, e in clipped if e > s)
