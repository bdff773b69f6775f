"""Sample statistics the benchmark reports, and the host pace they are
scaled by."""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class UnitResult:
    """What one unit did, what it produced, and what went wrong."""

    #: User bytes the unit moved (written plus read).
    bytes: int = 0
    #: Host seconds the operations took (input generation excluded).
    seconds: float = 0.0
    #: Windows of ops the unit timed itself, as (ops, bytes, paced host
    #: seconds); none for a unit timed as a whole at pace ``pace``.
    windows: list = field(default_factory=list)
    #: Pace factor of the host while the unit ran (see :class:`Pacer`).
    pace: float = 1.0
    #: Paced host seconds of each operation (volume_rw only).
    op_seconds: list = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    #: What the user sees, in parts that add up over units: ops and
    #: the simulated seconds they took, user and stored bytes, and the
    #: unit's mean and p99 latency in ms (only the bytes on volume_rw).
    outcome: dict = field(default_factory=dict)
    #: Sample count behind the unit's latency figures.
    samples: int = 0
    #: Report digests, in a fixed order (compared at the default seed).
    digests: list = field(default_factory=list)
    #: Program reports for the per-layer counts.
    reports: list = field(default_factory=list)
    tenancy: list = field(default_factory=list)
    volume: dict = field(default_factory=dict)
    #: Host latency per operation type, ms (volume_rw only).
    latencies: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)


#: Percentiles a tail figure may be reported at, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9)
#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(p: float, n: int) -> int:
    """1-based nearest-rank position of percentile ``p`` in ``n`` samples."""
    # Percentiles on the ladder have at most one decimal: scale to ints
    # so that ranks are exact (99.9 * 1000 / 100 is not 999.0 in floats).
    tenths = round(p * 10)
    return max(1, -(-tenths * n // 1000))


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with ``MIN_BEYOND`` samples beyond it."""
    best = None
    for p in LADDER:
        if n - nearest_rank(p, n) >= MIN_BEYOND:
            best = p
    return best


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[nearest_rank(p, len(ordered)) - 1]


def latency_summary(samples) -> dict:
    """Median and the highest supported tail percentile of ``samples``.

    ``tail_p`` is the percentile the ``tail`` value is at; with fewer
    samples than the ladder's 99th percentile needs, the tail is the
    highest percentile that still has ``MIN_BEYOND`` samples beyond it.
    """
    n = len(samples)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail_p": None, "tail": 0.0}
    tail_p = tail_percentile(n)
    return {"n": n, "p50": percentile(samples, 50.0), "tail_p": tail_p,
            "tail": percentile(samples, tail_p if tail_p else 100.0)}


def success_fraction(attempted: int, failed: int) -> float:
    """Share of attempted operations that succeeded."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return (attempted - failed) / attempted


def combine_outcomes(outcomes: list[dict]) -> dict:
    """Rate and ratio over the units' summed parts; mean percentiles."""
    total = {key: sum(o[key] for o in outcomes)
             for key in ("ops", "seconds", "user_bytes", "stored_bytes")}
    return {
        "kiops": total["ops"] / total["seconds"] / 1e3,
        "reduction_ratio": total["user_bytes"] / total["stored_bytes"],
        "mean_ms": statistics.fmean(o["mean_ms"] for o in outcomes),
        "p99_ms": statistics.fmean(o["p99_ms"] for o in outcomes),
    }


def host_outcome(units) -> dict:
    """Host-timed figures over every unit: the rate is the median over
    windows of ops, so one stalled window does not move it, and the p99
    pools every op of the run."""
    rate = statistics.median(ops / seconds for unit in units
                             for ops, _, seconds in unit.windows)
    latencies = [s for unit in units for s in unit.op_seconds]
    if len(latencies) - nearest_rank(99.0, len(latencies)) < MIN_BEYOND:
        raise ValueError(f"{len(latencies)} ops are too few for a p99")
    return {
        "kiops": rate / 1e3,
        "mean_ms": 1e3 / rate,
        "p99_ms": percentile(latencies, 99.0) * 1e3,
        "reduction_ratio":
            sum(u.outcome["user_bytes"] for u in units)
            / sum(u.outcome["stored_bytes"] for u in units),
    }


def host_rates(units) -> list[float]:
    """Paced host MB/s samples: one per window, or one per unit timed
    as a whole."""
    rates = []
    for unit in units:
        if unit.windows:
            rates.extend(size / seconds / 1e6
                         for _, size, seconds in unit.windows)
        elif unit.seconds > 0:
            rates.append(unit.bytes / (unit.seconds * unit.pace) / 1e6)
    return rates


def tally(units) -> tuple[int, int]:
    """Operations attempted and failed over a run's units."""
    return sum(u.ops for u in units), sum(u.failed for u in units)


# -- host pace ------------------------------------------------------------------
#
# The host is shared: for minutes at a time it runs the same Python code
# 20-30% slower or faster.  Host timings are therefore scaled to a
# reference pace.  The reference kernel below is timed between stretches
# of measured work, each under a second long; a stretch's seconds are
# multiplied by REFERENCE_SECONDS over the kernel's mean time just
# before and after it.  The kernel is interpreter-bound work in the
# program's own style and uses nothing from the program, so a change to
# the program moves the scaled figures and a change in the host's speed
# cancels out.


class _Job:
    __slots__ = ("key", "left", "log")

    def __init__(self, key: int, left: int):
        self.key = key
        self.left = left
        self.log: list[int] = []


def _job_body(job: _Job, table: dict):
    while job.left:
        job.left -= 1
        slot = (job.key * 2654435761 + job.left) & 1023
        table[slot] = table.get(slot, 0) + 1
        job.log.append(slot)
        yield slot & 7


def _event_loop(jobs: int = 200, steps: int = 40) -> int:
    """Generators resumed from a heap-ordered event loop."""
    table: dict[int, int] = {}
    heap = []
    for key in range(jobs):
        heapq.heappush(heap, (0, key, _job_body(_Job(key, steps), table)))
    total = 0
    while heap:
        when, key, body = heapq.heappop(heap)
        try:
            delay = next(body)
        except StopIteration:
            continue
        total += delay
        heapq.heappush(heap, (when + delay + 1, key, body))
    return total + len(table)


def _arithmetic(n: int = 60000) -> int:
    """A tight loop of small-int arithmetic."""
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def _objects(n: int = 6000) -> int:
    """Small objects made, grouped in dicts of lists, sorted by key."""
    groups: dict[int, list] = {}
    for i in range(n):
        groups.setdefault(i & 63, []).append(_Job(i, i * 3))
    return sum(max(group, key=lambda job: job.left).key
               for group in groups.values())


_MATCH_INPUT = bytes((i * 7919 >> 3) & 255 for i in range(12000))


def _byte_matching(data: bytes = _MATCH_INPUT) -> int:
    """An LZ-style scan: a dict of 3-byte prefixes over a byte string."""
    table: dict[int, int] = {}
    hits = 0
    for i in range(len(data) - 3):
        key = data[i] | data[i + 1] << 8 | data[i + 2] << 16
        previous = table.get(key)
        if previous is not None and i - previous < 4096:
            hits += 1
        table[key] = i
    return hits


def reference_kernel() -> int:
    """Interpreter-bound work of four kinds the program does: an event
    loop of generators, integer arithmetic, small objects in dicts and
    lists, and an LZ-style byte scan.  About 20 ms on a 2-core x86-64
    container.  Each kind reacts a little differently to a busy host;
    together they track the program's workloads better than any one."""
    return _event_loop() + _arithmetic() + _objects() + _byte_matching()


#: Seconds the reference kernel is scaled to: paced host figures read as
#: on a host that runs the kernel in exactly this time.
REFERENCE_SECONDS = 0.02


class Pacer:
    """Reference-kernel timings taken between stretches of measured work."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def mark(self) -> int:
        """Time the kernel once; return the sample's index.  The cyclic
        garbage collector is off meanwhile, so that the program's heap
        does not slow the kernel down."""
        gc.disable()
        try:
            started = time.perf_counter()
            reference_kernel()
            self.samples.append(time.perf_counter() - started)
        finally:
            gc.enable()
        return len(self.samples) - 1

    def factor(self, before: int, after: int) -> float:
        """Multiplier for host seconds measured between two marks."""
        return 2 * REFERENCE_SECONDS / (self.samples[before]
                                        + self.samples[after])
