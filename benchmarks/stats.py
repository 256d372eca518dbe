"""Arithmetic the benchmark reports: percentiles, span self time, error rate.

Kept free of numpy and relfine so the tests in this directory exercise it
directly and the orchestrator can import it before any workload starts.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; fewer make it a statement about single outliers.
MIN_BEYOND = 10

TAIL_CANDIDATES = (99.9, 99.0, 90.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """The q-th percentile (0-100) with linear interpolation between ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(samples: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the q-th percentile."""
    cut = percentile(samples, q)
    return sum(1 for s in samples if s > cut)


def tail_percentile(
    samples: Sequence[float],
    candidates: Iterable[float] = TAIL_CANDIDATES,
    min_beyond: int = MIN_BEYOND,
) -> tuple[float, float, int] | None:
    """The highest candidate percentile with at least `min_beyond` samples
    beyond it, as (q, value, samples beyond); None when no candidate has."""
    for q in sorted(candidates, reverse=True):
        beyond = samples_beyond(samples, q)
        if beyond >= min_beyond:
            return q, percentile(samples, q), beyond
    return None


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass(frozen=True)
class Span:
    id: str
    parent: str | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> tuple[dict[str, float], float]:
    """Each span's self time, and the time counted twice by parallel children.

    A span's self time is its duration minus the part of its interval that
    its children cover (children clipped to the parent). Children that run
    at once in several processes cover the same wall time more than once;
    that excess is the overlap, so sum(self) == root duration + overlap for
    a tree whose children lie inside their parents.
    """
    children: dict[str, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[str, float] = {}
    overlap = 0.0
    for span in spans:
        clipped = [
            (max(c.start, span.start), min(c.end, span.end)) for c in children.get(span.id, ())
        ]
        covered = union_length(clipped)
        overlap += sum(max(0.0, end - start) for start, end in clipped) - covered
        out[span.id] = span.duration - covered
    return out, overlap


@dataclass
class Tally:
    """Operations attempted and failed; an output failing a check is a failure."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


Outcome = tuple[bool, "str | None"]  # (ran without error, digest of its outputs)


def tally_operations(
    passes: Sequence[Mapping[str, Outcome]],
    checked: Mapping[str, bool],
    setup_checks: Iterable[bool] = (),
) -> Tally:
    """Count every operation of every pass, plus the checks run during set-up.

    An operation fails when it raised or exited non-zero, left no output,
    left output differing from the same operation in the first pass, or its
    output failed the reference check (then it fails in every pass, since
    all passes must agree byte for byte).
    """
    tally = Tally()
    for ok in setup_checks:
        tally.record(ok)
    first = passes[0]
    for ops in passes:
        for op, (ran, out_digest) in ops.items():
            tally.record(ran and out_digest is not None and out_digest == first[op][1] and checked[op])
    return tally


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
