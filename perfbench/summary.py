"""Pure statistics over timings and spans; no fewstep or NumPy import."""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple, Optional, Sequence

# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class Span(NamedTuple):
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    call: int


def tail_percentile(samples: Sequence[float], q: float) -> Optional[tuple[float, int]]:
    """Nearest-rank ``q``-th percentile and the count of samples beyond it.

    Returns ``None`` when fewer than ``MIN_BEYOND`` samples lie beyond it.
    """
    n = len(samples)
    rank = math.ceil(q / 100.0 * n)
    beyond = n - rank
    if rank < 1 or beyond < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1], beyond


def pass_time(timed: Sequence[tuple[int, float]]) -> float:
    """Time of one pass through a workload's configs: the sum, over the
    configs in ``timed`` (pairs of config index and call duration), of each
    config's median call time.

    Call times differ by config, so the median of all calls lands between
    clusters and jumps between runs; the median per config does not.
    """
    by_config: dict[int, list[float]] = {}
    for index, duration in timed:
        by_config.setdefault(index, []).append(duration)
    return sum(statistics.median(durations) for durations in by_config.values())


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    # Length of the union of intervals, clipped to [start, end].
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(s.start, s.end, children.get(s.id, []))
        for s in spans
    }


class CallBreakdown(NamedTuple):
    total: float
    layer_self: dict[str, float]
    name_self: dict[str, float]
    unattributed: float


def breakdown(spans: Sequence[Span]) -> CallBreakdown:
    """Split one root span's time into per-layer and per-name self times.

    The root is the single span without a parent. Its own self time is the
    time no other span covers: it counts toward its layer and is also
    returned as ``unattributed``. Layer self times sum to the root duration.
    """
    roots = [s for s in spans if s.parent is None]
    if len(roots) != 1:
        raise ValueError(f"expected exactly one root span, got {len(roots)}")
    root = roots[0]
    own = self_times(spans)
    layer_self: dict[str, float] = {}
    name_self: dict[str, float] = {}
    for s in spans:
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + own[s.id]
        name_self[s.name] = name_self.get(s.name, 0.0) + own[s.id]
    return CallBreakdown(root.end - root.start, layer_self, name_self, own[root.id])
