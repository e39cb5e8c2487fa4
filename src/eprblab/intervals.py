"""Arithmetic on arcs of a circle.

Arcs are (start, length) pairs on a circle of a given period. This module
flattens them into half-open linear segments and measures overlaps, which is
all that exact (non-Monte-Carlo) integration of piecewise-constant functions
of a uniform angle requires: sector tables in `disks` and detection windows
in `scan` both reduce to it.
"""

from __future__ import annotations

import math

Segment = tuple[float, float]


def unroll_arc(start: float, length: float, period: float) -> list[Segment]:
    """Split the arc [start, start + length) into linear segments in [0, period).

    The start may be any finite value (it is reduced mod period) and the arc
    may wrap through the period boundary, in which case two segments come
    back. A zero-length arc unrolls to nothing.
    """
    if not (math.isfinite(start) and math.isfinite(length)):
        raise ValueError(f"arc ({start!r}, {length!r}) must be finite")
    if not 0.0 <= length <= period:
        raise ValueError(f"arc length {length!r} outside [0, {period!r}]")
    if length == 0.0:
        return []
    lo = start % period
    if lo >= period:  # float modulo can round tiny negatives up to the period
        lo = 0.0
    hi = lo + length
    if hi <= period:
        return [(lo, hi)]
    return [(lo, period), (0.0, hi - period)]


def overlap_length(a: list[Segment], b: list[Segment]) -> float:
    """Total measure of the intersection of two segment lists.

    Each list must be internally disjoint (shared endpoints are fine); the
    result is then the measure of (union of a) ∩ (union of b).
    """
    total = 0.0
    for alo, ahi in a:
        for blo, bhi in b:
            lo = alo if alo > blo else blo
            hi = ahi if ahi < bhi else bhi
            if hi > lo:
                total += hi - lo
    return total

