"""Arithmetic on arcs of a circle.

Arcs are (start, length) pairs on a circle of a given period. This module
flattens them into half-open linear segments and measures overlaps, which is
all that exact (non-Monte-Carlo) integration of piecewise-constant functions
of a uniform angle requires: arc_overlaps, the one such integral, gives the
exact joint table of `disks.joint_pmf_from_splits` and the single-arc oracle
in `scan`.
"""

from __future__ import annotations

from .domain import wrap_angle

Segment = tuple[float, float]


def _unroll_arc(start: float, length: float, period: float) -> list[Segment]:
    """Split the arc [start, start + length) into linear segments in [0, period).

    The start may be any finite value (wrap_angle reduces it mod period) and
    the arc may wrap through the period boundary, in which case two segments
    come back. A zero-length arc unrolls to nothing.
    """
    if not 0.0 <= length <= period:
        raise ValueError(f"arc length {length!r} outside [0, {period!r}]")
    lo = wrap_angle(start, period)
    if length == 0.0:
        return []
    hi = lo + length
    if hi <= period:
        return [(lo, hi)]
    return [(lo, period), (0.0, hi - period)]


def _overlap_length(a: list[Segment], b: list[Segment]) -> float:
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


def arc_overlaps(arcs_a: list[tuple], arcs_b: list[tuple], period: float) -> dict:
    """{(label_a, label_b): measure of the angles that arcs of both labels hold}.

    Each list holds disjoint (start, length, label) arcs. Every label pair of
    the two lists gets a key, 0.0 if its arcs never meet, summed arc pair by
    arc pair in list order; a label that one list lacks gets none."""
    segs_b = [(label, _unroll_arc(start, length, period)) for start, length, label in arcs_b]
    acc: dict = {}
    for start, length, label_a in arcs_a:
        segs_a = _unroll_arc(start, length, period)
        for label_b, sb in segs_b:
            key = (label_a, label_b)
            acc[key] = acc.get(key, 0.0) + _overlap_length(segs_a, sb)
    return acc
