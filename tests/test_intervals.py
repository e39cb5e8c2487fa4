import math

import pytest
from hypothesis import given, strategies as st

from eprblab.intervals import overlap_length, unroll_arc

PI = math.pi


def total_length(segments):
    """Summed length of a segment list (reference copy; the library no longer has it)."""
    return math.fsum(hi - lo for lo, hi in segments)


def test_unroll_plain_arc():
    assert unroll_arc(1.0, 0.5, PI) == [(1.0, 1.5)]


def test_unroll_wrapping_arc():
    segs = unroll_arc(3.0, 0.5, PI)
    assert segs == [(3.0, PI), (0.0, 3.5 - PI)]
    assert total_length(segs) == pytest.approx(0.5, abs=1e-15)


def test_unroll_zero_length():
    assert unroll_arc(1.0, 0.0, PI) == []


def test_unroll_negative_start_reduced():
    segs = unroll_arc(-0.25, 0.5, PI)
    assert total_length(segs) == pytest.approx(0.5, abs=1e-15)
    assert all(0.0 <= lo <= hi <= PI for lo, hi in segs)


def test_unroll_full_circle():
    assert total_length(unroll_arc(0.7, PI, PI)) == pytest.approx(PI, abs=1e-15)


def test_unroll_rejects_bad_length():
    with pytest.raises(ValueError):
        unroll_arc(0.0, -0.1, PI)
    with pytest.raises(ValueError):
        unroll_arc(0.0, PI + 0.1, PI)
    with pytest.raises(ValueError):
        unroll_arc(math.inf, 0.1, PI)


def test_overlap_simple():
    assert overlap_length([(0.0, 1.0)], [(0.5, 2.0)]) == pytest.approx(0.5)
    assert overlap_length([(0.0, 1.0)], [(1.0, 2.0)]) == 0.0
    assert overlap_length([], [(0.0, 1.0)]) == 0.0


arc = st.tuples(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=PI, allow_nan=False),
)


@given(arc, arc)
def test_overlap_symmetric_and_bounded(a, b):
    sa = unroll_arc(a[0], a[1], PI)
    sb = unroll_arc(b[0], b[1], PI)
    ov = overlap_length(sa, sb)
    assert ov == overlap_length(sb, sa)
    assert -1e-12 <= ov <= min(a[1], b[1]) + 1e-12


@given(arc, arc, st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_overlap_rotation_invariant(a, b, shift):
    # Rotating both arcs by the same amount cannot change their overlap.
    before = overlap_length(unroll_arc(a[0], a[1], PI), unroll_arc(b[0], b[1], PI))
    after = overlap_length(
        unroll_arc(a[0] + shift, a[1], PI), unroll_arc(b[0] + shift, b[1], PI)
    )
    assert after == pytest.approx(before, abs=1e-9)
