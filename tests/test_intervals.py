import math

import pytest
from hypothesis import given, strategies as st

from eprblab.intervals import _overlap_length, _unroll_arc, arc_overlaps

PI = math.pi


def total_length(segments):
    """Summed length of a segment list (reference copy; the library no longer has it)."""
    return math.fsum(hi - lo for lo, hi in segments)


def test_unroll_plain_arc():
    assert _unroll_arc(1.0, 0.5, PI) == [(1.0, 1.5)]


def test_unroll_wrapping_arc():
    segs = _unroll_arc(3.0, 0.5, PI)
    assert segs == [(3.0, PI), (0.0, 3.5 - PI)]
    assert total_length(segs) == pytest.approx(0.5, abs=1e-15)


def test_unroll_zero_length():
    assert _unroll_arc(1.0, 0.0, PI) == []


def test_unroll_negative_start_reduced():
    segs = _unroll_arc(-0.25, 0.5, PI)
    assert total_length(segs) == pytest.approx(0.5, abs=1e-15)
    assert all(0.0 <= lo <= hi <= PI for lo, hi in segs)


def test_unroll_full_circle():
    assert total_length(_unroll_arc(0.7, PI, PI)) == pytest.approx(PI, abs=1e-15)


def test_unroll_rejects_bad_length():
    with pytest.raises(ValueError):
        _unroll_arc(0.0, -0.1, PI)
    with pytest.raises(ValueError):
        _unroll_arc(0.0, PI + 0.1, PI)
    with pytest.raises(ValueError):
        _unroll_arc(math.inf, 0.1, PI)


def test_overlap_simple():
    assert _overlap_length([(0.0, 1.0)], [(0.5, 2.0)]) == pytest.approx(0.5)
    assert _overlap_length([(0.0, 1.0)], [(1.0, 2.0)]) == 0.0
    assert _overlap_length([], [(0.0, 1.0)]) == 0.0


arc = st.tuples(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=PI, allow_nan=False),
)


@given(arc, arc)
def test_overlap_symmetric_and_bounded(a, b):
    sa = _unroll_arc(a[0], a[1], PI)
    sb = _unroll_arc(b[0], b[1], PI)
    ov = _overlap_length(sa, sb)
    assert ov == _overlap_length(sb, sa)
    assert -1e-12 <= ov <= min(a[1], b[1]) + 1e-12


@given(arc, arc, st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_overlap_rotation_invariant(a, b, shift):
    # Rotating both arcs by the same amount cannot change their overlap.
    before = _overlap_length(_unroll_arc(a[0], a[1], PI), _unroll_arc(b[0], b[1], PI))
    after = _overlap_length(
        _unroll_arc(a[0] + shift, a[1], PI), _unroll_arc(b[0] + shift, b[1], PI)
    )
    assert after == pytest.approx(before, abs=1e-9)


def test_arc_overlaps_wraps_on_period_pi():
    # A's plus arc wraps through pi; B's arcs sit on either side of the wrap.
    a = [(3.0, 0.5, "+"), (1.0, 0.5, "-")]
    b = [(0.0, 0.5, "x"), (3.1, 0.01, "y")]
    got = arc_overlaps(a, b, PI)
    assert got[("+", "x")] == _overlap_length(_unroll_arc(3.0, 0.5, PI), [(0.0, 0.5)])
    assert got[("+", "x")] == pytest.approx(3.5 - PI, abs=1e-15)
    assert got[("+", "y")] == pytest.approx(0.01, abs=1e-15)


def test_arc_overlaps_keys_every_label_pair_and_only_those():
    a = [(0.0, 1.0, 1), (1.0, 1.0, -1)]
    b = [(0.5, 0.25, 1)]
    # -1 and 1 never meet: 0.0, not a missing key. B has no -1: no such key.
    assert arc_overlaps(a, b, PI) == {(1, 1): 0.25, (-1, 1): 0.0}
    assert arc_overlaps(a, [], PI) == {}


def test_arc_overlaps_adds_arcs_of_one_label_in_order():
    # Two arcs labeled 1 on each side: the key sums the four arc overlaps.
    a = [(0.0, 1.0, 1), (2.0, 1.0, 1)]
    b = [(0.5, 2.0, 1), (2.75, 0.25, 1)]
    assert arc_overlaps(a, b, PI) == {(1, 1): ((0.0 + 0.5) + 0.5) + 0.25}
