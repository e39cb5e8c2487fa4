"""The exact tables go through intervals.arc_overlaps and keep every float.

The references below are verbatim copies of the loops arc_overlaps replaced:
optics.detection_windows, scan._station_segments and scan._overlap_matrix
for the zero-noise oracle, and the per-sector loops of
disks.joint_pmf_from_splits and DiskPreparation.implied_pmf. Every value is
compared bit for bit, never approximately.
"""

import math

import numpy as np
import pytest

from eprblab import (
    TWO_PI,
    AssumeFixed,
    BothKnown,
    JointPmf,
    NoCoincidencesError,
    SingletKind,
    SplitDisk,
    SplitSector,
    analytic_coincidence_fraction,
    analytic_correlation,
    build_bell_special,
    build_param_disks,
    build_singlet_disk,
    joint_pmf_from_splits,
    split_disk,
)
from eprblab.intervals import _overlap_length, _unroll_arc

_OUTCOMES = (-1, 1)


def detection_windows(threshold):
    if not 0.5 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold!r} outside [0.5, 1]")
    w = math.acos(math.sqrt(threshold))
    return (math.pi - w, 2.0 * w), (0.5 * math.pi - w, 2.0 * w)


def _station_segments(threshold, shift):
    (p_start, p_len), (m_start, m_len) = detection_windows(threshold)
    plus = _unroll_arc(p_start + shift, p_len, math.pi)
    minus = _unroll_arc(m_start + shift, m_len, math.pi)
    return plus, minus


def _overlap_matrix(theta, t_a, t_b):
    a_plus, a_minus = _station_segments(t_a, 0.0)
    b_minus, b_plus = _station_segments(t_b, theta)
    return {
        (1, 1): _overlap_length(a_plus, b_plus),
        (1, -1): _overlap_length(a_plus, b_minus),
        (-1, 1): _overlap_length(a_minus, b_plus),
        (-1, -1): _overlap_length(a_minus, b_minus),
    }


def reference_correlation(theta, t_a, t_b):
    m = _overlap_matrix(theta, t_a, t_b)
    total = math.fsum(m.values())
    if total == 0.0:
        raise NoCoincidencesError("detection windows never coincide")
    return (m[(1, 1)] + m[(-1, -1)] - m[(1, -1)] - m[(-1, 1)]) / total


def reference_coincidence_fraction(theta, t_a, t_b):
    return math.fsum(_overlap_matrix(theta, t_a, t_b).values()) / math.pi


def reference_joint_pmf_from_splits(disk_a, disk_b):
    acc = {(oa, ob): 0.0 for oa in _OUTCOMES for ob in _OUTCOMES}
    segs_b = [(s.outcome, _unroll_arc(s.start, s.length, TWO_PI)) for s in disk_b.sectors]
    for sa in disk_a.sectors:
        segs_a = _unroll_arc(sa.start, sa.length, TWO_PI)
        for ob, sb in segs_b:
            acc[(sa.outcome, ob)] += _overlap_length(segs_a, sb)
    return JointPmf(
        acc[(1, 1)] / TWO_PI,
        acc[(1, -1)] / TWO_PI,
        acc[(-1, 1)] / TWO_PI,
        acc[(-1, -1)] / TWO_PI,
    )


def reference_implied_pmf(disk):
    acc = {(a, b): 0.0 for a in _OUTCOMES for b in _OUTCOMES}
    for s in disk.sectors:
        acc[(s.outcome_a, s.outcome_b)] += s.length
    return JointPmf(
        acc[(1, 1)] / TWO_PI,
        acc[(1, -1)] / TWO_PI,
        acc[(-1, 1)] / TWO_PI,
        acc[(-1, -1)] / TWO_PI,
    )


def _outcome(f, *args):
    """f(*args) as float.hex, or the type of the exception it raises."""
    try:
        return f(*args).hex()
    except (ValueError, NoCoincidencesError) as exc:
        return type(exc)


def _bits(pmf):
    return [p.hex() for p in pmf.as_tuple()]


def _same_joint(disks):
    return _bits(joint_pmf_from_splits(*disks)) == _bits(reference_joint_pmf_from_splits(*disks))


THETAS = [float(x) for x in np.linspace(-7.0, 7.0, 141)]
THRESHOLDS = [0.5, 0.75, 0.92, 1.0, *np.random.default_rng(15).uniform(0.5, 1.0, 4).tolist()]


@pytest.mark.parametrize("t_a", THRESHOLDS)
def test_oracle_equals_the_old_window_loop_bit_for_bit(t_a):
    for t_b in THRESHOLDS:
        for theta in THETAS:
            for new, old in (
                (analytic_correlation, reference_correlation),
                (analytic_coincidence_fraction, reference_coincidence_fraction),
            ):
                got, want = _outcome(new, theta, t_a, t_b), _outcome(old, theta, t_a, t_b)
                assert got == want, (new.__name__, theta, t_a, t_b)


def test_oracle_refuses_only_thresholds_outside_the_unit_interval():
    for t in (-0.1, 1.0001, math.nan):
        assert _outcome(analytic_correlation, 0.1, t, 0.75) is ValueError
        assert _outcome(analytic_correlation, 0.1, 0.75, t) is ValueError
    # Both thresholds at 1 leave zero-width windows: no coincidence at all.
    assert _outcome(reference_correlation, 0.0, 1.0, 1.0) is NoCoincidencesError
    assert _outcome(analytic_correlation, 0.0, 1.0, 1.0) is NoCoincidencesError
    # At T = 0 both channels fire everywhere: every trial is a double.
    assert _outcome(analytic_correlation, 0.0, 0.0, 0.75) is NoCoincidencesError
    # The old windows refused every T below 0.5; the oracle answers there.
    for t in (0.3, 0.4999):
        assert isinstance(_outcome(analytic_correlation, 0.1, t, 0.75), str)
        assert isinstance(_outcome(analytic_correlation, 0.1, 0.75, t), str)
    # At T = 0.25 a single arc is pi/2 - acos(0.5) = pi/6 to each side of a
    # channel's center: 2/3 of the circle, all of which B at 0.5 meets.
    for theta in THETAS:
        assert analytic_coincidence_fraction(theta, 0.25, 0.5) == pytest.approx(2 / 3, abs=1e-12)


def test_special_joint_table_equals_the_old_sector_loop_bit_for_bit():
    for alpha in np.linspace(-4.0, 4.0, 401).tolist():
        assert _same_joint(build_bell_special(alpha)), alpha


@pytest.mark.parametrize("kind", list(SingletKind))
def test_singlet_tables_equal_the_old_loops_bit_for_bit(kind):
    for theta in THETAS:
        disk = build_singlet_disk(theta, kind)
        assert _bits(disk.implied_pmf()) == _bits(reference_implied_pmf(disk))
        assert _same_joint(split_disk(disk)), theta
        # Disks built from a wrong guess of the remote setting do not line up.
        assert _same_joint(build_param_disks(theta, 0.3, AssumeFixed(1.1), BothKnown(), kind))


def _random_disk(rng, k):
    """A SplitDisk of k sectors at sorted random cuts, the last one wrapping.

    With k = 1, or when every outcome comes out equal, one label is missing."""
    cuts = np.sort(rng.uniform(0.0, TWO_PI, k)).tolist()
    ends = [*cuts[1:], cuts[0] + TWO_PI]
    outcomes = rng.choice([-1, 1], k).tolist()
    arcs = zip(cuts, ends, outcomes)
    return SplitDisk(tuple(SplitSector(s, min(e - s, TWO_PI), o) for s, e, o in arcs))


def test_many_sector_tables_equal_the_old_sector_loop_bit_for_bit():
    # Many arcs per label make each cell a long sum, whose order shows in its bits.
    rng = np.random.default_rng(1515)
    for k_a, k_b in [(1, 1), (2, 9), (7, 7), (13, 5)] * 50:
        assert _same_joint((_random_disk(rng, k_a), _random_disk(rng, k_b)))
