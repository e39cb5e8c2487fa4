import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eprblab import (
    TWO_PI,
    CountTable,
    JointPmf,
    NoCoincidencesError,
    SingletKind,
    chsh,
    correlation,
    correlation_stderr,
    match_probability,
    qm_joint_prediction,
    wrap_angle,
)
from eprblab import domain
from eprblab.domain import MAX_ANGLE


# Reference copies of two helpers the library no longer exports.
def wrap_pi(x: float) -> float:
    """Reduce an angle into [0, pi); polarization quantities have period pi."""
    if not math.isfinite(x):
        raise ValueError(f"angle must be finite, got {x!r}")
    r = x % math.pi
    if r >= math.pi:
        r = 0.0
    return r


def qm_marginal_prediction(alpha: float, beta: float) -> float:
    """(+,+) probability when each station realizes only its own marginal.

    Both one-station marginals are 1/2 regardless of the settings alpha and
    beta, so the product is 1/4 for every setting pair. The arguments are
    kept to make the setting-independence explicit at call sites.
    """
    del alpha, beta
    return 0.25


angles = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
any_float = st.floats(allow_nan=False, allow_infinity=False)


# --- angle normalization ----------------------------------------------------

#: The two periods angles reduce by: 2*pi for angles, pi for polarizations.
PERIODS = (TWO_PI, math.pi)


@given(any_float)
def test_wrap_angle_range_and_idempotence(x):
    for period in PERIODS:
        w = wrap_angle(x, period)
        assert 0.0 <= w < period
        assert wrap_angle(w, period) == w
        # An array reduces each entry to the float result.
        assert wrap_angle(np.array([x, w]), period).tolist() == [w, w]


@given(any_float)
def test_wrap_pi_range_and_idempotence(x):
    w = wrap_pi(x)
    assert 0.0 <= w < math.pi
    assert wrap_pi(w) == w
    assert wrap_angle(x, math.pi) == w


def test_wrap_angle_tiny_negative_folds_to_zero():
    # x % 2*pi rounds up to exactly 2*pi here; the wrapper must fold it back.
    assert wrap_angle(-1e-300) == 0.0
    assert wrap_pi(-1e-300) == 0.0
    for period in PERIODS:
        edges = [0.0, -0.0, -5e-324, -1e-300, math.nextafter(period, 0.0), period,
                 MAX_ANGLE, -MAX_ANGLE]
        floats = [wrap_angle(x, period) for x in edges]
        assert floats[:4] == [0.0] * 4 and floats[4:6] == [math.nextafter(period, 0.0), 0.0]
        assert all(math.copysign(1.0, w) == 1.0 for w in floats)
        wrapped = wrap_angle(np.array(edges), period)
        assert wrapped.dtype == np.float64 and wrapped.tolist() == floats
        assert np.all((0.0 <= wrapped) & (wrapped < period))
        assert wrap_angle(wrapped, period).tolist() == floats


def test_wrap_rejects_nonfinite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            wrap_angle(bad)
        with pytest.raises(ValueError):
            wrap_pi(bad)
        for period in PERIODS:
            with pytest.raises(ValueError, match="finite"):
                wrap_angle(np.array([1.0, bad]), period)


# --- closed-form predictions ---------------------------------------------------

def test_qm_joint_examples():
    assert qm_joint_prediction(0.0, SingletKind.CORRELATED) == 0.5
    assert qm_joint_prediction(math.pi / 2, SingletKind.CORRELATED) == pytest.approx(0.0, abs=1e-30)
    assert qm_joint_prediction(math.pi / 4, SingletKind.ANTICORRELATED) == pytest.approx(0.25)


@given(angles)
def test_qm_joint_kinds_sum_to_half(theta):
    total = qm_joint_prediction(theta, SingletKind.CORRELATED) + qm_joint_prediction(
        theta, SingletKind.ANTICORRELATED
    )
    assert total == pytest.approx(0.5, abs=1e-15)


@given(angles, angles)
def test_qm_marginal_is_quarter_everywhere(alpha, beta):
    assert qm_marginal_prediction(alpha, beta) == 0.25


def test_joint_equals_marginal_only_at_half_cos_squared():
    # the settings where cos^2(theta) = 1/2
    for k in range(8):
        theta = math.pi / 4 + k * math.pi / 2
        assert qm_joint_prediction(theta, SingletKind.CORRELATED) == pytest.approx(
            qm_marginal_prediction(0.0, theta), abs=1e-12
        )
    # and nowhere else on an offset grid
    for theta in [0.0, 0.3, math.pi / 3, 1.2, 2.0, 3.0]:
        joint = qm_joint_prediction(theta, SingletKind.CORRELATED)
        assert abs(joint - 0.25) > 1e-3


# --- JointPmf -------------------------------------------------------------------

def test_pmf_validates():
    with pytest.raises(ValueError):
        JointPmf(0.5, 0.5, 0.1, -0.1)
    with pytest.raises(ValueError):
        JointPmf(0.3, 0.3, 0.3, 0.3)


def test_pmf_tv_distance():
    p = JointPmf(0.25, 0.25, 0.25, 0.25)
    q = JointPmf(0.0, 0.5, 0.5, 0.0)
    assert p.tv_distance(q) == pytest.approx(0.5)
    assert q.tv_distance(p) == p.tv_distance(q)
    assert p.tv_distance(p) == 0.0


# --- CountTable ------------------------------------------------------------------

def _table(n_pp, n_pm, n_mp, n_mm):
    n = n_pp + n_pm + n_mp + n_mm
    return CountTable(n_pp, n_pm, n_mp, n_mm, singles_a=n, singles_b=n, n_pairs=n)


def test_count_table_validates():
    with pytest.raises(ValueError):
        CountTable(1, 0, 0, 0, singles_a=0, singles_b=1)
    with pytest.raises(ValueError):
        CountTable(0, 0, 0, 0, singles_a=2, singles_b=2, misses_a=1, n_pairs=4)
    with pytest.raises(ValueError):
        CountTable(-1, 0, 0, 0, singles_a=5, singles_b=5)


def test_count_table_partial_tables_skip_pair_check():
    t = CountTable(3, 1, 1, 3, singles_a=10, singles_b=9)
    assert t.coincidences == 8


# --- correlation / match probability ----------------------------------------------

def test_correlation_examples():
    assert correlation(_table(1, 0, 0, 1)) == 1.0
    assert correlation(_table(0, 1, 1, 0)) == -1.0
    assert correlation(_table(25, 25, 25, 25)) == 0.0


def test_correlation_zero_coincidences_is_explicit_error():
    empty = CountTable(0, 0, 0, 0, singles_a=5, singles_b=5, misses_a=5, misses_b=5, n_pairs=10)
    with pytest.raises(NoCoincidencesError):
        correlation(empty)
    with pytest.raises(NoCoincidencesError):
        match_probability(empty)
    with pytest.raises(NoCoincidencesError):
        empty.to_pmf()


cells = st.integers(min_value=0, max_value=10_000)


@given(cells, cells, cells, cells, st.integers(min_value=1, max_value=1000))
def test_correlation_invariant_under_uniform_scaling(a, b, c, d, k):
    if a + b + c + d == 0:
        return
    assert correlation(_table(a, b, c, d)) == correlation(_table(k * a, k * b, k * c, k * d))


@given(cells, cells, cells, cells)
def test_match_probability_is_half_one_plus_e(a, b, c, d):
    if a + b + c + d == 0:
        return
    t = _table(a, b, c, d)
    assert match_probability(t) == pytest.approx((1.0 + correlation(t)) / 2.0, abs=1e-12)
    assert 0.0 <= match_probability(t) <= 1.0


def test_correlation_stderr():
    t = _table(50, 0, 0, 50)
    assert correlation_stderr(t) == 0.0
    t = _table(25, 25, 25, 25)
    assert correlation_stderr(t) == pytest.approx(0.1)


# --- chsh -------------------------------------------------------------------------

def test_chsh_examples():
    assert abs(chsh(-0.5, 0.5, -0.5, -0.5)) == pytest.approx(2.0)
    r = math.sqrt(2) / 2
    assert abs(chsh(-r, r, -r, -r)) == pytest.approx(2.0 * math.sqrt(2.0))
    assert abs(chsh(-1.0, 1.0, -1.0, -1.0)) == 4.0


def test_chsh_rejects_out_of_range():
    with pytest.raises(ValueError):
        chsh(1.5, 0.0, 0.0, 0.0)


es = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@given(es, es, es, es)
def test_chsh_bounded_by_four(e1, e2, e3, e4):
    assert abs(chsh(e1, e2, e3, e4)) <= 4.0 + 1e-12


# --- row blocks ----------------------------------------------------------------

def test_blocks_yields_its_slices_and_holds_no_list(monkeypatch):
    # 2**34 rows are 2**20 blocks: a list of their slices took 135 MB.
    tracemalloc.start()
    try:
        blocks = domain._blocks(2**34)
        first = list(itertools.islice(blocks, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024, peak
    rows = domain._BLOCK_ROWS
    assert first == [slice(k * rows, (k + 1) * rows) for k in range(3)]
    # The block size is read once, at the call: a later change leaves it be.
    blocks = domain._blocks(7)
    monkeypatch.setattr(domain, "_BLOCK_ROWS", 3)
    assert list(blocks) == [slice(0, 7)]
    assert list(domain._blocks(7)) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    assert list(domain._blocks(0)) == []
