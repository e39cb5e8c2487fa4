import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from eprblab import (
    TWO_PI,
    FixedBasisSource,
    IsotropicSource,
    StationConfig,
    detect_many,
    detection_windows,
    emit_phis,
    malus_intensities,
    measure_many,
    singles_probability,
)
from eprblab.optics import DOUBLE_CODE, MINUS_CODE, MISS_CODE, PLUS_CODE

angles = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def _rng(seed=0):
    return np.random.default_rng(seed)


def detect_one(intensities, cfg, rng) -> int:
    """detect_many on a one-trial array: the station's outcome code."""
    i_plus, i_minus = intensities
    return int(detect_many(np.array([i_plus]), np.array([i_minus]), cfg, rng)[0])


# --- Malus fractions -----------------------------------------------------------

def test_malus_examples():
    assert malus_intensities(0.0, 0.0) == (1.0, 0.0)
    assert malus_intensities(math.pi / 4, 0.0) == pytest.approx((0.5, 0.5), abs=1e-15)
    assert malus_intensities(math.pi / 6, 0.0) == pytest.approx((0.75, 0.25), abs=1e-15)


def test_malus_tie_is_exact():
    # The bisecting geometry must land on exactly (0.5, 0.5) so the >= rule
    # can register the tie as a double.
    for phi in (0.0, math.pi / 2):
        i_plus, i_minus = malus_intensities(phi, math.pi / 4)
        assert i_plus == 0.5 and i_minus == 0.5


@given(angles, angles)
def test_malus_energy_conservation_exact(phi, analyzer):
    i_plus, i_minus = malus_intensities(phi, analyzer)
    assert i_plus + i_minus == 1.0
    assert -1e-16 <= i_plus <= 1.0 + 1e-16


def test_malus_vectorized():
    phis = np.array([0.0, math.pi / 4, math.pi / 2])
    i_plus, i_minus = malus_intensities(phis, 0.0)
    assert i_plus == pytest.approx([1.0, 0.5, 0.0], abs=1e-15)
    assert np.all(i_plus + i_minus == 1.0)


# --- detection ------------------------------------------------------------------

def test_detect_examples():
    cfg = StationConfig(angle=0.0, threshold=0.5)
    assert detect_one((1.0, 0.0), cfg, _rng()) == PLUS_CODE
    assert detect_one((0.5, 0.5), StationConfig(angle=0.0, threshold=0.75), _rng()) == MISS_CODE
    assert detect_one((0.5, 0.5), StationConfig(angle=0.0, threshold=0.4), _rng()) == DOUBLE_CODE


def test_detect_tie_rule_is_double():
    cfg = StationConfig(angle=0.0, threshold=0.5)
    assert detect_one((0.5, 0.5), cfg, _rng()) == DOUBLE_CODE


@given(
    angles,
    st.floats(min_value=0.5, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
)
def test_threshold_monotonicity(phi, t_low, dt):
    # Raising the threshold can only un-fire channels: a miss stays a miss.
    t_high = min(1.0, t_low + dt)
    i = malus_intensities(phi, 0.3)
    low = detect_one(i, StationConfig(angle=0.3, threshold=t_low), _rng())
    high = detect_one(i, StationConfig(angle=0.3, threshold=t_high), _rng())
    fired = {MISS_CODE: 0, PLUS_CODE: 1, MINUS_CODE: 1, DOUBLE_CODE: 2}
    assert fired[high] <= fired[low]
    if low == MISS_CODE:
        assert high == MISS_CODE


def test_half_threshold_never_misses():
    cfg = StationConfig(angle=0.4, threshold=0.5)
    phis = _rng(3).uniform(0.0, TWO_PI, 50_000)
    i_plus, i_minus = malus_intensities(phis, cfg.angle)
    codes = detect_many(i_plus, i_minus, cfg, _rng(4))
    assert np.count_nonzero(codes == MISS_CODE) == 0


def test_b_miss_fraction_one_third_at_three_quarters():
    # Deterministic grid version of the closed form 1 - 4*acos(sqrt(T))/pi.
    n = 200_000
    phis = (np.arange(n) + 0.5) * (TWO_PI / n)
    cfg = StationConfig(angle=0.0, threshold=0.75)
    i_plus, i_minus = malus_intensities(phis + math.pi / 2, cfg.angle)
    codes = detect_many(i_plus, i_minus, cfg, _rng())
    assert np.mean(codes == MISS_CODE) == pytest.approx(1.0 / 3.0, abs=2e-3)


def test_singles_probability_closed_form_matches_grid():
    n = 200_000
    phis = (np.arange(n) + 0.5) * (TWO_PI / n)
    for t in (0.5, 0.6, 0.75, 0.92):
        cfg = StationConfig(angle=0.0, threshold=t)
        i_plus, i_minus = malus_intensities(phis, cfg.angle)
        codes = detect_many(i_plus, i_minus, cfg, _rng())
        singles = np.mean((codes == PLUS_CODE) | (codes == MINUS_CODE))
        assert singles == pytest.approx(singles_probability(t), abs=1e-3)


def test_singles_probability_rejects_low_thresholds():
    with pytest.raises(ValueError):
        singles_probability(0.4)
    with pytest.raises(ValueError):
        detection_windows(0.3)


def test_detection_windows_cover_singles_probability():
    for t in (0.5, 0.75, 0.92):
        (_, lp), (_, lm) = detection_windows(t)
        assert (lp + lm) / math.pi == pytest.approx(singles_probability(t), abs=1e-15)


def test_noise_splits_the_tie():
    # On the exact (0.5, 0.5) tie each channel clears threshold with
    # probability 1/2 independently: double rate tends to 1/4.
    cfg = StationConfig(angle=0.0, threshold=0.5, noise_sigma=0.05)
    n = 40_000
    codes = detect_many(np.full(n, 0.5), np.full(n, 0.5), cfg, _rng(5))
    assert np.mean(codes == DOUBLE_CODE) == pytest.approx(0.25, abs=0.01)
    assert np.mean(codes == MISS_CODE) == pytest.approx(0.25, abs=0.01)


def test_efficiency_thins_to_misses():
    cfg = StationConfig(angle=0.0, threshold=0.5, efficiency=0.5)
    phis = _rng(6).uniform(0.0, TWO_PI, 100_000)
    i_plus, i_minus = malus_intensities(phis, 0.0)
    codes = detect_many(i_plus, i_minus, cfg, _rng(7))
    kept = np.mean(codes != MISS_CODE)
    assert kept == pytest.approx(0.5, abs=0.006)


def test_station_config_validation():
    with pytest.raises(ValueError):
        StationConfig(angle=0.0, threshold=1.5)
    with pytest.raises(ValueError):
        StationConfig(angle=0.0, noise_sigma=-0.1)
    with pytest.raises(ValueError):
        StationConfig(angle=0.0, efficiency=0.0)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="angle"):
            StationConfig(angle=value)
        with pytest.raises(ValueError, match="noise_sigma"):
            StationConfig(angle=0.0, noise_sigma=value)
        with pytest.raises(ValueError, match="threshold"):
            StationConfig(angle=0.0, threshold=value)
        with pytest.raises(ValueError, match="efficiency"):
            StationConfig(angle=0.0, efficiency=value)
        with pytest.raises(ValueError, match="basis"):
            FixedBasisSource(basis=value)


# --- sources -----------------------------------------------------------------------

def test_emit_phis_isotropic_uniformity():
    phis = emit_phis(IsotropicSource(), 1_000_000, _rng(8))
    counts, _ = np.histogram(phis, bins=32, range=(0.0, TWO_PI))
    assert stats.chisquare(counts).pvalue > 0.001


def test_emit_phis_fixed_basis_two_values():
    phis = emit_phis(FixedBasisSource(basis=0.5), 10_000, _rng(9))
    assert set(np.unique(phis)) <= {0.5, 0.5 + math.pi / 2}
    frac = np.mean(phis == 0.5)
    assert frac == pytest.approx(0.5, abs=0.02)


# --- pair measurement ------------------------------------------------------------------

def test_measure_pair_equal_settings_anticorrelate():
    cfg = StationConfig(angle=0.0, threshold=0.5)
    a, b = measure_many(np.array([0.0, math.pi / 2]), cfg, cfg, _rng())
    assert a.tolist() == [PLUS_CODE, MINUS_CODE]
    assert b.tolist() == [MINUS_CODE, PLUS_CODE]


def test_efficiency_invariance_of_correlation():
    from eprblab import correlation, tabulate_codes

    theta = math.pi / 8
    cfg_a_full = StationConfig(angle=0.0, threshold=0.5)
    cfg_b_full = StationConfig(angle=theta, threshold=0.75)
    phis = emit_phis(IsotropicSource(), 400_000, _rng(10))
    t_full = tabulate_codes(*measure_many(phis, cfg_a_full, cfg_b_full, _rng(11)))

    cfg_a_thin = StationConfig(angle=0.0, threshold=0.5, efficiency=0.05)
    cfg_b_thin = StationConfig(angle=theta, threshold=0.75, efficiency=0.05)
    t_thin = tabulate_codes(*measure_many(phis, cfg_a_thin, cfg_b_thin, _rng(12)))

    e_full, e_thin = correlation(t_full), correlation(t_thin)
    se = math.sqrt(
        (1 - e_full**2) / t_full.coincidences + (1 - e_thin**2) / t_thin.coincidences
    )
    assert abs(e_full - e_thin) < 3 * se
