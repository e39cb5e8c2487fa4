import copy
import math
import multiprocessing
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from eprblab import (
    TWO_PI,
    CountTable,
    FixedBasisSource,
    IsotropicSource,
    NoCoincidencesError,
    StationConfig,
    analytic_coincidence_fraction,
    analytic_correlation,
    correlation,
    measure_pairs,
    wrap_angle,
)
import eprblab.domain as domain
import eprblab.optics as optics
from eprblab.optics import DOUBLE_CODE, MINUS_CODE, MISS_CODE, PLUS_CODE
from eprblab.scan import _windows
import station_reference as ref

angles = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def _rng(seed=0):
    return np.random.default_rng(seed)


def singles_probability(threshold: float) -> float:
    """Noise-free single-detection probability over a uniform pair angle.

    Equals 4*min(w, pi/2 - w)/pi with w = acos(sqrt(T)) for thresholds in
    [0, 1]: each channel fires within w of its center, and below T = 0.5 the
    two channels overlap in doubles, which leaves single arcs pi/2 - w wide
    on each side of a center.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold!r} outside [0, 1]")
    w = math.acos(math.sqrt(threshold))
    return 4.0 * min(w, 0.5 * math.pi - w) / math.pi


def malus_intensities(phi, analyzer):
    """Channel energy fractions (cos^2, sin^2) of phi - analyzer.

    Accepts scalars or arrays elementwise. Uses cos^2 x = (1 + cos 2x)/2 and
    i_minus = 1 - i_plus so the two fractions sum to exactly 1.0 and the
    bisecting case yields exactly (0.5, 0.5).
    """
    i_plus, i_minus = optics._malus(
        np.asarray(phi, dtype=float) - np.asarray(analyzer, dtype=float)
    )
    if np.ndim(i_plus) == 0:
        return float(i_plus), float(i_minus)
    return i_plus, i_minus


def detect_many(i_plus, i_minus, cfg, rng):
    """Station outcome codes for arrays of channel intensities.

    A channel fires when intensity (+ Gaussian channel noise, independent
    per channel) is >= the threshold; the station outcome is then thinned to
    a miss with probability 1 - efficiency. Draw order: one normal block of
    shape (n, 2) when noise_sigma > 0, then one uniform block of shape (n,)
    when efficiency < 1; both are skipped entirely otherwise.
    """
    i_plus = np.asarray(i_plus, dtype=float)
    i_minus = np.asarray(i_minus, dtype=float)
    codes = np.empty(i_plus.shape[0], dtype=np.int8)
    ref._fire(i_plus, i_minus, *ref._station_draws(cfg, len(codes), rng), cfg, codes)
    return codes


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
    for t in (0.0, 0.25, 0.3, 0.5, 0.6, 0.75, 0.92, 1.0):
        cfg = StationConfig(angle=0.0, threshold=t)
        i_plus, i_minus = malus_intensities(phis, cfg.angle)
        codes = detect_many(i_plus, i_minus, cfg, _rng())
        singles = np.mean((codes == PLUS_CODE) | (codes == MINUS_CODE))
        assert singles == pytest.approx(singles_probability(t), abs=1e-3)


def test_singles_probability_covers_the_unit_interval():
    for t in (-0.1, 1.0001, math.nan):
        with pytest.raises(ValueError, match="outside"):
            singles_probability(t)
        with pytest.raises(ValueError, match="outside"):
            _windows(t, 0.0, 1, -1)
    # No singles at T = 1 (zero-width windows) or at T = 0 (every trial a
    # double), so no coincidences either.
    for t in (0.0, 1.0):
        assert singles_probability(t) == 0.0
        with pytest.raises(NoCoincidencesError):
            analytic_correlation(0.0, t, t)
    assert singles_probability(0.25) == pytest.approx(2 / 3, abs=1e-15)
    for theta in np.linspace(-math.pi, math.pi, 33).tolist():
        assert analytic_coincidence_fraction(theta, 0.25, 0.5) == pytest.approx(2 / 3, abs=1e-12)


def test_detection_windows_cover_singles_probability():
    # The zero-noise oracle's single arcs (scan._windows) are the windows.
    for t in (0.0, 0.25, 0.3, 0.5, 0.75, 0.92, 1.0):
        (_, lp, _), (_, lm, _) = _windows(t, 0.0, 1, -1)
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


def test_angles_past_two_to_the_43_are_refused():
    # Past 2**43 one ulp of the angle exceeds 1e-3 rad, and at 1e308 the
    # Malus split's cos(2 * delta) is NaN: neither names a setting.
    edge = 2.0**43
    for value in (edge, -edge, 1e12, -1e12):
        assert StationConfig(angle=value).angle == value
        assert FixedBasisSource(basis=value).basis == value
    for value in (math.nextafter(edge, math.inf), -math.nextafter(edge, math.inf), 1e308):
        with pytest.raises(ValueError, match="angle .* exceeds 2\\*\\*43"):
            StationConfig(angle=value)
        with pytest.raises(ValueError, match="basis .* exceeds 2\\*\\*43"):
            FixedBasisSource(basis=value)


# --- sources -----------------------------------------------------------------------

def pair_angles(source, n, rng):
    """The angles of the next n pairs of source, as measure_pairs draws them."""
    return optics._phis_of_words(source, optics._draw_words(source, n, rng)[0])


def test_emit_phis_isotropic_uniformity():
    phis = pair_angles(IsotropicSource(), 1_000_000, _rng(8))
    counts, _ = np.histogram(phis, bins=32, range=(0.0, TWO_PI))
    assert stats.chisquare(counts).pvalue > 0.001


def test_emit_phis_fixed_basis_two_values():
    phis = pair_angles(FixedBasisSource(basis=0.5), 10_000, _rng(9))
    assert set(np.unique(phis)) <= {0.5, 0.5 + math.pi / 2}
    frac = np.mean(phis == 0.5)
    assert frac == pytest.approx(0.5, abs=0.02)


# --- pair measurement ------------------------------------------------------------------

def test_measure_pair_equal_settings_anticorrelate():
    # A fixed-hv pair at angle 0 (bit 0) or pi/2 (bit 1), analyzers both at 0.
    cfg = StationConfig(angle=0.0, threshold=0.5)
    rng = _rng()
    bits = copy.deepcopy(rng).integers(0, 2, 100)
    a, b = measure_pairs(FixedBasisSource(0.0), cfg, cfg, 100, rng)
    assert np.array_equal(a, np.where(bits == 0, PLUS_CODE, MINUS_CODE))
    assert np.array_equal(b, np.where(bits == 0, MINUS_CODE, PLUS_CODE))


def test_efficiency_invariance_of_correlation():
    # One seed gives both runs the same pair angles; thinning draws after them.
    theta = math.pi / 8
    cfg_a_full = StationConfig(angle=0.0, threshold=0.5)
    cfg_b_full = StationConfig(angle=theta, threshold=0.75)
    codes = measure_pairs(IsotropicSource(), cfg_a_full, cfg_b_full, 400_000, _rng(10))
    t_full = CountTable.from_codes(*codes)

    cfg_a_thin = StationConfig(angle=0.0, threshold=0.5, efficiency=0.05)
    cfg_b_thin = StationConfig(angle=theta, threshold=0.75, efficiency=0.05)
    t_thin = CountTable.from_codes(*measure_pairs(IsotropicSource(), cfg_a_thin, cfg_b_thin,
                                                  400_000, _rng(10)))

    e_full, e_thin = correlation(t_full), correlation(t_thin)
    se = math.sqrt(
        (1 - e_full**2) / t_full.coincidences + (1 - e_thin**2) / t_thin.coincidences
    )
    assert abs(e_full - e_thin) < 3 * se


# --- measure_pairs against the whole-array reference chain ------------------------------

def reference_detect_many(i_plus, i_minus, cfg, rng):
    """detect_many as a whole-array np.where chain, kept as the oracle."""
    i_plus = np.asarray(i_plus, dtype=float)
    i_minus = np.asarray(i_minus, dtype=float)
    n = i_plus.shape[0]
    if cfg.noise_sigma > 0.0:
        noise = rng.normal(0.0, cfg.noise_sigma, (n, 2))
        fired_plus = i_plus + noise[:, 0] >= cfg.threshold
        fired_minus = i_minus + noise[:, 1] >= cfg.threshold
    else:
        fired_plus = i_plus >= cfg.threshold
        fired_minus = i_minus >= cfg.threshold
    codes = np.where(
        fired_plus & fired_minus,
        DOUBLE_CODE,
        np.where(fired_plus, PLUS_CODE, np.where(fired_minus, MINUS_CODE, MISS_CODE)),
    ).astype(np.int8)
    if cfg.efficiency < 1.0:
        dropped = rng.random(n) >= cfg.efficiency
        codes[dropped] = MISS_CODE
    return codes


def reference_measure_many(phis, cfg_a, cfg_b, rng):
    """malus_intensities then detect_many per station, over whole arrays."""
    ia_plus, ia_minus = malus_intensities(phis, cfg_a.angle)
    codes_a = reference_detect_many(ia_plus, ia_minus, cfg_a, rng)
    ib_plus, ib_minus = malus_intensities(phis + 0.5 * math.pi, cfg_b.angle)
    codes_b = reference_detect_many(ib_plus, ib_minus, cfg_b, rng)
    return codes_a, codes_b


R = domain._BLOCK_ROWS
#: Pair counts at the block edges of measure_pairs, and of the reference's
#: blocks of 2 * R pairs.
EDGE_N = (1, R - 1, R, R + 1, 2 * R - 1, 2 * R, 2 * R + 1, 6 * R + 7)
TIE_A = StationConfig(angle=math.pi / 4, threshold=0.5)

stations = st.builds(
    StationConfig,
    angle=angles,
    threshold=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
    noise_sigma=st.sampled_from([0.0]) | st.floats(1e-3, 0.3),
    efficiency=st.sampled_from([1.0]) | st.floats(0.01, 1.0),
)
sources = st.sampled_from([IsotropicSource(), FixedBasisSource(0.0)]) | st.builds(
    FixedBasisSource, angles
)
setting_menus = st.tuples(angles, angles) | angles.map(lambda a: (a, a)) | st.just((20.0, -20.0))


def measured_like_reference(source, cfg_a, cfg_b, n, seed, menus=None):
    """measure_pairs on seed's stream, asserted equal in codes and generator
    end state to the reference chain (emit_phis, then _measure); returns its
    codes. With menus, each station's per-pair setting index is drawn first,
    as events gen draws it, and the stations measure at those angles."""
    rng, ref_rng = _rng(seed), _rng(seed)
    per_pair, ref_angles = None, (cfg_a.angle, cfg_b.angle)
    if menus is not None:
        per_pair = tuple((menu, rng.integers(0, len(menu), n)) for menu in menus)
        ref_angles = [np.asarray(menu)[ref_rng.integers(0, len(menu), n)] for menu in menus]
    got = measure_pairs(source, cfg_a, cfg_b, n, rng, per_pair)
    want = ref._measure(ref.emit_phis(source, n, ref_rng), *ref_angles, cfg_a, cfg_b, ref_rng)
    assert got[0].dtype == got[1].dtype == np.int8
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return got


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(EDGE_N) | st.integers(0, 4 * R),
    sources,
    stations,
    stations,
    st.none() | st.tuples(setting_menus, setting_menus),
    st.integers(0, 2**32),
)
@example(3 * R + 7, FixedBasisSource(0.0), TIE_A, TIE_A, None, 1)
@example(R + 1, FixedBasisSource(0.0), StationConfig(math.pi / 4, 0.5, 0.05, 0.5),
         StationConfig(0.3, 0.0, 0.2, 0.7), None, 2)
@example(0, IsotropicSource(), TIE_A, StationConfig(0.3, 0.5, 0.05), ((0.0, 1.0), (2.0, 3.0)), 3)
def test_measure_many_equals_reference(n, source, cfg_a, cfg_b, menus, seed):
    # Without menus the reference's codes are also those of the whole-array
    # np.where chain on the same pair angles and draws.
    got = measured_like_reference(source, cfg_a, cfg_b, n, seed, menus)
    if menus is None:
        ref_rng = _rng(seed)
        want = reference_measure_many(ref.emit_phis(source, n, ref_rng), cfg_a, cfg_b, ref_rng)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6 * R), stations, st.integers(0, 2**32))
def test_detect_many_equals_reference(n, cfg, seed):
    i_plus, i_minus = malus_intensities(_rng(seed).uniform(0.0, TWO_PI, n), cfg.angle)
    got = detect_many(i_plus, i_minus, cfg, _rng(seed + 1))
    assert np.array_equal(got, reference_detect_many(i_plus, i_minus, cfg, _rng(seed + 1)))


@pytest.mark.parametrize("n", EDGE_N)
def test_per_pair_angles_equal_reference(n):
    # Event generation measures each pair at the angle its setting index picks.
    cfg_a = StationConfig(angle=0.0, threshold=0.5, noise_sigma=0.03, efficiency=0.7)
    cfg_b = StationConfig(angle=0.0, threshold=0.75, efficiency=0.9)
    menus = ((0.0, math.pi / 4), (math.pi / 8, 3 * math.pi / 8))
    for source in (IsotropicSource(), FixedBasisSource(0.2)):
        codes_a, codes_b = measured_like_reference(source, cfg_a, cfg_b, n, n, menus)
    # The whole-array np.where chain, at the angles the same indices pick.
    rng = _rng(n)
    angles_a, angles_b = (np.asarray(menu)[rng.integers(0, 2, n)] for menu in menus)
    phis = ref.emit_phis(FixedBasisSource(0.2), n, rng)
    want_a = reference_detect_many(*malus_intensities(phis, angles_a), cfg_a, rng)
    want_b = reference_detect_many(*malus_intensities(phis + 0.5 * math.pi, angles_b), cfg_b, rng)
    assert np.array_equal(codes_a, want_a) and np.array_equal(codes_b, want_b)


def test_measure_pairs_refuses_bad_settings():
    cfg = StationConfig(angle=0.0)
    good = (0.0, 1.0), np.zeros(5, dtype=np.int64)
    for bad in [((0.0, 1.0), np.full(5, 2)), ((0.0, 1.0), np.full(5, -1)),
                ((0.0, 1.0), np.zeros(4, dtype=np.int64)), ((0.0, 1.0), np.zeros(5))]:
        with pytest.raises(ValueError, match="settings need n = 5 integer indices"):
            measure_pairs(IsotropicSource(), cfg, cfg, 5, _rng(), (good, bad))
    with pytest.raises(ValueError, match="settings angle"):
        measure_pairs(IsotropicSource(), cfg, cfg, 5, _rng(), (good, ((0.0, math.nan), good[1])))


# --- the numpy identities optics._count_pairs rests on -------------------------------------

BLOCK_ROWS = domain._BLOCK_ROWS
BLOCK_EDGE_N = (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5)
IDENTITY_SEEDS = ([0, 0], [1, 7], [2**32 - 1, 32], [123456789, 3])


@pytest.mark.parametrize("seed", IDENTITY_SEEDS)
@pytest.mark.parametrize("n", BLOCK_EDGE_N)
def test_uniform_angles_are_built_from_raw_draws(seed, n):
    # The bucket path reads the pair angles of uniform(0, 2*pi) off raw PCG64 draws.
    want = np.random.default_rng(seed).uniform(0.0, TWO_PI, n)
    raw = np.random.default_rng(seed).bit_generator.random_raw(n)
    assert np.array_equal(optics._phis_of_raw(raw), want)
    assert np.array_equal(pair_angles(IsotropicSource(), n, np.random.default_rng(seed)), want)


@pytest.mark.parametrize("seed", IDENTITY_SEEDS)
@pytest.mark.parametrize("n", BLOCK_EDGE_N)
def test_raw_draws_in_blocks_equal_one_draw(seed, n):
    whole = np.random.default_rng(seed).bit_generator
    blocked = np.random.default_rng(seed).bit_generator
    parts = [blocked.random_raw(min(BLOCK_ROWS, n - s)) for s in range(0, n, BLOCK_ROWS)]
    assert np.array_equal(np.concatenate(parts), whole.random_raw(n))
    assert blocked.random_raw() == whole.random_raw()


STREAM_SEGMENTS = {
    "exponential": lambda g, m: g.exponential(1e-3, m),
    "normal": lambda g, m: g.normal(0.0, 0.05, (m, 2)),
    "random": lambda g, m: g.random(m),
    "integers": lambda g, m: g.integers(0, 2, m),
}


@pytest.mark.parametrize("seed", IDENTITY_SEEDS)
@pytest.mark.parametrize("n", BLOCK_EDGE_N)
@pytest.mark.parametrize("segment", sorted(STREAM_SEGMENTS))
def test_stream_segments_drawn_in_blocks_equal_one_draw(segment, n, seed):
    # optics._count_pairs draws each segment of a stream one block of pairs at a
    # time, and eventio._emission_times its gaps one block at a time; numpy
    # must give the values and the end state of one whole draw.
    draw = STREAM_SEGMENTS[segment]
    whole, blocked = np.random.default_rng(seed), np.random.default_rng(seed)
    want = draw(whole, n)
    parts = [draw(blocked, min(BLOCK_ROWS, n - s)) for s in range(0, n, BLOCK_ROWS)]
    assert np.array_equal(np.concatenate(parts), want), f"{segment} drawn in blocks differs"
    assert blocked.bit_generator.state == whole.bit_generator.state, f"{segment} ends elsewhere"


@pytest.mark.parametrize("seed", IDENTITY_SEEDS)
def test_raw_draws_end_where_uniform_angles_end(seed):
    # _count_pairs takes its angle words with random_raw and draws the angles
    # again from a copy of the generator taken before them.
    angles, words = np.random.default_rng(seed), np.random.default_rng(seed)
    before = copy.deepcopy(words.bit_generator)
    want = angles.uniform(0.0, TWO_PI, BLOCK_ROWS + 1)
    words.bit_generator.random_raw(BLOCK_ROWS + 1)
    assert words.bit_generator.state == angles.bit_generator.state
    again = np.random.Generator(before)
    assert np.array_equal(again.uniform(0.0, TWO_PI, BLOCK_ROWS + 1), want)


def test_bucket_angles_bound_their_draws():
    # Every raw draw's angle lies between its bucket's first and last angle.
    raw = np.random.default_rng(5).bit_generator.random_raw(100_000)
    bucket = (raw >> np.uint64(optics._BUCKET_SHIFT)).astype(np.intp)
    phi_lo, phi_hi = optics._bucket_phis()
    phis = optics._phis_of_raw(raw)
    assert np.all(phi_lo[bucket] <= phis) and np.all(phis <= phi_hi[bucket])
    assert phi_lo[0] == 0.0 and phi_hi[-1] < TWO_PI


def test_bisected_fixed_basis_tie_stays_an_exact_double():
    # Both pair polarizations sit exactly between A's channels, on every block,
    # at A's own angle and at a menu of two equal settings.
    n = 4 * R + 3
    phis = ref.emit_phis(FixedBasisSource(0.0), n, _rng(13))
    i_plus, i_minus = malus_intensities(phis, TIE_A.angle)
    assert np.all(i_plus == 0.5) and np.all(i_minus == 0.5)
    tie_menus = ((TIE_A.angle, TIE_A.angle), (0.0, 0.3))
    for menus in (None, tie_menus):
        codes_a, _ = measured_like_reference(FixedBasisSource(0.0), TIE_A, TIE_A, n, 13, menus)
        assert np.all(codes_a == DOUBLE_CODE)


#: Fixed-hv bases whose pair angle basis + pi/2 * word rounds up to exactly
#: 2*pi under a plain % 2*pi: just below 0, and just below -pi/2.
BASES_BELOW_A_TURN = (-5e-324, -1e-20, math.nextafter(-math.pi / 2, -math.inf))


@pytest.mark.parametrize("basis", BASES_BELOW_A_TURN)
def test_fixed_hv_angles_are_reduced_as_wrap_angle_reduces_one(basis):
    phis = optics._phis_of_words(FixedBasisSource(basis), np.arange(2))
    assert phis.tolist() == [wrap_angle(basis + 0.5 * math.pi * word) for word in (0.0, 1.0)]
    assert np.all((0.0 <= phis) & (phis < TWO_PI))


def test_a_basis_just_below_zero_measures_as_basis_zero():
    # Station A bisects the basis, so every pair is a double at basis 0; an
    # angle left at 2*pi would miss that exact tie.
    n, cfg_b = 2 * R + 5, StationConfig(angle=0.3, threshold=0.75)
    for menus in (None, ((TIE_A.angle, 0.3), (0.0, math.pi / 8))):
        below, zero = (measured_like_reference(FixedBasisSource(basis), TIE_A, cfg_b, n, 17, menus)
                       for basis in (-1e-20, 0.0))
        assert np.array_equal(below[0], zero[0]) and np.array_equal(below[1], zero[1])
        if menus is None:
            assert np.all(below[0] == DOUBLE_CODE)


CONCURRENT_A = StationConfig(angle=0.3, threshold=0.5, noise_sigma=0.02, efficiency=0.9)
CONCURRENT_B = StationConfig(angle=0.9, threshold=0.75, noise_sigma=0.05)
CONCURRENT_MENUS = ((0.3, 1.1), (0.9, -0.4))


def _measure_seed(seed):
    """measure_pairs on seed's stream, with per-pair settings for odd seeds."""
    rng, n = _rng(100 + seed), 6 * R + 7
    per_pair = None
    if seed % 2:
        per_pair = tuple((menu, rng.integers(0, 2, n)) for menu in CONCURRENT_MENUS)
    return measure_pairs(IsotropicSource(), CONCURRENT_A, CONCURRENT_B, n, rng, per_pair)


def test_concurrent_callers_get_their_serial_results():
    # The kernel stays reentrant: callers on several threads, with frequent
    # thread switches, each get their serial result; shared module-level
    # scratch state would mix their blocks up.
    seeds = range(4)
    serial = {seed: measured_like_reference(
        IsotropicSource(), CONCURRENT_A, CONCURRENT_B, 6 * R + 7, 100 + seed,
        CONCURRENT_MENUS if seed % 2 else None) for seed in seeds}
    results: dict[int, list] = {seed: [] for seed in seeds}
    start = threading.Barrier(len(seeds))

    def worker(seed):
        start.wait()
        for _ in range(5):
            results[seed].append(_measure_seed(seed))

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for seed, runs in results.items():
        assert len(runs) == 5
        for codes_a, codes_b in runs:
            assert np.array_equal(codes_a, serial[seed][0])
            assert np.array_equal(codes_b, serial[seed][1])


def _measure_in_child(queue, seeds):
    queue.put([_measure_seed(seed) for seed in seeds])


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_forked_child_measures_like_its_parent():
    # A child forked after the parent has measured measures as the parent does.
    seeds = (0, 1)
    parent = [measured_like_reference(IsotropicSource(), CONCURRENT_A, CONCURRENT_B, 6 * R + 7,
                                      100 + seed, CONCURRENT_MENUS if seed % 2 else None)
              for seed in seeds]
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_measure_in_child, args=(queue, seeds))
    child.start()
    try:
        in_child = queue.get(timeout=60)
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    for (codes_a, codes_b), want in zip(in_child, parent):
        assert np.array_equal(codes_a, want[0]) and np.array_equal(codes_b, want[1])
