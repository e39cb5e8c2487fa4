import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eprblab import (
    TWO_PI,
    CountTable,
    FixedBasisSource,
    IsotropicSource,
    NoCoincidencesError,
    ScanConfig,
    ScanResult,
    StationConfig,
    analytic_coincidence_fraction,
    analytic_correlation,
    chsh_report_from_tables,
    coincidence_modulation,
    correlation,
    default_b_angles,
    default_chsh_configs,
    pathology_probe,
    run_chsh,
    run_scan,
    run_scan_step,
    singles_asymmetry,
)
import eprblab.domain as domain
import eprblab.optics as optics
import eprblab.scan as scan
from eprblab.cli import SCAN_CSV_HEADER, main
from eprblab.optics import DOUBLE_CODE, MINUS_CODE, MISS_CODE, PLUS_CODE
import station_reference as ref

PI = math.pi

thetas = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def singles_probability(threshold: float) -> float:
    """Noise-free single-detection probability over a uniform pair angle.

    Equals 4*acos(sqrt(T))/pi for thresholds in [0.5, 1]: the combined
    width of the two disjoint channel windows divided by the period.
    """
    if not 0.5 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold!r} outside [0.5, 1]")
    return 4.0 * math.acos(math.sqrt(threshold)) / math.pi


def triangle_correlation(theta: float) -> float:
    """The 0.5/0.5 closed form: E = -1 + 4*theta/pi on [0, pi/2], mirrored."""
    x = theta % math.pi
    if x > math.pi / 2:
        x = math.pi - x
    return -1.0 + 4.0 * x / math.pi
thresholds = st.floats(min_value=0.5, max_value=0.99, allow_nan=False)


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


def grid_correlation(theta: float, t_a: float, t_b: float, n: int = 200_000) -> float:
    """Independent oracle: drive the detection kernel over a uniform grid of
    pair angles and tabulate, instead of integrating windows."""
    phis = (np.arange(n) + 0.5) * (TWO_PI / n)
    rng = np.random.default_rng(0)  # sigma = 0: no draws consumed
    cfg_a = StationConfig(angle=0.0, threshold=t_a)
    cfg_b = StationConfig(angle=theta, threshold=t_b)
    ia, ja = malus_intensities(phis, cfg_a.angle)
    codes_a = detect_many(ia, ja, cfg_a, rng)
    ib, jb = malus_intensities(phis + PI / 2, cfg_b.angle)
    codes_b = detect_many(ib, jb, cfg_b, rng)
    return correlation(CountTable.from_codes(codes_a, codes_b))


# --- analytic oracle ------------------------------------------------------------

def test_analytic_correlation_examples():
    assert analytic_correlation(0.0, 0.5, 0.5) == -1.0
    assert analytic_correlation(PI / 8, 0.5, 0.5) == pytest.approx(-0.5, abs=1e-12)
    assert analytic_correlation(PI / 8, 0.5, 0.75) == pytest.approx(-0.75, abs=1e-12)


def test_analytic_correlation_plateau_is_exact():
    # theta below pi/4 - acos(sqrt(0.92)): every coincidence anticorrelates.
    w = math.acos(math.sqrt(0.92))
    for theta in (0.0, 0.1, PI / 8, PI / 4 - w - 0.01):
        assert analytic_correlation(theta, 0.5, 0.92) == -1.0


def test_analytic_correlation_matches_triangle_law():
    for theta in np.linspace(0.0, PI, 64):
        assert analytic_correlation(float(theta), 0.5, 0.5) == pytest.approx(
            triangle_correlation(float(theta)), abs=1e-12
        )


def test_analytic_correlation_rejects_low_thresholds():
    with pytest.raises(ValueError):
        analytic_correlation(0.1, 0.4, 0.5)
    with pytest.raises(ValueError):
        analytic_correlation(0.1, 0.5, 0.49)


def test_analytic_correlation_no_windows_at_unit_threshold():
    with pytest.raises(NoCoincidencesError):
        analytic_correlation(0.1, 1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(thetas, thresholds, thresholds)
def test_analytic_matches_grid_oracle(theta, t_a, t_b):
    frac = analytic_coincidence_fraction(theta, t_a, t_b)
    if frac < 1e-4:
        # Dead zone (both sides heavily windowed): nothing to compare
        # statistically; the zero-coincidence behavior has its own test.
        return
    assert analytic_correlation(theta, t_a, t_b) == pytest.approx(
        grid_correlation(theta, t_a, t_b), abs=2e-3
    )


def test_dead_zone_has_no_coincidences_anywhere():
    # High thresholds on both sides leave angular ranges where the channel
    # windows never overlap: the oracle and the detection kernel must agree
    # that the coincidence rate is exactly zero there.
    theta, t = 0.6283185307179586, 0.92
    assert analytic_coincidence_fraction(theta, t, t) == 0.0
    with pytest.raises(NoCoincidencesError):
        analytic_correlation(theta, t, t)
    with pytest.raises(NoCoincidencesError):
        grid_correlation(theta, t, t)


@settings(max_examples=80, deadline=None)
@given(thetas, thresholds, thresholds)
def test_analytic_symmetries(theta, t_a, t_b):
    if analytic_coincidence_fraction(theta, t_a, t_b) < 1e-12:
        return
    e = analytic_correlation(theta, t_a, t_b)
    assert analytic_correlation(PI - theta, t_a, t_b) == pytest.approx(e, abs=1e-9)
    assert analytic_correlation(theta + PI / 2, t_a, t_b) == pytest.approx(-e, abs=1e-9)
    assert analytic_correlation(-theta, t_a, t_b) == pytest.approx(e, abs=1e-9)


def test_analytic_coincidence_fraction():
    # With A at 0.5 every trial is a single at A, so the coincidence rate is
    # B's singles probability, independent of theta.
    for theta in (0.0, 0.4, 1.2):
        assert analytic_coincidence_fraction(theta, 0.5, 0.75) == pytest.approx(
            singles_probability(0.75), abs=1e-12
        )
    # Both sides windowed: aligned windows overlap fully, shifted ones less.
    assert analytic_coincidence_fraction(0.0, 0.75, 0.75) == pytest.approx(2 / 3, abs=1e-12)
    assert analytic_coincidence_fraction(PI / 4, 0.75, 0.75) == pytest.approx(1 / 3, abs=1e-12)


# --- Monte Carlo against the oracle ------------------------------------------------

def test_monte_carlo_matches_analytic_over_threshold_grid():
    # Every threshold pair from the calibration study, 16 angles each.
    pairs_per = 100_000
    for t_a in (0.5, 0.75, 0.92):
        for t_b in (0.5, 0.75, 0.92):
            cfg = ScanConfig(
                source=IsotropicSource(),
                station_a=StationConfig(angle=0.0, threshold=t_a),
                station_b=StationConfig(angle=0.0, threshold=t_b),
                b_angles=default_b_angles(16),
                pairs_per_step=pairs_per,
                seed=101,
            )
            result = run_scan(cfg)
            for step in result.steps:
                frac = analytic_coincidence_fraction(step.b_angle, t_a, t_b)
                if frac * pairs_per < 25:
                    # dead zone (or a sliver of one): MC must agree it is empty
                    assert step.counts.coincidences <= max(1, 3 * frac * pairs_per)
                    continue
                target = analytic_correlation(step.b_angle, t_a, t_b)
                n_c = step.counts.coincidences
                se = math.sqrt(max(0.0, 1.0 - target**2) / n_c)
                assert abs(step.correlation - target) <= 3.0 * se + 1e-9, (
                    t_a, t_b, step.b_angle,
                )


def test_scan_symmetry_about_half_pi():
    cfg = ScanConfig(
        source=IsotropicSource(),
        station_a=StationConfig(angle=0.0, threshold=0.5),
        station_b=StationConfig(angle=0.0, threshold=0.75),
        b_angles=default_b_angles(17),
        pairs_per_step=20_000,
        seed=3,
    )
    result = run_scan(cfg)
    es = [s.correlation for s in result.steps]
    for k in range(len(es)):
        se = 2.0 / math.sqrt(result.steps[k].counts.coincidences)
        assert abs(es[k] - es[-1 - k]) < 6 * se


# --- scan mechanics -------------------------------------------------------------------

def test_run_scan_reproducible():
    cfg = ScanConfig(
        source=IsotropicSource(),
        station_a=StationConfig(angle=0.0, threshold=0.5),
        station_b=StationConfig(angle=0.0, threshold=0.75),
        b_angles=default_b_angles(5),
        pairs_per_step=2_000,
        seed=42,
    )
    assert run_scan(cfg) == run_scan(cfg)


def test_scan_steps_are_order_independent():
    cfg = ScanConfig(
        source=IsotropicSource(),
        station_a=StationConfig(angle=0.0, threshold=0.5),
        station_b=StationConfig(angle=0.0, threshold=0.75),
        b_angles=default_b_angles(6),
        pairs_per_step=1_000,
        seed=7,
    )
    full = run_scan(cfg)
    for k in reversed(range(6)):
        assert run_scan_step(cfg, k) == full.steps[k]


def test_scan_config_validation():
    st_a = StationConfig(angle=0.0)
    with pytest.raises(ValueError):
        ScanConfig(IsotropicSource(), st_a, st_a, b_angles=(0.0,))
    with pytest.raises(ValueError):
        ScanConfig(IsotropicSource(), st_a, st_a, pairs_per_step=0)
    with pytest.raises(ValueError, match="seed"):
        ScanConfig(IsotropicSource(), st_a, st_a, seed=-1)
    one_step = run_scan_step(ScanConfig(IsotropicSource(), st_a, st_a, pairs_per_step=10), 0)
    with pytest.raises(ValueError, match="at least 2 scan steps"):
        coincidence_modulation(ScanResult(ScanConfig(IsotropicSource(), st_a, st_a), (one_step,)))


def test_step_counts_partition_pairs():
    cfg = ScanConfig(
        source=IsotropicSource(),
        station_a=StationConfig(angle=0.0, threshold=0.75),
        station_b=StationConfig(angle=0.0, threshold=0.92, efficiency=0.7),
        b_angles=default_b_angles(4),
        pairs_per_step=5_000,
        seed=1,
    )
    for step in run_scan(cfg).steps:
        c = step.counts
        assert c.singles_a + c.doubles_a + c.misses_a == c.n_pairs == 5_000
        assert c.singles_b + c.doubles_b + c.misses_b == c.n_pairs


# --- diagnostics -------------------------------------------------------------------------

def _scan(t_a, t_b, steps=17, pairs=20_000, seed=5):
    return run_scan(
        ScanConfig(
            source=IsotropicSource(),
            station_a=StationConfig(angle=0.0, threshold=t_a),
            station_b=StationConfig(angle=0.0, threshold=t_b),
            b_angles=default_b_angles(steps),
            pairs_per_step=pairs,
            seed=seed,
        )
    )


def test_singles_asymmetry_tracks_b_threshold():
    assert singles_asymmetry(_scan(0.5, 0.5)) == pytest.approx(1.0, abs=0.005)
    assert singles_asymmetry(_scan(0.5, 0.75)) == pytest.approx(2 / 3, abs=0.01)
    assert singles_asymmetry(_scan(0.5, 0.92)) == pytest.approx(
        singles_probability(0.92), abs=0.01
    )


def test_rotational_invariance_of_per_step_singles():
    result = _scan(0.5, 0.75)
    n = result.config.pairs_per_step
    sd = math.sqrt(n * (2 / 3) * (1 / 3))
    counts = [s.counts.singles_b for s in result.steps]
    assert max(counts) - min(counts) < 8 * sd
    assert all(s.counts.singles_a == n for s in result.steps)


def test_coincidence_modulation_one_side_calibrated():
    assert coincidence_modulation(_scan(0.5, 0.75)) < 0.03
    assert coincidence_modulation(_scan(0.5, 0.5)) < 0.03


def test_coincidence_modulation_both_miscalibrated():
    result = _scan(0.75, 0.75)
    assert coincidence_modulation(result) > 0.10
    # dual route: per-step coincidence fractions match the window overlap
    for step in result.steps:
        frac = step.counts.coincidences / step.counts.n_pairs
        target = analytic_coincidence_fraction(step.b_angle, 0.75, 0.75)
        se = math.sqrt(target * (1 - target) / step.counts.n_pairs)
        assert abs(frac - target) < 4 * se + 1e-9


# --- CHSH ------------------------------------------------------------------------------------

def test_run_chsh_threshold_ladder():
    expected = {0.5: 2.0, 0.75: 3.0, 0.92: 4.0}
    abs_s = {}
    for t_b, target in expected.items():
        pair_a, pair_b = default_chsh_configs(t_a=0.5, t_b=t_b)
        report = run_chsh(IsotropicSource(), pair_a, pair_b, 50_000, seed=13)
        abs_s[t_b] = report.abs_s
        assert report.abs_s == pytest.approx(target, abs=0.03)
        assert report.se_s < 0.02
    assert abs_s[0.5] < abs_s[0.75] < abs_s[0.92]


def test_run_chsh_e_values_match_analytic():
    pair_a, pair_b = default_chsh_configs(t_a=0.5, t_b=0.75)
    report = run_chsh(IsotropicSource(), pair_a, pair_b, 50_000, seed=19)
    for i in (0, 1):
        for j in (0, 1):
            theta = report.angles_b[j] - report.angles_a[i]
            target = analytic_correlation(theta, 0.5, 0.75)
            assert report.e_values[i][j] == pytest.approx(target, abs=4 * report.stderrs[i][j] + 1e-9)


def test_run_chsh_deterministic_and_signed():
    pair_a, pair_b = default_chsh_configs()
    r1 = run_chsh(IsotropicSource(), pair_a, pair_b, 5_000, seed=2)
    r2 = run_chsh(IsotropicSource(), pair_a, pair_b, 5_000, seed=2)
    assert r1 == r2
    assert r1.s < 0 and r1.abs_s == -r1.s  # anticorrelated geometry: S is negative


def test_chsh_report_from_tables_roundtrip():
    pair_a, pair_b = default_chsh_configs(t_b=0.75)
    report = run_chsh(IsotropicSource(), pair_a, pair_b, 10_000, seed=8)
    tables = {(i, j): report.tables[i][j] for i in (0, 1) for j in (0, 1)}
    rebuilt = chsh_report_from_tables(tables, report.angles_a, report.angles_b)
    assert rebuilt.s == report.s
    with pytest.raises(ValueError):
        chsh_report_from_tables({(0, 0): tables[(0, 0)]}, report.angles_a, report.angles_b)


# --- stream counts against the per-pair path ----------------------------------------------

def reference_tabulate_codes(codes_a, codes_b):
    """CountTable.from_codes as a chain of masks and count_nonzero, kept as the oracle."""
    single_a = (codes_a == PLUS_CODE) | (codes_a == MINUS_CODE)
    single_b = (codes_b == PLUS_CODE) | (codes_b == MINUS_CODE)
    coin = single_a & single_b
    a_plus = codes_a == PLUS_CODE
    b_plus = codes_b == PLUS_CODE
    return CountTable(
        n_pp=int(np.count_nonzero(coin & a_plus & b_plus)),
        n_pm=int(np.count_nonzero(coin & a_plus & ~b_plus)),
        n_mp=int(np.count_nonzero(coin & ~a_plus & b_plus)),
        n_mm=int(np.count_nonzero(coin & ~a_plus & ~b_plus)),
        singles_a=int(np.count_nonzero(single_a)),
        singles_b=int(np.count_nonzero(single_b)),
        doubles_a=int(np.count_nonzero(codes_a == DOUBLE_CODE)),
        doubles_b=int(np.count_nonzero(codes_b == DOUBLE_CODE)),
        misses_a=int(np.count_nonzero(codes_a == MISS_CODE)),
        misses_b=int(np.count_nonzero(codes_b == MISS_CODE)),
        n_pairs=int(codes_a.shape[0]),
    )


def reference_count(source, cfg_a, cfg_b, n, rng):
    """Every pair emitted, measured and tabulated by the reference chain."""
    return reference_tabulate_codes(*ref.measure_many(ref.emit_phis(source, n, rng), cfg_a, cfg_b,
                                                      rng))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5000), st.integers(0, 2**32))
def test_tabulate_codes_equals_reference(n, seed):
    codes = np.array([MISS_CODE, PLUS_CODE, MINUS_CODE, DOUBLE_CODE], dtype=np.int8)
    rng = np.random.default_rng(seed)
    codes_a, codes_b = codes[rng.integers(0, 4, n)], codes[rng.integers(0, 4, n)]
    assert CountTable.from_codes(codes_a, codes_b) == reference_tabulate_codes(codes_a, codes_b)


@pytest.mark.parametrize("n", [0, 1, 6, 7, 8, 29])
def test_tally_row_chunks_are_invisible(monkeypatch, n):
    monkeypatch.setattr(domain, "_BLOCK_ROWS", 7)
    codes = np.array([MISS_CODE, PLUS_CODE, MINUS_CODE, DOUBLE_CODE], dtype=np.int8)
    rng = np.random.default_rng(n)
    codes_a, codes_b = codes[rng.integers(0, 4, n)], codes[rng.integers(0, 4, n)]
    assert CountTable.from_codes(codes_a, codes_b) == reference_tabulate_codes(codes_a, codes_b)


BLOCK_ROWS = domain._BLOCK_ROWS
BIG = (1e6, -1e6, 1e12, -1e12)
table_angles = (
    st.integers(-16, 16).map(lambda k: k * PI / 8)
    | st.floats(-7.0, 7.0, allow_nan=False)
    | st.sampled_from(BIG)
    | st.sampled_from(BIG).flatmap(lambda big: st.floats(-7.0, 7.0).map(lambda x: big + x))
)
table_thresholds = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
zero_noise_stations = st.builds(StationConfig, angle=table_angles, threshold=table_thresholds)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1))
    | st.integers(1, 3000),
    zero_noise_stations,
    zero_noise_stations,
    st.integers(0, 2**32),
)
@example(2 * BLOCK_ROWS + 1, StationConfig(1e12, 0.0), StationConfig(-1e6, 1.0), 3)
@example(BLOCK_ROWS + 1, StationConfig(PI / 4, 0.5), StationConfig(3 * PI / 8, 0.92), 4)
@example(BLOCK_ROWS, StationConfig(-PI, 1.0), StationConfig(PI / 8, 0.0), 5)
# ~7 % of pairs unproven: the unproven batch fills up before the last block
@example(20 * BLOCK_ROWS + 3, StationConfig(0.1, 0.0), StationConfig(0.2, 1.0), 6)
def test_zero_noise_counts_equal_every_pair_measured(n, cfg_a, cfg_b, seed):
    rng, ref_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
    got = optics._count_pairs(IsotropicSource(), cfg_a, cfg_b, n, rng)
    assert got == reference_count(IsotropicSource(), cfg_a, cfg_b, n, ref_rng)
    assert rng.bit_generator.random_raw() == ref_rng.bit_generator.random_raw()


BLOCK_EDGE_N = (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5)
REGIMES = [(sigma_a, eta_a, sigma_b, eta_b)
           for sigma_a in (0.0, 0.03) for eta_a in (1.0, 0.4)
           for sigma_b in (0.0, 0.05) for eta_b in (1.0, 0.3)]
stream_angles = (st.integers(-8, 8).map(lambda k: k * PI / 8) | st.floats(-7.0, 7.0)
                 | st.sampled_from(BIG))
stream_thresholds = st.sampled_from([0.0, 0.5, 1.0])


@pytest.mark.parametrize("isotropic", [True, False], ids=["isotropic", "fixed-hv"])
@pytest.mark.parametrize("sigma_a, eta_a, sigma_b, eta_b", REGIMES)
@settings(max_examples=6, deadline=None)
@given(
    n=st.sampled_from(BLOCK_EDGE_N),
    angle_a=stream_angles,
    angle_b=stream_angles,
    t_a=stream_thresholds,
    t_b=stream_thresholds,
    basis=stream_angles,
    seed=st.integers(0, 2**32),
)
# fixed-hv with A bisecting the basis: every A trial sits on the exact 0.5 tie.
@example(n=3 * BLOCK_ROWS + 5, angle_a=PI / 4, angle_b=PI / 8, t_a=0.5, t_b=0.5, basis=0.0,
         seed=1)
def test_count_pairs_equals_every_pair_measured(isotropic, sigma_a, eta_a, sigma_b, eta_b,
                                                 n, angle_a, angle_b, t_a, t_b, basis, seed):
    # Every combination of noise and loss per station, on both sources: the
    # counts and the generator's end state are those of the per-pair chain.
    source = IsotropicSource() if isotropic else FixedBasisSource(basis)
    cfg_a = StationConfig(angle_a, t_a, sigma_a, eta_a)
    cfg_b = StationConfig(angle_b, t_b, sigma_b, eta_b)
    rng, ref_rng = np.random.default_rng([seed, 2]), np.random.default_rng([seed, 2])
    got = optics._count_pairs(source, cfg_a, cfg_b, n, rng)
    assert got == reference_count(source, cfg_a, cfg_b, n, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_count_pairs_keeps_a_callers_buffered_half_word():
    # fixed-hv bits come from 32-bit halves of raw words; a half left over by an
    # earlier draw must be read, and left, as the per-pair chain reads it.
    cfg_a = StationConfig(0.1, 0.5, 0.02)
    cfg_b = StationConfig(0.2, 0.5, 0.0, 0.5)
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    for g in (rng, ref_rng):
        g.integers(0, 2, 3)
    assert rng.bit_generator.state["has_uint32"] == 1
    for source in (FixedBasisSource(0.0), IsotropicSource()):
        got = optics._count_pairs(source, cfg_a, cfg_b, BLOCK_ROWS + 3, rng)
        assert got == reference_count(source, cfg_a, cfg_b, BLOCK_ROWS + 3, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize(
    "source, cfg_a, cfg_b, paths",
    [
        (IsotropicSource(), StationConfig(0.0, 0.5), StationConfig(0.3, 0.75),
         ("bucket", "bucket")),
        (FixedBasisSource(0.0), StationConfig(0.0, 0.5), StationConfig(0.3, 0.75), ("bit", "bit")),
        (IsotropicSource(), StationConfig(0.0, 0.5), StationConfig(0.3, 0.75, 0.05),
         ("bucket", "full")),
        (IsotropicSource(), StationConfig(0.0, 0.5), StationConfig(0.3, 0.75, 0.0, 0.3),
         ("bucket", "bucket")),
        (IsotropicSource(), StationConfig(0.0, 0.5, 0.0, 0.4), StationConfig(0.3, 0.75, 0.05, 0.3),
         ("bucket", "full")),
        (IsotropicSource(), StationConfig(0.0, 0.5, 0.02), StationConfig(0.3, 0.75, 0.0, 0.3),
         ("full", "bucket")),
        (FixedBasisSource(0.0), StationConfig(0.0, 0.5), StationConfig(0.3, 0.75, 0.0, 0.5),
         ("bit", "bit")),
        (FixedBasisSource(0.2), StationConfig(0.0, 0.5, 0.02), StationConfig(0.3, 0.75),
         ("full", "bit")),
    ],
    ids=["bucket-bucket", "bit-bit", "bucket-full", "bucket-lossy-bucket", "lossy-bucket-full",
         "full-lossy-bucket", "bit-lossy-bit", "full-bit"],
)
def test_count_stream_picks_a_path_per_station(monkeypatch, source, cfg_a, cfg_b, paths):
    # Each station's path, keyed by its pulse shift: a zero-noise station builds
    # a code table of 4096 buckets (isotropic) or 2 bits (fixed-hv) once and
    # reads it in the one pass over the angle words; a noisy one takes the full
    # path, the only one that draws the words again. On every path the
    # Malus/threshold kernel sees only the pairs whose code the bounds leave
    # open, not every pair.
    n = 2 * BLOCK_ROWS + 1
    want = reference_count(source, cfg_a, cfg_b, n, np.random.default_rng(4))
    built, rows, drawn = [], {0.0: 0, 0.5 * PI: 0}, []
    init, exact, draw = optics._Station.__init__, optics._exact_codes, optics._draw_words

    def recording_init(station, *args):
        init(station, *args)
        built.append(station)

    def counting_exact(phis, shift, *rest):
        rows[shift] += phis.shape[0]
        return exact(phis, shift, *rest)

    def counting_draw(source, m, rng):
        drawn.append(m)
        return draw(source, m, rng)

    monkeypatch.setattr(optics._Station, "__init__", recording_init)
    monkeypatch.setattr(optics, "_exact_codes", counting_exact)
    monkeypatch.setattr(optics, "_draw_words", counting_draw)
    assert optics._count_pairs(source, cfg_a, cfg_b, n, np.random.default_rng(4)) == want
    taken = {station.shift: "full" if station.table is None
             else {1 << 12: "bucket", 2: "bit"}[station.table[0].shape[0]] for station in built}
    assert len(built) == 2 and (taken[0.0], taken[0.5 * PI]) == paths
    assert rows[0.0] < n // 20 and rows[0.5 * PI] < n // 20
    assert sum(drawn) == n * (1 + paths.count("full"))


def test_zero_noise_chsh_memory_does_not_grow_with_pairs():
    n = 1 << 20
    assert n >= 16 * BLOCK_ROWS  # at least 16 raw-draw blocks per setting
    pair_a, pair_b = default_chsh_configs(t_a=0.5, t_b=0.75)
    tracemalloc.start()
    try:
        report = run_chsh(IsotropicSource(), pair_a, pair_b, n, seed=21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.tables[0][0].n_pairs == n
    assert peak < 4 * 2**20  # a single float64 angle array of n pairs is 8 MiB


#: Per-block temporaries allowed on top of the two int8 codes per pair: sixteen
#: float64 arrays of one block of pairs.
BLOCK_ALLOWANCE = 16 * 8 * BLOCK_ROWS


@pytest.mark.parametrize(
    "source, cfg_a, cfg_b",
    [
        (IsotropicSource(), StationConfig(0.0, 0.75), StationConfig(0.3, 0.75, 0.05, 0.3)),
        (FixedBasisSource(0.0), StationConfig(0.0, 0.5), StationConfig(0.3, 0.75, 0.0, 0.5)),
        (FixedBasisSource(0.0), StationConfig(0.0, 0.5, 0.05), StationConfig(0.3, 0.75, 0.0, 0.5)),
    ],
    ids=["noisy-lossy", "fixed-hv-lossy", "fixed-hv-noisy"],
)
def test_count_stream_memory_is_two_bytes_per_pair(source, cfg_a, cfg_b):
    n = 32 * BLOCK_ROWS
    rng = np.random.default_rng(22)
    tracemalloc.start()
    try:
        counts = optics._count_pairs(source, cfg_a, cfg_b, n, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.n_pairs == n
    assert peak <= 2 * n + BLOCK_ALLOWANCE  # the per-pair chain holds ~25-35 B per pair


# --- pathology probe ----------------------------------------------------------------------------

def test_pathology_bisecting_alpha_doubles_every_trial():
    report = pathology_probe(basis=0.0, alpha=PI / 4, pairs_per_step=2_000, seed=3,
                             b_angles=default_b_angles(5))
    assert report.a_double_rate == 1.0
    assert report.a_single_rate == 0.0
    assert report.max_match_deviation is None  # no coincidences on the fixed-basis side


def test_pathology_aligned_alpha_is_clean():
    report = pathology_probe(basis=0.0, alpha=0.0, pairs_per_step=2_000, seed=3,
                             b_angles=default_b_angles(5))
    assert report.a_double_rate == 0.0
    assert report.a_single_rate == 1.0
    assert report.max_match_deviation is not None
    # An empty scan is refused, not replaced by the default angles.
    with pytest.raises(ValueError, match="at least 2 steps"):
        pathology_probe(basis=0.0, alpha=0.0, pairs_per_step=2_000, seed=3, b_angles=())


def test_pathology_noise_splits_tie_to_quarter_doubles():
    station_a = StationConfig(angle=0.0, threshold=0.5, noise_sigma=0.05)
    report = pathology_probe(basis=0.0, alpha=PI / 4, station_a=station_a,
                             pairs_per_step=5_000, seed=3, b_angles=default_b_angles(5))
    assert report.a_double_rate == pytest.approx(0.25, abs=0.015)


# --- CSV / summary, as the scan subcommand writes them ------------------------------------------

def _scan_out(tmp_path, *flags: str):
    out = tmp_path / "out"
    assert main(["scan", *flags, "--steps", "3", "--pairs", "500", "--seed", "5",
                 "--out", str(out)]) == 0
    return out


def test_scan_csv_layout(tmp_path):
    text = (_scan_out(tmp_path, "--tb", "0.75") / "scan.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == SCAN_CSV_HEADER
    assert len(lines) == 4
    row = lines[1].split(",")
    assert len(row) == 13
    assert float(row[0]) == 0.0
    assert text.endswith("\n") and "\r" not in text


def test_scan_csv_nan_for_undefined_steps(tmp_path):
    # A fixed-basis source bisected by A's analyzer: every A trial is a double.
    out = _scan_out(tmp_path, "--source", "fixed-hv", "--alpha", repr(PI / 4))
    assert (out / "scan.csv").read_text().split("\n")[1].endswith(",nan,nan")


def test_scan_summary_fields(tmp_path):
    out = _scan_out(tmp_path, "--tb", "0.75")
    text = (out / "summary.txt").read_text()
    sha = json.loads((out / "manifest.json").read_text())["config_sha256"]
    assert text.splitlines()[0].startswith("singles_ratio = ")
    assert "coincidence_modulation = " in text
    assert "seed = 5" in text
    assert f"config_sha256 = {sha}" in text
