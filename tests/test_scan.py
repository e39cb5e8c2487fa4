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
    StationConfig,
    analytic_coincidence_fraction,
    analytic_correlation,
    chsh_report_from_tables,
    coincidence_modulation,
    correlation,
    default_b_angles,
    default_chsh_configs,
    detect_many,
    emit_phis,
    malus_intensities,
    measure_many,
    pathology_probe,
    run_chsh,
    run_scan,
    run_scan_step,
    scan_result_csv,
    scan_summary_text,
    singles_asymmetry,
    singles_probability,
    tabulate_codes,
    triangle_correlation,
)
import eprblab.optics as optics
import eprblab.scan as scan
from eprblab.optics import DOUBLE_CODE, MINUS_CODE, MISS_CODE, PLUS_CODE
from eprblab.scan import SCAN_CSV_HEADER

PI = math.pi

thetas = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
thresholds = st.floats(min_value=0.5, max_value=0.99, allow_nan=False)


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
    return correlation(tabulate_codes(codes_a, codes_b))


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
    """tabulate_codes as a chain of masks and count_nonzero, kept as the oracle."""
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
    """Every pair emitted, measured and tabulated: the path of every regime."""
    return reference_tabulate_codes(*measure_many(emit_phis(source, n, rng), cfg_a, cfg_b, rng))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5000), st.integers(0, 2**32))
def test_tabulate_codes_equals_reference(n, seed):
    codes = np.array([MISS_CODE, PLUS_CODE, MINUS_CODE, DOUBLE_CODE], dtype=np.int8)
    rng = np.random.default_rng(seed)
    codes_a, codes_b = codes[rng.integers(0, 4, n)], codes[rng.integers(0, 4, n)]
    assert tabulate_codes(codes_a, codes_b) == reference_tabulate_codes(codes_a, codes_b)


TABLE_ROWS = optics._TABLE_ROWS
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
    st.sampled_from((1, 2, TABLE_ROWS - 1, TABLE_ROWS, TABLE_ROWS + 1, 2 * TABLE_ROWS + 1))
    | st.integers(1, 3000),
    zero_noise_stations,
    zero_noise_stations,
    st.integers(0, 2**32),
)
@example(2 * TABLE_ROWS + 1, StationConfig(1e12, 0.0), StationConfig(-1e6, 1.0), 3)
@example(TABLE_ROWS + 1, StationConfig(PI / 4, 0.5), StationConfig(3 * PI / 8, 0.92), 4)
@example(TABLE_ROWS, StationConfig(-PI, 1.0), StationConfig(PI / 8, 0.0), 5)
# ~7 % of pairs unproven: the unproven batch fills up before the last block
@example(20 * TABLE_ROWS + 3, StationConfig(0.1, 0.0), StationConfig(0.2, 1.0), 6)
def test_zero_noise_counts_equal_every_pair_measured(n, cfg_a, cfg_b, seed):
    rng, ref_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
    got = scan._count_stream(IsotropicSource(), cfg_a, cfg_b, n, rng)
    assert got == reference_count(IsotropicSource(), cfg_a, cfg_b, n, ref_rng)
    assert rng.bit_generator.random_raw() == ref_rng.bit_generator.random_raw()


@pytest.mark.parametrize(
    "source, cfg_b, table",
    [
        (IsotropicSource(), StationConfig(0.3, 0.75), True),
        (FixedBasisSource(0.0), StationConfig(0.3, 0.75), False),
        (IsotropicSource(), StationConfig(0.3, 0.75, noise_sigma=0.05), False),
        (IsotropicSource(), StationConfig(0.3, 0.75, efficiency=0.3), False),
    ],
)
def test_count_stream_takes_the_table_only_without_noise_or_loss(monkeypatch, source, cfg_b, table):
    calls = []
    monkeypatch.setattr(scan, "measure_many", lambda *a: calls.append(1) or measure_many(*a))
    cfg_a = StationConfig(0.0, 0.5)
    got = scan._count_stream(source, cfg_a, cfg_b, 1000, np.random.default_rng(4))
    assert got == reference_count(source, cfg_a, cfg_b, 1000, np.random.default_rng(4))
    assert (not calls) == table


def test_zero_noise_chsh_memory_does_not_grow_with_pairs():
    n = 1 << 20
    assert n >= 16 * TABLE_ROWS  # at least 16 raw-draw blocks per setting
    pair_a, pair_b = default_chsh_configs(t_a=0.5, t_b=0.75)
    tracemalloc.start()
    try:
        report = run_chsh(IsotropicSource(), pair_a, pair_b, n, seed=21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.tables[0][0].n_pairs == n
    assert peak < 4 * 2**20  # a single float64 angle array of n pairs is 8 MiB


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


def test_pathology_noise_splits_tie_to_quarter_doubles():
    station_a = StationConfig(angle=0.0, threshold=0.5, noise_sigma=0.05)
    report = pathology_probe(basis=0.0, alpha=PI / 4, station_a=station_a,
                             pairs_per_step=5_000, seed=3, b_angles=default_b_angles(5))
    assert report.a_double_rate == pytest.approx(0.25, abs=0.015)


# --- CSV / summary --------------------------------------------------------------------------------

def test_scan_csv_layout():
    result = _scan(0.5, 0.75, steps=3, pairs=500)
    text = scan_result_csv(result)
    lines = text.strip().split("\n")
    assert lines[0] == SCAN_CSV_HEADER
    assert len(lines) == 4
    row = lines[1].split(",")
    assert len(row) == 13
    assert float(row[0]) == 0.0
    assert text.endswith("\n") and "\r" not in text


def test_scan_csv_nan_for_undefined_steps():
    report = pathology_probe(basis=0.0, alpha=PI / 4, pairs_per_step=200, seed=3,
                             b_angles=default_b_angles(3))
    text = scan_result_csv(report.fixed_scan)
    assert ",nan,nan" in text.split("\n")[1]


def test_scan_summary_fields():
    result = _scan(0.5, 0.75, steps=3, pairs=500)
    text = scan_summary_text(result, "deadbeef")
    assert text.splitlines()[0].startswith("singles_ratio = ")
    assert "coincidence_modulation = " in text
    assert "seed = 5" in text
    assert "config_sha256 = deadbeef" in text
