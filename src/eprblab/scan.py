"""Experiment orchestration and statistics.

The scan protocol holds station A's analyzer fixed and sweeps station B
over a list of angles, tabulating the four coincidence cells together with
per-side singles, doubles and misses at every step. On top of that sit the
CHSH runs over four setting pairs, the calibration diagnostics (singles
asymmetry between the sides, modulation of the total coincidence rate
across the sweep), the fixed-basis pathology probe, and an exact zero-noise
correlation oracle obtained by integrating the detection-window overlaps
instead of sampling them.

Every step runs on its own random stream derived from (base seed, step
index), so steps can execute in any order or in parallel without changing
the result, and identical (config, seed) reproduce identical output. A
step or CHSH sub-run with an isotropic source and two stations without
noise or losses is counted by optics._count_zero_noise from a per-bucket
code table, in bounded memory; every other stream goes through
optics.measure_many, which evaluates the stations block by block on every
available core. Both give the counts of the same per-pair kernel, and
neither the blocking nor the core count changes an output byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .domain import (
    CountTable,
    NoCoincidencesError,
    chsh,
    correlation,
    correlation_stderr,
    match_probability,
)
from .intervals import overlap_length, unroll_arc
from .optics import (
    DOUBLE_CODE,
    MINUS_CODE,
    MISS_CODE,
    PLUS_CODE,
    FixedBasisSource,
    IsotropicSource,
    SourceModel,
    StationConfig,
    _count_zero_noise,
    _tally,
    detection_windows,
    emit_phis,
    measure_many,
)

DEFAULT_SCAN_STEPS = 33
DEFAULT_PAIRS_PER_STEP = 100_000

#: Standard CHSH analyzer angles (a, a', b, b').
STANDARD_CHSH_ANGLES = (0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)


def default_b_angles(n_steps: int = DEFAULT_SCAN_STEPS) -> tuple[float, ...]:
    """n_steps uniform angles covering [0, pi] inclusive."""
    if n_steps < 2:
        raise ValueError(f"n_steps must be >= 2, got {n_steps!r}")
    return tuple(float(x) for x in np.linspace(0.0, math.pi, n_steps))


@dataclass(frozen=True)
class ScanConfig:
    """A full scan: source, fixed station A, station B swept over b_angles.

    station_b supplies B's calibration (threshold, noise, efficiency); its
    angle field is replaced by each step's b_angle.
    """

    source: SourceModel
    station_a: StationConfig
    station_b: StationConfig
    b_angles: tuple[float, ...] = default_b_angles()
    pairs_per_step: int = DEFAULT_PAIRS_PER_STEP
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "b_angles", tuple(float(a) for a in self.b_angles))
        if len(self.b_angles) < 2:
            raise ValueError("a scan needs at least 2 steps")
        if self.pairs_per_step < 1:
            raise ValueError("pairs_per_step must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class ScanStep:
    """One step's counts plus its derived statistics.

    match_probability and correlation are None when the step produced no
    coincidences (the counts stay visible; the explicit-error contract
    lives on the domain-level estimators).
    """

    b_angle: float
    counts: CountTable
    match_probability: float | None
    correlation: float | None


@dataclass(frozen=True)
class ScanResult:
    config: ScanConfig
    steps: tuple[ScanStep, ...]

    @property
    def total_singles_a(self) -> int:
        return sum(s.counts.singles_a for s in self.steps)

    @property
    def total_singles_b(self) -> int:
        return sum(s.counts.singles_b for s in self.steps)


def _table_from_cells(cells: np.ndarray) -> CountTable:
    """CountTable from the 16 (code_a, code_b) cell counts that optics._tally
    and optics._count_zero_noise return, at 4 * (code_a & 3) + (code_b & 3)."""
    m = cells.reshape(4, 4)
    miss, plus, minus, double = (c & 3 for c in (MISS_CODE, PLUS_CODE, MINUS_CODE, DOUBLE_CODE))
    single = [plus, minus]
    return CountTable(
        n_pp=int(m[plus, plus]),
        n_pm=int(m[plus, minus]),
        n_mp=int(m[minus, plus]),
        n_mm=int(m[minus, minus]),
        singles_a=int(m[single].sum()),
        singles_b=int(m[:, single].sum()),
        doubles_a=int(m[double].sum()),
        doubles_b=int(m[:, double].sum()),
        misses_a=int(m[miss].sum()),
        misses_b=int(m[:, miss].sum()),
        n_pairs=int(m.sum()),
    )


def tabulate_codes(codes_a: np.ndarray, codes_b: np.ndarray) -> CountTable:
    """CountTable from two stations' outcome-code arrays.

    Coincidence cells count trials where both stations produced a single;
    doubles and misses are excluded from the cells but reported per side.
    """
    return _table_from_cells(_tally(codes_a, codes_b))


def _count_stream(
    source: SourceModel, cfg_a: StationConfig, cfg_b: StationConfig, n: int, rng
) -> CountTable:
    """Counts of n pairs emitted by source on rng and measured by the two stations.

    Isotropic pairs at stations with zero noise and full efficiency take
    optics._count_zero_noise, which counts them from a per-bucket code
    table; every other regime draws and measures every pair.
    """
    if isinstance(source, IsotropicSource) and all(
        c.noise_sigma == 0.0 and c.efficiency == 1.0 for c in (cfg_a, cfg_b)
    ):
        return _table_from_cells(_count_zero_noise(n, cfg_a, cfg_b, rng))
    return tabulate_codes(*measure_many(emit_phis(source, n, rng), cfg_a, cfg_b, rng))


def run_scan_step(cfg: ScanConfig, step_index: int) -> ScanStep:
    """Run one scan step on its own stream derived from (seed, step_index)."""
    b_angle = cfg.b_angles[step_index]
    rng = np.random.default_rng([cfg.seed, step_index])
    station_b = replace(cfg.station_b, angle=b_angle)
    counts = _count_stream(cfg.source, cfg.station_a, station_b, cfg.pairs_per_step, rng)
    try:
        match = match_probability(counts)
        corr = correlation(counts)
    except NoCoincidencesError:
        match = corr = None
    return ScanStep(b_angle=b_angle, counts=counts, match_probability=match, correlation=corr)


def run_scan(cfg: ScanConfig) -> ScanResult:
    """Run every step of the scan; deterministic given (config, seed)."""
    return ScanResult(
        config=cfg,
        steps=tuple(run_scan_step(cfg, k) for k in range(len(cfg.b_angles))),
    )


def singles_asymmetry(result: ScanResult) -> float:
    """Total B singles over total A singles across the whole scan.

    Near 1 when both sides are calibrated alike; a miscalibrated side
    shrinks its own singles stream and drags the ratio away from 1.
    """
    total_a = result.total_singles_a
    if total_a == 0:
        raise ValueError("no singles at station A")
    return result.total_singles_b / total_a


def coincidence_modulation(result: ScanResult) -> float:
    """(max - min) / mean of per-step total coincidences across the scan.

    Zero when no step produced any coincidence. Flat (small) when at least
    one side accepts every trial; once both sides window their acceptance,
    the coincidence rate becomes a function of the relative angle and the
    modulation grows.
    """
    if len(result.steps) < 2:
        raise ValueError("modulation needs at least 2 scan steps")
    totals = [s.counts.coincidences for s in result.steps]
    mean = sum(totals) / len(totals)
    if mean == 0.0:
        return 0.0
    return (max(totals) - min(totals)) / mean


# --- exact zero-noise oracle -------------------------------------------------

def _station_segments(threshold: float, shift: float) -> tuple[list, list]:
    (p_start, p_len), (m_start, m_len) = detection_windows(threshold)
    plus = unroll_arc(p_start + shift, p_len, math.pi)
    minus = unroll_arc(m_start + shift, m_len, math.pi)
    return plus, minus


def _overlap_matrix(theta: float, t_a: float, t_b: float) -> dict[tuple[int, int], float]:
    # Work in psi = (phi - angle_a) mod pi. A's windows sit at shift 0. B
    # receives the orthogonal pulse, which swaps its plus/minus windows,
    # and its analyzer offset shifts them by theta = angle_b - angle_a.
    a_plus, a_minus = _station_segments(t_a, 0.0)
    b_minus, b_plus = _station_segments(t_b, theta)
    return {
        (1, 1): overlap_length(a_plus, b_plus),
        (1, -1): overlap_length(a_plus, b_minus),
        (-1, 1): overlap_length(a_minus, b_plus),
        (-1, -1): overlap_length(a_minus, b_minus),
    }


def analytic_correlation(theta: float, t_a: float, t_b: float) -> float:
    """Exact E(theta) of the zero-noise model by window-overlap integration.

    For sigma = 0 each channel fires on a fixed arc of the pair angle, so
    every coincidence cell's probability is an arc-overlap length and E is
    their signed ratio: a piecewise-linear closed form used as the oracle
    for the Monte Carlo scans. Thresholds below 0.5 are rejected (the
    channel windows would overlap, giving doubles positive measure and
    leaving E undefined without a doubles policy).
    """
    m = _overlap_matrix(theta, t_a, t_b)
    total = math.fsum(m.values())
    if total == 0.0:
        raise NoCoincidencesError("detection windows never coincide")
    return (m[(1, 1)] + m[(-1, -1)] - m[(1, -1)] - m[(-1, 1)]) / total


def analytic_coincidence_fraction(theta: float, t_a: float, t_b: float) -> float:
    """Exact zero-noise probability that a pair yields singles on both sides."""
    return math.fsum(_overlap_matrix(theta, t_a, t_b).values()) / math.pi


def triangle_correlation(theta: float) -> float:
    """The 0.5/0.5 closed form: E = -1 + 4*theta/pi on [0, pi/2], mirrored."""
    x = theta % math.pi
    if x > math.pi / 2:
        x = math.pi - x
    return -1.0 + 4.0 * x / math.pi


# --- CHSH runs ---------------------------------------------------------------

@dataclass(frozen=True)
class ChshReport:
    """Four correlations on the setting grid plus the combined statistic.

    Index [i][j] pairs A's i-th setting with B's j-th; s combines them as
    E[0][0] - E[0][1] + E[1][0] + E[1][1].
    """

    angles_a: tuple[float, float]
    angles_b: tuple[float, float]
    tables: tuple[tuple[CountTable, CountTable], tuple[CountTable, CountTable]]
    e_values: tuple[tuple[float, float], tuple[float, float]]
    stderrs: tuple[tuple[float, float], tuple[float, float]]
    s: float

    @property
    def abs_s(self) -> float:
        return abs(self.s)

    @property
    def se_s(self) -> float:
        return math.sqrt(math.fsum(se * se for row in self.stderrs for se in row))


def _report_from_tables(
    tables: dict[tuple[int, int], CountTable],
    angles_a: tuple[float, float],
    angles_b: tuple[float, float],
) -> ChshReport:
    e = {ij: correlation(tables[ij]) for ij in tables}
    se = {ij: correlation_stderr(tables[ij]) for ij in tables}
    s = chsh(e[(0, 0)], e[(0, 1)], e[(1, 0)], e[(1, 1)])
    return ChshReport(
        angles_a=angles_a,
        angles_b=angles_b,
        tables=((tables[(0, 0)], tables[(0, 1)]), (tables[(1, 0)], tables[(1, 1)])),
        e_values=((e[(0, 0)], e[(0, 1)]), (e[(1, 0)], e[(1, 1)])),
        stderrs=((se[(0, 0)], se[(0, 1)]), (se[(1, 0)], se[(1, 1)])),
        s=s,
    )


def chsh_report_from_tables(
    tables: dict[tuple[int, int], CountTable],
    angles_a: tuple[float, float],
    angles_b: tuple[float, float],
) -> ChshReport:
    """Build a ChshReport from externally tabulated per-setting counts.

    Used by the event-file pipeline, whose window matcher produces one
    CountTable per (setting_a, setting_b). Raises NoCoincidencesError if
    any of the four tables is empty.
    """
    missing = [ij for i in (0, 1) for j in (0, 1) if (ij := (i, j)) not in tables]
    if missing:
        raise ValueError(f"missing setting pairs: {missing}")
    return _report_from_tables(tables, angles_a, angles_b)


def default_chsh_configs(
    t_a: float = 0.5,
    t_b: float = 0.5,
    noise_a: float = 0.0,
    noise_b: float = 0.0,
    efficiency_a: float = 1.0,
    efficiency_b: float = 1.0,
) -> tuple[tuple[StationConfig, StationConfig], tuple[StationConfig, StationConfig]]:
    """Station pairs at the standard angles (0, pi/4) and (pi/8, 3*pi/8)."""
    a, a_prime, b, b_prime = STANDARD_CHSH_ANGLES
    pair_a = (
        StationConfig(angle=a, threshold=t_a, noise_sigma=noise_a, efficiency=efficiency_a),
        StationConfig(angle=a_prime, threshold=t_a, noise_sigma=noise_a, efficiency=efficiency_a),
    )
    pair_b = (
        StationConfig(angle=b, threshold=t_b, noise_sigma=noise_b, efficiency=efficiency_b),
        StationConfig(angle=b_prime, threshold=t_b, noise_sigma=noise_b, efficiency=efficiency_b),
    )
    return pair_a, pair_b


def run_chsh(
    source: SourceModel,
    cfg_a_pair: tuple[StationConfig, StationConfig],
    cfg_b_pair: tuple[StationConfig, StationConfig],
    pairs_per_setting: int,
    seed: int,
) -> ChshReport:
    """Four sub-runs over the setting grid, one per (A setting, B setting).

    Each sub-run draws pairs_per_setting emissions on a stream derived from
    (seed, sub-run index), in grid order (0,0), (0,1), (1,0), (1,1).
    Zero-coincidence sub-runs raise NoCoincidencesError.
    """
    if pairs_per_setting < 1:
        raise ValueError("pairs_per_setting must be >= 1")
    tables: dict[tuple[int, int], CountTable] = {}
    for idx, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        rng = np.random.default_rng([seed, idx])
        tables[(i, j)] = _count_stream(source, cfg_a_pair[i], cfg_b_pair[j], pairs_per_setting, rng)
    angles_a = (cfg_a_pair[0].angle, cfg_a_pair[1].angle)
    angles_b = (cfg_b_pair[0].angle, cfg_b_pair[1].angle)
    return _report_from_tables(tables, angles_a, angles_b)


# --- fixed-basis pathology probe ----------------------------------------------

@dataclass(frozen=True)
class PathologyReport:
    """B-scan with a fixed-basis source versus the same scan run isotropically.

    The headline numbers are station A's double/miss rates: with the source
    basis bisected by A's analyzer, both of A's channels sit on the exact
    0.5 tie every trial and the inclusive threshold turns every trial into
    a double. max_match_deviation compares the two match curves on steps
    where both are defined and is None when they never are.
    """

    basis: float
    alpha: float
    a_double_rate: float
    a_single_rate: float
    a_miss_rate: float
    max_match_deviation: float | None
    fixed_scan: ScanResult
    isotropic_scan: ScanResult


def pathology_probe(
    basis: float,
    alpha: float,
    station_a: StationConfig | None = None,
    station_b: StationConfig | None = None,
    b_angles: tuple[float, ...] | None = None,
    pairs_per_step: int = 10_000,
    seed: int = 0,
) -> PathologyReport:
    """Scan B with a fixed-basis source and station A held at alpha.

    The isotropic comparison scan runs with the same stations and angles on
    seed + 1. Station defaults are threshold 0.5, no noise, full efficiency.
    """
    station_a = replace(station_a or StationConfig(angle=0.0), angle=alpha)
    station_b = station_b or StationConfig(angle=0.0)
    cfg_fixed = ScanConfig(
        source=FixedBasisSource(basis=basis),
        station_a=station_a,
        station_b=station_b,
        b_angles=b_angles or default_b_angles(),
        pairs_per_step=pairs_per_step,
        seed=seed,
    )
    cfg_iso = replace(cfg_fixed, source=IsotropicSource(), seed=seed + 1)
    fixed = run_scan(cfg_fixed)
    iso = run_scan(cfg_iso)

    n_total = sum(s.counts.n_pairs for s in fixed.steps)
    doubles = sum(s.counts.doubles_a for s in fixed.steps)
    singles = sum(s.counts.singles_a for s in fixed.steps)
    misses = sum(s.counts.misses_a for s in fixed.steps)
    deviations = [
        abs(f.match_probability - i.match_probability)
        for f, i in zip(fixed.steps, iso.steps)
        if f.match_probability is not None and i.match_probability is not None
    ]
    return PathologyReport(
        basis=basis,
        alpha=alpha,
        a_double_rate=doubles / n_total,
        a_single_rate=singles / n_total,
        a_miss_rate=misses / n_total,
        max_match_deviation=max(deviations) if deviations else None,
        fixed_scan=fixed,
        isotropic_scan=iso,
    )


# --- CSV / summary emission ----------------------------------------------------

SCAN_CSV_HEADER = (
    "b_angle_rad,n_pp,n_pm,n_mp,n_mm,singles_a,singles_b,"
    "doubles_a,doubles_b,misses_a,misses_b,match_prob,E"
)


def _fmt(x: float | None) -> str:
    return "nan" if x is None else repr(float(x))


def scan_result_csv(result: ScanResult) -> str:
    """The scan's per-step table in the fixed column layout, LF-terminated."""
    lines = [SCAN_CSV_HEADER]
    for s in result.steps:
        c = s.counts
        lines.append(
            f"{_fmt(s.b_angle)},{c.n_pp},{c.n_pm},{c.n_mp},{c.n_mm},"
            f"{c.singles_a},{c.singles_b},{c.doubles_a},{c.doubles_b},"
            f"{c.misses_a},{c.misses_b},{_fmt(s.match_probability)},{_fmt(s.correlation)}"
        )
    return "\n".join(lines) + "\n"


def scan_summary_text(result: ScanResult, config_sha256: str) -> str:
    """Scan-level record: singles ratio, modulation, seed, config hash."""
    try:
        ratio: float | None = singles_asymmetry(result)
    except ValueError:
        ratio = None
    lines = [
        f"singles_ratio = {_fmt(ratio)}",
        f"coincidence_modulation = {_fmt(coincidence_modulation(result))}",
        f"seed = {result.config.seed}",
        f"config_sha256 = {config_sha256}",
    ]
    return "\n".join(lines) + "\n"
