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
the result, and identical (config, seed) reproduce identical output. Each
step or CHSH sub-run is counted by optics._count_pairs, which walks the
stream in blocks and keeps at most one int8 code per pair and station; its
table is that of optics.measure_pairs' codes on the same stream, and the
blocking changes no output byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .domain import (
    STANDARD_CHSH_ANGLES,
    CountTable,
    NoCoincidencesError,
    chsh,
    correlation,
    correlation_stderr,
    match_probability,
)
from .intervals import arc_overlaps
from .optics import (
    FixedBasisSource,
    IsotropicSource,
    SourceModel,
    StationConfig,
    _count_pairs,
)

DEFAULT_SCAN_STEPS = 33
DEFAULT_PAIRS_PER_STEP = 100_000


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


def run_scan_step(cfg: ScanConfig, step_index: int) -> ScanStep:
    """Run one scan step on its own stream derived from (seed, step_index)."""
    b_angle = cfg.b_angles[step_index]
    rng = np.random.default_rng([cfg.seed, step_index])
    station_b = replace(cfg.station_b, angle=b_angle)
    counts = _count_pairs(cfg.source, cfg.station_a, station_b, cfg.pairs_per_step, rng)
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
    total_a = sum(s.counts.singles_a for s in result.steps)
    if total_a == 0:
        raise ValueError("no singles at station A")
    return sum(s.counts.singles_b for s in result.steps) / total_a


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

def _windows(threshold: float, shift: float, plus, minus) -> list[tuple]:
    """A zero-noise station's firing arcs (start, length, label) on the period-pi
    circle, turned by shift: each channel fires on an arc of width 2*acos(sqrt(T))
    centered on 0 (plus) or pi/2 (minus). Below T = 0.5 the arcs would overlap,
    giving doubles positive measure, so such thresholds are rejected."""
    if not 0.5 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold!r} outside [0.5, 1]")
    w = math.acos(math.sqrt(threshold))
    return [(math.pi - w + shift, 2.0 * w, plus), (0.5 * math.pi - w + shift, 2.0 * w, minus)]


def _overlap_matrix(theta: float, t_a: float, t_b: float) -> dict[tuple[int, int], float]:
    # Work in psi = (phi - angle_a) mod pi. A's windows sit at shift 0. B
    # receives the orthogonal pulse, which swaps its plus/minus windows,
    # and its analyzer offset shifts them by theta = angle_b - angle_a.
    return arc_overlaps(_windows(t_a, 0.0, 1, -1), _windows(t_b, theta, -1, 1), math.pi)


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


def chsh_report_from_tables(
    tables: dict[tuple[int, int], CountTable],
    angles_a: tuple[float, float],
    angles_b: tuple[float, float],
) -> ChshReport:
    """Build a ChshReport from one CountTable per (setting_a, setting_b).

    run_chsh reports through it, and tables tallied elsewhere, such as
    match_coincidences', can too. Raises NoCoincidencesError if any of the
    four tables is empty.
    """
    missing = [ij for i in (0, 1) for j in (0, 1) if (ij := (i, j)) not in tables]
    if missing:
        raise ValueError(f"missing setting pairs: {missing}")
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
        tables[(i, j)] = _count_pairs(source, cfg_a_pair[i], cfg_b_pair[j], pairs_per_setting, rng)
    angles_a = (cfg_a_pair[0].angle, cfg_a_pair[1].angle)
    angles_b = (cfg_b_pair[0].angle, cfg_b_pair[1].angle)
    return chsh_report_from_tables(tables, angles_a, angles_b)


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
        b_angles=default_b_angles() if b_angles is None else b_angles,
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
