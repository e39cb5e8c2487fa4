"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Heavyweight runs are shared through module-scoped fixtures;
every tolerance is stated inline next to its assertion.
"""

import json
import math

import numpy as np
import pytest

from eprblab import (
    IsotropicSource,
    SamplingMode,
    ScanConfig,
    SingletKind,
    STANDARD_CHSH_ANGLES,
    StationConfig,
    analytic_correlation,
    build_bell_special,
    build_singlet_disk,
    chsh_report_from_tables,
    coincidence_modulation,
    default_b_angles,
    default_chsh_configs,
    generate_events,
    joint_pmf_from_splits,
    match_coincidences,
    pathology_probe,
    run_chsh,
    run_scan,
    sample_separated,
    singles_asymmetry,
    split_disk,
)
from eprblab.cli import main as cli_main

PI = math.pi
ANTI = SingletKind.ANTICORRELATED


def triangle_correlation(theta: float) -> float:
    """The 0.5/0.5 closed form: E = -1 + 4*theta/pi on [0, pi/2], mirrored."""
    x = theta % math.pi
    if x > math.pi / 2:
        x = math.pi - x
    return -1.0 + 4.0 * x / math.pi


def _check(cid: str, desc: str, ok: bool) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {cid}: {desc}"
    print(line)
    assert ok, line


def _scan(t_a, t_b, steps, pairs, seed):
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


@pytest.fixture(scope="module")
def scan_05_16():
    return _scan(0.5, 0.5, steps=16, pairs=100_000, seed=31)


@pytest.fixture(scope="module")
def scan_075_33():
    return _scan(0.5, 0.75, steps=33, pairs=100_000, seed=32)


@pytest.fixture(scope="module")
def scan_092_33():
    return _scan(0.5, 0.92, steps=33, pairs=100_000, seed=33)


@pytest.fixture(scope="module")
def chsh_05():
    pair_a, pair_b = default_chsh_configs(t_a=0.5, t_b=0.5)
    return run_chsh(IsotropicSource(), pair_a, pair_b, 100_000, seed=41)


@pytest.fixture(scope="module")
def chsh_075():
    pair_a, pair_b = default_chsh_configs(t_a=0.5, t_b=0.75)
    return run_chsh(IsotropicSource(), pair_a, pair_b, 100_000, seed=42)


@pytest.fixture(scope="module")
def chsh_092():
    pair_a, pair_b = default_chsh_configs(t_a=0.5, t_b=0.92)
    return run_chsh(IsotropicSource(), pair_a, pair_b, 100_000, seed=43)


def test_c01_disk_reductio_demo():
    target = 0.5 * math.sin(PI / 8) ** 2  # 0.07322...
    da, db = split_disk(build_singlet_disk(PI / 8, ANTI))
    shared = sample_separated(da, db, SamplingMode.SHARED_LAMBDA, 1_000_000, seed=51)
    indep = sample_separated(da, db, SamplingMode.INDEPENDENT_LAMBDAS, 1_000_000, seed=52)
    p_shared = shared.n_pp / shared.n_pairs
    p_indep = indep.n_pp / indep.n_pairs
    _check(
        "C1",
        f"shared p_pp = {p_shared:.5f} (target {target:.5f} +/- 0.003), "
        f"independent p_pp = {p_indep:.5f} (target 0.250 +/- 0.003)",
        abs(p_shared - target) <= 0.003 and abs(p_indep - 0.25) <= 0.003,
    )


def test_c02_special_construction_exact():
    worst = 0.0
    for alpha in np.linspace(0.0, 2 * PI, 32, endpoint=False):
        p = joint_pmf_from_splits(*build_bell_special(float(alpha)))
        worst = max(worst, abs(p.p_pp - 0.5 * math.sin(alpha) ** 2))
    _check("C2", f"max |p_pp - sin^2(a)/2| over 32 alphas = {worst:.2e} (<= 1e-12)", worst <= 1e-12)


def test_c03_classical_calibration(scan_05_16, chsh_05):
    worst_sigma = 0.0
    for step in scan_05_16.steps:
        target = triangle_correlation(step.b_angle)
        se = math.sqrt(max(0.0, 1.0 - target**2) / step.counts.coincidences) + 1e-9
        worst_sigma = max(worst_sigma, abs(step.correlation - target) / se)
    ratio = singles_asymmetry(scan_05_16)
    ok = (
        worst_sigma <= 3.0
        and abs(chsh_05.abs_s - 2.0) <= 0.05
        and abs(ratio - 1.0) <= 0.01
    )
    _check(
        "C3",
        f"triangle law worst dev = {worst_sigma:.2f} sigma (<= 3), "
        f"|S| = {chsh_05.abs_s:.3f} (2.00 +/- 0.05), "
        f"singles ratio = {ratio:.4f} (1.00 +/- 0.01)",
        ok,
    )


def test_c04_quantum_calibration(scan_075_33, chsh_075):
    e_pi8 = chsh_075.e_values[0][0]  # setting pair (a=0, b=pi/8)
    ratio = singles_asymmetry(scan_075_33)
    modulation = coincidence_modulation(scan_075_33)
    ok = (
        abs(e_pi8 - (-0.75)) <= 0.02
        and abs(chsh_075.abs_s - 3.0) <= 0.05
        and abs(ratio - 2.0 / 3.0) <= 0.01
        and modulation < 0.03
    )
    _check(
        "C4",
        f"E(pi/8) = {e_pi8:.4f} (-0.75 +/- 0.02), |S| = {chsh_075.abs_s:.3f} "
        f"(3.00 +/- 0.05), singles ratio = {ratio:.4f} (0.667 +/- 0.01), "
        f"modulation = {modulation:.4f} (< 0.03)",
        ok,
    )


def test_c05_super_quantum_calibration(scan_092_33, chsh_05, chsh_075, chsh_092):
    ratio = singles_asymmetry(scan_092_33)
    target_ratio = 4.0 * math.acos(math.sqrt(0.92)) / PI  # 0.36511
    ordered = chsh_05.abs_s < chsh_075.abs_s < chsh_092.abs_s
    ok = (
        abs(chsh_092.abs_s - 4.0) <= 0.05
        and abs(ratio - target_ratio) <= 0.01
        and ordered
    )
    _check(
        "C5",
        f"|S| = {chsh_092.abs_s:.3f} (4.00 +/- 0.05), singles ratio = {ratio:.4f} "
        f"({target_ratio:.3f} +/- 0.01), ordering 2 < 3 < 4 regime holds = {ordered}",
        ok,
    )


def test_c06_broken_invariance():
    result = _scan(0.75, 0.75, steps=33, pairs=100_000, seed=34)
    modulation = coincidence_modulation(result)
    _check("C6", f"0.75/0.75 coincidence modulation = {modulation:.3f} (> 0.10)", modulation > 0.10)


def test_c07_efficiency_invariance(chsh_075):
    pair_a, pair_b = default_chsh_configs(
        t_a=0.5, t_b=0.75, efficiency_a=0.05, efficiency_b=0.05
    )
    thin = run_chsh(IsotropicSource(), pair_a, pair_b, 400_000, seed=44)
    worst_sigma = 0.0
    for i in (0, 1):
        for j in (0, 1):
            se = math.sqrt(
                chsh_075.stderrs[i][j] ** 2 + thin.stderrs[i][j] ** 2
            ) + 1e-12
            dev = abs(chsh_075.e_values[i][j] - thin.e_values[i][j]) / se
            worst_sigma = max(worst_sigma, dev)
    _check(
        "C7",
        f"thinning to 5% efficiency: worst E deviation = {worst_sigma:.2f} sigma (<= 3)",
        worst_sigma <= 3.0,
    )


def test_c08_pathology_probe():
    report = pathology_probe(
        basis=0.0, alpha=PI / 4, b_angles=default_b_angles(9), pairs_per_step=2_000, seed=35
    )
    _check(
        "C8",
        f"fixed-basis source, A at pi/4: double rate = {report.a_double_rate} (== 1.0 exactly)",
        report.a_double_rate == 1.0,
    )


def test_c09_pipeline_equivalence(chsh_075):
    from eprblab import GeneratorConfig

    a0, a1, b0, b1 = STANDARD_CHSH_ANGLES
    cfg = GeneratorConfig(
        source=IsotropicSource(),
        station_a=StationConfig(angle=0.0, threshold=0.5),
        station_b=StationConfig(angle=0.0, threshold=0.75),
        settings_a=(a0, a1),
        settings_b=(b0, b1),
        mean_rate=10_000.0,
        jitter_sigma=10e-9,
    )
    streams = generate_events(cfg, duration=0.5, seed=39)
    result = match_coincidences(streams.events_a, streams.events_b, 100)
    matched = set(map(tuple, result.pairs.tolist()))
    truth = set(map(tuple, streams.truth.tolist()))
    recovered = len(matched & truth) / len(truth)
    piped = chsh_report_from_tables(result.tables, (a0, a1), (b0, b1))
    tol = 3.0 * math.sqrt(piped.se_s**2 + chsh_075.se_s**2)
    dev = abs(piped.s - chsh_075.s)
    _check(
        "C9",
        f"file-pipeline |S| = {piped.abs_s:.3f} vs in-memory {chsh_075.abs_s:.3f} "
        f"(|dS| = {dev:.3f} <= 3 sigma = {tol:.3f}), truth recovery = {recovered:.6f} (== 1)",
        dev <= tol and recovered == 1.0,
    )


def test_c10_cli_determinism(tmp_path):
    scan_argv = ["scan", "--preset", "figure8-left", "--steps", "5", "--pairs", "2000",
                 "--seed", "17"]
    out1, out2, out3 = (tmp_path / n for n in ("s1", "s2", "s3"))
    assert cli_main(scan_argv + ["--out", str(out1)]) == 0
    assert cli_main(scan_argv + ["--out", str(out2)]) == 0
    same_rerun = (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()

    manifest = json.loads((out1 / "manifest.json").read_text())
    assert cli_main(list(manifest["argv"]) + ["--out", str(out3)]) == 0
    same_replay = (out3 / "scan.csv").read_bytes() == (out1 / "scan.csv").read_bytes()

    gen_argv = ["events", "gen", "--rate", "1000", "--duration", "0.5", "--seed", "18"]
    ga, gb = tmp_path / "g1", tmp_path / "g2"
    assert cli_main(gen_argv + ["--out", str(ga)]) == 0
    assert cli_main(gen_argv + ["--out", str(gb)]) == 0
    same_events = all(
        (ga / n).read_bytes() == (gb / n).read_bytes()
        for n in ("events_a.csv", "events_b.csv", "truth.csv")
    )
    _check(
        "C10",
        f"scan rerun byte-identical = {same_rerun}, manifest replay byte-identical = "
        f"{same_replay}, events gen byte-identical = {same_events}",
        same_rerun and same_replay and same_events,
    )
