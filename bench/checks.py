"""Correctness oracles for the outputs of one CLI command.

Each check reads the files a command wrote into its output directory and
returns an Outcome: the reasons it failed (empty when correct), the work the
command did in the workload's unit (pairs, records or trials) and a few
values worth reporting. The references are independent of the Monte Carlo
that produced the outputs: the exact zero-noise window-overlap oracle for
scans, closed-form |S| for CHSH, closed-form disk joints for the disk demos,
and the generator's ground-truth pairing for the event matcher.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

#: A σ = 0 scan step fails when its E sits further than this many standard
#: errors from the oracle. 132 steps a pass; P(|z| > 6) is about 2e-9.
MAX_ABS_Z = 6.0
#: A whole scan fails when the sum of its steps' z^2 exceeds its degrees of
#: freedom k by this many standard deviations sqrt(2k). This catches a small
#: shift of every step that no single step shows.
CHI2_SIGMAS = 6.0
#: README tolerance on |S| for the classical, quantum and super-quantum runs.
CHSH_TOLERANCE = 0.05
#: Multinomial standard errors allowed per cell in the disk-demo TV bound.
TV_SIGMAS = 6.0
#: The special construction is exact up to float rounding.
EXACT_TV_LIMIT = 1e-12


@dataclass
class Outcome:
    reasons: list[str] = field(default_factory=list)
    work: int = 0
    info: dict = field(default_factory=dict)

    def require(self, condition: bool, reason: str) -> None:
        if not condition:
            self.reasons.append(reason)


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every CSV and summary.txt a command wrote."""
    names = sorted(p.name for p in out_dir.glob("*.csv")) + ["summary.txt"]
    return {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest() for n in names}


def read_summary(out_dir: Path) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in (out_dir / "summary.txt").read_text().splitlines())
    return {k: v for k, v in pairs}


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def _data_lines(path: Path) -> int:
    return path.read_bytes().count(b"\n") - 1


def _step_counts(row: dict[str, str], lab) -> object:
    return lab.domain.CountTable(
        **{k: int(row[k]) for k in ("n_pp", "n_pm", "n_mp", "n_mm", "singles_a", "singles_b")}
    )


# --- scan-chsh -----------------------------------------------------------------


def scan_oracle(out_dir: Path, lab, ta: float, tb: float, alpha: float, steps: int, pairs: int):
    """σ = 0 scan: each step's E, and all steps together, agree with the oracle."""
    o = Outcome(work=steps * pairs)
    rows = _rows(out_dir / "scan.csv")
    o.require(len(rows) == steps, f"scan.csv has {len(rows)} rows, want {steps}")
    zs = []
    for row in rows:
        theta = float(row["b_angle_rad"]) - alpha
        e = float(row["E"])
        try:
            exact = lab.scan.analytic_correlation(theta, ta, tb)
        except lab.domain.NoCoincidencesError:
            o.require(math.isnan(e), f"E = {e} where the oracle has no coincidences")
            continue
        if math.isnan(e):
            expected = lab.scan.analytic_coincidence_fraction(theta, ta, tb) * pairs
            o.require(expected < 5.0, f"no coincidences at theta {theta}, expected {expected:.1f}")
            continue
        counts = _step_counts(row, lab)
        # The larger of the observed and the oracle's standard error, so an
        # all-one-sign step near E = ±1 is not judged against se = 0.
        se = max(
            lab.domain.correlation_stderr(counts),
            math.sqrt(max(0.0, 1.0 - exact * exact) / counts.coincidences),
        )
        if se == 0.0:
            o.require(abs(e - exact) <= 1e-12, f"E = {e!r}, oracle {exact!r} at theta {theta}")
            continue
        z = (e - exact) / se
        zs.append(z)
        o.require(abs(z) <= MAX_ABS_Z, f"E = {e!r} is {z:+.2f} se from oracle {exact!r}")
    chi2 = math.fsum(z * z for z in zs)
    limit = len(zs) + CHI2_SIGMAS * math.sqrt(2 * len(zs))
    o.require(chi2 <= limit, f"chi^2 {chi2:.1f} over {len(zs)} steps exceeds {limit:.1f}")
    o.info.update(max_abs_z=max(map(abs, zs), default=0.0), chi2_per_step=chi2 / len(zs) if zs else 0.0)
    return o


def scan_shape(out_dir: Path, lab, steps: int, pairs: int):
    """Noisy, inefficient scan (no oracle yet): every step accounts for every pair."""
    o = Outcome(work=steps * pairs)
    rows = _rows(out_dir / "scan.csv")
    o.require(len(rows) == steps, f"scan.csv has {len(rows)} rows, want {steps}")
    for row in rows:
        c = {k: int(v) for k, v in row.items() if k.startswith(("n_", "singles", "doubles", "misses"))}
        for side in ("a", "b"):
            total = c[f"singles_{side}"] + c[f"doubles_{side}"] + c[f"misses_{side}"]
            o.require(total == pairs, f"side {side} accounts for {total} of {pairs} pairs")
        cells = c["n_pp"] + c["n_pm"] + c["n_mp"] + c["n_mm"]
        o.require(cells <= min(c["singles_a"], c["singles_b"]), "more coincidences than singles")
    return o


def chsh_value(out_dir: Path, lab, expected: float, pairs: int):
    o = Outcome(work=4 * pairs)
    abs_s = float(read_summary(out_dir)["abs_s"])
    o.info["abs_s"] = abs_s
    o.require(
        abs(abs_s - expected) <= CHSH_TOLERANCE,
        f"|S| = {abs_s!r}, want {expected} ± {CHSH_TOLERANCE}",
    )
    o.require(_data_lines(out_dir / "chsh.csv") == 4, "chsh.csv does not hold 4 settings")
    return o


def pathology_rates(out_dir: Path, lab, steps: int, pairs: int):
    """Fixed basis bisected by A's analyzer: every A trial is an exact double."""
    o = Outcome(work=2 * steps * pairs)
    s = read_summary(out_dir)
    o.info["a_double_rate"] = float(s["a_double_rate"])
    o.require(float(s["a_double_rate"]) == 1.0, f"a_double_rate = {s['a_double_rate']}, want 1.0")
    o.require(float(s["a_single_rate"]) == 0.0, f"a_single_rate = {s['a_single_rate']}, want 0")
    o.require(float(s["a_miss_rate"]) == 0.0, f"a_miss_rate = {s['a_miss_rate']}, want 0")
    o.require(_data_lines(out_dir / "pathology.csv") == steps, "pathology.csv row count")
    return o


# --- event-pipeline ----------------------------------------------------------------


def events_gen(out_dir: Path, lab):
    s = read_summary(out_dir)
    records_a, records_b = int(s["records_a"]), int(s["records_b"])
    o = Outcome(work=records_a + records_b)
    o.require(_data_lines(out_dir / "events_a.csv") == records_a, "events_a.csv row count")
    o.require(_data_lines(out_dir / "events_b.csv") == records_b, "events_b.csv row count")
    o.require(_data_lines(out_dir / "truth.csv") == int(s["truth_pairs"]), "truth.csv row count")
    return o


def events_match(out_dir: Path, lab, gen_dir: str, floor: float):
    """Cells add up to n_matched; recovery of true pairs stays above the floor.

    gen_dir names the sibling directory `events gen` wrote the streams into.
    """
    gen = read_summary(out_dir.parent / gen_dir)
    s = read_summary(out_dir)
    matched, truth = int(s["n_matched"]), int(gen["truth_pairs"])
    o = Outcome(work=int(gen["records_a"]) + int(gen["records_b"]))
    cells = sum(
        int(row[k]) for row in _rows(out_dir / "matched.csv") for k in ("n_pp", "n_pm", "n_mp", "n_mm")
    )
    o.require(cells == matched, f"matched.csv cells sum to {cells}, n_matched = {matched}")
    recovery = matched / truth if truth else 0.0
    o.info.update(
        matched=matched,
        truth_pairs=truth,
        recovery_ratio=recovery,
        greedy_loss=truth - matched,
        abs_s=float(s["abs_s"]),
    )
    o.require(recovery >= floor, f"recovery {recovery:.5f} below floor {floor}")
    return o


# --- disk-policies -------------------------------------------------------------------


def singlet_pmf(theta: float) -> tuple[float, float, float, float]:
    """Anticorrelated singlet joint (p_pp, p_pm, p_mp, p_mm) at relative angle theta."""
    same = 0.5 * math.sin(theta) ** 2
    diff = 0.5 - same
    return same, diff, diff, same


UNIFORM_PMF = (0.25, 0.25, 0.25, 0.25)


def _tv(p, q) -> float:
    return 0.5 * math.fsum(abs(x - y) for x, y in zip(p, q))


def disk_tv(out_dir: Path, lab, n: int, target, expected, exact: bool = False):
    """tv_distance within its Monte Carlo bound of TV(expected joint, target).

    expected is the joint the sampler realizes in the limit; the bound sums
    TV_SIGMAS multinomial standard errors over the four cells.
    """
    o = Outcome(work=n)
    s = read_summary(out_dir)
    tv = float(s["tv_distance"])
    reported_target = [float(x) for x in s["target_pmf"].split(",")]
    o.require(
        max(abs(x - y) for x, y in zip(reported_target, target)) <= 1e-12,
        f"target_pmf {reported_target} differs from the closed form {list(target)}",
    )
    tv0 = _tv(expected, target)
    bound = 0.5 * TV_SIGMAS * math.fsum(math.sqrt(p * (1.0 - p) / n) for p in expected) + 1e-12
    o.info.update(tv_distance=tv, expected_tv=tv0)
    o.require(abs(tv - tv0) <= bound, f"tv_distance {tv!r} outside {tv0!r} ± {bound:.2e}")
    if exact:
        exact_tv = float(s["exact_tv_distance"])
        o.info["exact_tv_distance"] = exact_tv
        o.require(exact_tv <= EXACT_TV_LIMIT, f"exact_tv_distance {exact_tv!r} > {EXACT_TV_LIMIT}")
    return o
