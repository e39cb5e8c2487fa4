"""Command-line front end.

Subcommands: disk-demo, scan, chsh, pathology, events gen, events match.
Every run resolves its full configuration (hard defaults, then the optional
key = value config file, then explicit flags) and computes all of its
outputs; every table and summary.txt renders through domain's one cell
rule (_table, _summary). One helper, _write_run, then writes the run
record: it creates --out, deletes the outputs an earlier run's manifest
there lists and this run does not write, writes every output, and writes
manifest.json last, recording the command line, the resolved configuration
and its hash, the seed, and the output names. A run that fails before that
point leaves no --out. Re-running the manifest's argv reproduces every CSV
byte for byte.
The events subcommands also record run counters (and, for match, the sha256
of the input bytes it parsed) in the manifest, outside the hashed config.
Exit codes: 0 success, 1 runtime failure, 2 usage error.

Each handler imports the modules it runs when it is dispatched, as names
local to the handler, so a launch compiles only its subcommand's modules
and a name patched in its module is seen at the next call.

Calibration parameters (thresholds, noise widths, efficiencies) are never
silent: each subcommand's --help states them with their defaults, and the
resolved values always land in the manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from dataclasses import astuple, replace
from pathlib import Path

from . import __version__
from .domain import (
    STANDARD_CHSH_ANGLES,
    JointPmf,
    NoCoincidencesError,
    SingletKind,
    _summary,
    _table,
    check_angle,
    correlation,
)

SCAN_PRESETS = {
    "figure6": {"ta": 0.5, "tb": 0.5, "alpha": 0.0},
    "figure7": {"ta": 0.5, "tb": 0.92, "alpha": 0.0},
    "figure8-left": {"ta": 0.5, "tb": 0.75, "alpha": 0.0},
    "figure8-right": {"ta": 0.5, "tb": 0.75, "alpha": math.pi / 4},
}

_SOURCES = ("isotropic", "fixed-hv")

SCAN_CSV_HEADER = (
    "b_angle_rad,n_pp,n_pm,n_mp,n_mm,singles_a,singles_b,"
    "doubles_a,doubles_b,misses_a,misses_b,match_prob,E"
)
CHSH_CSV_HEADER = "setting,angle_a_rad,angle_b_rad,n_pp,n_pm,n_mp,n_mm,coincidences,E,stderr"
MATCH_CSV_HEADER = "setting_a,setting_b,n_pp,n_pm,n_mp,n_mm,singles_a,singles_b,E"

#: A negative decimal float literal, exponent optional, or -inf/-infinity/-nan,
#: optionally followed by a comma and the rest of an angle pair.
_NEGATIVE_FLOAT = re.compile(
    r"-(?:(?:\d+(?:\.\d*)?|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)(?:,.*)?\Z", re.IGNORECASE
)

#: The --policy names; _policy builds each one's disks knowledge policy.
_POLICIES = ("both-known", "assume-zero", "assume-fixed", "assume-random", "integrate")

#: Station flags: dest -> (config section, config key, default, help).
_STATION_KEYS = {
    "ta": ("station_a", "threshold", 0.5, "station A detection threshold (default 0.5)"),
    "tb": ("station_b", "threshold", 0.5, "station B detection threshold (default 0.5)"),
    "noise_a": ("station_a", "noise_sigma", 0.0, "station A channel noise sigma (default 0)"),
    "noise_b": ("station_b", "noise_sigma", 0.0, "station B channel noise sigma (default 0)"),
    "efficiency_a": ("station_a", "efficiency", 1.0, "station A efficiency in (0,1] (default 1)"),
    "efficiency_b": ("station_b", "efficiency", 1.0, "station B efficiency in (0,1] (default 1)"),
    "alpha": ("station_a", "angle", 0.0, "station A analyzer angle, rad (default 0)"),
}


def _fingerprint(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()
    ).hexdigest()


def _stale_outputs(out: Path, files: dict) -> list[Path]:
    """Files an earlier run's manifest in out lists that this run does not write.

    Only plain files directly in out count; a file no manifest lists, or an
    unreadable manifest, leaves everything in place.
    """
    try:
        listed = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["outputs"]
    except (OSError, ValueError, KeyError, TypeError):
        return []
    names = listed if isinstance(listed, list) else []
    paths = [out / name for name in names if isinstance(name, str) and name not in files]
    return [path for path in paths if path.parent == out and path.is_file()]


def _write_run(args, command: str, argv: list[str], seed: int | None, config: dict,
               files: dict, **blocks: dict) -> int:
    """Write one run record into --out and return the exit code 0.

    files maps each output name to its text, to an EventStream, which
    write_events writes, or to a (header, integer columns) pair, which the
    same chunked CSV writer writes as one row per index. The manifest is
    serialized before --out is created, so a NaN or infinity in it stops the
    run before anything is written; it is written last, after every output.
    When --out holds an earlier run, the outputs its manifest lists and this
    run does not write are deleted first, so no output of the earlier run
    stays beside the new ones.
    """
    doc = {
        "tool": "eprblab",
        "version": __version__,
        "command": command,
        "argv": argv,
        "seed": seed,
        "config": config,
        "config_sha256": _fingerprint(config),
        "outputs": sorted(files),
        **blocks,
    }
    manifest = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for stale in _stale_outputs(out, files):
        stale.unlink()
    for name, content in files.items():
        if isinstance(content, str):
            (out / name).write_text(content, encoding="utf-8")
            continue
        from .eventio import EventStream, _write_csv, write_events

        if isinstance(content, EventStream):
            write_events(out / name, content)
        else:
            _write_csv(out / name, *content)
    (out / "manifest.json").write_text(manifest, encoding="utf-8")
    return 0


class _Resolver:
    """Parameter resolution: explicit flag > config-file entry > default."""

    def __init__(self, config_path: str | None):
        self.cp = None
        if config_path:
            import configparser

            cp = configparser.ConfigParser()
            if not cp.read(config_path):
                raise FileNotFoundError(f"config file not found: {config_path}")
            self.cp = cp

    def get(self, flag_value, section: str, key: str, default, cast=float):
        """A file value that cast refuses, or a non-finite float, raises a
        ValueError naming [section] key. cast may be a flag's argparse type."""
        if flag_value is not None:
            return flag_value
        if self.cp is None or not self.cp.has_option(section, key):
            return default
        try:
            value = cast(self.cp.get(section, key))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"config [{section}] {key}: {exc}") from None
        if cast is float and not math.isfinite(value):
            raise ValueError(f"config [{section}] {key} must be finite, got {value!r}")
        return value


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one line on stderr, naming the flag.

    Every float literal that begins with "-" is a flag's value, not an
    option: argparse's own pattern misses exponents and -inf/-nan.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_FLOAT

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _angle(text: str) -> float:
    """An analyzer or basis angle, rad, as StationConfig and FixedBasisSource take it."""
    value = _finite_float(text)
    try:
        check_angle("angle", value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return value


def _angle_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"wants two comma-separated angles, got {text!r}")
    return _angle(parts[0]), _angle(parts[1])


def _source_model(text: str) -> str:
    if text not in _SOURCES:
        raise ValueError(f"must be one of {', '.join(_SOURCES)}, got {text!r}")
    return text


def _station_flags(p: argparse.ArgumentParser, scanned_b: bool, alpha_help: str = "") -> None:
    for dest, (_, _, _, text) in _STATION_KEYS.items():
        if scanned_b or dest != "alpha":
            text = alpha_help if dest == "alpha" and alpha_help else text
            kind = _angle if dest == "alpha" else _finite_float
            p.add_argument("--" + dest.replace("_", "-"), type=kind, help=text)


def _source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source", choices=_SOURCES, help="pair source model (default isotropic)")
    p.add_argument("--basis", type=_angle, help="fixed-hv basis angle, rad (default 0)")


def _common_flags(p: argparse.ArgumentParser, default_out: str) -> None:
    p.add_argument("--seed", type=_seed, help="random seed, u64 (default 0)")
    p.add_argument("--out", default=default_out, help=f"output directory (default {default_out})")
    p.add_argument("--config", help="key = value config file with per-station sections")


def _resolve_stations(args, res: _Resolver, **defaults: float):
    """Station A (at alpha), station B (at 0) and their config entries.

    defaults overrides a _STATION_KEYS default by dest. alpha is an entry
    only where the subcommand has --alpha.
    """
    from .optics import StationConfig

    cfg = {
        dest: res.get(
            getattr(args, dest, None), section, key, defaults.get(dest, default),
            _angle if dest == "alpha" else float,
        )
        for dest, (section, key, default, _) in _STATION_KEYS.items()
    }
    station_a = StationConfig(
        angle=cfg["alpha"], threshold=cfg["ta"], noise_sigma=cfg["noise_a"],
        efficiency=cfg["efficiency_a"],
    )
    station_b = StationConfig(
        angle=0.0, threshold=cfg["tb"], noise_sigma=cfg["noise_b"],
        efficiency=cfg["efficiency_b"],
    )
    if not hasattr(args, "alpha"):
        del cfg["alpha"]
    return station_a, station_b, cfg


def _resolve_source(args, res: _Resolver):
    """The pair source and its config entries {"source", "basis"}."""
    from .optics import FixedBasisSource, IsotropicSource

    name = res.get(args.source, "source", "model", "isotropic", cast=_source_model)
    basis = res.get(args.basis, "source", "basis", 0.0, cast=_angle)
    source = FixedBasisSource(basis=basis) if name == "fixed-hv" else IsotropicSource()
    return source, {"source": name, "basis": basis}


def _policy(name: str | None, value: float | None):
    """The disks knowledge policy a --policy name and --policy-value build.

    assume-zero assumes the remote setting is 0. integrate averages over the
    unknown remote setting, which a fresh uniform guess every trial samples.
    """
    from .disks import AssumeFixed, AssumeRandom, BothKnown

    name = name or "assume-zero"
    if name == "both-known":
        return BothKnown()
    if name in ("assume-random", "integrate"):
        return AssumeRandom()
    if name == "assume-zero":
        return AssumeFixed(value=0.0)
    if value is None:
        raise ValueError("--policy assume-fixed needs --policy-value")
    return AssumeFixed(value=value)


# --- disk-demo ---------------------------------------------------------------

def _cmd_disk_demo(args, argv: list[str]) -> int:
    from .disks import (
        BothKnown,
        SamplingMode,
        build_bell_special,
        build_param_disks,
        build_singlet_disk,
        joint_pmf_from_splits,
        policy_is_per_trial,
        sample_param_setup,
        sample_separated,
        split_disk,
    )

    res = _Resolver(args.config)
    seed = res.get(args.seed, "run", "seed", 0, cast=_seed)
    n = res.get(args.n, "run", "n", 100_000, cast=int)
    kind = SingletKind(args.kind)
    theta, alpha, beta = args.theta, args.alpha, args.beta
    disk_files: dict = {}
    exact: JointPmf | None = None

    if args.figure in ("1", "2", "3"):
        # Figure 1 reads the joint disk at one pointer per trial, which is
        # exactly what its two per-side projections give under a shared draw.
        disk = build_singlet_disk(theta, kind)
        target = disk.implied_pmf()
        da, db = split_disk(disk)
        mode = (
            SamplingMode.INDEPENDENT_LAMBDAS if args.figure == "3" else SamplingMode.SHARED_LAMBDA
        )
        counts = sample_separated(da, db, mode, n, seed)
        if args.figure == "1":
            disk_files = {"disk.txt": disk}
        else:
            disk_files = {"disk_a.txt": da, "disk_b.txt": db}
    elif args.figure in ("4", "5"):
        target = build_singlet_disk(alpha - beta, kind).implied_pmf()
        if args.figure == "4":
            policy_a = policy_b = BothKnown()
        else:
            policy_a = _policy(args.policy_a or args.policy, args.policy_value)
            policy_b = _policy(args.policy_b or args.policy, args.policy_value)
        counts = sample_param_setup(alpha, beta, policy_a, policy_b, kind, n, seed)
        if not (policy_is_per_trial(policy_a) or policy_is_per_trial(policy_b)):
            da, db = build_param_disks(alpha, beta, policy_a, policy_b, kind)
            disk_files = {"disk_a.txt": da, "disk_b.txt": db}
    else:  # special
        if kind is not SingletKind.ANTICORRELATED:
            raise ValueError("--figure special builds anticorrelated pairs only")
        da, db = build_bell_special(alpha)
        target = build_singlet_disk(alpha, kind).implied_pmf()
        counts = sample_separated(da, db, SamplingMode.SHARED_LAMBDA, n, seed)
        exact = joint_pmf_from_splits(da, db)
        disk_files = {"disk_a.txt": da, "disk_b.txt": db}

    empirical = counts.to_pmf()
    summary = dict(
        figure=args.figure, kind=args.kind, theta=theta, alpha=alpha, beta=beta, n=n, seed=seed,
        n_pp=counts.n_pp, n_pm=counts.n_pm, n_mp=counts.n_mp, n_mm=counts.n_mm,
        empirical_pmf=empirical.as_tuple(), target_pmf=target.as_tuple(),
        tv_distance=empirical.tv_distance(target),
    )
    if exact is not None:
        summary.update(exact_pmf=exact.as_tuple(), exact_tv_distance=exact.tv_distance(target))
    config = {
        "figure": args.figure, "kind": args.kind, "theta": theta, "alpha": alpha, "beta": beta,
        "policy": args.policy, "policy_a": args.policy_a, "policy_b": args.policy_b,
        "policy_value": args.policy_value, "n": n, "seed": seed,
    }
    files = {"summary.txt": _summary(**summary)}
    for name, disk in disk_files.items():
        # One line per sector, its fields in order.
        outcomes = "outcome_a,outcome_b" if name == "disk.txt" else "outcome"
        files[name] = _table(f"# start_rad,length_rad,{outcomes}", map(astuple, disk.sectors))
    return _write_run(args, "disk-demo", argv, seed, config, files)


# --- scan ----------------------------------------------------------------------

def _cmd_scan(args, argv: list[str]) -> int:
    from .scan import (
        ScanConfig,
        coincidence_modulation,
        default_b_angles,
        run_scan,
        singles_asymmetry,
    )

    res = _Resolver(args.config)
    for dest, value in SCAN_PRESETS.get(args.preset, {}).items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    seed = res.get(args.seed, "run", "seed", 0, cast=_seed)
    steps = res.get(args.steps, "run", "steps", 33, cast=int)
    pairs = res.get(args.pairs, "run", "pairs_per_step", 100_000, cast=int)
    station_a, station_b, stations = _resolve_stations(args, res)
    source, source_cfg = _resolve_source(args, res)

    cfg = ScanConfig(
        source=source, station_a=station_a, station_b=station_b,
        b_angles=default_b_angles(steps), pairs_per_step=pairs, seed=seed,
    )
    result = run_scan(cfg)
    try:
        ratio: float | None = singles_asymmetry(result)
    except ValueError:
        ratio = None

    config = {
        "preset": args.preset, **source_cfg, **stations,
        "steps": steps, "pairs_per_step": pairs, "seed": seed,
    }
    rows = []
    for step in result.steps:
        c = step.counts
        rows.append((step.b_angle, c.n_pp, c.n_pm, c.n_mp, c.n_mm, c.singles_a, c.singles_b,
                     c.doubles_a, c.doubles_b, c.misses_a, c.misses_b, step.match_probability,
                     step.correlation))
    summary = _summary(
        singles_ratio=ratio, coincidence_modulation=coincidence_modulation(result), seed=seed,
        config_sha256=_fingerprint(config),
    )
    files = {"scan.csv": _table(SCAN_CSV_HEADER, rows), "summary.txt": summary}
    return _write_run(args, "scan", argv, seed, config, files)


# --- chsh ------------------------------------------------------------------------

def _cmd_chsh(args, argv: list[str]) -> int:
    from .scan import run_chsh

    res = _Resolver(args.config)
    seed = res.get(args.seed, "run", "seed", 0, cast=_seed)
    pairs = res.get(args.pairs, "run", "pairs_per_setting", 100_000, cast=int)
    station_a, station_b, stations = _resolve_stations(args, res)
    source, source_cfg = _resolve_source(args, res)
    flags = (args.angle_a, args.angle_a2, args.angle_b, args.angle_b2)
    a, a2, b, b2 = (d if f is None else f for f, d in zip(flags, STANDARD_CHSH_ANGLES))

    pair_a = (replace(station_a, angle=a), replace(station_a, angle=a2))
    pair_b = (replace(station_b, angle=b), replace(station_b, angle=b2))
    report = run_chsh(source, pair_a, pair_b, pairs, seed)

    config = {
        **source_cfg, **stations, "angles_a": [a, a2], "angles_b": [b, b2],
        "pairs_per_setting": pairs, "seed": seed,
    }
    rows = []
    for name, i, j in (("ab", 0, 0), ("ab_prime", 0, 1), ("a_prime_b", 1, 0),
                       ("a_prime_b_prime", 1, 1)):
        t = report.tables[i][j]
        rows.append((name, report.angles_a[i], report.angles_b[j], t.n_pp, t.n_pm, t.n_mp,
                     t.n_mm, t.coincidences, report.e_values[i][j], report.stderrs[i][j]))
    summary = _summary(
        s=report.s, abs_s=report.abs_s, se_s=report.se_s, seed=seed,
        config_sha256=_fingerprint(config),
    )
    files = {"chsh.csv": _table(CHSH_CSV_HEADER, rows), "summary.txt": summary}
    return _write_run(args, "chsh", argv, seed, config, files)


# --- pathology ---------------------------------------------------------------------

def _cmd_pathology(args, argv: list[str]) -> int:
    from .scan import default_b_angles, pathology_probe

    res = _Resolver(args.config)
    seed = res.get(args.seed, "run", "seed", 0, cast=_seed)
    steps = res.get(args.steps, "run", "steps", 33, cast=int)
    pairs = res.get(args.pairs, "run", "pairs_per_step", 10_000, cast=int)
    station_a, station_b, stations = _resolve_stations(args, res, alpha=math.pi / 4)
    basis = res.get(args.basis, "source", "basis", 0.0, cast=_angle)

    report = pathology_probe(
        basis=basis, alpha=stations["alpha"], station_a=station_a, station_b=station_b,
        b_angles=default_b_angles(steps), pairs_per_step=pairs, seed=seed,
    )
    config = {"basis": basis, **stations, "steps": steps, "pairs_per_step": pairs, "seed": seed}
    rows = [
        (f.b_angle, f.match_probability, i.match_probability)
        for f, i in zip(report.fixed_scan.steps, report.isotropic_scan.steps)
    ]
    summary = _summary(
        basis=report.basis, alpha=report.alpha, a_double_rate=report.a_double_rate,
        a_single_rate=report.a_single_rate, a_miss_rate=report.a_miss_rate,
        max_match_deviation=report.max_match_deviation, seed=seed,
        config_sha256=_fingerprint(config),
    )
    files = {
        "pathology.csv": _table("b_angle_rad,match_fixed_basis,match_isotropic", rows),
        "summary.txt": summary,
    }
    return _write_run(args, "pathology", argv, seed, config, files)


# --- events ----------------------------------------------------------------------

def _cmd_events_gen(args, argv: list[str]) -> int:
    from .eventio import GeneratorConfig, generate_events

    res = _Resolver(args.config)
    seed = res.get(args.seed, "run", "seed", 0, cast=_seed)
    rate = res.get(args.rate, "run", "rate", 10_000.0)
    jitter = res.get(args.jitter, "run", "jitter", 10e-9)
    duration = res.get(args.duration, "run", "duration", 1.0)
    station_a, station_b, stations = _resolve_stations(args, res)
    source, source_cfg = _resolve_source(args, res)
    settings_a = args.angles_a or STANDARD_CHSH_ANGLES[:2]
    settings_b = args.angles_b or STANDARD_CHSH_ANGLES[2:]

    cfg = GeneratorConfig(
        source=source, station_a=station_a, station_b=station_b,
        settings_a=settings_a, settings_b=settings_b, mean_rate=rate, jitter_sigma=jitter,
    )
    streams = generate_events(cfg, duration, seed)

    config = {
        **source_cfg, **stations, "settings_a": list(settings_a), "settings_b": list(settings_b),
        "rate": rate, "jitter": jitter, "duration": duration, "seed": seed,
    }
    counters = {
        "n_pairs": streams.n_pairs,
        "records_a": len(streams.events_a),
        "records_b": len(streams.events_b),
        "truth_pairs": len(streams.truth),
    }
    files = {
        "events_a.csv": streams.events_a,
        "events_b.csv": streams.events_b,
        "truth.csv": ("a_row,b_row", streams.truth.T),
        "summary.txt": _summary(**counters, seed=seed, config_sha256=_fingerprint(config)),
    }
    return _write_run(args, "events gen", argv, seed, config, files, counters=counters)


def _read_input(path: str):
    """One events file and the sha256 of the bytes parsed, from one read."""
    from .eventio import read_events

    data = Path(path).read_bytes()
    return read_events(path, data), hashlib.sha256(data).hexdigest()


def _cmd_events_match(args, argv: list[str]) -> int:
    from .eventio import match_coincidences
    from .scan import chsh_report_from_tables

    (events_a, sha_a), (events_b, sha_b) = _read_input(args.a), _read_input(args.b)
    result = match_coincidences(events_a, events_b, args.window)
    rows = []
    for (sa, sb), t in sorted(result.tables.items()):
        try:
            e: float | None = correlation(t)
        except NoCoincidencesError:
            e = None
        rows.append((sa, sb, t.n_pp, t.n_pm, t.n_mp, t.n_mm, t.singles_a, t.singles_b, e))

    a, a2, b, b2 = STANDARD_CHSH_ANGLES
    try:
        s: float | None = chsh_report_from_tables(result.tables, (a, a2), (b, b2)).s
    except NoCoincidencesError:
        s = None
    config = {"a": str(args.a), "b": str(args.b), "window_ns": args.window}
    inputs = {
        side: {"path": str(path), "sha256": sha}
        for side, path, sha in (("a", args.a, sha_a), ("b", args.b, sha_b))
    }
    summary = _summary(
        window_ns=args.window, n_matched=result.n_matched, s=s,
        abs_s=None if s is None else abs(s), config_sha256=_fingerprint(config),
    )
    counters = {
        "records_a": len(events_a),
        "records_b": len(events_b),
        "n_matched": result.n_matched,
        "unmatched_a": len(events_a) - result.n_matched,
        "unmatched_b": len(events_b) - result.n_matched,
    }
    files = {"matched.csv": _table(MATCH_CSV_HEADER, rows), "summary.txt": summary}
    return _write_run(
        args, "events match", argv, None, config, files, inputs=inputs, counters=counters
    )


# --- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eprblab",
        description="Deterministic two-station polarization-correlation lab.",
    )
    parser.add_argument("--version", action="version", version=f"eprblab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "disk-demo",
        help="sample a disk-embodied joint distribution in one of six setups",
        description=(
            "Figures: 1 joint disk, 2 split disks + shared draw, 3 split disks"
            " + independent draws, 4 setting-difference disks with both"
            " settings known, 5 per-side setting guesses via knowledge"
            " policies, special: the fixed-remote-setting offset construction."
        ),
    )
    p.add_argument("--figure", required=True, choices=["1", "2", "3", "4", "5", "special"])
    p.add_argument("--theta", type=_finite_float, default=math.pi / 8,
                   help="relative angle for figures 1-3 (default pi/8)")
    p.add_argument("--alpha", type=_finite_float, default=0.0,
                   help="station A setting for figures 4/5/special (default 0)")
    p.add_argument("--beta", type=_finite_float, default=0.0,
                   help="station B setting for figures 4/5 (default 0)")
    p.add_argument("--kind", choices=sorted(k.value for k in SingletKind), default="anticorrelated",
                   help="pair preparation (default anticorrelated)")
    for flag, text in (
        ("--policy", "figure-5 knowledge policy for both sides (default assume-zero)"),
        ("--policy-a", "override figure-5 policy for side A"),
        ("--policy-b", "override figure-5 policy for side B"),
    ):
        p.add_argument(flag, choices=list(_POLICIES), help=text)
    p.add_argument("--policy-value", type=_finite_float,
                   help="assumed remote setting for assume-fixed")
    p.add_argument("--n", type=int, help="trials (default 100000)")
    _common_flags(p, "disk-demo-out")
    p.set_defaults(func=_cmd_disk_demo)

    p = sub.add_parser("scan", help="sweep station B over [0, pi] and tabulate")
    p.add_argument("--preset", choices=sorted(SCAN_PRESETS),
                   help="bind thresholds and A angle: figure6 = 0.5/0.5, figure7 ="
                        " 0.5/0.92, figure8-left = 0.5/0.75 alpha 0, figure8-right"
                        " = 0.5/0.75 alpha pi/4")
    _station_flags(p, scanned_b=True)
    _source_flags(p)
    p.add_argument("--steps", type=int, help="scan steps over [0, pi] (default 33)")
    p.add_argument("--pairs", type=int, help="pairs per step (default 100000)")
    _common_flags(p, "scan-out")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("chsh", help="four-setting CHSH run")
    _station_flags(p, scanned_b=False)
    _source_flags(p)
    p.add_argument("--angle-a", type=_angle, help="setting a (default 0)")
    p.add_argument("--angle-a2", type=_angle, help="setting a' (default pi/4)")
    p.add_argument("--angle-b", type=_angle, help="setting b (default pi/8)")
    p.add_argument("--angle-b2", type=_angle, help="setting b' (default 3*pi/8)")
    p.add_argument("--pairs", type=int, help="pairs per setting (default 100000)")
    _common_flags(p, "chsh-out")
    p.set_defaults(func=_cmd_chsh)

    p = sub.add_parser("pathology", help="fixed-basis source probe with A at alpha")
    p.add_argument("--basis", type=_angle, help="source basis angle (default 0)")
    _station_flags(p, scanned_b=True, alpha_help="station A analyzer angle, rad (default pi/4)")
    p.add_argument("--steps", type=int, help="scan steps (default 33)")
    p.add_argument("--pairs", type=int, help="pairs per step (default 10000)")
    _common_flags(p, "pathology-out")
    p.set_defaults(func=_cmd_pathology)

    p = sub.add_parser("events", help="time-tagged event-file pipeline")
    esub = p.add_subparsers(dest="events_command", required=True)

    g = esub.add_parser("gen", help="generate per-side time-tag streams")
    g.add_argument("--rate", type=_finite_float, help="mean pair rate, pairs/s (default 10000)")
    g.add_argument("--jitter", type=_finite_float, help="per-side latency sigma, s (default 10e-9)")
    g.add_argument("--duration", type=_finite_float, help="run length, s (default 1.0)")
    g.add_argument("--angles-a", type=_angle_pair,
                   help="two comma-separated A settings (default 0,pi/4)")
    g.add_argument("--angles-b", type=_angle_pair,
                   help="two comma-separated B settings (default pi/8,3pi/8)")
    _station_flags(g, scanned_b=False)
    _source_flags(g)
    _common_flags(g, "events-out")
    g.set_defaults(func=_cmd_events_gen)

    m = esub.add_parser("match", help="window-match two streams into count tables")
    m.add_argument("--a", required=True, help="station A events CSV")
    m.add_argument("--b", required=True, help="station B events CSV")
    m.add_argument("--window", required=True, type=int, help="coincidence window, ns")
    m.add_argument("--out", default="match-out", help="output directory (default match-out)")
    m.set_defaults(func=_cmd_events_match)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except Exception as exc:  # runtime failure contract: exit 1, message on stderr
        print(f"eprblab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
