"""Command-line front end.

Subcommands: disk-demo, scan, chsh, pathology, events gen, events match.
Every option that a config file can set is declared once, in _OPTIONS: its
flag, [section] key, default, type and help. _flags adds a subcommand's
flags from the table, and _resolve gives each the explicit flag, else the
--config file's entry, else the default; a file entry that names no option,
or that its option's type refuses, exits 1. No calibration parameter is
silent: --help states each default, and the resolved values land in the
manifest's config, keyed by dest.

Every table and summary.txt renders through domain's one cell rule (_table,
_summary), and _write_run writes the run record beside --out and swaps it in
whole: --out belongs to the run, a failed run leaves it as it was, and
re-running the manifest's argv reproduces every CSV byte for byte. An
existing --out must be empty or a run record (_check_out), which main checks
before dispatch. Exit codes: 0 success, 1 runtime failure, 2 usage error.

Each handler imports the modules it runs when it is dispatched, as names
local to the handler, so a launch compiles only its subcommand's modules
and a name patched in its module is seen at the next call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import sys
from collections import namedtuple
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

from . import __version__
from .domain import (
    STANDARD_CHSH_ANGLES,
    JointPmf,
    NoCoincidencesError,
    SingletKind,
    _summary,
    _table,
    check_angle,
    chsh,
    correlation,
)

SCAN_PRESETS = {
    "figure6": {"ta": 0.5, "tb": 0.5, "alpha": 0.0},
    "figure7": {"ta": 0.5, "tb": 0.92, "alpha": 0.0},
    "figure8-left": {"ta": 0.5, "tb": 0.75, "alpha": 0.0},
    "figure8-right": {"ta": 0.5, "tb": 0.75, "alpha": math.pi / 4},
}

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


def _environment() -> dict:
    """Where the run ran: output bytes hold per numpy version, whose
    generators draw every sample. nproc counts the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "platform": sys.platform,
        "nproc": nproc,
    }


def _fingerprint(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()
    ).hexdigest()


def _check_out(path: str) -> Path:
    """The resolved --out, refused unless absent, an empty directory or a run
    record: one holding a manifest.json, which is not read."""
    out = Path(path).resolve()
    if out.exists() and not (out.is_dir() and ((out / "manifest.json").is_file()
                                               or not any(out.iterdir()))):
        raise ValueError(f"--out {path} is neither an empty directory nor a run record")
    return out


def _write_run(args, command: str, argv: list[str], seed: int | None, config: dict,
               files: dict, **blocks: dict) -> int:
    """Write one run record as --out, whole, and return the exit code 0.

    files maps each output name to its text, to an EventStream, which
    write_events writes, or to a (header, integer columns) pair, which the
    same chunked CSV writer writes as one row per index. The --config file
    that _resolve read, if any, is the manifest's inputs block. The manifest is
    serialized first, so a NaN or infinity in it stops the run before anything
    is written. --out belongs to the run, and _check_out checks it again before
    the swap. The outputs and manifest.json go into .NAME.PID.new beside the
    resolved --out, and two renames swap it in; a failure before the second
    puts --out back as it was and leaves no sibling.
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
        "environment": _environment(),
        **({"inputs": args.inputs} if getattr(args, "inputs", None) else {}),
        **blocks,
    }
    manifest = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    out = _check_out(args.out)
    new, old = (out.with_name(f".{out.name}.{os.getpid()}.{end}") for end in ("new", "old"))
    out.parent.mkdir(parents=True, exist_ok=True)
    new.mkdir()
    moved = False
    try:
        for name, content in {**files, "manifest.json": manifest}.items():
            if isinstance(content, str):
                (new / name).write_text(content, encoding="utf-8")
                continue
            from .eventio import EventStream, _write_csv, write_events

            if isinstance(content, EventStream):
                write_events(new / name, content)
            else:
                _write_csv(new / name, *content)
        if out.exists():
            out.rename(old)
            moved = True
        new.rename(out)  # a kill here leaves no --out: the earlier run at old, this one at new
    except BaseException:
        if moved:
            old.rename(out)
        shutil.rmtree(new, ignore_errors=True)
        raise
    if moved:
        shutil.rmtree(old)
    return 0


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
    """Every angle flag's value, rad: |x| <= 2**43 (check_angle), so differences stay finite."""
    value = _finite_float(text)
    try:
        check_angle("angle", value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _integer(text: str, top: int, limit: str) -> int:
    """text as an integer in [0, top]; past top, a usage error saying it must be limit."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    if value > top:
        raise argparse.ArgumentTypeError(f"must be {limit}, got {text!r}")
    return value


def _seed(text: str) -> int:
    return _integer(text, 2**64 - 1, "below 2**64")


#: Most scan steps: each is held to the end, ~0.74 kB and ~0.34 ms.
_MAX_STEPS = 2**16
#: Most pairs per step or setting, and disk trials: a lossy or noisy count
#: holds two int8 codes a pair, so 2 GiB at the cap.
_MAX_PAIRS = 2**30


def _size(ceiling: int):
    """The type of a run-size option: an integer in [0, ceiling], a power of two."""
    limit = f"at most 2**{ceiling.bit_length() - 1} = {ceiling}"
    return lambda text: _integer(text, ceiling, limit)


def _angle_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"wants two comma-separated angles, got {text!r}")
    return _angle(parts[0]), _angle(parts[1])


#: A config-file option; an empty flag is "--" + the dest with "-" for "_".
_Option = namedtuple("_Option", "section key default type help flag choices",
                     defaults=("", None))

#: Every option that a config file can set, by dest, which is also its key in
#: the manifest's config. One type casts both the flag and the file value.
_OPTIONS = {
    "ta": _Option("station_a", "threshold", 0.5, _finite_float,
                  "station A detection threshold (default 0.5)"),
    "tb": _Option("station_b", "threshold", 0.5, _finite_float,
                  "station B detection threshold (default 0.5)"),
    "noise_a": _Option("station_a", "noise_sigma", 0.0, _finite_float,
                       "station A channel noise sigma (default 0)"),
    "noise_b": _Option("station_b", "noise_sigma", 0.0, _finite_float,
                       "station B channel noise sigma (default 0)"),
    "efficiency_a": _Option("station_a", "efficiency", 1.0, _finite_float,
                            "station A efficiency in (0,1] (default 1)"),
    "efficiency_b": _Option("station_b", "efficiency", 1.0, _finite_float,
                            "station B efficiency in (0,1] (default 1)"),
    "alpha": _Option("station_a", "angle", 0.0, _angle,
                     "station A analyzer angle, rad (default 0)"),
    "source": _Option("source", "model", "isotropic", str, "pair source model (default isotropic)",
                      choices=("isotropic", "fixed-hv")),
    "basis": _Option("source", "basis", 0.0, _angle, "fixed-hv basis angle, rad (default 0)"),
    "seed": _Option("run", "seed", 0, _seed, "random seed, u64 (default 0)"),
    "steps": _Option("run", "steps", 33, _size(_MAX_STEPS), "scan steps over [0, pi] (default 33)"),
    "pairs_per_step": _Option("run", "pairs_per_step", 100_000, _size(_MAX_PAIRS),
                              "pairs per step (default 100000)", flag="--pairs"),
    "pairs_per_setting": _Option("run", "pairs_per_setting", 100_000, _size(_MAX_PAIRS),
                                 "pairs per setting (default 100000)", flag="--pairs"),
    "n": _Option("run", "n", 100_000, _size(_MAX_PAIRS), "trials (default 100000)"),
    "rate": _Option("run", "rate", 10_000.0, _finite_float,
                    "mean pair rate, pairs/s (default 10000)"),
    "jitter": _Option("run", "jitter", 10e-9, _finite_float,
                      "per-side latency sigma, s (default 10e-9)"),
    "duration": _Option("run", "duration", 1.0, _finite_float, "run length, s (default 1.0)"),
}

_STATIONS = ("ta", "tb", "noise_a", "noise_b", "efficiency_a", "efficiency_b")


def _flags(p: argparse.ArgumentParser, *dests: str, **help_overrides: str) -> None:
    """Add the flags of these _OPTIONS dests to p and record the dests on it."""
    for dest in dests:
        o = _OPTIONS[dest]
        p.add_argument(o.flag or "--" + dest.replace("_", "-"), dest=dest, type=o.type,
                       choices=o.choices, metavar=o.flag[2:].upper() or None,
                       help=help_overrides.get(dest, o.help))
    p.set_defaults(options=(*(p.get_default("options") or ()), *dests))


def _common_flags(p: argparse.ArgumentParser, default_out: str) -> None:
    _flags(p, "seed")
    p.add_argument("--out", default=default_out, help=f"output directory (default {default_out})")
    p.add_argument("--config", help="key = value config file with per-station sections")


def _resolve(args, **default_overrides) -> dict:
    """The subcommand's options by dest: the flag, else the --config file's
    entry, else default_overrides, else the table default. Every file entry is
    cast, read here or not; one that no option has or its type refuses raises,
    as does a file that does not parse. Values are read as written, with no %.
    The file is read once, and args.inputs records the sha256 of the bytes parsed."""
    values = {}
    if args.config:
        import configparser
        import io

        try:
            data = Path(args.config).read_bytes()
        except OSError:
            raise FileNotFoundError(f"config file not found: {args.config}") from None
        args.inputs = {"config": {"path": args.config, "sha256": hashlib.sha256(data).hexdigest()}}
        try:
            text = data.decode()
        except UnicodeDecodeError as exc:
            line = len(data[: exc.start + 1].splitlines())
            raise ValueError(f"config {args.config}: not UTF-8 "
                             f"(byte 0x{data[exc.start]:02x} at line {line})") from None
        cp = configparser.ConfigParser(interpolation=None)
        try:  # universal newlines, as a text-mode read of the file has
            cp.read_file(io.StringIO(text, newline=None), args.config)
        except configparser.Error as exc:  # whose own message takes two or three lines
            why = {"MissingSectionHeaderError": "no [section] header above it",
                   "DuplicateSectionError": "repeats a [section]",
                   "DuplicateOptionError": "repeats a key"}.get(type(exc).__name__)
            line = getattr(exc, "lineno", None) or exc.errors[0][0]
            raise ValueError(f"config {args.config} line {line}: {why or 'not key = value'}")
        dests = {(o.section, o.key): dest for dest, o in _OPTIONS.items()}
        for section in (cp.default_section, *cp.sections()):
            for key, text in cp[section].items():
                where, dest = f"config [{section}] {key}", dests.get((section, key))
                if dest is None:
                    raise ValueError(f"{where}: unknown key")
                o = _OPTIONS[dest]
                try:
                    values[dest] = o.type(text)
                    if o.choices and text not in o.choices:
                        raise ValueError(f"must be one of {', '.join(o.choices)}, got {text!r}")
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise ValueError(f"{where}: {exc}") from None
    return {
        dest: values.get(dest, default_overrides.get(dest, _OPTIONS[dest].default))
        if getattr(args, dest) is None else getattr(args, dest)
        for dest in args.options
    }


def _stations(opt: dict):
    """Station A (at alpha, else 0) and station B (at 0) from resolved options."""
    from .optics import StationConfig

    return (StationConfig(opt.get("alpha", 0.0), opt["ta"], opt["noise_a"], opt["efficiency_a"]),
            StationConfig(0.0, opt["tb"], opt["noise_b"], opt["efficiency_b"]))


def _source(opt: dict):
    from .optics import FixedBasisSource, IsotropicSource

    return FixedBasisSource(opt["basis"]) if opt["source"] == "fixed-hv" else IsotropicSource()


def _policy(args: argparse.Namespace, side: str):
    """The knowledge policy of side "a" or "b": --policy-<side>, else --policy.

    assume-zero assumes the remote setting is 0. integrate averages over the
    unknown remote setting, which a fresh uniform guess every trial samples.
    """
    from .disks import AssumeFixed, AssumeRandom, BothKnown

    flag, name = f"--policy-{side}", getattr(args, f"policy_{side}")
    if name is None:
        flag, name = "--policy", args.policy or "assume-zero"
    if name == "both-known":
        return BothKnown()
    if name in ("assume-random", "integrate"):
        return AssumeRandom()
    if name == "assume-zero":
        return AssumeFixed(value=0.0)
    if args.policy_value is None:
        raise ValueError(f"{flag} assume-fixed needs --policy-value")
    return AssumeFixed(value=args.policy_value)


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

    # A flag that the figure does not read exits 1 rather than enter the hashed config.
    reads = {"4": {"alpha", "beta"}, "5": {"alpha", "beta", "policy_a", "policy_b"},
             "special": {"alpha"}}.get(args.figure, {"theta"})
    if args.figure == "5" and not (args.policy_a and args.policy_b):
        reads.add("policy")
    if "assume-fixed" in (args.policy_a or args.policy, args.policy_b or args.policy):
        reads.add("policy_value")
    for dest in ("theta", "alpha", "beta", "policy", "policy_a", "policy_b", "policy_value"):
        if getattr(args, dest) is not None and dest not in reads:
            raise ValueError(f"--figure {args.figure} does not read --{dest.replace('_', '-')}")
    opt = _resolve(args)
    n, seed = opt["n"], opt["seed"]
    kind = SingletKind(args.kind)
    theta = math.pi / 8 if args.theta is None else args.theta
    alpha = 0.0 if args.alpha is None else args.alpha
    beta = 0.0 if args.beta is None else args.beta
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
            policy_a, policy_b = _policy(args, "a"), _policy(args, "b")
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
        "policy_value": args.policy_value, **opt,
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

    for dest, value in SCAN_PRESETS.get(args.preset, {}).items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    opt = _resolve(args)
    seed = opt["seed"]
    station_a, station_b = _stations(opt)
    cfg = ScanConfig(
        source=_source(opt), station_a=station_a, station_b=station_b,
        b_angles=default_b_angles(opt["steps"]), pairs_per_step=opt["pairs_per_step"], seed=seed,
    )
    result = run_scan(cfg)
    try:
        ratio: float | None = singles_asymmetry(result)
    except ValueError:
        ratio = None

    config = {"preset": args.preset, **opt}
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
    from .scan import CHSH_PAIRS, run_chsh

    opt = _resolve(args)
    seed = opt["seed"]
    station_a, station_b = _stations(opt)
    a, a2, b, b2 = args.angle_a, args.angle_a2, args.angle_b, args.angle_b2

    pair_a = (replace(station_a, angle=a), replace(station_a, angle=a2))
    pair_b = (replace(station_b, angle=b), replace(station_b, angle=b2))
    report = run_chsh(_source(opt), pair_a, pair_b, opt["pairs_per_setting"], seed)

    config = {**opt, "angles_a": [a, a2], "angles_b": [b, b2]}
    rows = []
    for name, (i, j) in CHSH_PAIRS.items():
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

    config = _resolve(args, alpha=math.pi / 4, pairs_per_step=10_000)
    seed = config["seed"]
    station_a, station_b = _stations(config)

    report = pathology_probe(
        basis=config["basis"], alpha=config["alpha"], station_a=station_a, station_b=station_b,
        b_angles=default_b_angles(config["steps"]), pairs_per_step=config["pairs_per_step"],
        seed=seed,
    )
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

    opt = _resolve(args)
    seed = opt["seed"]
    station_a, station_b = _stations(opt)
    cfg = GeneratorConfig(
        source=_source(opt), station_a=station_a, station_b=station_b, settings_a=args.angles_a,
        settings_b=args.angles_b, mean_rate=opt["rate"], jitter_sigma=opt["jitter"],
    )
    streams = generate_events(cfg, opt["duration"], seed)

    config = {**opt, "settings_a": list(args.angles_a), "settings_b": list(args.angles_b)}
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

    (events_a, sha_a), (events_b, sha_b) = _read_input(args.a), _read_input(args.b)
    result = match_coincidences(events_a, events_b, args.window)
    rows = []
    for (sa, sb), t in sorted(result.tables.items()):
        try:
            e: float | None = correlation(t)
        except NoCoincidencesError:
            e = None
        rows.append((sa, sb, t.n_pp, t.n_pm, t.n_mp, t.n_mm, t.singles_a, t.singles_b, e))

    # The rows run (0,0), (0,1), (1,0), (1,1): chsh's argument order.
    es = [row[-1] for row in rows]
    s = None if None in es else chsh(*es)
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
    p.add_argument("--theta", type=_angle,
                   help="relative angle for figures 1-3 (default pi/8)")
    p.add_argument("--alpha", type=_angle,
                   help="station A setting for figures 4/5/special (default 0)")
    p.add_argument("--beta", type=_angle,
                   help="station B setting for figures 4/5 (default 0)")
    p.add_argument("--kind", choices=sorted(k.value for k in SingletKind), default="anticorrelated",
                   help="pair preparation (default anticorrelated)")
    for flag, text in (
        ("--policy", "figure-5 knowledge policy for both sides (default assume-zero)"),
        ("--policy-a", "override figure-5 policy for side A"),
        ("--policy-b", "override figure-5 policy for side B"),
    ):
        p.add_argument(flag, choices=list(_POLICIES), help=text)
    p.add_argument("--policy-value", type=_angle,
                   help="assumed remote setting for assume-fixed")
    _flags(p, "n")
    _common_flags(p, "disk-demo-out")
    p.set_defaults(func=_cmd_disk_demo)

    p = sub.add_parser("scan", help="sweep station B over [0, pi] and tabulate")
    p.add_argument("--preset", choices=sorted(SCAN_PRESETS),
                   help="bind thresholds and A angle: figure6 = 0.5/0.5, figure7 ="
                        " 0.5/0.92, figure8-left = 0.5/0.75 alpha 0, figure8-right"
                        " = 0.5/0.75 alpha pi/4")
    _flags(p, *_STATIONS, "alpha", "source", "basis", "steps", "pairs_per_step")
    _common_flags(p, "scan-out")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("chsh", help="four-setting CHSH run")
    _flags(p, *_STATIONS, "source", "basis")
    a, a2, b, b2 = STANDARD_CHSH_ANGLES
    p.add_argument("--angle-a", type=_angle, default=a, help="setting a (default 0)")
    p.add_argument("--angle-a2", type=_angle, default=a2, help="setting a' (default pi/4)")
    p.add_argument("--angle-b", type=_angle, default=b, help="setting b (default pi/8)")
    p.add_argument("--angle-b2", type=_angle, default=b2, help="setting b' (default 3*pi/8)")
    _flags(p, "pairs_per_setting")
    _common_flags(p, "chsh-out")
    p.set_defaults(func=_cmd_chsh)

    p = sub.add_parser("pathology", help="fixed-basis source probe with A at alpha")
    _flags(p, "basis", *_STATIONS, "alpha", "steps", "pairs_per_step",
           basis="source basis angle (default 0)",
           alpha="station A analyzer angle, rad (default pi/4)",
           steps="scan steps (default 33)", pairs_per_step="pairs per step (default 10000)")
    _common_flags(p, "pathology-out")
    p.set_defaults(func=_cmd_pathology)

    p = sub.add_parser("events", help="time-tagged event-file pipeline")
    esub = p.add_subparsers(dest="events_command", required=True)

    g = esub.add_parser("gen", help="generate per-side time-tag streams")
    _flags(g, "rate", "jitter", "duration")
    g.add_argument("--angles-a", type=_angle_pair, default=STANDARD_CHSH_ANGLES[:2],
                   help="two comma-separated A settings (default 0,pi/4)")
    g.add_argument("--angles-b", type=_angle_pair, default=STANDARD_CHSH_ANGLES[2:],
                   help="two comma-separated B settings (default pi/8,3pi/8)")
    _flags(g, *_STATIONS, "source", "basis")
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
        _check_out(args.out)  # before any handler computes
        return args.func(args, argv)
    except Exception as exc:  # runtime failure contract: exit 1, message on stderr
        print(f"eprblab: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
